#!/usr/bin/env python3
"""Header reach check: every src/**/*.hpp must be used by the program.

A header is reached when some file under src/ tools/ examples/ bench/ perf/
other than its own .cpp includes it (as "dir/name.hpp", the repo's include
form). Includes from unreached headers do not count, so an umbrella header
cannot keep what only it includes alive. Unit tests do not count either:
code that only its own tests reach is dead code. Exits 1 listing every
unreached header.

Usage: scripts/check_reach.py
"""

import pathlib
import re
import sys

root = pathlib.Path(__file__).resolve().parent.parent
src = root / "src"
files = [p for d in ("src", "tools", "examples", "bench", "perf")
         for p in (root / d).rglob("*") if p.suffix in (".hpp", ".cpp")]
includes = {p: set(re.findall(r'#include "([^"]+)"', p.read_text())) for p in files}
headers = {p.relative_to(src).as_posix(): p for p in src.rglob("*.hpp")}

dead = set()
while True:
    unreached = {h for name, h in headers.items() if h not in dead and not any(
        name in inc for p, inc in includes.items()
        if p not in dead and p != h.with_suffix(".cpp"))}
    if not unreached:
        break
    dead |= unreached

for h in sorted(dead):
    print(f"check_reach: {h.relative_to(root)} has no includer outside its own .cpp",
          file=sys.stderr)
sys.exit(1 if dead else 0)
