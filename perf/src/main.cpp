// bmf_perf: the repository benchmark.
//
//   bmf_perf --workload paper_flow|serve_ingest|serve_query --seed N
//            --seconds S --trace 0|1 [--git-rev REV] [--trace-out PATH]
//
// Runs one seeded workload for S seconds against the library, checks its
// outputs, and prints two JSON lines on stdout: a "run" line (metadata,
// per-phase operation counts, checks, run facts) and the result line
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 additionally replays the workload's
// operations through each layer's public functions under spans and reports
// the per-layer metrics instead. Exits 1 on a bad flag or a crash.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace bmfperf {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Per-layer metrics, in report order. Each times a call into one public
// function (see README.md for the end-to-end metric each should move).
constexpr LayerMetric kLayers[] = {
    {"circuit.dc.solve_us", "us"},
    {"circuit.dc.newton_iters", "count"},
    {"circuit.ac.sweep_us", "us"},
    {"circuit.opamp.sample_us", "us"},
    {"circuit.adc.sample_us", "us"},
    {"dsp.tone_us", "us"},
    {"common.pool.mc_efficiency", "ratio"},
    {"core.shift_scale_us", "us"},
    {"core.cv.select_us", "us"},
    {"core.cv.grid_points", "count"},
    {"core.map_fuse_us", "us"},
    {"core.mle_us", "us"},
    {"core.snapshot_us", "us"},
    {"fusion.snapshot_us", "us"},
    {"fusion.correlation_us", "us"},
    {"serve.protocol.binary_us", "us"},
    {"serve.protocol.json_us", "us"},
    {"common.json.parse_us", "us"},
    {"serve.session.observe_us", "us"},
    {"serve.session.estimate_us", "us"},
    {"stats.stream.add_rows_us", "us"},
    {"stats.wire.parse_shard_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.bytes_per_request", "bytes"},
    {"trace.unattributed_frac", "ratio"},
};

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bmf_perf: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "bmf_perf: --trace takes 0 or 1\n");
        return false;
      }
      options.trace = value == "1";
    } else if (flag == "--git-rev") {
      options.git_rev = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "bmf_perf: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bmf_perf: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    std::fprintf(stderr, "bmf_perf: --workload and a positive --seconds "
                         "are required\n");
    return false;
  }
  options.threads = cpu_count();
  return true;
}

}  // namespace

void emit_end_to_end(const EndToEnd& e2e, Report& report) {
  report.metric("rate_per_s", e2e.rate_per_s, "1/s");
  report.metric("latency_p50_us", e2e.latency_p50_us, "us");
  report.metric("latency_p90_us", e2e.latency_p90_us, "us");
  report.metric("aux_rate_per_s", e2e.aux_rate_per_s, "1/s");
  report.metric("aux_latency_p50_us", e2e.aux_latency_p50_us, "us");
  report.metric("aux_latency_p90_us", e2e.aux_latency_p90_us, "us");
  report.metric("cov_err_ratio", e2e.cov_err_ratio, "ratio");
  report.metric("setup_s", e2e.setup_s, "s");
  report.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  // p99 moves by up to half between runs on a shared host, beyond any
  // useful regression bound, so it is reported but not gated.
  report.fact("latency_p99_us", e2e.latency_p99_us);
  report.fact("aux_latency_p99_us", e2e.aux_latency_p99_us);
}

void emit_layers(const std::map<std::string, double>& measured,
                 Report& report) {
  for (const LayerMetric& layer : kLayers) {
    const auto it = measured.find(layer.name);
    report.metric(layer.name, it == measured.end() ? 0.0 : it->second,
                  layer.unit);
  }
}

}  // namespace bmfperf

int main(int argc, char** argv) {
  using namespace bmfperf;
  Options options;
  if (!parse_args(argc, argv, options)) return 1;
  try {
    Report report;
    if (options.workload == "paper_flow") {
      run_paper_flow(options, report);
    } else if (options.workload == "serve_ingest") {
      run_serve_ingest(options, report);
    } else if (options.workload == "serve_query") {
      run_serve_query(options, report);
    } else {
      std::fprintf(stderr, "bmf_perf: unknown workload %s\n",
                   options.workload.c_str());
      return 1;
    }
    report.print(options);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmf_perf: %s\n", e.what());
    return 1;
  }
}
