#include "serve/protocol.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "core/estimator.hpp"
#include "linalg/matrix.hpp"
#include "log/log.hpp"
#include "stats/stat_wire.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::serve {

using linalg::Matrix;
using linalg::Vector;

namespace {

std::atomic<std::uint64_t> g_request_ids{0};
std::atomic<std::uint64_t> g_slow_threshold_ns{0};

}  // namespace

std::uint64_t process_start_ns() {
  static const std::uint64_t start = telemetry::now_ns();
  return start;
}

double process_uptime_s() {
  // Latch the start before reading the clock: the first call must not
  // subtract a later start from an earlier now.
  const std::uint64_t start = process_start_ns();
  return static_cast<double>(telemetry::now_ns() - start) * 1e-9;
}

std::uint64_t next_request_id() {
  return g_request_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

void set_slow_request_threshold_us(double us) {
  g_slow_threshold_ns.store(
      us > 0.0 ? static_cast<std::uint64_t>(us * 1e3) : 0u,
      std::memory_order_relaxed);
}

double slow_request_threshold_us() {
  return static_cast<double>(
             g_slow_threshold_ns.load(std::memory_order_relaxed)) *
         1e-3;
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

std::string json_error(std::string_view type, std::string_view message) {
  std::string out = "{\"ok\":false,\"error\":{\"type\":\"";
  append_json_escaped(out, type);
  out += "\",\"message\":\"";
  append_json_escaped(out, message);
  out += "\"}}";
  return out;
}

namespace {

/// Cursor over a binary request payload; all reads throw DataError with a
/// byte offset on truncation, so malformed frames answer in-band like
/// malformed JSON does.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  std::uint16_t read_u16() { return read_scalar<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_scalar<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_scalar<std::uint64_t>(); }

  std::string_view read_string() { return read_bytes(read_u16()); }

  std::string_view read_bytes(std::size_t size) {
    if (data_.size() - pos_ < size) fail("truncated");
    const std::string_view out = data_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  /// rows * cols doubles (cols > 0). The count is checked against the
  /// remaining bytes by division, so no product can wrap.
  std::string_view read_doubles(std::size_t rows, std::size_t cols) {
    if ((data_.size() - pos_) / sizeof(double) / cols < rows) {
      fail("truncated");
    }
    return read_bytes(rows * cols * sizeof(double));
  }

  /// Everything not consumed yet (shard bytes trail the fixed fields).
  std::string_view rest() { return read_bytes(data_.size() - pos_); }

  void expect_consumed() const {
    if (pos_ != data_.size()) fail("trailing bytes");
  }

 private:
  template <typename T>
  T read_scalar() {
    T value;
    std::memcpy(&value, read_bytes(sizeof(T)).data(), sizeof(T));
    return value;
  }

  [[noreturn]] void fail(const char* what) const {
    throw DataError(
        std::string("malformed binary request payload (") + what + ")",
        ErrorContext{}
            .with_operation("serve_binary")
            .with_index(pos_));
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

struct OpSpec;

/// One request in flight, whichever wire mode carried it: the decoded
/// fields, then what its op produced for the encoder.
struct Call {
  SessionRegistry& registry;
  ProtocolResult& result;  ///< request id, shutdown, switch_to_binary
  const OpSpec* op = nullptr;
  JsonValue json{};  ///< JSON request (open spec, hello mode); null if framed
  std::string session{};
  std::size_t population = 0;
  bool population_given = false;  ///< JSON observe echoes it back
  Matrix samples{};               ///< observe
  stats::StatsShard shard{};      ///< absorb: decoded; stats: exported
  std::uint64_t shard_id = 0;     ///< stats
  std::size_t total = 0;          ///< observe/absorb: session total after
  bool duplicate = false;         ///< absorb
  /// Ops without a native opcode have only the JSON encoding, so they
  /// write their reply members while they run.
  std::string members{};
};

/// One row per op: its wire names, how each mode decodes it, the one
/// execution against the registry, and how each mode encodes the reply.
/// Null decoders/encoders mean "nothing beyond the common fields".
struct OpSpec {
  const char* name;      ///< JSON "op" and metric infix (serve.<name>.*)
  std::uint8_t opcode;   ///< native binary opcode; 0 = JSON (or kJson) only
  bool session;          ///< carries a required session id
  void (*from_json)(Call&);
  void (*from_frame)(Call&, std::uint16_t flags, PayloadReader&);
  void (*run)(Call&);
  void (*to_json)(std::string&, const Call&);
  void (*to_frame)(std::string&, const Call&);
};

const JsonValue& required_member(const JsonValue& request, const char* key) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) {
    throw DataError(std::string("request needs \"") + key + "\"",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  return *value;
}

[[noreturn]] void missing_string(const char* key) {
  throw DataError(std::string("request needs a string \"") + key + "\"",
                  ErrorContext{}.with_operation("serve_protocol"));
}

/// JSON numbers are doubles, so an id survives the trip only as an exact
/// nonnegative integer: non-integral values and anything above `max`
/// (`max_text`) would be silently mangled by the cast. Reject both.
std::uint64_t exact_id(const JsonValue& value, const char* field, double max,
                       const char* max_text) {
  const double raw = value.is_number() ? value.as_number() : -1.0;
  if (raw < 0.0 || std::floor(raw) != raw || raw > max) {
    throw DataError(std::string("\"") + field +
                        "\" must be a nonnegative integer no larger than " +
                        max_text,
                    ErrorContext{}.with_operation("serve_protocol").with_detail(
                        std::string("field: ") + field));
  }
  return static_cast<std::uint64_t>(raw);
}

/// Optional "population" member: a stream index of a fusion session, as
/// wide as the binary framing's u32.
void population_from_json(Call& c) {
  const JsonValue* value = c.json.find("population");
  if (value == nullptr) return;
  c.population = exact_id(*value, "population", 4294967295.0, "2^32-1");
  c.population_given = true;
}

void population_from_frame(Call& c, std::uint16_t flags, PayloadReader& in) {
  if ((flags & wire::kFlagPopulation) != 0) c.population = in.read_u32();
}

/// ,"server_version":"..","wire_version":N,"uptime_s":X — the compatibility
/// triple ping/hello answer and /statusz echoes.
void append_version_fields(std::string& out) {
  out += ",\"server_version\":\"";
  append_json_escaped(out, kServerVersion);
  out += "\",\"wire_version\":";
  out += std::to_string(kWireVersion);
  out += ",\"uptime_s\":";
  append_json_number(out, process_uptime_s());
}

void append_vector(std::string& out, const Vector& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    append_json_number(out, v[i]);
  }
  out += ']';
}

void append_matrix(std::string& out, const Matrix& m) {
  out += '[';
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r != 0) out += ',';
    out += '[';
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c != 0) out += ',';
      append_json_number(out, m(r, c));
    }
    out += ']';
  }
  out += ']';
}

/// {"mean":[..],"covariance":[[..]],"kappa0":..,"nu0":..,"score":..}
void append_estimate(std::string& out, const core::EstimateResult& result) {
  out += "{\"mean\":";
  append_vector(out, result.moments.mean);
  out += ",\"covariance\":";
  append_matrix(out, result.moments.covariance);
  out += ",\"kappa0\":";
  append_json_number(out, result.kappa0);
  out += ",\"nu0\":";
  append_json_number(out, result.nu0);
  out += ",\"score\":";
  append_json_number(out, result.score);
  out += '}';
}

/// Joint fusion reply: one entry per population with the fused estimate
/// (headline), the independent posterior when the population has its own
/// usable samples, and the borrowing diagnostics.
void append_fusion(std::string& out, const fusion::FusionSnapshot& snapshot) {
  out += ",\"observed_populations\":" +
         std::to_string(snapshot.observed_populations);
  out += ",\"signal_variance\":";
  append_json_number(out, snapshot.signal_variance);
  out += ",\"correlation\":";
  append_matrix(out, snapshot.correlation);
  out += ",\"populations\":[";
  for (std::size_t p = 0; p < snapshot.populations.size(); ++p) {
    const fusion::PopulationEstimate& pop = snapshot.populations[p];
    if (p != 0) out += ',';
    out += "{\"population\":" + std::to_string(p);
    out += ",\"name\":\"";
    append_json_escaped(out, pop.name);
    out += "\",\"observed\":" + std::to_string(pop.observed);
    out += ",\"borrowed_kappa\":";
    append_json_number(out, pop.borrowed_kappa);
    out += ",\"anchor_shift\":";
    append_json_number(out, pop.anchor_shift);
    if (!pop.error.empty()) {
      out += ",\"error\":\"";
      append_json_escaped(out, pop.error);
      out += '"';
    }
    out += ",\"fused\":";
    append_estimate(out, pop.fused);
    if (pop.observed > 0 && pop.error.empty()) {
      out += ",\"independent\":";
      append_estimate(out, pop.independent);
    }
    out += '}';
  }
  out += ']';
}

// ---------------------------------------------------------------- the ops

void ping_json(std::string& out, const Call& c) {
  out += ",\"request_id\":" + std::to_string(c.result.request_id);
  append_version_fields(out);
}

void run_hello(Call& c) {
  const std::string mode = c.json.string_or("mode", "json");
  if (mode != "json" && mode != "binary") {
    throw DataError("\"mode\" must be \"json\" or \"binary\"",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  c.result.switch_to_binary = mode == "binary";
  c.members = ",\"mode\":\"" + mode + "\"";
  append_version_fields(c.members);
}

void run_open(Call& c) {
  const std::shared_ptr<Session> session = c.registry.open(c.session, c.json);
  c.members = ",\"estimator\":\"";
  append_json_escaped(c.members, session->estimator_name());
  c.members += '"';
}

void observe_from_json(Call& c) {
  population_from_json(c);
  c.samples = parse_samples(required_member(c.json, "samples"));
}

void observe_from_frame(Call& c, std::uint16_t flags, PayloadReader& in) {
  population_from_frame(c, flags, in);
  const std::uint32_t rows = in.read_u32();
  const std::uint32_t cols = in.read_u32();
  if (rows == 0 || cols == 0) {
    throw DataError("observe frame needs rows > 0 and cols > 0",
                    ErrorContext{}.with_operation("serve_binary"));
  }
  const std::string_view cells = in.read_doubles(rows, cols);
  in.expect_consumed();
  c.samples = Matrix(rows, cols);
  std::memcpy(c.samples.data(), cells.data(), cells.size());
}

void run_observe(Call& c) {
  c.total = c.registry.get(c.session)->observe(c.samples, c.population);
  BMF_COUNTER_ADD("serve.observed_samples", c.samples.rows());
}

void observe_json(std::string& out, const Call& c) {
  if (c.population_given) {
    out += ",\"population\":" + std::to_string(c.population);
  }
  out += ",\"observed\":" + std::to_string(c.samples.rows());
  out += ",\"total\":" + std::to_string(c.total);
}

void observe_frame(std::string& out, const Call& c) {
  wire::append_u32(out, static_cast<std::uint32_t>(c.samples.rows()));
  wire::append_u64(out, c.total);
}

void absorb_from_json(Call& c) {
  c.shard = stats::shard_from_json(required_member(c.json, "shard"));
}

void absorb_from_frame(Call& c, std::uint16_t, PayloadReader& in) {
  c.shard = stats::parse_shard(in.rest());
}

void run_absorb(Call& c) {
  const std::shared_ptr<Session> session = c.registry.get(c.session);
  c.duplicate = !session->absorb(c.shard);
  c.total = session->observed_count();
}

void absorb_json(std::string& out, const Call& c) {
  out += c.duplicate ? ",\"duplicate\":true" : ",\"duplicate\":false";
  out += ",\"total\":" + std::to_string(c.total);
}

void absorb_frame(std::string& out, const Call& c) {
  out += static_cast<char>(c.duplicate ? 1 : 0);
  wire::append_u64(out, c.total);
}

void stats_from_json(Call& c) {
  population_from_json(c);
  if (const JsonValue* v = c.json.find("shard_id")) {
    c.shard_id = exact_id(*v, "shard_id", 9007199254740992.0, "2^53");
  }
}

void stats_from_frame(Call& c, std::uint16_t flags, PayloadReader& in) {
  population_from_frame(c, flags, in);
  c.shard_id = in.read_u64();
  in.expect_consumed();
}

void run_stats(Call& c) {
  c.shard = c.registry.get(c.session)->export_shard(c.shard_id, c.population);
}

void stats_json(std::string& out, const Call& c) {
  out += ",\"shard\":" + stats::shard_to_json(c.shard);
}

void stats_frame(std::string& out, const Call& c) {
  out += stats::serialize_shard(c.shard);
}

void run_estimate(Call& c) {
  const std::shared_ptr<Session> session = c.registry.get(c.session);
  if (session->is_fusion()) {
    const fusion::FusionSnapshot snapshot = session->estimate_fusion();
    c.members = ",\"count\":" + std::to_string(session->observed_count());
    append_fusion(c.members, snapshot);
    return;
  }
  const core::EstimateResult result = session->estimate();
  c.members = ",\"count\":" + std::to_string(session->observed_count());
  c.members += ",\"estimate\":";
  append_estimate(c.members, result);
}

void run_close(Call& c) { c.registry.close(c.session); }

void run_shutdown(Call& c) { c.result.shutdown = true; }

void run_metrics(Call& c) {
  ping_json(c.members, c);
  c.members += ",\"telemetry\":";
  c.members += telemetry::json_snapshot_compact();
}

void run_nothing(Call&) {}

/// The one list of ops. Metric names, JSON dispatch and the opcode mapping
/// all come from it; the last row accounts requests that never named a
/// known op.
constexpr OpSpec kOps[] = {
    {"ping", wire::kPing, false, nullptr, nullptr, run_nothing, ping_json,
     nullptr},
    {"hello", 0, false, nullptr, nullptr, run_hello, nullptr, nullptr},
    {"open", 0, true, nullptr, nullptr, run_open, nullptr, nullptr},
    {"observe", wire::kObserve, true, observe_from_json, observe_from_frame,
     run_observe, observe_json, observe_frame},
    {"absorb", wire::kAbsorb, true, absorb_from_json, absorb_from_frame,
     run_absorb, absorb_json, absorb_frame},
    {"stats", wire::kStats, true, stats_from_json, stats_from_frame,
     run_stats, stats_json, stats_frame},
    {"estimate", 0, true, nullptr, nullptr, run_estimate, nullptr, nullptr},
    {"close", 0, true, nullptr, nullptr, run_close, nullptr, nullptr},
    {"shutdown", 0, false, nullptr, nullptr, run_shutdown, nullptr, nullptr},
    {"metrics", 0, false, nullptr, nullptr, run_metrics, nullptr, nullptr},
    {"unknown", 0, false, nullptr, nullptr, nullptr, nullptr, nullptr},
};
constexpr std::size_t kOpCount = std::size(kOps);
constexpr const OpSpec& kUnknownOp = kOps[kOpCount - 1];

// ------------------------------------------------------------ accounting

void record_op(const OpSpec& op, std::uint64_t elapsed_ns) {
#if BMFUSION_TELEMETRY_ENABLED
  // The BMF_* macros cache one metric per call site, which cannot key on a
  // runtime op: this table resolves every per-op metric once (first call
  // registers, allocating), after which recording is lock- and
  // allocation-free, as the hot-path contract requires.
  struct OpMetrics {
    telemetry::Counter* requests;
    telemetry::Histogram* latency_us;
  };
  static const std::array<OpMetrics, kOpCount> metrics = [] {
    auto& reg = telemetry::Registry::instance();
    std::array<OpMetrics, kOpCount> table{};
    for (std::size_t i = 0; i < kOpCount; ++i) {
      const std::string prefix = std::string("serve.") + kOps[i].name;
      table[i] = {&reg.counter(prefix + ".requests"),
                  &reg.histogram(prefix + ".latency_us")};
    }
    return table;
  }();
  const OpMetrics& m = metrics[static_cast<std::size_t>(&op - kOps)];
  m.requests->add(1);
  m.latency_us->record(static_cast<double>(elapsed_ns) * 1e-3);
#else
  (void)op;
  (void)elapsed_ns;
#endif
}

/// Ticks serve.errors plus the per-class counter and returns the error's
/// wire type name. ConfigError is a ContractError, so it is tested first.
const char* record_error(const std::exception& e) {
  BMF_COUNTER_ADD("serve.errors", 1);
  if (dynamic_cast<const DataError*>(&e) != nullptr) {
    BMF_COUNTER_ADD("serve.errors.data", 1);
    return "DataError";
  }
  if (dynamic_cast<const ConfigError*>(&e) != nullptr) {
    BMF_COUNTER_ADD("serve.errors.config", 1);
    return "ConfigError";
  }
  if (dynamic_cast<const NumericError*>(&e) != nullptr) {
    BMF_COUNTER_ADD("serve.errors.numeric", 1);
    return "NumericError";
  }
  if (dynamic_cast<const ContractError*>(&e) != nullptr) {
    BMF_COUNTER_ADD("serve.errors.contract", 1);
    return "ContractError";
  }
  BMF_COUNTER_ADD("serve.errors.internal", 1);
  return "InternalError";
}

/// Off the hot path by construction: only entered once a request already
/// blew the slow threshold, so the structured log record and counter are
/// free to allocate.
void note_slow_request(const OpSpec& op, const std::string& session,
                       std::uint64_t request_id, std::uint64_t elapsed_ns,
                       std::size_t bytes) {
  BMF_COUNTER_ADD("serve.slow_requests", 1);
  BMF_LOG_WARN("slow serve request", log::f("op", op.name),
               log::f("session", session), log::f("request_id", request_id),
               log::f("latency_us", static_cast<double>(elapsed_ns) * 1e-3),
               log::f("bytes", bytes));
}

// ---------------------------------------------------------------- codecs

/// JSON lines: one object in, one object out.
struct JsonCodec {
  /// serve.request_us (whole request, decode included) is recorded for
  /// JSON only: on the binary hot path the per-op histogram carries the
  /// timing, and the aggregate would be a second bucket scan per request.
  static constexpr bool kRecordsRequestUs = true;

  static void decode(std::string_view line, Call& call) {
    const std::uint64_t start_ns = telemetry::now_ns();
    call.json = parse_json(line);
    BMF_HISTOGRAM_RECORD_US(
        "serve.decode_us",
        static_cast<double>(telemetry::now_ns() - start_ns) * 1e-3);
    if (!call.json.is_object()) {
      throw DataError("request must be a JSON object",
                      ErrorContext{}.with_operation("serve_protocol"));
    }
    const JsonValue* name = call.json.find("op");
    if (name == nullptr || !name->is_string()) missing_string("op");
    const JsonValue* session = call.json.find("session");
    const bool has_session = session != nullptr && session->is_string();
    if (has_session) call.session = session->as_string();
    for (const OpSpec& op : kOps) {
      if (&op != &kUnknownOp && name->as_string() == op.name) call.op = &op;
    }
    if (call.op == &kUnknownOp) {
      throw DataError("unknown op \"" + name->as_string() + "\"",
                      ErrorContext{}.with_operation("serve_protocol"));
    }
    if (call.op->session && !has_session) missing_string("session");
    if (call.op->from_json != nullptr) call.op->from_json(call);
  }

  static void encode(const Call& call, std::string& out) {
    out = "{\"ok\":true,\"op\":\"";
    out += call.op->name;
    out += '"';
    if (call.op->session && !call.session.empty()) {
      out += ",\"session\":\"";
      append_json_escaped(out, call.session);
      out += '"';
    }
    if (call.op->to_json != nullptr) call.op->to_json(out, call);
    out += call.members;
    out += '}';
  }

  static void error(std::string& out, std::string_view type,
                    std::string_view message) {
    out = json_error(type, message);
  }
};

/// Binary frames: the header is already stripped; replies echo the opcode.
struct FrameCodec {
  static constexpr bool kRecordsRequestUs = false;

  std::uint8_t opcode;
  std::uint16_t flags;

  void decode(std::string_view payload, Call& call) const {
    for (const OpSpec& op : kOps) {
      if (op.opcode != 0 && op.opcode == opcode) call.op = &op;
    }
    if (call.op == &kUnknownOp) {
      throw DataError("unknown binary opcode " + std::to_string(opcode),
                      ErrorContext{}.with_operation("serve_binary"));
    }
    PayloadReader in(payload);
    if (call.op->session) call.session.assign(in.read_string());
    if (call.op->from_frame != nullptr) call.op->from_frame(call, flags, in);
  }

  void encode(const Call& call, std::string& out) const {
    std::string body;
    if (call.op->to_frame != nullptr) call.op->to_frame(body, call);
    wire::append_frame(out, opcode, 0, body);
  }

  void error(std::string& out, std::string_view type,
             std::string_view message) const {
    wire::append_error_frame(out, opcode, type, message);
  }
};

/// The one accounting and error wrapper behind both wire modes: times the
/// request, draws its id, decodes, runs and encodes it through `codec`,
/// turns any std::exception into the codec's in-band error, then records
/// the per-op metrics and the slow-request trace.
template <typename Codec>
ProtocolResult serve_request(SessionRegistry& registry, std::string_view bytes,
                             const Codec& codec) {
  const std::uint64_t start_ns = telemetry::now_ns();
  BMF_COUNTER_ADD("serve.requests", 1);
  ProtocolResult result;
  result.request_id = next_request_id();
  Call call{.registry = registry, .result = result, .op = &kUnknownOp};
  try {
    codec.decode(bytes, call);
    call.op->run(call);
    codec.encode(call, result.response);
  } catch (const std::exception& e) {
    result.response.clear();
    codec.error(result.response, record_error(e), e.what());
  }
  const std::uint64_t elapsed_ns = telemetry::now_ns() - start_ns;
  if constexpr (Codec::kRecordsRequestUs) {
    BMF_HISTOGRAM_RECORD_US("serve.request_us",
                            static_cast<double>(elapsed_ns) * 1e-3);
  }
  record_op(*call.op, elapsed_ns);
  const std::uint64_t slow_ns =
      g_slow_threshold_ns.load(std::memory_order_relaxed);
  if (slow_ns != 0 && elapsed_ns >= slow_ns) {
    note_slow_request(*call.op, call.session, result.request_id, elapsed_ns,
                      bytes.size());
  }
  return result;
}

}  // namespace

ProtocolResult handle_request(SessionRegistry& registry,
                              std::string_view line) {
  return serve_request(registry, line, JsonCodec{});
}

ProtocolResult handle_binary_request(SessionRegistry& registry,
                                     std::uint8_t opcode,
                                     std::uint16_t flags,
                                     std::string_view payload) {
  // The kJson escape hatch is counted and timed once, by the JSON path.
  if (opcode == wire::kJson) {
    ProtocolResult result = handle_request(registry, payload);
    std::string frame;
    wire::append_frame(frame, opcode, 0, result.response);
    result.response = std::move(frame);
    return result;
  }
  return serve_request(registry, payload, FrameCodec{opcode, flags});
}

}  // namespace bmfusion::serve
