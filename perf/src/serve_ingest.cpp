// serve_ingest: the write side of the serve layer.
//
// An in-process Server on loopback sockets; each client thread speaks the
// binary framing and streams post-layout op-amp metric batches into its own
// single-population bmf sessions with raw-double observe frames, plus a
// BMFS shard absorb every kAbsorbEvery requests. Estimates are rare, so the
// core CV engine almost never runs: transport, binary decode,
// Session::observe and StatStream dominate.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "core/bmf_estimator.hpp"
#include "core/mle.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve_common.hpp"
#include "stats/stat_stream.hpp"
#include "workloads.hpp"

namespace bmfperf {
namespace {

using namespace bmfusion;
namespace wire = serve::wire;

// The traffic mix. The batch size follows bmf_soak's default lane
// (--batch 16), the repository's existing serve load. Three ratios are
// assumptions of this benchmark, each set for the property it exercises:
//  - kSessionsPerClient: 64 sessions per connection (bmf_soak opens one),
//    so that the registry serves 64 x nproc sessions and the absorbed
//    shards spread over them: a stream keeps one run per absorbed shard
//    and folds them all on every estimate, so a single session absorbing
//    all run long would make the figures depend on the run's length;
//  - kAbsorbEvery: an occasional BMFS shard absorb, one request in 64, so
//    parse_shard and the absorb path run in every one-second window while
//    observes still make up the bulk of the traffic;
//  - kEstimateEvery: a rare estimate, one per 512 requests. bmf_soak's
//    estimate every 100 observes is set for MLE sessions; against a BMF
//    session (about 2 ms of CV per estimate on a 4-core host) it would put
//    about 40% of a client's time into core CV, which is serve_query's
//    part of the serve layer.
constexpr std::size_t kBatchRows = 16;
constexpr std::size_t kSessionsPerClient = 64;
constexpr std::size_t kAbsorbEvery = 64;
constexpr std::size_t kEstimateEvery = 512;
// Session s streams from input set s % kInputSets: its own post-layout die
// pool and an early-stage prior from its own schematic Monte Carlo, as
// separate validation jobs would bring. cov_err_ratio averages over the
// sets, so no single population decides it.
constexpr std::size_t kInputSets = 16;
constexpr std::size_t kPoolDies = 2048;
constexpr std::size_t kEarlyDies = 1024;
// cov_err_ratio is taken over the first kQualityOps requests into each
// session after its warm-up, which the fixed-work phase always covers, so
// it is fixed for a seed and a client count.
constexpr std::size_t kQualityOps = 8;
// Requests per client of the fixed-work phase before the timed loop; the
// peak RSS is read after it.
constexpr std::size_t kFixedOps = 16384;
constexpr std::size_t kRecordFrames = 400;

struct InputSet {
  linalg::Matrix pool;              ///< post-layout op-amp dies
  core::GaussianMoments reference;  ///< moments of the pool
  std::string spec;                 ///< bmf "open" members
  JsonValue spec_json;
};

using Inputs = std::vector<InputSet>;

Inputs make_inputs(const Options& options) {
  const circuit::TwoStageOpAmp early(circuit::DesignStage::kSchematic,
                                     circuit::ProcessModel::cmos45());
  const circuit::TwoStageOpAmp late(circuit::DesignStage::kPostLayout,
                                    circuit::ProcessModel::cmos45());
  const auto cfg = [&](std::size_t n, std::uint64_t tag) {
    return circuit::MonteCarloConfig{}
        .with_sample_count(n)
        .with_seed(mix(options.seed, tag))
        .with_threads(options.threads);
  };
  Inputs sets(kInputSets);
  for (std::size_t k = 0; k < sets.size(); ++k) {
    InputSet& in = sets[k];
    in.pool = circuit::run_monte_carlo(late, cfg(kPoolDies, 100 + 2 * k))
                  .samples();
    in.reference =
        core::estimate_mle(stats::SufficientStats::from_samples(in.pool));
    const core::GaussianMoments early_moments = core::estimate_mle(
        circuit::run_monte_carlo_stats(early, cfg(kEarlyDies, 101 + 2 * k)));
    in.spec = "\"estimator\":\"bmf\",\"early\":" +
              early_json(early_moments, early.nominal_metrics()) +
              ",\"config\":{\"threads\":1},\"nominal\":";
    append_vector(in.spec, late.nominal_metrics());
    in.spec_json = parse_json("{" + in.spec + "}");
  }
  return sets;
}

const InputSet& set_of(const Inputs& in, std::size_t session) {
  return in[session % kInputSets];
}

enum class Kind : std::uint8_t { kObserve, kAbsorb, kEstimate };

/// One request of a client's seeded stream.
struct Op {
  Kind kind = Kind::kObserve;
  std::uint32_t session = 0;
  std::uint32_t start = 0;  ///< first pool row
  std::uint32_t rows = 0;
  std::uint64_t shard_id = 0;
  std::size_t response = 0;  ///< index into estimates (kEstimate)
};

struct RecordedFrame {
  std::uint8_t opcode = 0;
  std::string payload;
};

struct Client : ClientBase {
  std::vector<std::string> ids;
  Rng rng{0};              ///< the request stream
  std::uint64_t next = 0;  ///< requests drawn from it
  std::vector<Op> log;
  std::vector<std::string> estimates;
  std::vector<RecordedFrame> frames;  ///< client 0: recorded requests
  /// Build the absorb shards, one per input set (the stream space depends
  /// on the prior).
  std::vector<std::unique_ptr<core::MomentEstimator>> scratch;
};

linalg::Matrix pool_rows(const linalg::Matrix& pool, std::size_t start,
                         std::size_t rows) {
  linalg::Matrix out(rows, pool.cols());
  for (std::size_t i = 0; i < rows; ++i) {
    std::memcpy(out.row_data(i), pool.row_data((start + i) % pool.rows()),
                pool.cols() * sizeof(double));
  }
  return out;
}

stats::StatsShard make_shard(core::MomentEstimator& scratch,
                             const linalg::Matrix& rows, std::uint64_t id) {
  scratch.reset_stream();
  scratch.observe(rows);
  return scratch.export_shard(id);
}

/// Sends one frame, recording it for the traced replay on client 0.
bool exchange(Client& c, std::uint8_t opcode, const std::string& payload,
              serve::Frame& reply) {
  const bool record = c.records(kRecordFrames);
  const double t0 = now_s();
  const bool ok = c.conn.request_frame(opcode, payload, reply);
  if (record) {
    c.recorded((now_s() - t0) * 1e6);
    c.frames.push_back({opcode, payload});
  }
  return ok;
}

/// A transport probe: a ping frame, whose handler does no work, right
/// after a recorded request and under the same load.
void send_probe(Client& c) {
  c.probe_due = false;
  serve::Frame reply;
  const double t0 = now_s();
  const bool ok = c.conn.request_frame(wire::kPing, {}, reply) && reply.ok();
  c.probe_us.push_back((now_s() - t0) * 1e6);
  if (!ok) c.fail("transport probe failed");
  c.counts.count("transport_probe", ok);
}

bool json_request(Client& c, const std::string& request, std::string& reply,
                  JsonValue* parsed = nullptr) {
  serve::Frame frame;
  std::string error;
  if (!exchange(c, wire::kJson, request, frame) ||
      !response_ok(frame.payload, parsed, error)) {
    c.fail(error.empty() ? "connection dropped" : error);
    return false;
  }
  reply = std::move(frame.payload);
  return true;
}

/// Runs one op against the server and appends it to the log.
void run_op(Client& c, const Inputs& in, Op op) {
  const std::string& id = c.ids[op.session];
  if (op.kind == Kind::kEstimate) {
    std::string text;
    const bool ok = json_request(
        c, "{\"op\":\"estimate\",\"session\":\"" + id + "\"}", text);
    op.response = c.estimates.size();
    c.estimates.push_back(ok ? text : std::string());
    c.counts.count("estimate", ok);
    c.log.push_back(op);
    if (c.probe_due) send_probe(c);
    return;
  }
  const linalg::Matrix rows =
      pool_rows(set_of(in, op.session).pool, op.start, op.rows);
  std::string payload;
  wire::append_string(payload, id);
  std::uint8_t opcode = wire::kObserve;
  if (op.kind == Kind::kObserve) {
    wire::append_u32(payload, op.rows);
    wire::append_u32(payload, static_cast<std::uint32_t>(rows.cols()));
    payload.append(reinterpret_cast<const char*>(rows.data()),
                   rows.rows() * rows.cols() * sizeof(double));
  } else {
    opcode = wire::kAbsorb;
    payload += stats::serialize_shard(
        make_shard(*c.scratch[op.session % kInputSets], rows, op.shard_id));
  }
  serve::Frame reply;
  const double t0 = now_s();
  const bool sent = exchange(c, opcode, payload, reply);
  const double t1 = now_s();
  bool ok = sent && reply.ok() && reply.opcode == opcode;
  if (ok && op.kind == Kind::kObserve) {
    std::uint32_t observed = 0;
    if (reply.payload.size() >= sizeof observed) {
      std::memcpy(&observed, reply.payload.data(), sizeof observed);
    }
    ok = observed == op.rows;
  }
  if (!ok) c.fail(sent ? "error frame: " + reply.payload : "connection dropped");
  if (op.kind == Kind::kObserve) {
    c.primary.add(t0, t1, ok);
    c.bytes += static_cast<double>(2 * wire::kHeaderBytes + payload.size() +
                                   reply.payload.size());
    ++c.byte_requests;
    c.counts.count("observe", ok);
  } else {
    c.aux.add(t0, t1, ok);
    c.counts.count("absorb", ok);
  }
  c.log.push_back(op);
  if (c.probe_due) send_probe(c);
}

/// Connects, opens the client's sessions and warms each one up with an
/// observe, then sends one estimate.
bool connect_client(Client& c, std::uint16_t port, const Inputs& in,
                    const Options& options) {
  for (const InputSet& set : in) {
    c.scratch.push_back(serve::make_estimator(set.spec_json));
  }
  c.rng = Rng(mix(options.seed, 200 + c.index));
  c.probe = options.trace && c.index == 0;
  if (!c.conn.connect_to(port) || !c.conn.negotiate_binary()) {
    c.fail("connect failed");
    return false;
  }
  for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
    c.ids.push_back("c" + std::to_string(c.index) + "-s" + std::to_string(s));
    std::string reply;
    if (!json_request(c, "{\"op\":\"open\",\"session\":\"" + c.ids[s] +
                             "\"," + set_of(in, s).spec + "}",
                      reply)) {
      return false;
    }
  }
  Rng warm(mix(options.seed, 600 + c.index));
  for (std::uint32_t s = 0; s < kSessionsPerClient; ++s) {
    const auto start = static_cast<std::uint32_t>(warm.below(kPoolDies));
    run_op(c, in, Op{Kind::kObserve, s, start, kBatchRows, 0, 0});
  }
  run_op(c, in, Op{Kind::kEstimate, 0, 0, 0, 0, 0});
  return c.failures == 0;
}

/// The next request of the client's stream, a function of (seed, client).
void step(Client& c, const Inputs& in) {
  const std::uint64_t k = c.next++;
  Op op;
  op.kind = k % kAbsorbEvery == kAbsorbEvery - 1 ? Kind::kAbsorb
                                                 : Kind::kObserve;
  op.session = static_cast<std::uint32_t>(c.rng.below(kSessionsPerClient));
  op.start = static_cast<std::uint32_t>(c.rng.below(kPoolDies));
  op.rows = kBatchRows;
  op.shard_id = (static_cast<std::uint64_t>(c.index) << 32) | k;
  run_op(c, in, op);
  if (k % kEstimateEvery == kEstimateEvery - 1) {
    run_op(c, in, Op{Kind::kEstimate, op.session, 0, 0, 0, 0});
  }
}

/// Replays a client's log into local estimators: compares every served
/// estimate, accumulates the covariance errors of the first kQualityOps
/// requests into each session after its warm-up, then checks the server's
/// final stream state (drift).
void check_client(Client& c, const Inputs& in) {
  std::vector<std::unique_ptr<core::MomentEstimator>> mirrors;
  std::vector<stats::SufficientStats> raw;
  std::vector<std::size_t> applied(kSessionsPerClient, 0);
  for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
    mirrors.push_back(serve::make_estimator(set_of(in, s).spec_json));
    raw.emplace_back(set_of(in, s).pool.cols());
  }
  for (const Op& op : c.log) {
    core::MomentEstimator& mirror = *mirrors[op.session];
    if (op.kind == Kind::kEstimate) {
      bool ok = false;
      JsonValue parsed;
      std::string error;
      if (response_ok(c.estimates[op.response], &parsed, error)) {
        const JsonValue* est = parsed.find("estimate");
        ok = est != nullptr && same_estimate(*est, mirror.snapshot());
      }
      if (!ok) c.fail("estimate differs from the local estimator");
      c.counts.count("estimate_check", ok);
      continue;
    }
    const InputSet& set = set_of(in, op.session);
    const linalg::Matrix rows = pool_rows(set.pool, op.start, op.rows);
    if (op.kind == Kind::kObserve) {
      mirror.observe(rows);
    } else {
      mirror.absorb(
          make_shard(*c.scratch[op.session % kInputSets], rows, op.shard_id));
    }
    raw[op.session] += stats::SufficientStats::from_samples(rows);
    const std::size_t seen = applied[op.session]++;
    if (seen >= 1 && seen <= kQualityOps) {
      const auto& bmf = dynamic_cast<const core::BmfEstimator&>(mirror);
      const core::ShiftScale scale = bmf.late_transform(bmf.nominal());
      const linalg::Matrix ref_cov = scale.apply(set.reference).covariance;
      const core::GaussianMoments fused =
          scale.apply(mirror.snapshot().moments);
      const core::GaussianMoments base =
          scale.apply(core::estimate_mle(raw[op.session]));
      c.quality.add(core::covariance_error(fused.covariance, ref_cov),
                    core::covariance_error(base.covariance, ref_cov));
    }
  }
  for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
    std::string payload;
    wire::append_string(payload, c.ids[s]);
    wire::append_u64(payload, 0);
    serve::Frame reply;
    bool ok = c.conn.request_frame(wire::kStats, payload, reply) && reply.ok();
    if (ok) {
      try {
        ok = same_streams(stats::parse_shard(reply.payload),
                          mirrors[s]->export_shard(0));
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) c.fail("drift in session " + c.ids[s]);
    c.counts.count("drift_check", ok);
  }
}

// ------------------------------------------------------------ traced replay

struct Decoded {
  std::string id;
  linalg::Matrix rows;  ///< observe
  std::string bytes;    ///< absorb shard / JSON text
};

Decoded decode(const RecordedFrame& f) {
  Decoded d;
  if (f.opcode == wire::kJson) {
    d.bytes = f.payload;
    return d;
  }
  std::uint16_t len = 0;
  std::memcpy(&len, f.payload.data(), sizeof len);
  d.id = f.payload.substr(2, len);
  std::size_t pos = 2 + std::size_t{len};
  if (f.opcode == wire::kAbsorb) {
    d.bytes = f.payload.substr(pos);
    return d;
  }
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::memcpy(&rows, f.payload.data() + pos, sizeof rows);
  std::memcpy(&cols, f.payload.data() + pos + 4, sizeof cols);
  d.rows = linalg::Matrix(rows, cols);
  std::memcpy(d.rows.data(), f.payload.data() + pos + 8,
              std::size_t{rows} * cols * sizeof(double));
  return d;
}

struct ReplayResult {
  double wall_s = 0.0;
  double grid_points = 0.0;
};

ReplayResult replay(const std::vector<RecordedFrame>& frames, Tracer& tracer) {
  ReplayResult out;
  const double start = now_s();
  serve::SessionRegistry whole;   // takes the frames as the server did
  serve::SessionRegistry layers;  // takes the same operations layer by layer
  std::map<std::string, std::unique_ptr<core::MomentEstimator>> mirrors;
  std::uint64_t request = 0;
  stats::StatStream stream;
  for (const RecordedFrame& f : frames) {
    const char* name = f.opcode == wire::kObserve  ? "serve.protocol.binary"
                       : f.opcode == wire::kAbsorb ? "serve.protocol.binary.absorb"
                                                   : "serve.protocol.binary.json";
    {
      Tracer::Scope op(tracer, "op.frame", ++request);
      Tracer::Scope s(tracer, name, 0);
      (void)serve::handle_binary_request(whole, f.opcode, 0, f.payload);
    }
    Decoded d = decode(f);
    if (f.opcode == wire::kObserve) {
      {
        Tracer::Scope op(tracer, "op.layers", request);
        const auto session = layers.get(d.id);
        {
          Tracer::Scope s(tracer, "serve.session.observe", 0);
          session->observe(d.rows);
        }
        if (stream.dimension() == 0) stream = stats::StatStream(d.rows.cols());
        Tracer::Scope s(tracer, "stats.stream.add_rows", 0);
        stream.add_rows(d.rows);
      }
      mirrors.at(d.id)->observe(d.rows);
    } else if (f.opcode == wire::kAbsorb) {
      stats::StatsShard shard;
      {
        Tracer::Scope op(tracer, "op.layers", request);
        {
          Tracer::Scope s(tracer, "stats.wire.parse_shard", 0);
          shard = stats::parse_shard(d.bytes);
        }
        const auto session = layers.get(d.id);
        Tracer::Scope s(tracer, "serve.session.absorb", 0);
        (void)session->absorb(shard);
      }
      mirrors.at(d.id)->absorb(shard);
    } else {
      JsonValue v;
      {
        Tracer::Scope op(tracer, "op.layers", request);
        Tracer::Scope s(tracer, "common.json.parse", 0);
        v = parse_json(d.bytes);
      }
      const std::string kind = v.string_or("op", "");
      const std::string id = v.string_or("session", "");
      if (kind == "open") {
        (void)layers.open(id, v);
        mirrors[id] = serve::make_estimator(v);
      } else if (kind == "estimate") {
        {
          Tracer::Scope op(tracer, "op.layers", request);
          const auto session = layers.get(id);
          Tracer::Scope s(tracer, "serve.session.estimate", 0);
          (void)session->estimate();
        }
        replay_core_estimate(*mirrors.at(id), tracer, request, out.grid_points);
      }
    }
  }
  // Close with one estimate per session, as the rare estimates do.
  for (const auto& [id, mirror] : mirrors) {
    {
      Tracer::Scope op(tracer, "op.layers", ++request);
      const auto session = layers.get(id);
      Tracer::Scope s(tracer, "serve.session.estimate", 0);
      (void)session->estimate();
    }
    replay_core_estimate(*mirror, tracer, request, out.grid_points);
  }
  out.wall_s = now_s() - start;
  return out;
}

}  // namespace

void run_serve_ingest(const Options& options, Report& report) {
  const Inputs in = make_inputs(options);
  std::vector<std::unique_ptr<Client>> clients;
  const ServeRun run = run_serve(
      "serve_ingest", options, clients,
      [&](Client& c, std::uint16_t port) {
        return connect_client(c, port, in, options);
      },
      [&](Client& c) {
        for (std::size_t i = 0; i < kFixedOps && c.failures == 0; ++i) {
          step(c, in);
        }
      },
      [&](Client& c, double deadline) {
        while (now_s() < deadline && c.failures == 0) step(c, in);
      },
      [&](Client& c) { check_client(c, in); }, report);
  report.fact("observe_requests", static_cast<double>(run.primary_requests));
  report.fact("absorb_requests", static_cast<double>(run.aux_requests));
  if (!options.trace) {
    emit_end_to_end(run.e2e, report);
    return;
  }

  const Client& first = *clients.front();
  Tracer tracer(true);
  const ReplayResult traced = run_traced(
      [&](Tracer& t) { return replay(first.frames, t); }, options, report,
      tracer);
  const SpanTable spans(tracer);
  // One handler span per recorded frame, in order.
  const std::vector<double> handler_us =
      tracer.durations_us("serve.protocol.binary");
  const auto [rtt_p50, handler_p50] =
      loop_medians(first, handler_us, [&](std::size_t i) {
        return first.frames[i].opcode == wire::kObserve;
      });
  const double transport_us = rtt_p50 - handler_p50;
  const double observe_us = spans.median("serve.session.observe");
  const double probe_us = median(first.probe_us);
  // The observe round trip split by layer; trace.unattributed_frac is the
  // part no layer covers.
  report.fact("transport_probe_us", probe_us);
  report.fact("split_transport", probe_us / rtt_p50);
  report.fact("split_protocol", (handler_p50 - observe_us) / rtt_p50);
  report.fact("split_session_stats", observe_us / rtt_p50);
  const std::map<std::string, double> layers{
      {"core.shift_scale_us", spans.median("core.shift_scale")},
      {"core.cv.select_us", spans.median("core.cv.select")},
      {"core.cv.grid_points", traced.grid_points},
      {"core.map_fuse_us", spans.median("core.map_fuse")},
      {"core.mle_us", spans.median("core.mle")},
      {"core.snapshot_us", spans.median("core.snapshot")},
      {"serve.protocol.binary_us", handler_p50},
      {"common.json.parse_us", spans.median("common.json.parse")},
      {"serve.session.observe_us", observe_us},
      {"serve.session.estimate_us", spans.median("serve.session.estimate")},
      {"stats.stream.add_rows_us", spans.median("stats.stream.add_rows")},
      {"stats.wire.parse_shard_us", spans.median("stats.wire.parse_shard")},
      {"serve.transport_us", transport_us},
      {"serve.bytes_per_request", run.bytes_per_request},
      {"trace.unattributed_frac", serve_unattributed(first, handler_us)},
  };
  emit_layers(layers, report);
}

}  // namespace bmfperf
