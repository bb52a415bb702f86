// serve_query: the read side of the serve layer.
//
// The same in-process Server, but clients speak JSON lines. Each client owns
// one fusion session over kPopulations corner populations (d = 5, seeded
// generated early priors, a paired-sample correlation estimate) beside
// plain bmf sessions. A client sends a small late-sample observe batch (late
// samples are scarce in the paper), then an estimate, then repeated polls of
// the unchanged session. CV selection, map_fuse and the fusion GLS dominate;
// transport is a small share.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bmf_estimator.hpp"
#include "core/mle.hpp"
#include "fusion/correlation.hpp"
#include "fusion/multi_population.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve_common.hpp"
#include "stats/stat_stream.hpp"
#include "workloads.hpp"

namespace bmfperf {
namespace {

using namespace bmfusion;

constexpr std::size_t kDim = 5;
constexpr std::size_t kPopulations = 16;
// The traffic mix. The workload's design fixes its kinds: fusion sessions
// of 16 corner populations beside plain bmf sessions, small late-sample
// batches, an estimate after each batch and repeated polls. The three
// ratios below are assumptions of this benchmark, each set for the
// property it exercises:
//  - kBmfSessions: 4 bmf sessions beside each fusion session, so one
//    estimate in five is a 16-population fusion snapshot and four are
//    single-population CV fits: the median estimate is a bmf one and the
//    p90 is the median fusion one, and neither path alone sets both. (With
//    one fusion estimate in eight, the p90 fell on the fastest fifth of the
//    fusion estimates, and its spread over runs was twice the p99's.)
//  - kMinRows..kMaxRows: 2 to 4 late dies per observe, so every estimate
//    sees a changed stream and the late sample stays small (paper_flow
//    fits n = 8 to 64 late dies);
//  - kMaxPolls: 0, 1 or 2 polls of the unchanged session after each
//    estimate, in turn, so half of all estimates are repeats an
//    incremental estimate (ROADMAP item 2) could answer without refitting.
constexpr std::size_t kBmfSessions = 4;
constexpr std::size_t kSessions = 1 + kBmfSessions;
constexpr std::size_t kMinRows = 2;
constexpr std::size_t kMaxRows = 4;
constexpr std::size_t kMaxPolls = 2;
constexpr std::size_t kPairedRows = 64;  // correlation estimate input
// Late rows every population gets at set-up. Cross validation's cost
// depends on how many folds hold data and on how well conditioned they
// are, so with only a few rows per population the estimate cost would
// climb over the run as rows arrive.
constexpr std::size_t kWarmupRows = 32;
constexpr std::size_t kCheckEvery = 8;   // estimates compared locally
// cov_err_ratio is taken over each client's first kQualityOps observes,
// which the fixed-work phase always covers, so it is fixed for a seed.
constexpr std::size_t kQualityOps = 64;
// Loop rounds per client of the fixed-work phase before the timed loop;
// the peak RSS is read after it.
constexpr std::size_t kFixedRounds = 32;
constexpr std::size_t kRecordLines = 160;
// Mixing weights of the shared (same die) and own variation of a corner
// population's late samples; 0.8^2 + 0.6^2 = 1 keeps the covariance.
constexpr double kShared = 0.8;
constexpr double kOwn = 0.6;

struct Population {
  linalg::Vector late_mean;
  linalg::Matrix late_chol;
  core::GaussianMoments truth;  ///< late-stage moments
};

struct SessionInput {
  std::string id;
  bool fusion = false;
  std::vector<Population> populations;
  std::vector<linalg::Matrix> paired;  ///< fusion: row-paired corner draws
  std::string open_line;
  JsonValue spec;
};

linalg::Vector normal_vector(Rng& rng, std::size_t d, double scale) {
  linalg::Vector v(d);
  for (std::size_t i = 0; i < d; ++i) v[i] = scale * rng.normal();
  return v;
}

linalg::Vector add(const linalg::Vector& a, const linalg::Vector& b,
                   double scale = 1.0) {
  linalg::Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + scale * b[i];
  return out;
}

/// mean + chol * (shared * z + own * e), one row per call.
void draw_row(const Population& p, const linalg::Vector& z, Rng& rng,
              double shared, double own, double* out) {
  linalg::Vector u(kDim);
  for (std::size_t i = 0; i < kDim; ++i) u[i] = shared * z[i] + own * rng.normal();
  for (std::size_t i = 0; i < kDim; ++i) {
    double x = p.late_mean[i];
    for (std::size_t j = 0; j <= i; ++j) x += p.late_chol(i, j) * u[j];
    out[i] = x;
  }
}

/// One session's seeded priors and late-stage truth, plus its open line.
SessionInput make_session(const Options& options, std::size_t client,
                          std::size_t s) {
  SessionInput in;
  in.fusion = s == 0;
  in.id = "c" + std::to_string(client) + (in.fusion ? "-f" : "-b") +
          std::to_string(s);
  Rng rng(mix(options.seed, 300 + 8 * client + s));
  const Model base = random_model(rng, kDim, 1.0);
  const linalg::Vector shared_shift = normal_vector(rng, kDim, 0.5);
  const std::size_t count = in.fusion ? kPopulations : 1;
  std::string members;
  for (std::size_t p = 0; p < count; ++p) {
    const linalg::Vector early_mean =
        in.fusion ? add(base.mean, normal_vector(rng, kDim, 1.0)) : base.mean;
    const linalg::Vector early_nominal =
        add(early_mean, normal_vector(rng, kDim, 0.05));
    const linalg::Vector shift =
        add(shared_shift, normal_vector(rng, kDim, 0.3));
    Population pop;
    pop.late_mean = add(early_mean, shift);
    pop.late_chol = base.chol * std::sqrt(1.2);
    pop.truth = core::GaussianMoments{
        pop.late_mean, pop.late_chol * pop.late_chol.transposed()};
    const linalg::Vector late_nominal = add(early_nominal, shift, 0.7);
    const std::string early =
        early_json(core::GaussianMoments{early_mean, base.covariance()},
                   early_nominal);
    if (in.fusion) {
      if (p != 0) members += ',';
      members += "{\"name\":\"corner" + std::to_string(p) +
                 "\",\"early\":" + early + ",\"nominal\":";
      append_vector(members, late_nominal);
      members += '}';
    } else {
      members = "\"estimator\":\"bmf\",\"early\":" + early + ",\"nominal\":";
      append_vector(members, late_nominal);
    }
    in.populations.push_back(std::move(pop));
  }
  std::string spec;
  if (in.fusion) {
    in.paired.assign(kPopulations, linalg::Matrix(kPairedRows, kDim));
    for (std::size_t r = 0; r < kPairedRows; ++r) {
      const linalg::Vector z = normal_vector(rng, kDim, 1.0);
      for (std::size_t p = 0; p < kPopulations; ++p) {
        draw_row(in.populations[p], z, rng, kShared, kOwn,
                 in.paired[p].row_data(r));
      }
    }
    spec = "\"estimator\":\"fusion\",\"populations\":[" + members +
           "],\"correlation\":";
    append_matrix(spec, fusion::paired_correlation(in.paired));
  } else {
    spec = members;
  }
  spec += ",\"config\":{\"threads\":1}";
  in.open_line =
      "{\"op\":\"open\",\"session\":\"" + in.id + "\"," + spec + "}";
  in.spec = parse_json("{" + spec + "}");
  return in;
}

struct LogEntry {
  std::size_t session = 0;
  std::size_t population = 0;
  linalg::Matrix rows;       ///< empty for an estimate
  std::size_t response = 0;  ///< estimate: index into checked, or npos
};
constexpr std::size_t kNoCheck = static_cast<std::size_t>(-1);

struct Client : ClientBase {
  std::vector<SessionInput> sessions;
  Rng rng{0};  ///< the request stream's rows
  std::size_t rounds = 0;
  std::vector<LogEntry> log;
  std::vector<std::string> checked;  ///< estimate responses to compare
  std::size_t estimates = 0;
  std::vector<std::string> lines;  ///< client 0: recorded requests
};

/// One request line; returns false (and records the failure) unless the
/// server answered {"ok":true}.
bool request(Client& c, const std::string& line, std::string& reply,
             JsonValue* parsed = nullptr) {
  const bool record = c.records(kRecordLines);
  std::string error;
  const double t0 = now_s();
  if (!c.conn.request(line, reply)) {
    c.fail("connection dropped");
    return false;
  }
  if (record) {
    c.recorded((now_s() - t0) * 1e6);
    c.lines.push_back(line);
  }
  c.bytes += static_cast<double>(line.size() + reply.size() + 2);
  ++c.byte_requests;
  if (!response_ok(reply, parsed, error)) {
    c.fail(error);
    return false;
  }
  return true;
}

/// A transport probe: a ping line right after a recorded request and under
/// the same load; its handler only writes a short fixed reply.
void send_probe(Client& c) {
  c.probe_due = false;
  std::string reply;
  std::string error;
  const double t0 = now_s();
  const bool ok = c.conn.request("{\"op\":\"ping\"}", reply) &&
                  response_ok(reply, nullptr, error);
  c.probe_us.push_back((now_s() - t0) * 1e6);
  if (!ok) c.fail("transport probe failed");
  c.counts.count("transport_probe", ok);
}

void observe(Client& c, std::size_t s, std::size_t p, linalg::Matrix rows) {
  const SessionInput& in = c.sessions[s];
  std::string line = "{\"op\":\"observe\",\"session\":\"" + in.id + "\"";
  if (in.fusion) line += ",\"population\":" + std::to_string(p);
  line += ",\"samples\":";
  append_matrix(line, rows);
  line += '}';
  std::string reply;
  const double t0 = now_s();
  const bool ok = request(c, line, reply);
  c.aux.add(t0, now_s(), ok);
  c.counts.count("observe", ok);
  c.log.push_back(LogEntry{s, p, std::move(rows), kNoCheck});
  if (c.probe_due) send_probe(c);
}

void estimate(Client& c, std::size_t s, const char* phase) {
  std::string reply;
  const double t0 = now_s();
  const bool ok = request(
      c, "{\"op\":\"estimate\",\"session\":\"" + c.sessions[s].id + "\"}",
      reply);
  c.primary.add(t0, now_s(), ok);
  c.counts.count(phase, ok);
  LogEntry entry{s, 0, {}, kNoCheck};
  if (c.estimates++ % kCheckEvery == 0) {
    entry.response = c.checked.size();
    c.checked.push_back(ok ? reply : std::string());
  }
  c.log.push_back(std::move(entry));
  if (c.probe_due) send_probe(c);
}

linalg::Matrix draw_rows(const SessionInput& in, std::size_t p,
                         std::size_t rows, Rng& rng) {
  linalg::Matrix out(rows, kDim);
  for (std::size_t r = 0; r < rows; ++r) {
    const linalg::Vector z = normal_vector(rng, kDim, 1.0);
    if (in.fusion) {
      draw_row(in.populations[p], z, rng, kShared, kOwn, out.row_data(r));
    } else {
      draw_row(in.populations[0], z, rng, 0.0, 1.0, out.row_data(r));
    }
  }
  return out;
}

bool connect_client(Client& c, const Options& options, std::uint16_t port) {
  for (std::size_t s = 0; s < kSessions; ++s) {
    c.sessions.push_back(make_session(options, c.index, s));
  }
  c.rng = Rng(mix(options.seed, 400 + c.index));
  c.probe = options.trace && c.index == 0;
  if (!c.conn.connect_to(port)) {
    c.fail("connect failed");
    return false;
  }
  for (const SessionInput& in : c.sessions) {
    std::string reply;
    if (!request(c, in.open_line, reply)) return false;
  }
  Rng rng(mix(options.seed, 500 + c.index));
  for (std::size_t s = 0; s < kSessions; ++s) {
    const SessionInput& in = c.sessions[s];
    for (std::size_t p = 0; p < in.populations.size(); ++p) {
      observe(c, s, p, draw_rows(in, p, kWarmupRows, rng));
    }
    estimate(c, s, "estimate");
  }
  return c.failures == 0;
}

/// One round of the client's stream: an observe batch, its estimate, then
/// the polls. The session, population and poll count follow fixed cycles
/// (offset per client) so that every window of the run holds the same mix
/// of fusion and bmf estimates; the rows come from the seeded stream.
void round(Client& c) {
  const std::size_t r = c.rounds++ + c.index;
  const std::size_t s = r % kSessions;
  const SessionInput& in = c.sessions[s];
  const std::size_t p = in.fusion ? (r / kSessions) % kPopulations : 0;
  const std::size_t polls = r % (kMaxPolls + 1);
  const std::size_t rows = kMinRows + c.rng.below(kMaxRows - kMinRows + 1);
  observe(c, s, p, draw_rows(in, p, rows, c.rng));
  estimate(c, s, "estimate");
  for (std::size_t i = 0; i < polls; ++i) estimate(c, s, "poll");
}

/// Local stand-in for one session: the same spec through the same
/// factory, fed the same rows.
struct Mirror {
  std::unique_ptr<core::MomentEstimator> single;
  std::unique_ptr<fusion::MultiPopulationEstimator> fusion;
  std::vector<stats::SufficientStats> raw;  ///< per population, raw units

  [[nodiscard]] const core::BmfEstimator& bmf(std::size_t p) const {
    return fusion ? fusion->population(p)
                  : dynamic_cast<const core::BmfEstimator&>(*single);
  }
  void observe(std::size_t p, const linalg::Matrix& rows) {
    if (fusion) {
      fusion->observe(p, rows);
    } else {
      single->observe(rows);
    }
    raw[p] += stats::SufficientStats::from_samples(rows);
  }
  [[nodiscard]] stats::StatsShard shard(std::size_t p) const {
    return fusion ? fusion->export_shard(p, 0) : single->export_shard(0);
  }
};

Mirror make_mirror(const SessionInput& in) {
  Mirror m;
  if (in.fusion) {
    m.fusion = serve::make_fusion_estimator(in.spec);
  } else {
    m.single = serve::make_estimator(in.spec);
  }
  m.raw.assign(in.populations.size(), stats::SufficientStats(kDim));
  return m;
}

bool same_fusion(const JsonValue& served, const fusion::FusionSnapshot& local) {
  const JsonValue* pops = served.find("populations");
  if (pops == nullptr || !pops->is_array() ||
      pops->as_array().size() != local.populations.size()) {
    return false;
  }
  for (std::size_t p = 0; p < local.populations.size(); ++p) {
    const JsonValue& pop = pops->as_array()[p];
    const JsonValue* fused = pop.find("fused");
    if (fused == nullptr || !same_estimate(*fused, local.populations[p].fused)) {
      return false;
    }
    if (const JsonValue* own = pop.find("independent")) {
      if (!same_estimate(*own, local.populations[p].independent)) return false;
    }
  }
  return true;
}

/// Replays a client's log into local estimators: compares the sampled
/// estimate responses, accumulates the covariance errors after each of the
/// first kQualityOps observes, then checks every stream's final state on
/// the server (drift).
void check_client(Client& c) {
  std::vector<Mirror> mirrors;
  for (const SessionInput& in : c.sessions) mirrors.push_back(make_mirror(in));
  std::size_t observes = 0;
  for (const LogEntry& e : c.log) {
    Mirror& m = mirrors[e.session];
    if (e.rows.rows() > 0) {
      m.observe(e.population, e.rows);
      if (observes++ >= kQualityOps) continue;
      const core::EstimateResult fused =
          m.fusion ? m.fusion->snapshot().populations[e.population].fused
                   : m.single->snapshot();
      const core::ShiftScale scale = m.bmf(e.population).late_transform(
          m.bmf(e.population).nominal());
      const linalg::Matrix truth =
          scale.apply(c.sessions[e.session].populations[e.population].truth)
              .covariance;
      const core::GaussianMoments base =
          scale.apply(core::estimate_mle(m.raw[e.population]));
      c.quality.add(
          core::covariance_error(scale.apply(fused.moments).covariance, truth),
          core::covariance_error(base.covariance, truth));
      continue;
    }
    if (e.response == kNoCheck) continue;
    bool ok = false;
    JsonValue parsed;
    std::string error;
    if (response_ok(c.checked[e.response], &parsed, error)) {
      if (m.fusion) {
        ok = same_fusion(parsed, m.fusion->snapshot());
      } else if (const JsonValue* est = parsed.find("estimate")) {
        ok = same_estimate(*est, m.single->snapshot());
      }
    }
    if (!ok) c.fail("estimate differs from the local estimator");
    c.counts.count("estimate_check", ok);
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    const SessionInput& in = c.sessions[s];
    for (std::size_t p = 0; p < in.populations.size(); ++p) {
      std::string line = "{\"op\":\"stats\",\"session\":\"" + in.id + "\"";
      if (in.fusion) line += ",\"population\":" + std::to_string(p);
      line += ",\"shard_id\":0}";
      std::string reply;
      std::string error;
      JsonValue parsed;
      bool ok = false;
      if (c.conn.request(line, reply) && response_ok(reply, &parsed, error)) {
        try {
          const JsonValue* shard = parsed.find("shard");
          ok = shard != nullptr &&
               same_streams(stats::shard_from_json(*shard), mirrors[s].shard(p));
        } catch (const std::exception&) {
          ok = false;
        }
      }
      if (!ok) c.fail("drift in session " + in.id);
      c.counts.count("drift_check", ok);
    }
  }
}

// ------------------------------------------------------------ traced replay

struct ReplayResult {
  double wall_s = 0.0;
  double grid_points = 0.0;
};

ReplayResult replay(const std::vector<std::string>& lines,
                    const std::vector<SessionInput>& sessions, Tracer& tracer) {
  ReplayResult out;
  const double start = now_s();
  serve::SessionRegistry whole;
  serve::SessionRegistry layers;
  std::map<std::string, Mirror> mirrors;
  std::map<std::string, const SessionInput*> inputs;
  for (const SessionInput& in : sessions) inputs[in.id] = &in;
  stats::StatStream stream(kDim);
  std::uint64_t request = 0;
  for (const std::string& line : lines) {
    JsonValue v;
    {
      Tracer::Scope op(tracer, "op.parse", ++request);
      Tracer::Scope s(tracer, "common.json.parse", 0);
      v = parse_json(line);
    }
    const std::string kind = v.string_or("op", "");
    const std::string id = v.string_or("session", "");
    {
      Tracer::Scope op(tracer, "op.request", request);
      Tracer::Scope s(tracer,
                      kind == "observe"    ? "serve.protocol.json.observe"
                      : kind == "estimate" ? "serve.protocol.json.estimate"
                                           : "serve.protocol.json.open",
                      0);
      (void)serve::handle_request(whole, line);
    }
    if (kind == "open") {
      (void)layers.open(id, v);
      mirrors.emplace(id, make_mirror(*inputs.at(id)));
      if (inputs.at(id)->fusion) {
        Tracer::Scope op(tracer, "op.correlation", request);
        Tracer::Scope s(tracer, "fusion.correlation", 0);
        const fusion::FusionConfig defaults;
        (void)fusion::shrink_correlation(
            fusion::paired_correlation(inputs.at(id)->paired),
            defaults.shrinkage, defaults.min_eigenvalue);
      }
    } else if (kind == "observe") {
      const std::size_t p =
          static_cast<std::size_t>(v.number_or("population", 0.0));
      linalg::Matrix rows;
      {
        Tracer::Scope op(tracer, "op.layers", request);
        rows = serve::parse_matrix(*v.find("samples"), "samples");
        const auto session = layers.get(id);
        {
          Tracer::Scope s(tracer, "serve.session.observe", 0);
          session->observe(rows, p);
        }
        Tracer::Scope s(tracer, "stats.stream.add_rows", 0);
        stream.add_rows(rows);
      }
      mirrors.at(id).observe(p, rows);
    } else if (kind == "estimate") {
      Mirror& m = mirrors.at(id);
      {
        Tracer::Scope op(tracer, "op.layers", request);
        const auto session = layers.get(id);
        Tracer::Scope s(tracer, "serve.session.estimate", 0);
        if (session->is_fusion()) {
          (void)session->estimate_fusion();
        } else {
          (void)session->estimate();
        }
      }
      if (m.fusion) {
        Tracer::Scope op(tracer, "op.fusion", request);
        Tracer::Scope s(tracer, "fusion.snapshot", 0);
        (void)m.fusion->snapshot();
      } else {
        replay_core_estimate(*m.single, tracer, request, out.grid_points);
      }
    }
  }
  out.wall_s = now_s() - start;
  return out;
}

}  // namespace

void run_serve_query(const Options& options, Report& report) {
  report.fact("populations_per_fusion_session",
              static_cast<double>(kPopulations));
  std::vector<std::unique_ptr<Client>> clients;
  const ServeRun run = run_serve(
      "serve_query", options, clients,
      [&](Client& c, std::uint16_t port) {
        return connect_client(c, options, port);
      },
      [](Client& c) {
        for (std::size_t i = 0; i < kFixedRounds && c.failures == 0; ++i) {
          round(c);
        }
      },
      [](Client& c, double deadline) {
        while (now_s() < deadline && c.failures == 0) round(c);
      },
      [](Client& c) { check_client(c); }, report);
  report.fact("estimate_requests", static_cast<double>(run.primary_requests));
  report.fact("observe_requests", static_cast<double>(run.aux_requests));
  if (!options.trace) {
    emit_end_to_end(run.e2e, report);
    return;
  }

  const Client& first = *clients.front();
  Tracer tracer(true);
  const ReplayResult traced = run_traced(
      [&](Tracer& t) { return replay(first.lines, first.sessions, t); },
      options, report, tracer);
  const SpanTable spans(tracer);
  // One parse span and one handler span per recorded line, in order, and
  // one session estimate span per estimate line.
  const std::vector<double> parse_us = tracer.durations_us("common.json.parse");
  const std::vector<double> handler_us =
      tracer.durations_us("serve.protocol.json.");
  const std::vector<double> session_us =
      tracer.durations_us("serve.session.estimate");
  const auto is = [&](std::size_t i, const char* op) {
    return first.lines[i].rfind(std::string("{\"op\":\"") + op + "\"", 0) == 0;
  };
  // The estimate round trip split by layer, over means so that the fusion
  // estimates weigh in; trace.unattributed_frac is the part no layer covers.
  double rtt_sum = 0.0;
  double handler_sum = 0.0;
  double session_sum = 0.0;
  std::size_t rtt_count = 0;
  std::vector<double> loop_parse_us;
  for (std::size_t i = 0, e = 0; i < first.lines.size(); ++i) {
    const bool estimate = is(i, "estimate");
    if (!first.recorded_setup[i]) {
      loop_parse_us.push_back(parse_us[i]);
      if (estimate) {
        rtt_sum += first.recorded_us[i];
        ++rtt_count;
        handler_sum += handler_us[i];
        session_sum += session_us[e];
      }
    }
    e += estimate ? 1 : 0;
  }
  const double probe_us = median(first.probe_us);
  report.fact("transport_probe_us", probe_us);
  report.fact("split_core_fusion", session_sum / rtt_sum);
  report.fact("split_protocol", (handler_sum - session_sum) / rtt_sum);
  report.fact("split_transport",
              probe_us * static_cast<double>(rtt_count) / rtt_sum);
  const auto [observe_rtt, observe_handler] = loop_medians(
      first, handler_us, [&](std::size_t i) { return is(i, "observe"); });
  const std::map<std::string, double> layers{
      {"core.shift_scale_us", spans.median("core.shift_scale")},
      {"core.cv.select_us", spans.median("core.cv.select")},
      {"core.cv.grid_points", traced.grid_points},
      {"core.map_fuse_us", spans.median("core.map_fuse")},
      {"core.mle_us", spans.median("core.mle")},
      {"core.snapshot_us", spans.median("core.snapshot")},
      {"fusion.snapshot_us", spans.median("fusion.snapshot")},
      {"fusion.correlation_us", spans.median("fusion.correlation")},
      {"serve.protocol.json_us",
       loop_medians(first, handler_us, [](std::size_t) { return true; })
           .second},
      {"common.json.parse_us", median(loop_parse_us)},
      {"serve.session.observe_us", spans.median("serve.session.observe")},
      {"serve.session.estimate_us", spans.median("serve.session.estimate")},
      {"stats.stream.add_rows_us", spans.median("stats.stream.add_rows")},
      {"serve.transport_us", observe_rtt - observe_handler},
      {"serve.bytes_per_request", run.bytes_per_request},
      {"trace.unattributed_frac", serve_unattributed(first, handler_us)},
  };
  emit_layers(layers, report);
}

}  // namespace bmfperf
