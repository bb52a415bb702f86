#include "serve_common.hpp"

#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "core/bmf_estimator.hpp"
#include "core/cross_validation.hpp"
#include "core/mle.hpp"
#include "core/normal_wishart.hpp"
#include "core/shift_scale.hpp"

namespace bmfperf {

using namespace bmfusion;

ThreadPlan plan_threads(std::size_t cpus) {
  ThreadPlan plan;
  plan.clients = std::max<std::size_t>(1, cpus);
  // One epoll loop per connection: no client's request queues behind
  // another's on a shared loop.
  plan.io_threads = plan.clients;
  return plan;
}

void record_plan(const ThreadPlan& plan, Report& report) {
  report.fact("pool_threads", 1.0);
  report.fact("cv_threads", 1.0);
  report.fact("io_threads", static_cast<double>(plan.io_threads));
  report.fact("client_threads", static_cast<double>(plan.clients));
  report.fact("connections", static_cast<double>(plan.clients));
  report.fact("affinity", json_string("client i and io loop i on cpu i"));
}

void Latencies::add(double start_s, double end, bool ok) {
  us.push_back(ok ? (end - start_s) * 1e6
                  : std::numeric_limits<double>::infinity());
  end_s.push_back(end);
}

namespace {

/// Windows need this many samples for a per-window p90 to have 25 samples
/// beyond it (the p99 printed on the run line gets 2 or more).
constexpr std::size_t kWindowSamples = 250;

/// Latencies of the completions in each whole one-second window of
/// [start_s, start_s + seconds] (one window when seconds < 2); sets `width`.
std::vector<std::vector<double>> by_window(const std::vector<Latencies>& logs,
                                           double start_s, double seconds,
                                           double& width) {
  const std::size_t windows =
      seconds < 2.0 ? 1 : static_cast<std::size_t>(seconds);
  width = windows == 1 ? seconds : 1.0;
  std::vector<std::vector<double>> out(windows);
  for (const Latencies& log : logs) {
    for (std::size_t i = 0; i < log.us.size(); ++i) {
      const double at = (log.end_s[i] - start_s) / width;
      if (at >= 0.0 && at < static_cast<double>(windows)) {
        out[static_cast<std::size_t>(at)].push_back(log.us[i]);
      }
    }
  }
  return out;
}

/// Merges per-client logs into `merged_us` and returns the kind's
/// completions per second over [start_s, start_s + seconds]: the count over
/// the whole run, so the figure moves in proportion to the share of the run
/// a slow stretch of the host covers (a median over one-second windows
/// jumps between a fast and a slow host's value as that share passes half).
double run_rate(const std::vector<Latencies>& logs, double start_s,
                double seconds, std::vector<double>& merged_us) {
  std::size_t total = 0;
  for (const Latencies& log : logs) {
    merged_us.insert(merged_us.end(), log.us.begin(), log.us.end());
    for (const double end : log.end_s) {
      total += end >= start_s && end < start_s + seconds ? 1 : 0;
    }
  }
  return static_cast<double>(total) / seconds;
}

/// Quantile `q` of a request kind's latency: the mean over the one-second
/// windows of each window's quantile when every window holds at least
/// kWindowSamples completions, else the quantile of `merged_us` (the whole
/// run). The mean, like run_rate, moves in proportion to the share of slow
/// windows.
double window_quantile(const std::vector<Latencies>& logs, double start_s,
                       double seconds, const std::vector<double>& merged_us,
                       double q) {
  double width = 0.0;
  const auto windows = by_window(logs, start_s, seconds, width);
  double sum = 0.0;
  for (const auto& window : windows) {
    if (window.size() < kWindowSamples) return quantile(merged_us, q);
    sum += quantile(window, q);
  }
  return sum / static_cast<double>(windows.size());
}

}  // namespace

ServeRun merge_clients(const char* workload,
                       const std::vector<const ClientBase*>& clients,
                       double start_s, double seconds, Report& report) {
  ErrorRatio quality;
  std::vector<Latencies> primary;
  std::vector<Latencies> aux;
  double bytes = 0.0;
  std::size_t byte_requests = 0;
  std::size_t failures = 0;
  std::string detail;
  for (const ClientBase* c : clients) {
    quality.merge(c->quality);
    report.merge_counts(c->counts);
    primary.push_back(c->primary);
    aux.push_back(c->aux);
    bytes += c->bytes;
    byte_requests += c->byte_requests;
    failures += c->failures;
    if (!c->first_failure.empty()) {
      std::fprintf(stderr, "%s: client %zu: %s\n", workload, c->index,
                   c->first_failure.c_str());
      detail = c->first_failure;
    }
  }
  report.check("no_drift_and_estimates_match", failures == 0, detail);
  ServeRun run;
  EndToEnd& e2e = run.e2e;
  e2e.cov_err_ratio = quality.value();
  report.check("cov_err_ratio_below_1", e2e.cov_err_ratio < 1.0,
               json_number(e2e.cov_err_ratio));

  std::vector<double> primary_us;
  std::vector<double> aux_us;
  e2e.rate_per_s = run_rate(primary, start_s, seconds, primary_us);
  e2e.aux_rate_per_s = run_rate(aux, start_s, seconds, aux_us);
  const auto q = [&](const std::vector<Latencies>& logs,
                     const std::vector<double>& merged, double p) {
    return window_quantile(logs, start_s, seconds, merged, p);
  };
  e2e.latency_p50_us = q(primary, primary_us, 0.50);
  e2e.latency_p90_us = q(primary, primary_us, 0.90);
  e2e.latency_p99_us = q(primary, primary_us, 0.99);
  e2e.aux_latency_p50_us = q(aux, aux_us, 0.50);
  e2e.aux_latency_p90_us = q(aux, aux_us, 0.90);
  e2e.aux_latency_p99_us = q(aux, aux_us, 0.99);
  run.primary_requests = primary_us.size();
  run.aux_requests = aux_us.size();
  run.bytes_per_request =
      byte_requests == 0 ? 0.0 : bytes / static_cast<double>(byte_requests);
  return run;
}

double serve_unattributed(const ClientBase& client,
                          const std::vector<double>& handler_us) {
  const double probe_us = median(client.probe_us);
  double rtt_us = 0.0;
  double covered_us = 0.0;
  for (std::size_t i = 0; i < client.recorded_us.size(); ++i) {
    if (client.recorded_setup[i]) continue;
    rtt_us += client.recorded_us[i];
    covered_us += handler_us[i] + probe_us;
  }
  return 1.0 - covered_us / rtt_us;
}

void append_vector(std::string& out, const linalg::Vector& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += json_number(v[i]);
  }
  out += ']';
}

void append_matrix(std::string& out, const linalg::Matrix& m) {
  out += '[';
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r != 0) out += ',';
    out += '[';
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c != 0) out += ',';
      out += json_number(m(r, c));
    }
    out += ']';
  }
  out += ']';
}

std::string early_json(const core::GaussianMoments& moments,
                       const linalg::Vector& nominal) {
  std::string out = "{\"mean\":";
  append_vector(out, moments.mean);
  out += ",\"covariance\":";
  append_matrix(out, moments.covariance);
  out += ",\"nominal\":";
  append_vector(out, nominal);
  out += '}';
  return out;
}

bool response_ok(const std::string& text, JsonValue* out, std::string& error) {
  try {
    JsonValue response = parse_json(text);
    const JsonValue* ok = response.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      error = "error response: " + text.substr(0, 200);
      return false;
    }
    if (out != nullptr) *out = std::move(response);
    return true;
  } catch (const std::exception& e) {
    error = std::string("unparseable response: ") + e.what();
    return false;
  }
}

bool same_estimate(const JsonValue& served, const core::EstimateResult& local) {
  const JsonValue* mean = served.find("mean");
  const JsonValue* cov = served.find("covariance");
  if (mean == nullptr || cov == nullptr || !mean->is_array() ||
      !cov->is_array()) {
    return false;
  }
  const linalg::Vector& m = local.moments.mean;
  const linalg::Matrix& c = local.moments.covariance;
  if (mean->as_array().size() != m.size() ||
      cov->as_array().size() != c.rows()) {
    return false;
  }
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (mean->as_array()[i].as_number() != m[i]) return false;
    const auto& row = cov->as_array()[i].as_array();
    if (row.size() != c.cols()) return false;
    for (std::size_t j = 0; j < c.cols(); ++j) {
      if (row[j].as_number() != c(i, j)) return false;
    }
  }
  return true;
}

bool same_streams(const stats::StatsShard& a, const stats::StatsShard& b) {
  if (a.folds.size() != b.folds.size() || a.count() != b.count()) {
    return false;
  }
  for (std::size_t f = 0; f < a.folds.size(); ++f) {
    if (!(a.folds[f] == b.folds[f])) return false;
  }
  return true;
}

namespace {

/// The CPUs the calling thread may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins thread `tid` (0 = the calling thread) to the index-th allowed CPU.
void pin(pid_t tid, std::size_t index) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[index % cpus.size()], &set);
  (void)sched_setaffinity(tid, sizeof set, &set);
}

/// Ids of this process's threads, ascending.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(
        static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

std::unique_ptr<serve::Server> start_server(std::size_t io_threads) {
  serve::ServerConfig config;
  config.io_threads = io_threads;
  auto server = std::make_unique<serve::Server>(config);
  const std::vector<pid_t> before = thread_ids();
  server->start();
  // start() creates loop 0..n-1 in order, and thread ids ascend.
  std::size_t loop = 0;
  for (const pid_t id : thread_ids()) {
    if (loop < io_threads &&
        !std::binary_search(before.begin(), before.end(), id)) {
      pin(id, loop++);
    }
  }
  return server;
}

void pin_client(std::size_t index) { pin(0, index); }

void replay_core_estimate(const core::MomentEstimator& estimator,
                          Tracer& tracer, std::uint64_t request,
                          double& grid_points) {
  const auto& bmf = dynamic_cast<const core::BmfEstimator&>(estimator);
  Tracer::Scope op(tracer, "op.core_estimate", request);
  {
    Tracer::Scope s(tracer, "core.snapshot", 0);
    (void)bmf.snapshot();
  }
  std::vector<core::SufficientStats> folds;
  core::SufficientStats pooled;
  for (const stats::StatStream& stream : bmf.streams()) {
    folds.push_back(stream.totals());
    pooled = pooled.count() == 0 ? folds.back() : pooled + folds.back();
  }
  core::GaussianMoments early_scaled;
  {
    Tracer::Scope s(tracer, "core.shift_scale", 0);
    const core::StageTransforms transforms = core::make_stage_transforms(
        bmf.early().nominal, bmf.nominal(), bmf.early().moments);
    early_scaled = transforms.early.apply(bmf.early().moments);
  }
  core::CrossValidationResult selected;
  {
    Tracer::Scope s(tracer, "core.cv.select", 0);
    selected =
        core::select_hyperparameters(early_scaled, folds, bmf.config().cv);
  }
  grid_points = static_cast<double>(selected.grid().size());
  {
    Tracer::Scope s(tracer, "core.map_fuse", 0);
    (void)core::map_fuse(early_scaled, pooled, selected.kappa0, selected.nu0);
  }
  Tracer::Scope s(tracer, "core.mle", 0);
  (void)core::estimate_mle(pooled);
}

linalg::Matrix Model::covariance() const {
  return chol * chol.transposed();
}

Model random_model(Rng& rng, std::size_t d, double scale) {
  Model m;
  m.mean = linalg::Vector(d);
  m.chol = linalg::Matrix(d, d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    m.mean[i] = 2.0 * rng.normal();
    for (std::size_t j = 0; j < i; ++j) m.chol(i, j) = 0.3 * scale * rng.normal();
    m.chol(i, i) = scale * (0.5 + rng.uniform());
  }
  return m;
}

}  // namespace bmfperf
