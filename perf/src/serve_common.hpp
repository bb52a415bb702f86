// Pieces shared by the two serve workloads: thread plan, the run skeleton
// (set-up, fixed-work phase, timed loop, checks, merge), JSON text helpers,
// the checks that compare what the server holds with a local estimator fed
// the same rows, and the closure of the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/estimator.hpp"
#include "core/moments.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats/stat_wire.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace bmfperf {

/// Thread and connection counts. Every client is a closed loop with one
/// request in flight, and estimates run with one CV thread, so at most
/// `clients` threads are busy at once; clients never exceed the CPU count.
struct ThreadPlan {
  std::size_t clients = 1;     ///< client threads = connections
  std::size_t io_threads = 1;  ///< server epoll loops
};

[[nodiscard]] ThreadPlan plan_threads(std::size_t cpus);
void record_plan(const ThreadPlan& plan, Report& report);

/// Closed-loop latency log of one request kind (+inf = failed request).
struct Latencies {
  std::vector<double> us;
  std::vector<double> end_s;
  void add(double start_s, double end_s, bool ok);
};

/// JSON text of numbers ("%.17g", exact round trip).
void append_vector(std::string& out, const bmfusion::linalg::Vector& v);
void append_matrix(std::string& out, const bmfusion::linalg::Matrix& m);

/// {"mean":[..],"covariance":[[..]],"nominal":[..]}
[[nodiscard]] std::string early_json(const bmfusion::core::GaussianMoments& moments,
                                     const bmfusion::linalg::Vector& nominal);

/// Parses a response and requires {"ok":true}; false with `error` set
/// otherwise.
bool response_ok(const std::string& text, bmfusion::JsonValue* out,
                 std::string& error);

/// Exact comparison of an estimate object {"mean","covariance",...} with
/// a locally computed result.
[[nodiscard]] bool same_estimate(const bmfusion::JsonValue& served,
                                 const bmfusion::core::EstimateResult& local);

/// Fold-by-fold bitwise comparison of two shards' stream state.
[[nodiscard]] bool same_streams(const bmfusion::stats::StatsShard& a,
                                const bmfusion::stats::StatsShard& b);

/// Starts a loopback server with `io_threads` loops and pins loop i to
/// the CPU of client i (pin_client). Connection k goes to loop k, and
/// clients connect in index order, so each client shares a CPU with the
/// loop that serves it: every hand-off is a wake-up on the same CPU. On a
/// virtual machine that avoids the cross-CPU interrupts and idle exits
/// whose cost varies with the host's load; left to the scheduler, the
/// placement changed from run to run and moved the serve figures by a
/// quarter.
[[nodiscard]] std::unique_ptr<bmfusion::serve::Server> start_server(
    std::size_t io_threads);

/// Pins the calling thread to the CPU of client `index`: the index-th CPU
/// (modulo their number) this process may run on.
void pin_client(std::size_t index);

/// Replays the core layer of one BMF estimate from a stream-equivalent
/// estimator: snapshot, then its parts (shift/scale, CV selection on the
/// fold statistics, MAP fuse, MLE), each in its own span.
void replay_core_estimate(const bmfusion::core::MomentEstimator& estimator,
                          Tracer& tracer, std::uint64_t request,
                          double& grid_points);

/// Runs `fn(client)` for every client on a thread of its own and joins
/// them all; an exception escaping `fn` is recorded with client.fail().
template <typename Client, typename Fn>
void on_client_threads(std::vector<std::unique_ptr<Client>>& clients,
                       const Fn& fn) {
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&fn, client = c.get()] {
      pin_client(client->index);
      try {
        fn(*client);
      } catch (const std::exception& e) {
        client->fail(e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Where a client is in the run.
enum class Stage : std::uint8_t { kSetup, kFixed, kTimed };

/// What every serve client keeps: its connection, failure record, latency
/// logs of the workload's two request kinds, check results and, on client
/// 0, the round trips of the requests recorded for the traced replay.
struct ClientBase {
  std::size_t index = 0;
  Stage stage = Stage::kSetup;
  bmfusion::serve::LineClient conn;
  Latencies primary;  ///< serve_ingest: observe; serve_query: estimate
  Latencies aux;      ///< serve_ingest: absorb; serve_query: observe
  double bytes = 0.0;           ///< bytes of the requests counted below
  std::size_t byte_requests = 0;
  std::size_t failures = 0;
  std::string first_failure;
  ErrorRatio quality;  ///< cov_err_ratio checkpoints
  Report counts;       ///< this client's phase counts
  /// Client 0: per recorded request, whether set-up sent it, and its
  /// client round trip; transport probe round trips (traced runs).
  std::vector<bool> recorded_setup;
  std::vector<double> recorded_us;
  std::vector<double> probe_us;
  bool probe = false;      ///< send a transport probe after each recorded
                           ///< timed-loop request (client 0, traced runs)
  bool probe_due = false;  ///< the last request was such a one

  void fail(const std::string& what) {
    ++failures;
    if (first_failure.empty()) first_failure = what;
  }
  /// Whether the request about to be sent is recorded for the traced
  /// replay: every set-up request (the replay needs the opens) and the
  /// first `limit` requests of the timed loop.
  [[nodiscard]] bool records(std::size_t limit) const {
    return index == 0 &&
           (stage == Stage::kSetup ||
            (stage == Stage::kTimed && loop_recorded_ < limit));
  }
  void recorded(double us) {
    recorded_setup.push_back(stage == Stage::kSetup);
    recorded_us.push_back(us);
    loop_recorded_ += stage == Stage::kTimed ? 1 : 0;
    probe_due = probe && stage == Stage::kTimed;
  }

 private:
  std::size_t loop_recorded_ = 0;
};

/// What run_serve measured besides the end-to-end metrics.
struct ServeRun {
  EndToEnd e2e;
  std::size_t primary_requests = 0;
  std::size_t aux_requests = 0;
  double bytes_per_request = 0.0;
};

/// Merges the clients' logs, counts and checks into `report` and computes
/// the windowed rates and latency quantiles over [start_s, start_s +
/// seconds] and cov_err_ratio.
ServeRun merge_clients(const char* workload,
                       const std::vector<const ClientBase*>& clients,
                       double start_s, double seconds, Report& report);

/// The run skeleton of a serve workload:
///   1. set-up, kSetupRepeats times (server start and connect(client,
///      port) for every client; the last set-up is kept): setup_s;
///   2. fixed(client) on every client, a fixed amount of work, then the
///      peak RSS: peak_rss_mb does not depend on how fast the host is;
///   3. loop(client, deadline) on every client for options.seconds;
///   4. check(client) on every client while the server still runs;
/// then the merge.
template <typename Client, typename Connect, typename Fixed, typename Loop,
          typename Check>
ServeRun run_serve(const char* workload, const Options& options,
                   std::vector<std::unique_ptr<Client>>& clients,
                   const Connect& connect, const Fixed& fixed,
                   const Loop& loop, const Check& check, Report& report) {
  const ThreadPlan plan = plan_threads(options.threads);
  record_plan(plan, report);
  std::vector<double> setups;
  std::unique_ptr<bmfusion::serve::Server> server;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    clients.clear();
    if (server) server->stop();
    const double t0 = now_s();
    server = start_server(plan.io_threads);
    bool ok = true;
    for (std::size_t i = 0; i < plan.clients; ++i) {
      clients.push_back(std::make_unique<Client>());
      clients.back()->index = i;
      ok = connect(*clients.back(), server->port()) && ok;
    }
    setups.push_back(now_s() - t0);
    report.count("setup", ok);
  }

  for (auto& c : clients) c->stage = Stage::kFixed;
  on_client_threads(clients, fixed);
  const double rss_mb = peak_rss_mb();
  for (auto& c : clients) {
    c->stage = Stage::kTimed;
    c->primary = Latencies{};
    c->aux = Latencies{};
    c->bytes = 0.0;
    c->byte_requests = 0;
  }
  const double start = now_s();
  const double deadline = start + options.seconds;
  on_client_threads(clients, [&](Client& c) { loop(c, deadline); });
  on_client_threads(clients, check);
  server->stop();

  std::vector<const ClientBase*> base;
  for (const auto& c : clients) base.push_back(c.get());
  ServeRun run = merge_clients(workload, base, start, options.seconds, report);
  run.e2e.setup_s = median(setups);
  run.e2e.peak_rss_mb = rss_mb;
  return run;
}

/// trace.unattributed_frac of a serve workload: the share of the client
/// round trips of client 0's recorded timed-loop requests that neither the
/// in-process handler (replayed under a span; `handler_us` holds one
/// duration per recorded request) nor the median transport probe (a round
/// trip whose handler does no work) covers.
[[nodiscard]] double serve_unattributed(const ClientBase& client,
                                        const std::vector<double>& handler_us);

/// Medians of the recorded timed-loop requests selected by `pick(i)`:
/// client round trip and replayed handler time.
template <typename Pick>
std::pair<double, double> loop_medians(const ClientBase& client,
                                       const std::vector<double>& handler_us,
                                       const Pick& pick) {
  std::vector<double> rtt;
  std::vector<double> handler;
  for (std::size_t i = 0; i < client.recorded_us.size(); ++i) {
    if (!client.recorded_setup[i] && pick(i)) {
      rtt.push_back(client.recorded_us[i]);
      handler.push_back(handler_us[i]);
    }
  }
  return {median(rtt), median(handler)};
}

/// Builds the mean/covariance of a random SPD model for input generation.
struct Model {
  bmfusion::linalg::Vector mean;
  bmfusion::linalg::Matrix chol;  ///< lower-triangular factor of the covariance
  [[nodiscard]] bmfusion::linalg::Matrix covariance() const;
};
[[nodiscard]] Model random_model(Rng& rng, std::size_t d, double scale);

}  // namespace bmfperf
