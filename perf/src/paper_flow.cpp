// paper_flow: the paper's Section 5 job, in process.
//
// Each round draws early-stage (schematic) Monte Carlo for the two-stage
// op-amp and the flash ADC on the pool, draws post-layout late dies, and
// runs BMF fits (shift/scale, CV over the default 12 x 12 grid with 4
// folds, MAP) and MLE fits over a sweep of late sample counts n. The
// circuit and dsp layers do almost all of the work; serve does none.
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "circuit/flash_adc.hpp"
#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "common/parallel.hpp"
#include "core/bmf_estimator.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/mle.hpp"
#include "core/normal_wishart.hpp"
#include "core/shift_scale.hpp"
#include "dsp/spectrum.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace bmfperf {
namespace {

using namespace bmfusion;
using circuit::DesignStage;
using circuit::MonteCarloConfig;
using circuit::ProcessModel;

// Work per round. The early populations are the prior knowledge of one
// round; the late pool supplies disjoint subsets for the fits.
constexpr std::size_t kOpampEarlyDies = 2048;
constexpr std::size_t kAdcEarlyDies = 512;
constexpr std::size_t kLateDies = 256;
constexpr std::size_t kFitSizes[] = {8, 16, 32, 64};
constexpr std::size_t kFitReps = 10;
// Reference populations for the covariance error.
constexpr std::size_t kOpampReferenceDies = 16000;
constexpr std::size_t kAdcReferenceDies = 8000;
// cov_err_ratio is accumulated over this many rounds, so it is the same
// for a seed however fast the host is; the run always completes them.
constexpr std::size_t kQualityRounds = 20;

struct Circuit {
  const char* name = "";
  std::unique_ptr<circuit::Testbench> early;
  std::unique_ptr<circuit::Testbench> late;
  linalg::Vector early_nominal;
  linalg::Vector late_nominal;
  core::GaussianMoments reference;  ///< late-stage moments, raw units
  std::size_t early_dies = 0;
  std::uint64_t tag = 0;
};

std::vector<Circuit> set_up() {
  std::vector<Circuit> circuits(2);
  Circuit& opamp = circuits[0];
  opamp.name = "opamp";
  opamp.early = std::make_unique<circuit::TwoStageOpAmp>(
      DesignStage::kSchematic, ProcessModel::cmos45());
  opamp.late = std::make_unique<circuit::TwoStageOpAmp>(
      DesignStage::kPostLayout, ProcessModel::cmos45());
  opamp.early_dies = kOpampEarlyDies;
  opamp.tag = 1;
  Circuit& adc = circuits[1];
  adc.name = "adc";
  adc.early = std::make_unique<circuit::FlashAdc>(DesignStage::kSchematic,
                                                  ProcessModel::cmos180());
  adc.late = std::make_unique<circuit::FlashAdc>(DesignStage::kPostLayout,
                                                 ProcessModel::cmos180());
  adc.early_dies = kAdcEarlyDies;
  adc.tag = 2;
  for (Circuit& c : circuits) {
    c.early_nominal = c.early->nominal_metrics();
    c.late_nominal = c.late->nominal_metrics();
  }
  return circuits;
}

/// The large-sample late-stage reference of each circuit: benchmark input,
/// not set-up, so it is drawn once per run.
void draw_references(const Options& options, std::vector<Circuit>& circuits) {
  for (Circuit& c : circuits) {
    const std::size_t dies =
        c.tag == 1 ? kOpampReferenceDies : kAdcReferenceDies;
    c.reference = core::estimate_mle(circuit::run_monte_carlo_stats(
        *c.late, MonteCarloConfig{}
                     .with_sample_count(dies)
                     .with_seed(mix(options.seed, 10 + c.tag))
                     .with_threads(options.threads)));
  }
}

/// FNV-1a over the bytes of the statistics (count, sum, outer sums).
std::uint64_t digest(const stats::SufficientStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  };
  const std::size_t n = s.count();
  feed(&n, sizeof n);
  feed(s.sum().data(), s.sum().size() * sizeof(double));
  feed(s.sum_outer().data(),
       s.sum_outer().rows() * s.sum_outer().cols() * sizeof(double));
  return h;
}

linalg::Matrix take_rows(const linalg::Matrix& pool,
                         const std::vector<std::size_t>& order,
                         std::size_t offset, std::size_t n) {
  linalg::Matrix out(n, pool.cols());
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(out.row_data(i), pool.row_data(order[offset + i]),
                pool.cols() * sizeof(double));
  }
  return out;
}

std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

struct FitInput {
  const Circuit* circuit = nullptr;
  core::EarlyStageKnowledge early;
  linalg::Matrix late;
};

/// One BMF + MLE fit of a late subset and what it measured.
struct Fit {
  linalg::Matrix late;
  double us = 0.0;  ///< BMF fit latency
  double bmf_err = 0.0;
  double mle_err = 0.0;
  std::string error;  ///< empty on success
};

struct RoundTimes {
  std::vector<double> mc_rate[2];   ///< dies/s per round, per circuit
  double mc_seconds[2] = {0.0, 0.0};
  std::size_t mc_dies[2] = {0, 0};
  std::size_t late_dies[2] = {0, 0};
  std::vector<double> fit_us[2];    ///< BMF fit latency, per circuit
  double late_seconds = 0.0;       ///< post-layout late draws
  double round_seconds = 0.0;
  double fit_seconds = 0.0;
  ErrorRatio quality[2];             ///< per circuit
  std::vector<FitInput> replay;     ///< round-0 fit inputs for the trace
};

/// One round: early Monte Carlo, late draws and the fit sweep per circuit.
void run_round(const Options& options, std::size_t threads, std::size_t r,
               const std::vector<Circuit>& circuits, RoundTimes& times,
               Report& report) {
  const double round_start = now_s();
  core::CrossValidationConfig cv;
  cv.threads = 1;
  for (std::size_t ci = 0; ci < circuits.size(); ++ci) {
    const Circuit& c = circuits[ci];
    const std::string phase = std::string("mc_") + c.name;
    stats::SufficientStats early_stats;
    try {
      const double t0 = now_s();
      early_stats = circuit::run_monte_carlo_stats(
          *c.early, MonteCarloConfig{}
                        .with_sample_count(c.early_dies)
                        .with_seed(mix(options.seed, 1000 + 16 * r + c.tag))
                        .with_threads(threads));
      const double dt = now_s() - t0;
      times.mc_rate[ci].push_back(static_cast<double>(c.early_dies) / dt);
      times.mc_seconds[ci] += dt;
      times.mc_dies[ci] += c.early_dies;
      report.count(phase, true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paper_flow: %s: %s\n", phase.c_str(), e.what());
      report.count(phase, false);
      times.mc_rate[ci].push_back(0.0);
      continue;
    }
    std::optional<circuit::Dataset> late;
    try {
      const double t0 = now_s();
      late = circuit::run_monte_carlo(
          *c.late, MonteCarloConfig{}
                       .with_sample_count(kLateDies)
                       .with_seed(mix(options.seed, 5000 + 16 * r + c.tag))
                       .with_threads(threads));
      times.late_seconds += now_s() - t0;
      times.late_dies[ci] += kLateDies;
      report.count("late_draw", true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paper_flow: late draw: %s\n", e.what());
      report.count("late_draw", false);
      continue;
    }
    const core::EarlyStageKnowledge early{core::estimate_mle(early_stats),
                                          c.early_nominal};
    const core::BmfConfig config = core::BmfConfig{}.with_cv(cv);
    const core::ShiftScale scale =
        core::BmfEstimator(early, config).late_transform(c.late_nominal);
    const linalg::Matrix ref_cov = scale.apply(c.reference).covariance;
    Rng rng(mix(options.seed, 9000 + 16 * r + c.tag));
    std::vector<Fit> fits;
    for (std::size_t rep = 0; rep < kFitReps; ++rep) {
      // Within a repetition the subsets are disjoint.
      const std::vector<std::size_t> order =
          shuffled(late->sample_count(), rng);
      std::size_t offset = 0;
      for (const std::size_t n : kFitSizes) {
        Fit fit;
        fit.late = take_rows(late->samples(), order, offset, n);
        fits.push_back(std::move(fit));
        offset += n;
        if (r == 0 && rep == 0) {
          times.replay.push_back({&c, early, fits.back().late});
        }
      }
    }
    // The fits of a round run side by side on the pool, one CV thread
    // each, as a validation job fitting many subsets would.
    const double t0 = now_s();
    parallel_for(
        fits.size(),
        [&](std::size_t i) {
          Fit& fit = fits[i];
          try {
            const core::BmfEstimator bmf(early, config);
            const double start = now_s();
            const core::EstimateResult fused =
                bmf.estimate(fit.late, c.late_nominal);
            fit.us = (now_s() - start) * 1e6;
            const core::EstimateResult base =
                core::MleEstimator{}.estimate(fit.late);
            fit.bmf_err = core::covariance_error(
                scale.apply(fused.moments).covariance, ref_cov);
            fit.mle_err = core::covariance_error(
                scale.apply(base.moments).covariance, ref_cov);
          } catch (const std::exception& e) {
            fit.error = e.what();
          }
        },
        threads);
    times.fit_seconds += now_s() - t0;
    for (const Fit& fit : fits) {
      const bool ok = fit.error.empty();
      if (!ok) std::fprintf(stderr, "paper_flow: fit: %s\n", fit.error.c_str());
      report.count("bmf_fit", ok);
      report.count("mle_fit", ok);
      times.fit_us[ci].push_back(
          ok ? fit.us : std::numeric_limits<double>::infinity());
      if (ok && r < kQualityRounds) {
        times.quality[ci].add(fit.bmf_err, fit.mle_err);
      }
    }
  }
  times.round_seconds += now_s() - round_start;
}

// ------------------------------------------------------------ traced replay

std::uint64_t newton_iterations() {
  return telemetry::Registry::instance()
      .counter("circuit.dc.newton_iterations")
      .total();
}

struct ReplayResult {
  double wall_s = 0.0;
  double newton_per_solve = 0.0;
  double grid_points = 0.0;
};

/// Replays a slice of round 0 one call at a time, each public call in its
/// own span. Die samples run on the testbenches the Monte Carlo phase
/// draws (so the pool efficiency compares like with like); the DC/AC stage
/// split and the ADC capture run on post-layout dies. Circuit work is
/// replayed on fresh seeded dies.
ReplayResult replay(const Options& options, const std::vector<Circuit>& circuits,
                    const std::vector<FitInput>& fits, Tracer& tracer) {
  ReplayResult out;
  const double start = now_s();
  std::uint64_t request = 0;
  const auto& opamp = static_cast<const circuit::TwoStageOpAmp&>(
      *circuits[0].late);
  const circuit::Testbench& opamp_mc = *circuits[0].early;
  const circuit::Testbench& adc_mc = *circuits[1].early;
  const auto& adc = static_cast<const circuit::FlashAdc&>(*circuits[1].late);
  const std::uint64_t die_seed = mix(options.seed, 77);

  circuit::SimWorkspace ws;
  for (std::size_t i = 0; i < 64; ++i) {
    Tracer::Scope op(tracer, "op.opamp_die", ++request);
    stats::Xoshiro256pp rng = circuit::sample_rng(die_seed, i);
    Tracer::Scope s(tracer, "circuit.opamp.sample", 0);
    (void)opamp_mc.sample_metrics(rng, ws);
  }
  // Post-layout dies, as the late draws sample them (closure only).
  circuit::SimWorkspace late_ws;
  for (std::size_t i = 0; i < 32; ++i) {
    Tracer::Scope op(tracer, "op.opamp_late_die", ++request);
    stats::Xoshiro256pp rng = circuit::sample_rng(die_seed, 500 + i);
    Tracer::Scope s(tracer, "circuit.opamp.late_sample", 0);
    (void)opamp.sample_metrics(rng, late_ws);
  }

  // The op-amp sample split into its solver stages, warm-started from the
  // nominal die's bias point as the Monte Carlo loop does.
  const circuit::DcSolver solver;
  circuit::SimWorkspace nominal_ws;
  const circuit::Netlist nominal_net =
      opamp.build_netlist(circuit::TwoStageOpAmp::DieVariations{});
  solver.solve_into(nominal_net, nominal_ws);
  const linalg::Vector warm = nominal_ws.state;
  const auto& design = opamp.design();
  const std::vector<double> freqs = circuit::log_frequency_grid(
      design.f_start, design.f_stop, design.points_per_decade);
  circuit::SimWorkspace stage_ws;
  std::uint64_t newton = 0;
  std::size_t solves = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    Tracer::Scope op(tracer, "op.opamp_stages", ++request);
    stats::Xoshiro256pp rng = circuit::sample_rng(die_seed, 1000 + i);
    circuit::TwoStageOpAmp::DieVariations v;
    {
      Tracer::Scope s(tracer, "circuit.opamp.variations", 0);
      v = opamp.sample_variations(rng);
    }
    circuit::Netlist net;
    {
      Tracer::Scope s(tracer, "circuit.netlist", 0);
      net = opamp.build_netlist(v);
    }
    {
      const std::uint64_t before = newton_iterations();
      Tracer::Scope s(tracer, "circuit.dc.solve", 0);
      solver.solve_into(net, stage_ws, &warm);
      newton += newton_iterations() - before;
      ++solves;
    }
    {
      Tracer::Scope s(tracer, "circuit.ac.sweep", 0);
      stage_ws.ac.bind(net, stage_ws.op);
      stage_ws.ac.sweep_into(freqs, net.find_node("out"), stage_ws.ac_system,
                             stage_ws.ac_lu, stage_ws.ac_solution,
                             stage_ws.response);
    }
  }
  out.newton_per_solve =
      static_cast<double>(newton) / static_cast<double>(solves);

  circuit::SimWorkspace adc_ws;
  for (std::size_t i = 0; i < 16; ++i) {
    Tracer::Scope op(tracer, "op.adc_die", ++request);
    stats::Xoshiro256pp rng = circuit::sample_rng(die_seed, 2000 + i);
    Tracer::Scope s(tracer, "circuit.adc.sample", 0);
    (void)adc_mc.sample_metrics(rng, adc_ws);
  }
  circuit::SimWorkspace adc_late_ws;
  for (std::size_t i = 0; i < 16; ++i) {
    Tracer::Scope op(tracer, "op.adc_late_die", ++request);
    stats::Xoshiro256pp rng = circuit::sample_rng(die_seed, 2500 + i);
    Tracer::Scope s(tracer, "circuit.adc.late_sample", 0);
    (void)adc.sample_metrics(rng, adc_late_ws);
  }

  const auto& adc_design = adc.design();
  const double lsb = (adc_design.v_high - adc_design.v_low) /
                     static_cast<double>(std::size_t{1} << adc_design.bits);
  dsp::ToneScratch scratch;
  std::vector<double> wave(adc_design.capture_points);
  for (std::size_t i = 0; i < 16; ++i) {
    Tracer::Scope op(tracer, "op.adc_tone", ++request);
    stats::Xoshiro256pp rng = circuit::sample_rng(die_seed, 3000 + i);
    std::vector<int> codes;
    {
      Tracer::Scope s(tracer, "circuit.adc.capture", 0);
      const circuit::FlashAdc::DieVariations v = adc.sample_variations(rng);
      codes = adc.capture_codes(v, adc_design.capture_points,
                                adc_design.amplitude_fraction, &rng);
    }
    for (std::size_t t = 0; t < codes.size(); ++t) {
      wave[t] = static_cast<double>(codes[t]) * lsb;
    }
    Tracer::Scope s(tracer, "dsp.tone", 0);
    (void)dsp::analyze_tone_into(wave, dsp::ToneAnalysisConfig{}, scratch);
  }

  core::CrossValidationConfig cv;
  cv.threads = 1;
  double grid_points = 0.0;
  for (const FitInput& fit : fits) {
    Tracer::Scope op(tracer, fit.circuit->tag == 1 ? "op.bmf_fit.opamp"
                                                   : "op.bmf_fit.adc",
                     ++request);
    std::optional<core::StageTransforms> transforms;
    core::GaussianMoments early_scaled;
    linalg::Matrix late_scaled;
    {
      Tracer::Scope s(tracer, "core.shift_scale", 0);
      transforms = core::make_stage_transforms(fit.early.nominal,
                                               fit.circuit->late_nominal,
                                               fit.early.moments);
      early_scaled = transforms->early.apply(fit.early.moments);
      late_scaled = transforms->late.apply(fit.late);
    }
    core::CrossValidationResult selected;
    {
      Tracer::Scope s(tracer, "core.cv.select", 0);
      selected = core::select_hyperparameters(early_scaled, late_scaled, cv);
    }
    grid_points = static_cast<double>(selected.grid().size());
    core::GaussianMoments fused;
    {
      Tracer::Scope s(tracer, "core.map_fuse", 0);
      fused = core::map_fuse(early_scaled,
                             stats::SufficientStats::from_samples(late_scaled),
                             selected.kappa0, selected.nu0);
    }
    Tracer::Scope s(tracer, "core.shift_scale", 0);
    (void)transforms->late.invert(fused);
  }
  out.grid_points = grid_points;

  for (const FitInput& fit : fits) {
    Tracer::Scope op(tracer, fit.circuit->tag == 1 ? "op.mle_fit.opamp"
                                                   : "op.mle_fit.adc",
                     ++request);
    Tracer::Scope s(tracer, "core.mle", 0);
    (void)core::estimate_mle(fit.late);
  }

  for (const FitInput& fit : fits) {
    Tracer::Scope op(tracer, "op.bmf_stream", ++request);
    core::BmfEstimator est(fit.early, core::BmfConfig{}.with_cv(cv));
    est.set_nominal(fit.circuit->late_nominal);
    {
      Tracer::Scope s(tracer, "core.observe", 0);
      est.observe(fit.late);
    }
    Tracer::Scope s(tracer, "core.snapshot", 0);
    (void)est.snapshot();
  }
  out.wall_s = now_s() - start;
  return out;
}

}  // namespace

void run_paper_flow(const Options& options, Report& report) {
  const std::size_t threads = options.threads;
  report.fact("pool_threads", static_cast<double>(threads));
  report.fact("cv_threads", 1.0);
  report.fact("concurrent_fits", static_cast<double>(threads));
  report.fact("io_threads", 0.0);
  report.fact("client_threads", 0.0);
  report.fact("connections", 0.0);

  std::vector<double> setups;
  std::vector<Circuit> circuits;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    circuits = set_up();
    // Warm the pool and each worker's workspace caches.
    (void)circuit::run_monte_carlo_stats(
        *circuits[0].early,
        MonteCarloConfig{}.with_sample_count(64 * threads).with_seed(3)
            .with_threads(threads));
    setups.push_back(now_s() - t0);
    report.count("setup", true);
  }
  draw_references(options, circuits);

  RoundTimes times;
  const double start = now_s();
  std::size_t rounds = 0;
  while (rounds < kQualityRounds || now_s() - start < options.seconds) {
    run_round(options, threads, rounds, circuits, times, report);
    ++rounds;
  }
  const double measured_s = now_s() - start;
  const double rss_mb = peak_rss_mb();

  // Correctness: Monte Carlo statistics are bitwise identical at 1 thread
  // and at the workload's thread count; BMF beats MLE.
  bool digests_equal = true;
  std::string digest_detail;
  for (const Circuit& c : circuits) {
    const MonteCarloConfig cfg = MonteCarloConfig{}
                                     .with_sample_count(c.tag == 1 ? 512 : 96)
                                     .with_seed(mix(options.seed, 31 + c.tag));
    const std::uint64_t one = digest(circuit::run_monte_carlo_stats(
        *c.early, MonteCarloConfig(cfg).with_threads(1)));
    const std::uint64_t many = digest(circuit::run_monte_carlo_stats(
        *c.early, MonteCarloConfig(cfg).with_threads(threads)));
    char text[96];
    std::snprintf(text, sizeof text, "%s %016llx/%016llx ", c.name,
                  static_cast<unsigned long long>(one),
                  static_cast<unsigned long long>(many));
    digest_detail += text;
    digests_equal = digests_equal && one == many;
  }
  report.check("mc_digest_thread_invariant", digests_equal, digest_detail);

  ErrorRatio quality = times.quality[0];
  quality.merge(times.quality[1]);
  const double ratio = quality.value();
  char detail[128];
  std::snprintf(detail, sizeof detail, "opamp %.4f adc %.4f",
                times.quality[0].value(), times.quality[1].value());
  report.check("cov_err_ratio_below_1", ratio < 1.0, detail);

  report.fact("rounds", static_cast<double>(rounds));
  report.fact("measured_s", measured_s);
  report.fact("fits_per_circuit", static_cast<double>(times.fit_us[0].size()));
  report.fact("split_circuit_dsp",
              (times.mc_seconds[0] + times.mc_seconds[1] +
               times.late_seconds) / times.round_seconds);
  report.fact("split_core", times.fit_seconds / times.round_seconds);

  EndToEnd e2e;
  e2e.rate_per_s = median(times.mc_rate[0]);
  e2e.aux_rate_per_s = median(times.mc_rate[1]);
  e2e.latency_p50_us = quantile(times.fit_us[0], 0.50);
  e2e.latency_p90_us = quantile(times.fit_us[0], 0.90);
  e2e.latency_p99_us = quantile(times.fit_us[0], 0.99);
  e2e.aux_latency_p50_us = quantile(times.fit_us[1], 0.50);
  e2e.aux_latency_p90_us = quantile(times.fit_us[1], 0.90);
  e2e.aux_latency_p99_us = quantile(times.fit_us[1], 0.99);
  e2e.cov_err_ratio = ratio;
  e2e.setup_s = median(setups);
  e2e.peak_rss_mb = rss_mb;

  if (!options.trace) {
    emit_end_to_end(e2e, report);
    return;
  }

  Tracer tracer(true);
  const ReplayResult traced = run_traced(
      [&](Tracer& t) { return replay(options, circuits, times.replay, t); },
      options, report, tracer);
  const SpanTable spans(tracer);
  const double opamp_us = spans.median("circuit.opamp.sample");
  const double adc_us = spans.median("circuit.adc.sample");
  // Closure: the layer time the measured rounds should take on `threads`
  // workers (Monte Carlo dies, late dies, and per fit the BMF and MLE layer
  // calls), each at its traced mean per operation, against the rounds'
  // untraced wall time. Pool overhead, load imbalance and driver glue are
  // what is left.
  double layer_us = 0.0;
  for (std::size_t ci = 0; ci < circuits.size(); ++ci) {
    const bool op = ci == 0;
    layer_us +=
        static_cast<double>(times.mc_dies[ci]) *
            tracer.layer_us_per_root(op ? "op.opamp_die" : "op.adc_die") +
        static_cast<double>(times.late_dies[ci]) *
            tracer.layer_us_per_root(op ? "op.opamp_late_die"
                                        : "op.adc_late_die") +
        static_cast<double>(times.fit_us[ci].size()) *
            (tracer.layer_us_per_root(op ? "op.bmf_fit.opamp"
                                         : "op.bmf_fit.adc") +
             tracer.layer_us_per_root(op ? "op.mle_fit.opamp"
                                         : "op.mle_fit.adc"));
  }
  const double unattributed =
      1.0 - layer_us * 1e-6 /
                (times.round_seconds * static_cast<double>(threads));
  const std::map<std::string, double> layers{
      {"circuit.dc.solve_us", spans.median("circuit.dc.solve")},
      {"circuit.dc.newton_iters", traced.newton_per_solve},
      {"circuit.ac.sweep_us", spans.median("circuit.ac.sweep")},
      {"circuit.opamp.sample_us", opamp_us},
      {"circuit.adc.sample_us", adc_us},
      {"dsp.tone_us", spans.median("dsp.tone")},
      {"common.pool.mc_efficiency",
       (opamp_us * static_cast<double>(times.mc_dies[0]) +
        adc_us * static_cast<double>(times.mc_dies[1])) * 1e-6 /
           ((times.mc_seconds[0] + times.mc_seconds[1]) *
            static_cast<double>(threads))},
      {"core.shift_scale_us", spans.median("core.shift_scale")},
      {"core.cv.select_us", spans.median("core.cv.select")},
      {"core.cv.grid_points", traced.grid_points},
      {"core.map_fuse_us", spans.median("core.map_fuse")},
      {"core.mle_us", spans.median("core.mle")},
      {"core.snapshot_us", spans.median("core.snapshot")},
      {"trace.unattributed_frac", unattributed},
  };
  emit_layers(layers, report);
}

}  // namespace bmfperf
