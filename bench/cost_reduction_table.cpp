// Reproduces the quantitative claims quoted in the text of Section 5:
//   * op-amp: ">16x cost reduction over MLE in covariance matrix
//     estimation", "nearly 3x" on the mean at very small n, optimized
//     kappa0 ~ 4.67 and nu0 ~ 557.3 at n = 32 (Section 5.1);
//   * ADC: ">10x" on both moments, kappa0 ~ 521.9 and nu0 ~ 558.8 at
//     n = 32 (Section 5.2).
// Prints one row per (circuit, moment) with the measured cost-reduction
// factor at small n and the median hyper-parameters selected at n = 32.
// --json PATH also writes the rows as one JSON object (full precision);
// scripts/check_claims.py pins them in ctest.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>

#include "bench_common.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace {

using namespace bmfusion;

struct ClaimRow {
  std::string circuit;
  std::string moment;
  std::size_t small_n;
  double factor_small_n;
  double paper_factor;
  double kappa32;
  double nu32;
};

ClaimRow make_row(const std::string& circuit, const std::string& moment,
                  const core::ExperimentResult& result, bool use_cov,
                  std::size_t small_n, double paper_factor) {
  ClaimRow row;
  row.circuit = circuit;
  row.moment = moment;
  row.small_n = small_n;
  row.factor_small_n =
      core::cost_reduction_factor(result.rows, small_n, use_cov);
  row.paper_factor = paper_factor;
  row.kappa32 = 0.0;
  row.nu32 = 0.0;
  for (const core::ExperimentRow& r : result.rows) {
    if (r.n == 32) {
      row.kappa32 = r.median_kappa0;
      row.nu32 = r.median_nu0;
    }
  }
  return row;
}

void write_json(const std::string& path, const ClaimRow* rows,
                std::size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"bench\": \"cost_reduction_table\", \"rows\": [";
  for (std::size_t i = 0; i < count; ++i) {
    const ClaimRow& r = rows[i];
    char numbers[256];
    std::snprintf(numbers, sizeof numbers,
                  "\"n\": %zu, \"measured_x\": %.17g, \"paper_x\": %.17g, "
                  "\"kappa0_n32\": %.17g, \"nu0_n32\": %.17g",
                  r.small_n, r.factor_small_n, r.paper_factor, r.kappa32,
                  r.nu32);
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"circuit\": \"" << r.circuit
        << "\", \"moment\": \"" << r.moment << "\", " << numbers << "}";
  }
  out << "\n]}\n";
  if (!out.good()) {
    throw DataError("cost_reduction_table: failed to write " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmfusion;
  CliParser cli(
      "cost_reduction_table: Section 5 text claims — BMF-vs-MLE cost "
      "reduction factors and selected hyper-parameters");
  bench::add_common_flags(cli, 5000);
  cli.add_flag("adc-samples", "1000", "ADC Monte-Carlo population size");
  cli.add_flag("json", "", "also write the rows to this JSON file");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string dir = cli.get_string("data-dir");

    const bench::StageData opamp = bench::load_opamp_data(
        dir, static_cast<std::size_t>(cli.get_int("samples")));
    const core::MomentExperiment opamp_exp(opamp.early, opamp.early_nominal,
                                           opamp.late, opamp.late_nominal);
    const core::ExperimentResult opamp_res = opamp_exp.run(
        bench::experiment_config_from_cli(cli,
                                          {8, 16, 32, 64, 128, 256, 512}));

    const bench::StageData adc = bench::load_adc_data(
        dir, static_cast<std::size_t>(cli.get_int("adc-samples")));
    const core::MomentExperiment adc_exp(adc.early, adc.early_nominal,
                                         adc.late, adc.late_nominal);
    const core::ExperimentResult adc_res = adc_exp.run(
        bench::experiment_config_from_cli(cli, {8, 16, 32, 64, 128, 256}));

    const ClaimRow rows[] = {
        make_row("opamp", "mean", opamp_res, false, 8, 3.0),
        make_row("opamp", "covariance", opamp_res, true, 16, 16.0),
        make_row("adc", "mean", adc_res, false, 8, 10.0),
        make_row("adc", "covariance", adc_res, true, 8, 10.0),
    };

    std::printf("\nSection 5 claims: cost reduction of BMF over MLE\n");
    ConsoleTable table({"circuit", "moment", "measured_x", "paper_x",
                        "kappa0@n=32", "nu0@n=32"});
    for (const ClaimRow& r : rows) {
      table.add_row({r.circuit, r.moment, format_double(r.factor_small_n, 3),
                     format_double(r.paper_factor, 3),
                     format_double(r.kappa32, 4), format_double(r.nu32, 4)});
    }
    table.print(std::cout);
    std::printf(
        "# paper reference points: opamp kappa0=4.67 nu0=557.3 @n=32; "
        "adc kappa0=521.9 nu0=558.8 @n=32\n");
    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      write_json(json_path, rows, std::size(rows));
      std::printf("# rows written to %s\n", json_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cost_reduction_table: %s\n", e.what());
    return 1;
  }
  return 0;
}
