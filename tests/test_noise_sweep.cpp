// Tests for the noise analysis, DC sweep and process corners — against
// closed-form references.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/ac.hpp"
#include "circuit/noise.hpp"
#include "circuit/opamp.hpp"
#include "circuit/process.hpp"
#include "circuit/sweep.hpp"
#include "common/contracts.hpp"

namespace bmfusion::circuit {
namespace {

MosfetModel nmos_model() {
  MosfetModel m;
  m.vth0 = 0.4;
  m.kp = 400e-6;
  m.lambda = 0.1;
  m.kf = 0.0;  // thermal-only unless a test enables flicker
  return m;
}

// ------------------------------------------------------------------- noise

TEST(Noise, ResistorDividerMatchesParallelResistance) {
  // Two resistors to a stiff source: output noise = 4kT (R1 || R2).
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId mid = net.node("mid");
  net.add_voltage_source("V1", in, kGround, 1.0);
  net.add_resistor("R1", in, mid, 10e3);
  net.add_resistor("R2", mid, kGround, 30e3);
  const OperatingPoint op = DcSolver().solve(net);
  const NoiseAnalysis noise(net, op);
  const NoiseSpectrumPoint pt = noise.output_noise(1e3, mid);
  const double r_par = 10e3 * 30e3 / 40e3;  // 7.5k
  EXPECT_NEAR(pt.output_psd, 4.0 * kBoltzmann * 300.0 * r_par,
              0.01 * pt.output_psd);
  EXPECT_EQ(pt.contributions.size(), 2u);
}

TEST(Noise, KTOverCIntegratedNoise) {
  // RC lowpass: total integrated output noise = kT / C, independent of R.
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("V1", in, kGround, 0.0);
  net.add_resistor("R1", in, out, 50e3);
  net.add_capacitor("C1", out, kGround, 1e-12);
  const OperatingPoint op = DcSolver().solve(net);
  const NoiseAnalysis noise(net, op);
  // Corner at 3.2 MHz: integrate far past it.
  const double total =
      noise.integrated_output_noise(out, 1.0, 1e12, 8);
  const double kt_over_c = kBoltzmann * 300.0 / 1e-12;
  EXPECT_NEAR(total, kt_over_c, 0.05 * kt_over_c);
}

TEST(Noise, MosfetChannelNoiseAtOutput) {
  // Common-source stage, noise dominated by the device and load:
  // S_out = 4kT gamma gm Rout^2 + 4kT/RL * RL^2 with Rout = RL || ro.
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("VDD", vdd, kGround, 1.1);
  net.add_voltage_source("VIN", in, kGround, 0.55);
  net.add_resistor("RL", vdd, out, 20e3);
  net.add_mosfet("M1", out, in, kGround, nmos_model(), {2.24e-6, 0.4e-6},
                 {});
  const OperatingPoint op = DcSolver().solve(net);
  const NoiseAnalysis noise(net, op);
  const NoiseSpectrumPoint pt = noise.output_noise(1e3, out);

  const double gm = std::fabs(op.mosfet_op(0).a_g);
  const double gds = std::fabs(op.mosfet_op(0).a_d);
  const double rout = 1.0 / (1.0 / 20e3 + gds);
  const double four_kt = 4.0 * kBoltzmann * 300.0;
  const double expected =
      four_kt * (2.0 / 3.0) * gm * rout * rout + four_kt / 20e3 * rout * rout;
  EXPECT_NEAR(pt.output_psd, expected, 0.05 * expected);
}

TEST(Noise, FlickerDominatesAtLowFrequency) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("VDD", vdd, kGround, 1.1);
  net.add_voltage_source("VIN", in, kGround, 0.55);
  net.add_resistor("RL", vdd, out, 20e3);
  MosfetModel m = nmos_model();
  m.kf = 3e-26;
  net.add_mosfet("M1", out, in, kGround, m, {2.24e-6, 0.4e-6}, {});
  const OperatingPoint op = DcSolver().solve(net);
  const NoiseAnalysis noise(net, op);
  const double low = noise.output_noise(1.0, out).output_psd;
  const double high = noise.output_noise(1e6, out).output_psd;
  EXPECT_GT(low, 3.0 * high);  // 1/f slope visible
  // Flicker contribution is labeled.
  const NoiseSpectrumPoint pt = noise.output_noise(1.0, out);
  EXPECT_EQ(pt.contributions.front().source, "M1.fl");
}

TEST(Noise, OpAmpInputReferredNoiseIsPlausible) {
  const TwoStageOpAmp amp(DesignStage::kSchematic, ProcessModel::cmos45());
  const Netlist net = amp.build_netlist({});
  const OperatingPoint op = DcSolver().solve(net);
  const NoiseAnalysis noise(net, op);
  const AcAnalysis ac(net, op);
  const NodeId out = net.find_node("out");
  const double f = 1e3;  // in-band
  const double out_psd = noise.output_noise(f, out).output_psd;
  const double gain = std::abs(ac.node_response(f, out));
  const double vn_in =
      std::sqrt(NoiseAnalysis::input_referred_psd(out_psd, gain));
  // CMOS op-amp input noise: between 1 and 1000 nV/sqrt(Hz).
  EXPECT_GT(vn_in, 1e-9);
  EXPECT_LT(vn_in, 1e-6);
}

TEST(Noise, InputValidation) {
  Netlist net;
  const NodeId a = net.node("a");
  net.add_voltage_source("V", a, kGround, 1.0);
  net.add_resistor("R", a, kGround, 1e3);
  const OperatingPoint op = DcSolver().solve(net);
  const NoiseAnalysis noise(net, op);
  EXPECT_THROW((void)noise.output_noise(0.0, a), ContractError);
  EXPECT_THROW((void)NoiseAnalysis::input_referred_psd(1.0, 0.0),
               ContractError);
}

// ---------------------------------------------------------------- dc sweep

TEST(DcSweep, LinearSweepHelper) {
  const std::vector<double> v = linear_sweep(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
  EXPECT_THROW((void)linear_sweep(0, 1, 1), ContractError);
}

TEST(DcSweep, DividerScalesLinearly) {
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId mid = net.node("mid");
  net.add_voltage_source("V1", in, kGround, 0.0);
  net.add_resistor("R1", in, mid, 1e3);
  net.add_resistor("R2", mid, kGround, 1e3);
  const DcSweepResult sweep =
      dc_sweep(net, 0, linear_sweep(0.0, 2.0, 5));
  for (std::size_t i = 0; i < sweep.point_count(); ++i) {
    EXPECT_NEAR(sweep.voltage(i, mid), 0.5 * sweep.swept_values()[i], 1e-6);
  }
  // The caller's netlist is untouched.
  EXPECT_EQ(net.voltage_sources()[0].dc, 0.0);
}

TEST(DcSweep, CommonSourceVtcIsMonotoneDecreasing) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("VDD", vdd, kGround, 1.1);
  net.add_voltage_source("VIN", in, kGround, 0.0);
  net.add_resistor("RL", vdd, out, 20e3);
  net.add_mosfet("M1", out, in, kGround, nmos_model(), {2.24e-6, 0.4e-6},
                 {});
  const DcSweepResult sweep =
      dc_sweep(net, 1, linear_sweep(0.0, 1.1, 23));
  const std::vector<double> vtc = sweep.transfer_curve(out);
  EXPECT_NEAR(vtc.front(), 1.1, 1e-3);  // device off
  EXPECT_LT(vtc.back(), 0.3);           // device hard on
  for (std::size_t i = 1; i < vtc.size(); ++i) {
    EXPECT_LE(vtc[i], vtc[i - 1] + 1e-9);
  }
}

TEST(DcSweep, InputValidation) {
  Netlist net;
  net.add_voltage_source("V", net.node("a"), kGround, 1.0);
  EXPECT_THROW((void)dc_sweep(net, 3, {1.0}), ContractError);
  EXPECT_THROW((void)dc_sweep(net, 0, {}), ContractError);
}

// ----------------------------------------------------------------- corners

TEST(ProcessCorners, TypicalIsNeutral) {
  const GlobalVariation g =
      ProcessModel::cmos45().corner(ProcessCorner::kTypical);
  EXPECT_EQ(g.dvth_nmos, 0.0);
  EXPECT_EQ(g.kp_factor_pmos, 1.0);
  EXPECT_EQ(g.res_factor, 1.0);
}

TEST(ProcessCorners, FastLowersThresholdRaisesDrive) {
  const ProcessModel pm = ProcessModel::cmos45();
  const GlobalVariation ff = pm.corner(ProcessCorner::kFastFast, 3.0);
  EXPECT_NEAR(ff.dvth_nmos, -3.0 * pm.statistics().sigma_vth_global, 1e-12);
  EXPECT_GT(ff.kp_factor_nmos, 1.0);
  const GlobalVariation ss = pm.corner(ProcessCorner::kSlowSlow, 3.0);
  EXPECT_GT(ss.dvth_nmos, 0.0);
  EXPECT_LT(ss.kp_factor_pmos, 1.0);
}

TEST(ProcessCorners, SkewCornersSplitPolarities) {
  const GlobalVariation fs =
      ProcessModel::cmos45().corner(ProcessCorner::kFastSlow, 3.0);
  EXPECT_LT(fs.dvth_nmos, 0.0);  // NMOS fast
  EXPECT_GT(fs.dvth_pmos, 0.0);  // PMOS slow
}

TEST(ProcessCorners, CornersBracketOpAmpPower) {
  // FF must burn more power than TT, SS less (drive strength ordering).
  const OpAmpDesign design;
  const ProcessModel pm = ProcessModel::cmos45();
  const TwoStageOpAmp amp(DesignStage::kSchematic, pm, design);
  const auto metrics_at = [&](ProcessCorner c) {
    TwoStageOpAmp::DieVariations v;
    const GlobalVariation g = pm.corner(c, 3.0);
    for (int i = 0; i < 8; ++i) {
      const bool is_nmos = i != 2 && i != 3 && i != 5;
      v.devices[i].dvth = is_nmos ? g.dvth_nmos : g.dvth_pmos;
      v.devices[i].kp_factor =
          is_nmos ? g.kp_factor_nmos : g.kp_factor_pmos;
    }
    return amp.measure(v);
  };
  const double p_tt = metrics_at(ProcessCorner::kTypical)[2];
  const double p_ff = metrics_at(ProcessCorner::kFastFast)[2];
  const double p_ss = metrics_at(ProcessCorner::kSlowSlow)[2];
  EXPECT_GT(p_ff, p_tt);
  EXPECT_LT(p_ss, p_tt);
}

}  // namespace
}  // namespace bmfusion::circuit
