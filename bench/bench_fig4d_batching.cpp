/// Regenerates Fig. 4d: effect of batching on the AutoEncoder training step.
/// Paper claims: from B=1 to B=16 the SW baseline barely moves while
/// RedMulE's throughput improves by almost 16x, reaching 24.4x speedup; the
/// B=16 activation working set (~184 kB) still fits a typical PULP L2.
#include "bench_util.hpp"
#include "workloads/autoencoder.hpp"

using namespace redmule;
using namespace redmule::bench;

int main() {
  print_header("Fig. 4d: AutoEncoder batching effect (B = 1 .. 16)",
               "HW throughput ~16x better at B=16; speedup 24.4x; 184 kB fits L2");

  TablePrinter t({"B", "HW cycles", "SW cycles", "HW MAC/c", "SW MAC/c", "Speedup",
                  "Act. footprint[kB]", "Fits L2(1.5MB)?"});
  double hw_mpc_b1 = 0.0, speedup_b16 = 0.0, hw_mpc_b16 = 0.0;
  for (uint32_t b : {1u, 2u, 4u, 8u, 16u}) {
    workloads::AutoencoderConfig cfg;
    cfg.batch = b;
    const auto gemms = workloads::training_step_gemms(cfg.dims(), cfg.batch);
    uint64_t hw_cycles = 0, sw_cycles = 0, macs = 0;
    for (const auto& ge : gemms) {
      hw_cycles += run_hw(ge.shape, 21).cycles;
      sw_cycles += run_sw(ge.shape, 21).cycles;
      macs += ge.shape.macs();
    }
    const double hw_mpc = static_cast<double>(macs) / hw_cycles;
    const double sw_mpc = static_cast<double>(macs) / sw_cycles;
    const double speedup = static_cast<double>(sw_cycles) / hw_cycles;
    if (b == 1) hw_mpc_b1 = hw_mpc;
    if (b == 16) {
      speedup_b16 = speedup;
      hw_mpc_b16 = hw_mpc;
    }
    const size_t act_kb = workloads::autoencoder_activation_bytes(cfg) / 1024;
    const size_t total_kb =
        act_kb + workloads::autoencoder_weight_bytes(cfg) / 1024;
    t.add_row({TablePrinter::fmt_int(b), TablePrinter::fmt_int(hw_cycles),
               TablePrinter::fmt_int(sw_cycles), TablePrinter::fmt(hw_mpc, 2),
               TablePrinter::fmt(sw_mpc, 2), TablePrinter::fmt(speedup, 1) + "x",
               TablePrinter::fmt_int(static_cast<long long>(act_kb)),
               total_kb < 1536 ? "yes" : "NO"});
  }
  t.print();

  std::printf("\nHW throughput gain B=1 -> B=16: %.1fx (paper: almost 16x)\n",
              hw_mpc_b16 / hw_mpc_b1);
  std::printf("Speedup at B=16: %.1fx (paper: 24.4x)\n", speedup_b16);
  return 0;
}
