/// Ablation of the array geometry (H, L, P) on the *cycle-accurate* model:
/// complements Fig. 4b (which sweeps area analytically) by showing what the
/// same design knobs do to throughput and utilization on a fixed workload.
/// Also sweeps P alone, quantifying the paper's observation that the
/// H*(P+1) pipeline depth sets the K-granularity of efficient problems.
#include "bench_util.hpp"

using namespace redmule;
using namespace redmule::bench;

namespace {

core::JobStats run_geometry(const core::Geometry& g, const workloads::GemmShape& s) {
  cluster::ClusterConfig cfg;
  // Wide instances get a wider bank set (run_hw resolves it), as the paper
  // notes for H >= 5 ("limiting the integration in the cluster").
  cfg.geometry = g;
  return run_hw(s, 11, cfg);
}

}  // namespace

int main() {
  print_header("Ablation: cycle-accurate geometry sweep (H, L, P)",
               "throughput scales with H*L while utilization needs K >= H*(P+1)");

  const workloads::GemmShape big{"64x64x64", 64, 64, 64};
  TablePrinter t({"H", "L", "P", "FMAs", "j-slots", "Ports", "Cycles", "MAC/cycle",
                  "Utilization"});
  struct Cfg {
    unsigned h, l, p;
  };
  for (const Cfg& c : {Cfg{2, 4, 3}, Cfg{4, 4, 3}, Cfg{2, 8, 3}, Cfg{4, 8, 3},
                       Cfg{8, 8, 3}, Cfg{4, 16, 3}, Cfg{8, 16, 1}, Cfg{4, 8, 1},
                       Cfg{4, 8, 0}, Cfg{4, 8, 7}, Cfg{1, 8, 3}, Cfg{2, 16, 3}}) {
    const core::Geometry g{c.h, c.l, c.p};
    if (g.j_slots() > 32) continue;  // cycle model limit (see engine.hpp)
    const auto stats = run_geometry(g, big);
    t.add_row({TablePrinter::fmt_int(c.h), TablePrinter::fmt_int(c.l),
               TablePrinter::fmt_int(c.p), TablePrinter::fmt_int(g.n_fmas()),
               TablePrinter::fmt_int(g.j_slots()), TablePrinter::fmt_int(g.mem_ports()),
               TablePrinter::fmt_int(stats.cycles),
               TablePrinter::fmt(stats.macs_per_cycle(), 2),
               TablePrinter::percent(stats.utilization(g))});
  }
  t.print(stdout, "64^3 GEMM across geometries");

  // The K-granularity effect: a K smaller than the j-slot count wastes
  // pipeline slots -- the root cause of the B=1 autoencoder behaviour.
  std::printf("\nK sweep on the default geometry (16 j-slots):\n");
  TablePrinter k({"K", "Cycles", "MAC/cycle", "Utilization"});
  for (uint32_t kk : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u}) {
    const workloads::GemmShape s{"64x64xK", 64, 64, kk};
    const auto stats = run_hw(s, 12);
    const core::Geometry g{};
    k.add_row({TablePrinter::fmt_int(kk), TablePrinter::fmt_int(stats.cycles),
               TablePrinter::fmt(stats.macs_per_cycle(), 2),
               TablePrinter::percent(stats.utilization(g))});
  }
  k.print();
  std::printf("\nUtilization ~ K / (16 * ceil(K/16)): full slots only at K\n"
              "multiples of H*(P+1) -- the design-time knob Fig. 4b trades\n"
              "against area and memory ports.\n");
  return 0;
}
