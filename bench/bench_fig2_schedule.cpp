/// Regenerates the paper's Fig. 2c/2d as textual timelines from the
/// cycle-accurate simulation:
///  - Fig. 2d: per-column pipeline evolution inside a row of FMAs (which
///    (traversal, j-slot) each column issues every cycle, the feedback
///    hand-off, and the Z captures emerging from the last column);
///  - Fig. 2c: the load/store schedule on the single wide memory port
///    (W heartbeat every P+1 cycles, X refills and Z stores interleaved).
#include <map>

#include "bench_util.hpp"

using namespace redmule;
using namespace redmule::bench;

int main() {
  print_header("Fig. 2c/2d: pipeline evolution and memory-access schedule",
               "X held H*(P+1) cycles; W streamed per cycle; feedback every "
               "H*(P+1); X/Z interleaved between W loads");

  // A deliberately tiny instance so the whole timeline fits on screen:
  // H=2 columns, L=1 row, P=1 (latency 2) -> 4 j-slots per tile.
  cluster::ClusterConfig cfg;
  cfg.geometry = core::Geometry{2, 1, 1};
  cluster::Cluster cl(cfg);
  cluster::RedmuleDriver drv(cl);
  Xoshiro256 rng(1);
  const uint32_t M = 1, N = 4, K = 4;  // 2 traversals, 1 tile
  const auto x = workloads::random_matrix(M, N, rng);
  const auto w = workloads::random_matrix(N, K, rng);
  const uint32_t xa = drv.place_matrix(x);
  const uint32_t wa = drv.place_matrix(w);
  const uint32_t za = drv.alloc(M * K * 2);

  struct Row {
    std::string col[2];
    std::string capture;
    char port = 0;
  };
  std::map<uint64_t, Row> timeline;  // keyed by cluster cycle

  cl.redmule().set_schedule_observer(
      [&](uint64_t, const std::vector<core::Datapath::ColumnIssue>& issues,
          const std::optional<core::Datapath::Capture>& cap) {
        Row& row = timeline[cl.cycle()];
        for (unsigned c = 0; c < 2; ++c) {
          if (!issues[c].active) continue;
          row.col[c] = "t" + std::to_string(issues[c].tag.trav) + ".j" +
                       std::to_string(issues[c].tag.tau);
          if (issues[c].first_traversal) row.col[c] += " acc=0";
          else if (c == 0) row.col[c] += " <-fb";
        }
        if (cap.has_value())
          row.capture = "Z[j" + std::to_string(cap->tag.tau) + "]";
      });

  // Program + trigger manually so we can sample the port every cycle.
  auto& rm = cl.redmule();
  rm.reg_write(core::kRegXPtr, xa);
  rm.reg_write(core::kRegWPtr, wa);
  rm.reg_write(core::kRegZPtr, za);
  rm.reg_write(core::kRegM, M);
  rm.reg_write(core::kRegN, N);
  rm.reg_write(core::kRegK, K);
  rm.reg_write(core::kRegTrigger, 0);
  const uint64_t t0 = cl.cycle();
  while (rm.busy() && cl.cycle() < t0 + 200) {
    cl.step();
    const char k = rm.streamer().posted_kind();
    if (k != 0) timeline[cl.cycle() - 1].port = k;
  }

  TablePrinter t({"cycle", "column 0", "column 1", "Z capture", "mem port"});
  for (const auto& [cycle, row] : timeline) {
    t.add_row({TablePrinter::fmt_int(static_cast<long long>(cycle - t0)),
               row.col[0].empty() ? "-" : row.col[0],
               row.col[1].empty() ? "-" : row.col[1],
               row.capture.empty() ? "-" : row.capture,
               row.port == 0 ? "-" : std::string(1, row.port) + "-access"});
  }
  t.print(stdout,
          "1x4 * 4x4 GEMM on an H=2, L=1, P=1 instance (4 j-slots, 2 traversals)");

  std::printf(
      "\nReading the timeline (matches paper Fig. 2d):\n"
      "  - column 0 issues t0.j0..j3 with acc=0, column 1 follows P+1 = 2\n"
      "    cycles later consuming column 0's pipeline output;\n"
      "  - at t1.j0 column 0 shows `<-fb`: the feedback of the partial sums\n"
      "    emerging from the last column, closing the accumulation ring;\n"
      "  - Z captures appear at the last column's output during the final\n"
      "    traversal, one j-slot per cycle;\n"
      "  - the port column shows the Fig. 2c schedule: X preload first, the\n"
      "    W heartbeat during compute, the Z store drain at the end.\n");

  // Also verify the Fig. 2c cadence numerically on the default geometry.
  cluster::Cluster big;
  cluster::RedmuleDriver drv2(big);
  Xoshiro256 rng2(2);
  const auto xb = workloads::random_matrix(8, 32, rng2);
  const auto wb = workloads::random_matrix(32, 16, rng2);
  const uint32_t xba = drv2.place_matrix(xb);
  const uint32_t wba = drv2.place_matrix(wb);
  const uint32_t zba = drv2.alloc(8 * 16 * 2);
  std::map<char, unsigned> kinds;
  auto& rm2 = big.redmule();
  rm2.reg_write(core::kRegXPtr, xba);
  rm2.reg_write(core::kRegWPtr, wba);
  rm2.reg_write(core::kRegZPtr, zba);
  rm2.reg_write(core::kRegM, 8);
  rm2.reg_write(core::kRegN, 32);
  rm2.reg_write(core::kRegK, 16);
  rm2.reg_write(core::kRegTrigger, 0);
  while (rm2.busy()) {
    big.step();
    const char k = rm2.streamer().posted_kind();
    if (k != 0) ++kinds[k];
  }
  std::printf("\nPort access mix on 8x32x16 (default 32-FMA geometry):\n");
  for (const auto& [k, n] : kinds) std::printf("  %c accesses: %u\n", k, n);
  std::printf("Expected: W = n_chunks*H = 32 lines (one per P+1 = 4 compute\n"
              "cycles), X = 2 groups x 8 rows = 16, Z = 8 row stores.\n");
  return 0;
}
