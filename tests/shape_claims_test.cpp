/// The paper's evaluation claims, encoded as assertions so the reproduction
/// is continuously checked, not just eyeballed from benchmark tables:
///   * basic/addition peak TDD sizes grow exponentially on QFT and on the
///     gate-level Grover, while contraction stays (near-)linear;
///   * the addition partition halves the QFT operator peak;
///   * the method ranking contraction <= addition <= basic holds for peaks;
///   * the default engines reproduce exact rows of the committed
///     BENCH_table1.json / BENCH_table2.json.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qts/engine.hpp"
#include "qts/image.hpp"
#include "qts/workloads.hpp"

namespace qts {
namespace {

struct Peaks {
  std::size_t basic;
  std::size_t addition;
  std::size_t contraction;
};

Peaks measure(const std::function<TransitionSystem(tdd::Manager&)>& make) {
  Peaks p{};
  {
    tdd::Manager mgr;
    const auto sys = make(mgr);
    BasicImage c(mgr);
    (void)c.image(sys, sys.initial);
    p.basic = c.stats().peak_nodes;
  }
  {
    tdd::Manager mgr;
    const auto sys = make(mgr);
    AdditionImage c(mgr, 1);
    (void)c.image(sys, sys.initial);
    p.addition = c.stats().peak_nodes;
  }
  {
    tdd::Manager mgr;
    const auto sys = make(mgr);
    ContractionImage c(mgr, 4, 4);
    (void)c.image(sys, sys.initial);
    p.contraction = c.stats().peak_nodes;
  }
  return p;
}

TEST(ShapeClaims, QftBasicExplodesContractionLinear) {
  const auto p10 = measure([](tdd::Manager& m) { return make_qft_system(m, 10); });
  const auto p13 = measure([](tdd::Manager& m) { return make_qft_system(m, 13); });
  // Exponential basic: +3 qubits must grow the peak by at least 4x
  // (the observed factor is 8x).
  EXPECT_GE(p13.basic, 4 * p10.basic);
  // Addition partition halves the monolithic peak (one sliced index).
  EXPECT_LE(p13.addition, p13.basic / 2 + 64);
  // Contraction is at most linear with a small constant.
  EXPECT_LE(p13.contraction, 16 * 13u);
  EXPECT_LE(p13.contraction, p13.addition);
  EXPECT_LE(p13.addition, p13.basic);
}

TEST(ShapeClaims, GateLevelGroverBasicExplodesContractionFlat) {
  const auto p11 = measure([](tdd::Manager& m) { return make_grover_decomposed_system(m, 11); });
  const auto p15 = measure([](tdd::Manager& m) { return make_grover_decomposed_system(m, 15); });
  EXPECT_GE(p15.basic, 3 * p11.basic);          // exponential growth
  EXPECT_LE(p15.contraction, 32 * 15u);         // near-linear
  EXPECT_LE(p15.contraction, p15.basic / 10);   // the headline improvement
}

TEST(ShapeClaims, PrimitiveMcxGroverIsCompactForAllMethods) {
  // The encoding ablation's flip side: with hyperedge-primitive MCX no
  // method explodes — peaks stay linear in the width.
  const auto p15 = measure([](tdd::Manager& m) { return make_grover_system(m, 15); });
  EXPECT_LE(p15.basic, 16 * 15u);
  EXPECT_LE(p15.contraction, p15.basic);
}

TEST(ShapeClaims, BvLinearForAllMethods) {
  const auto p50 = measure([](tdd::Manager& m) { return make_bv_system(m, 50); });
  const auto p100 = measure([](tdd::Manager& m) { return make_bv_system(m, 100); });
  // Linear scaling: doubling the width at most ~doubles every peak.
  EXPECT_LE(p100.basic, 3 * p50.basic);
  EXPECT_LE(p100.addition, 3 * p50.addition);
  EXPECT_LE(p100.contraction, 3 * p50.contraction);
  EXPECT_LE(p100.contraction, p100.basic);
}

TEST(ShapeClaims, QrwContractionScalesToWideRegisters) {
  // Contraction handles QRW40 easily (the paper's basic/addition cannot go
  // past ~20 even on their hardware); peak stays near-linear.
  tdd::Manager mgr;
  const auto sys = make_qrw_system(mgr, 40, 0.1, true, 0);
  ContractionImage c(mgr, 4, 4);
  const Subspace img = c.image(sys, sys.initial);
  EXPECT_EQ(img.dim(), 1u);  // basis coin input: single-ray image
  EXPECT_LE(c.stats().peak_nodes, 32 * 40u);
}

/// One bench cell as bench_table1/bench_table2 run it: a fresh manager bound
/// to a fresh context, the registered engine for `spec`, one image T(S0).
std::size_t default_engine_peak(const std::function<TransitionSystem(tdd::Manager&)>& make,
                                const std::string& spec) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make(mgr);
  const auto engine = make_engine(mgr, spec, &ctx);
  (void)engine->image(sys, sys.initial);
  return ctx.stats().peak_nodes;
}

TEST(ShapeClaims, DefaultEnginesMatchCommittedTablePeaks) {
  // Exact peak_nodes of committed table rows, for each of the paper's three
  // engines.  The headline: under the paper's contraction order the QFT peak
  // stays linear in the width, while basic and addition grow exponentially.
  using Make = std::function<TransitionSystem(tdd::Manager&)>;
  const Make qft11 = [](tdd::Manager& m) { return make_qft_system(m, 11); };
  const Make grover11d = [](tdd::Manager& m) { return make_grover_decomposed_system(m, 11); };
  const Make qrw9 = [](tdd::Manager& m) { return make_qrw_system(m, 9, 0.1, true, 0); };
  struct Row {
    std::string bench_row;  // "<file> <row name>" of the committed record
    Make make;
    std::string spec;
    std::size_t peak;
  };
  const std::vector<Row> rows = {
      {"BENCH_table1 QFT11", qft11, "basic", 4094},
      {"BENCH_table1 QFT11", qft11, "addition:1", 2048},
      {"BENCH_table1 GroverD11", grover11d, "basic", 1060},
      {"BENCH_table1 GroverD11", grover11d, "addition:1", 1194},
      {"BENCH_table1 QRW9", qrw9, "basic", 86},
      {"BENCH_table1 QRW9", qrw9, "addition:1", 59},
      {"BENCH_table1 QFT15", [](tdd::Manager& m) { return make_qft_system(m, 15); },
       "contraction:4,4", 20},
      {"BENCH_table1 QFT30", [](tdd::Manager& m) { return make_qft_system(m, 30); },
       "contraction:4,4", 30},
      {"BENCH_table2 grover15d",
       [](tdd::Manager& m) { return make_grover_decomposed_system(m, 15); }, "contraction:1,1",
       57},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(default_engine_peak(row.make, row.spec), row.peak)
        << row.bench_row << "/" << row.spec;
  }
}

}  // namespace
}  // namespace qts
