// Application kernels: every app must (a) complete and verify at toy scale
// for all supported process counts, (b) produce message streams of the
// Table-1 shape (distinct senders/sizes, p2p vs collective split), and
// (c) yield bit-identical payload checksums across network-noise seeds —
// proving communication correctness is independent of message timing.

#include <gtest/gtest.h>

#include <set>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "common/error.hpp"
#include "mpi/world.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

namespace mpipred::apps {
namespace {

mpi::WorldConfig noisy_config(std::uint64_t seed) {
  mpi::WorldConfig cfg;
  cfg.engine.seed = seed;
  cfg.engine.network.latency_jitter_cv = 0.4;
  cfg.engine.network.compute_jitter_cv = 0.15;
  return cfg;
}

struct Case {
  std::string app;
  int nprocs;
};

class AppToy : public ::testing::TestWithParam<Case> {};

std::vector<Case> toy_cases() {
  std::vector<Case> cases;
  for (const AppInfo& info : all_apps()) {
    for (const int p : info.paper_proc_counts) {
      if (p <= 16) {  // keep the parameterized sweep quick
        cases.push_back({std::string(info.name), p});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Kernels, AppToy, ::testing::ValuesIn(toy_cases()),
                         [](const auto& info) {
                           return info.param.app + "_p" + std::to_string(info.param.nprocs);
                         });

TEST_P(AppToy, RunsAndVerifies) {
  const auto& [name, p] = GetParam();
  const AppInfo& info = find_app(name);
  ASSERT_TRUE(info.supports(p));
  mpi::World world(p, noisy_config(7));
  const AppConfig cfg{.problem_class = ProblemClass::Toy};
  const AppOutcome out = info.run(world, cfg);
  EXPECT_TRUE(out.verified) << name << " failed verification, metric=" << out.metric;
  EXPECT_EQ(out.nprocs, p);
  EXPECT_EQ(out.rank_checksums.size(), static_cast<std::size_t>(p));
}

TEST_P(AppToy, ChecksumsStableAcrossNoiseSeeds) {
  const auto& [name, p] = GetParam();
  const AppInfo& info = find_app(name);
  const AppConfig cfg{.problem_class = ProblemClass::Toy};

  mpi::World w1(p, noisy_config(11));
  mpi::World w2(p, noisy_config(999));
  const auto out1 = info.run(w1, cfg);
  const auto out2 = info.run(w2, cfg);
  EXPECT_EQ(out1.rank_checksums, out2.rank_checksums)
      << name << ": payload content depended on network noise";
}

TEST_P(AppToy, LogicalStreamIdenticalAcrossNoiseSeeds) {
  // The paper's premise: the logical level is a pure function of the
  // application. Two runs under different noise seeds must produce the
  // same logical streams (physical streams may differ).
  const auto& [name, p] = GetParam();
  const AppInfo& info = find_app(name);
  const AppConfig cfg{.problem_class = ProblemClass::Toy};

  mpi::World w1(p, noisy_config(1));
  mpi::World w2(p, noisy_config(2));
  (void)info.run(w1, cfg);
  (void)info.run(w2, cfg);
  for (int r = 0; r < p; ++r) {
    const auto s1 = trace::extract_streams(w1.traces(), r, trace::Level::Logical);
    const auto s2 = trace::extract_streams(w2.traces(), r, trace::Level::Logical);
    ASSERT_EQ(s1.senders, s2.senders) << name << " rank " << r;
    ASSERT_EQ(s1.sizes, s2.sizes) << name << " rank " << r;
  }
}

TEST_P(AppToy, PhysicalAndLogicalHaveSameMultiset) {
  // Reordering never loses or duplicates messages: per rank, the multiset
  // of (sender, size) must agree between levels.
  const auto& [name, p] = GetParam();
  const AppInfo& info = find_app(name);
  mpi::World world(p, noisy_config(5));
  (void)info.run(world, AppConfig{.problem_class = ProblemClass::Toy});
  for (int r = 0; r < p; ++r) {
    auto l = trace::extract_streams(world.traces(), r, trace::Level::Logical);
    auto ph = trace::extract_streams(world.traces(), r, trace::Level::Physical);
    ASSERT_EQ(l.senders.size(), ph.senders.size()) << name << " rank " << r;
    std::multiset<std::pair<std::int64_t, std::int64_t>> ml;
    std::multiset<std::pair<std::int64_t, std::int64_t>> mp;
    for (std::size_t i = 0; i < l.senders.size(); ++i) {
      ml.emplace(l.senders[i], l.sizes[i]);
      mp.emplace(ph.senders[i], ph.sizes[i]);
    }
    ASSERT_EQ(ml, mp) << name << " rank " << r;
  }
}

// ------------------------------------------------- Table 1 shape checks --

TEST(BtShape, MessageCountsMatchFormula) {
  // BT receives 6 + 6(q-1) point-to-point messages per iteration.
  for (const int p : {4, 9}) {
    const int q = (p == 4) ? 2 : 3;
    const int iters = 5;
    mpi::World world(p);
    const auto out =
        run_bt(world, AppConfig{.problem_class = ProblemClass::Toy, .iterations_override = iters});
    ASSERT_TRUE(out.verified);
    const auto summary = trace::summarize_rank(world.traces(), 1, trace::Level::Logical);
    EXPECT_EQ(summary.p2p_msgs, iters * (6 + 6 * (q - 1))) << "p=" << p;
  }
}

TEST(BtShape, ThreeDistinctSizesAndFewSenders) {
  mpi::World world(9);
  (void)run_bt(world, AppConfig{.problem_class = ProblemClass::Toy, .iterations_override = 4});
  const auto summary = trace::summarize_rank(world.traces(), 3, trace::Level::Logical);
  // 3 p2p sizes (+1 for the bcast payload size in the combined stream).
  EXPECT_GE(summary.distinct_sizes, 3);
  EXPECT_LE(summary.distinct_sizes, 5);
  EXPECT_GE(summary.distinct_senders, 5);
  EXPECT_LE(summary.distinct_senders, 7);
}

TEST(BtShape, SenderPeriodMatchesFigure1) {
  // Figure 1: at 9 processes the sender stream of rank 3 repeats every 18
  // messages (per iteration: 6 faces + 6*(3-1) pipeline).
  mpi::World world(9);
  (void)run_bt(world, AppConfig{.problem_class = ProblemClass::Toy, .iterations_override = 6});
  const auto streams = trace::extract_streams(world.traces(), 3, trace::Level::Logical,
                                              {.kind = trace::OpKind::PointToPoint});
  ASSERT_GE(streams.senders.size(), 36u);
  for (std::size_t i = 0; i + 18 < streams.senders.size(); ++i) {
    ASSERT_EQ(streams.senders[i], streams.senders[i + 18]) << "at index " << i;
    ASSERT_EQ(streams.sizes[i], streams.sizes[i + 18]) << "at index " << i;
  }
}

TEST(CgShape, PointToPointOnlyAndTwoFrequentSizes) {
  mpi::World world(4);
  const auto out = run_cg(world, AppConfig{.problem_class = ProblemClass::Toy});
  ASSERT_TRUE(out.verified);
  const int rep = trace::representative_rank(world.traces(), trace::Level::Logical);
  const auto summary = trace::summarize_rank(world.traces(), rep, trace::Level::Logical);
  EXPECT_EQ(summary.coll_msgs, 0) << "CG must be pure point-to-point (Table 1)";
  EXPECT_GT(summary.p2p_msgs, 0);
  EXPECT_EQ(summary.frequent_sizes, 2);  // vector chunk + 8-byte scalar
  EXPECT_LE(summary.distinct_senders, 3);
}

TEST(CgShape, ResidualDropsAtScale) {
  for (const int p : {4, 8, 16}) {
    mpi::World world(p);
    const auto out =
        run_cg(world, AppConfig{.problem_class = ProblemClass::S, .iterations_override = 2});
    EXPECT_TRUE(out.verified) << "p=" << p << " final residual " << out.metric;
  }
}

TEST(CgShape, RectangularGridsMatchReference) {
  // npcols = 2 * nprows on 8 and 32 ranks, so most blocks lie off the band:
  // pins the host matvec's edge handling bit for bit.
  struct Reference {
    int p;
    std::uint64_t checksum;
    double final_residual;
  };
  for (const Reference& ref : {Reference{8, 0x6a8ff4d59b08b06a, 0x1.83db3c8481454p-69},
                               Reference{32, 0xc14c5c5c623c96a3, 0x1.83db3c815a532p-69}}) {
    mpi::World world(ref.p);
    const auto out = run_cg(world, AppConfig{.problem_class = ProblemClass::S});
    EXPECT_TRUE(out.verified) << "p=" << ref.p;
    EXPECT_EQ(out.combined_checksum(), ref.checksum)
        << "p=" << ref.p << " checksum 0x" << std::hex << out.combined_checksum();
    EXPECT_EQ(out.metric, ref.final_residual)
        << "p=" << ref.p << " final residual " << std::hexfloat << out.metric;
  }
}

TEST(LuShape, TwoFrequentSendersForEdgeRanks) {
  mpi::World world(4);
  (void)run_lu(world, AppConfig{.problem_class = ProblemClass::Toy});
  // Rank 0 sits in the grid corner: upstream of blts it has nobody, so its
  // receives come from its south/east neighbors in buts plus exchange_3.
  const auto summary = trace::summarize_rank(world.traces(), 0, trace::Level::Logical);
  EXPECT_GE(summary.distinct_senders, 2);
  EXPECT_LE(summary.distinct_senders, 3);
  EXPECT_GE(summary.distinct_sizes, 2);
}

TEST(LuShape, PipelineDominatedByPointToPoint) {
  mpi::World world(4);
  (void)run_lu(world, AppConfig{.problem_class = ProblemClass::Toy, .iterations_override = 25});
  const auto summary = trace::summarize_rank(world.traces(), 3, trace::Level::Logical);
  EXPECT_GT(summary.p2p_msgs, 10 * summary.coll_msgs);
}

TEST(IsShape, CollectiveDominatedWithElevenP2P) {
  mpi::World world(4);
  const auto out =
      run_is(world, AppConfig{.problem_class = ProblemClass::Toy, .iterations_override = 10});
  ASSERT_TRUE(out.verified);
  // 10+1 ranking passes, one boundary message each: Table 1's 11 p2p
  // messages (rank 0 has no left neighbor; check a middle rank).
  const auto summary = trace::summarize_rank(world.traces(), 2, trace::Level::Logical);
  EXPECT_EQ(summary.p2p_msgs, 11);
  EXPECT_GT(summary.coll_msgs, summary.p2p_msgs);
}

TEST(IsShape, SortsGloballyAndConservesKeys) {
  for (const int p : {4, 8}) {
    mpi::World world(p, noisy_config(3));
    const auto out = run_is(world, AppConfig{.problem_class = ProblemClass::S});
    EXPECT_TRUE(out.verified) << "p=" << p << " violations=" << out.metric;
  }
}

TEST(SweepShape, TwoFrequentSizesAndFewSenders) {
  mpi::World world(6);
  const auto out = run_sweep3d(world, AppConfig{.problem_class = ProblemClass::Toy});
  ASSERT_TRUE(out.verified);
  const int rep = trace::representative_rank(world.traces(), trace::Level::Logical);
  // Characterize the sweep traffic itself (Table 1's sender/size columns
  // reflect the dominant point-to-point stream).
  const auto streams = trace::extract_streams(world.traces(), rep, trace::Level::Logical,
                                              {.kind = trace::OpKind::PointToPoint});
  std::set<std::int64_t> senders(streams.senders.begin(), streams.senders.end());
  std::set<std::int64_t> sizes(streams.sizes.begin(), streams.sizes.end());
  EXPECT_GE(senders.size(), 2u);
  EXPECT_LE(senders.size(), 4u);
  EXPECT_GE(sizes.size(), 1u);
  EXPECT_LE(sizes.size(), 3u);
}

TEST(SweepShape, OctantSweepsTouchAllNeighbors) {
  mpi::World world(6);
  (void)run_sweep3d(world, AppConfig{.problem_class = ProblemClass::Toy});
  // An interior rank of the 2x3 grid receives from several neighbors over
  // the eight octants.
  const auto hist = trace::sender_histogram(world.traces(), 1, trace::Level::Logical);
  EXPECT_GE(hist.size(), 3u);
}

TEST(Registry, ExposesAllFiveApps) {
  EXPECT_EQ(all_apps().size(), 5u);
  EXPECT_EQ(find_app("bt").paper_proc_counts, (std::vector<int>{4, 9, 16, 25}));
  EXPECT_EQ(find_app("sweep3d").paper_proc_counts, (std::vector<int>{6, 16, 32}));
  EXPECT_THROW((void)find_app("ft"), UsageError);
}

TEST(Registry, SupportsChecksAreConsistent) {
  EXPECT_TRUE(bt_supports(25));
  EXPECT_FALSE(bt_supports(8));
  EXPECT_TRUE(cg_supports(32));
  EXPECT_FALSE(cg_supports(6));
  EXPECT_TRUE(sweep3d_supports(6));
}

}  // namespace
}  // namespace mpipred::apps
