// Unit tests for the discrete-event substrate: fibers, RNG, network timing,
// engine scheduling, determinism and deadlock detection.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"

namespace mpipred::sim {
namespace {

// ---------------------------------------------------------------- fibers --

/// Runs `fn` when destroyed: stands for whatever a fiber's frames own.
class OnDestroy {
 public:
  explicit OnDestroy(std::function<void()> fn) : fn_(std::move(fn)) {}
  OnDestroy(const OnDestroy&) = delete;
  OnDestroy& operator=(const OnDestroy&) = delete;
  ~OnDestroy() { fn_(); }

 private:
  std::function<void()> fn_;
};

TEST(Fiber, RunsBodyOnResume) {
  int calls = 0;
  Fiber f([&] { ++calls; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, MultipleYields) {
  int steps = 0;
  Fiber f([&] {
    for (int i = 0; i < 5; ++i) {
      ++steps;
      Fiber::yield();
    }
  });
  for (int i = 1; i <= 5; ++i) {
    f.resume();
    EXPECT_EQ(steps, i);
  }
  EXPECT_FALSE(f.finished());
  f.resume();  // body loop ends
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ExceptionPropagatesToResume) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ResumeAfterFinishThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), UsageError);
}

TEST(Fiber, DestroyUnfinishedFiberIsSafe) {
  auto f = std::make_unique<Fiber>([] { Fiber::yield(); });
  f->resume();
  f.reset();  // fiber never finished; must not crash or leak
}

TEST(Fiber, UnwindRunsDestructorsOnItsStack) {
  int destroyed = 0;
  bool ran_past_yield = false;
  Fiber f([&] {
    const OnDestroy outer([&] { ++destroyed; });
    [&] {
      const OnDestroy inner([&] { ++destroyed; });
      Fiber::yield();
    }();
    ran_past_yield = true;
  });
  f.resume();
  EXPECT_EQ(destroyed, 0);
  f.unwind();
  EXPECT_EQ(destroyed, 2);
  EXPECT_FALSE(ran_past_yield);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
  EXPECT_THROW(f.resume(), UsageError);
}

TEST(Fiber, UnwindFinishesBodiesThatCatchAndLeavesIdleFibersAlone) {
  // A body that swallows the unwinding cannot suspend again: its next
  // yield() throws too.
  int yields_returned = 0;
  Fiber swallows([&] {
    try {
      Fiber::yield();
      ++yields_returned;
    } catch (...) {
    }
    Fiber::yield();
    ++yields_returned;
  });
  swallows.resume();
  EXPECT_NO_THROW(swallows.unwind());
  EXPECT_TRUE(swallows.finished());
  EXPECT_EQ(yields_returned, 0);

  // What the body throws while unwinding is dropped.
  Fiber rethrows([] {
    try {
      Fiber::yield();
    } catch (...) {
      throw std::runtime_error("thrown while unwinding");
    }
  });
  rethrows.resume();
  EXPECT_NO_THROW(rethrows.unwind());
  EXPECT_TRUE(rethrows.finished());

  bool ran = false;
  Fiber never_started([&] { ran = true; });
  never_started.unwind();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(never_started.finished());
  never_started.resume();
  EXPECT_TRUE(ran);
  EXPECT_NO_THROW(never_started.unwind());
}

TEST(Fiber, NestedFibersResumeEachOther) {
  // Scheduler-level interleaving of two fibers.
  std::vector<int> order;
  Fiber a([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(4);
  });
  Fiber b([&] {
    order.push_back(2);
    Fiber::yield();
    order.push_back(5);
  });
  a.resume();
  b.resume();
  order.push_back(3);
  a.resume();
  b.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// 1/3 under the rounding mode in force; volatile so it is computed here.
double third() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  volatile double q = one / three;
  return q;
}

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  const double nearest = third();
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  double up_seen = 0.0;
  double down_seen = 0.0;
  Fiber up([&] {
    std::fesetround(FE_UPWARD);
    for (int i = 0; i < 3; ++i) {
      Fiber::yield();
      EXPECT_EQ(std::fegetround(), FE_UPWARD);
    }
    up_seen = third();
  });
  Fiber down([&] {
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);  // not the other fiber's mode
    std::fesetround(FE_DOWNWARD);
    for (int i = 0; i < 3; ++i) {
      Fiber::yield();
      EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
    }
    down_seen = third();
  });
  while (!up.finished() || !down.finished()) {
    if (!up.finished()) {
      up.resume();
      EXPECT_EQ(std::fegetround(), FE_TONEAREST);
      EXPECT_EQ(third(), nearest);
    }
    if (!down.finished()) {
      down.resume();
      EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    }
  }
  EXPECT_GT(up_seen, down_seen);
  EXPECT_TRUE(up_seen == nearest || down_seen == nearest);
}

// Keeps eight values live across a yield at every level, so they sit in
// callee-saved registers or in this frame while other code runs.
std::uint64_t deep_mix(int depth, std::uint64_t seed, bool yield) {
  const std::uint64_t a = seed * 0x9E3779B97F4A7C15ULL;
  const std::uint64_t b = a ^ (a >> 29);
  const std::uint64_t c = b * 0xBF58476D1CE4E5B9ULL;
  const std::uint64_t d = c ^ (c >> 31);
  const std::uint64_t e = d + static_cast<std::uint64_t>(depth);
  const double f = static_cast<double>(e % 1000) * 0.5;
  const double g = f * f + 1.0;
  const std::uint64_t h = a + b + c;
  if (yield) {
    Fiber::yield();
  }
  const std::uint64_t below = depth == 0 ? 0 : deep_mix(depth - 1, e, yield);
  if (yield) {
    Fiber::yield();
  }
  return below * 31 + (a ^ b) + (c ^ d) + e + static_cast<std::uint64_t>(f + g) + h;
}

TEST(Fiber, ValuesLiveAcrossYieldsSurviveDeepRecursion) {
  constexpr int kDepth = 300;
  std::uint64_t got_a = 0;
  std::uint64_t got_b = 0;
  Fiber a([&] { got_a = deep_mix(kDepth, 1, true); });
  Fiber b([&] { got_b = deep_mix(kDepth, 2, true); });
  while (!a.finished() || !b.finished()) {
    if (!a.finished()) {
      a.resume();
    }
    if (!b.finished()) {
      b.resume();
    }
  }
  EXPECT_EQ(got_a, deep_mix(kDepth, 1, false));
  EXPECT_EQ(got_b, deep_mix(kDepth, 2, false));
}

void throw_at_depth(int depth) {
  Fiber::yield();
  if (depth == 0) {
    throw std::runtime_error("deep");
  }
  throw_at_depth(depth - 1);
}

TEST(Fiber, ExceptionAfterYieldsFromDeepFrameReachesResume) {
  Fiber f([] { throw_at_depth(40); });
  for (int i = 0; i <= 40; ++i) {
    f.resume();
    ASSERT_FALSE(f.finished());
  }
  try {
    f.resume();
    FAIL() << "resume() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "deep");
  }
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, InterleavedFibersMatchSerialReference) {
  constexpr int kSteps = 60'000;  // 240k switches over both fibers
  const auto step = [](std::uint64_t x, int i) {
    return (x ^ static_cast<std::uint64_t>(i)) * 0x100000001B3ULL + 0xCBF29CE484222325ULL;
  };
  std::uint64_t want_a = 1;
  std::uint64_t want_b = 2;
  for (int i = 0; i < kSteps; ++i) {
    want_a = step(want_a, i);
    want_b = step(want_b, -i);
  }
  std::uint64_t got_a = 1;
  std::uint64_t got_b = 2;
  Fiber a([&] {
    std::uint64_t x = got_a;
    for (int i = 0; i < kSteps; ++i) {
      x = step(x, i);
      Fiber::yield();
    }
    got_a = x;
  });
  Fiber b([&] {
    std::uint64_t x = got_b;
    for (int i = 0; i < kSteps; ++i) {
      x = step(x, -i);
      Fiber::yield();
    }
    got_b = x;
  });
  while (!a.finished() || !b.finished()) {
    a.resume();
    b.resume();
  }
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowStaysInRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(11);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++seen[r.below(8)];
  }
  for (const int c : seen) {
    EXPECT_GT(c, 500);  // roughly uniform
  }
}

TEST(Rng, LognormalFactorHasUnitMean) {
  Rng r(13);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += r.lognormal_factor(0.3);
  }
  EXPECT_NEAR(sum / kN, 1.0, 0.01);
}

TEST(Rng, LognormalFactorZeroCvIsExactlyOne) {
  Rng r(13);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(r.lognormal_factor(0.0), 1.0);
  }
}

TEST(Rng, DeriveSeedSeparatesStreams) {
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

// --------------------------------------------------------------- network --

TEST(Network, BaseTimingWithoutNoise) {
  NetworkConfig cfg;
  cfg.send_overhead = SimTime{1000};
  cfg.recv_overhead = SimTime{500};
  cfg.latency = SimTime{10000};
  cfg.gap_ns_per_byte = 2.0;
  cfg.latency_jitter_cv = 0.0;
  Network net(2, cfg, 42);

  const auto t = net.plan_transfer(0, 1, 100, SimTime{0});
  EXPECT_EQ(t.sender_free, SimTime{1000});
  // xmit starts at 1000, takes 200, wire 10000, recv overhead 500.
  EXPECT_EQ(t.delivery, SimTime{1000 + 200 + 10000 + 500});
}

TEST(Network, SendNicSerializesBackToBackMessages) {
  NetworkConfig cfg;
  cfg.send_overhead = SimTime{0};
  cfg.recv_overhead = SimTime{0};
  cfg.latency = SimTime{0};
  cfg.gap_ns_per_byte = 1.0;
  Network net(3, cfg, 42);

  const auto a = net.plan_transfer(0, 1, 1000, SimTime{0});
  const auto b = net.plan_transfer(0, 2, 1000, SimTime{0});
  // Second transfer queues behind the first on the sender NIC.
  EXPECT_GE(b.delivery, a.delivery + SimTime{999});
}

TEST(Network, PerPairFifoHoldsUnderJitter) {
  NetworkConfig cfg;
  cfg.latency_jitter_cv = 1.5;  // violent jitter
  Network net(2, cfg, 7);

  SimTime last{0};
  for (int i = 0; i < 500; ++i) {
    const auto t = net.plan_transfer(0, 1, 64, SimTime{i * 10});
    EXPECT_GT(t.delivery, last);  // never overtakes
    last = t.delivery;
  }
}

TEST(Network, CrossSenderReorderingHappensUnderJitter) {
  NetworkConfig cfg;
  cfg.latency_jitter_cv = 1.0;
  Network net(3, cfg, 11);

  // Two senders to one receiver, planned in alternating order at identical
  // times; with jitter, arrival order sometimes inverts plan order.
  int inversions = 0;
  for (int i = 0; i < 200; ++i) {
    const auto a = net.plan_transfer(0, 2, 64, SimTime{i * 1000});
    const auto b = net.plan_transfer(1, 2, 64, SimTime{i * 1000});
    inversions += (b.delivery < a.delivery) ? 1 : 0;
  }
  EXPECT_GT(inversions, 10);
  EXPECT_LT(inversions, 190);
}

TEST(Network, RejectsBadArguments) {
  Network net(2, NetworkConfig{}, 1);
  EXPECT_THROW((void)net.plan_transfer(-1, 0, 10, SimTime{0}), UsageError);
  EXPECT_THROW((void)net.plan_transfer(0, 2, 10, SimTime{0}), UsageError);
  EXPECT_THROW((void)net.plan_transfer(0, 1, -5, SimTime{0}), UsageError);
}

// ---------------------------------------------------------------- engine --

TEST(Engine, RunsAllRanksToCompletion) {
  Engine eng(4);
  std::vector<int> ran(4, 0);
  eng.run([&](Rank& r) { ran[static_cast<std::size_t>(r.id())] = 1; });
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 4);
}

TEST(Engine, ComputeAdvancesSimulatedTime) {
  Engine eng(1);
  SimTime end{0};
  eng.run([&](Rank& r) {
    r.compute_exact(SimTime{5000});
    r.compute_exact(SimTime{2500});
    end = r.now();
  });
  EXPECT_EQ(end, SimTime{7500});
  EXPECT_EQ(eng.stats().final_time, SimTime{7500});
}

TEST(Engine, RanksAdvanceIndependently) {
  Engine eng(2);
  std::vector<SimTime> ends(2);
  eng.run([&](Rank& r) {
    r.compute_exact(SimTime{(r.id() + 1) * 1000});
    ends[static_cast<std::size_t>(r.id())] = r.now();
  });
  EXPECT_EQ(ends[0], SimTime{1000});
  EXPECT_EQ(ends[1], SimTime{2000});
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine eng(1);
  std::vector<int> order;
  eng.run([&](Rank& r) {
    r.engine().schedule(SimTime{300}, [&] { order.push_back(3); });
    r.engine().schedule(SimTime{100}, [&] { order.push_back(1); });
    r.engine().schedule(SimTime{200}, [&] { order.push_back(2); });
    r.compute_exact(SimTime{1000});
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsFireFifo) {
  Engine eng(1);
  std::vector<int> order;
  eng.run([&](Rank& r) {
    for (int i = 0; i < 10; ++i) {
      r.engine().schedule(SimTime{100}, [&order, i] { order.push_back(i); });
    }
    r.compute_exact(SimTime{1000});
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Engine, BlockUnblockRoundTrip) {
  Engine eng(2);
  bool flag = false;
  eng.run([&](Rank& r) {
    if (r.id() == 0) {
      while (!flag) {
        r.block("waiting for rank 1");
      }
    } else {
      r.compute_exact(SimTime{500});
      flag = true;
      r.engine().rank(0).unblock();
    }
  });
  EXPECT_TRUE(flag);
}

TEST(Engine, SpuriousUnblockDoesNotBreakCompute) {
  // compute_exact must survive being woken early by unrelated events.
  Engine eng(2);
  SimTime end{0};
  eng.run([&](Rank& r) {
    if (r.id() == 0) {
      r.compute_exact(SimTime{10000});
      end = r.now();
    } else {
      for (int i = 1; i <= 5; ++i) {
        r.engine().schedule(SimTime{i * 1000}, [&eng] { eng.rank(0).unblock(); });
      }
    }
  });
  EXPECT_EQ(end, SimTime{10000});
}

TEST(Engine, DeadlockIsDetectedAndDescribed) {
  Engine eng(2);
  try {
    eng.run([&](Rank& r) {
      if (r.id() == 0) {
        r.block("recv that never matches");
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("recv that never matches"), std::string::npos);
  }
}

TEST(Engine, RankExceptionPropagates) {
  Engine eng(2);
  EXPECT_THROW(eng.run([&](Rank& r) {
                 if (r.id() == 1) {
                   throw std::logic_error("rank failure");
                 }
               }),
               std::logic_error);
}

TEST(Engine, AbortedRunUnwindsBlockedRanks) {
  // A rank that throws and a deadlock both end the run; the ranks still
  // blocked are unwound, each as the current rank, before run() throws.
  for (const bool deadlock : {false, true}) {
    SCOPED_TRACE(deadlock ? "deadlock" : "rank exception");
    Engine eng(3);
    std::vector<int> unwound;  // current_rank() as each rank's frame died
    auto body = [&](Rank& r) {
      const OnDestroy record([&] { unwound.push_back(eng.current_rank()); });
      if (r.id() != 2) {
        r.block("never unblocked");
        return;
      }
      r.compute_exact(SimTime{10});
      if (!deadlock) {
        throw std::logic_error("rank failure");
      }
    };
    if (deadlock) {
      EXPECT_THROW(eng.run(body), DeadlockError);
    } else {
      EXPECT_THROW(eng.run(body), std::logic_error);
    }
    EXPECT_EQ(unwound, (std::vector<int>{2, 0, 1}));
    EXPECT_EQ(eng.current_rank(), -1);
  }
}

TEST(Engine, ComputeJitterChangesDurations) {
  EngineConfig cfg;
  cfg.network.compute_jitter_cv = 0.5;
  Engine eng(1, cfg);
  SimTime end{0};
  eng.run([&](Rank& r) {
    for (int i = 0; i < 100; ++i) {
      r.compute(SimTime{1000});
    }
    end = r.now();
  });
  EXPECT_NE(end, SimTime{100000});  // jitter moved it
  EXPECT_GT(end, SimTime{30000});   // but stayed sane
  EXPECT_LT(end, SimTime{400000});
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    EngineConfig cfg;
    cfg.seed = 99;
    cfg.network.compute_jitter_cv = 0.3;
    Engine eng(4, cfg);
    SimTime end{0};
    eng.run([&](Rank& r) {
      for (int i = 0; i < 50; ++i) {
        r.compute(SimTime{1000});
      }
      end = std::max(end, r.now());
    });
    return end;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, SeedChangesOutcome) {
  auto run_once = [](std::uint64_t seed) {
    EngineConfig cfg;
    cfg.seed = seed;
    cfg.network.compute_jitter_cv = 0.3;
    Engine eng(2, cfg);
    SimTime end{0};
    eng.run([&](Rank& r) {
      for (int i = 0; i < 50; ++i) {
        r.compute(SimTime{1000});
      }
      end = std::max(end, r.now());
    });
    return end;
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(Engine, CannotRunTwice) {
  Engine eng(1);
  eng.run([](Rank&) {});
  EXPECT_THROW(eng.run([](Rank&) {}), UsageError);
}

TEST(Engine, StatsCountEvents) {
  Engine eng(2);
  eng.run([](Rank& r) { r.compute_exact(SimTime{10}); });
  EXPECT_GT(eng.stats().events_processed, 0);
  EXPECT_GT(eng.stats().context_switches, 0);
}

}  // namespace
}  // namespace mpipred::sim
