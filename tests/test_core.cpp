// Core utilities: units, clock domains, RNG, thread pool, error macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/random.hpp"
#include "core/simtime.hpp"
#include "core/units.hpp"

namespace citl {
namespace {

TEST(Units, DegreeRadianRoundTrip) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi / 2.0), 90.0);
  for (double d : {-720.0, -33.3, 0.0, 8.0, 123.456}) {
    EXPECT_NEAR(rad_to_deg(deg_to_rad(d)), d, 1e-12);
  }
}

TEST(Units, WrapAngleRange) {
  for (double a = -25.0; a < 25.0; a += 0.37) {
    const double w = wrap_angle(a);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    // Same angle modulo 2π.
    EXPECT_NEAR(std::sin(w), std::sin(a), 1e-12);
    EXPECT_NEAR(std::cos(w), std::cos(a), 1e-12);
  }
}

TEST(Units, PhysicalConstants) {
  EXPECT_DOUBLE_EQ(kSpeedOfLight, 299'792'458.0);
  // Proton mass ≈ 1.00728 u.
  EXPECT_NEAR(kProtonMassEv / kAtomicMassUnitEv, 1.00728, 1e-4);
}

TEST(ClockDomain, TickSecondConversions) {
  const ClockDomain clk(250.0e6);
  EXPECT_DOUBLE_EQ(clk.period_s(), 4.0e-9);
  EXPECT_EQ(clk.to_ticks(1.0e-6), 250);
  EXPECT_DOUBLE_EQ(clk.to_seconds(250), 1.0e-6);
  // Round-to-nearest vs floor.
  EXPECT_EQ(clk.to_ticks(9.9e-9), 2);
  EXPECT_EQ(clk.floor_ticks(9.9e-9), 2);
  EXPECT_EQ(clk.to_ticks(5.9e-9), 1);
  EXPECT_EQ(clk.floor_ticks(7.9e-9), 1);
}

TEST(ClockDomain, PaperClockRates) {
  EXPECT_DOUBLE_EQ(kSampleClock.frequency_hz(), 250.0e6);
  EXPECT_DOUBLE_EQ(kCgraClock.frequency_hz(), 111.0e6);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    all_equal &= (va == b.next_u64());
    any_diff |= (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng r(42);
  const int n = 200'000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, GaussianScaled) {
  Rng r(9);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += r.gaussian(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split(0);
  Rng c = a.split(1);
  // Streams differ from each other.
  int same_bc = 0;
  for (int i = 0; i < 64; ++i) {
    if (b.next_u64() == c.next_u64()) ++same_bc;
  }
  EXPECT_EQ(same_bc, 0);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingletonRanges) {
  ThreadPool pool(3);
  int count = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ChunkVariantPartitionsRange) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(0, 103, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::size_t total = 0;
  for (auto [lo, hi] : chunks) {
    EXPECT_LT(lo, hi);
    total += hi - lo;
  }
  EXPECT_EQ(total, 103u);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 50) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool must stay usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(0, 10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, ExceptionRethrownExactlyOnceAndPoolReusable) {
  ThreadPool pool(4);
  // Many chunks throw, yet the caller must observe exactly one exception —
  // not one per worker, and none may leak to std::terminate.
  int caught = 0;
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(0, 400, [&](std::size_t i) {
        if (i % 7 == 0) throw std::runtime_error("chunk failure");
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error&) {
      ++caught;
    }
    // Immediately reusable after the failed job.
    std::atomic<int> n{0};
    pool.parallel_for(0, 64, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 64);
  }
  EXPECT_EQ(caught, 20);
}

TEST(ThreadPool, CallerChunkThrowAlsoRethrownOnce) {
  ThreadPool pool(3);
  // Chunk 0 runs on the calling thread; its exception takes the same
  // first_error_ path as worker exceptions and must not bypass the join.
  int caught = 0;
  try {
    pool.parallel_for(0, 90, [&](std::size_t i) {
      if (i == 0) throw std::logic_error("caller chunk");
    });
  } catch (const std::logic_error&) {
    ++caught;
  }
  EXPECT_EQ(caught, 1);
  std::atomic<int> n{0};
  pool.parallel_for(0, 90, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 90);
}

TEST(ThreadPool, ConcurrentSubmittersSerialisedWithoutHang) {
  // Before submissions were serialised, two threads submitting at once would
  // overwrite job_/pending_ and one caller could wait on cv_done_ forever.
  ThreadPool pool(2);
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 25;
  std::vector<long> sums(kSubmitters, 0);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<long> sum{0};
        pool.parallel_for(0, 200, [&](std::size_t i) {
          sum.fetch_add(static_cast<long>(i));
        });
        sums[static_cast<std::size_t>(s)] += sum.load();
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (long s : sums) EXPECT_EQ(s, kRounds * 19'900L);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, BackToBackJobsThenImmediateDestroy) {
  // Jobs submitted while the workers still spin from the previous one, then
  // pools destroyed right after their one job, while their workers spin.
  ThreadPool pool(3);
  for (int job = 0; job < 10'000; ++job) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 6, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i) + job);
    });
    ASSERT_EQ(sum.load(), 15 + 6L * job) << "job " << job;
  }
  for (int p = 0; p < 100; ++p) {
    ThreadPool short_lived(2);
    std::atomic<int> ran{0};
    short_lived.parallel_for(0, 2, [&](std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 2) << "pool " << p;
  }
}

TEST(ThreadPool, GlobalPoolSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ErrorMacros, CheckThrowsLogicErrorWithContext) {
  EXPECT_NO_THROW(CITL_CHECK(1 + 1 == 2));
  try {
    CITL_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

TEST(ErrorMacros, CompileErrorCarriesLocation) {
  const CompileError e("bad token", 3, 14);
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 14);
  EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
}

}  // namespace
}  // namespace citl
