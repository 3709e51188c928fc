// API v2 surface tests: typed Shared<T>/SharedArray access (multi-word
// atomicity), flat nesting join semantics, on_commit/on_abort exactly-once
// across retries and cancels, RetryPolicy exhaustion, and Runtime::stats()
// conservation on both backends including the adaptive scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/shrinktm.hpp"
#include "util/rng.hpp"

namespace shrinktm {
namespace {

constexpr core::BackendKind kBothBackends[] = {core::BackendKind::kTiny,
                                               core::BackendKind::kSwiss};

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("boom") {}
};

// ------------------------------------------------------------ Shared<T>

/// Three words wide: wide enough that a torn read is observable, small
/// enough that contention tests stay fast.
struct Vec3 {
  std::int64_t x = 0, y = 0, z = 0;
  bool uniform() const { return x == y && y == z; }
};
static_assert(api::Shared<Vec3>::kWords == 3 * sizeof(std::int64_t) /
                                               sizeof(stm::Word));

TEST(SharedTyped, MultiWordRoundTripAndUnsafeAccess) {
  for (auto backend : kBothBackends) {
    api::Runtime rt(api::RuntimeOptions{}.with_backend(backend));
    api::Shared<Vec3> v(Vec3{1, 2, 3});
    EXPECT_EQ(v.unsafe_read().y, 2);

    api::ThreadHandle th = rt.attach();
    const Vec3 got = atomically(th, [&](api::Tx& tx) {
      const Vec3 cur = tx.read(v);
      tx.write(v, Vec3{cur.x + 10, cur.y + 10, cur.z + 10});
      return tx.read(v);  // read-your-own-write, word-wise
    });
    EXPECT_EQ(got.x, 11);
    EXPECT_EQ(got.y, 12);
    EXPECT_EQ(got.z, 13);
    EXPECT_EQ(v.unsafe_read().z, 13);
  }
}

TEST(SharedTyped, OddSizedValueZeroPadsTailWord) {
  struct Odd {
    char bytes[11];
  };
  api::Shared<Odd> v;
  Odd o{};
  std::memcpy(o.bytes, "hello-world", 11);
  v.unsafe_write(o);
  EXPECT_EQ(std::memcmp(v.unsafe_read().bytes, "hello-world", 11), 0);
  static_assert(api::Shared<Odd>::kWords == 2);
}

TEST(SharedTyped, MultiWordAtomicityUnderContention) {
  // Writers store uniform Vec3s; any observed non-uniform value is a torn
  // multi-word read, which snapshot validation must make impossible.
  for (auto backend : kBothBackends) {
    api::Runtime rt(api::RuntimeOptions{}.with_backend(backend));
    api::Shared<Vec3> v(Vec3{0, 0, 0});
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> torn{0};
    constexpr int kWriters = 2;
    std::atomic<int> writers_committed{0};  // writers past their first commit

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        api::ThreadHandle th = rt.attach();
        const std::int64_t first = 1 + w * 1'000'000;
        for (std::int64_t i = first; !stop.load(std::memory_order_relaxed); ++i) {
          atomically(th, [&](api::Tx& tx) { tx.write(v, Vec3{i, i, i}); });
          if (i == first) writers_committed.fetch_add(1);
        }
      });
    }
    std::thread reader([&] {
      api::ThreadHandle th = rt.attach();
      // Start only once every writer has committed, so the reads overlap
      // concurrent multi-word writes instead of possibly preceding them all.
      while (writers_committed.load() < kWriters) std::this_thread::yield();
      for (int i = 0; i < 20'000; ++i) {
        const Vec3 got = atomically(th, [&](api::Tx& tx) { return tx.read(v); });
        if (!got.uniform()) torn.fetch_add(1);
      }
      stop.store(true, std::memory_order_relaxed);
    });
    reader.join();
    for (auto& t : writers) t.join();
    EXPECT_EQ(torn.load(), 0u)
        << core::backend_kind_name(backend) << ": torn multi-word reads";
    EXPECT_TRUE(v.unsafe_read().uniform());
  }
}

TEST(SharedTyped, SharedArrayElementsAreIndependent) {
  api::Runtime rt;
  api::SharedArray<Vec3, 4> arr;
  api::ThreadHandle th = rt.attach();
  atomically(th, [&](api::Tx& tx) {
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const auto k = static_cast<std::int64_t>(i);
      arr.write(tx, i, Vec3{k, k, k});
    }
  });
  const Vec3 two = atomically(
      th, [&](api::Tx& tx) { return tx.read(arr[2]); });  // operator[] spelling
  EXPECT_EQ(two.x, 2);
  for (std::size_t i = 0; i < arr.size(); ++i)
    EXPECT_EQ(arr.unsafe_read(i).z, static_cast<std::int64_t>(i));
}

// ------------------------------------------------------------ flat nesting

TEST(FlatNesting, NestedAtomicallyJoinsTheParentAttempt) {
  for (auto backend : kBothBackends) {
    api::Runtime rt(api::RuntimeOptions{}.with_backend(backend));
    api::TVar<std::int64_t> a(0), b(0);
    api::ThreadHandle th = rt.attach();

    const auto inner_result = atomically(th, [&](api::Tx& tx) {
      tx.write(a, 1);
      // A transactional helper that works standalone AND inside a larger
      // transaction: the nested call joins the live attempt.
      const auto r = atomically(th, [&](api::Tx& ntx) {
        ntx.write(b, tx.read(a) + 1);  // sees the parent's uncommitted write
        return ntx.read(b);
      });
      return r;
    });
    EXPECT_EQ(inner_result, 2);
    EXPECT_EQ(a.unsafe_read(), 1);
    EXPECT_EQ(b.unsafe_read(), 2);
    // Exactly ONE transaction committed: the join did not start a second.
    const auto stats = rt.stats();
    EXPECT_EQ(stats.commits, 1u) << core::backend_kind_name(backend);
    EXPECT_EQ(stats.attempts, 1u);
  }
}

TEST(FlatNesting, ImplicitHandleJoinsToo) {
  api::Runtime rt;
  api::TVar<int> v(0);
  rt.run([&](api::Tx& tx) {
    tx.write(v, 7);
    // Same thread, same runtime -> same implicit tid -> join.
    const int seen = rt.run([&](api::Tx& ntx) { return ntx.read(v); });
    EXPECT_EQ(seen, 7);
  });
  EXPECT_EQ(rt.stats().commits, 1u);
}

TEST(FlatNesting, NestedCancelRollsBackTheWholeTransaction) {
  api::Runtime rt;
  api::TVar<int> v(0);
  api::ThreadHandle th = rt.attach();
  EXPECT_THROW(atomically(th,
                          [&](api::Tx& tx) {
                            tx.write(v, 1);
                            atomically(th, [&](api::Tx&) { throw Boom(); });
                          }),
               Boom);
  EXPECT_EQ(v.unsafe_read(), 0) << "parent write must roll back with the join";
  const auto stats = rt.stats();
  EXPECT_EQ(stats.cancels, 1u);
  EXPECT_EQ(stats.commits, 0u);
}

// ----------------------------------------------------- deferred actions

TEST(DeferredActions, CommitActionFiresExactlyOnceAcrossRetries) {
  for (auto backend : kBothBackends) {
    api::Runtime rt(api::RuntimeOptions{}.with_backend(backend));
    api::TVar<int> v(0);
    api::ThreadHandle th = rt.attach();
    int commit_fires = 0, abort_fires = 0, attempts = 0;
    atomically(th, [&](api::Tx& tx) {
      tx.on_commit([&] { ++commit_fires; });
      tx.on_abort([&] { ++abort_fires; });
      tx.write(v, tx.read(v) + 1);
      if (++attempts < 3) tx.restart();  // two aborted attempts re-register
    });
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(commit_fires, 1) << "aborted attempts' registrations must be "
                                  "discarded, the committing one fires once";
    EXPECT_EQ(abort_fires, 0) << "conflict-retries are not definitive aborts";
    EXPECT_EQ(v.unsafe_read(), 1);
  }
}

TEST(DeferredActions, AbortActionFiresExactlyOnceOnUserCancel) {
  api::Runtime rt;
  api::TVar<int> v(0);
  api::ThreadHandle th = rt.attach();
  int commit_fires = 0, abort_fires = 0;
  EXPECT_THROW(atomically(th,
                          [&](api::Tx& tx) {
                            tx.write(v, 9);
                            tx.on_commit([&] { ++commit_fires; });
                            tx.on_abort([&] { ++abort_fires; });
                            throw Boom();
                          }),
               Boom);
  EXPECT_EQ(abort_fires, 1);
  EXPECT_EQ(commit_fires, 0);
  EXPECT_EQ(v.unsafe_read(), 0);
  // The handle stays usable; a fresh transaction has a clean action slate.
  atomically(th, [&](api::Tx& tx) { tx.write(v, 1); });
  EXPECT_EQ(abort_fires, 1);
  EXPECT_EQ(v.unsafe_read(), 1);
}

TEST(DeferredActions, NestedRegistrationsFireAtTopLevelCommitInOrder) {
  api::Runtime rt;
  api::ThreadHandle th = rt.attach();
  std::vector<std::string> order;
  atomically(th, [&](api::Tx& tx) {
    tx.on_commit([&] { order.push_back("outer-1"); });
    atomically(th, [&](api::Tx& ntx) {
      ntx.on_commit([&] { order.push_back("nested"); });
    });
    // The nested atomically() returned, but its action must NOT have fired
    // yet: it belongs to the top-level transaction.
    EXPECT_TRUE(order.empty());
    tx.on_commit([&] { order.push_back("outer-2"); });
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "outer-1");
  EXPECT_EQ(order[1], "nested");
  EXPECT_EQ(order[2], "outer-2");
}

TEST(DeferredActions, CommitActionMayStartAFreshTransaction) {
  api::Runtime rt;
  api::TVar<int> v(0);
  api::ThreadHandle th = rt.attach();
  atomically(th, [&](api::Tx& tx) {
    tx.write(v, 1);
    tx.on_commit([&] {
      // Runs after commit: the runner is idle again, so this is a new
      // top-level transaction, not a join.
      atomically(th, [&](api::Tx& ntx) { ntx.write(v, ntx.read(v) + 10); });
    });
  });
  EXPECT_EQ(v.unsafe_read(), 11);
  EXPECT_EQ(rt.stats().commits, 2u);
}

// ---------------------------------------------------------- retry policy

TEST(RetryPolicy, ExhaustionThrowsWithAttemptCount) {
  for (auto backend : kBothBackends) {
    api::Runtime rt(api::RuntimeOptions{}
                        .with_backend(backend)
                        .with_max_attempts(5));
    api::ThreadHandle th = rt.attach();
    int bodies = 0, abort_fires = 0;
    try {
      atomically(th, [&](api::Tx& tx) {
        ++bodies;
        tx.on_abort([&] { ++abort_fires; });
        tx.restart();  // never commits
      });
      FAIL() << "expected TxRetryExhausted";
    } catch (const api::TxRetryExhausted& e) {
      EXPECT_EQ(e.attempts(), 5u);
      EXPECT_EQ(e.tid(), th.tid());
      EXPECT_EQ(e.last_reason(), stm::AbortReason::kExplicit);
      EXPECT_NE(std::string(e.what()).find("5 attempts"), std::string::npos);
    }
    EXPECT_EQ(bodies, 5);
    EXPECT_EQ(abort_fires, 1) << "definitive rollback fires abort actions once";
    // The handle recovers: the next transaction starts with attempt 1.
    api::TVar<int> v(0);
    atomically(th, [&](api::Tx& tx) { tx.write(v, 1); });
    EXPECT_EQ(v.unsafe_read(), 1);
  }
}

TEST(RetryPolicy, BackoffHookReplacesBuiltInWaiting) {
  api::RetryPolicy policy;
  policy.max_attempts = 4;
  std::atomic<std::uint64_t> backoffs{0};
  std::vector<std::uint64_t> seen;
  std::mutex seen_mu;
  policy.backoff = [&](int, std::uint64_t attempt) {
    backoffs.fetch_add(1);
    std::lock_guard<std::mutex> g(seen_mu);
    seen.push_back(attempt);
  };
  api::Runtime rt(api::RuntimeOptions{}.with_retry(policy));
  api::ThreadHandle th = rt.attach();
  EXPECT_THROW(atomically(th, [&](api::Tx& tx) { tx.restart(); }),
               api::TxRetryExhausted);
  // 4 attempts -> 3 retries -> backoff between each retried pair.
  EXPECT_EQ(backoffs.load(), 3u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(RetryPolicy, UnboundedDefaultStillRetriesToCommit) {
  api::Runtime rt;  // default policy: retry forever
  api::ThreadHandle th = rt.attach();
  int attempts = 0;
  atomically(th, [&](api::Tx& tx) {
    if (++attempts < 20) tx.restart();
  });
  EXPECT_EQ(attempts, 20);
}

// ------------------------------------------------------- Runtime::stats()

TEST(RuntimeStats, ConservationOnBothBackendsUnderContention) {
  for (auto sched : {core::SchedulerKind::kNone, core::SchedulerKind::kShrink}) {
    for (auto backend : kBothBackends) {
      api::Runtime rt(
          api::RuntimeOptions{}.with_backend(backend).with_scheduler(sched));
      constexpr int kThreads = 4, kOps = 1500, kCells = 4;
      std::vector<api::TVar<std::int64_t>> cells(kCells);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          api::ThreadHandle th = rt.attach();
          util::Xoshiro256 rng(31 + t);
          for (int i = 0; i < kOps; ++i) {
            const auto a = rng.next_below(kCells);
            const auto b = rng.next_below(kCells);
            try {
              atomically(th, [&](api::Tx& tx) {
                tx.write(cells[a], tx.read(cells[a]) - 1);
                tx.write(cells[b], tx.read(cells[b]) + 1);
                if (i % 97 == 0) throw Boom();  // sprinkle user cancels
              });
            } catch (const Boom&) {
            }
          }
        });
      }
      for (auto& th : threads) th.join();

      const auto stats = rt.stats();
      EXPECT_TRUE(stats.conserved())
          << stats.attempts << " != " << stats.commits << " + " << stats.aborts
          << " + " << stats.cancels << " (" << core::backend_kind_name(backend)
          << "/" << core::scheduler_kind_name(sched) << ")";
      EXPECT_EQ(stats.cancels,
                static_cast<std::uint64_t>(kThreads) * ((kOps + 96) / 97));
      EXPECT_EQ(stats.commits,
                static_cast<std::uint64_t>(kThreads) * kOps - stats.cancels);
      EXPECT_EQ(stats.backend, core::backend_kind_name(backend));
      EXPECT_EQ(stats.scheduler, core::scheduler_kind_name(sched));

      // Per-thread rows sum to the totals.
      std::uint64_t sum_attempts = 0, sum_commits = 0, sum_aborts = 0,
                    sum_cancels = 0;
      for (const auto& t : stats.per_thread) {
        sum_attempts += t.attempts;
        sum_commits += t.commits;
        sum_aborts += t.aborts;
        sum_cancels += t.cancels;
      }
      EXPECT_EQ(sum_attempts, stats.attempts);
      EXPECT_EQ(sum_commits, stats.commits);
      EXPECT_EQ(sum_aborts, stats.aborts);
      EXPECT_EQ(sum_cancels, stats.cancels);
    }
  }
}

TEST(RuntimeStats, AdaptiveSnapshotCarriesRegimeAndWindows) {
  runtime::AdaptiveConfig cfg;
  cfg.sampler_interval_ms = 0.0;  // manual ticks
  cfg.telemetry_flush_every = 1;
  api::Runtime rt(api::RuntimeOptions{}
                      .with_backend(core::BackendKind::kSwiss)
                      .with_scheduler(core::SchedulerKind::kAdaptive)
                      .with_adaptive(cfg));
  api::TVar<std::int64_t> v(0);
  api::ThreadHandle th = rt.attach();
  for (int i = 0; i < 64; ++i)
    atomically(th, [&](api::Tx& tx) { tx.write(v, tx.read(v) + 1); });
  rt.adaptive()->quiesce_telemetry();
  rt.adaptive()->tick(true);

  const auto stats = rt.stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(stats.commits, 64u);
  ASSERT_TRUE(stats.adaptive.present);
  EXPECT_EQ(stats.adaptive.regime, "low");
  EXPECT_GE(stats.adaptive.windows_closed, 1u);
  std::uint64_t residency = 0;
  for (const auto w : stats.adaptive.residency_windows) residency += w;
  EXPECT_EQ(residency, stats.adaptive.windows_closed)
      << "residency must partition the closed windows";

  const std::string json = stats.to_json();
  for (const char* key :
       {"\"backend\":", "\"scheduler\":\"adaptive\"", "\"attempts\":",
        "\"commits\":64", "\"cancels\":", "\"conserved\":true",
        "\"per_thread\":", "\"adaptive\":", "\"residency_windows\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(RuntimeStats, ShrinkAccuracySurfacesWhenTracked) {
  api::Runtime rt(api::RuntimeOptions{}
                      .with_backend(core::BackendKind::kSwiss)
                      .with_scheduler(core::SchedulerKind::kShrink)
                      .with_track_accuracy());
  api::TVar<std::int64_t> hot(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      api::ThreadHandle th = rt.attach();
      for (int i = 0; i < 800; ++i)
        atomically(th, [&](api::Tx& tx) { tx.write(hot, tx.read(hot) + 1); });
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = rt.stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_EQ(hot.unsafe_read(), 4 * 800);
  // With every thread hammering one cell, Shrink sees aborts and records
  // prediction accuracy samples (tracked mode).
  if (stats.aborts > 0) {
    EXPECT_GE(stats.read_accuracy, 0.0);
    EXPECT_NE(stats.to_json().find("\"read_accuracy\":"), std::string::npos);
  }
}

}  // namespace
}  // namespace shrinktm
