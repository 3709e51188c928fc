// SwissBackend: a SwissTM-style word-based STM.
//
// Design points reproduced from SwissTM (Dragojevic, Guerraoui, Kapalka --
// "Stretching transactional memory", PLDI'09):
//   * two locks per ownership record: a write lock acquired eagerly at the
//     first write (eager write/write conflict detection) and a read-version
//     word validated lazily (lazy read/write conflict detection),
//   * write-back redo logging,
//   * time-based snapshots with incremental extension,
//   * a two-phase contention manager: transactions are "timid" (abort self
//     and back off) until they have performed `greedy_write_threshold`
//     writes, after which they hold a greedy ticket; on a write/write
//     conflict the older ticket wins and may remotely kill the enemy,
//   * configurable waiting: preemptive (default, §4.1) or busy (appendix).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "stm/clock.hpp"
#include "stm/config.hpp"
#include "stm/hooks.hpp"
#include "stm/raw.hpp"
#include "stm/stats.hpp"
#include "stm/tx_sets.hpp"
#include "stm/wakeup.hpp"
#include "stm/word.hpp"
#include "util/epoch.hpp"
#include "util/spin.hpp"

namespace shrinktm::stm {

class SwissTx;

class SwissBackend final : public WriteOracle {
 public:
  using Tx = SwissTx;
  static constexpr const char* kName = "swiss";

  /// Ownership record with split write-lock / read-version words.
  /// wlock: 0 = free, otherwise owning SwissTx* | 1.
  /// rver:  even = committed version<<1, odd (kCommitMarker) = a committer
  ///        is writing back; readers briefly spin.
  struct Orec {
    std::atomic<std::uint64_t> wlock{0};
    std::atomic<std::uint64_t> rver{0};
  };
  static constexpr std::uint64_t kCommitMarker = 1;

  explicit SwissBackend(StmConfig cfg = StmConfig{});
  SwissBackend(const SwissBackend&) = delete;
  SwissBackend& operator=(const SwissBackend&) = delete;
  ~SwissBackend();

  SwissTx& tx(int tid);

  Orec& orec_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return orecs_[((a >> 3) ^ (a >> (3 + log2_orecs_))) & orec_mask_];
  }

  // WriteOracle
  bool is_write_locked_by_other(const void* addr, int self_tid) const override;

  GlobalClock& clock() { return clock_; }
  util::EpochReclaimer& reclaimer() { return reclaimer_; }
  const StmConfig& config() const { return cfg_; }

  /// Composable-blocking rendezvous: writing commits publish their orec set
  /// here; tx.retry() waiters sleep on it (see stm/wakeup.hpp).
  WaitTable& wait_table() { return wait_table_; }
  const WaitTable& wait_table() const { return wait_table_; }

  ThreadStats aggregate_stats() const;
  /// Per-tid snapshots for every descriptor created so far, as (tid, stats)
  /// pairs in tid order (see TinyBackend::per_thread_stats).
  std::vector<std::pair<int, ThreadStats>> per_thread_stats() const;
  void reset_stats();

  static constexpr bool kBackendHasKill = true;

 private:
  friend class SwissTx;

  StmConfig cfg_;
  unsigned log2_orecs_;
  std::uint64_t orec_mask_;
  std::vector<Orec> orecs_;
  GlobalClock clock_;
  WaitTable wait_table_;
  alignas(util::kCacheLine) std::atomic<std::uint64_t> greedy_counter_{0};
  util::EpochReclaimer reclaimer_;
  mutable std::mutex reg_mutex_;
  std::vector<std::unique_ptr<SwissTx>> descs_;
};

class SwissTx {
 public:
  static constexpr std::uint64_t kNoTicket = ~std::uint64_t{0};

  SwissTx(SwissBackend& backend, int tid);
  ~SwissTx();
  SwissTx(const SwissTx&) = delete;
  SwissTx& operator=(const SwissTx&) = delete;

  int tid() const { return tid_; }
  util::WaitPolicy wait_policy() const { return backend_.config().wait_policy; }
  void set_scheduler(SchedulerHooks* hooks);

  void start();
  Word load(const Word* addr);
  void store(Word* addr, Word value);
  void commit();

  void* tx_alloc(std::size_t bytes);
  void tx_free(void* p);
  [[noreturn]] void restart();
  /// Roll back the current attempt as a user cancel (no abort recorded).
  void cancel();
  /// tx.retry() service: roll back as a retry-wait, arm the WaitTable on
  /// the attempt's read set, block until a commit overwrites it (see
  /// TinyTx::retry_wait -- identical contract, including the timed
  /// tx.retry_for bound when timeout_ns >= 0).
  void retry_wait(std::int64_t timeout_ns = -1);
  /// See TinyTx::retry_timed_out -- same sticky-until-next-run contract.
  bool retry_timed_out() const { return retry_timed_out_; }
  void clear_retry_timeout() { retry_timed_out_ = false; }
  void request_kill(int killer_tid);

  std::span<void* const> last_write_addrs() const { return last_write_addrs_; }
  ThreadStats& stats() { return stats_; }
  const ThreadStats& stats() const { return stats_; }
  bool in_tx() const { return active_; }
  /// See TinyTx::set_pre_extend_hook (test-only).
  void set_pre_extend_hook(std::function<void()> hook) {
    pre_extend_hook_ = std::move(hook);
  }
  std::uint64_t greedy_ticket() const {
    return ticket_.load(std::memory_order_acquire);
  }

 private:
  friend class SwissBackend;

  enum : std::uint32_t { kIdle = 0, kRunning = 1, kKilled = 2 };

  using Orec = SwissBackend::Orec;
  struct LockedOrec {
    Orec* orec;
    std::uint64_t prelock_rver;  ///< rver frozen while we hold the wlock
  };

  static SwissTx* owner_of(std::uint64_t word) {
    return reinterpret_cast<SwissTx*>(word & ~std::uint64_t{1});
  }
  std::uint64_t my_lock_word() const {
    return reinterpret_cast<std::uint64_t>(this) | 1;
  }

  void check_killed();
  bool validate(bool during_commit);
  void extend_or_die();
  std::uint64_t self_locked_rver(const Orec* o) const;
  /// Two-phase CM decision on a write/write conflict; either throws
  /// (self-abort) or returns after the enemy released the lock.
  void resolve_write_conflict(Orec& o, SwissTx* enemy);
  [[noreturn]] void die(AbortReason reason, int enemy_tid);
  void release_write_locks();
  void finish(bool committed);

  SwissBackend& backend_;
  const int tid_;
  const int epoch_slot_;
  SchedulerHooks* sched_ = nullptr;
  bool read_hook_ = false;
  bool write_hook_ = false;
  bool active_ = false;
  bool retry_timed_out_ = false;  ///< last retry_wait expired (tx.retry_for)
  bool commit_locking_ = false;  ///< rver markers currently set by us
  std::uint64_t rv_ = 0;
  std::atomic<std::uint32_t> status_{kIdle};
  std::atomic<int> killer_tid_{-1};
  std::atomic<std::uint64_t> ticket_{kNoTicket};  ///< persists across retries

  std::vector<ReadEntry<Orec>> read_set_;
  WriteLog<Orec> wlog_;
  std::vector<LockedOrec> locked_orecs_;
  std::vector<void*> allocs_;
  std::vector<void*> frees_;
  std::vector<void*> last_write_addrs_;
  std::vector<WaitTable::Ticket> wait_set_;  ///< retry_wait() tickets
  ThreadStats stats_;
  std::function<void()> pre_extend_hook_;  ///< test-only, see setter
};

}  // namespace shrinktm::stm
