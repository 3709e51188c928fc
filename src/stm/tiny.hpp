// TinyBackend: a TinySTM-style word-based STM.
//
// Design points reproduced from TinySTM 0.9.5 (Riegel, Fetzer, Felber --
// "Time-based transactional memory with scalable time bases", SPAA'07),
// because the paper's §4.2 behaviour depends on them:
//   * encounter-time (eager) write locking,
//   * write-back redo logging,
//   * a global time base with incremental snapshot extension (LSA),
//   * suicide contention management: on any lock conflict the transaction
//     aborts itself and immediately retries,
//   * busy waiting by default.
// Eager locking + suicide + busy waiting are exactly what makes the base
// system collapse when overloaded (paper Figures 8, 10, 11); Shrink then
// rescues it.
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

class TinyTx;

/// Shared state of a TinySTM-style runtime: the orec table, the global
/// clock, per-thread descriptors, and the epoch reclaimer.
class TinyBackend final : public WriteOracle {
 public:
  using Tx = TinyTx;
  static constexpr const char* kName = "tiny";

  /// One ownership record.  Even value = version<<1; odd value = locked,
  /// upper bits are the owning TinyTx*.
  struct Orec {
    std::atomic<std::uint64_t> word{0};
  };

  explicit TinyBackend(StmConfig cfg = default_config());

  /// TinySTM defaults to busy waiting; make that the backend default too.
  static StmConfig default_config() {
    StmConfig cfg;
    cfg.wait_policy = util::WaitPolicy::kBusy;
    return cfg;
  }

  TinyBackend(const TinyBackend&) = delete;
  TinyBackend& operator=(const TinyBackend&) = delete;
  ~TinyBackend();

  /// Descriptor for thread `tid` (created on first use; thread-safe).
  TinyTx& tx(int tid);

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

  /// Sum of all registered threads' statistics.
  ThreadStats aggregate_stats() const;
  /// Per-tid snapshots for every descriptor created so far, as (tid, stats)
  /// pairs in tid order.  Read while threads run is racy-but-benign (plain
  /// counter loads); read quiescent for exact conservation.
  std::vector<std::pair<int, ThreadStats>> per_thread_stats() const;
  /// Reset all registered threads' statistics (between measurement phases).
  void reset_stats();

  static constexpr bool kBackendHasKill = false;  ///< suicide CM never kills

 private:
  friend class TinyTx;

  StmConfig cfg_;
  unsigned log2_orecs_;
  std::uint64_t orec_mask_;
  std::vector<Orec> orecs_;
  GlobalClock clock_;
  WaitTable wait_table_;
  util::EpochReclaimer reclaimer_;
  mutable std::mutex reg_mutex_;
  std::vector<std::unique_ptr<TinyTx>> descs_;
};

/// Per-thread transaction descriptor.  Not thread-safe: exactly one thread
/// drives each descriptor (the usual STM contract).
class TinyTx {
 public:
  TinyTx(TinyBackend& backend, int tid);
  ~TinyTx();

  TinyTx(const TinyTx&) = delete;
  TinyTx& operator=(const TinyTx&) = delete;

  int tid() const { return tid_; }
  util::WaitPolicy wait_policy() const { return backend_.config().wait_policy; }

  /// Install scheduler callbacks (read hook is cached for the fast path).
  void set_scheduler(SchedulerHooks* hooks);

  void start();
  Word load(const Word* addr);
  void store(Word* addr, Word value);
  void commit();  ///< throws TxConflict if the attempt must be retried

  /// Transactional allocation: undone on abort; frees deferred to commit
  /// and routed through epoch reclamation.
  void* tx_alloc(std::size_t bytes);
  void tx_free(void* p);

  /// User-requested restart of the current attempt.
  [[noreturn]] void restart();

  /// Roll back the current attempt because the user abandoned the
  /// transaction (a non-conflict exception escaped the body).  Counts as a
  /// cancel, not an abort, and does not throw.
  void cancel();

  /// tx.retry() service (called by the runner after on_retry_block): rolls
  /// the attempt back as a retry-wait (neither abort nor cancel), arms the
  /// backend's WaitTable with tickets for the attempt's read set, and --
  /// unless a commit already invalidated that read set -- blocks until one
  /// does.  With timeout_ns >= 0 (tx.retry_for) the park is bounded: on
  /// expiry the descriptor returns with retry_timed_out() set (and counts a
  /// retry_timeouts stat) so the re-executed body can observe the timeout.
  /// Throws std::logic_error if the read set is empty (nothing could ever
  /// wake the sleeper).  On return the descriptor is idle and the runner
  /// re-executes the body.
  void retry_wait(std::int64_t timeout_ns = -1);

  /// Whether the most recent retry_wait() on this descriptor expired its
  /// tx.retry_for bound instead of being woken.  Sticky until the next
  /// top-level transaction (TxRunner::run clears it), so the re-executed
  /// body -- and any conflict-retries of it -- can test api::Tx::timed_out.
  bool retry_timed_out() const { return retry_timed_out_; }
  void clear_retry_timeout() { retry_timed_out_ = false; }

  /// Cooperative remote abort (used by contention managers / tests).
  void request_kill(int killer_tid);

  /// Write addresses of the most recently aborted attempt (valid until the
  /// next start()); source of Shrink's write-set prediction.
  std::span<void* const> last_write_addrs() const { return last_write_addrs_; }

  ThreadStats& stats() { return stats_; }
  const ThreadStats& stats() const { return stats_; }
  bool in_tx() const { return active_; }

  /// Test-only: called inside load() when the orec is newer than the
  /// snapshot, after the value was read and before the snapshot is
  /// extended, so a test can land a commit inside that window.  Empty
  /// outside tests; the common read path never looks at it.
  void set_pre_extend_hook(std::function<void()> hook) {
    pre_extend_hook_ = std::move(hook);
  }

 private:
  friend class TinyBackend;

  enum : std::uint32_t { kIdle = 0, kRunning = 1, kKilled = 2 };

  using Orec = TinyBackend::Orec;
  struct LockedOrec {
    Orec* orec;
    std::uint64_t old_word;  ///< unlocked orec value to restore on abort
  };

  static TinyTx* owner_of(std::uint64_t word) {
    return reinterpret_cast<TinyTx*>(word & ~std::uint64_t{1});
  }
  std::uint64_t my_lock_word() const {
    return reinterpret_cast<std::uint64_t>(this) | 1;
  }

  void check_killed();
  bool validate() const;
  void extend_or_die();
  std::uint64_t self_locked_version(const Orec* o) const;
  [[noreturn]] void die(AbortReason reason, int enemy_tid);
  void release_locks_to_old();
  void finish(bool committed);

  TinyBackend& backend_;
  const int tid_;
  const int epoch_slot_;
  SchedulerHooks* sched_ = nullptr;
  bool read_hook_ = false;
  bool write_hook_ = false;
  bool active_ = false;
  bool retry_timed_out_ = false;  ///< last retry_wait expired (tx.retry_for)
  std::uint64_t rv_ = 0;  ///< snapshot (read) version
  std::atomic<std::uint32_t> status_{kIdle};
  std::atomic<int> killer_tid_{-1};

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
