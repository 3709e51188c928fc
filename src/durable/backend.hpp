// DurableBackend: the third BackendKind -- a TinySTM-style word STM whose
// committed writes to the durable Region survive process death.
//
// Concurrency control is copied from TinyBackend (encounter-time locking,
// write-back redo log, LSA snapshot extension, suicide CM): the paper's §4.2
// base system, unchanged.  Durability is layered onto the commit protocol:
//
//   commit():
//     shared-lock the snapshot gate           (excludes snapshot(), nothing
//     wv = clock.tick()                        else -- commits stay parallel)
//     validate read set
//     write back the redo log
//     append region writes to the changelog   <- still holding write locks
//     release write locks to wv
//     unlock gate, descriptor goes idle
//     wait_durable(seq)                       <- group-commit fsync ack
//
// Enqueueing while the write locks are held gives the changelog the one
// ordering property recovery needs: two transactions that touched a common
// word appear in the log in their commit order (the second could not lock
// until the first released).  Disjoint transactions may interleave in any
// order, which replay-in-file-order is insensitive to.
//
// wait_durable() returning is the durability acknowledgment: TxRunner fires
// tx.on_commit only after commit() returns, so on_commit callbacks observe
// a transaction that is on disk, not merely in memory.
//
// snapshot() takes the gate exclusively, flushes the changelog, writes the
// Region image (tmp+fsync+rename), then truncates the log.  Ticking the
// clock inside the gate's shared section means every commit with
// ts <= snapshot ts has fully written back before the image is copied.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durable/changelog.hpp"
#include "durable/epoch_fence.hpp"
#include "durable/options.hpp"
#include "durable/region.hpp"
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
#include "util/stats.hpp"

namespace shrinktm::durable {

class DurableTx;

/// What cold start found and did.  Exposed through Runtime::recovery_info()
/// so tests and operators can assert on the recovered prefix.
struct RecoveryInfo {
  bool snapshot_loaded = false;   ///< a valid snapshot image was applied
  bool snapshot_corrupt = false;  ///< a snapshot file existed but failed CRC
  std::uint64_t snapshot_ts = 0;  ///< clock value of the loaded image
  std::uint64_t log_records = 0;  ///< valid records found in the changelog
  std::uint64_t replayed_records = 0;  ///< records applied (ts > snapshot_ts)
  bool torn_tail = false;              ///< log had a torn/corrupt tail
  std::uint64_t torn_bytes_dropped = 0;  ///< bytes truncated off that tail
  std::uint64_t last_ts = 0;  ///< clock value the recovered state reached
};

class DurableBackend final : public stm::WriteOracle {
 public:
  using Tx = DurableTx;
  static constexpr const char* kName = "durable";

  struct Orec {
    std::atomic<std::uint64_t> word{0};
  };

  /// Opens (or creates) the durable directory, runs recovery -- load
  /// snapshot, replay changelog, truncate any torn tail, seed the clock --
  /// and starts the group-commit writer.  With opts.dir empty, a temp
  /// directory with Runtime lifetime is used (ephemeral mode).
  explicit DurableBackend(DurableOptions opts = {},
                          stm::StmConfig cfg = default_config());

  /// Same concurrency defaults as TinyBackend (busy waiting).
  static stm::StmConfig default_config() {
    stm::StmConfig cfg;
    cfg.wait_policy = util::WaitPolicy::kBusy;
    return cfg;
  }

  DurableBackend(const DurableBackend&) = delete;
  DurableBackend& operator=(const DurableBackend&) = delete;
  ~DurableBackend();

  DurableTx& tx(int tid);

  Orec& orec_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return orecs_[((a >> 3) ^ (a >> (3 + log2_orecs_))) & orec_mask_];
  }

  // WriteOracle
  bool is_write_locked_by_other(const void* addr, int self_tid) const override;

  stm::GlobalClock& clock() { return clock_; }
  util::EpochReclaimer& reclaimer() { return reclaimer_; }
  const stm::StmConfig& config() const { return cfg_; }

  stm::WaitTable& wait_table() { return wait_table_; }
  const stm::WaitTable& wait_table() const { return wait_table_; }

  stm::ThreadStats aggregate_stats() const;
  std::vector<std::pair<int, stm::ThreadStats>> per_thread_stats() const;
  void reset_stats();

  // ---- durability surface ----

  Region& region() { return region_; }
  const DurableOptions& options() const { return opts_; }
  const std::string& dir() const { return dir_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  Changelog& changelog() { return *changelog_; }

  /// The fencing epoch this backend claimed at open (strictly larger than
  /// every previous generation of the directory).  Once another claimant
  /// bumps past it -- promotion -- the next batch write refuses and commits
  /// fail-stop with stm::TxDurabilityError.
  std::uint64_t fence_epoch() const { return fence_->epoch(); }

  /// Consistent image + log truncation (see file comment).  Returns the
  /// clock value the image is consistent with.  Throws
  /// stm::TxDurabilityError on IO failure (injected or real); the log is
  /// NOT truncated unless the image landed durably.
  std::uint64_t snapshot();

  /// Sum of every descriptor's ack-latency histogram (ns per durable
  /// acknowledgment wait) and total acknowledged commits.
  std::pair<util::HdrHistogram, std::uint64_t> ack_histogram() const;

  /// Snapshots taken by the auto-cadence thread
  /// (DurableOptions::snapshot_every_bytes).
  std::uint64_t auto_snapshots() const {
    return auto_snapshots_.load(std::memory_order_relaxed);
  }

  static constexpr bool kBackendHasKill = false;

 private:
  friend class DurableTx;

  void recover();
  void auto_snapshot_loop();

  stm::StmConfig cfg_;
  DurableOptions opts_;
  std::string dir_;
  bool ephemeral_ = false;
  unsigned log2_orecs_;
  std::uint64_t orec_mask_;
  std::vector<Orec> orecs_;
  stm::GlobalClock clock_;
  stm::WaitTable wait_table_;
  util::EpochReclaimer reclaimer_;

  Region region_;
  std::shared_ptr<FaultPlan> fault_;
  std::unique_ptr<EpochFence> fence_;
  std::unique_ptr<Changelog> changelog_;
  RecoveryInfo recovery_;
  /// Snapshot gate: commits hold it shared across {tick, validate,
  /// write-back, enqueue}; snapshot() holds it exclusively while copying
  /// the region and truncating the log.
  std::shared_mutex commit_gate_;
  std::uint64_t snapshot_ts_ = 0;  ///< ts of the newest on-disk image

  // Auto-snapshot cadence (opts_.snapshot_every_bytes > 0): a dedicated
  // thread polls the log size and calls snapshot() past the threshold.  It
  // cannot run on the group-commit writer (snapshot() flushes, which waits
  // on that writer) nor inside commit() (the gate is held shared there).
  std::thread auto_snap_thread_;
  std::mutex auto_snap_mu_;
  std::condition_variable auto_snap_cv_;
  bool auto_snap_stop_ = false;
  std::atomic<std::uint64_t> auto_snapshots_{0};

  mutable std::mutex reg_mutex_;
  std::vector<std::unique_ptr<DurableTx>> descs_;
};

/// Per-thread descriptor; single-driver contract as TinyTx.
class DurableTx {
 public:
  DurableTx(DurableBackend& backend, int tid);
  ~DurableTx();

  DurableTx(const DurableTx&) = delete;
  DurableTx& operator=(const DurableTx&) = delete;

  int tid() const { return tid_; }
  util::WaitPolicy wait_policy() const {
    return backend_.config().wait_policy;
  }

  void set_scheduler(stm::SchedulerHooks* hooks);

  void start();
  stm::Word load(const stm::Word* addr);
  void store(stm::Word* addr, stm::Word value);
  /// Commit, then block until the commit is durable (SyncMode::kGroupCommit).
  /// Throws stm::TxConflict on contention; stm::TxDurabilityError if the
  /// changelog is poisoned (before any memory effect) or the covering fsync
  /// fails (after the memory commit -- fail-stop, see word.hpp).
  void commit();

  void* tx_alloc(std::size_t bytes);
  void tx_free(void* p);
  [[noreturn]] void restart();
  void cancel();
  void retry_wait(std::int64_t timeout_ns = -1);
  bool retry_timed_out() const { return retry_timed_out_; }
  void clear_retry_timeout() { retry_timed_out_ = false; }
  void request_kill(int killer_tid);
  std::span<void* const> last_write_addrs() const {
    return last_write_addrs_;
  }

  stm::ThreadStats& stats() { return stats_; }
  const stm::ThreadStats& stats() const { return stats_; }
  bool in_tx() const { return active_; }
  /// See stm::TinyTx::set_pre_extend_hook (test-only).
  void set_pre_extend_hook(std::function<void()> hook) {
    pre_extend_hook_ = std::move(hook);
  }

  /// Durable acknowledgments this descriptor waited out, and the wait
  /// latency distribution (ns).
  std::uint64_t acks() const { return acks_; }
  const util::HdrHistogram& ack_hist() const { return ack_hist_; }

 private:
  friend class DurableBackend;

  enum : std::uint32_t { kIdle = 0, kRunning = 1, kKilled = 2 };

  using Orec = DurableBackend::Orec;
  struct LockedOrec {
    Orec* orec;
    std::uint64_t old_word;
  };

  static DurableTx* owner_of(std::uint64_t word) {
    return reinterpret_cast<DurableTx*>(word & ~std::uint64_t{1});
  }
  std::uint64_t my_lock_word() const {
    return reinterpret_cast<std::uint64_t>(this) | 1;
  }

  void check_killed();
  bool validate() const;
  void extend_or_die();
  std::uint64_t self_locked_version(const Orec* o) const;
  [[noreturn]] void die(stm::AbortReason reason, int enemy_tid);
  void release_locks_to_old();
  void finish(bool committed);

  DurableBackend& backend_;
  const int tid_;
  const int epoch_slot_;
  stm::SchedulerHooks* sched_ = nullptr;
  bool read_hook_ = false;
  bool write_hook_ = false;
  bool active_ = false;
  bool retry_timed_out_ = false;
  std::uint64_t rv_ = 0;
  std::atomic<std::uint32_t> status_{kIdle};
  std::atomic<int> killer_tid_{-1};

  std::vector<stm::ReadEntry<Orec>> read_set_;
  stm::WriteLog<Orec> wlog_;
  std::vector<LockedOrec> locked_orecs_;
  std::vector<void*> allocs_;
  std::vector<void*> frees_;
  std::vector<void*> last_write_addrs_;
  std::vector<stm::WaitTable::Ticket> wait_set_;
  std::vector<RedoWord> redo_;  ///< region writes of the committing attempt
  stm::ThreadStats stats_;
  std::function<void()> pre_extend_hook_;  ///< test-only, see setter

  util::HdrHistogram ack_hist_;
  std::uint64_t acks_ = 0;
};

}  // namespace shrinktm::durable
