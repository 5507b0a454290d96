// GatewayShard: one worker owning a disjoint subset of the gateway's
// sessions.
//
// The pump thread classifies datagrams and submits accepted ones to the
// owning shard's fixed-capacity lock-free SPSC ring
// (common/spsc_ring.hpp); the shard worker (its own thread, or the pump
// thread in inline mode) drains the ring in bursts into per-session
// mailboxes and advances sessions in *rounds*: each round, every session
// with a pending datagram consumes exactly one and runs one control
// tick.  Sessions in a round are processed in ascending session-id order
// and grouped kBatchLanes at a time; round_tick runs each group's verdict
// half, resolve_lanes() (stack/robot_stack.hpp), and leaves every
// session's plant period due.  Before a group's next tick_begin,
// step_due_plants steps the group's due periods in one step_plant_lanes()
// call, filled up to kBatchLanes with the shard's other due sessions in
// ascending id — so a session's period for tick t always runs before its
// tick t+1 reads feedback, and the plant twin runs in full-width calls
// off the verdict path even when datagrams arrive one at a time.  The
// estimator solves and the plant substep loops of up to eight sessions
// run through the batched SoA kernels — the gateway serves N sessions at
// far less than N times the scalar cost, and because the batched kernels
// are bit-identical to the scalar ones, neither grouping nor deferral
// ever changes a verdict (tests/test_gateway.cpp asserts determinism at
// any shard count, ingest batch size and arrival pattern).  A closed or
// evicted session's due period is dropped with its engine.
//
// Thread model: the ring is the only pump→worker channel and it is
// lock-free — the pump's submit() is one release store in the common
// case.  A full ring refuses datagram items (returns false — the
// backpressure signal; counted as rg.gw.shard.<i>.ring_full); control
// items (open/close) never drop: the pump spins the push (threaded mode)
// or drains the ring itself (inline mode) until there is room.  The
// worker sleeps on `wake_cv_` when the ring runs dry; the sleeping_ flag
// plus seq_cst fences on both sides close the lost-wakeup window without
// putting a lock on the push path.  `state_mutex_` guards the session
// engines and their stats (worker rounds vs. stats snapshots); engines
// are only ever advanced by their owning shard, so no engine state is
// shared between threads.  Completion is tracked as submitted_ (pump
// thread only) vs completed_ (under idle_mutex_): wait_idle() blocks the
// pump until every submitted item has been fully processed — the
// signaling replacement for sleep-polling drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/realtime.hpp"
#include "common/spsc_ring.hpp"
#include "common/thread_safety.hpp"
#include "dynamics/batch_model.hpp"
#include "obs/metrics.hpp"
#include "svc/session.hpp"
#include "svc/session_engine.hpp"

namespace rg::svc {

struct ShardConfig {
  SessionEngineConfig engine{};
  std::size_t index = 0;
  std::size_t max_queue = 8192;  ///< SPSC ring capacity (items)
  bool threaded = true;
  /// Per-session plant seed = base + session id (lanes share physics but
  /// not noise streams).
  std::uint64_t plant_seed_base = 1;
};

/// One unit of pump→shard work.
struct ShardItem {
  enum class Kind : std::uint8_t { kDatagram, kOpen, kClose };
  Kind kind = Kind::kDatagram;
  std::uint32_t session = 0;
  ItpBytes bytes{};
  std::uint64_t ingest_ns = 0;
};

/// Screening-side counters for one session (the shard's half of the
/// gateway stats; ingest counters live with the gateway's session table).
struct ShardSessionStats {
  std::uint64_t ticks = 0;
  std::uint64_t alarms = 0;
  std::uint64_t blocked = 0;
  std::uint64_t digest = 0;
  bool estop = false;  ///< PLC E-STOP latched (frozen at close for retired sessions)
};

class GatewayShard {
 public:
  explicit GatewayShard(const ShardConfig& config);
  ~GatewayShard();

  GatewayShard(const GatewayShard&) = delete;
  GatewayShard& operator=(const GatewayShard&) = delete;

  RG_THREAD(any) void start();
  RG_THREAD(any) void stop();

  /// Pump-thread handoff (single producer — only the pump may call
  /// this).  Datagram items are refused (returns false) when the ring is
  /// at capacity — the backpressure signal, counted as ring_full;
  /// control items (open/close) always enqueue, spinning or inline-
  /// draining until there is room.
  RG_REALTIME RG_THREAD(pump) bool submit(const ShardItem& item);

  /// Inline mode: process everything currently queued on the caller's
  /// thread.  (Threaded shards do this on their worker.)
  RG_THREAD(pump) void process_pending();

  /// Block until every item submitted so far has been fully processed.
  /// Pump thread only (it is the producer, so submitted_ cannot advance
  /// underneath the wait).  Inline shards drain on the caller instead.
  RG_THREAD(pump) void wait_idle();

  [[nodiscard]] RG_THREAD(any) std::optional<ShardSessionStats> session_stats(std::uint32_t id) const;
  [[nodiscard]] RG_THREAD(any) std::uint64_t ticks() const noexcept;
  /// Deepest the submission ring has ever been (backpressure headroom).
  [[nodiscard]] RG_THREAD(any) std::size_t queue_high_watermark() const noexcept;
  /// Datagram submissions refused because the ring was full.
  [[nodiscard]] RG_THREAD(any) std::uint64_t ring_full() const noexcept;

  /// One newly drifted session found by a drift scan.
  struct DriftAlarm {
    std::uint32_t session = 0;
    DriftVerdict verdict{};
  };

  /// Compare every active session's calibration sketch against the
  /// committed thresholds (core/quantile_sketch.hpp check_drift) and
  /// return the sessions that *newly* drifted — each session alarms at
  /// most once (latched until it is closed).  Sessions are scanned in
  /// ascending id, so the result is deterministic.  `checked` (optional)
  /// receives the number of sessions examined.  Runs off the tick path,
  /// under the shard's state lock.
  [[nodiscard]] RG_THREAD(any) std::vector<DriftAlarm> scan_drift(const DetectionThresholds& committed,
                                                   double percentile_value, double max_ratio,
                                                   std::uint64_t min_samples,
                                                   std::uint64_t* checked = nullptr);

  /// Copies of the active sessions' calibration sketches keyed by session
  /// id (empty when calibration is disabled).  The gateway merges these
  /// across shards in globally ascending id order, so the cohort sketch
  /// is invariant under the shard count.
  [[nodiscard]] RG_THREAD(any) std::vector<std::pair<std::uint32_t, ThresholdSketch>> session_sketches() const;

 private:
  struct LocalSession {
    explicit LocalSession(const SessionEngineConfig& cfg) : engine(cfg) {}
    SessionEngine engine;
    std::deque<std::pair<ItpBytes, std::uint64_t>> mailbox;
    bool drift_latched = false;  ///< session already raised its drift alarm
    /// Its last tick resolved but that tick's plant period has not run.
    bool plant_due = false;
  };

  /// Most items one ring drain moves before processing them (bounds the
  /// worker's burst buffer; the ring refills while a burst runs).
  static constexpr std::size_t kDrainBurst = 256;

  RG_THREAD(shard) void worker_loop();
  /// Nudge a sleeping worker after a push (no-op when it is running).
  RG_REALTIME RG_THREAD(pump) void wake_worker();
  RG_THREAD(shard) void drain_burst(std::vector<ShardItem>& burst);
  RG_THREAD(shard) void apply_items(const ShardItem* items, std::size_t n) RG_REQUIRES(state_mutex_);
  RG_THREAD(shard) void run_rounds() RG_REQUIRES(state_mutex_);
  /// Step the plant periods `chunk`'s sessions still owe, filling the
  /// call with other due sessions; runs before the chunk's round_tick.
  RG_REALTIME RG_THREAD(shard) RG_DETERMINISTIC void step_due_plants(
      const std::vector<LocalSession*>& chunk) RG_REQUIRES(state_mutex_);
  /// Phase A, the verdict half and the bookkeeping of one group.
  RG_REALTIME RG_THREAD(shard) RG_DETERMINISTIC void round_tick(
      std::vector<LocalSession*>& chunk,
      std::vector<std::pair<ItpBytes, std::uint64_t>>& datagrams) RG_REQUIRES(state_mutex_);

  ShardConfig config_;

  // --- pump → worker ring --------------------------------------------------
  SpscRing<ShardItem> ring_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> ring_full_{0};
  std::atomic<std::size_t> queue_hwm_{0};

  // Worker sleep/wake (Dekker-style: producer seq_cst RMW on wake_seq_ +
  // sleeping_ check vs consumer RMW + ring-empty recheck under
  // wake_mutex_; the shared RMW stands in for a seq_cst fence so TSan
  // can model the ordering).
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> sleeping_{false};
  std::atomic<std::uint64_t> wake_seq_{0};

  // Drain signaling: submitted_ is producer-owned (pump thread only);
  // completed_ advances under idle_mutex_ as bursts finish processing.
  std::uint64_t submitted_ = 0;
  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::uint64_t completed_ = 0;

  /// Burst buffer for inline drains (process_pending); the threaded
  /// worker keeps its own on its stack.
  std::vector<ShardItem> burst_;

  // --- worker-side session state ------------------------------------------
  mutable Mutex state_mutex_;
  std::map<std::uint32_t, std::unique_ptr<LocalSession>> sessions_ RG_GUARDED_BY(state_mutex_);
  std::map<std::uint32_t, ShardSessionStats> retired_ RG_GUARDED_BY(state_mutex_);
  std::uint64_t total_ticks_ RG_GUARDED_BY(state_mutex_) = 0;

  /// run_rounds scratch, kept across drains so steady-state rounds
  /// allocate nothing: the sessions with mail this round (capacity
  /// follows the session count), and one lane chunk and its datagrams.
  std::vector<LocalSession*> ready_ RG_GUARDED_BY(state_mutex_);
  std::vector<LocalSession*> chunk_ RG_GUARDED_BY(state_mutex_);
  std::vector<std::pair<ItpBytes, std::uint64_t>> datagrams_ RG_GUARDED_BY(state_mutex_);

  /// Batched twin of the sessions' estimator model (sessions share the
  /// estimator config, so one batch model serves every group).
  BatchRavenModel est_model_ RG_GUARDED_BY(state_mutex_);

  obs::MetricId latency_hist_;
  obs::MetricId round_lanes_hist_;
  obs::MetricId plant_lanes_hist_;
  obs::MetricId ticks_counter_;
  obs::MetricId queue_hwm_gauge_;
  obs::MetricId ring_full_counter_;

  std::thread worker_;
  bool started_ = false;
};

}  // namespace rg::svc
