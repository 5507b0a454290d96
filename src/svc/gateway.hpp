// TeleopGateway: the network-facing teleoperation service.
//
// One gateway terminates the surgeon side of the paper's telesurgery
// link: it ingests ITP datagrams from a Transport (real UDP socket or
// deterministic loopback), classifies each one (size, MAC, checksum,
// flag bits, anti-replay window), admits sessions keyed by source
// endpoint, and multiplexes accepted traffic onto a fixed set of
// GatewayShards — each shard owning a disjoint subset of sessions and
// driving their server-side stacks (control + PLC + board + plant twin +
// detection pipeline) through the batched SoA kernels.
//
//   transport.poll_batch() ──> pump thread: classify + session table
//                                 │ (lock-free SPSC ring per shard)
//                                 ▼
//                          shard workers: per-session mailboxes, rounds
//                          of batched control ticks, detection verdicts
//
// The pump drains the transport rx_batch datagrams at a time (one
// recvmmsg per batch on the UDP transport) and hands each accepted one
// to its shard's SPSC ring with a single release store; a full ring is
// the backpressure signal (kBackpressure + rg.gw.shard.<i>.ring_full).
//
// Determinism: shard assignment is session-id modulo shard count, one
// accepted datagram advances its session by exactly one control tick,
// and the batched kernels are bit-identical to scalar — so per-session
// verdict digests and counters are invariant under the shard count, the
// ingest batch size, and the thread schedule (tests/test_gateway.cpp
// asserts this over LoopbackTransport).
//
// Time is caller-supplied (pump(now_ms)): tools pass steady-clock
// milliseconds, tests and benches pass synthetic time so idle eviction
// is reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hpp"
#include "defense/mac.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "persist/state_plane.hpp"
#include "svc/session.hpp"
#include "svc/shard.hpp"
#include "svc/transport.hpp"

namespace rg::svc {

/// Gateway-side calibration policy: per-session streaming sketches plus
/// periodic drift checks against the cohort's committed thresholds.
/// When a session's sketch quantile exceeds committed * max_ratio the
/// gateway raises one `cal_drift` safety event for it (latched until the
/// session closes), bumps rg.cal.drift_alarms, and counts it in
/// GatewayStats::drift_alarms — the operational signal that the rolled-
/// out calibration epoch no longer bounds live traffic (docs/thresholds.md).
struct CalibrationPolicy {
  bool enabled = false;
  /// The active epoch's thresholds (the drift baseline).
  DetectionThresholds committed{};
  /// Percentile compared against the committed thresholds.
  double percentile = kDefaultThresholdPercentile;
  /// Drift when observed quantile > committed * max_ratio on any axis.
  double max_ratio = 1.25;
  /// Sessions younger than this many valid predictions never drift.
  std::uint64_t min_samples = 512;
  /// Drift scans are throttled to this pump-time period.
  std::uint64_t scan_period_ms = 100;
};

struct GatewayConfig {
  SessionEngineConfig engine{};
  std::size_t shards = 2;
  /// Threaded shards (one worker each).  false = every shard advances on
  /// the pump thread — fully deterministic single-threaded execution.
  bool threaded = true;
  std::size_t max_sessions = 256;
  /// Sessions quiet for this long are evicted at the next pump.
  std::uint64_t idle_timeout_ms = 2000;
  std::size_t max_queue_per_shard = 8192;
  /// Datagrams the pump drains from the transport per poll_batch() call
  /// (one recvmmsg on the UDP transport).  Clamped to >= 1; batch size
  /// never changes verdicts, only syscall amortization (the determinism
  /// tests sweep it).
  std::size_t rx_batch = 64;
  /// Ingest-side integrity retrofit: datagrams must be 38-byte MAC frames
  /// (30 ITP bytes + SipHash-2-4 tag) under `mac_key`.
  bool require_mac = false;
  MacKey mac_key = MacKey::from_seed(7);
  bool verify_checksum = true;
  /// Session plant seeds = base + session id.
  std::uint64_t plant_seed_base = 1;
  /// Streaming calibration + drift alarms (off by default).
  CalibrationPolicy calibration{};
  /// Optional safety-event sink for `cal_drift` records (must outlive the
  /// gateway; nullptr = events dropped, counters still advance).
  obs::EventLog* events = nullptr;
  /// Expected pump cadence: |gap - period| between consecutive pump()
  /// entries feeds the rg.gw.pump.jitter_ns histogram (1 ms — the ITP
  /// control period — by default).
  std::uint64_t pump_period_ns = 1'000'000;
  /// A pump-to-pump gap beyond this counts one rg.gw.pump.deadline_miss
  /// (0 resolves to 2 * pump_period_ns at construction).
  std::uint64_t pump_deadline_ns = 0;
  /// How often pump() refreshes the sequenced snapshot the admin plane
  /// reads (latest_snapshot()); 0 disables publishing from pump().
  std::uint64_t stats_publish_period_ms = 250;
  /// Crash-consistent state plane (docs/persistence.md).  When set, the
  /// gateway restores the persisted session table at construction and
  /// submits session-lifecycle / anti-replay-window / E-STOP ops on the
  /// tick path (lock-free; the plane's flusher makes them durable).  A
  /// fail-safe plane (unverifiable artifacts) latches the whole gateway:
  /// every datagram is rejected kEstopLatched until an operator clears
  /// the state directory.  Must outlive the gateway.
  persist::StatePlane* persist = nullptr;
  /// Restored anti-replay windows advance by this many sequence numbers
  /// (mask fully set) to also reject replays of the *unsynced* tail —
  /// traffic accepted after the last durable flush.  Must be >= the peak
  /// per-session datagram rate times the plane's flush period.
  std::uint32_t rejoin_guard = 256;
};

/// Gateway-wide ingest accounting (monotonic; snapshot via stats()).
struct GatewayStats {
  std::uint64_t datagrams = 0;  ///< everything the transport delivered
  std::uint64_t accepted = 0;
  std::uint64_t rejected_size = 0;
  std::uint64_t rejected_mac = 0;
  std::uint64_t rejected_checksum = 0;
  std::uint64_t rejected_flags = 0;
  std::uint64_t rejected_duplicate = 0;
  std::uint64_t rejected_replayed = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_session_limit = 0;
  std::uint64_t backpressure_dropped = 0;
  std::uint64_t out_of_order_accepted = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t active_sessions = 0;
  std::uint64_t drift_checks = 0;  ///< session drift evaluations performed
  std::uint64_t drift_alarms = 0;  ///< sessions that raised a drift alarm
  std::uint64_t rejected_estop = 0;    ///< datagrams refused by a latched E-STOP
  std::uint64_t sessions_restored = 0; ///< sessions rebuilt from the state plane
};

/// Merged per-session view: the pump side's ingest counters plus the
/// owning shard's screening stats.
struct SessionStats {
  std::uint32_t id = 0;
  Endpoint endpoint{};
  bool active = false;
  std::uint64_t last_seen_ms = 0;
  SessionCounters counters{};
  ShardSessionStats shard{};
};

/// Per-shard pipeline health: tick progress plus ring backpressure.
/// ring_full counts datagram submissions refused because the shard's
/// SPSC ring was at capacity (each one is also a backpressure_dropped in
/// GatewayStats); queue_hwm is the deepest the ring has ever been.
struct ShardPipelineStats {
  std::size_t index = 0;
  std::uint64_t ticks = 0;
  std::uint64_t ring_full = 0;
  std::size_t queue_hwm = 0;
};

/// A sequenced, self-consistent copy of the gateway's observable state,
/// refreshed by pump() on its publish throttle.  The admin plane serves
/// exclusively from the latest published snapshot, so admin reads never
/// contend with the session table or shard state locks while traffic is
/// flowing.  `seq` increments per publish; `estop_sessions` counts active
/// sessions whose PLC has latched E-STOP (readiness gate).
struct GatewaySnapshot {
  std::uint64_t seq = 0;
  std::uint64_t now_ms = 0;
  GatewayStats stats{};
  std::vector<SessionStats> sessions;
  std::vector<ShardPipelineStats> shards;
  std::uint64_t estop_sessions = 0;
};

class TeleopGateway {
 public:
  TeleopGateway(const GatewayConfig& config, Transport& transport);
  ~TeleopGateway();

  TeleopGateway(const TeleopGateway&) = delete;
  TeleopGateway& operator=(const TeleopGateway&) = delete;

  /// Drain up to `max` datagrams from the transport in rx_batch-sized
  /// poll_batch() calls, classify and dispatch them, and run the
  /// (throttled) idle-eviction scan.  In inline mode this also advances
  /// every shard.  Returns the number of datagrams drained; call in a
  /// loop.
  RG_THREAD(pump) std::size_t pump(std::uint64_t now_ms, std::size_t max = 1024);

  /// Block until every shard has drained its ring and finished its
  /// rounds (signaled per shard — no sleep-polling; inline mode runs the
  /// rounds on this thread).  Pump-thread only, like pump().
  RG_THREAD(pump) void drain();

  /// Evict every active session (submits kClose) and drain.  Called by
  /// the destructor; idempotent.
  RG_THREAD(pump) void shutdown();

  [[nodiscard]] RG_THREAD(any) GatewayStats stats() const;
  /// True when the state plane failed recovery: the gateway is latched
  /// fail-safe and rejects every datagram (kEstopLatched).
  [[nodiscard]] RG_THREAD(any) bool fail_safe() const noexcept { return fail_safe_; }
  /// Every session ever admitted (active and evicted), ascending id.
  [[nodiscard]] RG_THREAD(any) std::vector<SessionStats> sessions() const;
  [[nodiscard]] RG_THREAD(any) std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Ring/backpressure health per shard, ascending index.
  [[nodiscard]] RG_THREAD(any) std::vector<ShardPipelineStats> shard_stats() const;

  /// Merged calibration sketch over every *active* session, merged in
  /// globally ascending session-id order — invariant under the shard
  /// count.  kNotReady when calibration is disabled or no session has a
  /// sketch.  Call while the gateway is drained (the per-session sketches
  /// are copied under each shard's state lock).
  [[nodiscard]] RG_THREAD(any) Result<ThresholdSketch> cohort_sketch() const;

  /// Run one drift scan immediately (pump() calls this on its throttle;
  /// tests and drained gateways can force it).  Returns newly drifted
  /// sessions.
  RG_THREAD(pump) std::size_t scan_drift_now(std::uint64_t now_ms);

  /// Build and store a fresh GatewaySnapshot now (pump() does this on the
  /// stats_publish_period_ms throttle; tools can force one before the
  /// first pump or after a drain).
  RG_THREAD(pump) void publish_snapshot(std::uint64_t now_ms);

  /// The most recently published snapshot, or nullptr before the first
  /// publish.  Cheap shared_ptr copy — safe to call from any thread at
  /// any rate; the returned snapshot is immutable.
  [[nodiscard]] RG_THREAD(any) std::shared_ptr<const GatewaySnapshot> latest_snapshot() const;

 private:
  struct SessionRecord {
    std::uint32_t id = 0;
    std::size_t shard = 0;
    std::uint64_t last_seen_ms = 0;
    ReplayWindow window{};
    SessionCounters counters{};
    /// Restored from a persisted E-STOP latch: every further datagram
    /// from this endpoint is rejected kEstopLatched.
    bool estop_latched = false;
    /// The state plane accepted the live PLC latch (a refused submit is
    /// retried at the next snapshot publish).
    bool estop_persisted = false;
  };

  /// Classify one datagram and (when accepted) enqueue it on its
  /// session's shard.  Pure admission: only session-scoped state changes
  /// here; the gateway-wide accounting lives in note().  Callers must not
  /// drop the verdict — the idiom is note(ingest(...)).
  [[nodiscard]] RG_THREAD(pump) IngestVerdict ingest(const Endpoint& from,
                                                     std::span<const std::uint8_t> bytes,
                                                     std::uint64_t now_ms, std::uint64_t ingest_ns);
  RG_THREAD(pump) void evict_idle(std::uint64_t now_ms);
  /// Fold one ingest verdict into the gateway-wide stats and metrics.
  RG_THREAD(pump) void note(IngestVerdict v);
  /// Rebuild the session table from the state plane (constructor tail).
  RG_THREAD(pump) void restore_from_plane();
  RG_THREAD(pump) void persist_close(std::uint32_t session_id);
  [[nodiscard]] RG_THREAD(any) SessionStats snapshot_session(const Endpoint& ep,
                                                             const SessionRecord& rec,
                                                             bool active) const;

  GatewayConfig config_;
  Transport& transport_;
  std::vector<std::unique_ptr<GatewayShard>> shards_;
  /// Reused receive slots for the pump's batched drain (rx_batch of them
  /// — allocated once, never on the pump path).
  std::vector<RxDatagram> rx_slots_;

  mutable Mutex table_mutex_;
  std::unordered_map<Endpoint, SessionRecord, EndpointHash> table_ RG_GUARDED_BY(table_mutex_);
  std::unordered_map<Endpoint, SessionRecord, EndpointHash> evicted_ RG_GUARDED_BY(table_mutex_);
  GatewayStats stats_ RG_GUARDED_BY(table_mutex_){};
  std::uint32_t next_session_id_ RG_GUARDED_BY(table_mutex_) = 1;
  std::uint64_t last_evict_scan_ms_ = 0;
  std::uint64_t last_drift_scan_ms_ = 0;
  bool shut_down_ RG_GUARDED_BY(table_mutex_) = false;
  /// State-plane recovery failed: reject everything (see GatewayConfig).
  bool fail_safe_ = false;
  /// Restored sessions carry no wall-clock; the first pump() stamps them
  /// so the idle-eviction scan doesn't reap them before traffic rejoins.
  bool restored_need_touch_ = false;

  // Pump-cadence SLO state (touched only by the pump thread).
  std::uint64_t last_pump_ns_ = 0;
  std::uint64_t last_publish_ms_ = 0;
  std::uint64_t publish_seq_ = 0;

  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const GatewaySnapshot> snapshot_ RG_GUARDED_BY(snapshot_mutex_);

  obs::MetricId ingest_counter_;
  obs::MetricId accept_counter_;
  obs::MetricId reject_counter_;
  obs::MetricId drift_check_counter_;
  obs::MetricId drift_alarm_counter_;
  obs::MetricId deadline_miss_counter_;
  obs::MetricId jitter_hist_;
  obs::MetricId rx_batch_hist_;
};

}  // namespace rg::svc
