#include "svc/gateway.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "net/itp_packet.hpp"
#include "obs/span.hpp"

namespace rg::svc {

namespace {

/// Idle-eviction scans are throttled — the table walk is O(sessions) and
/// eviction granularity finer than this buys nothing at a 2 s timeout.
constexpr std::uint64_t kEvictScanPeriodMs = 50;

}  // namespace

TeleopGateway::TeleopGateway(const GatewayConfig& config, Transport& transport)
    : config_(config), transport_(transport) {
  require(config.shards >= 1, "TeleopGateway: at least one shard required");
  require(config.max_sessions >= 1, "TeleopGateway: max_sessions must be >= 1");
  auto& reg = obs::Registry::global();
  ingest_counter_ = reg.counter("rg.gw.rx_packets");
  accept_counter_ = reg.counter("rg.gw.accepted");
  reject_counter_ = reg.counter("rg.gw.rejected");
  drift_check_counter_ = reg.counter("rg.cal.drift_checks");
  drift_alarm_counter_ = reg.counter("rg.cal.drift_alarms");
  deadline_miss_counter_ = reg.counter("rg.gw.pump.deadline_miss");
  jitter_hist_ = reg.histogram("rg.gw.pump.jitter_ns");
  rx_batch_hist_ = reg.histogram("rg.gw.rx_batch_size");
  if (config_.pump_deadline_ns == 0) config_.pump_deadline_ns = 2 * config_.pump_period_ns;
  if (config_.rx_batch == 0) config_.rx_batch = 1;
  rx_slots_.resize(config_.rx_batch);
  // The calibration policy implies per-session sketches in every engine.
  if (config_.calibration.enabled) {
    config_.engine.calibration.enabled = true;
    config_.engine.calibration.target_quantile =
        target_quantile_for(config_.calibration.percentile);
  }
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    ShardConfig sc;
    sc.engine = config_.engine;
    sc.index = i;
    sc.max_queue = config.max_queue_per_shard;
    sc.threaded = config.threaded;
    sc.plant_seed_base = config.plant_seed_base;
    shards_.push_back(std::make_unique<GatewayShard>(sc));
    shards_.back()->start();
  }
  if (config_.persist != nullptr) restore_from_plane();
}

RG_THREAD(pump) void TeleopGateway::restore_from_plane() {
  persist::StatePlane& plane = *config_.persist;
  if (plane.fail_safe()) {
    // Unverifiable persisted state: never guess.  The gateway comes up
    // latched and rejects all traffic until an operator intervenes.
    fail_safe_ = true;
    if (config_.events != nullptr) {
      config_.events->emit("recovery_failed", std::nullopt,
                           {{"reason", plane.recovery().reason}});
    }
    return;
  }
  const persist::PersistentState state = plane.state();
  const MutexLock lock(table_mutex_);
  next_session_id_ = std::max(next_session_id_, state.next_session_id);
  for (const auto& [id, s] : state.sessions) {
    Endpoint ep{s.ip, s.port};
    SessionRecord rec;
    rec.id = id;
    rec.shard = id % shards_.size();
    rec.last_seen_ms = 0;
    rec.window.restore(s.newest, s.mask, s.started, config_.rejoin_guard);
    rec.estop_latched = s.estop;
    rec.estop_persisted = s.estop;
    table_.emplace(ep, rec);
    ++stats_.sessions_restored;
    (void)shards_[rec.shard]->submit(ShardItem{ShardItem::Kind::kOpen, rec.id, ItpBytes{}, 0});
  }
  restored_need_touch_ = !table_.empty();
  if (config_.events != nullptr && !state.sessions.empty()) {
    config_.events->emit("sessions_restored", std::nullopt,
                         {{"count", static_cast<std::uint64_t>(state.sessions.size())},
                          {"digest", plane.recovery().digest}});
  }
}

TeleopGateway::~TeleopGateway() { shutdown(); }

RG_THREAD(pump) std::size_t TeleopGateway::pump(std::uint64_t now_ms, std::size_t max) {
  RG_SPAN("gw.pump");
  // Pump-cadence SLO: the gap between consecutive pump entries should
  // track pump_period_ns; the jitter histogram and deadline-miss counter
  // are the signals raven_top and the admin /metrics endpoint surface.
  {
    const std::uint64_t enter_ns = obs::monotonic_ns();
    auto& reg = obs::Registry::global();
    if (last_pump_ns_ != 0) {
      const std::uint64_t gap = enter_ns - last_pump_ns_;
      const std::uint64_t jitter = gap > config_.pump_period_ns
                                       ? gap - config_.pump_period_ns
                                       : config_.pump_period_ns - gap;
      reg.observe(jitter_hist_, jitter);
      if (gap > config_.pump_deadline_ns) reg.add(deadline_miss_counter_);
    }
    last_pump_ns_ = enter_ns;
  }
  // Batched drain: rx_batch datagrams per poll_batch() call — one
  // recvmmsg on the UDP transport, one lock acquisition on the loopback.
  // ingest_ns is stamped once per batch (the batch arrived together; one
  // clock read instead of rx_batch of them), so the ingest→verdict
  // histogram measures pipeline latency from batch arrival.
  std::size_t drained = 0;
  {
    auto& reg = obs::Registry::global();
    while (drained < max) {
      const std::size_t want = std::min(config_.rx_batch, max - drained);
      const std::size_t n =
          transport_.poll_batch(std::span<RxDatagram>{rx_slots_.data(), want});
      if (n == 0) break;
      reg.observe(rx_batch_hist_, n);
      const std::uint64_t ingest_ns = obs::monotonic_ns();
      for (std::size_t i = 0; i < n; ++i) {
        note(ingest(rx_slots_[i].from, rx_slots_[i].payload(), now_ms, ingest_ns));
      }
      drained += n;
      if (n < want) break;  // transport ran dry mid-batch
    }
  }
  if (restored_need_touch_) {
    // Restored sessions carry no wall-clock: stamp them with the first
    // pump's time so the idle scan gives rejoining operators a full
    // idle_timeout_ms window.
    const MutexLock lock(table_mutex_);
    restored_need_touch_ = false;
    for (auto& [ep, rec] : table_) {
      if (rec.last_seen_ms == 0) rec.last_seen_ms = now_ms;
    }
  }
  if (now_ms - last_evict_scan_ms_ >= kEvictScanPeriodMs || last_evict_scan_ms_ == 0) {
    last_evict_scan_ms_ = now_ms;
    evict_idle(now_ms);
  }
  if (!config_.threaded) {
    for (auto& shard : shards_) shard->process_pending();
  }
  if (config_.calibration.enabled &&
      (now_ms - last_drift_scan_ms_ >= config_.calibration.scan_period_ms ||
       last_drift_scan_ms_ == 0)) {
    last_drift_scan_ms_ = now_ms;
    (void)scan_drift_now(now_ms);
  }
  if (config_.stats_publish_period_ms != 0 &&
      (now_ms - last_publish_ms_ >= config_.stats_publish_period_ms || last_publish_ms_ == 0)) {
    last_publish_ms_ = now_ms;
    publish_snapshot(now_ms);
  }
  return drained;
}

RG_THREAD(pump) void TeleopGateway::publish_snapshot(std::uint64_t now_ms) {
  auto snap = std::make_shared<GatewaySnapshot>();
  snap->now_ms = now_ms;
  snap->stats = stats();
  snap->sessions = sessions();
  snap->shards = shard_stats();
  for (const SessionStats& s : snap->sessions) {
    if (s.active && s.shard.estop) ++snap->estop_sessions;
  }
  // Live E-STOP latches become durable here (once per session): the
  // publish throttle is the natural place the pump thread observes the
  // shard-side PLC state.  A latch the state plane refuses (ring full)
  // stays unpersisted, so the next publish submits it again.
  if (config_.persist != nullptr && snap->estop_sessions != 0) {
    const MutexLock lock(table_mutex_);
    for (const SessionStats& s : snap->sessions) {
      if (!s.active || !s.shard.estop) continue;
      auto it = table_.find(s.endpoint);
      if (it == table_.end() || it->second.estop_persisted) continue;
      persist::StateOp op;
      op.kind = persist::StateOp::Kind::kEstop;
      op.session = s.id;
      op.flag = 1;
      it->second.estop_persisted = config_.persist->submit(op);
    }
  }
  const MutexLock lock(snapshot_mutex_);
  snap->seq = ++publish_seq_;
  snapshot_ = std::move(snap);
}

RG_THREAD(any) std::shared_ptr<const GatewaySnapshot> TeleopGateway::latest_snapshot() const {
  const MutexLock lock(snapshot_mutex_);
  return snapshot_;
}

RG_THREAD(pump) std::size_t TeleopGateway::scan_drift_now(std::uint64_t now_ms) {
  if (!config_.calibration.enabled) return 0;
  const CalibrationPolicy& policy = config_.calibration;
  auto& reg = obs::Registry::global();
  std::size_t newly_drifted = 0;
  for (auto& shard : shards_) {
    std::uint64_t checked = 0;
    const auto alarms = shard->scan_drift(policy.committed, policy.percentile, policy.max_ratio,
                                          policy.min_samples, &checked);
    reg.add(drift_check_counter_, checked);
    newly_drifted += alarms.size();
    for (const GatewayShard::DriftAlarm& alarm : alarms) {
      reg.add(drift_alarm_counter_);
      if (config_.events != nullptr) {
        config_.events->emit(
            "cal_drift", std::nullopt,
            {{"session", static_cast<std::uint64_t>(alarm.session)},
             {"now_ms", now_ms},
             {"variable", static_cast<std::uint64_t>(alarm.verdict.worst.variable)},
             {"axis", static_cast<std::uint64_t>(alarm.verdict.worst.axis)},
             {"observed", alarm.verdict.worst.observed},
             {"committed", alarm.verdict.worst.committed},
             {"ratio", alarm.verdict.worst.ratio},
             {"samples", alarm.verdict.samples}});
      }
    }
    if (checked != 0 || !alarms.empty()) {
      const MutexLock lock(table_mutex_);
      stats_.drift_checks += checked;
      stats_.drift_alarms += alarms.size();
    }
  }
  return newly_drifted;
}

RG_THREAD(any) Result<ThresholdSketch> TeleopGateway::cohort_sketch() const {
  // Gather per-session sketches from every shard, then merge in globally
  // ascending session-id order — the fixed order that makes the cohort
  // sketch (and its digest) invariant under the shard count.
  std::vector<std::pair<std::uint32_t, ThresholdSketch>> all;
  for (const auto& shard : shards_) {
    auto sketches = shard->session_sketches();
    all.insert(all.end(), std::make_move_iterator(sketches.begin()),
               std::make_move_iterator(sketches.end()));
  }
  if (all.empty()) {
    return Error(ErrorCode::kNotReady, "cohort_sketch: no session has a calibration sketch");
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ThresholdSketch cohort(all.front().second.target_quantile());
  for (const auto& [id, sketch] : all) cohort.merge(sketch);
  return cohort;
}

RG_THREAD(pump) void TeleopGateway::drain() {
  // Signaled, not polled: each shard's worker bumps its completion count
  // as bursts finish and wait_idle() blocks on that CV until everything
  // submitted so far has been processed (inline shards just run their
  // pending work on this thread).
  for (auto& shard : shards_) shard->wait_idle();
}

RG_THREAD(pump) void TeleopGateway::shutdown() {
  {
    const MutexLock lock(table_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    for (auto& [ep, rec] : table_) {
      (void)shards_[rec.shard]->submit(
          ShardItem{ShardItem::Kind::kClose, rec.id, ItpBytes{}, 0});
      ++stats_.sessions_evicted;
      persist_close(rec.id);
      evicted_[ep] = rec;
    }
    table_.clear();
  }
  drain();
  for (auto& shard : shards_) shard->stop();
}

RG_THREAD(pump) void TeleopGateway::persist_close(std::uint32_t session_id) {
  if (config_.persist == nullptr) return;
  persist::StateOp op;
  op.kind = persist::StateOp::Kind::kClose;
  op.session = session_id;
  (void)config_.persist->submit(op);
}

RG_THREAD(pump) IngestVerdict TeleopGateway::ingest(const Endpoint& from,
                                                    std::span<const std::uint8_t> bytes,
                                                    std::uint64_t now_ms,
                                                    std::uint64_t ingest_ns) {
  const MutexLock lock(table_mutex_);

  // 0. Fail-safe latch: recovery could not verify the persisted state,
  // so no traffic is trusted until an operator intervenes.
  if (fail_safe_) return IngestVerdict::kEstopLatched;

  // 1. Frame size (+ MAC tag when the integrity retrofit is on).
  std::span<const std::uint8_t> itp = bytes;
  if (config_.require_mac) {
    if (bytes.size() != kMacFrameSize) return IngestVerdict::kBadSize;
    if (!verify_itp_frame(bytes, config_.mac_key)) return IngestVerdict::kBadMac;
    itp = bytes.first(kItpPacketSize);
  } else if (bytes.size() != kItpPacketSize) {
    return IngestVerdict::kBadSize;
  }

  // 2. ITP decode: checksum and undefined flag bits.
  const Result<ItpPacket> decoded = decode_itp(itp, config_.verify_checksum);
  if (!decoded) {
    return decoded.error().code() == ErrorCode::kMalformedFlags ? IngestVerdict::kBadFlags
                                                                : IngestVerdict::kBadChecksum;
  }

  // 3. Session admission (first valid datagram from an endpoint opens it).
  auto it = table_.find(from);
  if (it == table_.end()) {
    if (table_.size() >= config_.max_sessions) return IngestVerdict::kSessionLimit;
    SessionRecord rec;
    rec.id = next_session_id_++;
    rec.shard = rec.id % shards_.size();
    rec.last_seen_ms = now_ms;
    it = table_.emplace(from, rec).first;
    ++stats_.sessions_opened;
    (void)shards_[rec.shard]->submit(ShardItem{ShardItem::Kind::kOpen, rec.id, ItpBytes{}, 0});
    if (config_.persist != nullptr) {
      persist::StateOp op;
      op.kind = persist::StateOp::Kind::kOpen;
      op.session = rec.id;
      op.ip = from.ip;
      op.port = from.port;
      (void)config_.persist->submit(op);
    }
  }
  SessionRecord& rec = it->second;
  rec.last_seen_ms = now_ms;

  // 3b. Persisted E-STOP latch (restored from disk): the session exists
  // but accepts nothing until it is evicted and re-admitted fresh.
  if (rec.estop_latched) return IngestVerdict::kEstopLatched;

  // 4. Anti-replay sequence window.
  const ReplayWindow::Outcome seq = rec.window.check_and_update(decoded.value().sequence);
  if (seq.verdict != IngestVerdict::kAccepted) {
    switch (seq.verdict) {
      case IngestVerdict::kDuplicate: ++rec.counters.duplicates; break;
      case IngestVerdict::kReplayed: ++rec.counters.replayed; break;
      default: ++rec.counters.stale; break;
    }
    return seq.verdict;
  }
  rec.counters.lost_gap += seq.gap;
  if (seq.out_of_order) {
    ++rec.counters.out_of_order;
    ++stats_.out_of_order_accepted;
  }

  // 5. Hand off to the owning shard (full SPSC ring = backpressure).
  ShardItem item{ShardItem::Kind::kDatagram, rec.id, ItpBytes{}, ingest_ns};
  std::copy(itp.begin(), itp.end(), item.bytes.begin());
  if (!shards_[rec.shard]->submit(item)) {
    ++rec.counters.backpressure;
    return IngestVerdict::kBackpressure;
  }
  ++rec.counters.accepted;
  if (config_.persist != nullptr) {
    // Window note: coalesced per session by the plane's flusher, so the
    // WAL cost is ~1 record per dirty session per flush period.
    persist::StateOp op;
    op.kind = persist::StateOp::Kind::kWindow;
    op.session = rec.id;
    op.newest = rec.window.newest();
    op.mask = rec.window.mask();
    op.flag = rec.window.started() ? 1 : 0;
    (void)config_.persist->submit(op);
  }
  return IngestVerdict::kAccepted;
}

RG_THREAD(pump) void TeleopGateway::note(IngestVerdict v) {
  auto& reg = obs::Registry::global();
  reg.add(ingest_counter_);
  const MutexLock lock(table_mutex_);
  ++stats_.datagrams;
  switch (v) {
    case IngestVerdict::kAccepted:
      ++stats_.accepted;
      reg.add(accept_counter_);
      return;
    case IngestVerdict::kBadSize: ++stats_.rejected_size; break;
    case IngestVerdict::kBadMac: ++stats_.rejected_mac; break;
    case IngestVerdict::kBadChecksum: ++stats_.rejected_checksum; break;
    case IngestVerdict::kBadFlags: ++stats_.rejected_flags; break;
    case IngestVerdict::kDuplicate: ++stats_.rejected_duplicate; break;
    case IngestVerdict::kReplayed: ++stats_.rejected_replayed; break;
    case IngestVerdict::kStale: ++stats_.rejected_stale; break;
    case IngestVerdict::kSessionLimit: ++stats_.rejected_session_limit; break;
    case IngestVerdict::kBackpressure: ++stats_.backpressure_dropped; break;
    case IngestVerdict::kEstopLatched: ++stats_.rejected_estop; break;
  }
  reg.add(reject_counter_);
}

RG_THREAD(pump) void TeleopGateway::evict_idle(std::uint64_t now_ms) {
  const MutexLock lock(table_mutex_);
  for (auto it = table_.begin(); it != table_.end();) {
    const SessionRecord& rec = it->second;
    if (now_ms - rec.last_seen_ms >= config_.idle_timeout_ms) {
      (void)shards_[rec.shard]->submit(
          ShardItem{ShardItem::Kind::kClose, rec.id, ItpBytes{}, 0});
      ++stats_.sessions_evicted;
      persist_close(rec.id);
      evicted_[it->first] = rec;
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

RG_THREAD(any) std::vector<ShardPipelineStats> TeleopGateway::shard_stats() const {
  std::vector<ShardPipelineStats> out;
  out.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    out.push_back(ShardPipelineStats{i, shards_[i]->ticks(), shards_[i]->ring_full(),
                                     shards_[i]->queue_high_watermark()});
  }
  return out;
}

RG_THREAD(any) GatewayStats TeleopGateway::stats() const {
  const MutexLock lock(table_mutex_);
  GatewayStats out = stats_;
  out.active_sessions = table_.size();
  return out;
}

RG_THREAD(any) SessionStats TeleopGateway::snapshot_session(const Endpoint& ep,
                                                            const SessionRecord& rec,
                                                            bool active) const {
  SessionStats s;
  s.id = rec.id;
  s.endpoint = ep;
  s.active = active;
  s.last_seen_ms = rec.last_seen_ms;
  s.counters = rec.counters;
  if (const auto shard = shards_[rec.shard]->session_stats(rec.id)) s.shard = *shard;
  return s;
}

RG_THREAD(any) std::vector<SessionStats> TeleopGateway::sessions() const {
  std::vector<SessionStats> out;
  {
    const MutexLock lock(table_mutex_);
    out.reserve(table_.size() + evicted_.size());
    for (const auto& [ep, rec] : table_) out.push_back(snapshot_session(ep, rec, true));
    for (const auto& [ep, rec] : evicted_) out.push_back(snapshot_session(ep, rec, false));
  }
  std::sort(out.begin(), out.end(),
            [](const SessionStats& a, const SessionStats& b) { return a.id < b.id; });
  return out;
}

}  // namespace rg::svc
