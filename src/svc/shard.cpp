#include "svc/shard.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "obs/span.hpp"

namespace rg::svc {

GatewayShard::GatewayShard(const ShardConfig& config)
    : config_(config),
      ring_(config.max_queue),
      burst_(std::min(kDrainBurst, config.max_queue)),
      est_model_(config.engine.detection.estimator.model) {
  chunk_.reserve(kBatchLanes);
  datagrams_.reserve(kBatchLanes);
  auto& reg = obs::Registry::global();
  latency_hist_ = reg.histogram("rg.gw.ingest_to_verdict_ns");
  round_lanes_hist_ = reg.histogram("rg.gw.round.lanes");
  plant_lanes_hist_ = reg.histogram("rg.gw.plant.lanes");
  ticks_counter_ =
      reg.counter("rg.gw.shard." + std::to_string(config.index) + ".ticks");
  queue_hwm_gauge_ =
      reg.gauge("rg.gw.shard." + std::to_string(config.index) + ".queue_hwm");
  ring_full_counter_ =
      reg.counter("rg.gw.shard." + std::to_string(config.index) + ".ring_full");
}

GatewayShard::~GatewayShard() { stop(); }

RG_THREAD(any) void GatewayShard::start() {
  if (!config_.threaded || started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  // rg-lint: allow(thread_role) -- thread entry: this lambda IS the shard thread
  worker_ = std::thread([this] { worker_loop(); });
}

RG_THREAD(any) void GatewayShard::stop() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    // The empty critical section orders the store against a worker that
    // is between its predicate check and its wait.
    const std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  started_ = false;
  idle_cv_.notify_all();  // release wait_idle() callers
}

RG_REALTIME RG_THREAD(pump) bool GatewayShard::submit(const ShardItem& item) {
  if (stop_.load(std::memory_order_relaxed)) return false;
  if (!ring_.try_push(item)) {
    if (item.kind == ShardItem::Kind::kDatagram) {
      // Backpressure: the caller counts the drop; we count the cause.
      ring_full_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::global().add(ring_full_counter_);
      return false;
    }
    // Control items (open/close) must never drop — session lifecycle on
    // the shard would diverge from the gateway's table.  Threaded: the
    // worker is draining, so wake it and spin until a slot frees.
    // Inline: the consumer IS this thread, so drain the ring ourselves.
    while (!ring_.try_push(item)) {
      if (stop_.load(std::memory_order_relaxed)) return false;
      if (started_) {
        wake_worker();
        std::this_thread::yield();
      } else {
        process_pending();  // rg-lint: allow(call) -- inline-mode slow path, off the ring fast path
      }
    }
  }
  ++submitted_;
  const std::size_t depth = ring_.size_approx();
  if (depth > queue_hwm_.load(std::memory_order_relaxed)) {
    queue_hwm_.store(depth, std::memory_order_relaxed);
    obs::Registry::global().set(queue_hwm_gauge_, static_cast<double>(depth));
  }
  wake_worker();
  return true;
}

RG_REALTIME RG_THREAD(pump) void GatewayShard::wake_worker() {
  if (!started_) return;
  // Producer half of the lost-wakeup protocol: the push above (release),
  // then a seq_cst RMW on wake_seq_, then the sleeping_ check.  Both
  // sides RMW the same atomic, so whichever lands later in its
  // modification order acquires the other side's prior writes: either
  // our push is visible to the worker's ring-empty recheck (worker never
  // sleeps) or its sleeping_=true is visible to our load (we knock).  An
  // RMW rather than atomic_thread_fence so ThreadSanitizer can model it
  // (GCC -fsanitize=thread has no fence instrumentation and warns).
  wake_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (sleeping_.load(std::memory_order_relaxed)) {
    // Taking the mutex pins the worker on either side of its wait —
    // notify cannot land inside the check-then-wait window.
    const std::lock_guard<std::mutex> lock(wake_mutex_);  // rg-lint: allow(lock) -- only reached when the worker is provably asleep
    wake_cv_.notify_one();
  }
}

RG_THREAD(shard) void GatewayShard::worker_loop() {
  std::vector<ShardItem> burst(std::min(kDrainBurst, config_.max_queue));
  while (true) {
    drain_burst(burst);
    if (stop_.load(std::memory_order_acquire) && ring_.empty()) return;

    // Consumer half of the lost-wakeup protocol (see wake_worker).
    std::unique_lock<std::mutex> lock(wake_mutex_);
    sleeping_.store(true, std::memory_order_relaxed);
    wake_seq_.fetch_add(1, std::memory_order_seq_cst);
    if (ring_.empty() && !stop_.load(std::memory_order_relaxed)) {
      wake_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) || !ring_.empty();
      });
    }
    sleeping_.store(false, std::memory_order_relaxed);
  }
}

RG_THREAD(shard) void GatewayShard::drain_burst(std::vector<ShardItem>& burst) {
  while (true) {
    const std::size_t n = ring_.pop_batch(burst.data(), burst.size());
    if (n == 0) return;
    {
      const MutexLock state(state_mutex_);
      apply_items(burst.data(), n);
      run_rounds();
    }
    {
      const std::lock_guard<std::mutex> lock(idle_mutex_);
      completed_ += n;
    }
    idle_cv_.notify_all();
  }
}

RG_THREAD(pump) void GatewayShard::process_pending() {
  // rg-lint: allow(thread_role) -- inline mode: the pump thread IS the shard consumer here
  drain_burst(burst_);
}

RG_THREAD(pump) void GatewayShard::wait_idle() {
  if (!started_) {
    process_pending();
    return;
  }
  const std::uint64_t target = submitted_;
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock, [&] {
    return completed_ >= target || stop_.load(std::memory_order_relaxed);
  });
}

RG_THREAD(shard) void GatewayShard::apply_items(const ShardItem* items, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const ShardItem& item = items[i];
    switch (item.kind) {
      case ShardItem::Kind::kOpen: {
        SessionEngineConfig cfg = config_.engine;
        cfg.plant.seed = config_.plant_seed_base + item.session;
        sessions_.emplace(item.session, std::make_unique<LocalSession>(cfg));
        ready_.reserve(sessions_.size());
        break;
      }
      case ShardItem::Kind::kClose: {
        const auto it = sessions_.find(item.session);
        if (it == sessions_.end()) break;
        const SessionEngine& eng = it->second->engine;
        retired_[item.session] = ShardSessionStats{eng.ticks(), eng.alarms(), eng.blocked(),
                                                   eng.verdict_digest(), eng.estop_latched()};
        sessions_.erase(it);
        break;
      }
      case ShardItem::Kind::kDatagram: {
        const auto it = sessions_.find(item.session);
        if (it == sessions_.end()) break;  // evicted between accept and drain
        it->second->mailbox.emplace_back(item.bytes, item.ingest_ns);
        break;
      }
    }
  }
}

RG_THREAD(shard) void GatewayShard::run_rounds() {
  while (true) {
    ready_.clear();
    for (auto& [id, ls] : sessions_) {  // std::map: ascending id, deterministic
      if (!ls->mailbox.empty()) ready_.push_back(ls.get());
    }
    if (ready_.empty()) break;
    for (std::size_t base = 0; base < ready_.size(); base += kBatchLanes) {
      const std::size_t n = std::min(kBatchLanes, ready_.size() - base);
      chunk_.assign(ready_.begin() + static_cast<std::ptrdiff_t>(base),
                    ready_.begin() + static_cast<std::ptrdiff_t>(base + n));
      datagrams_.clear();
      for (LocalSession* ls : chunk_) {
        datagrams_.push_back(std::move(ls->mailbox.front()));
        ls->mailbox.pop_front();
      }
      step_due_plants(chunk_);
      round_tick(chunk_, datagrams_);
    }
  }
}

RG_REALTIME RG_THREAD(shard) RG_DETERMINISTIC void GatewayShard::step_due_plants(
    const std::vector<LocalSession*>& chunk) {
  std::array<RobotStack*, kBatchLanes> lanes{};
  std::size_t n = 0;
  const auto take_if_due = [&](LocalSession& ls) {
    if (!ls.plant_due) return;
    ls.plant_due = false;
    lanes[n++] = &ls.engine.stack();
  };
  // The chunk's sessions whose last tick's plant period is still due:
  // their tick_begin is about to read the encoders that period latches.
  for (LocalSession* ls : chunk) take_if_due(*ls);
  if (n == 0) return;
  // Fill the call with the shard's other due sessions, ascending id, so
  // their periods ride this full-width call instead of a later, emptier
  // one.  Every session comes from config_.engine with only its plant
  // seed changed, so any lanes are compatible.
  for (auto it = sessions_.begin(); n < kBatchLanes && it != sessions_.end(); ++it) {
    take_if_due(*it->second);
  }
  obs::Registry::global().observe(plant_lanes_hist_, n);
  step_plant_lanes(std::span<RobotStack* const>{lanes.data(), n});
}

RG_REALTIME RG_THREAD(shard) RG_DETERMINISTIC void GatewayShard::round_tick(
    std::vector<LocalSession*>& chunk,
    std::vector<std::pair<ItpBytes, std::uint64_t>>& datagrams) {
  RG_SPAN("gw.round");
  const std::size_t n = chunk.size();
  auto& reg = obs::Registry::global();
  reg.observe(round_lanes_hist_, n);

  // Control cycle + screening, then the verdict half of the shared lane
  // driver (batched solve, verdicts, mitigation), then per-session
  // bookkeeping.  Each plant period is left due for step_due_plants.
  std::array<RobotStack*, kBatchLanes> lanes{};
  for (std::size_t l = 0; l < n; ++l) {
    chunk[l]->engine.tick_begin(std::span<const std::uint8_t>{datagrams[l].first});
    lanes[l] = &chunk[l]->engine.stack();
  }
  resolve_lanes(std::span<RobotStack* const>{lanes.data(), n}, &est_model_);

  // rg-lint: allow(nondet) -- latency histogram only; never feeds the verdict
  const std::uint64_t done_ns = obs::monotonic_ns();
  for (std::size_t l = 0; l < n; ++l) {
    (void)chunk[l]->engine.record_verdict();
    chunk[l]->plant_due = true;
    reg.observe(latency_hist_, done_ns - datagrams[l].second);
  }
  total_ticks_ += n;
  reg.add(ticks_counter_, n);
}

RG_THREAD(any) std::optional<ShardSessionStats> GatewayShard::session_stats(std::uint32_t id) const {
  const MutexLock lock(state_mutex_);
  const auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    const SessionEngine& eng = it->second->engine;
    return ShardSessionStats{eng.ticks(), eng.alarms(), eng.blocked(), eng.verdict_digest(),
                             eng.estop_latched()};
  }
  const auto rit = retired_.find(id);
  if (rit != retired_.end()) return rit->second;
  return std::nullopt;
}

RG_THREAD(any) std::uint64_t GatewayShard::ticks() const noexcept {
  const MutexLock lock(state_mutex_);
  return total_ticks_;
}

RG_THREAD(any) std::size_t GatewayShard::queue_high_watermark() const noexcept {
  return queue_hwm_.load(std::memory_order_relaxed);
}

RG_THREAD(any) std::uint64_t GatewayShard::ring_full() const noexcept {
  return ring_full_.load(std::memory_order_relaxed);
}

RG_THREAD(any) std::vector<GatewayShard::DriftAlarm> GatewayShard::scan_drift(
    const DetectionThresholds& committed, double percentile_value, double max_ratio,
    std::uint64_t min_samples, std::uint64_t* checked) {
  std::vector<DriftAlarm> alarms;
  std::uint64_t examined = 0;
  const MutexLock lock(state_mutex_);
  for (auto& [id, ls] : sessions_) {  // std::map: ascending id, deterministic
    if (ls->drift_latched) continue;
    const ThresholdSketch* sketch = ls->engine.calibration_sketch();
    if (sketch == nullptr) continue;
    ++examined;
    const DriftVerdict verdict =
        check_drift(*sketch, committed, percentile_value, max_ratio, min_samples);
    if (verdict.drifted) {
      ls->drift_latched = true;
      alarms.push_back(DriftAlarm{id, verdict});
    }
  }
  if (checked != nullptr) *checked = examined;
  return alarms;
}

RG_THREAD(any) std::vector<std::pair<std::uint32_t, ThresholdSketch>> GatewayShard::session_sketches()
    const {
  std::vector<std::pair<std::uint32_t, ThresholdSketch>> out;
  const MutexLock lock(state_mutex_);
  for (const auto& [id, ls] : sessions_) {
    const ThresholdSketch* sketch = ls->engine.calibration_sketch();
    if (sketch != nullptr) out.emplace_back(id, *sketch);
  }
  return out;
}

}  // namespace rg::svc
