// SessionEngine: one surgeon session's server-side stack.
//
// The gateway runs, per session, the same trusted chain the simulation
// harness wires up — the shared RobotStack (stack/robot_stack.hpp):
// control software, PLC, USB interface board, plant twin, and the
// detection pipeline — but driven by *externally ingested* ITP datagrams
// instead of an in-process master console.  One accepted datagram
// advances the session by exactly one 1 kHz control tick, so a session's
// verdict stream is a pure function of its datagram stream: that is what
// makes gateway runs deterministic at any shard count.
//
// On top of the stack the engine keeps the session's verdict digest,
// counters and optional calibration sketch.  A shard runs up to
// kBatchLanes sessions' stacks through resolve_lanes() between their
// tick_begin() and record_verdict(), and steps their plant periods later
// through step_plant_lanes() (stack/robot_stack.hpp), before each
// session's next tick_begin().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/realtime.hpp"
#include "core/quantile_sketch.hpp"
#include "stack/robot_stack.hpp"

namespace rg::svc {

/// Per-session streaming calibration: when enabled the engine feeds every
/// valid prediction into a ThresholdSketch on the tick path (observe() is
/// RG_REALTIME), so the gateway can compare a live session's quantiles
/// against its cohort's committed thresholds (drift detection) and merge
/// session sketches into a cohort calibration.
struct SessionCalibrationConfig {
  bool enabled = false;
  /// Quantile the sketch tracks exactly (see target_quantile_for()).
  double target_quantile = kDefaultThresholdPercentile / 100.0;
};

struct SessionEngineConfig {
  ControlConfig control{};
  PlantConfig plant{};
  PlcConfig plc{};
  MotorChannelConfig channel{};
  PipelineConfig detection{};
  SessionCalibrationConfig calibration{};
  /// Plant start configuration (defaults to just off the homing target,
  /// as in the simulation harness, so homing does real work).
  std::optional<JointVector> initial_joints{};
};

class SessionEngine {
 public:
  /// What one tick produced (the session's externally visible verdict).
  struct TickResult {
    bool screened = false;
    bool alarm = false;
    bool blocked = false;
  };

  explicit SessionEngine(const SessionEngineConfig& config);

  /// Scalar convenience: one full control tick consuming `itp` (nullopt
  /// models a within-session gap the caller chose to tick through).
  RG_REALTIME TickResult tick(std::optional<std::span<const std::uint8_t>> itp);

  // --- phase-split tick (RobotStack's phases, see stack/robot_stack.hpp) ---
  /// Arms the session on its first tick, then the stack's tick_begin.
  RG_REALTIME void tick_begin(std::optional<std::span<const std::uint8_t>> itp);
  [[nodiscard]] RG_REALTIME bool needs_solve() const noexcept { return stack_.needs_solve(); }
  [[nodiscard]] RG_REALTIME const PendingSolve& pending_solve() const noexcept {
    return stack_.pending_solve();
  }
  RG_REALTIME void tick_resolve(const RavenDynamicsModel::State& next) {
    stack_.tick_resolve(next);
  }
  [[nodiscard]] RG_REALTIME const PlantDrive& drive() const noexcept { return stack_.drive(); }
  /// The verdict's digest, counters, sketch and tick count — everything
  /// but the plant.  Valid any time between tick_resolve and the next
  /// tick_begin, whether or not the plant period has run yet.
  RG_REALTIME TickResult record_verdict();
  /// Encoder latch + record_verdict(), after the caller stepped the plant
  /// (scalar or batched lane) with drive() itself.
  RG_REALTIME TickResult tick_finish();

  // --- introspection -------------------------------------------------------
  [[nodiscard]] RG_REALTIME RobotStack& stack() noexcept { return stack_; }
  [[nodiscard]] RG_REALTIME PhysicalRobot& plant() noexcept { return stack_.plant(); }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
  [[nodiscard]] std::uint64_t alarms() const noexcept { return alarms_; }
  [[nodiscard]] std::uint64_t blocked() const noexcept { return blocked_; }
  /// Whether the session's PLC has latched E-STOP (absorbing until reset;
  /// surfaced through ShardSessionStats and the admin /readyz probe).
  [[nodiscard]] bool estop_latched() const noexcept { return stack_.plc().estop_latched(); }

  /// FNV-1a fold of every tick's verdict (screened/alarm/blocked and the
  /// bit pattern of the predicted end-effector displacement).  Two runs
  /// that fed a session the same datagram stream must produce the same
  /// digest regardless of sharding or batching — the determinism probe
  /// tests/test_gateway.cpp asserts.
  [[nodiscard]] std::uint64_t verdict_digest() const noexcept { return digest_; }

  /// The session's streaming calibration sketch, or nullptr when
  /// calibration is disabled.  Owned by the engine; read it only from the
  /// thread that advances the session (the owning shard).
  [[nodiscard]] const ThresholdSketch* calibration_sketch() const noexcept {
    return sketch_.get();
  }

 private:
  RG_REALTIME void fold_digest(const DetectionPipeline::Outcome& out) noexcept;

  RobotStack stack_;

  /// Heap-allocated (once, at construction) so disabled sessions don't
  /// pay the sketch's ~74 KB of exact-phase buffers.
  std::unique_ptr<ThresholdSketch> sketch_;

  std::uint64_t ticks_ = 0;
  std::uint64_t alarms_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

}  // namespace rg::svc
