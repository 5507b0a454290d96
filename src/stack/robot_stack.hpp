// RobotStack: the trusted RAVEN control chain one surgeon session runs —
// control software, detection pipeline (optional, trusted), USB board,
// PLC and plant twin — shared by the co-simulation harness
// (sim/surgical_sim.hpp) and the teleoperation gateway
// (svc/session_engine.hpp), which differ only in where the ITP datagram
// comes from and in what they record about each tick.
//
// The tick is phase-split: A. tick_begin() (feedback → control tick →
// engage/observe → screening up to the model solve), B. estimator solve,
// C. tick_resolve() (verdict → E-STOP mitigation → board latch → PLC),
// D. plant period, E. tick_finish() (encoder latch).  Two lane drivers
// batch them across up to kBatchLanes stacks: resolve_lanes() is the
// verdict half (B–C), step_plant_lanes() the plant half (D–E), and
// step_lanes() runs one after the other.  The halves need not run
// together: a stack's plant period for tick t may be stepped any time
// before its tick t+1's tick_begin() reads the encoders, and with any
// other stacks.  The batched kernels (dynamics/batch_model.hpp) are
// bit-identical to the scalar ones, so batching never perturbs a
// verdict, trace or digest.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/realtime.hpp"
#include "control/control_software.hpp"
#include "core/pipeline.hpp"
#include "dynamics/batch_model.hpp"
#include "hw/plc.hpp"
#include "hw/usb_board.hpp"
#include "plant/physical_robot.hpp"

namespace rg {

/// The control host's two USB hops (paper Fig. 4), where a malicious
/// syscall wrapper sits; the simulator routes them through its interposer
/// chains.  Return false to drop the buffer: a dropped read leaves the
/// software on its previous feedback, a dropped write reaches neither the
/// detector nor the board.  Without hops every buffer passes untouched.
class UsbHops {
 public:
  virtual bool on_read(std::span<std::uint8_t> feedback) = 0;
  virtual bool on_write(std::span<std::uint8_t> command) = 0;

 protected:
  ~UsbHops() = default;
};

class RobotStack {
 public:
  /// `initial_joints` defaults to just off the homing target, so homing
  /// does real work; `detection` nullopt is the stock RAVEN system.
  RobotStack(const ControlConfig& control, const PlantConfig& plant, const PlcConfig& plc,
             const MotorChannelConfig& channel, const std::optional<PipelineConfig>& detection,
             const std::optional<JointVector>& initial_joints);

  RobotStack(const RobotStack&) = delete;
  RobotStack& operator=(const RobotStack&) = delete;

  /// True when two stacks may share a step_lanes() batch: plant configs
  /// equal modulo seed, pipelines either both absent or running the same
  /// estimator model/solver/step (thresholds and gains may differ).
  [[nodiscard]] static bool compatible(const RobotStack& a, const RobotStack& b);

  /// Press the physical start button (control software and PLC together).
  RG_REALTIME void press_start();
  [[nodiscard]] RG_REALTIME bool started() const noexcept { return started_; }

  /// Phase A.  `itp` is the datagram the control software consumes this
  /// tick (nullopt: none arrived).
  RG_REALTIME void tick_begin(std::optional<std::span<const std::uint8_t>> itp,
                              UsbHops* hops = nullptr);
  [[nodiscard]] RG_REALTIME bool needs_solve() const noexcept {
    return scratch_.screened && !scratch_.screen.complete;
  }
  [[nodiscard]] RG_REALTIME const PendingSolve& pending_solve() const noexcept {
    return scratch_.screen.pending;
  }
  /// Phase C; sets drive().  `next` is ignored unless needs_solve().
  RG_REALTIME void tick_resolve(const RavenDynamicsModel::State& next);
  /// The plant drive phase D executes; valid until the next tick_begin().
  [[nodiscard]] RG_REALTIME const PlantDrive& drive() const noexcept { return scratch_.drive; }
  /// Phase E, after the plant executed drive(): latch the encoders the
  /// next tick_begin() reads.
  RG_REALTIME void tick_finish();

  // --- this tick, valid from tick_resolve to the next tick_begin ------------
  /// The pipeline screened a delivered command this tick.
  [[nodiscard]] RG_REALTIME bool screened() const noexcept { return scratch_.screened; }
  [[nodiscard]] RG_REALTIME const DetectionPipeline::Outcome& outcome() const noexcept {
    return scratch_.det;
  }
  /// The board accepted this tick's command (false when none was
  /// delivered or the board refused it and kept its previous latch).
  [[nodiscard]] RG_REALTIME bool accepted() const noexcept { return scratch_.accepted; }

  // --- components ----------------------------------------------------------
  [[nodiscard]] ControlSoftware& control() noexcept { return control_; }
  [[nodiscard]] RG_REALTIME Plc& plc() noexcept { return plc_; }
  [[nodiscard]] const Plc& plc() const noexcept { return plc_; }
  [[nodiscard]] UsbBoard& board() noexcept { return board_; }
  [[nodiscard]] RG_REALTIME PhysicalRobot& plant() noexcept { return plant_; }
  [[nodiscard]] RG_REALTIME DetectionPipeline* pipeline() noexcept {
    return pipeline_ ? &*pipeline_ : nullptr;
  }

 private:
  /// Everything one tick carries across phase boundaries.
  struct TickScratch {
    CommandBytes cmd{};
    bool deliver = false;
    bool screened = false;
    bool accepted = false;
    DetectionPipeline::ScreenState screen{};
    DetectionPipeline::Outcome det{};
    PlantDrive drive{};
  };

  ControlSoftware control_;
  Plc plc_;
  UsbBoard board_;
  PhysicalRobot plant_;
  std::optional<DetectionPipeline> pipeline_;
  /// A blocked command also asserts the E-STOP line (armed kEStop
  /// mitigation), so the PLC drops the brakes immediately.
  bool estop_on_block_ = false;
  bool started_ = false;
  /// The feedback buffer the control software consumes (kept across a
  /// dropped USB read).
  FeedbackBytes feedback_{};
  TickScratch scratch_{};
};

/// Verdict half (phases B–C) of one tick across 1..kBatchLanes pairwise
/// compatible() stacks whose tick_begin() has run: one batched estimator
/// solve for the lanes that need one (unused lanes get a broadcast of the
/// first solving lane, so their discarded math stays finite), then every
/// lane's tick_resolve().  A single lane runs the scalar solve instead —
/// bit-identical, without batch set-up.  `est_model` is the batched twin
/// of the lanes' estimator model; it may be null for a single lane or for
/// stacks without pipelines.
RG_REALTIME RG_DETERMINISTIC void resolve_lanes(std::span<RobotStack* const> lanes,
                                                const BatchRavenModel* est_model);

/// Plant half (phases D–E) across 1..kBatchLanes pairwise compatible()
/// stacks whose tick_resolve() has run and whose plant period is still
/// due: one batched plant period executing each lane's drive() (a single
/// lane runs the scalar period), then every lane's tick_finish().  The
/// lanes need not have resolved together.  The caller proves
/// compatibility where it groups the stacks; this driver re-checks only
/// the lane count.
RG_REALTIME RG_DETERMINISTIC void step_plant_lanes(std::span<RobotStack* const> lanes);

/// One whole tick after tick_begin(): resolve_lanes() then
/// step_plant_lanes() over the same lanes.
RG_REALTIME RG_DETERMINISTIC void step_lanes(std::span<RobotStack* const> lanes,
                                             const BatchRavenModel* est_model);

}  // namespace rg
