// Real-time one-step-ahead state estimation — the dynamic model at the
// centre of the paper's detection framework.
//
// The model runs *in parallel* with the robot (paper Fig. 8: "running the
// model in parallel with the physical system and both receiving the same
// control input"): its state evolves continuously under the executed DAC
// commands, with a gentle Luenberger-style correction toward the encoder
// feedback.  The soft correction matters: a hard per-tick resync would
// inject encoder-quantization noise straight into the predicted
// accelerations and force uselessly loose detection thresholds.
//
// For each candidate command the estimator integrates one control period
// forward (tentatively) and reports the paper's detection variables:
//
//   instant velocity  = (predicted position - current position) / dt
//   instant accel     = (predicted velocity - current velocity) / dt
//
// After screening, the pipeline *commits* the command that actually
// executed (original or mitigated), advancing the parallel model.
//
// The estimator deliberately runs a calibrated-but-imperfect copy of the
// physics (the paper tuned coefficients by hand against the robot):
// residual model error is what forces non-trivial thresholds.
#pragma once

#include <array>
#include <cstdint>

#include "common/clock.hpp"
#include "common/realtime.hpp"
#include "dynamics/raven_model.hpp"
#include "hw/motor_controller.hpp"
#include "hw/usb_packet.hpp"
#include "kinematics/raven_kinematics.hpp"
#include "ode/integrators.hpp"

namespace rg {

struct EstimatorConfig {
  /// The detector's model of the robot (typically built with
  /// RavenDynamicsParams::with_calibration_error to differ from the
  /// physical plant).
  RavenDynamicsParams model = RavenDynamicsParams::raven_defaults();
  /// Integration scheme and step — the Fig. 8 trade-off axis.
  SolverKind solver = SolverKind::kEuler;
  double step = kControlPeriodSec;
  /// DAC/encoder conversions (must match the interface board).
  MotorChannelConfig channel{};
  /// Observer correction gains: position fraction per tick, and velocity
  /// correction per unit position error per second.
  double observer_position_gain = 0.2;
  double observer_velocity_gain = 40.0;
  /// Kinematics for end-effector displacement prediction.
  Position rcm_origin{};
};

/// Snapshot of one deferred model integration: everything needed to turn
/// the estimator's current state into its one-step-ahead state.  Produced
/// by DynamicModelEstimator::begin_predict and consumed either by the
/// scalar DynamicModelEstimator::solve or — for lane batches — by a
/// BatchRavenModel solving many stacks' pendings lane-wise (step_lanes,
/// stack/robot_stack.hpp).  `active` is false while the estimator has no
/// encoder feedback yet (nothing to integrate; the prediction is invalid).
struct PendingSolve {
  RavenDynamicsModel::State x0{};
  Vec3 currents{};
  double h = 0.0;
  SolverKind solver = SolverKind::kEuler;
  bool active = false;
};

/// One-step-ahead prediction produced for every DAC command.
struct Prediction {
  MotorVector mpos_now{};
  MotorVector mvel_now{};
  JointVector jpos_now{};
  MotorVector mpos_next{};
  MotorVector mvel_next{};
  JointVector jpos_next{};
  JointVector jvel_next{};
  /// Detection variables (per axis, absolute values).
  Vec3 motor_instant_vel{};  ///< rad/s
  Vec3 motor_instant_acc{};  ///< rad/s^2
  Vec3 joint_instant_vel{};  ///< rad/s (m/s for axis 2)
  /// Predicted end-effector displacement over the step (m).
  double ee_displacement = 0.0;
  bool valid = false;  ///< false until the estimator has feedback
};

class DynamicModelEstimator {
 public:
  explicit DynamicModelEstimator(const EstimatorConfig& config = {});

  /// Feed the encoder angles observed this cycle (the same feedback the
  /// control software read).  First call hard-syncs; later calls apply
  /// the soft observer correction.
  RG_REALTIME void observe_feedback(const MotorVector& encoder_angles) noexcept;

  /// Predict the physical consequence of executing `dac` (the modelled
  /// channels of the command packet about to be written).  Tentative —
  /// does not advance the parallel model.
  [[nodiscard]] RG_REALTIME Prediction predict(const std::array<std::int16_t, 3>& dac) noexcept;

  /// Convenience: predict from a decoded command packet.
  [[nodiscard]] RG_REALTIME Prediction predict(const CommandPacket& cmd) noexcept {
    return predict({cmd.dac[0], cmd.dac[1], cmd.dac[2]});
  }

  // --- deferred-solve decomposition of predict() ---------------------------
  // predict(dac) == finish_predict(dac, solve(begin_predict(dac))).  The
  // split lets step_lanes (stack/robot_stack.hpp) gather many stacks'
  // begin_predict snapshots, integrate them in one batched SoA solve, and
  // hand each stack its lane back through finish_predict.

  /// Snapshot the inputs of the one-step integration for `dac`.  Does not
  /// touch estimator state.  `active` is false without feedback.
  [[nodiscard]] RG_REALTIME PendingSolve begin_predict(const std::array<std::int16_t, 3>& dac) const noexcept;

  /// Run one deferred integration (the scalar path).  Counted in solves().
  [[nodiscard]] RG_REALTIME RavenDynamicsModel::State solve(const PendingSolve& pending) noexcept;

  /// Derive the detection variables from the solved next-state and cache
  /// it, so a commit() of the same `dac` reuses the solution instead of
  /// re-integrating (the predict/commit pair costs one solve per tick).
  [[nodiscard]] RG_REALTIME Prediction finish_predict(const std::array<std::int16_t, 3>& dac,
                                          const RavenDynamicsModel::State& next) noexcept;

  /// Advance the parallel model with the command that actually executed
  /// (the screened original, or the mitigator's replacement).
  RG_REALTIME void commit(const std::array<std::int16_t, 3>& dac) noexcept;

  /// The brakes have engaged: the plant is locked, so the parallel model
  /// is stale.  The next observe_feedback() performs a hard re-sync.
  RG_REALTIME void mark_disengaged() noexcept {
    have_feedback_ = false;
    cache_valid_ = false;
  }

  void reset() noexcept;

  [[nodiscard]] const RavenDynamicsModel& model() const noexcept { return model_; }
  [[nodiscard]] const EstimatorConfig& config() const noexcept { return config_; }
  /// Current parallel-model state (tests / Fig-8 validation).
  [[nodiscard]] const RavenDynamicsModel::State& state() const noexcept { return state_; }
  [[nodiscard]] bool has_feedback() const noexcept { return have_feedback_; }
  /// Scalar one-step model integrations performed so far (tests assert a
  /// screened tick costs one, not two).  Batched lane solves bypass
  /// this counter — they never call solve().
  [[nodiscard]] std::uint64_t solves() const noexcept { return solves_; }

 private:
  [[nodiscard]] RG_REALTIME Vec3 currents_from_dac(const std::array<std::int16_t, 3>& dac) const noexcept;

  EstimatorConfig config_;
  RavenDynamicsModel model_;
  RavenKinematics kin_;
  MotorChannel channel_;
  RavenDynamicsModel::State state_{};
  bool have_feedback_ = false;
  // commit() fast path: the next-state solved by the last finish_predict,
  // keyed by the command it was solved for.  Any state mutation between
  // predict and commit (feedback, disengage, reset) invalidates it.
  RavenDynamicsModel::State cached_next_{};
  std::array<std::int16_t, 3> cached_dac_{};
  bool cache_valid_ = false;
  std::uint64_t solves_ = 0;
};

}  // namespace rg
