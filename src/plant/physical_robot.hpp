// Ground-truth physical robot ("the plant").
//
// This stands in for the physical RAVEN II: the same motor/cable/link
// physics family as the detector's dynamic model, but integrated at a
// fine RK4 substep with effects the detector's model does not know about:
//   - torque ripple / drive-current noise,
//   - fail-safe power-off brakes (PLC controlled),
//   - mechanical hard stops at the joint limits,
//   - cable overload damage (the paper observed attack-induced abrupt
//     jumps snapping cables on the real robot),
//   - independently perturbed physical parameters (manufacturing spread).
//
// Nothing in the detection path reads this object directly — the control
// software and detector see only encoder counts and DAC commands, as on
// the real system.
#pragma once

#include <array>
#include <cstdint>

#include <optional>

#include "common/realtime.hpp"
#include "common/rng.hpp"
#include "dynamics/raven_model.hpp"
#include "kinematics/raven_kinematics.hpp"
#include "kinematics/types.hpp"
#include "plant/tissue.hpp"

namespace rg {

struct PlantConfig {
  RavenDynamicsParams dynamics = []() {
    RavenDynamicsParams p = RavenDynamicsParams::raven_defaults();
    p.enforce_hard_stops = true;
    return p;
  }();
  /// Integration substep for ground truth (s).
  double substep = 5.0e-5;
  /// Std-dev of drive-current noise, re-sampled each control period (A).
  double current_noise_stddev = 0.01;
  /// Spring-applied fail-safe brakes need mechanical engagement time;
  /// power to the drives is cut immediately, but the shafts only lock
  /// after the request has persisted this long (s).
  double brake_engage_delay = 0.05;
  /// Cable snap thresholds, joint side (N*m, N*m, N).
  std::array<double, 3> cable_snap_threshold{40.0, 40.0, 400.0};
  /// RNG seed for this plant instance.
  std::uint64_t seed = 1;

  // --- Wrist/instrument axes (channels 3-5) -------------------------------
  // The four instrument DOF mainly set end-effector *orientation* (paper
  // Sec. IV); they are modelled as three independent small motor axes
  // (first-order in velocity) so the wire protocol and attack surface are
  // complete, while the detector's reduced model deliberately ignores
  // them.
  double wrist_inertia = 1.0e-5;        ///< kg*m^2 per axis
  double wrist_damping = 2.0e-4;        ///< N*m*s/rad
  double wrist_torque_constant = 0.0138;  ///< N*m/A (small RE motor)

  friend constexpr bool operator==(const PlantConfig&, const PlantConfig&) = default;
};

/// Snap thresholds at or above this value mean "this cable never snaps";
/// the plant then skips the per-substep tension recomputation entirely.
inline constexpr double kNeverSnaps = 1.0e18;

/// One control period's drive inputs as resolved by the simulator's tick
/// logic — everything the plant needs to execute the period.
struct PlantDrive {
  Vec3 currents{};
  bool brakes_engaged = false;
  Vec3 wrist_currents{};
};

class PhysicalRobot {
 public:
  explicit PhysicalRobot(const PlantConfig& config = {});

  /// Teleport to a rest configuration (used before homing / in tests).
  void set_joint_config(const JointVector& q) noexcept;

  /// Simulate one control period (1 ms): integrates the plant ODE at the
  /// configured substep under the latched motor currents and brake state.
  /// `wrist_currents` drive the three instrument axes (channels 3-5).
  RG_REALTIME void step_control_period(const Vec3& commanded_currents, bool brakes_engaged,
                                       const Vec3& wrist_currents = Vec3::zero());

  /// Same, for an arbitrary duration (s).
  RG_REALTIME void step(const Vec3& commanded_currents, bool brakes_engaged, double duration,
                        const Vec3& wrist_currents = Vec3::zero());

  [[nodiscard]] RG_REALTIME MotorVector motor_positions() const noexcept {
    return RavenDynamicsModel::motor_pos(state_);
  }
  [[nodiscard]] RG_REALTIME MotorVector motor_velocities() const noexcept {
    return RavenDynamicsModel::motor_vel(state_);
  }
  [[nodiscard]] RG_REALTIME JointVector joint_positions() const noexcept {
    return RavenDynamicsModel::joint_pos(state_);
  }
  [[nodiscard]] RG_REALTIME JointVector joint_velocities() const noexcept {
    return RavenDynamicsModel::joint_vel(state_);
  }

  /// Ground-truth end-effector position.
  [[nodiscard]] RG_REALTIME Position end_effector() const noexcept {
    return kinematics_.forward(joint_positions());
  }

  /// Wrist motor shaft angles (channels 3-5) — the end-effector
  /// orientation pass-through.
  [[nodiscard]] RG_REALTIME const Vec3& wrist_positions() const noexcept { return wrist_pos_; }
  [[nodiscard]] const Vec3& wrist_velocities() const noexcept { return wrist_vel_; }

  /// Place a compliant tissue surface in the workspace.  Contact forces
  /// feed back into the arm; perforation/shear damage latches (the harm
  /// metric behind the paper's injury narrative).
  void add_tissue(const TissueParams& params) { tissue_.emplace(params); }
  [[nodiscard]] const TissueModel* tissue() const noexcept {
    return tissue_ ? &*tissue_ : nullptr;
  }

  /// True once any cable has exceeded its overload threshold; that axis
  /// is mechanically decoupled from its motor from then on.
  [[nodiscard]] bool cable_snapped() const noexcept {
    return snapped_[0] || snapped_[1] || snapped_[2];
  }
  [[nodiscard]] const std::array<bool, 3>& snapped_axes() const noexcept { return snapped_; }

  [[nodiscard]] RG_REALTIME const RavenDynamicsModel& model() const noexcept { return model_; }
  [[nodiscard]] const RavenKinematics& kinematics() const noexcept { return kinematics_; }
  [[nodiscard]] const PlantConfig& config() const noexcept { return config_; }

 private:
  /// Everything begin_period resolves for one control period.  step()
  /// consumes it through integrate_period (scalar substeps); BatchPlant
  /// consumes it through its lane-parallel substep loop instead.
  struct PeriodSetup {
    Vec3 currents{};          ///< actual drive currents (noise applied)
    bool shaft_locked = false;
    bool brakes_engaged = false;
    ExternalEffects fx{};
    double duration = 0.0;
    Vec3 wrist_currents{};
  };

  /// Brake timing, drive-noise sampling, shaft-lock velocity zeroing, and
  /// the period-held external effects (cable damage + tissue reaction).
  RG_REALTIME PeriodSetup begin_period(const Vec3& commanded_currents, bool brakes_engaged,
                                       double duration, const Vec3& wrist_currents);
  /// The scalar substep loop: RK4 at config().substep plus the cable
  /// overload watch.
  RG_REALTIME void integrate_period(PeriodSetup& setup);
  /// Wrist/instrument axes (per-period semi-implicit update).
  RG_REALTIME void finish_period(const PeriodSetup& setup) noexcept;

  friend class BatchPlant;

  PlantConfig config_;
  RavenDynamicsModel model_;
  RavenKinematics kinematics_;
  RavenDynamicsModel::State state_{};
  Vec3 wrist_pos_{};
  Vec3 wrist_vel_{};
  std::optional<TissueModel> tissue_{};
  std::array<bool, 3> snapped_{false, false, false};
  double brake_request_elapsed_ = 1.0e9;  // brakes start locked (power off)
  Pcg32 rng_;
};

}  // namespace rg
