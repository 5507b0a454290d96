// The combined motor + cable + link dynamic model of one RAVEN II arm's
// positioning stage — the model at the heart of the paper's detection
// framework ("two sets of second-order ODEs ... link and motor dynamics").
//
// State (12 doubles):
//   [0..2]  theta_m : motor shaft angles (rad)
//   [3..5]  omega_m : motor shaft speeds (rad/s)
//   [6..8]  q       : joint coordinates (rad, rad, m)
//   [9..11] qdot    : joint rates (rad/s, rad/s, m/s)
//
// The cable transmission connects the two halves as a stiff spring-damper
// in joint space:  tau_cable = Kc (C theta_m - q) + Dc (C omega_m - qdot),
// acting forward on the links and reflected back on the rotors via C^T.
#pragma once

#include <array>

#include "common/realtime.hpp"
#include "dynamics/lane_kernel.hpp"
#include "dynamics/link_dynamics.hpp"
#include "dynamics/motor.hpp"
#include "kinematics/coupling.hpp"
#include "kinematics/joint_limits.hpp"
#include "kinematics/types.hpp"
#include "math/vec.hpp"
#include "ode/integrators.hpp"

namespace rg {

struct RavenDynamicsParams {
  std::array<MotorParams, 3> motors{MotorParams::re40(), MotorParams::re40(),
                                    MotorParams::re30()};
  TransmissionParams transmission{};
  LinkParams link{};
  /// Cable spring constants, joint side (N*m/rad, N*m/rad, N/m).
  std::array<double, 3> cable_stiffness{2000.0, 2000.0, 2.0e4};
  /// Cable damping, joint side (N*m*s/rad, N*m*s/rad, N*s/m).
  std::array<double, 3> cable_damping{12.0, 12.0, 120.0};
  /// Mechanical hard stops at the joint limits (plant realism; the
  /// detector's model typically disables them).
  bool enforce_hard_stops = false;
  JointLimits hard_stop_limits = JointLimits::raven_defaults();
  double hard_stop_stiffness = 2.0e4;  ///< per-unit penetration
  double hard_stop_damping = 100.0;

  static RavenDynamicsParams raven_defaults() { return RavenDynamicsParams{}; }

  /// A copy with inertial/friction/cable coefficients scaled by `factor`
  /// — models imperfect manual calibration of the detector's model
  /// against the physical robot (the paper tuned coefficients by hand).
  [[nodiscard]] RavenDynamicsParams with_calibration_error(double factor) const;

  friend constexpr bool operator==(const RavenDynamicsParams&,
                                   const RavenDynamicsParams&) = default;
};

/// External mechanical effects applied on top of the nominal model —
/// used by the plant for fail-safe brakes and cable-damage modelling.
struct ExternalEffects {
  /// Extra torque applied at each motor shaft (N*m), e.g. brake drag.
  Vec3 extra_motor_torque{};
  /// Per-axis scale on cable stiffness/damping (1 = intact, 0 = snapped).
  std::array<double, 3> cable_scale{1.0, 1.0, 1.0};
  /// Extra generalized force on each joint (N*m, N*m, N).
  Vec3 extra_joint_force{};
};

class RavenDynamicsModel {
 public:
  using State = Vec<12>;

  explicit RavenDynamicsModel(const RavenDynamicsParams& params = RavenDynamicsParams::raven_defaults());

  /// dx/dt for the 12-dim state under commanded motor currents (A).
  [[nodiscard]] RG_REALTIME State derivative(const State& x, const Vec3& currents) const noexcept;

  /// dx/dt with external effects (brakes, cable damage, disturbances).
  [[nodiscard]] RG_REALTIME State derivative(const State& x, const Vec3& currents,
                                             const ExternalEffects& fx) const noexcept;

  /// Joint-side cable torque/force vector (N*m, N*m, N) — exposed so the
  /// plant's damage model can watch for cable overload.
  [[nodiscard]] RG_REALTIME Vec3 cable_force(const State& x) const noexcept {
    return cable_force(x, {1.0, 1.0, 1.0});
  }

  /// Advance the state by h seconds with the given solver.  `solver` must
  /// be a valid SolverKind (validate_solver() at configuration time).
  [[nodiscard]] RG_REALTIME State step(const State& x, const Vec3& currents, double h,
                                       SolverKind solver) const noexcept;

  /// Build a consistent rest state at a joint configuration (cable
  /// un-stretched: theta_m = C^{-1} q; all rates zero).
  [[nodiscard]] State make_rest_state(const JointVector& q) const noexcept;

  // State accessors -------------------------------------------------------
  RG_REALTIME static MotorVector motor_pos(const State& x) noexcept { return {x[0], x[1], x[2]}; }
  RG_REALTIME static MotorVector motor_vel(const State& x) noexcept { return {x[3], x[4], x[5]}; }
  RG_REALTIME static JointVector joint_pos(const State& x) noexcept { return {x[6], x[7], x[8]}; }
  RG_REALTIME static JointVector joint_vel(const State& x) noexcept { return {x[9], x[10], x[11]}; }
  RG_REALTIME static void set_motor_pos(State& x, const MotorVector& v) noexcept {
    x[0] = v[0]; x[1] = v[1]; x[2] = v[2];
  }
  RG_REALTIME static void set_motor_vel(State& x, const MotorVector& v) noexcept {
    x[3] = v[0]; x[4] = v[1]; x[5] = v[2];
  }
  RG_REALTIME static void set_joint_pos(State& x, const JointVector& v) noexcept {
    x[6] = v[0]; x[7] = v[1]; x[8] = v[2];
  }
  RG_REALTIME static void set_joint_vel(State& x, const JointVector& v) noexcept {
    x[9] = v[0]; x[10] = v[1]; x[11] = v[2];
  }

  [[nodiscard]] const RavenDynamicsParams& params() const noexcept { return p_; }
  [[nodiscard]] RG_REALTIME const CableCoupling& coupling() const noexcept { return coupling_; }
  [[nodiscard]] const LinkDynamics& link() const noexcept { return link_; }
  /// The flattened constants this model evaluates with — shared verbatim
  /// with BatchRavenModel and step_plant_period so batched lanes are
  /// bit-identical to scalar.
  [[nodiscard]] RG_REALTIME const DynParams& kernel_params() const noexcept { return kp_; }

 private:
  [[nodiscard]] Vec3 cable_force(const State& x,
                                 const std::array<double, 3>& scale) const noexcept;

  RavenDynamicsParams p_;
  CableCoupling coupling_;
  LinkDynamics link_;
  DynParams kp_;
};

}  // namespace rg
