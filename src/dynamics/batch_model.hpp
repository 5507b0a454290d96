// Batched SoA dynamics: K lanes of the RAVEN arm model stepped in
// lockstep.
//
// BatchState holds 12 state components x kBatchLanes doubles
// structure-of-arrays, so every expression in the derivative and in the
// solver update is a flat, branch-light loop over lanes that the
// auto-vectorizer turns into SIMD.  All lane math is the *same inline
// kernel* (dynamics/lane_kernel.hpp) the scalar RavenDynamicsModel runs,
// and the solver updates replicate rg::Vec's expression shapes exactly —
// so lane `l` of a batched integration is bit-identical to a scalar
// integration of that lane's state.  That equivalence is what lets the
// campaign engine batch homogeneous jobs without perturbing a byte of the
// deterministic report (asserted by tests/test_batch_dynamics.cpp).
//
// Users: BatchPlant (plant/batch_plant.hpp) advances K physical robots per
// control period through step_plant_period; step_lanes
// (stack/robot_stack.hpp) adds the batched estimator solve through
// BatchRavenModel::step.
#pragma once

#include <array>
#include <cstddef>

#include "common/realtime.hpp"

#include "dynamics/lane_kernel.hpp"
#include "dynamics/raven_model.hpp"
#include "math/vec.hpp"
#include "ode/integrators.hpp"

namespace rg {

/// Compile-time lane count.  Eight lanes fill an AVX-512 register of
/// doubles and two AVX2 registers; the sweet spot between vector width
/// and per-worker cache footprint (see docs/performance.md).
inline constexpr std::size_t kBatchLanes = 8;

/// One batched 3-vector (e.g. per-lane motor currents or cable tensions).
using BatchLanes3 = std::array<std::array<double, kBatchLanes>, 3>;

/// 12 x K state, component-major (component c of lane l at c[c][l]).
struct alignas(64) BatchState {
  std::array<std::array<double, kBatchLanes>, 12> c{};

  [[nodiscard]] RG_REALTIME Vec<12> lane(std::size_t l) const noexcept {
    Vec<12> x;
    for (std::size_t i = 0; i < 12; ++i) x[i] = c[i][l];
    return x;
  }
  RG_REALTIME void set_lane(std::size_t l, const Vec<12>& x) noexcept {
    for (std::size_t i = 0; i < 12; ++i) c[i][l] = x[i];
  }
  /// Copy lane `from` into every lane of the batch — how callers give
  /// unused lanes safe numerics (their results are discarded).
  RG_REALTIME void broadcast(std::size_t from) noexcept {
    for (std::size_t i = 0; i < 12; ++i) {
      const double v = c[i][from];
      for (std::size_t l = 0; l < kBatchLanes; ++l) c[i][l] = v;
    }
  }
};

/// One plant control period of up to kBatchLanes lanes, structure of
/// arrays where the kernel reads it lane-wise.  The caller fills the
/// inputs once per period (unused lanes replicate a real lane so their
/// discarded math stays finite); step_plant_period advances `x` and
/// reports which cable axes snapped.
struct PlantPeriodLanes {
  BatchState x;                                  ///< in/out: lane states
  BatchLanes3 currents{};                        ///< drive currents, noise applied (A)
  std::array<LaneFx, kBatchLanes> fx{};          ///< period-held external effects
  std::array<bool, kBatchLanes> locked{};        ///< brake-locked motor shafts
  /// |cable tension| above which an axis snaps; +inf leaves it unwatched
  /// (already snapped, or a never-snapping threshold).
  BatchLanes3 snap_threshold{};
  /// out: axes whose cable snapped during this period.
  std::array<std::array<bool, 3>, kBatchLanes> snapped{};
};

/// The plant's whole control period for every lane — the batched twin of
/// PhysicalRobot's substep loop: RK4 substeps of `substep` seconds until
/// `duration` is spent, each followed by the cable-overload watch (a
/// snapped axis loses its cable for the rest of the period).  `kp` is the
/// lanes' shared flattened physics (RavenDynamicsModel::kernel_params()).
/// One ISA-cloned call runs the substep loop, all four RK4 stages, the
/// stage updates, the combine and the watch, so no solver update runs at
/// the SSE2 baseline and no stage pays a dispatch.  Lane l is
/// bit-identical to PhysicalRobot stepping that lane alone.
RG_REALTIME void step_plant_period(const DynParams& kp, bool hard_stops, double duration,
                                   double substep, PlantPeriodLanes& lanes) noexcept;

/// K-lane RAVEN dynamics over a single parameter set (the lanes of a
/// batch share physics; only state and inputs differ per lane) — the
/// estimator's batched model.
class BatchRavenModel {
 public:
  explicit BatchRavenModel(const RavenDynamicsParams& params);

  /// dx/dt for all lanes under the nominal model (no external effects,
  /// no brake locks).  `tau_em` is the per-lane electromagnetic torque
  /// (see tau_em_from_currents).
  RG_REALTIME void derivative(const BatchState& x, const BatchLanes3& tau_em,
                              BatchState& dx) const noexcept;

  /// Advance all lanes by h with the given (pre-validated) solver under
  /// per-lane motor currents; no external effects.  This is the batched
  /// twin of RavenDynamicsModel::step.
  RG_REALTIME void step(BatchState& x, const BatchLanes3& currents, double h,
            SolverKind solver) const noexcept;

  /// Per-lane electromagnetic torque from commanded currents (hoisted out
  /// of the per-stage loop; state-independent).
  RG_REALTIME void tau_em_from_currents(const BatchLanes3& currents, BatchLanes3& tau_em) const noexcept;

 private:
  bool hard_stops_;
  DynParams kp_;
};

}  // namespace rg
