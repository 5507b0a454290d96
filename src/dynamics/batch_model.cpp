#include "dynamics/batch_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

// Runtime ISA dispatch for the lane loops.  The SSE2 baseline packs only
// two doubles per vector, which caps the batched speedup near 2x minus
// loop overhead; x86-64-v3 (AVX2) and v4 (AVX-512) quadruple/octuple the
// width.  target_clones compiles each dispatch function once per ISA and
// picks the best at load time via ifunc, so one portable binary gets the
// wide vectors where the CPU has them.  Bit-identity with the scalar
// model is preserved at every width: rg_dynamics builds with
// -ffp-contract=off (no FMA fusing on the wide clones) and IEEE add/mul/
// div are per-lane identical regardless of vector width.
// Sanitizer builds skip the clones: the ifunc resolvers target_clones
// emits run before the sanitizer runtime initializes and crash at load.
// Results are identical either way — only the vector width changes.
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define RG_LANES_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define RG_LANES_CLONES
#endif

namespace rg {

namespace {

constexpr std::size_t K = kBatchLanes;

// Elementwise solver-update helpers.  Each replicates the exact
// expression shape rg::Vec's operators produce for the scalar solvers in
// ode/integrators.hpp (left-associated sums, coefficient on the right of
// each k), so batched lanes match scalar integration bit for bit.

/// out = x + k * a
RG_REALTIME RG_LANE_INLINE void axpy(const BatchState& x, const BatchState& k, double a,
                                     BatchState& out) noexcept {
  for (std::size_t c = 0; c < 12; ++c) {
    for (std::size_t l = 0; l < K; ++l) out.c[c][l] = x.c[c][l] + k.c[c][l] * a;
  }
}

RG_REALTIME RG_LANE_INLINE LaneState load_lane(const BatchState& x, std::size_t l) noexcept {
  return LaneState{x.c[0][l], x.c[1][l], x.c[2][l],  x.c[3][l], x.c[4][l],  x.c[5][l],
                   x.c[6][l], x.c[7][l], x.c[8][l],  x.c[9][l], x.c[10][l], x.c[11][l]};
}

// The hard-stop split is a template parameter (not a runtime branch in
// one body) so each instantiation inlines exactly ONE copy of the lane
// kernel — two copies in a single function blow GCC's inlining budget,
// the kernel gets outlined, and neither lane loop vectorizes.
template <bool HardStops>
RG_REALTIME RG_LANE_INLINE void lanes_body(const DynParams& kp, const BatchState& x,
                                           const BatchLanes3& tau_em, BatchState& dx) noexcept {
  // Compute into a local, then copy out.  A local provably never aliases
  // the inputs, so the lane loop has no read-write conflicts; writing dx
  // directly would demand a runtime alias check per (input, output) array
  // pair — 12x12 of them — and the vectorizer gives up instead.
  BatchState tmp;
  for (std::size_t l = 0; l < K; ++l) {
    const LaneState s = load_lane(x, l);
    const double te[3] = {tau_em[0][l], tau_em[1][l], tau_em[2][l]};
    const LaneFx fxl{};
    double d[12];
    derivative_lane<HardStops>(kp, s, fxl, te, d);
    for (std::size_t i = 0; i < 12; ++i) tmp.c[i][l] = d[i];
  }
  dx = tmp;
}

// One ISA-cloned entry point per HardStops instantiation.  The
// always_inline lanes_body is re-expanded inside every clone, so each ISA
// gets its own fully vectorized copy of the lane loop.
RG_REALTIME RG_LANES_CLONES void lanes_hs(const DynParams& kp, const BatchState& x,
                                          const BatchLanes3& tau_em, BatchState& dx) noexcept {
  lanes_body<true>(kp, x, tau_em, dx);
}
RG_REALTIME RG_LANES_CLONES void lanes_nohs(const DynParams& kp, const BatchState& x,
                                            const BatchLanes3& tau_em, BatchState& dx) noexcept {
  lanes_body<false>(kp, x, tau_em, dx);
}

/// One plant period's per-lane constants, transposed once per period to
/// contiguous doubles: inside a lane loop, an effects[l].member access is
/// a 72-byte-strided gather and a bool load is a sub-word select — both
/// veto vectorization; contiguous local double arrays don't.
struct PeriodConsts {
  BatchLanes3 tau_em;
  BatchLanes3 extra_motor_torque;
  BatchLanes3 cable_scale;  ///< zeroed in place when an axis snaps
  BatchLanes3 extra_joint_force;
  std::array<double, K> lock_mask;  ///< 1.0 on a locked lane
};

/// One RK4 stage for every lane, written straight into the stage local.
template <bool HardStops>
RG_REALTIME RG_LANE_INLINE void plant_stage(const DynParams& kp, const PeriodConsts& pc,
                                            const BatchState& x, BatchState& k) noexcept {
  for (std::size_t l = 0; l < K; ++l) {
    const LaneState s = load_lane(x, l);
    const double te[3] = {pc.tau_em[0][l], pc.tau_em[1][l], pc.tau_em[2][l]};
    const LaneFx fxl{
        {pc.extra_motor_torque[0][l], pc.extra_motor_torque[1][l], pc.extra_motor_torque[2][l]},
        {pc.cable_scale[0][l], pc.cable_scale[1][l], pc.cable_scale[2][l]},
        {pc.extra_joint_force[0][l], pc.extra_joint_force[1][l], pc.extra_joint_force[2][l]}};
    double d[12];
    derivative_lane<HardStops>(kp, s, fxl, te, d);
    // Locked shafts: motor position and velocity derivatives vanish
    // (mirrors the scalar plant's substep lambda).  Select, don't scale:
    // 0.0 * wd would flip the sign bit of zero for negative wd.
    const bool locked = pc.lock_mask[l] != 0.0;
    for (std::size_t i = 0; i < 6; ++i) k.c[i][l] = locked ? 0.0 : d[i];
    for (std::size_t i = 6; i < 12; ++i) k.c[i][l] = d[i];
  }
}

/// PhysicalRobot's substep loop over all lanes.  Everything it touches is
/// a local of this one function, so no stage output can alias a stage
/// input and every lane loop vectorizes at the clone's width.
template <bool HardStops>
RG_REALTIME RG_LANE_INLINE void plant_period_body(const DynParams& kp, double duration,
                                                  double substep,
                                                  PlantPeriodLanes& io) noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kOnes[3] = {1.0, 1.0, 1.0};

  PeriodConsts pc;
  for (std::size_t l = 0; l < K; ++l) {
    const double i[3] = {io.currents[0][l], io.currents[1][l], io.currents[2][l]};
    double te[3];
    electromagnetic_torque(kp, i, te);
    for (std::size_t a = 0; a < 3; ++a) {
      pc.tau_em[a][l] = te[a];
      pc.extra_motor_torque[a][l] = io.fx[l].extra_motor_torque[a];
      pc.cable_scale[a][l] = io.fx[l].cable_scale[a];
      pc.extra_joint_force[a][l] = io.fx[l].extra_joint_force[a];
    }
    pc.lock_mask[l] = io.locked[l] ? 1.0 : 0.0;
  }
  BatchLanes3 threshold = io.snap_threshold;
  BatchLanes3 snapped{};
  bool watch_any = false;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t l = 0; l < K; ++l) watch_any = watch_any || threshold[a][l] != kInf;
  }

  BatchState x = io.x;
  // Stage buffers live across substeps: BatchState zero-fills its 768 B
  // on construction, and one fill per substep cost ~6% of this kernel.
  std::array<BatchState, 4> k;
  BatchState xs;
  double remaining = duration;
  while (remaining > 1e-12) {
    const double h = std::min(substep, remaining);
    // Classical RK4, the shape of rk4_step: stages at x, x + (h/2) k1,
    // x + (h/2) k2, x + h k3.
    for (std::size_t s = 0; s < 4; ++s) {
      plant_stage<HardStops>(kp, pc, s == 0 ? x : xs, k[s]);
      if (s < 3) axpy(x, k[s], s < 2 ? 0.5 * h : h, xs);
    }
    // x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)
    const double h6 = h / 6.0;
    for (std::size_t c = 0; c < 12; ++c) {
      for (std::size_t l = 0; l < K; ++l) {
        x.c[c][l] = x.c[c][l] +
                    (((k[0].c[c][l] + k[1].c[c][l] * 2.0) + k[2].c[c][l] * 2.0) + k[3].c[c][l]) *
                        h6;
      }
    }

    if (watch_any) {
      // Cable overload watch at the new state: a per-lane flag pass (an
      // unwatched axis has an infinite threshold, so it never trips).
      for (std::size_t l = 0; l < K; ++l) {
        double t[3];
        cable_force_lane(kp, load_lane(x, l), kOnes, t);
        for (std::size_t a = 0; a < 3; ++a) {
          const bool snap = std::abs(t[a]) > threshold[a][l];
          const double scale = pc.cable_scale[a][l];
          const double thr = threshold[a][l];
          const double was = snapped[a][l];
          pc.cable_scale[a][l] = snap ? 0.0 : scale;
          threshold[a][l] = snap ? kInf : thr;
          snapped[a][l] = snap ? 1.0 : was;
        }
      }
      watch_any = false;
      for (std::size_t a = 0; a < 3; ++a) {
        for (std::size_t l = 0; l < K; ++l) watch_any = watch_any || threshold[a][l] != kInf;
      }
    }
    remaining -= h;
  }

  io.x = x;
  for (std::size_t l = 0; l < K; ++l) {
    for (std::size_t a = 0; a < 3; ++a) io.snapped[l][a] = snapped[a][l] != 0.0;
  }
}

// The period kernel's ISA-cloned entry points, one per HardStops
// instantiation, like lanes_hs/lanes_nohs above.
RG_REALTIME RG_LANES_CLONES void plant_period_hs(const DynParams& kp, double duration,
                                                 double substep, PlantPeriodLanes& io) noexcept {
  plant_period_body<true>(kp, duration, substep, io);
}
RG_REALTIME RG_LANES_CLONES void plant_period_nohs(const DynParams& kp, double duration,
                                                   double substep, PlantPeriodLanes& io) noexcept {
  plant_period_body<false>(kp, duration, substep, io);
}

}  // namespace

RG_REALTIME RG_DETERMINISTIC void step_plant_period(const DynParams& kp, bool hard_stops,
                                                    double duration, double substep,
                                                    PlantPeriodLanes& lanes) noexcept {
  if (hard_stops) {
    plant_period_hs(kp, duration, substep, lanes);
  } else {
    plant_period_nohs(kp, duration, substep, lanes);
  }
}

BatchRavenModel::BatchRavenModel(const RavenDynamicsParams& params)
    : hard_stops_(params.enforce_hard_stops) {
  // Reuse the scalar model's construction (validation + coupling build) so
  // the flattened constants are byte-for-byte the scalar model's.
  const RavenDynamicsModel scalar(params);
  kp_ = scalar.kernel_params();
}

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::tau_em_from_currents(const BatchLanes3& currents,
                                           BatchLanes3& tau_em) const noexcept {
  for (std::size_t l = 0; l < K; ++l) {
    const double i[3] = {currents[0][l], currents[1][l], currents[2][l]};
    double te[3];
    electromagnetic_torque(kp_, i, te);
    tau_em[0][l] = te[0];
    tau_em[1][l] = te[1];
    tau_em[2][l] = te[2];
  }
}

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::derivative(const BatchState& x,
                                                              const BatchLanes3& tau_em,
                                                              BatchState& dx) const noexcept {
  if (hard_stops_) {
    lanes_hs(kp_, x, tau_em, dx);
  } else {
    lanes_nohs(kp_, x, tau_em, dx);
  }
}

RG_REALTIME RG_DETERMINISTIC void BatchRavenModel::step(BatchState& x, const BatchLanes3& currents, double h,
                           SolverKind solver) const noexcept {
  BatchLanes3 tau_em;
  tau_em_from_currents(currents, tau_em);
  BatchState k1;
  derivative(x, tau_em, k1);

  switch (solver) {
    case SolverKind::kEuler: {
      // x + h * k1
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) x.c[c][l] = x.c[c][l] + k1.c[c][l] * h;
      }
      return;
    }
    case SolverKind::kMidpoint: {
      BatchState xs, k2;
      axpy(x, k1, 0.5 * h, xs);
      derivative(xs, tau_em, k2);
      // x + h * k2
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) x.c[c][l] = x.c[c][l] + k2.c[c][l] * h;
      }
      return;
    }
    case SolverKind::kRk4: {
      BatchState xs, k2, k3, k4;
      axpy(x, k1, 0.5 * h, xs);
      derivative(xs, tau_em, k2);
      axpy(x, k2, 0.5 * h, xs);
      derivative(xs, tau_em, k3);
      axpy(x, k3, h, xs);
      derivative(xs, tau_em, k4);
      // x + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)
      const double h6 = h / 6.0;
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          x.c[c][l] =
              x.c[c][l] +
              (((k1.c[c][l] + k2.c[c][l] * 2.0) + k3.c[c][l] * 2.0) + k4.c[c][l]) * h6;
        }
      }
      return;
    }
    case SolverKind::kRkf45: {
      BatchState xs, k2, k3, k4, k5, k6;
      const double c21 = h / 4.0;
      const double c31 = 3.0 * h / 32.0, c32 = 9.0 * h / 32.0;
      const double c41 = 1932.0 * h / 2197.0, c42 = 7200.0 * h / 2197.0,
                   c43 = 7296.0 * h / 2197.0;
      const double c51 = 439.0 * h / 216.0, c52 = 8.0 * h, c53 = 3680.0 * h / 513.0,
                   c54 = 845.0 * h / 4104.0;
      const double c61 = 8.0 * h / 27.0, c62 = 2.0 * h, c63 = 3544.0 * h / 2565.0,
                   c64 = 1859.0 * h / 4104.0, c65 = 11.0 * h / 40.0;

      axpy(x, k1, c21, xs);
      derivative(xs, tau_em, k2);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = (x.c[c][l] + k1.c[c][l] * c31) + k2.c[c][l] * c32;
        }
      }
      derivative(xs, tau_em, k3);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = ((x.c[c][l] + k1.c[c][l] * c41) - k2.c[c][l] * c42) + k3.c[c][l] * c43;
        }
      }
      derivative(xs, tau_em, k4);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = (((x.c[c][l] + k1.c[c][l] * c51) - k2.c[c][l] * c52) +
                        k3.c[c][l] * c53) -
                       k4.c[c][l] * c54;
        }
      }
      derivative(xs, tau_em, k5);
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          xs.c[c][l] = ((((x.c[c][l] - k1.c[c][l] * c61) + k2.c[c][l] * c62) -
                         k3.c[c][l] * c63) +
                        k4.c[c][l] * c64) -
                       k5.c[c][l] * c65;
        }
      }
      derivative(xs, tau_em, k6);
      // x + h * ((((16/135 k1 + 6656/12825 k3) + 28561/56430 k4) - 9/50 k5) + 2/55 k6)
      for (std::size_t c = 0; c < 12; ++c) {
        for (std::size_t l = 0; l < K; ++l) {
          x.c[c][l] = x.c[c][l] + ((((k1.c[c][l] * (16.0 / 135.0) +
                                      k3.c[c][l] * (6656.0 / 12825.0)) +
                                     k4.c[c][l] * (28561.0 / 56430.0)) -
                                    k5.c[c][l] * (9.0 / 50.0)) +
                                   k6.c[c][l] * (2.0 / 55.0)) *
                                      h;
        }
      }
      return;
    }
  }
}

}  // namespace rg
