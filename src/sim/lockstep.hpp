// LockstepGroup: up to kBatchLanes SurgicalSims advanced tick-by-tick in
// lockstep, so the two model-physics hot spots — the estimator's one-step
// solve and the plant's 20-substep RK4 loop — run as batched SoA kernels
// across the group instead of lane-at-a-time scalar code.
//
// Each tick runs every sim's tick_begin() (console → network → the
// stack's screening), then step_lanes() over the sims' robot stacks
// (stack/robot_stack.hpp: batched solve, verdicts, batched plant), then
// every sim's tick_finish() (encoders, oracle, telemetry).  Because the
// batched kernels are bit-identical to their scalar twins and every
// per-sim phase executes the exact statements the scalar step() would,
// each sim's trajectory, telemetry, and outcome are byte-for-byte what a
// solo sim.run() would have produced.  The campaign engine relies on that
// to batch homogeneous jobs without perturbing report determinism
// (tests/test_batch_dynamics.cpp asserts it).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>

#include "dynamics/batch_model.hpp"
#include "sim/surgical_sim.hpp"

namespace rg {

class LockstepGroup {
 public:
  /// All sims must be pairwise compatible() and at most kBatchLanes.
  /// Borrowed, not owned — the sims must outlive the group.
  explicit LockstepGroup(std::span<SurgicalSim* const> sims);

  /// True when two sims may share a lockstep batch (RobotStack::compatible).
  [[nodiscard]] static bool compatible(const SurgicalSim& a, const SurgicalSim& b) {
    return RobotStack::compatible(a.stack_, b.stack_);
  }

  /// One lockstep tick across every sim.
  void step();

  /// Run all sims for a duration of simulated seconds (same tick count
  /// SurgicalSim::run(seconds) would execute).
  void run(double seconds);

 private:
  std::array<SurgicalSim*, kBatchLanes> sims_{};
  std::array<RobotStack*, kBatchLanes> stacks_{};
  std::size_t n_ = 0;
  /// Batched twin of the sims' estimator model; absent when the group
  /// runs without detection pipelines.
  std::optional<BatchRavenModel> est_model_;
};

}  // namespace rg
