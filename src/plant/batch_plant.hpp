// Lane-parallel plant stepping: up to kBatchLanes PhysicalRobots advanced
// through the same control period with one batched SoA substep loop.
//
// Each lane runs the *same* per-period logic as the scalar
// PhysicalRobot::step_control_period — begin_period (brakes, noise,
// tissue) and finish_period (wrist axes) stay per-plant scalar code; only
// the 20-substep RK4 loop in the middle, which is ~all of the work, runs
// through one step_plant_period call.  Because that kernel is
// bit-identical to the scalar substep loop (see dynamics/batch_model.hpp),
// every lane's trajectory matches what that plant would produce stepped
// alone.
//
// A BatchPlant is a view: it borrows the plants, builds nothing and
// re-proves nothing, so a caller may bind a fresh one to whichever plants
// tick together this period.  Compatibility is proved once, where lanes
// are grouped: LockstepGroup requires RobotStack::compatible() when it
// forms, and a gateway shard's sessions all come from its one engine
// config, differing only in plant seed.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "common/realtime.hpp"
#include "dynamics/batch_model.hpp"
#include "plant/physical_robot.hpp"

namespace rg {

class BatchPlant {
 public:
  /// 1..kBatchLanes non-null plants, which the caller guarantees are
  /// pairwise compatible() (not re-checked here).  The plants are
  /// borrowed, not owned — they must outlive the batch.
  explicit BatchPlant(std::span<PhysicalRobot* const> plants);

  /// True when two plant configs may share a batch: identical physics and
  /// integration settings; only the RNG seed may differ (each lane keeps
  /// its own noise stream).
  [[nodiscard]] static bool compatible(const PlantConfig& a, const PlantConfig& b) noexcept;

  /// Batched twin of PhysicalRobot::step_control_period: executes one
  /// control period on every lane.  drives.size() must equal lanes().
  RG_REALTIME void step_control_period(std::span<const PlantDrive> drives);

  [[nodiscard]] std::size_t lanes() const noexcept { return n_; }

 private:
  std::array<PhysicalRobot*, kBatchLanes> plants_{};
  std::size_t n_ = 0;
};

}  // namespace rg
