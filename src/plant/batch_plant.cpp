#include "plant/batch_plant.hpp"

#include <limits>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace rg {

BatchPlant::BatchPlant(std::span<PhysicalRobot* const> plants) {
  require(!plants.empty(), "BatchPlant needs at least one plant");
  require(plants.size() <= kBatchLanes, "BatchPlant: too many plants for the lane count");
  n_ = plants.size();
  for (std::size_t l = 0; l < n_; ++l) {
    require(plants[l] != nullptr, "BatchPlant: null plant");
    require(compatible(plants.front()->config(), plants[l]->config()),
            "BatchPlant: incompatible plant configs in one batch");
    plants_[l] = plants[l];
  }
}

bool BatchPlant::compatible(const PlantConfig& a, const PlantConfig& b) noexcept {
  PlantConfig a_modulo_seed = a;
  a_modulo_seed.seed = b.seed;
  return a_modulo_seed == b;
}

RG_REALTIME void BatchPlant::step_control_period(std::span<const PlantDrive> drives) {
  // rg-lint: allow(call) -- caller-contract check; never throws on a sized batch
  require(drives.size() == n_, "BatchPlant: one PlantDrive per lane required");

  // Phase 1 — per-lane scalar period setup (brake timing, noise draw from
  // the lane's own RNG, tissue reaction, shaft-lock velocity zeroing).
  std::array<PhysicalRobot::PeriodSetup, kBatchLanes> setups{};
  for (std::size_t l = 0; l < n_; ++l) {
    setups[l] = plants_[l]->begin_period(drives[l].currents, drives[l].brakes_engaged,
                                         kControlPeriodSec, drives[l].wrist_currents);
  }

  // Gather the lanes; unused lanes replicate lane 0 so their (discarded)
  // math stays finite, and watch nothing.
  PlantPeriodLanes period;
  for (std::size_t l = 0; l < kBatchLanes; ++l) {
    const std::size_t src = l < n_ ? l : 0;
    const PhysicalRobot& plant = *plants_[src];
    const PhysicalRobot::PeriodSetup& su = setups[src];
    period.x.set_lane(l, plant.state_);
    for (std::size_t i = 0; i < 3; ++i) {
      period.currents[i][l] = su.currents[i];
      period.fx[l].extra_motor_torque[i] = su.fx.extra_motor_torque[i];
      period.fx[l].cable_scale[i] = su.fx.cable_scale[i];
      period.fx[l].extra_joint_force[i] = su.fx.extra_joint_force[i];
      // Same skip rule as the scalar integrate_period: only intact axes
      // with a finite threshold are watched.
      const double threshold = plant.config_.cable_snap_threshold[i];
      const bool watch = l < n_ && !plant.snapped_[i] && threshold < kNeverSnaps;
      period.snap_threshold[i][l] = watch ? threshold : std::numeric_limits<double>::infinity();
    }
    period.locked[l] = su.shaft_locked;
  }

  // Phase 2 — the whole substep loop in one lane-parallel call.
  const PhysicalRobot& ref = *plants_[0];
  step_plant_period(ref.model().kernel_params(), ref.config_.dynamics.enforce_hard_stops,
                    kControlPeriodSec, ref.config_.substep, period);

  // Phase 3 — scatter states and snaps back and run the per-lane wrist
  // update.
  for (std::size_t l = 0; l < n_; ++l) {
    PhysicalRobot& plant = *plants_[l];
    plant.state_ = period.x.lane(l);
    for (std::size_t i = 0; i < 3; ++i) {
      if (period.snapped[l][i]) plant.snapped_[i] = true;
    }
    plant.finish_period(setups[l]);
  }
}

}  // namespace rg
