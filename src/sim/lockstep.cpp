#include "sim/lockstep.hpp"

#include "common/error.hpp"

namespace rg {

LockstepGroup::LockstepGroup(std::span<SurgicalSim* const> sims) : n_(sims.size()) {
  require(n_ >= 1 && n_ <= kBatchLanes, "LockstepGroup: 1..kBatchLanes sims required");
  for (std::size_t l = 0; l < n_; ++l) {
    require(sims[l] != nullptr, "LockstepGroup: null sim");
    require(compatible(*sims[0], *sims[l]), "LockstepGroup: incompatible sims in one group");
    sims_[l] = sims[l];
    stacks_[l] = &sims[l]->stack_;
  }
  if (DetectionPipeline* pipeline = stacks_[0]->pipeline()) {
    est_model_.emplace(pipeline->estimator().config().model);
  }
}

void LockstepGroup::step() {
  for (std::size_t l = 0; l < n_; ++l) sims_[l]->tick_begin();
  step_lanes(std::span<RobotStack* const>{stacks_.data(), n_},
             est_model_ ? &*est_model_ : nullptr);
  for (std::size_t l = 0; l < n_; ++l) sims_[l]->tick_finish();
}

void LockstepGroup::run(double seconds) {
  const auto ticks = static_cast<std::uint64_t>(seconds / kControlPeriodSec);
  for (std::uint64_t i = 0; i < ticks; ++i) step();
}

}  // namespace rg
