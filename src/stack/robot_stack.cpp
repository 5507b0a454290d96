#include "stack/robot_stack.hpp"

#include <array>

#include "obs/span.hpp"
#include "plant/batch_plant.hpp"

namespace rg {

namespace {

JointVector default_initial_joints(const ControlConfig& control) {
  // Slightly off the homing target so the Init phase does real work.
  JointVector q = control.limits.midpoint();
  q[0] += 0.05;
  q[1] -= 0.04;
  q[2] += 0.01;
  return q;
}

}  // namespace

RobotStack::RobotStack(const ControlConfig& control, const PlantConfig& plant,
                       const PlcConfig& plc, const MotorChannelConfig& channel,
                       const std::optional<PipelineConfig>& detection,
                       const std::optional<JointVector>& initial_joints)
    : control_(control), plc_(plc), board_(plc_, channel), plant_(plant) {
  if (detection) {
    pipeline_.emplace(*detection);
    estop_on_block_ =
        detection->mitigation == MitigationStrategy::kEStop && detection->mitigation_enabled;
  }
  plant_.set_joint_config(initial_joints.value_or(default_initial_joints(control)));
  board_.latch_encoders(plant_.motor_positions(), plant_.wrist_positions());
  feedback_ = board_.build_feedback();
}

bool RobotStack::compatible(const RobotStack& a, const RobotStack& b) {
  if (!BatchPlant::compatible(a.plant_.config(), b.plant_.config())) return false;
  if (a.pipeline_.has_value() != b.pipeline_.has_value()) return false;
  if (!a.pipeline_) return true;
  const EstimatorConfig& ea = a.pipeline_->estimator().config();
  const EstimatorConfig& eb = b.pipeline_->estimator().config();
  return ea.model == eb.model && ea.solver == eb.solver && ea.step == eb.step;
}

RG_REALTIME void RobotStack::press_start() {
  control_.press_start();
  plc_.press_start();
  started_ = true;
}

RG_REALTIME void RobotStack::tick_begin(std::optional<std::span<const std::uint8_t>> itp,
                                        UsbHops* hops) {
  scratch_ = TickScratch{};

  // USB read: the encoders the plant latched at the end of the last tick.
  FeedbackBytes feedback = board_.build_feedback();
  // rg-lint: allow(call) -- simulator interposer hops; the gateway ticks without hops
  if (hops == nullptr || hops->on_read(std::span{feedback})) feedback_ = feedback;

  // The 1 kHz control cycle.
  scratch_.cmd = control_.tick(itp, std::span{feedback_});

  // USB write: a malicious wrapper mutates the buffer after every software
  // safety check has already passed (the TOCTOU window).
  // rg-lint: allow(call) -- simulator interposer hops; the gateway ticks without hops
  scratch_.deliver = hops == nullptr || hops->on_write(std::span{scratch_.cmd});

  // Detection pipeline (trusted hardware, downstream of the attacker):
  // feedback + screening up to the model solve.
  if (pipeline_) {
    pipeline_->set_engaged(!plc_.brakes_engaged());
    MotorVector encoder_angles;
    for (std::size_t i = 0; i < 3; ++i) encoder_angles[i] = board_.encoder_angle(i);
    pipeline_->observe_feedback(encoder_angles);
    if (scratch_.deliver) {
      scratch_.screen = pipeline_->begin_process(std::span{scratch_.cmd});
      scratch_.screened = true;
    }
  }
}

RG_REALTIME void RobotStack::tick_resolve(const RavenDynamicsModel::State& next) {
  if (scratch_.screened) {
    scratch_.det = pipeline_->finish_process(scratch_.screen, next);
    if (scratch_.det.blocked) {
      scratch_.cmd = scratch_.det.bytes;
      if (estop_on_block_) plc_.press_estop();
    }
  }
  // The board latches whatever bytes arrived; it refuses malformed ones
  // and keeps its previous latch.
  if (scratch_.deliver) {
    scratch_.accepted = board_.receive_command(std::span<const std::uint8_t>{scratch_.cmd}).ok();
  }
  // PLC safety processor tick (watchdog timeout check).
  plc_.tick();
  scratch_.drive =
      PlantDrive{board_.modeled_currents(), plc_.brakes_engaged(), board_.wrist_currents()};
}

RG_REALTIME void RobotStack::tick_finish() {
  board_.latch_encoders(plant_.motor_positions(), plant_.wrist_positions());
}

RG_REALTIME RG_DETERMINISTIC void resolve_lanes(std::span<RobotStack* const> lanes,
                                                const BatchRavenModel* est_model) {
  const std::size_t n = lanes.size();
  if (n == 1) {
    RobotStack& lane = *lanes[0];
    RavenDynamicsModel::State next{};
    if (lane.needs_solve()) next = lane.pipeline()->estimator().solve(lane.pending_solve());
    lane.tick_resolve(next);
    return;
  }

  // Phase B — one batched solve for the lanes that screened a command this
  // tick.  Lanes that didn't (disengaged, undecodable, no feedback, no
  // pipeline) get a discarded broadcast lane.
  std::array<RavenDynamicsModel::State, kBatchLanes> next{};
  std::array<bool, kBatchLanes> solving{};
  std::size_t first_solving = kBatchLanes;
  for (std::size_t l = 0; l < n; ++l) {
    solving[l] = lanes[l]->needs_solve();
    if (solving[l] && first_solving == kBatchLanes) first_solving = l;
  }
  if (first_solving != kBatchLanes) {
    RG_SPAN("estimator.solve_batch");
    const PendingSolve& ref = lanes[first_solving]->pending_solve();
    BatchState x;
    BatchLanes3 currents{};
    x.set_lane(0, ref.x0);
    for (std::size_t i = 0; i < 3; ++i) currents[i].fill(ref.currents[i]);
    x.broadcast(0);
    for (std::size_t l = 0; l < n; ++l) {
      if (!solving[l]) continue;
      // compatible() pins model/solver/step, so every lane's pending
      // carries the reference lane's h and solver.
      const PendingSolve& pending = lanes[l]->pending_solve();
      x.set_lane(l, pending.x0);
      for (std::size_t i = 0; i < 3; ++i) currents[i][l] = pending.currents[i];
    }
    est_model->step(x, currents, ref.h, ref.solver);
    for (std::size_t l = 0; l < n; ++l) {
      if (solving[l]) next[l] = x.lane(l);
    }
  }

  // Phase C — verdicts, mitigation, board latch, PLC.
  for (std::size_t l = 0; l < n; ++l) lanes[l]->tick_resolve(next[l]);
}

RG_REALTIME RG_DETERMINISTIC void step_plant_lanes(std::span<RobotStack* const> lanes) {
  const std::size_t n = lanes.size();
  if (n == 1) {
    RobotStack& lane = *lanes[0];
    {
      RG_SPAN("plant.step");
      const PlantDrive& d = lane.drive();
      lane.plant().step_control_period(d.currents, d.brakes_engaged, d.wrist_currents);
    }
    lane.tick_finish();
    return;
  }

  // Phase D — one batched plant period over all lanes.
  std::array<PlantDrive, kBatchLanes> drives{};
  std::array<PhysicalRobot*, kBatchLanes> plants{};
  for (std::size_t l = 0; l < n; ++l) {
    drives[l] = lanes[l]->drive();
    plants[l] = &lanes[l]->plant();
  }
  {
    RG_SPAN("plant.step_batch");
    BatchPlant batch(std::span<PhysicalRobot* const>{plants.data(), n});
    batch.step_control_period(std::span<const PlantDrive>{drives.data(), n});
  }

  // Phase E — encoders for each lane's next tick.
  for (std::size_t l = 0; l < n; ++l) lanes[l]->tick_finish();
}

RG_REALTIME RG_DETERMINISTIC void step_lanes(std::span<RobotStack* const> lanes,
                                             const BatchRavenModel* est_model) {
  resolve_lanes(lanes, est_model);
  step_plant_lanes(lanes);
}

}  // namespace rg
