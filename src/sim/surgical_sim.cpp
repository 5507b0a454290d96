#include "sim/surgical_sim.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace rg {

SurgicalSim::SurgicalSim(SimConfig config)
    : config_(std::move(config)),
      console_(config_.trajectory, config_.pedal, config_.orientation),
      udp_(config_.network),
      stack_(config_.control, config_.plant, config_.plc, config_.channel, config_.detection,
             config_.initial_joints) {
  require(config_.trajectory != nullptr, "SimConfig.trajectory must be set");
}

void SurgicalSim::install(const AttackArtifacts& artifacts) {
  if (artifacts.console_path) itp_chain_.add(artifacts.console_path);
  if (artifacts.usb_write) write_chain_.add(artifacts.usb_write);
  if (artifacts.usb_read) read_chain_.add(artifacts.usb_read);
  if (artifacts.math_hooks) stack_.control().set_math_hooks(*artifacts.math_hooks);
  installed_ = artifacts;  // keep the handles for injection-count events
}

void SurgicalSim::emit_event(std::string_view kind,
                             std::initializer_list<obs::EventField> fields) {
  if (events_ == nullptr) return;
  std::vector<obs::EventField> all = event_context_;
  all.insert(all.end(), fields.begin(), fields.end());
  events_->emit(kind, clock_.ticks(), all);
}

void SurgicalSim::dump_flight(std::string_view reason) {
  if (flight_ == nullptr) return;
  const bool first = !flight_->triggered();
  flight_->trigger(reason, clock_.ticks());
  if (!first || events_ == nullptr) return;
  std::vector<obs::EventField> fields = event_context_;
  fields.emplace_back("reason", reason);
  fields.emplace_back("frames", static_cast<std::uint64_t>(flight_->dump().size()));
  std::string fragment = obs::EventLog::render_fields(fields);
  fragment += ", \"ring\": ";
  fragment += flight_->frames_json();
  events_->emit_raw("flight_dump", clock_.ticks(), fragment);
}

void SurgicalSim::step() {
  RG_SPAN("sim.tick");
  RG_COUNT("rg.sim.ticks", 1);
  tick_begin();
  RobotStack* const lane = &stack_;
  step_lanes(std::span<RobotStack* const>{&lane, 1}, nullptr);
  tick_finish();
}

void SurgicalSim::tick_begin() {
  if (config_.auto_start && !stack_.started() && clock_.ticks() >= config_.start_delay_ticks) {
    press_start();
  }

  // 1. Console emits an ITP datagram over the (lossy) network.  The
  //    oracle remembers the *clean* operator command before any attack
  //    wrapper can touch it.
  {
    const ItpPacket pkt = console_.tick();
    clean_pedal_ = pkt.pedal_down;
    clean_increment_ = pkt.pos_increment;
    const ItpBytes bytes = encode_itp(pkt);
    udp_.send({bytes.begin(), bytes.end()});
  }
  udp_.tick();

  // 2. Control host receives; the console-path interposer (scenario A)
  //    sees the buffer after recvfrom returns.
  std::optional<std::vector<std::uint8_t>> itp_bytes = udp_.receive();
  std::optional<std::span<const std::uint8_t>> itp_view;
  if (itp_bytes) {
    if (itp_chain_.process(std::span{*itp_bytes}, clock_.ticks())) {
      itp_view = std::span<const std::uint8_t>{*itp_bytes};
    }
    // dropped by the wrapper: the software never sees the datagram
  }

  // 3. USB read → control cycle → USB write → screening, with the read
  //    and write interposer chains on the USB hops.
  stack_.tick_begin(itp_view, this);
}

void SurgicalSim::tick_finish() {
  const std::uint64_t tick = clock_.ticks();
  const bool screened_this_tick = stack_.screened();
  const DetectionPipeline::Outcome& det = stack_.outcome();
  const bool alarm_this_tick = screened_this_tick && det.alarm;
  const double predicted_disp = det.prediction.ee_displacement;
  if (screened_this_tick && detection_observer_) detection_observer_(det);
  if (alarm_this_tick && !outcome_.detector_alarm_tick) outcome_.detector_alarm_tick = tick;

  // 4. Encoders for the next cycle.
  stack_.tick_finish();

  // 5. Ground-truth oracle + bookkeeping.
  const PhysicalRobot& plant = stack_.plant();
  const Plc& plc = stack_.plc();
  update_oracle();
  if (stack_.control().safety_fault_latched() && !outcome_.raven_fault_tick) {
    outcome_.raven_fault_tick = tick;
  }
  if (plc.estop_latched() && !outcome_.plc_estop_tick) {
    outcome_.plc_estop_tick = tick;
  }
  if (plant.cable_snapped()) outcome_.cable_snapped = true;

  if (trace_ != nullptr || flight_ != nullptr) {
    TraceSample s;
    s.tick = tick;
    s.ee_truth = plant.end_effector();
    s.joint_pos = plant.joint_positions();
    s.joint_vel = plant.joint_velocities();
    s.motor_pos = plant.motor_positions();
    s.motor_vel = plant.motor_velocities();
    const CommandPacket& last = stack_.board().last_command();
    s.dac = Vec3{static_cast<double>(last.dac[0]), static_cast<double>(last.dac[1]),
                 static_cast<double>(last.dac[2])};
    s.state = stack_.control().state();
    s.brakes = plc.brakes_engaged();
    s.detector_alarm = alarm_this_tick;
    s.predicted_ee_disp = predicted_disp;
    if (trace_ != nullptr) trace_->record(s);
    if (flight_ != nullptr) {
      obs::FlightFrame frame;
      frame.sample = s;
      frame.screened = screened_this_tick;
      frame.alarm = alarm_this_tick;
      frame.blocked = screened_this_tick && det.blocked;
      frame.motor_instant_vel = det.prediction.motor_instant_vel;
      frame.motor_instant_acc = det.prediction.motor_instant_acc;
      frame.joint_instant_vel = det.prediction.joint_instant_vel;
      frame.motor_vel_flag = det.verdict.motor_vel_flag;
      frame.motor_acc_flag = det.verdict.motor_acc_flag;
      frame.joint_vel_flag = det.verdict.joint_vel_flag;
      frame.ee_jump_flag = det.verdict.ee_jump_flag;
      flight_->record(frame);
    }
  }

  // --- telemetry events (edges only, so logs stay bounded) ----------------
  if (events_ != nullptr || flight_ != nullptr) {
    const RobotState state_now = stack_.control().state();
    if (state_now != last_state_) {
      emit_event("state_transition",
                 {{"from", to_string(last_state_)}, {"to", to_string(state_now)}});
      last_state_ = state_now;
    }
    const std::uint64_t inj = installed_.injections();
    if (inj > 0 && last_injections_ == 0) {
      emit_event("attack_injection", {{"total_injections", inj}});
    }
    last_injections_ = inj;
    if (alarm_this_tick && !last_alarm_) {
      emit_event("detector_alarm",
                 {{"predicted_ee_disp", predicted_disp},
                  {"motor_vel_flag", det.verdict.motor_vel_flag},
                  {"motor_acc_flag", det.verdict.motor_acc_flag},
                  {"joint_vel_flag", det.verdict.joint_vel_flag},
                  {"ee_jump_flag", det.verdict.ee_jump_flag},
                  {"worst_axis", static_cast<std::uint64_t>(det.verdict.worst_axis)}});
      dump_flight("detector_alarm");
    }
    last_alarm_ = alarm_this_tick;
    const bool blocked_this_tick = screened_this_tick && det.blocked;
    if (blocked_this_tick && !last_blocked_) {
      emit_event("mitigation",
                 {{"strategy", config_.detection
                                   ? to_string(config_.detection->mitigation)
                                   : std::string_view{"none"}}});
    }
    last_blocked_ = blocked_this_tick;
    if (outcome_.raven_fault_tick && !raven_fault_reported_) {
      raven_fault_reported_ = true;
      emit_event("raven_fault", {{"tick", *outcome_.raven_fault_tick}});
    }
    if (outcome_.plc_estop_tick && !plc_estop_reported_) {
      plc_estop_reported_ = true;
      emit_event("plc_estop", {{"tick", *outcome_.plc_estop_tick}});
      dump_flight("plc_estop");
    }
    if ((outcome_.adverse_impact_tick || outcome_.cable_snapped) &&
        !adverse_impact_reported_) {
      adverse_impact_reported_ = true;
      emit_event("adverse_impact",
                 {{"max_ee_jump_window", outcome_.max_ee_jump_window},
                  {"cable_snapped", outcome_.cable_snapped}});
    }
  }

  clock_.tick();
}

void SurgicalSim::update_oracle() {
  // "Abrupt jump": the end effector moved >1 mm *beyond what the operator
  // commanded* within a short window.  The paper's tightest criterion is
  // 1-2 ms; we evaluate every window up to kOracleWindow ms so a jump the
  // PID failed to absorb is labelled an impact, while fast-but-commanded
  // surgical motion is not.
  const Position ee = stack_.plant().end_effector();
  constexpr double kJumpLimit = 1.0e-3;  // 1 mm

  // Mirror of the operator's intent: integrate the *clean* console
  // increments while the robot is actively teleoperated; frozen when the
  // robot is halted (a halted robot cannot jump by intent).
  const bool active =
      stack_.control().state() == RobotState::kPedalDown && !stack_.plc().estop_latched();
  if (clean_pedal_ && active) {
    if (!clean_desired_valid_) {
      clean_desired_ = ee;  // anchor at the tool's position on engagement
      clean_desired_valid_ = true;
    } else {
      clean_desired_ += clean_increment_;
    }
  }
  const Position cmd = clean_desired_valid_ ? clean_desired_ : ee;

  const std::size_t lookback = std::min(ee_history_, kOracleWindow);
  double worst = 0.0;
  for (std::size_t k = 1; k <= lookback; ++k) {
    const std::size_t idx = (ee_head_ + ee_ring_.size() - k) % ee_ring_.size();
    const Vec3 actual_disp = ee - ee_ring_[idx];
    const Vec3 commanded_disp = cmd - cmd_ring_[idx];
    const double excess = (actual_disp - commanded_disp).norm();
    if (k == 1) outcome_.max_ee_jump_1ms = std::max(outcome_.max_ee_jump_1ms, excess);
    if (k == 2) outcome_.max_ee_jump_2ms = std::max(outcome_.max_ee_jump_2ms, excess);
    worst = std::max(worst, excess);
  }
  outcome_.max_ee_jump_window = std::max(outcome_.max_ee_jump_window, worst);
  if (worst > kJumpLimit && !outcome_.adverse_impact_tick) {
    outcome_.adverse_impact_tick = clock_.ticks();
  }

  ee_ring_[ee_head_] = ee;
  cmd_ring_[ee_head_] = cmd;
  ee_head_ = (ee_head_ + 1) % ee_ring_.size();
  if (ee_history_ < kOracleWindow) ++ee_history_;
}

void SurgicalSim::run(double seconds) {
  const auto ticks = static_cast<std::uint64_t>(seconds / kControlPeriodSec);
  for (std::uint64_t i = 0; i < ticks; ++i) step();
}

}  // namespace rg
