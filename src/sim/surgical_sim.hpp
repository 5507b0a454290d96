// SurgicalSim: the co-simulation harness (paper Fig. 7(a)).
//
// Wires the full system at 1 kHz:
//
//   master console --ITP/UDP--> [itp interposers] --> control software
//   control software --USB write--> [write interposers] --> detection
//   pipeline (optional, trusted) --> USB board --> motors --> PLANT
//   PLANT --> encoders --> USB board --USB read--> [read interposers]
//   --> control software;  PLC watches Byte 0's watchdog bit throughout.
//
// Attack wrappers are installed on the interposer chains — the same hops
// a malicious LD_PRELOAD library grabs on the real robot.  The detection
// pipeline sits downstream of the write interposers (trusted hardware),
// so it screens post-attack bytes.
//
// The harness also carries the ground-truth adverse-impact oracle: a
// >1 mm end-effector displacement within 1–2 ms (the paper's safety
// criterion, "based on feedback from expert surgeons"), plus cable-snap
// damage latching.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "attack/attack_engine.hpp"
#include "attack/interposer.hpp"
#include "common/clock.hpp"
#include "net/master_console.hpp"
#include "net/udp_channel.hpp"
#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/trace.hpp"
#include "stack/robot_stack.hpp"

namespace rg {

struct SimConfig {
  ControlConfig control{};
  PlantConfig plant{};
  PlcConfig plc{};
  MotorChannelConfig channel{};
  UdpChannelConfig network{};
  std::shared_ptr<const Trajectory> trajectory;
  PedalSchedule pedal = PedalSchedule::hold_from(1.2);
  OrientationMotion orientation{};
  /// Plant's initial joint configuration (defaults to just off the homing
  /// target so homing does real work).
  std::optional<JointVector> initial_joints{};
  /// Optional detection pipeline (the paper's contribution); nullopt
  /// reproduces the stock RAVEN system.
  std::optional<PipelineConfig> detection{};
  /// Press the start buttons automatically after `start_delay_ticks`.
  /// The lead-in leaves the robot visibly in E-STOP first, as on the real
  /// system — the offline packet analysis needs all four states.
  bool auto_start = true;
  std::uint32_t start_delay_ticks = 100;
};

/// Aggregated per-run outcome used by the experiment harnesses.
struct RunOutcome {
  double max_ee_jump_1ms = 0.0;   ///< largest |ee(t) - ee(t-1ms)| (m)
  double max_ee_jump_2ms = 0.0;   ///< largest |ee(t) - ee(t-2ms)| (m)
  double max_ee_jump_window = 0.0;  ///< largest excess displacement in any <=kOracleWindow ms window (m)
  std::optional<std::uint64_t> adverse_impact_tick{};  ///< first >1mm abrupt jump
  std::optional<std::uint64_t> raven_fault_tick{};     ///< software safety check fired
  std::optional<std::uint64_t> plc_estop_tick{};       ///< PLC latched E-STOP
  std::optional<std::uint64_t> detector_alarm_tick{};  ///< pipeline alarm
  bool cable_snapped = false;

  [[nodiscard]] bool adverse_impact() const noexcept {
    return adverse_impact_tick.has_value() || cable_snapped;
  }
  [[nodiscard]] bool raven_detected() const noexcept {
    return raven_fault_tick.has_value();
  }
  [[nodiscard]] bool detector_alarmed() const noexcept {
    return detector_alarm_tick.has_value();
  }
  /// Did the detector fire before the physical impact (preemptive)?
  [[nodiscard]] bool detected_preemptively() const noexcept {
    if (!detector_alarm_tick) return false;
    if (!adverse_impact_tick) return true;
    return *detector_alarm_tick <= *adverse_impact_tick;
  }
};

/// The harness around the shared RobotStack (stack/robot_stack.hpp): the
/// console, the network, the interposer hops, the oracle and telemetry.
class SurgicalSim final : private UsbHops {
 public:
  explicit SurgicalSim(SimConfig config);

  /// Interposer chains (attack installation points).
  [[nodiscard]] InterposerChain& itp_chain() noexcept { return itp_chain_; }
  [[nodiscard]] InterposerChain& write_chain() noexcept { return write_chain_; }
  [[nodiscard]] InterposerChain& read_chain() noexcept { return read_chain_; }

  /// Install a full attack artifact set on the hops it compromises.
  void install(const AttackArtifacts& artifacts);

  /// One 1 kHz tick.
  void step();

  /// Run for a duration of simulated seconds.
  void run(double seconds);

  // --- component access -----------------------------------------------------
  [[nodiscard]] const SimClock& clock() const noexcept { return clock_; }
  [[nodiscard]] ControlSoftware& control() noexcept { return stack_.control(); }
  [[nodiscard]] PhysicalRobot& plant() noexcept { return stack_.plant(); }
  [[nodiscard]] Plc& plc() noexcept { return stack_.plc(); }
  [[nodiscard]] const RunOutcome& outcome() const noexcept { return outcome_; }

  /// Attach a trace recorder (caller owns it; must outlive the sim run).
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }

  /// Attach a structured safety-event log (caller owns it).  The sim
  /// emits state transitions, attack injections, detector alarms,
  /// mitigation actions, RAVEN faults, and PLC E-stops as they happen.
  /// `context` fields (e.g. a campaign job index) are prepended to every
  /// event so interleaved multi-session logs stay attributable.
  void set_event_log(obs::EventLog* events,
                     std::vector<obs::EventField> context = {}) {
    events_ = events;
    event_context_ = std::move(context);
  }

  /// Attach a flight recorder (caller owns it).  Every tick appends one
  /// frame; the first detector alarm or E-stop freezes the ring and — if
  /// an event log is attached — dumps the frames as a `flight_dump`
  /// event.
  void set_flight_recorder(obs::FlightRecorder* flight) noexcept { flight_ = flight; }

  /// Observe every detection-pipeline outcome (threshold learning, ROC
  /// sweeps).  Caller-owned callable; must outlive the sim run.
  using DetectionObserver = std::function<void(const DetectionPipeline::Outcome&)>;
  void set_detection_observer(DetectionObserver observer) {
    detection_observer_ = std::move(observer);
  }

  /// Press the physical start button (control + PLC together).
  void press_start() { stack_.press_start(); }

 private:
  // step() == tick_begin → step_lanes (solve, resolve, plant, encoder
  // latch) → tick_finish.  LockstepGroup (sim/lockstep.hpp) runs the same
  // phases across many sims, so their solves and plant periods run
  // batched.  The oracle reads the plant every tick, so the sim never
  // defers its plant half.

  /// Console → network → ITP hop → the stack's tick_begin.
  void tick_begin();
  /// Verdict bookkeeping, oracle, trace/flight/event bookkeeping, clock
  /// tick.
  void tick_finish();

  // UsbHops: the read and write interposer chains.
  bool on_read(std::span<std::uint8_t> feedback) override {
    return read_chain_.process(feedback, clock_.ticks());
  }
  bool on_write(std::span<std::uint8_t> command) override {
    return write_chain_.process(command, clock_.ticks());
  }

  friend class LockstepGroup;

  void update_oracle();
  void emit_event(std::string_view kind, std::initializer_list<obs::EventField> fields);
  void dump_flight(std::string_view reason);

  SimConfig config_;
  SimClock clock_;
  MasterConsole console_;
  UdpChannel udp_;
  RobotStack stack_;

  InterposerChain itp_chain_;
  InterposerChain write_chain_;
  InterposerChain read_chain_;

  // Oracle state: rings of recent ground-truth end-effector positions and
  // of the operator's *clean* (pre-attack) commanded positions; "abrupt
  // jump" is excess actual displacement over commanded displacement.
  // 32 ms window: long enough for the arm's mechanics to express a real
  // jump (motor -> cable -> joint takes ~10-30 ms), short enough that a
  // slow drift at surgical speeds is not mislabelled as "abrupt".
  static constexpr std::size_t kOracleWindow = 32;  // ticks (= ms)
  std::array<Position, kOracleWindow + 1> ee_ring_{};
  std::array<Position, kOracleWindow + 1> cmd_ring_{};
  std::size_t ee_head_ = 0;
  std::size_t ee_history_ = 0;
  bool clean_pedal_ = false;
  Vec3 clean_increment_{};
  Position clean_desired_{};
  bool clean_desired_valid_ = false;
  RunOutcome outcome_{};

  TraceRecorder* trace_ = nullptr;
  DetectionObserver detection_observer_;

  // --- telemetry (optional, caller-owned sinks) ---------------------------
  obs::EventLog* events_ = nullptr;
  std::vector<obs::EventField> event_context_;
  obs::FlightRecorder* flight_ = nullptr;
  AttackArtifacts installed_{};       ///< for injection-count bookkeeping
  std::uint64_t last_injections_ = 0;
  RobotState last_state_ = RobotState::kEStop;
  bool last_alarm_ = false;
  bool last_blocked_ = false;
  bool raven_fault_reported_ = false;
  bool plc_estop_reported_ = false;
  bool adverse_impact_reported_ = false;
};

}  // namespace rg
