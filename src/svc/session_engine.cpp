#include "svc/session_engine.hpp"

#include <bit>

namespace rg::svc {

SessionEngine::SessionEngine(const SessionEngineConfig& config)
    : stack_(config.control, config.plant, config.plc, config.channel, config.detection,
             config.initial_joints) {
  if (config.calibration.enabled) {
    sketch_ = std::make_unique<ThresholdSketch>(config.calibration.target_quantile);
  }
}

RG_REALTIME void SessionEngine::tick_begin(std::optional<std::span<const std::uint8_t>> itp) {
  // A live gateway session has no operator walking to the start button:
  // arm the control software and PLC on the first tick.
  if (!stack_.started()) stack_.press_start();
  stack_.tick_begin(itp);
}

RG_REALTIME SessionEngine::TickResult SessionEngine::record_verdict() {
  const DetectionPipeline::Outcome& out = stack_.outcome();
  if (out.alarm) ++alarms_;
  if (out.blocked) ++blocked_;
  fold_digest(out);
  if (sketch_) sketch_->observe(out.prediction);
  ++ticks_;
  // A command the board refused never executed: report the tick as
  // unscreened rather than pretending the verdict drove the plant.
  return TickResult{stack_.screened() && stack_.accepted(), out.alarm, out.blocked};
}

RG_REALTIME SessionEngine::TickResult SessionEngine::tick_finish() {
  stack_.tick_finish();
  return record_verdict();
}

RG_REALTIME SessionEngine::TickResult SessionEngine::tick(
    std::optional<std::span<const std::uint8_t>> itp) {
  tick_begin(itp);
  RobotStack* const lane = &stack_;
  step_lanes(std::span<RobotStack* const>{&lane, 1}, nullptr);
  return record_verdict();
}

RG_REALTIME void SessionEngine::fold_digest(const DetectionPipeline::Outcome& out) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto fold = [&](std::uint64_t v) {
    digest_ ^= v;
    digest_ *= kPrime;
  };
  fold(static_cast<std::uint64_t>(out.alarm) | (static_cast<std::uint64_t>(out.blocked) << 1) |
       (static_cast<std::uint64_t>(out.verdict.worst_axis) << 2));
  fold(std::bit_cast<std::uint64_t>(out.prediction.ee_displacement));
}

}  // namespace rg::svc
