// DetectionPipeline: the deployable unit combining estimator, detector,
// and mitigator at the software-physical boundary.
//
// The pipeline is inserted *downstream* of any attacker interposition —
// conceptually in the USB board's microcontroller or a trusted hardware
// module just before the motor controllers (paper Sec. IV.C) — so it sees
// exactly the bytes the motors would execute, malicious or not, and can
// veto them before they act on the physical system.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/realtime.hpp"
#include "core/detector.hpp"
#include "core/estimator.hpp"
#include "core/mitigator.hpp"
#include "core/thresholds.hpp"
#include "hw/usb_packet.hpp"
#include "kinematics/types.hpp"

namespace rg {

struct PipelineConfig {
  EstimatorConfig estimator{};
  DetectorConfig detector{};
  MitigationStrategy mitigation = MitigationStrategy::kEStop;
  /// When false, the pipeline only observes (used while learning
  /// thresholds and for detection-accuracy-only experiments).
  bool mitigation_enabled = true;
};

class DetectionPipeline {
 public:
  struct Outcome {
    bool alarm = false;
    bool blocked = false;          ///< packet was replaced by mitigation
    CommandBytes bytes{};          ///< what the board should receive
    Prediction prediction{};
    Verdict verdict{};
  };

  explicit DetectionPipeline(const PipelineConfig& config);

  /// Feed this cycle's encoder feedback (same angles the software saw).
  RG_REALTIME void observe_feedback(const MotorVector& encoder_angles) noexcept {
    estimator_.observe_feedback(encoder_angles);
  }

  /// Tell the monitor whether the drives are live (brakes released).  A
  /// braked robot cannot move, so screening pauses and the parallel model
  /// re-syncs when the robot next engages.
  RG_REALTIME void set_engaged(bool engaged) noexcept {
    if (!engaged && engaged_) estimator_.mark_disengaged();
    engaged_ = engaged;
  }

  /// Screen one command packet (post-attack bytes).  Returns the verdict
  /// and the possibly-rewritten bytes.  Undecodable packets are treated
  /// as malicious and blocked outright (a trusted monitor fails closed).
  [[nodiscard]] RG_REALTIME Outcome process(std::span<const std::uint8_t> command_bytes);

  // --- deferred-solve decomposition of process() ---------------------------
  // process(bytes) == begin → estimator().solve(pending) → finish.  The
  // lane driver step_lanes (stack/robot_stack.hpp) uses the split to batch
  // the model solve of many stacks' screens into one SoA integration; each
  // phase runs the exact statements process() would.

  /// Everything carried from begin_process to finish_process.  Owns a
  /// copy of the command bytes: the span handed to begin_process need not
  /// outlive the call.
  struct ScreenState {
    bool complete = false;  ///< `out` is final; no model solve required
    Outcome out{};
    PendingSolve pending{};
    CommandPacket cmd{};
    CommandBytes raw{};
    std::size_t raw_size = 0;
  };

  /// Decode + fast-path screening.  Leaves `pending` active when a model
  /// solve is still needed (the common case); sets `complete` when the
  /// verdict needed none (disengaged, undecodable, or no feedback yet).
  [[nodiscard]] RG_REALTIME ScreenState begin_process(std::span<const std::uint8_t> command_bytes);

  /// Finish screening with the solved one-step-ahead state (`next` from
  /// estimator().solve(st.pending) or a batched lane; ignored when
  /// `st.complete`).
  [[nodiscard]] RG_REALTIME Outcome finish_process(ScreenState& st,
                                                   const RavenDynamicsModel::State& next);

  // --- run statistics ------------------------------------------------------
  [[nodiscard]] std::uint64_t alarms() const noexcept { return alarms_; }
  [[nodiscard]] std::optional<std::uint64_t> first_alarm_tick() const noexcept {
    return first_alarm_tick_;
  }
  [[nodiscard]] std::uint64_t commands_screened() const noexcept { return screened_; }

  void set_thresholds(const DetectionThresholds& thresholds) noexcept {
    detector_.set_thresholds(thresholds);
  }
  [[nodiscard]] RG_REALTIME DynamicModelEstimator& estimator() noexcept { return estimator_; }
  [[nodiscard]] const DynamicModelEstimator& estimator() const noexcept { return estimator_; }
  [[nodiscard]] const AnomalyDetector& detector() const noexcept { return detector_; }

  void reset() noexcept;

 private:
  PipelineConfig config_;
  DynamicModelEstimator estimator_;
  AnomalyDetector detector_;
  Mitigator mitigator_;
  bool engaged_ = true;
  std::uint64_t screened_ = 0;
  std::uint64_t alarms_ = 0;
  std::optional<std::uint64_t> first_alarm_tick_{};
};

}  // namespace rg
