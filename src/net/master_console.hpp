// Master (teleoperation) console emulator.
//
// Mirrors the paper's "master console emulator that mimics the
// teleoperation console functionality by generating user input packets
// based on previously collected trajectories".  Each control tick it
// emits one ITP packet carrying the foot-pedal state and the incremental
// tool motion since the previous tick.  The trajectory clock only
// advances while the pedal is down — lifting the pedal decouples the
// master, exactly as on the robot.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "net/itp_packet.hpp"
#include "trajectory/trajectory.hpp"

namespace rg {

/// First pedal press, in session time (s), for a console driving a
/// session from its start: ControlSoftware acts only on pedal edges, so a
/// press during the ~0.8 s homing is lost and the arm stays braked in
/// Pedal Up.
inline constexpr double kPedalAfterHomingSec = 1.0;

/// Pedal press intervals in session time (seconds); outside every
/// interval the pedal is up.
struct PedalSchedule {
  struct Interval {
    double t_down = 0.0;
    double t_up = 0.0;
  };
  std::vector<Interval> intervals;

  /// Pedal held down for the whole session after a lead-in.
  static PedalSchedule hold_from(double t_down, double t_up = 1.0e9) {
    return PedalSchedule{{Interval{t_down, t_up}}};
  }

  [[nodiscard]] bool pedal_down_at(double t) const noexcept {
    for (const auto& iv : intervals) {
      if (t >= iv.t_down && t < iv.t_up) return true;
    }
    return false;
  }
};

/// Wrist motion the operator superimposes on the tool path: smooth
/// sinusoidal orientation changes per axis (rad).  Zero amplitude = no
/// orientation commands.
struct OrientationMotion {
  Vec3 amplitude{0.12, 0.08, 0.15};
  double frequency_hz = 0.3;
};

class MasterConsole {
 public:
  MasterConsole(std::shared_ptr<const Trajectory> trajectory, PedalSchedule schedule,
                OrientationMotion orientation = {});

  /// Generate the ITP packet for the current session time, then advance
  /// the console by one control tick.
  [[nodiscard]] ItpPacket tick();

  /// Session time (s) of the next packet to be generated.
  [[nodiscard]] double session_time() const noexcept {
    return static_cast<double>(tick_count_) * kControlPeriodSec;
  }

  /// Trajectory progress time (s) — advances only while the pedal is down.
  [[nodiscard]] double trajectory_time() const noexcept { return traj_time_; }

  /// True when the trajectory has been fully played out.
  [[nodiscard]] bool finished() const noexcept {
    return traj_time_ >= trajectory_->duration();
  }

 private:
  [[nodiscard]] Vec3 orientation_at(double t) const noexcept;

  std::shared_ptr<const Trajectory> trajectory_;
  PedalSchedule schedule_;
  OrientationMotion orientation_;
  std::uint64_t tick_count_ = 0;
  std::uint32_t sequence_ = 0;
  double traj_time_ = 0.0;
  Position last_pos_{};
  Vec3 last_ori_{};
  bool last_pos_valid_ = false;
};

}  // namespace rg
