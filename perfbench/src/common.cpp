#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::optional<double> Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    os << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double process_cpu_s() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double hist_mean(const rg::obs::MetricsSnapshot& snap, const char* name) {
  const rg::obs::HistogramData* h = snap.histogram(name);
  return h == nullptr || h->empty() ? 0.0 : h->mean();
}

double hist_pct(const rg::obs::MetricsSnapshot& snap, const char* name, double p) {
  const rg::obs::HistogramData* h = snap.histogram(name);
  return h == nullptr || h->empty() ? 0.0 : h->percentile(p);
}

namespace {

/// The control software acts on pedal *edges*: a pedal pressed during
/// homing (~0.8 s after the gateway's auto-start) is never seen, and the
/// session would idle in Pedal Up with the brakes on.  Press it after.
constexpr double kPedalDownSec = 1.0;

}  // namespace

std::unique_ptr<rg::MasterConsole> make_console(std::size_t stream, std::uint64_t seed) {
  // Radius and period vary with the stream and the seed but stay inside
  // the workspace the thresholds were learned on.
  const std::uint64_t salt = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  const double radius = 0.010 + 0.0001 * static_cast<double>((salt >> 20) % 16);
  const double period = 2.5 + 0.1 * static_cast<double>((salt >> 40) % 5);
  auto trajectory = std::make_shared<rg::CircleTrajectory>(rg::Position{0.09, 0.0, -0.11},
                                                           radius, period, 1.0e9);
  return std::make_unique<rg::MasterConsole>(std::move(trajectory),
                                             rg::PedalSchedule::hold_from(kPedalDownSec));
}

StreamBank::StreamBank(std::uint64_t seed) : current_(kStreams) {
  for (std::size_t s = 0; s < kStreams; ++s) consoles_.push_back(make_console(s, seed));
}

void StreamBank::advance() {
  for (std::size_t s = 0; s < kStreams; ++s) current_[s] = rg::encode_itp(consoles_[s]->tick());
}

bool attacked_session(std::uint64_t seed, std::size_t session) {
  return (session + seed) % 8 == 0;
}

rg::ItpInjectionConfig scenario_a_injection(std::uint64_t seed, std::size_t session) {
  rg::ItpInjectionConfig cfg;
  cfg.mode = rg::ItpInjectionConfig::Mode::kInflateIncrement;
  // A strong scenario-A cell of the Table IV grid that stays under
  // RAVEN's own increment checks, so the detector (not the stock safety
  // software) must be the one to stop it, within a few packets.
  cfg.increment_magnitude = 1.3e-4;
  cfg.duration_packets = 512;
  // Lands 0.1-0.325 s into teleoperation, so even a 2 s run carries it.
  // Every four consecutive attacked sessions take the four delays in a
  // seed-dependent order: the seed moves the attacks, not the workload.
  cfg.delay_packets = 100 + static_cast<std::uint32_t>((session / 8 + seed) % 4) * 75;
  cfg.seed = seed * 1000 + session;
  return cfg;
}

rg::SessionParams standard_session(std::uint64_t seed) {
  rg::SessionParams p;
  p.seed = seed;
  p.duration_sec = 5.0;
  return p;
}

rg::DetectionThresholds gateway_thresholds() {
  rg::LearnOptions options;
  options.jobs = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  const auto learned = rg::learn_thresholds(standard_session(42), 48, options);
  if (!learned.ok()) {
    std::fprintf(stderr, "perfbench: threshold learning failed: %s\n",
                 learned.error().to_string().c_str());
    std::exit(3);
  }
  return learned.value();
}

rg::svc::SessionEngineConfig engine_config(const rg::DetectionThresholds& th) {
  const rg::SimConfig sim =
      rg::make_session(standard_session(42), th, rg::MitigationMode::kArmed);
  rg::svc::SessionEngineConfig cfg;
  cfg.control = sim.control;
  cfg.plant = sim.plant;
  cfg.plc = sim.plc;
  cfg.channel = sim.channel;
  cfg.detection = *sim.detection;
  return cfg;
}

bool thresholds_sane(const rg::DetectionThresholds& th) {
  for (std::size_t i = 0; i < 3; ++i) {
    for (const double v : {th.motor_vel[i], th.motor_acc[i], th.joint_vel[i]}) {
      if (!std::isfinite(v) || v <= 0.0) return false;
    }
  }
  return true;
}

}  // namespace perfbench
