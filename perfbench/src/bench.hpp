// Shared vocabulary of the raven-guard benchmark binary (rg_perfbench):
// run options, the result record printed as the last stdout line, the
// process clocks, and the inputs every workload draws from — seeded ITP
// console streams, scenario-A injections, learned detection thresholds
// and the gateway session stack configured like the simulator's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/itp_injection.hpp"
#include "core/thresholds.hpp"
#include "net/itp_packet.hpp"
#include "net/master_console.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "svc/session_engine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";  ///< state-plane directory root
};

/// One run's verdict: the accounting and metrics printed as JSON.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// The value recorded under `name`, if any.
  [[nodiscard]] std::optional<double> value(const std::string& name) const;
  /// Record a correctness check; a failed one makes the run incorrect
  /// and is explained on stderr.
  void check(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  /// Fold another run's operation counts into this one.
  void add_counts(const Report& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- clocks and process accounting ------------------------------------------

[[nodiscard]] std::uint64_t now_ns() noexcept;
[[nodiscard]] double seconds_since(std::uint64_t start_ns) noexcept;
/// User + system CPU of every thread of this process (s).
[[nodiscard]] double process_cpu_s() noexcept;
/// CPU of the calling thread (s).
[[nodiscard]] double thread_cpu_s() noexcept;
/// Peak resident set size of this process (MiB).
[[nodiscard]] double peak_rss_mb() noexcept;

/// q-quantile (0..1) with linear interpolation; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(const std::vector<double>& v);
/// Mean and percentile of a registry histogram (0 when absent/empty).
[[nodiscard]] double hist_mean(const rg::obs::MetricsSnapshot& snap, const char* name);
[[nodiscard]] double hist_pct(const rg::obs::MetricsSnapshot& snap, const char* name, double p);

// --- inputs ---------------------------------------------------------------

/// Sessions draw their console traffic from this many distinct streams
/// (session s plays stream s % kStreams), so inputs stay a few consoles
/// regardless of the session count.
inline constexpr std::size_t kStreams = 16;

/// The surgeon console behind stream `stream` for run seed `seed`: a
/// tilted circle whose radius and period depend on both.
[[nodiscard]] std::unique_ptr<rg::MasterConsole> make_console(std::size_t stream,
                                                              std::uint64_t seed);

/// kStreams consoles advanced in lockstep, one tick at a time: the
/// current tick's datagram of every stream, generated on demand.
class StreamBank {
 public:
  explicit StreamBank(std::uint64_t seed);
  void advance();
  [[nodiscard]] const rg::ItpBytes& current(std::size_t session) const noexcept {
    return current_[session % kStreams];
  }

 private:
  std::vector<std::unique_ptr<rg::MasterConsole>> consoles_;
  std::vector<rg::ItpBytes> current_;
};

/// One session in eight carries the scenario-A injection; the seed picks
/// which.
[[nodiscard]] bool attacked_session(std::uint64_t seed, std::size_t session);

/// Scenario A as the attack engine installs it: inflated operator
/// increments, re-sealed checksum.  Strong enough that the armed
/// detector must catch it.
[[nodiscard]] rg::ItpInjectionConfig scenario_a_injection(std::uint64_t seed,
                                                          std::size_t session);

/// The standard session of the detection experiments (the geometry the
/// thresholds are learned on).
[[nodiscard]] rg::SessionParams standard_session(std::uint64_t seed);

/// Thresholds the gateway workloads arm their detector with: the paper's
/// percentile over a fixed fault-free corpus (independent of --seed).
[[nodiscard]] rg::DetectionThresholds gateway_thresholds();

/// A gateway session stack configured like make_session(): the
/// calibrated estimator, the paper's fusion rule, armed E-STOP.
[[nodiscard]] rg::svc::SessionEngineConfig engine_config(const rg::DetectionThresholds& th);

/// Every threshold finite and positive.
[[nodiscard]] bool thresholds_sane(const rg::DetectionThresholds& th);

// --- workloads ---------------------------------------------------------------

void run_gw_paced(const Options& opt, Report& report);
void run_gw_flood(const Options& opt, Report& report);
void run_campaign(const Options& opt, Report& report);

/// Per-layer engine phases: drives SessionEngine in 8-lane groups the way
/// a shard round does, over `sessions` sessions of the seed's streams for
/// `ticks` ticks, timing each phase per lane (control.*, dynamics.*,
/// core.*, plant.*, svc.finish_ns).  One session in eight carries the
/// scenario-A injection, as on gw-paced.
void trace_engine_phases(const rg::svc::SessionEngineConfig& engine, std::uint64_t seed,
                         std::size_t sessions, std::uint64_t ticks, Report& report);

/// decode_itp cost over the seed's streams (net.decode_ns).
void trace_decode(std::uint64_t seed, Report& report);

}  // namespace perfbench
