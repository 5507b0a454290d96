// campaign: the paper's offline experiments through the campaign engine
// (sim/) — a fault-free calibration corpus, then a scenario-A +
// scenario-B attack grid in the shape of Table IV armed with the learned
// thresholds.  The gateway (svc/) and the state plane (persist/) are not
// on this path.
//
// A round is one calibration campaign plus one grid campaign with fixed
// seeds; the run repeats whole rounds until --seconds have passed, so
// every round must produce the same report.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "sim/campaign.hpp"
#include "sim/metrics.hpp"

namespace perfbench {
namespace {

/// Fault-free calibration runs per round.
constexpr int kCalibrationRuns = 32;
constexpr int kReps = 2;
// A coarse cut of the Table IV grid: scenario A increments (m/packet),
// scenario B DAC offsets (counts), attack durations (packets).  The last
// magnitude and duration form each scenario's strongest cell.
constexpr double kMagsA[] = {8e-6, 1.8e-5, 3.5e-5, 8e-5, 1.3e-4};
constexpr double kMagsB[] = {1000, 4000, 12000, 20000, 32000};
constexpr std::uint32_t kDurations[] = {2, 8, 32, 128, 512};

std::vector<rg::CampaignJob> attack_grid(const rg::DetectionThresholds& th, std::uint64_t seed) {
  std::vector<rg::CampaignJob> jobs;
  for (const rg::AttackVariant variant :
       {rg::AttackVariant::kUserInputInjection, rg::AttackVariant::kTorqueInjection}) {
    const bool a = variant == rg::AttackVariant::kUserInputInjection;
    for (const double magnitude : a ? std::span<const double>{kMagsA} : std::span<const double>{kMagsB}) {
      for (const std::uint32_t duration : kDurations) {
        for (int rep = 0; rep < kReps; ++rep) {
          const auto i = static_cast<std::uint64_t>(jobs.size());
          rg::CampaignJob job;
          job.attack.variant = variant;
          job.attack.magnitude = magnitude;
          job.attack.duration_packets = duration;
          job.attack.delay_packets =
              300 + static_cast<std::uint32_t>(rep) * 113 + static_cast<std::uint32_t>(seed % 7) * 29;
          job.attack.seed = 90000 + seed * 7919 + i * 17;
          job.params = standard_session(500 + seed * 1009 + i * 31);
          job.thresholds = th;
          job.label.assign(1, a ? 'A' : 'B');
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

/// The report's per-job lines (timing section omitted) with the
/// submission index dropped, so a subset re-run compares line by line.
std::vector<std::string> result_lines(const rg::CampaignReport& report) {
  std::ostringstream os;
  report.write_json(os, false);
  std::vector<std::string> out;
  std::istringstream in(os.str());
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("    {\"index\": ", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    out.push_back(line.substr(line.find(',')));
  }
  return out;
}

struct ScenarioScore {
  rg::ConfusionMatrix dyn;
  rg::ConfusionMatrix raven;
  bool strongest_all_alarm = true;
};

}  // namespace

void run_campaign(const Options& opt, Report& report) {
  const int workers = static_cast<int>(std::max(1U, std::min(4U, std::thread::hardware_concurrency())));
  const rg::SessionParams base = standard_session(7000 + opt.seed * 101);
  rg::LearnOptions learn;
  learn.jobs = workers;

  std::vector<double> setups;
  std::vector<double> cal_s;
  std::vector<double> det_s;
  std::vector<double> job_ms;
  std::vector<double> wait_ms;
  std::vector<double> per_tick_us;
  std::vector<double> speedups;
  std::string first_round;
  std::uint64_t ticks = 0;
  std::uint64_t rounds = 0;
  double busy_s = 0.0;
  double cpu = 0.0;  // over the two timed campaigns only, not the checks
  const std::uint64_t t_run = now_ns();
  while (rounds == 0 || seconds_since(t_run) < opt.seconds) {
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const auto calibrated = rg::run_calibration_campaign(base, kCalibrationRuns, learn);
    const std::uint64_t t1 = now_ns();
    cpu += process_cpu_s() - cpu0;
    report.attempted(kCalibrationRuns);
    if (!calibrated.ok()) {
      report.failed(kCalibrationRuns);
      report.check(false, "calibration campaign: " + calibrated.error().to_string());
      break;
    }
    const auto th = calibrated.value().extract();
    report.check(th.ok() && thresholds_sane(th.value()),
                 "learned thresholds not finite and positive");
    if (!th.ok()) break;

    // Set-up: runner and job construction (median of several).
    rg::CampaignRunner runner(rg::CampaignOptions{workers, {}, 0});
    std::vector<rg::CampaignJob> jobs;
    for (int rep = 0; rep < 20; ++rep) {
      const std::uint64_t s0 = now_ns();
      runner = rg::CampaignRunner(rg::CampaignOptions{workers, {}, 0});
      jobs = attack_grid(th.value(), opt.seed);
      setups.push_back(seconds_since(s0));
    }
    // Every tenth job, re-run serially and unbatched after the first round.
    std::vector<rg::CampaignJob> subset;
    for (std::size_t i = 0; rounds == 0 && i < jobs.size(); i += 10) subset.push_back(jobs[i]);
    const std::size_t njobs = jobs.size();
    report.attempted(njobs);
    const double cpu2 = process_cpu_s();
    const std::uint64_t t2 = now_ns();
    rg::CampaignReport grid;
    try {
      grid = runner.run(std::move(jobs));
    } catch (const rg::CampaignError& e) {
      report.failed(njobs);
      report.check(false, e.what());
      break;
    }
    const std::uint64_t t3 = now_ns();
    cpu += process_cpu_s() - cpu2;
    busy_s += 1e-9 * static_cast<double>((t1 - t0) + (t3 - t2));
    cal_s.push_back(1e-9 * static_cast<double>(t1 - t0));
    det_s.push_back(1e-9 * static_cast<double>(t3 - t2));
    speedups.push_back(grid.speedup());
    const std::uint64_t job_ticks = grid.results.front().ticks;
    for (const rg::CampaignJobResult& r : grid.results) {
      report.check(r.ticks == job_ticks, "grid jobs of equal duration ran unequal ticks");
      job_ms.push_back(r.wall_ms);
      wait_ms.push_back(r.queue_wait_ms);
      per_tick_us.push_back(1e3 * r.wall_ms / static_cast<double>(r.ticks));
    }
    // Calibration runs share the grid's session length.
    ticks += grid.counters.ticks + static_cast<std::uint64_t>(kCalibrationRuns) * job_ticks;

    std::ostringstream os;
    grid.write_json(os, false);
    if (rounds == 0) {
      first_round = os.str();
      // Paper's Table IV claims, scored per scenario.
      ScenarioScore score[2];
      for (const rg::CampaignJobResult& r : grid.results) {
        ScenarioScore& sc = score[r.label == "A" ? 0 : 1];
        const bool truth = r.run.impact();
        sc.dyn.add(truth, r.run.outcome.detector_alarmed());
        sc.raven.add(truth, r.run.outcome.raven_detected());
        const bool strongest = (r.label == "A" ? r.run.spec.magnitude == kMagsA[std::size(kMagsA) - 1]
                                               : r.run.spec.magnitude == kMagsB[std::size(kMagsB) - 1]) &&
                               r.run.spec.duration_packets == kDurations[std::size(kDurations) - 1];
        if (strongest && !r.run.outcome.detector_alarmed()) sc.strongest_all_alarm = false;
      }
      for (int s = 0; s < 2; ++s) {
        const std::string name = s == 0 ? "scenario A" : "scenario B";
        report.check(score[s].dyn.tpr() >= score[s].raven.tpr(),
                     name + ": dynamic-model TPR below RAVEN's");
        report.check(score[s].strongest_all_alarm, name + ": a run of the strongest cell did not alarm");
      }
      // Determinism: the strided subset re-run serially and unbatched.
      const rg::CampaignReport serial =
          rg::CampaignRunner(rg::CampaignOptions{1, {}, 1}).run(std::move(subset));
      const std::vector<std::string> all = result_lines(grid);
      const std::vector<std::string> sub = result_lines(serial);
      bool same = sub.size() * 10 >= all.size();
      for (std::size_t k = 0; same && k < sub.size(); ++k) same = sub[k] == all[k * 10];
      report.check(same, "campaign report differs from a jobs=1, lanes=1 re-run of a subset");
    } else {
      report.check(os.str() == first_round, "a repeated round produced a different report");
    }
    ++rounds;
  }
  const double executed = static_cast<double>(ticks);

  if (!opt.trace) {
    report.metric("setup_s", median(setups), "s");
    // Wall time per verdict inside a session (its share of a lockstep group).
    report.metric("verdict_p50_us", median(per_tick_us), "us");
    report.metric("ticks_per_s", executed / busy_s, "1/s");
    report.metric("cpu_us_per_tick", 1e6 * cpu / executed, "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    report.metric("trace.cpu_us_per_tick", 1e6 * cpu / executed, "us");
    const rg::obs::MetricsSnapshot snap = rg::obs::Registry::global().snapshot();
    report.metric("sim.calibration_s", median(cal_s), "s");
    report.metric("sim.detection_s", median(det_s), "s");
    report.metric("sim.job_ms_p50", median(job_ms), "ms");
    report.metric("sim.queue_wait_ms_p50", median(wait_ms), "ms");
    report.metric("sim.speedup", median(speedups), "x");
    report.metric("sim.tick_us", 1e-3 * hist_mean(snap, "rg.span.sim.tick"), "us");
    report.metric("sim.plant_step_batch_us", 1e-3 * hist_mean(snap, "rg.span.plant.step_batch"), "us");
    report.metric("sim.solve_batch_us", 1e-3 * hist_mean(snap, "rg.span.estimator.solve_batch"),
                  "us");
  }
}

}  // namespace perfbench
