// rg_perfbench: one workload of the raven-guard benchmark per process.
//
//   rg_perfbench --workload gw-paced|gw-flood|campaign --seed N --seconds S
//                --trace 0|1 [--scratch DIR]
//   rg_perfbench --print-thresholds
//
// Untraced runs print the end-to-end metrics; traced runs first repeat
// the workload untraced for half the time, then traced for the other
// half, and print the per-layer metrics plus the tracing overhead.  The
// last stdout line is the result object (see README.md).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order.  A layer a workload does not
/// exercise reads 0 there (README.md lists which).
constexpr MetricSpec kPerLayer[] = {
    {"net.decode_ns", "ns"},
    {"svc.transport.poll_ns", "ns"},
    {"svc.transport.dgrams_per_poll", "count"},
    {"svc.pump.ns_per_dgram", "ns"},
    {"svc.drain_us", "us"},
    {"svc.round.lanes_mean", "count"},
    {"svc.ingest_to_verdict_p50_us", "us"},
    {"svc.ingest_to_verdict_p99_us", "us"},
    {"svc.ring.queue_hwm", "count"},
    {"svc.ring.full", "count"},
    {"svc.accepted", "count"},
    {"svc.rejected", "count"},
    {"svc.verdict_p99_us", "us"},
    {"svc.verdict_p999_us", "us"},
    {"svc.verdict_samples", "count"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.late_max_us", "us"},
    {"loadgen.late_samples", "count"},
    {"control.tick_begin_ns", "ns"},
    {"dynamics.solve_ns", "ns"},
    {"core.resolve_ns", "ns"},
    {"plant.step_ns", "ns"},
    {"svc.finish_ns", "ns"},
    {"core.screened", "count"},
    {"core.alarms", "count"},
    {"core.blocked", "count"},
    {"persist.open_ms", "ms"},
    {"persist.ops", "count"},
    {"persist.dropped", "count"},
    {"persist.flushes", "count"},
    {"persist.wal_records", "count"},
    {"persist.journal_bytes", "B"},
    {"obs.admin_poll_ms", "ms"},
    {"sim.calibration_s", "s"},
    {"sim.detection_s", "s"},
    {"sim.job_ms_p50", "ms"},
    {"sim.queue_wait_ms_p50", "ms"},
    {"sim.speedup", "x"},
    {"sim.tick_us", "us"},
    {"sim.plant_step_batch_us", "us"},
    {"sim.solve_batch_us", "us"},
    {"trace.cpu_us_per_tick", "us"},
    {"trace.overhead_pct", "%"},
};

using WorkloadFn = void (*)(const Options&, Report&);

struct Workload {
  const char* name;
  WorkloadFn run;
  std::size_t engine_sessions;  ///< sessions of the traced engine-phase pass
};

constexpr Workload kWorkloads[] = {
    {"gw-paced", run_gw_paced, 64},
    {"gw-flood", run_gw_flood, 240},
    {"campaign", run_campaign, 64},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rg_perfbench: %s\nusage: rg_perfbench --workload gw-paced|gw-flood|campaign "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n"
               "       rg_perfbench --print-thresholds\n",
               why);
  std::exit(2);
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-thresholds") {
      const rg::DetectionThresholds th = gateway_thresholds();
      std::printf("motor_vel %.9g %.9g %.9g\nmotor_acc %.9g %.9g %.9g\njoint_vel %.9g %.9g %.9g\n",
                  th.motor_vel[0], th.motor_vel[1], th.motor_vel[2], th.motor_acc[0],
                  th.motor_acc[1], th.motor_acc[2], th.joint_vel[0], th.joint_vel[1],
                  th.joint_vel[2]);
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--scratch") {
      opt.scratch = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown --workload");
  // gw-paced's scenario-A attacks land 1.1-1.4 s into a run.
  if (!(opt.seconds >= (opt.trace ? 4.0 : 2.0))) usage("--seconds must be at least 2 (4 traced)");

  Report report;
  if (!opt.trace) {
    workload->run(opt, report);
  } else {
    // Same process, same inputs: half the time untraced as the baseline
    // of the tracing overhead, half traced.
    Options half = opt;
    half.seconds = opt.seconds / 2.0;
    half.trace = false;
    Report baseline;
    workload->run(half, baseline);
    const double base_cpu = baseline.value("cpu_us_per_tick").value_or(0.0);
    rg::obs::Registry::global().reset();
    half.trace = true;
    workload->run(half, report);
    report.check(baseline.correct(), "untraced half of the traced run failed its checks");
    report.add_counts(baseline);
    const double traced_cpu = report.value("trace.cpu_us_per_tick").value_or(0.0);
    report.metric("trace.overhead_pct", 100.0 * (traced_cpu / base_cpu - 1.0), "%");
    trace_decode(opt.seed, report);
    trace_engine_phases(engine_config(gateway_thresholds()), opt.seed,
                        workload->engine_sessions, 2000, report);
    for (const MetricSpec& m : kPerLayer) {
      if (!report.value(m.name)) report.metric(m.name, 0.0, m.unit);
    }
  }
  std::cout << report.json() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rg_perfbench: %s\n", e.what());
    return 1;
  }
}
