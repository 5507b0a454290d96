// Batched SoA dynamics vs the scalar reference: every lane of a batched
// integration must be *bit-identical* to a scalar integration of that
// lane — the property that lets the campaign engine run homogeneous jobs
// in lockstep without perturbing a byte of the deterministic report.
// Also covers the estimator's predict/commit solve-dedup (one model solve
// per screened tick) and the campaign-level byte-identity of batched vs
// scalar execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "attack/attack_engine.hpp"
#include "core/pipeline.hpp"
#include "dynamics/batch_model.hpp"
#include "hw/usb_packet.hpp"
#include "plant/batch_plant.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/lockstep.hpp"
#include "sim/surgical_sim.hpp"
#include "sim/trace.hpp"

namespace rg {
namespace {

using State = RavenDynamicsModel::State;

/// Randomized lane states spanning the normal workspace and hard-stop
/// violations (|q| beyond the limits exercises the branch-free stops).
std::array<State, kBatchLanes> random_states(std::mt19937_64& gen, double span) {
  std::uniform_real_distribution<double> u(-span, span);
  std::array<State, kBatchLanes> states{};
  for (auto& x : states) {
    for (std::size_t i = 0; i < 12; ++i) x[i] = u(gen);
  }
  return states;
}

std::array<Vec3, kBatchLanes> random_currents(std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(-6.0, 6.0);
  std::array<Vec3, kBatchLanes> currents{};
  for (auto& c : currents) c = {u(gen), u(gen), u(gen)};
  return currents;
}

TEST(BatchDynamics, DerivativeBitIdenticalToScalar) {
  for (bool hard_stops : {false, true}) {
    RavenDynamicsParams params;
    params.enforce_hard_stops = hard_stops;
    const RavenDynamicsModel scalar(params);
    const BatchRavenModel batch(params);

    std::mt19937_64 gen(7);
    for (int round = 0; round < 20; ++round) {
      const auto states = random_states(gen, 3.0);
      const auto currents = random_currents(gen);

      BatchState x;
      BatchLanes3 cur{};
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        x.set_lane(l, states[l]);
        for (std::size_t i = 0; i < 3; ++i) cur[i][l] = currents[l][i];
      }
      BatchLanes3 tau_em;
      batch.tau_em_from_currents(cur, tau_em);
      BatchState dx;
      batch.derivative(x, tau_em, dx);

      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        const State ref = scalar.derivative(states[l], currents[l]);
        const State got = dx.lane(l);
        for (std::size_t i = 0; i < 12; ++i) {
          EXPECT_EQ(got[i], ref[i]) << "lane " << l << " component " << i
                                    << " hard_stops=" << hard_stops;
        }
      }
    }
  }
}

TEST(BatchDynamics, PlantPeriodSnapsAtScalarCableTension) {
  // One substep of the fused plant kernel from random states.  Each snap
  // threshold sits at the scalar model's cable tension at the new state —
  // equal (strict >: stays intact) or one ulp below (snaps) — and
  // alternate rounds swap which axes get which, so a tension one ulp off
  // the scalar one flips a verdict whichever way it errs.
  for (bool hard_stops : {false, true}) {
    RavenDynamicsParams params;
    params.enforce_hard_stops = hard_stops;
    const RavenDynamicsModel scalar(params);
    constexpr double kSubstep = 5.0e-5;

    std::mt19937_64 gen(11);
    for (int round = 0; round < 20; ++round) {
      const std::size_t parity = static_cast<std::size_t>(round) % 2;
      const auto states = random_states(gen, 2.0);
      const auto currents = random_currents(gen);

      PlantPeriodLanes period;
      std::array<State, kBatchLanes> expected{};
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        period.x.set_lane(l, states[l]);
        for (std::size_t i = 0; i < 3; ++i) period.currents[i][l] = currents[l][i];
        expected[l] = scalar.step(states[l], currents[l], kSubstep, SolverKind::kRk4);
        const Vec3 tension = scalar.cable_force(expected[l]);
        for (std::size_t i = 0; i < 3; ++i) {
          const double at = std::abs(tension[i]);
          ASSERT_GT(at, 0.0);
          period.snap_threshold[i][l] = (l + i + parity) % 2 == 0 ? at : std::nextafter(at, 0.0);
        }
      }
      step_plant_period(scalar.kernel_params(), hard_stops, kSubstep, kSubstep, period);

      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        const State got = period.x.lane(l);
        for (std::size_t i = 0; i < 12; ++i) {
          EXPECT_EQ(got[i], expected[l][i]) << "lane " << l << " component " << i;
        }
        for (std::size_t i = 0; i < 3; ++i) {
          EXPECT_EQ(period.snapped[l][i], (l + i + parity) % 2 == 1)
              << "lane " << l << " axis " << i << " hard_stops=" << hard_stops;
        }
      }
    }
  }
}

TEST(BatchDynamics, StepBitIdenticalToScalarForEverySolver) {
  RavenDynamicsParams params;
  params.enforce_hard_stops = true;
  const RavenDynamicsModel scalar(params);
  const BatchRavenModel batch(params);

  std::mt19937_64 gen(23);
  for (SolverKind solver : {SolverKind::kEuler, SolverKind::kMidpoint, SolverKind::kRk4,
                            SolverKind::kRkf45}) {
    auto states = random_states(gen, 2.5);
    const auto currents = random_currents(gen);

    BatchState x;
    BatchLanes3 cur{};
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      x.set_lane(l, states[l]);
      for (std::size_t i = 0; i < 3; ++i) cur[i][l] = currents[l][i];
    }

    // 200 chained substeps: any lane-ordering or expression-shape
    // difference would compound into visible drift long before this.
    for (int step = 0; step < 200; ++step) {
      batch.step(x, cur, 5.0e-5, solver);
      for (std::size_t l = 0; l < kBatchLanes; ++l) {
        states[l] = scalar.step(states[l], currents[l], 5.0e-5, solver);
      }
    }
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      const State got = x.lane(l);
      for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(got[i], states[l][i])
            << to_string(solver) << " lane " << l << " component " << i;
      }
    }
  }
}

// --- BatchPlant vs scalar PhysicalRobot ------------------------------------

PlantConfig snapping_plant(std::uint64_t seed) {
  PlantConfig config;
  config.seed = seed;
  // Axis 0 snaps under modest drive so both code paths exercise the
  // overload watch and the post-snap decoupled dynamics.
  config.cable_snap_threshold = {6.0, 40.0, 400.0};
  return config;
}

TEST(BatchPlant, LanesMatchScalarPlantsBitwise) {
  constexpr std::size_t kLanes = 5;
  std::vector<PhysicalRobot> scalar_plants;
  std::vector<PhysicalRobot> batch_plants;
  for (std::size_t l = 0; l < kLanes; ++l) {
    scalar_plants.emplace_back(snapping_plant(100 + l));
    batch_plants.emplace_back(snapping_plant(100 + l));
  }
  std::array<PhysicalRobot*, kLanes> ptrs{};
  for (std::size_t l = 0; l < kLanes; ++l) ptrs[l] = &batch_plants[l];
  BatchPlant batch(std::span<PhysicalRobot* const>{ptrs.data(), kLanes});
  ASSERT_EQ(batch.lanes(), kLanes);

  for (int period = 0; period < 400; ++period) {
    std::array<PlantDrive, kLanes> drives{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      // Deterministic per-lane drive profile: strong enough to hit the
      // axis-0 snap threshold mid-run, with a braked window at the end.
      const double phase = 0.013 * period + 0.4 * static_cast<double>(l);
      drives[l].currents = {6.0 * std::sin(phase), 3.0 * std::cos(phase), 1.5 * std::sin(2.0 * phase)};
      drives[l].brakes_engaged = period >= 320;
      drives[l].wrist_currents = {0.2 * std::sin(phase), 0.1, -0.05};
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      scalar_plants[l].step_control_period(drives[l].currents, drives[l].brakes_engaged,
                                           drives[l].wrist_currents);
    }
    batch.step_control_period(std::span<const PlantDrive>{drives.data(), kLanes});
  }

  bool any_snapped = false;
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(scalar_plants[l].snapped_axes(), batch_plants[l].snapped_axes()) << "lane " << l;
    any_snapped = any_snapped || scalar_plants[l].cable_snapped();
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(scalar_plants[l].motor_positions()[i], batch_plants[l].motor_positions()[i])
          << "lane " << l << " axis " << i;
      EXPECT_EQ(scalar_plants[l].motor_velocities()[i], batch_plants[l].motor_velocities()[i])
          << "lane " << l << " axis " << i;
      EXPECT_EQ(scalar_plants[l].joint_positions()[i], batch_plants[l].joint_positions()[i])
          << "lane " << l << " axis " << i;
      EXPECT_EQ(scalar_plants[l].joint_velocities()[i], batch_plants[l].joint_velocities()[i])
          << "lane " << l << " axis " << i;
      EXPECT_EQ(scalar_plants[l].wrist_positions()[i], batch_plants[l].wrist_positions()[i])
          << "lane " << l << " axis " << i;
    }
  }
  // The profile is tuned to snap at least one cable; keep the coverage
  // honest if the physics drifts.
  EXPECT_TRUE(any_snapped);
}

/// Scalar reference plants and the plants BatchPlant views step, built
/// pairwise from the same configs.  Each period, the scalar twins of the
/// member lanes step one by one and the batched twins step through a
/// fresh BatchPlant view over exactly those lanes — as a gateway round
/// binds whichever sessions have a datagram.
class PlantTwins {
 public:
  using DriveFn = std::function<PlantDrive(std::size_t lane, int period)>;

  explicit PlantTwins(const std::vector<PlantConfig>& configs) {
    scalar_.reserve(configs.size());
    batched_.reserve(configs.size());
    for (const PlantConfig& c : configs) {
      scalar_.emplace_back(c);
      batched_.emplace_back(c);
    }
  }

  /// Applies `f` to both twins of `lane` (initial joints, tissue, ...).
  void setup(std::size_t lane, const std::function<void(PhysicalRobot&)>& f) {
    f(scalar_[lane]);
    f(batched_[lane]);
  }

  void step(std::span<const std::size_t> members, int period, const DriveFn& drive) {
    std::vector<PhysicalRobot*> ptrs;
    std::vector<PlantDrive> drives;
    for (std::size_t lane : members) {
      const PlantDrive d = drive(lane, period);
      scalar_[lane].step_control_period(d.currents, d.brakes_engaged, d.wrist_currents);
      ptrs.push_back(&batched_[lane]);
      drives.push_back(d);
    }
    BatchPlant batch(ptrs);
    ASSERT_EQ(batch.lanes(), members.size());
    batch.step_control_period(drives);
  }

  /// Steps every lane together for `periods` periods.
  void run(int periods, const DriveFn& drive) {
    std::vector<std::size_t> all(scalar_.size());
    for (std::size_t l = 0; l < all.size(); ++l) all[l] = l;
    for (int period = 0; period < periods; ++period) step(all, period, drive);
  }

  void expect_bitwise_equal(const std::string& what) const {
    for (std::size_t l = 0; l < scalar_.size(); ++l) {
      const PhysicalRobot& s = scalar_[l];
      const PhysicalRobot& b = batched_[l];
      EXPECT_EQ(s.snapped_axes(), b.snapped_axes()) << what << " lane " << l;
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(s.motor_positions()[i], b.motor_positions()[i]) << what << " lane " << l;
        EXPECT_EQ(s.motor_velocities()[i], b.motor_velocities()[i]) << what << " lane " << l;
        EXPECT_EQ(s.joint_positions()[i], b.joint_positions()[i]) << what << " lane " << l;
        EXPECT_EQ(s.joint_velocities()[i], b.joint_velocities()[i]) << what << " lane " << l;
        EXPECT_EQ(s.wrist_positions()[i], b.wrist_positions()[i]) << what << " lane " << l;
        EXPECT_EQ(s.wrist_velocities()[i], b.wrist_velocities()[i]) << what << " lane " << l;
      }
      ASSERT_EQ(s.tissue() != nullptr, b.tissue() != nullptr) << what << " lane " << l;
      if (s.tissue() != nullptr) {
        EXPECT_EQ(s.tissue()->max_depth(), b.tissue()->max_depth()) << what << " lane " << l;
        EXPECT_EQ(s.tissue()->damaged(), b.tissue()->damaged()) << what << " lane " << l;
      }
    }
  }

  [[nodiscard]] const PhysicalRobot& batched(std::size_t lane) const { return batched_[lane]; }

 private:
  std::vector<PhysicalRobot> scalar_;
  std::vector<PhysicalRobot> batched_;
};

/// Sinusoidal drive whose brakes close on lane l at period 30 + 20 l and
/// open 90 periods later.  Brakes lock the shafts 50 periods after they
/// close, so around period 80 a batch of four or more lanes holds a
/// locked lane (0), coasting lanes (1, 2) and driven ones (3+) at once.
PlantDrive staggered_brake_drive(std::size_t lane, int period) {
  PlantDrive d;
  const double phase = 0.013 * period + 0.4 * static_cast<double>(lane);
  d.currents = {6.0 * std::sin(phase), 3.0 * std::cos(phase), 1.5 * std::sin(2.0 * phase)};
  const int close = 30 + 20 * static_cast<int>(lane);
  d.brakes_engaged = period >= close && period < close + 90;
  d.wrist_currents = {0.2 * std::sin(phase), 0.1, -0.05};
  return d;
}

std::vector<PlantConfig> snapping_plants(std::size_t n, std::uint64_t seed) {
  std::vector<PlantConfig> configs;
  for (std::size_t l = 0; l < n; ++l) configs.push_back(snapping_plant(seed + l));
  return configs;
}

TEST(BatchPlant, EveryLaneCountMatchesScalar) {
  for (std::size_t n = 1; n <= kBatchLanes; ++n) {
    PlantTwins twins(snapping_plants(n, 200 + 10 * n));
    twins.run(260, staggered_brake_drive);
    twins.expect_bitwise_equal(std::to_string(n) + " lanes");
  }
}

TEST(BatchPlant, TissueContactLaneMatchesScalar) {
  // Lane 1 works 2 mm inside compliant tissue, then a shoulder current
  // sweeps it laterally (the TissueIntegration shear scenario); its
  // neighbours run free.
  std::vector<PlantConfig> configs(3);
  for (std::size_t l = 0; l < configs.size(); ++l) configs[l].seed = 300 + l;
  PlantTwins twins(configs);
  for (std::size_t l = 0; l < configs.size(); ++l) {
    twins.setup(l, [](PhysicalRobot& r) { r.set_joint_config(JointVector{0.0, 1.5, 0.15}); });
  }
  twins.setup(1, [](PhysicalRobot& r) {
    TissueParams p;
    p.surface_point = r.end_effector() + Vec3{0.0, 0.0, 2e-3};
    p.normal = Vec3{0.0, 0.0, 1.0};
    r.add_tissue(p);
  });
  twins.run(90, [](std::size_t lane, int period) {
    PlantDrive d;
    if (period >= 30) d.currents = {6.0 - static_cast<double>(lane), 0.0, 0.0};
    return d;
  });
  twins.expect_bitwise_equal("tissue");
  ASSERT_NE(twins.batched(1).tissue(), nullptr);
  EXPECT_GT(twins.batched(1).tissue()->max_depth(), 0.0);
  EXPECT_TRUE(twins.batched(1).tissue()->sheared());
}

TEST(BatchPlant, NoHardStopPlantsMatchScalar) {
  std::vector<PlantConfig> configs = snapping_plants(4, 400);
  for (PlantConfig& c : configs) c.dynamics.enforce_hard_stops = false;
  PlantTwins twins(configs);
  twins.run(260, staggered_brake_drive);
  twins.expect_bitwise_equal("no hard stops");
}

TEST(BatchPlant, LanesSnappingDifferentAxesInOnePeriodMatchScalar) {
  // Quiet lanes until period 20, then lane 0 steps its shoulder current
  // and lane 1 its elbow current; both cables give way inside that one
  // period, on different axes.  Lane 2 stays quiet and intact.
  std::vector<PlantConfig> configs(3);
  for (std::size_t l = 0; l < configs.size(); ++l) {
    configs[l].seed = 500 + l;
    configs[l].current_noise_stddev = 0.0;
    configs[l].cable_snap_threshold = {1.0, 1.0, 400.0};
  }
  PlantTwins twins(configs);
  constexpr int kStep = 20;
  twins.run(kStep, [](std::size_t, int) { return PlantDrive{}; });
  for (std::size_t l = 0; l < 3; ++l) {
    ASSERT_FALSE(twins.batched(l).cable_snapped()) << "lane " << l << " snapped while quiet";
  }
  twins.run(1, [](std::size_t lane, int) {
    PlantDrive d;
    if (lane < 2) d.currents[lane] = 10.0;
    return d;
  });
  twins.expect_bitwise_equal("step period");
  EXPECT_EQ(twins.batched(0).snapped_axes(), (std::array<bool, 3>{true, false, false}));
  EXPECT_EQ(twins.batched(1).snapped_axes(), (std::array<bool, 3>{false, true, false}));
  EXPECT_FALSE(twins.batched(2).cable_snapped());
  twins.run(40, [](std::size_t lane, int) {
    PlantDrive d;
    if (lane < 2) d.currents[lane] = 10.0;
    return d;
  });
  twins.expect_bitwise_equal("after the snaps");
}

TEST(BatchPlant, ViewsReboundToVaryingSubsetsMatchScalar) {
  // One set of eight plants; each period a different subset (1 to 8
  // lanes, in varying positions) steps through a fresh view, and the
  // others sit the period out, as sessions without a datagram do.
  PlantTwins twins(snapping_plants(kBatchLanes, 600));
  std::uint32_t lcg = 12345;
  std::size_t sizes_seen = 0;
  for (int period = 0; period < 300; ++period) {
    lcg = lcg * 1664525u + 1013904223u;
    const std::uint32_t mask = (lcg >> 24) | 1u << (static_cast<unsigned>(period) % kBatchLanes);
    std::vector<std::size_t> members;
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
      if ((mask >> l) & 1u) members.push_back(l);
    }
    sizes_seen |= std::size_t{1} << (members.size() - 1);
    twins.step(members, period, staggered_brake_drive);
  }
  twins.expect_bitwise_equal("rebound views");
  EXPECT_EQ(sizes_seen, (std::size_t{1} << kBatchLanes) - 1) << "not every view size ran";
}

TEST(BatchPlant, CompatibleIgnoresSeedOnly) {
  PlantConfig a;
  PlantConfig b;
  b.seed = a.seed + 99;
  EXPECT_TRUE(BatchPlant::compatible(a, b));
  b.substep = a.substep * 0.5;
  EXPECT_FALSE(BatchPlant::compatible(a, b));
}

// --- estimator solve dedup --------------------------------------------------

TEST(EstimatorSolves, PredictThenCommitSameCommandCostsOneSolve) {
  DynamicModelEstimator estimator;
  estimator.observe_feedback(Vec3{0.1, -0.2, 0.05});
  EXPECT_EQ(estimator.solves(), 0u);

  const std::array<std::int16_t, 3> dac{1200, -800, 300};
  const Prediction pred = estimator.predict(dac);
  ASSERT_TRUE(pred.valid);
  EXPECT_EQ(estimator.solves(), 1u);

  estimator.commit(dac);
  EXPECT_EQ(estimator.solves(), 1u);  // cache hit: no re-integration

  // The cached next-state must be exactly what predict integrated.
  const State after = estimator.state();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(RavenDynamicsModel::motor_pos(after)[i], pred.mpos_next[i]);
    EXPECT_EQ(RavenDynamicsModel::motor_vel(after)[i], pred.mvel_next[i]);
    EXPECT_EQ(RavenDynamicsModel::joint_pos(after)[i], pred.jpos_next[i]);
    EXPECT_EQ(RavenDynamicsModel::joint_vel(after)[i], pred.jvel_next[i]);
  }
}

TEST(EstimatorSolves, CommitOfDifferentCommandReintegrates) {
  DynamicModelEstimator estimator;
  estimator.observe_feedback(Vec3{0.0, 0.0, 0.0});
  (void)estimator.predict(std::array<std::int16_t, 3>{500, 500, 500});
  EXPECT_EQ(estimator.solves(), 1u);
  estimator.commit({0, 0, 0});  // mitigation replaced the command
  EXPECT_EQ(estimator.solves(), 2u);
}

TEST(EstimatorSolves, FeedbackBetweenPredictAndCommitInvalidatesCache) {
  DynamicModelEstimator estimator;
  estimator.observe_feedback(Vec3{0.0, 0.0, 0.0});
  const std::array<std::int16_t, 3> dac{700, -700, 0};
  (void)estimator.predict(dac);
  estimator.observe_feedback(Vec3{0.001, 0.0, 0.0});  // moves the state
  estimator.commit(dac);
  EXPECT_EQ(estimator.solves(), 2u);  // cache correctly discarded
}

TEST(EstimatorSolves, ScreenedPipelineTickCostsOneSolve) {
  PipelineConfig config;
  DetectionThresholds huge;
  huge.motor_vel = huge.motor_acc = huge.joint_vel = Vec3::filled(1.0e18);
  config.detector.thresholds = huge;
  config.detector.ee_jump_limit = 0.0;
  DetectionPipeline pipeline(config);

  pipeline.set_engaged(true);
  pipeline.observe_feedback(Vec3{0.05, 0.05, 0.05});

  CommandPacket cmd;
  cmd.dac = {900, -400, 150};
  const CommandBytes bytes = encode_command(cmd);
  for (std::uint64_t tick = 1; tick <= 5; ++tick) {
    const DetectionPipeline::Outcome out = pipeline.process(std::span{bytes});
    EXPECT_TRUE(out.prediction.valid);
    EXPECT_FALSE(out.alarm);
    // One solve per screened tick — the predict/commit pair shares it.
    EXPECT_EQ(pipeline.estimator().solves(), tick);
    pipeline.observe_feedback(Vec3{0.05, 0.05, 0.05});
  }
}

// --- campaign-level byte identity -------------------------------------------

std::vector<CampaignJob> homogeneous_campaign() {
  std::vector<CampaignJob> jobs;
  DetectionThresholds tight;
  tight.motor_vel = tight.motor_acc = tight.joint_vel = Vec3::filled(1.0);
  for (int i = 0; i < 10; ++i) {
    CampaignJob job;
    job.params.seed = 400 + static_cast<std::uint64_t>(i) * 13;
    job.params.duration_sec = 1.5;
    job.thresholds = tight;
    if (i % 2 == 1) {
      job.attack.variant = AttackVariant::kTorqueInjection;
      job.attack.magnitude = 10000 + 1500 * i;
      job.attack.duration_packets = 48;
      job.attack.delay_packets = 280 + static_cast<std::uint32_t>(i) * 37;
    }
    job.label = "batchjob" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string deterministic_report(int workers, int lanes) {
  CampaignOptions options;
  options.jobs = workers;
  options.lanes = lanes;
  const CampaignReport report = CampaignRunner(options).run(homogeneous_campaign());
  std::ostringstream os;
  report.write_json(os, /*include_timing=*/false);
  return os.str();
}

TEST(BatchCampaign, ReportByteIdenticalAcrossLaneAndWorkerCounts) {
  const std::string scalar = deterministic_report(/*workers=*/1, /*lanes=*/1);
  EXPECT_EQ(scalar, deterministic_report(1, 8));
  EXPECT_EQ(scalar, deterministic_report(3, 8));
  EXPECT_EQ(scalar, deterministic_report(8, 8));
  EXPECT_EQ(scalar, deterministic_report(8, 3));
}

TEST(BatchCampaign, LockstepGroupMatchesSoloRunsIncludingTraces) {
  // Three sims with different seeds/attacks but shared physics: run them
  // once solo and once as a lockstep group; traces must match bitwise.
  // The runs outlast the 1.2 s pedal press, so the lanes teleoperate.
  const auto build = [](std::uint64_t seed, bool attacked) {
    CampaignJob job;
    job.params.seed = seed;
    job.params.duration_sec = 2.0;
    DetectionThresholds tight;
    tight.motor_vel = tight.motor_acc = tight.joint_vel = Vec3::filled(1.0);
    job.thresholds = tight;
    if (attacked) {
      job.attack.variant = AttackVariant::kTorqueInjection;
      job.attack.magnitude = 16000;
      job.attack.duration_packets = 64;
      job.attack.delay_packets = 300;
      job.attack.seed = 77;
    }
    return job;
  };
  const std::array<CampaignJob, 3> jobs{build(21, false), build(22, true), build(23, true)};

  auto run_one = [](const CampaignJob& job, TraceRecorder& trace,
                    SurgicalSim* group_lane[], std::size_t lane) {
    SimConfig cfg = make_session(job.params, job.thresholds, job.mitigation);
    auto sim = std::make_unique<SurgicalSim>(std::move(cfg));
    sim->set_trace(&trace);
    AttackSpec seeded = job.attack;
    if (seeded.seed == 0) seeded.seed = job.params.seed * 131 + 17;
    sim->install(build_attack(seeded));
    if (group_lane == nullptr) {
      sim->run(job.params.duration_sec);
    } else {
      group_lane[lane] = sim.get();
    }
    return sim;
  };

  std::array<TraceRecorder, 3> solo_traces;
  std::vector<std::unique_ptr<SurgicalSim>> solo_sims;
  for (std::size_t k = 0; k < 3; ++k) {
    solo_sims.push_back(run_one(jobs[k], solo_traces[k], nullptr, k));
  }

  std::array<TraceRecorder, 3> group_traces;
  SurgicalSim* lanes[3] = {};
  std::vector<std::unique_ptr<SurgicalSim>> group_sims;
  for (std::size_t k = 0; k < 3; ++k) {
    group_sims.push_back(run_one(jobs[k], group_traces[k], lanes, k));
  }
  LockstepGroup group(std::span<SurgicalSim* const>{lanes, 3});
  group.run(jobs[0].params.duration_sec);

  for (std::size_t k = 0; k < 3; ++k) {
    const auto solo = solo_traces[k].samples();
    const auto batched = group_traces[k].samples();
    ASSERT_EQ(solo.size(), batched.size()) << "lane " << k;
    for (std::size_t t = 0; t < solo.size(); ++t) {
      EXPECT_EQ(solo[t].tick, batched[t].tick);
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(solo[t].ee_truth[i], batched[t].ee_truth[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].motor_pos[i], batched[t].motor_pos[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].motor_vel[i], batched[t].motor_vel[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].joint_pos[i], batched[t].joint_pos[i]) << "lane " << k << " tick " << t;
        EXPECT_EQ(solo[t].dac[i], batched[t].dac[i]) << "lane " << k << " tick " << t;
      }
      EXPECT_EQ(solo[t].state, batched[t].state) << "lane " << k << " tick " << t;
      EXPECT_EQ(solo[t].brakes, batched[t].brakes) << "lane " << k << " tick " << t;
      EXPECT_EQ(solo[t].detector_alarm, batched[t].detector_alarm)
          << "lane " << k << " tick " << t;
      EXPECT_EQ(solo[t].predicted_ee_disp, batched[t].predicted_ee_disp)
          << "lane " << k << " tick " << t;
    }
    EXPECT_EQ(solo_sims[k]->outcome().max_ee_jump_window,
              group_sims[k]->outcome().max_ee_jump_window);
    EXPECT_EQ(solo_sims[k]->outcome().detector_alarm_tick,
              group_sims[k]->outcome().detector_alarm_tick);
    EXPECT_EQ(solo_sims[k]->outcome().cable_snapped, group_sims[k]->outcome().cable_snapped);
    EXPECT_TRUE(std::any_of(solo.begin(), solo.end(), [](const TraceSample& s) {
      return s.state == RobotState::kPedalDown;
    })) << "lane " << k << " never teleoperated";
  }
}

}  // namespace
}  // namespace rg
