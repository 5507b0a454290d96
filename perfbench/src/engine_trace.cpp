// Per-layer engine phases, timed from outside.  The pass drives
// SessionEngine's public phase-split tick in 8-lane groups exactly the
// way GatewayShard::round_tick does (begin / batched solve / resolve /
// batched plant / finish), with a clock read between phases.
#include <array>
#include <optional>
#include <span>
#include <vector>

#include "bench.hpp"
#include "dynamics/batch_model.hpp"
#include "plant/batch_plant.hpp"

namespace perfbench {

void trace_engine_phases(const rg::svc::SessionEngineConfig& engine, std::uint64_t seed,
                         std::size_t sessions, std::uint64_t ticks, Report& report) {
  using rg::kBatchLanes;
  std::vector<std::unique_ptr<rg::svc::SessionEngine>> engines;
  std::vector<std::optional<rg::ItpInjectionWrapper>> attacks(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    rg::svc::SessionEngineConfig cfg = engine;
    cfg.plant.seed = 1 + s;
    engines.push_back(std::make_unique<rg::svc::SessionEngine>(cfg));
    if (attacked_session(seed, s)) attacks[s].emplace(scenario_a_injection(seed, s));
  }
  rg::BatchRavenModel est_model(engine.detection.estimator.model);
  StreamBank bank(seed);

  std::array<std::uint64_t, 5> phase_ns{};
  std::uint64_t lane_ticks = 0;
  std::uint64_t screened = 0;
  std::uint64_t alarms = 0;
  std::uint64_t blocked = 0;
  std::array<rg::ItpBytes, kBatchLanes> bytes{};
  for (std::uint64_t t = 0; t < ticks; ++t) {
    bank.advance();
    for (std::size_t base = 0; base < sessions; base += kBatchLanes) {
      const std::size_t n = std::min(kBatchLanes, sessions - base);
      for (std::size_t l = 0; l < n; ++l) {
        bytes[l] = bank.current(base + l);
        if (attacks[base + l]) (void)attacks[base + l]->on_packet(bytes[l], t);
      }
      const std::uint64_t t0 = now_ns();
      for (std::size_t l = 0; l < n; ++l) {
        engines[base + l]->tick_begin(std::span<const std::uint8_t>{bytes[l]});
      }
      const std::uint64_t t1 = now_ns();
      std::array<rg::RavenDynamicsModel::State, kBatchLanes> next{};
      std::array<bool, kBatchLanes> solving{};
      std::size_t first = kBatchLanes;
      for (std::size_t l = 0; l < n; ++l) {
        solving[l] = engines[base + l]->needs_solve();
        if (solving[l] && first == kBatchLanes) first = l;
      }
      if (first != kBatchLanes) {
        const rg::PendingSolve& ref = engines[base + first]->pending_solve();
        rg::BatchState x;
        rg::BatchLanes3 currents{};
        x.set_lane(0, ref.x0);
        for (std::size_t i = 0; i < 3; ++i) currents[i].fill(ref.currents[i]);
        x.broadcast(0);
        for (std::size_t l = 0; l < n; ++l) {
          if (!solving[l]) continue;
          const rg::PendingSolve& pending = engines[base + l]->pending_solve();
          x.set_lane(l, pending.x0);
          for (std::size_t i = 0; i < 3; ++i) currents[i][l] = pending.currents[i];
        }
        est_model.step(x, currents, ref.h, ref.solver);
        for (std::size_t l = 0; l < n; ++l) {
          if (solving[l]) next[l] = x.lane(l);
        }
      }
      const std::uint64_t t2 = now_ns();
      std::array<rg::PlantDrive, kBatchLanes> drives{};
      for (std::size_t l = 0; l < n; ++l) {
        engines[base + l]->tick_resolve(next[l]);
        drives[l] = engines[base + l]->drive();
      }
      const std::uint64_t t3 = now_ns();
      std::array<rg::PhysicalRobot*, kBatchLanes> plants{};
      for (std::size_t l = 0; l < n; ++l) plants[l] = &engines[base + l]->plant();
      rg::BatchPlant batch(std::span<rg::PhysicalRobot* const>{plants.data(), n});
      batch.step_control_period(std::span<const rg::PlantDrive>{drives.data(), n});
      const std::uint64_t t4 = now_ns();
      for (std::size_t l = 0; l < n; ++l) {
        const rg::svc::SessionEngine::TickResult r = engines[base + l]->tick_finish();
        screened += r.screened ? 1 : 0;
        alarms += r.alarm ? 1 : 0;
        blocked += r.blocked ? 1 : 0;
      }
      const std::uint64_t t5 = now_ns();
      phase_ns[0] += t1 - t0;
      phase_ns[1] += t2 - t1;
      phase_ns[2] += t3 - t2;
      phase_ns[3] += t4 - t3;
      phase_ns[4] += t5 - t4;
      lane_ticks += n;
    }
  }
  const auto per_lane = [&](std::size_t phase) {
    return static_cast<double>(phase_ns[phase]) / static_cast<double>(lane_ticks);
  };
  report.metric("control.tick_begin_ns", per_lane(0), "ns");
  report.metric("dynamics.solve_ns", per_lane(1), "ns");
  report.metric("core.resolve_ns", per_lane(2), "ns");
  report.metric("plant.step_ns", per_lane(3), "ns");
  report.metric("svc.finish_ns", per_lane(4), "ns");
  report.metric("core.screened", static_cast<double>(screened), "count");
  report.metric("core.alarms", static_cast<double>(alarms), "count");
  report.metric("core.blocked", static_cast<double>(blocked), "count");
}

void trace_decode(std::uint64_t seed, Report& report) {
  constexpr std::uint64_t kTicks = 1000;
  constexpr int kPasses = 20;
  StreamBank bank(seed);
  std::vector<rg::ItpBytes> datagrams;
  datagrams.reserve(kTicks * kStreams);
  for (std::uint64_t t = 0; t < kTicks; ++t) {
    bank.advance();
    for (std::size_t s = 0; s < kStreams; ++s) datagrams.push_back(bank.current(s));
  }
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const rg::ItpBytes& d : datagrams) {
      const auto decoded = rg::decode_itp(std::span<const std::uint8_t>{d});
      sink += decoded.ok() ? decoded.value().sequence : 1;
    }
  }
  const double ns = static_cast<double>(now_ns() - t0);
  report.check(sink != 0, "decode_itp produced nothing");
  report.metric("net.decode_ns", ns / static_cast<double>(kPasses * datagrams.size()), "ns");
}

}  // namespace perfbench
