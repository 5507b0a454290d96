// Gateway capacity benchmark: how many concurrent 1 kHz teleoperation
// sessions one gateway sustains, and the ingest->verdict latency
// distribution while doing it.
//
// Traffic is pre-generated master-console ITP streams injected through a
// LoopbackTransport in tick-sized slices, so the measurement covers the
// full service path — ingest classification, session table, SPSC shard
// rings, batched detection ticks — without socket noise.  A session
// count is "sustained" when the gateway processes its aggregate 1 kHz
// datagram load at least as fast as real time with zero backpressure
// drops and zero ring-full refusals.
//
// Results land in BENCH_gateway.json (schema "rg.bench.gateway/2";
// RG_BENCH_GATEWAY_JSON overrides the path).  RG_SCALE < 1 shrinks the
// session ladder, the capacity-search bound and the per-run duration
// for smoke passes.  Sections:
//
//   rows        fixed session ladder (continuity with rg.bench.gateway/1)
//   capacity    exponential probe + binary search for the headline
//               "max_sessions_sustained" — the largest session count the
//               gateway holds at >= 1x realtime with zero drops
//   batch_sweep the capacity point re-run at rx_batch 1 / 8 / 64, so the
//               recvmmsg-style batched drain's win is a reported number
//   admin       the largest sustained ladder case re-run with a polled
//               AdminServer (acceptance: < 2% realtime regression)
//   persist     the same case re-run with the crash-consistent state
//               plane journaling every admission and window advance to a
//               real directory (acceptance: < 2% realtime regression —
//               the tick path only pushes to a lock-free ring; all IO is
//               the flusher thread's)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/master_console.hpp"
#include "obs/metrics.hpp"
#include "persist/state_plane.hpp"
#include "svc/admin.hpp"
#include "svc/gateway.hpp"
#include "svc/transport.hpp"
#include "trajectory/trajectory.hpp"

namespace rg::bench {
namespace {

/// Session trajectories only differ by `session % 16` (the radius salt),
/// so 16 pre-generated streams serve any session count without the
/// memory bill of one stream per session.
constexpr std::size_t kUniqueStreams = 16;

struct GatewayBenchRow {
  std::size_t sessions = 0;
  std::uint64_t ticks = 0;
  std::size_t rx_batch = 0;
  double wall_sec = 0.0;
  double datagrams_per_sec = 0.0;
  double realtime_ratio = 0.0;  ///< >= 1 means the 1 kHz load is sustained
  std::uint64_t accepted = 0;
  std::uint64_t backpressure_dropped = 0;
  std::uint64_t ring_full = 0;  ///< SPSC ring refusals summed over shards
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

std::string bench_path() {
  if (const char* env = std::getenv("RG_BENCH_GATEWAY_JSON")) return env;
  return "BENCH_gateway.json";
}

std::vector<std::vector<ItpBytes>> make_streams(std::uint64_t ticks) {
  std::vector<std::vector<ItpBytes>> streams(kUniqueStreams);
  for (std::size_t s = 0; s < kUniqueStreams; ++s) {
    auto trajectory = std::make_shared<CircleTrajectory>(
        Position{0.09, 0.0, -0.11}, 0.010 + 0.0001 * static_cast<double>(s), 2.5, 1.0e9);
    MasterConsole console(std::move(trajectory),
                          PedalSchedule::hold_from(kPedalAfterHomingSec));
    streams[s].reserve(ticks);
    for (std::uint64_t t = 0; t < ticks; ++t) streams[s].push_back(encode_itp(console.tick()));
  }
  return streams;
}

GatewayBenchRow run_one(const std::vector<std::vector<ItpBytes>>& streams, std::size_t sessions,
                        std::uint64_t ticks, std::size_t shards, std::size_t rx_batch = 64,
                        bool with_admin = false, std::uint64_t* polls_out = nullptr,
                        rg::persist::StatePlane* plane = nullptr) {
  obs::Registry::global().reset();

  svc::LoopbackTransport transport;
  svc::GatewayConfig config;
  config.shards = shards;
  config.threaded = true;
  config.max_sessions = sessions;
  config.rx_batch = rx_batch;
  config.idle_timeout_ms = 1u << 30;  // synthetic clock; no eviction mid-run
  config.persist = plane;
  if (with_admin) {
    // The synthetic clock advances 1 ms per 64-tick slice, so a 4 ms
    // publish period re-publishes the snapshot every ~256 ticks — the
    // same cadence the default 250 ms gives a real-time 1 kHz gateway.
    config.stats_publish_period_ms = 4;
  }
  svc::TeleopGateway gateway(config, transport);

  std::unique_ptr<svc::AdminServer> admin;
  std::atomic<bool> poll_stop{false};
  std::atomic<std::uint64_t> polls{0};
  std::thread poller;
  if (with_admin) {
    gateway.publish_snapshot(0);
    svc::AdminConfig admin_config;
    admin_config.port = 0;
    admin = std::make_unique<svc::AdminServer>(admin_config, &gateway);
    const std::uint16_t admin_port = admin->bound_port();
    poller = std::thread([&poll_stop, &polls, admin_port] {
      while (!poll_stop.load(std::memory_order_relaxed)) {
        const auto metrics = svc::http_get("127.0.0.1", admin_port, "/metrics");
        const auto stats = svc::http_get("127.0.0.1", admin_port, "/stats");
        if (metrics.ok() && stats.ok()) polls.fetch_add(1, std::memory_order_relaxed);
        for (int i = 0; i < 50 && !poll_stop.load(std::memory_order_relaxed); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
    });
  }

  constexpr std::uint64_t kSliceTicks = 64;  // bounds the loopback queue
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t now_ms = 1;
  for (std::uint64_t tick = 0; tick < ticks; tick += kSliceTicks) {
    const std::uint64_t slice_end = std::min(ticks, tick + kSliceTicks);
    for (std::uint64_t t = tick; t < slice_end; ++t) {
      for (std::size_t s = 0; s < sessions; ++s) {
        const svc::Endpoint from{0x7f000001u, static_cast<std::uint16_t>(20000 + s)};
        transport.inject(from, std::span<const std::uint8_t>{streams[s % kUniqueStreams][t]});
      }
    }
    while (transport.pending() > 0) (void)gateway.pump(now_ms);
    // Flush the slice through the shards before injecting the next one:
    // the timed region still covers the full service path, but the
    // bounded shard rings only ever see one slice of backlog — drops
    // then mean genuine overload, not an open-loop injection artifact.
    gateway.drain();
    ++now_ms;
  }
  gateway.drain();
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (with_admin) {
    poll_stop.store(true);
    poller.join();
    admin->stop();
    if (polls_out != nullptr) *polls_out = polls.load();
  }
  const svc::GatewayStats stats = gateway.stats();

  GatewayBenchRow row;
  row.sessions = sessions;
  row.ticks = ticks;
  row.rx_batch = rx_batch;
  row.wall_sec = wall;
  row.accepted = stats.accepted;
  row.backpressure_dropped = stats.backpressure_dropped;
  for (const svc::ShardPipelineStats& shard : gateway.shard_stats()) row.ring_full += shard.ring_full;
  row.datagrams_per_sec = static_cast<double>(stats.accepted) / wall;
  const double sim_sec = static_cast<double>(ticks) * 1.0e-3;  // 1 kHz sessions
  row.realtime_ratio = sim_sec / wall;
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  if (const obs::HistogramData* h = snap.histogram("rg.gw.ingest_to_verdict_ns")) {
    row.p50_ns = h->percentile(50.0);
    row.p99_ns = h->percentile(99.0);
  }
  gateway.shutdown();
  return row;
}

bool sustained(const GatewayBenchRow& r) {
  return r.realtime_ratio >= 1.0 && r.backpressure_dropped == 0 && r.ring_full == 0;
}

struct CapacityResult {
  std::size_t max_sessions = 0;   ///< largest sustained probe (0 = none)
  bool saturated_bound = false;   ///< still sustained at the search cap
  GatewayBenchRow best;           ///< the row measured at max_sessions
  std::vector<GatewayBenchRow> probes;
};

/// Capacity search: double the session count from `start` until the
/// gateway stops sustaining realtime, then binary-search the boundary.
/// Every probe runs the same timed slice loop as the ladder.
CapacityResult find_capacity(const std::vector<std::vector<ItpBytes>>& streams,
                             std::uint64_t ticks, std::size_t shards, std::size_t start,
                             std::size_t cap) {
  CapacityResult result;
  const auto probe = [&](std::size_t n) {
    const GatewayBenchRow row = run_one(streams, n, ticks, shards);
    std::printf("capacity probe %4zu sessions: %8.0f dgrams/s, %.2fx realtime, ring_full %llu%s\n",
                n, row.datagrams_per_sec, row.realtime_ratio,
                static_cast<unsigned long long>(row.ring_full),
                sustained(row) ? "" : "  [not sustained]");
    result.probes.push_back(row);
    if (sustained(row) && n > result.max_sessions) {
      result.max_sessions = n;
      result.best = row;
    }
    return sustained(row);
  };

  std::size_t lo = 0;  // largest known-sustained
  std::size_t hi = 0;  // smallest known-failed
  for (std::size_t n = std::max<std::size_t>(start, 1); n <= cap; n *= 2) {
    if (probe(n)) {
      lo = n;
    } else {
      hi = n;
      break;
    }
  }
  if (hi == 0) {
    // Sustained all the way to the bound — report it, flagged.
    result.saturated_bound = lo == 0 ? false : true;
    return result;
  }
  while (hi - lo > std::max<std::size_t>(1, lo / 16)) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return result;
}

struct AdminOverhead {
  std::size_t sessions = 0;
  double realtime_ratio = 0.0;           ///< with admin attached, polled at 1 Hz
  double baseline_realtime_ratio = 0.0;  ///< same load, no admin plane
  double overhead_pct = 0.0;             ///< acceptance: < 2
  std::uint64_t polls = 0;
};

struct PersistOverhead {
  std::size_t sessions = 0;
  double realtime_ratio = 0.0;           ///< with the state plane journaling
  double baseline_realtime_ratio = 0.0;  ///< same load, no persistence
  double overhead_pct = 0.0;             ///< acceptance: < 2
  std::uint64_t ops_submitted = 0;
  std::uint64_t ops_dropped = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t snapshots = 0;
};

void write_row(std::ofstream& os, const GatewayBenchRow& r) {
  os << "{\"sessions\": " << r.sessions << ", \"ticks\": " << r.ticks
     << ", \"rx_batch\": " << r.rx_batch << ", \"wall_sec\": " << r.wall_sec
     << ", \"datagrams_per_sec\": " << r.datagrams_per_sec
     << ", \"realtime_ratio\": " << r.realtime_ratio << ", \"accepted\": " << r.accepted
     << ", \"backpressure_dropped\": " << r.backpressure_dropped
     << ", \"ring_full\": " << r.ring_full << ", \"p50_ns\": " << r.p50_ns
     << ", \"p99_ns\": " << r.p99_ns << "}";
}

void write_json(const std::vector<GatewayBenchRow>& rows, std::size_t shards,
                const CapacityResult& capacity, const std::vector<GatewayBenchRow>& batch_sweep,
                const AdminOverhead* admin, const PersistOverhead* persist) {
  std::size_t sustained_sessions = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  for (const GatewayBenchRow& r : rows) {
    if (sustained(r) && r.sessions > sustained_sessions) {
      sustained_sessions = r.sessions;
      p50 = r.p50_ns;
      p99 = r.p99_ns;
    }
  }
  if (sustained_sessions == 0 && !rows.empty()) {  // report the smallest load's latency anyway
    p50 = rows.front().p50_ns;
    p99 = rows.front().p99_ns;
  }
  std::ofstream os(bench_path());
  if (!os) return;
  os.precision(17);
  os << "{\n  \"schema\": \"rg.bench.gateway/2\",\n  \"shards\": " << shards
     << ",\n  \"sessions_sustained\": " << sustained_sessions
     << ",\n  \"p50_ingest_to_verdict_ns\": " << p50
     << ",\n  \"p99_ingest_to_verdict_ns\": " << p99;
  os << ",\n  \"capacity\": {\n    \"max_sessions_sustained\": " << capacity.max_sessions
     << ",\n    \"saturated_search_bound\": " << (capacity.saturated_bound ? "true" : "false")
     << ",\n    \"realtime_ratio\": " << capacity.best.realtime_ratio
     << ",\n    \"datagrams_per_sec\": " << capacity.best.datagrams_per_sec
     << ",\n    \"ring_full\": " << capacity.best.ring_full
     << ",\n    \"p99_ns\": " << capacity.best.p99_ns << ",\n    \"probes\": [\n";
  for (std::size_t i = 0; i < capacity.probes.size(); ++i) {
    os << "      ";
    write_row(os, capacity.probes[i]);
    os << (i + 1 < capacity.probes.size() ? ",\n" : "\n");
  }
  os << "    ]\n  }";
  os << ",\n  \"batch_sweep\": [\n";
  for (std::size_t i = 0; i < batch_sweep.size(); ++i) {
    os << "    ";
    write_row(os, batch_sweep[i]);
    os << (i + 1 < batch_sweep.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (admin != nullptr) {
    os << ",\n  \"admin\": {\"sessions\": " << admin->sessions
       << ", \"realtime_ratio\": " << admin->realtime_ratio
       << ", \"baseline_realtime_ratio\": " << admin->baseline_realtime_ratio
       << ", \"overhead_pct\": " << admin->overhead_pct << ", \"polls\": " << admin->polls << "}";
  }
  if (persist != nullptr) {
    os << ",\n  \"persist\": {\"sessions\": " << persist->sessions
       << ", \"realtime_ratio\": " << persist->realtime_ratio
       << ", \"baseline_realtime_ratio\": " << persist->baseline_realtime_ratio
       << ", \"overhead_pct\": " << persist->overhead_pct
       << ", \"ops_submitted\": " << persist->ops_submitted
       << ", \"ops_dropped\": " << persist->ops_dropped
       << ", \"wal_records\": " << persist->wal_records
       << ", \"snapshots\": " << persist->snapshots << "}";
  }
  os << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "    ";
    write_row(os, rows[i]);
    os << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace
}  // namespace rg::bench

int main() {
  using namespace rg::bench;

  const double s = scale();
  const auto ticks = static_cast<std::uint64_t>(2000 * s) > 0
                         ? static_cast<std::uint64_t>(2000 * s)
                         : 50;
  std::vector<std::size_t> ladder;
  std::size_t capacity_start = 0;
  std::size_t capacity_cap = 0;
  if (s >= 1.0) {
    ladder = {8, 16, 32, 64};
    capacity_start = 64;
    capacity_cap = 4096;
  } else {
    ladder = {2, 4};
    capacity_start = 4;
    capacity_cap = 16;
  }
  const std::size_t shards = 4;

  const std::vector<std::vector<rg::ItpBytes>> streams = make_streams(ticks);

  std::vector<GatewayBenchRow> rows;
  for (const std::size_t n : ladder) {
    const GatewayBenchRow row = run_one(streams, n, ticks, shards);
    std::printf(
        "gateway %3zu sessions x %llu ticks: %8.0f dgrams/s, %.2fx realtime, "
        "p50 %6.0f ns, p99 %7.0f ns, backpressure %llu\n",
        row.sessions, static_cast<unsigned long long>(row.ticks), row.datagrams_per_sec,
        row.realtime_ratio, row.p50_ns, row.p99_ns,
        static_cast<unsigned long long>(row.backpressure_dropped));
    rows.push_back(row);
  }

  // Headline: binary-search the sustained-capacity boundary.
  const CapacityResult capacity = find_capacity(streams, ticks, shards, capacity_start,
                                                capacity_cap);
  std::printf("capacity: %zu sessions sustained at >= 1x realtime%s\n", capacity.max_sessions,
              capacity.saturated_bound ? " (saturated search bound)" : "");

  // Batch sweep: the same load at rx_batch 1 / 8 / 64 quantifies the
  // batched-drain win at the capacity point.
  std::vector<GatewayBenchRow> batch_sweep;
  const std::size_t sweep_sessions =
      capacity.max_sessions > 0 ? capacity.max_sessions : ladder.back();
  for (const std::size_t rx_batch : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    const GatewayBenchRow row = run_one(streams, sweep_sessions, ticks, shards, rx_batch);
    std::printf("batch   %3zu sessions, rx_batch %2zu: %8.0f dgrams/s, %.2fx realtime\n",
                row.sessions, row.rx_batch, row.datagrams_per_sec, row.realtime_ratio);
    batch_sweep.push_back(row);
  }

  // Admin-plane overhead: re-run the largest sustained ladder case
  // back-to-back without and with a polled AdminServer, so the baseline
  // shares the machine state of the measured run.
  std::size_t admin_sessions = rows.empty() ? 0 : rows.front().sessions;
  for (const GatewayBenchRow& r : rows) {
    if (sustained(r) && r.sessions > admin_sessions) admin_sessions = r.sessions;
  }
  AdminOverhead admin;
  if (admin_sessions > 0) {
    const GatewayBenchRow base = run_one(streams, admin_sessions, ticks, shards);
    std::uint64_t polls = 0;
    const GatewayBenchRow polled =
        run_one(streams, admin_sessions, ticks, shards, 64, true, &polls);
    admin.sessions = admin_sessions;
    admin.realtime_ratio = polled.realtime_ratio;
    admin.baseline_realtime_ratio = base.realtime_ratio;
    admin.overhead_pct =
        base.realtime_ratio > 0.0
            ? 100.0 * (base.realtime_ratio - polled.realtime_ratio) / base.realtime_ratio
            : 0.0;
    admin.polls = polls;
    std::printf(
        "admin   %3zu sessions: %.2fx realtime vs %.2fx baseline (%+.2f%% overhead, "
        "%llu polls)\n",
        admin.sessions, admin.realtime_ratio, admin.baseline_realtime_ratio, admin.overhead_pct,
        static_cast<unsigned long long>(admin.polls));
  }

  // Persistence overhead: the same case with the crash-consistent state
  // plane journaling every admission/window advance to a real directory.
  // The tick path only pushes a StateOp to a lock-free ring; the flusher
  // thread owns all IO — so the capacity headline must not move.
  PersistOverhead persist;
  if (admin_sessions > 0) {
    const GatewayBenchRow base = run_one(streams, admin_sessions, ticks, shards);
    const std::string pdir = bench_path() + ".state";
    std::filesystem::remove_all(pdir);
    rg::persist::StatePlaneConfig pc;
    pc.dir = pdir;
    auto plane_r = rg::persist::StatePlane::open(pc);
    if (plane_r.ok()) {
      rg::persist::StatePlane& plane = *plane_r.value();
      const GatewayBenchRow with =
          run_one(streams, admin_sessions, ticks, shards, 64, false, nullptr, &plane);
      plane.stop();
      const rg::persist::StatePlaneStats ps = plane.stats();
      persist.sessions = admin_sessions;
      persist.realtime_ratio = with.realtime_ratio;
      persist.baseline_realtime_ratio = base.realtime_ratio;
      persist.overhead_pct =
          base.realtime_ratio > 0.0
              ? 100.0 * (base.realtime_ratio - with.realtime_ratio) / base.realtime_ratio
              : 0.0;
      persist.ops_submitted = ps.ops_submitted;
      persist.ops_dropped = ps.ops_dropped;
      persist.wal_records = ps.store.wal_records;
      persist.snapshots = ps.store.snapshots;
      std::printf(
          "persist %3zu sessions: %.2fx realtime vs %.2fx baseline (%+.2f%% overhead, "
          "%llu ops, %llu dropped, %llu wal records, %llu snapshots)\n",
          persist.sessions, persist.realtime_ratio, persist.baseline_realtime_ratio,
          persist.overhead_pct, static_cast<unsigned long long>(persist.ops_submitted),
          static_cast<unsigned long long>(persist.ops_dropped),
          static_cast<unsigned long long>(persist.wal_records),
          static_cast<unsigned long long>(persist.snapshots));
    }
    std::filesystem::remove_all(pdir);
  }
  write_json(rows, shards, capacity, batch_sweep, admin_sessions > 0 ? &admin : nullptr,
             persist.sessions > 0 ? &persist : nullptr);
  return 0;
}
