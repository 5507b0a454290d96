// gw-paced and gw-flood: the teleoperation gateway (svc/) under paced
// real-socket traffic and under closed-loop saturation.
//
// Every layer is timed from outside, around calls into its public API:
// the benchmark owns the service loop (pump / drain), wraps the gateway's
// Transport in a decorator, polls the admin plane as raven_top does and
// reads the program's own registry histograms.  Untraced runs read no
// clock inside the loop beyond the ones the end-to-end metrics need.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "hw/usb_packet.hpp"
#include "persist/state_plane.hpp"
#include "svc/admin.hpp"
#include "svc/gateway.hpp"
#include "svc/udp_transport.hpp"

namespace perfbench {
namespace {

using rg::ItpBytes;
namespace svc = rg::svc;

constexpr std::uint64_t kMsNs = 1'000'000;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 9;

std::uint64_t now_ms() noexcept { return now_ns() / kMsNs; }

/// Spin-wait hint: yields the core's shared resources to its sibling.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Transport decorator: remembers which endpoint each polled datagram
/// came from (the service loop attributes verdict latency with it) and,
/// in traced runs, times every poll_batch() of the wrapped transport.
class BenchTransport final : public svc::Transport {
 public:
  BenchTransport(svc::Transport& inner, bool timed) : inner_(inner), timed_(timed) {}

  std::size_t poll_batch(std::span<svc::RxDatagram> slots) override {
    const std::uint64_t t0 = timed_ ? now_ns() : 0;
    const std::size_t n = inner_.poll_batch(slots);
    if (timed_) {
      poll_ns += now_ns() - t0;
      ++polls;
      if (n != 0) ++busy_polls;
    }
    for (std::size_t i = 0; i < n; ++i) arrivals.push_back(slots[i].from.port);
    datagrams += n;
    return n;
  }
  std::size_t send_batch(std::span<const svc::TxDatagram> slots) override {
    return inner_.send_batch(slots);
  }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }

  std::vector<std::uint16_t> arrivals;  ///< source ports since the caller last cleared it
  std::uint64_t datagrams = 0;
  std::uint64_t polls = 0;
  std::uint64_t busy_polls = 0;
  std::uint64_t poll_ns = 0;

 private:
  svc::Transport& inner_;
  bool timed_;
};

/// Outside timers around pump() and drain() (traced runs only).
struct LoopTimers {
  std::uint64_t pump_ns = 0;  ///< pumps that drained at least one datagram
  std::uint64_t pumped = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t drains = 0;
};

struct ReplayResult {
  std::uint64_t digest = 0;
  std::uint64_t alarms = 0;
  std::uint64_t blocked = 0;
};

/// Single-threaded scalar replay of one session's clean datagram stream
/// through SessionEngine::tick — the reference the sharded, batched
/// gateway must match bit for bit.
ReplayResult scalar_replay(const svc::SessionEngineConfig& base, std::uint64_t plant_seed,
                           std::uint64_t seed, std::size_t session, std::uint64_t ticks,
                           bool attacked) {
  svc::SessionEngineConfig cfg = base;
  cfg.plant.seed = plant_seed;
  svc::SessionEngine engine(cfg);
  const auto console = make_console(session % kStreams, seed);
  std::optional<rg::ItpInjectionWrapper> attack;
  if (attacked) attack.emplace(scenario_a_injection(seed, session));
  for (std::uint64_t t = 0; t < ticks; ++t) {
    ItpBytes bytes = rg::encode_itp(console->tick());
    if (attack) (void)attack->on_packet(bytes, t);
    (void)engine.tick(std::span<const std::uint8_t>{bytes});
  }
  return ReplayResult{engine.verdict_digest(), engine.alarms(), engine.blocked()};
}

/// Compare a sample of gateway sessions against their scalar replays.
void check_determinism(const svc::TeleopGateway& gateway, const svc::SessionEngineConfig& engine,
                       std::uint64_t seed, const std::vector<std::size_t>& sample,
                       const std::map<std::uint32_t, std::size_t>& id_to_session,
                       const std::vector<bool>& attacked, Report& report) {
  for (const svc::SessionStats& s : gateway.sessions()) {
    const auto it = id_to_session.find(s.id);
    if (it == id_to_session.end()) continue;
    const std::size_t session = it->second;
    if (std::find(sample.begin(), sample.end(), session) == sample.end()) continue;
    const ReplayResult ref =
        scalar_replay(engine, 1 + s.id, seed, session, s.shard.ticks, attacked[session]);
    const std::string who = "session " + std::to_string(session);
    report.check(ref.digest == s.shard.digest, who + ": verdict digest differs from scalar replay");
    report.check(ref.alarms == s.shard.alarms, who + ": alarm count differs from scalar replay");
    report.check(ref.blocked == s.shard.blocked,
                 who + ": blocked count differs from scalar replay");
  }
}

/// Attacked sessions alarm and latch E-STOP; clean ones never alarm.
void check_attacks(const std::vector<svc::SessionStats>& sessions,
                   const std::map<std::uint32_t, std::size_t>& id_to_session,
                   const std::vector<bool>& attacked, Report& report) {
  for (const svc::SessionStats& s : sessions) {
    const auto it = id_to_session.find(s.id);
    if (it == id_to_session.end()) continue;
    const std::string who = "session " + std::to_string(it->second);
    if (attacked[it->second]) {
      report.check(s.shard.alarms > 0, who + ": scenario-A injection raised no alarm");
      report.check(s.shard.estop, who + ": attacked session did not latch E-STOP");
    } else {
      report.check(s.shard.alarms == 0, who + ": clean session alarmed");
    }
  }
}

void report_latency_tails(Report& report, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v.empty() ? 0.0 : v[std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())))];
  };
  report.metric("svc.verdict_p99_us", at(0.99), "us");
  report.metric("svc.verdict_p999_us", at(0.999), "us");
  report.metric("svc.verdict_samples", static_cast<double>(v.size()), "count");
}

/// The gateway's own registry view: round occupancy, ingest->verdict
/// latency, ring health and ingest accounting.
void report_gateway_layers(Report& report, const svc::TeleopGateway& gateway,
                           const BenchTransport& transport, const LoopTimers& timers) {
  const rg::obs::MetricsSnapshot snap = rg::obs::Registry::global().snapshot();
  report.metric("svc.transport.poll_ns",
                transport.polls ? static_cast<double>(transport.poll_ns) /
                                      static_cast<double>(transport.polls)
                                : 0.0,
                "ns");
  report.metric("svc.transport.dgrams_per_poll",
                transport.busy_polls ? static_cast<double>(transport.datagrams) /
                                           static_cast<double>(transport.busy_polls)
                                     : 0.0,
                "count");
  report.metric("svc.pump.ns_per_dgram",
                timers.pumped ? static_cast<double>(timers.pump_ns) /
                                    static_cast<double>(timers.pumped)
                              : 0.0,
                "ns");
  report.metric("svc.drain_us",
                timers.drains ? 1e-3 * static_cast<double>(timers.drain_ns) /
                                    static_cast<double>(timers.drains)
                              : 0.0,
                "us");
  report.metric("svc.round.lanes_mean", hist_mean(snap, "rg.gw.round.lanes"), "count");
  report.metric("svc.ingest_to_verdict_p50_us",
                1e-3 * hist_pct(snap, "rg.gw.ingest_to_verdict_ns", 50.0), "us");
  report.metric("svc.ingest_to_verdict_p99_us",
                1e-3 * hist_pct(snap, "rg.gw.ingest_to_verdict_ns", 99.0), "us");
  std::size_t hwm = 0;
  std::uint64_t full = 0;
  for (const svc::ShardPipelineStats& s : gateway.shard_stats()) {
    hwm = std::max(hwm, s.queue_hwm);
    full += s.ring_full;
  }
  report.metric("svc.ring.queue_hwm", static_cast<double>(hwm), "count");
  report.metric("svc.ring.full", static_cast<double>(full), "count");
  const svc::GatewayStats st = gateway.stats();
  report.metric("svc.accepted", static_cast<double>(st.accepted), "count");
  report.metric("svc.rejected", static_cast<double>(st.datagrams - st.accepted), "count");
}

/// Map endpoint ports to benchmark session indices via the gateway's
/// session table.
std::map<std::uint32_t, std::size_t> session_ids(const svc::TeleopGateway& gateway,
                                                 const std::vector<int>& port_to_session) {
  std::map<std::uint32_t, std::size_t> out;
  for (const svc::SessionStats& s : gateway.sessions()) {
    const int idx = port_to_session[s.endpoint.port];
    if (idx >= 0) out[s.id] = static_cast<std::size_t>(idx);
  }
  return out;
}

/// Deterministic sample for the replay check: the first two attacked
/// sessions and the first two clean ones.
std::vector<std::size_t> replay_sample(const std::vector<bool>& attacked) {
  std::vector<std::size_t> out;
  std::size_t a = 0;
  std::size_t c = 0;
  for (std::size_t s = 0; s < attacked.size(); ++s) {
    if (attacked[s] ? a++ < 2 : c++ < 2) out.push_back(s);
  }
  return out;
}

// --- gw-paced ---------------------------------------------------------------

/// 32 sessions paced at 1 kHz each, all released at the start of every
/// millisecond, on 2 shards that run inline on the service thread: a
/// period's work takes about a third of the period on a 4-core host, so
/// the latency measured is service latency, not a growing backlog.
/// Threaded shards put a futex wake-up on every period's path, and on a
/// shared host those cost 0.1-6 ms in busy phases (README.md).
constexpr std::size_t kPacedSessions = 32;
constexpr std::size_t kPacedShards = 2;

class UdpClients {
 public:
  explicit UdpClients(std::size_t n) : fds_(n, -1), ports_(n, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      fds_[i] = ::socket(AF_INET, SOCK_DGRAM, 0);
      sockaddr_in local{};
      local.sin_family = AF_INET;
      local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      socklen_t len = sizeof(local);
      // rg-lint: allow(cast) -- BSD sockets API
      auto* addr = reinterpret_cast<sockaddr*>(&local);
      if (fds_[i] < 0 || ::bind(fds_[i], addr, sizeof(local)) != 0 ||
          ::getsockname(fds_[i], addr, &len) != 0) {
        throw std::runtime_error("perfbench: client socket setup failed");
      }
      ports_[i] = ntohs(local.sin_port);
    }
  }
  ~UdpClients() {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  UdpClients(const UdpClients&) = delete;
  UdpClients& operator=(const UdpClients&) = delete;

  void connect_to(std::uint16_t port) {
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    to.sin_port = htons(port);
    for (const int fd : fds_) {
      // rg-lint: allow(cast) -- BSD sockets API
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&to), sizeof(to)) != 0) {
        throw std::runtime_error("perfbench: client connect failed");
      }
    }
  }
  /// Returns false when the kernel refused the datagram.
  bool send(std::size_t session, const ItpBytes& bytes) const {
    return ::send(fds_[session], bytes.data(), bytes.size(), 0) ==
           static_cast<ssize_t>(bytes.size());
  }
  [[nodiscard]] std::uint16_t port(std::size_t session) const { return ports_[session]; }

 private:
  std::vector<int> fds_;
  std::vector<std::uint16_t> ports_;
};

/// Everything the program builds before the first timed tick (members
/// are destroyed in reverse order: admin, gateway, transports, plane).
struct PacedService {
  std::unique_ptr<rg::persist::StatePlane> plane;
  std::unique_ptr<svc::UdpSocketTransport> udp;
  std::unique_ptr<BenchTransport> transport;
  std::unique_ptr<svc::TeleopGateway> gateway;
  std::unique_ptr<svc::AdminServer> admin;
  double open_ms = 0.0;  ///< StatePlane::open

  void stop() {
    if (admin) admin->stop();
    if (gateway) gateway->shutdown();
    if (plane) plane->stop();
  }
};

std::unique_ptr<PacedService> start_paced(const svc::SessionEngineConfig& engine,
                                          const std::string& dir, bool timed, UdpClients& clients,
                                          const std::vector<ItpBytes>& first,
                                          std::uint64_t& setup_ns) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(std::filesystem::path(dir).parent_path());
  const std::uint64_t t0 = now_ns();
  auto service = std::make_unique<PacedService>();
  PacedService& s = *service;
  rg::persist::StatePlaneConfig pc;
  pc.dir = dir;
  auto plane = rg::persist::StatePlane::open(pc);
  if (!plane.ok()) throw std::runtime_error("perfbench: state plane: " + plane.error().to_string());
  s.plane = std::move(plane.value());
  s.open_ms = 1e-6 * static_cast<double>(now_ns() - t0);
  s.udp = std::make_unique<svc::UdpSocketTransport>();
  s.transport = std::make_unique<BenchTransport>(*s.udp, timed);
  svc::GatewayConfig config;
  config.engine = engine;
  config.shards = kPacedShards;
  config.max_sessions = kPacedSessions;
  config.threaded = false;
  config.persist = s.plane.get();
  s.gateway = std::make_unique<svc::TeleopGateway>(config, *s.transport);
  s.gateway->publish_snapshot(now_ms());
  s.admin = std::make_unique<svc::AdminServer>(svc::AdminConfig{}, s.gateway.get());
  // Session admission: every console's first datagram, drained to a verdict.
  clients.connect_to(s.udp->bound_port());
  for (std::size_t i = 0; i < first.size(); ++i) (void)clients.send(i, first[i]);
  while (s.transport->datagrams < first.size()) {
    if (s.gateway->pump(now_ms()) == 0) std::this_thread::yield();
    if (seconds_since(t0) > 10.0) throw std::runtime_error("perfbench: admission timed out");
  }
  s.gateway->drain();
  setup_ns = now_ns() - t0;
  s.transport->arrivals.clear();
  return service;
}

}  // namespace

void run_gw_paced(const Options& opt, Report& report) {
  const rg::DetectionThresholds th = gateway_thresholds();
  report.check(thresholds_sane(th), "learned thresholds not finite and positive");
  const svc::SessionEngineConfig engine = engine_config(th);
  const std::size_t n = kPacedSessions;
  const auto ticks = static_cast<std::uint64_t>(opt.seconds * 1000.0);

  std::vector<bool> attacked(n);
  std::vector<std::optional<rg::ItpInjectionWrapper>> attacks(n);
  for (std::size_t s = 0; s < n; ++s) {
    attacked[s] = attacked_session(opt.seed, s);
    if (attacked[s]) attacks[s].emplace(scenario_a_injection(opt.seed, s));
  }
  UdpClients clients(n);
  std::vector<int> port_to_session(65536, -1);
  for (std::size_t s = 0; s < n; ++s) port_to_session[clients.port(s)] = static_cast<int>(s);

  StreamBank bank(opt.seed);
  bank.advance();
  std::vector<ItpBytes> first(n);
  for (std::size_t s = 0; s < n; ++s) {
    first[s] = bank.current(s);
    if (attacks[s]) (void)attacks[s]->on_packet(first[s], 0);
  }
  std::vector<float> lat_us;
  lat_us.reserve(n * ticks);

  // --- set-up, repeated; the last one serves the timed run ---------------
  const std::string dir_base =
      opt.scratch + "/paced-" + std::to_string(static_cast<long long>(::getpid()));
  std::vector<double> setups;
  std::vector<double> opens;
  std::unique_ptr<PacedService> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    std::uint64_t setup_ns = 0;
    service = start_paced(engine, dir_base + "-" + std::to_string(rep), opt.trace, clients,
                          first, setup_ns);
    setups.push_back(1e-9 * static_cast<double>(setup_ns));
    opens.push_back(service->open_ms);
  }
  svc::TeleopGateway& gateway = *service->gateway;
  BenchTransport& transport = *service->transport;

  // --- admin plane, polled once a second as raven_top does --------------
  std::atomic<bool> stop_admin{false};
  std::vector<double> poll_ms;
  std::uint64_t poll_failures = 0;
  const std::uint16_t admin_port = service->admin->bound_port();
  std::thread poller([&] {
    while (!stop_admin.load()) {
      const std::uint64_t t0 = now_ns();
      const auto metrics = svc::http_get("127.0.0.1", admin_port, "/metrics");
      const auto stats = svc::http_get("127.0.0.1", admin_port, "/stats");
      poll_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
      if (!metrics.ok() || metrics.value().status != 200 || !stats.ok() ||
          stats.value().status != 200) {
        ++poll_failures;
      }
      for (int i = 0; i < 100 && !stop_admin.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  });

  // --- open-loop generator: one thread, absolute deadlines -------------
  const std::uint64_t t_start = now_ns() + 5 * kMsNs;
  const auto release_ns = [&](std::uint64_t tick) { return t_start + (tick - 1) * kMsNs; };
  std::vector<double> late_us;
  late_us.reserve(ticks);
  std::uint64_t send_failures = 0;
  double generator_cpu_s = 0.0;
  std::thread generator([&] {
    const double cpu_start = thread_cpu_s();
    for (std::uint64_t tick = 1; tick < ticks; ++tick) {
      bank.advance();
      const std::uint64_t due = release_ns(tick);
      // Spin onto the deadline: a timed sleep on this shared host wakes
      // 0.1-6 ms late in busy phases, a spinning thread loses <1%.
      std::uint64_t now = now_ns();
      while (now < due) {
        cpu_relax();
        now = now_ns();
      }
      late_us.push_back(1e-3 * static_cast<double>(now - due));
      for (std::size_t s = 0; s < n; ++s) {
        ItpBytes bytes = bank.current(s);
        if (attacks[s]) (void)attacks[s]->on_packet(bytes, tick);
        if (!clients.send(s, bytes)) ++send_failures;
      }
    }
    generator_cpu_s = thread_cpu_s() - cpu_start;
  });

  // --- service loop ----------------------------------------------------
  std::vector<std::uint64_t> arrived(n, 1);  // tick 0 was the admission datagram
  const std::uint64_t expected = n * (ticks - 1);
  const std::uint64_t deadline = t_start + ticks * kMsNs + 5'000 * kMsNs;
  LoopTimers timers;
  std::uint64_t busy_ns = 0;
  double busy_cpu_s = 0.0;  // service-thread CPU of the iterations that ingested
  std::uint64_t received = 0;
  const double cpu0 = process_cpu_s();
  const double loop_cpu0 = thread_cpu_s();
  while (received < expected) {
    const std::uint64_t t0 = now_ns();
    if (t0 > deadline) break;  // datagrams lost: counted as failed below
    // Spins like the generator: no sleep, no cross-thread wake-up on the
    // latency path (the shards run inline on this thread).
    const double c0 = thread_cpu_s();
    const std::size_t got = gateway.pump(t0 / kMsNs);
    if (got == 0) continue;
    const std::uint64_t t1 = opt.trace ? now_ns() : 0;
    gateway.drain();
    const std::uint64_t done = now_ns();
    busy_ns += done - t0;
    busy_cpu_s += thread_cpu_s() - c0;
    if (opt.trace) {
      timers.pump_ns += t1 - t0;
      timers.pumped += got;
      timers.drain_ns += done - t1;
      ++timers.drains;
    }
    for (const std::uint16_t port : transport.arrivals) {
      const int s = port_to_session[port];
      if (s < 0) continue;
      const auto idx = static_cast<std::size_t>(s);
      lat_us.push_back(static_cast<float>(
          1e-3 * static_cast<double>(done - release_ns(arrived[idx]++))));
    }
    received += transport.arrivals.size();
    transport.arrivals.clear();
  }
  const double loop_cpu = thread_cpu_s() - loop_cpu0;
  generator.join();
  // The program's CPU: every thread but the spinning generator, and of the
  // service loop only its busy iterations (idle polls are the loop's choice).
  const double cpu = process_cpu_s() - cpu0 - generator_cpu_s - loop_cpu + busy_cpu_s;
  stop_admin.store(true);
  poller.join();

  // --- checks --------------------------------------------------------------
  const auto ids = session_ids(gateway, port_to_session);
  const std::vector<svc::SessionStats> sessions = gateway.sessions();
  std::uint64_t verdicts = 0;
  for (const svc::SessionStats& s : sessions) verdicts += s.shard.ticks;
  const std::uint64_t due = n * ticks;
  report.attempted(due);
  report.failed(due > verdicts ? due - verdicts : 0);
  report.check(send_failures == 0, "generator send failures");
  report.check(poll_failures == 0, "admin poll failures");
  report.check(ids.size() == n, "not every console was admitted as a session");
  check_attacks(sessions, ids, attacked, report);
  // E-STOP latches become durable through the snapshot publish.
  gateway.publish_snapshot(now_ms());
  service->plane->flush_now();
  const rg::persist::PersistentState persisted = service->plane->state();
  for (const auto& [id, session] : ids) {
    if (!attacked[session]) continue;
    const auto it = persisted.sessions.find(id);
    report.check(it != persisted.sessions.end() && it->second.estop,
                 "session " + std::to_string(session) + ": E-STOP latch not persisted");
  }
  check_determinism(gateway, engine, opt.seed, replay_sample(attacked), ids, attacked, report);

  // --- metrics -------------------------------------------------------------
  const auto executed = static_cast<double>(received);
  if (!opt.trace) {
    std::vector<double> lat(lat_us.begin(), lat_us.end());
    report.metric("setup_s", median(setups), "s");
    report.metric("verdict_p50_us", median(lat), "us");
    report.metric("ticks_per_s", executed / (1e-9 * static_cast<double>(busy_ns)), "1/s");
    report.metric("cpu_us_per_tick", 1e6 * cpu / executed, "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    report.metric("trace.cpu_us_per_tick", 1e6 * cpu / executed, "us");
    report_gateway_layers(report, gateway, transport, timers);
    report_latency_tails(report, std::vector<double>(lat_us.begin(), lat_us.end()));
    report.metric("loadgen.late_p99_us", quantile(late_us, 0.99), "us");
    report.metric("loadgen.late_max_us", quantile(late_us, 1.0), "us");
    report.metric("loadgen.late_samples", static_cast<double>(late_us.size()), "count");
    const rg::persist::StatePlaneStats ps = service->plane->stats();
    report.metric("persist.open_ms", median(opens), "ms");
    report.metric("persist.ops", static_cast<double>(ps.ops_submitted), "count");
    report.metric("persist.dropped", static_cast<double>(ps.ops_dropped), "count");
    report.metric("persist.flushes", static_cast<double>(ps.flushes), "count");
    report.metric("persist.wal_records", static_cast<double>(ps.store.wal_records), "count");
    report.metric("persist.journal_bytes", static_cast<double>(ps.journal.bytes), "B");
    report.metric("obs.admin_poll_ms", median(poll_ms), "ms");
  }
  service->stop();
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    std::filesystem::remove_all(dir_base + "-" + std::to_string(rep));
  }
}

// --- gw-flood ---------------------------------------------------------------

namespace {

/// 240 sessions on 3 shards: ids 1..240 split 80 per shard, ten full
/// 8-lane rounds each; pump + 3 shard workers fill a 4-core host.
constexpr std::size_t kFloodSessions = 240;
constexpr std::size_t kFloodShards = 3;
/// Ticks per session injected per closed-loop slice (as bench_gateway):
/// long slices amortize the per-slice shard wake-ups and drain.
constexpr std::uint64_t kSliceTicks = 64;
/// Per-session chance that a clean datagram is followed by a hostile one.
constexpr double kHostileShare = 0.05;

enum class Hostile : std::uint8_t { kReplay, kBitFlip, kFlagBits };

/// The link-level mutations of itp_loadgen --attack-mix, applied to a
/// copy of the clean datagram just sent.
ItpBytes mutate(const ItpBytes& clean, Hostile kind) {
  ItpBytes out = clean;
  switch (kind) {
    case Hostile::kReplay: break;  // verbatim re-send of the newest datagram
    case Hostile::kBitFlip: out[10] = static_cast<std::uint8_t>(out[10] ^ 0x40); break;
    case Hostile::kFlagBits:
      out[4] = static_cast<std::uint8_t>(out[4] | 0x20);
      out[rg::kItpPacketSize - 1] =
          rg::xor_checksum(std::span<const std::uint8_t>{out}.first(rg::kItpPacketSize - 1));
      break;
  }
  return out;
}

}  // namespace

void run_gw_flood(const Options& opt, Report& report) {
  const rg::DetectionThresholds th = gateway_thresholds();
  report.check(thresholds_sane(th), "learned thresholds not finite and positive");
  const svc::SessionEngineConfig engine = engine_config(th);
  const std::size_t n = kFloodSessions;
  std::vector<int> port_to_session(65536, -1);
  std::vector<svc::Endpoint> endpoints(n);
  for (std::size_t s = 0; s < n; ++s) {
    endpoints[s] = svc::Endpoint{0x7f000001u, static_cast<std::uint16_t>(20000 + s)};
    port_to_session[endpoints[s].port] = static_cast<int>(s);
  }
  StreamBank bank(opt.seed);
  bank.advance();

  std::vector<double> setups;
  std::unique_ptr<svc::LoopbackTransport> loopback;
  std::unique_ptr<BenchTransport> transport;
  std::unique_ptr<svc::TeleopGateway> gateway;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (gateway) gateway->shutdown();
    gateway.reset();
    const std::uint64_t t0 = now_ns();
    loopback = std::make_unique<svc::LoopbackTransport>();
    transport = std::make_unique<BenchTransport>(*loopback, opt.trace);
    svc::GatewayConfig config;
    config.engine = engine;
    config.shards = kFloodShards;
    config.max_sessions = n;
    config.idle_timeout_ms = 1U << 30;
    gateway = std::make_unique<svc::TeleopGateway>(config, *transport);
    for (std::size_t s = 0; s < n; ++s) {
      loopback->inject(endpoints[s], std::span<const std::uint8_t>{bank.current(s)});
    }
    while (loopback->pending() > 0) (void)gateway->pump(now_ms());
    gateway->drain();
    setups.push_back(seconds_since(t0));
    transport->arrivals.clear();
  }

  rg::Pcg32 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0xf100d);
  std::vector<std::uint32_t> rotor(n);
  std::uint64_t hostile[3] = {0, 0, 0};
  std::uint64_t clean = n;  // admission datagrams
  std::vector<double> slice_us;
  LoopTimers timers;
  const double cpu0 = process_cpu_s();
  const std::uint64_t t_run = now_ns();
  while (seconds_since(t_run) < opt.seconds) {
    const std::uint64_t t_inject = now_ns();
    for (std::uint64_t k = 0; k < kSliceTicks; ++k) {
      bank.advance();
      for (std::size_t s = 0; s < n; ++s) {
        const ItpBytes& bytes = bank.current(s);
        loopback->inject(endpoints[s], std::span<const std::uint8_t>{bytes});
        if (rng.uniform() < kHostileShare) {
          const auto kind = static_cast<Hostile>(rotor[s]++ % 3);
          ++hostile[static_cast<std::size_t>(kind)];
          const ItpBytes bad = mutate(bytes, kind);
          loopback->inject(endpoints[s], std::span<const std::uint8_t>{bad});
        }
      }
    }
    clean += n * kSliceTicks;
    while (loopback->pending() > 0) {
      const std::uint64_t p0 = opt.trace ? now_ns() : 0;
      const std::size_t got = gateway->pump(now_ms());
      if (opt.trace) {
        timers.pump_ns += now_ns() - p0;
        timers.pumped += got;
      }
    }
    const std::uint64_t d0 = opt.trace ? now_ns() : 0;
    gateway->drain();
    const std::uint64_t done = now_ns();
    if (opt.trace) {
      timers.drain_ns += done - d0;
      ++timers.drains;
    }
    slice_us.push_back(1e-3 * static_cast<double>(done - t_inject));
    transport->arrivals.clear();
  }
  const double wall = seconds_since(t_run);
  const double cpu = process_cpu_s() - cpu0;

  // --- checks --------------------------------------------------------------
  const auto ids = session_ids(*gateway, port_to_session);
  const std::vector<svc::SessionStats> sessions = gateway->sessions();
  std::uint64_t verdicts = 0;
  for (const svc::SessionStats& s : sessions) verdicts += s.shard.ticks;
  const svc::GatewayStats st = gateway->stats();
  const std::uint64_t hostile_total = hostile[0] + hostile[1] + hostile[2];
  report.attempted(clean + hostile_total);
  report.failed(clean > verdicts ? clean - verdicts : 0);
  // Each hostile datagram must be refused for the reason its mutation implies.
  const auto missed = [](std::uint64_t want, std::uint64_t got) {
    return want > got ? want - got : got - want;
  };
  report.failed(missed(hostile[0], st.rejected_duplicate) + missed(hostile[1], st.rejected_checksum) +
                missed(hostile[2], st.rejected_flags));
  report.check(st.accepted == clean, "accepted datagrams differ from clean datagrams sent");
  report.check(st.datagrams - st.accepted == hostile_total,
               "rejections differ from hostile datagrams sent");
  report.check(ids.size() == n, "not every console was admitted as a session");
  const std::vector<bool> attacked(n, false);
  check_attacks(sessions, ids, attacked, report);
  check_determinism(*gateway, engine, opt.seed, replay_sample(attacked), ids, attacked, report);

  const auto executed = static_cast<double>(clean - n);
  if (!opt.trace) {
    report.metric("setup_s", median(setups), "s");
    // Closed loop: a slice's datagrams are due when it is injected.
    report.metric("verdict_p50_us", median(slice_us), "us");
    report.metric("ticks_per_s", executed / wall, "1/s");
    report.metric("cpu_us_per_tick", 1e6 * cpu / executed, "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    report.metric("trace.cpu_us_per_tick", 1e6 * cpu / executed, "us");
    report_gateway_layers(report, *gateway, *transport, timers);
    report_latency_tails(report, slice_us);
  }
  gateway->shutdown();
}

}  // namespace perfbench
