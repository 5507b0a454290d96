// Gateway service tests: session lifecycle, ingest classification
// (anti-replay window, MAC, checksum, flag bits), backpressure, shard
// determinism, and a real-socket smoke test.
//
// The suite names matter: scripts/tier1.sh runs `Gateway.*` under
// ThreadSanitizer, so the threaded tests double as the gateway's
// concurrency regression net.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/itp_injection.hpp"
#include "net/itp_packet.hpp"
#include "net/master_console.hpp"
#include "obs/metrics.hpp"
#include "persist/state_plane.hpp"
#include "sim/experiment.hpp"
#include "svc/gateway.hpp"
#include "svc/session.hpp"
#include "svc/transport.hpp"
#include "svc/udp_transport.hpp"
#include "trajectory/trajectory.hpp"

namespace rg::svc {
namespace {

Endpoint ep(std::uint16_t port) { return Endpoint{0x0a000001u, port}; }

ItpBytes packet_with_sequence(std::uint32_t seq) {
  ItpPacket pkt;
  pkt.sequence = seq;
  pkt.pedal_down = true;
  return encode_itp(pkt);
}

void inject(LoopbackTransport& transport, const Endpoint& from, const ItpBytes& bytes) {
  transport.inject(from, std::span<const std::uint8_t>{bytes});
}

GatewayConfig inline_config() {
  GatewayConfig cfg;
  cfg.shards = 1;
  cfg.threaded = false;
  cfg.idle_timeout_ms = 1u << 30;
  return cfg;
}

void pump_all(TeleopGateway& gateway, LoopbackTransport& transport, std::uint64_t now_ms) {
  while (transport.pending() > 0) (void)gateway.pump(now_ms);
  gateway.drain();
}

// --- replay window unit ----------------------------------------------------

TEST(Gateway, ReplayWindowSemantics) {
  ReplayWindow w;
  EXPECT_EQ(w.check_and_update(5).verdict, IngestVerdict::kAccepted);
  EXPECT_EQ(w.check_and_update(6).verdict, IngestVerdict::kAccepted);
  // Duplicate of the newest.
  EXPECT_EQ(w.check_and_update(6).verdict, IngestVerdict::kDuplicate);
  // Late but new inside the window: accepted, flagged out-of-order.
  const ReplayWindow::Outcome late = w.check_and_update(4);
  EXPECT_EQ(late.verdict, IngestVerdict::kAccepted);
  EXPECT_TRUE(late.out_of_order);
  // Replay of an already-accepted number inside the window.
  EXPECT_EQ(w.check_and_update(4).verdict, IngestVerdict::kReplayed);
  EXPECT_EQ(w.check_and_update(5).verdict, IngestVerdict::kReplayed);
  // A jump records the gap (presumed losses).
  const ReplayWindow::Outcome jump = w.check_and_update(100);
  EXPECT_EQ(jump.verdict, IngestVerdict::kAccepted);
  EXPECT_EQ(jump.gap, 93u);
  // Older than the 64-wide window: stale.
  EXPECT_EQ(w.check_and_update(36).verdict, IngestVerdict::kStale);
  // Still inside: fresh number accepted.
  EXPECT_EQ(w.check_and_update(37).verdict, IngestVerdict::kAccepted);
}

// --- session lifecycle -----------------------------------------------------

TEST(Gateway, SessionLifecycleAndIdleEviction) {
  LoopbackTransport transport;
  GatewayConfig cfg = inline_config();
  cfg.idle_timeout_ms = 100;
  TeleopGateway gateway(cfg, transport);

  for (std::uint32_t s = 1; s <= 3; ++s) inject(transport, ep(100), packet_with_sequence(s));
  pump_all(gateway, transport, 10);
  GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.active_sessions, 1u);
  EXPECT_EQ(stats.accepted, 3u);

  // Quiet past the timeout: evicted on the next pump.
  (void)gateway.pump(200);
  gateway.drain();
  stats = gateway.stats();
  EXPECT_EQ(stats.active_sessions, 0u);
  EXPECT_EQ(stats.sessions_evicted, 1u);

  // The evicted session's record survives with its final stats.
  const auto sessions = gateway.sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_FALSE(sessions[0].active);
  EXPECT_EQ(sessions[0].counters.accepted, 3u);
  EXPECT_EQ(sessions[0].shard.ticks, 3u);

  // The same endpoint reconnecting gets a fresh session (and id).
  inject(transport, ep(100), packet_with_sequence(1));
  pump_all(gateway, transport, 210);
  stats = gateway.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.active_sessions, 1u);
}

TEST(Gateway, SessionTableCapacityEnforced) {
  LoopbackTransport transport;
  GatewayConfig cfg = inline_config();
  cfg.max_sessions = 2;
  TeleopGateway gateway(cfg, transport);
  for (std::uint16_t port = 1; port <= 3; ++port) {
    inject(transport, ep(port), packet_with_sequence(1));
  }
  pump_all(gateway, transport, 1);
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.rejected_session_limit, 1u);
}

// --- ingest classification -------------------------------------------------

TEST(Gateway, ReplayDuplicateAndStaleRejected) {
  LoopbackTransport transport;
  TeleopGateway gateway(inline_config(), transport);
  const Endpoint from = ep(7);

  for (std::uint32_t s = 1; s <= 5; ++s) inject(transport, from, packet_with_sequence(s));
  inject(transport, from, packet_with_sequence(5));    // duplicate of newest
  inject(transport, from, packet_with_sequence(3));    // replay inside window
  inject(transport, from, packet_with_sequence(200));  // jump: 194 presumed lost
  inject(transport, from, packet_with_sequence(199));  // late but new: accepted
  inject(transport, from, packet_with_sequence(100));  // older than the window
  pump_all(gateway, transport, 1);

  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.accepted, 7u);
  EXPECT_EQ(stats.rejected_duplicate, 1u);
  EXPECT_EQ(stats.rejected_replayed, 1u);
  EXPECT_EQ(stats.rejected_stale, 1u);
  EXPECT_EQ(stats.out_of_order_accepted, 1u);

  const auto sessions = gateway.sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].counters.accepted, 7u);
  EXPECT_EQ(sessions[0].counters.duplicates, 1u);
  EXPECT_EQ(sessions[0].counters.replayed, 1u);
  EXPECT_EQ(sessions[0].counters.stale, 1u);
  EXPECT_EQ(sessions[0].counters.out_of_order, 1u);
  EXPECT_EQ(sessions[0].counters.lost_gap, 194u);
  // Only accepted datagrams became control ticks.
  EXPECT_EQ(sessions[0].shard.ticks, 7u);
}

TEST(Gateway, ChecksumAndFlagRejectionsAreDistinct) {
  LoopbackTransport transport;
  TeleopGateway gateway(inline_config(), transport);
  const Endpoint from = ep(8);

  inject(transport, from, packet_with_sequence(1));

  ItpBytes flipped = packet_with_sequence(2);
  flipped[10] = static_cast<std::uint8_t>(flipped[10] ^ 0x40);  // checksum now wrong
  inject(transport, from, flipped);

  ItpBytes garbled = packet_with_sequence(3);
  garbled[4] = static_cast<std::uint8_t>(garbled[4] | 0x20);  // undefined flag bit
  std::uint8_t c = 0;
  for (std::size_t i = 0; i + 1 < kItpPacketSize; ++i) {
    c = static_cast<std::uint8_t>(c ^ garbled[i]);
  }
  garbled[kItpPacketSize - 1] = c;  // checksum fixed up: flags alone reject it
  inject(transport, from, garbled);

  transport.inject(from, std::vector<std::uint8_t>(12, 0));  // truncated

  pump_all(gateway, transport, 1);
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected_checksum, 1u);
  EXPECT_EQ(stats.rejected_flags, 1u);
  EXPECT_EQ(stats.rejected_size, 1u);
}

TEST(Gateway, MacRequiredVerifiesTagsAtIngest) {
  LoopbackTransport transport;
  GatewayConfig cfg = inline_config();
  cfg.require_mac = true;
  cfg.mac_key = MacKey::from_seed(42);
  TeleopGateway gateway(cfg, transport);
  const Endpoint from = ep(9);

  // Bare 30-byte ITP: wrong frame size under the MAC regime.
  inject(transport, from, packet_with_sequence(1));
  // Sealed under the wrong key.
  const MacFrameBytes wrong_key = seal_itp_frame(packet_with_sequence(2), MacKey::from_seed(43));
  transport.inject(from, std::span<const std::uint8_t>{wrong_key});
  // Sealed correctly, then tampered in flight.
  MacFrameBytes tampered = seal_itp_frame(packet_with_sequence(3), cfg.mac_key);
  tampered[12] = static_cast<std::uint8_t>(tampered[12] ^ 0x01);
  transport.inject(from, std::span<const std::uint8_t>{tampered});
  // Sealed correctly.
  const MacFrameBytes good = seal_itp_frame(packet_with_sequence(4), cfg.mac_key);
  transport.inject(from, std::span<const std::uint8_t>{good});

  pump_all(gateway, transport, 1);
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.rejected_size, 1u);
  EXPECT_EQ(stats.rejected_mac, 2u);
  EXPECT_EQ(stats.accepted, 1u);
  const auto sessions = gateway.sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].shard.ticks, 1u);
}

TEST(Gateway, BackpressureCountsDropsWhenShardQueueFull) {
  LoopbackTransport transport;
  GatewayConfig cfg = inline_config();
  cfg.max_queue_per_shard = 4;
  TeleopGateway gateway(cfg, transport);
  const Endpoint from = ep(11);
  for (std::uint32_t s = 1; s <= 50; ++s) inject(transport, from, packet_with_sequence(s));
  pump_all(gateway, transport, 1);
  const GatewayStats stats = gateway.stats();
  // The open item takes one queue slot; three datagrams fit behind it.
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.backpressure_dropped, 47u);
  const auto sessions = gateway.sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].counters.backpressure, 47u);
  EXPECT_EQ(sessions[0].shard.ticks, 3u);
  // The shard's own view: every refused datagram counted as ring_full,
  // and the ring's high watermark never exceeded its capacity.
  const auto shard_stats = gateway.shard_stats();
  ASSERT_EQ(shard_stats.size(), 1u);
  EXPECT_EQ(shard_stats[0].ring_full, 47u);
  EXPECT_LE(shard_stats[0].queue_hwm, 4u);
  EXPECT_GT(shard_stats[0].queue_hwm, 0u);
}

TEST(Gateway, LoopbackSendBatchRecordsEgress) {
  LoopbackTransport transport;
  std::vector<TxDatagram> batch(3);
  const ItpBytes a = packet_with_sequence(1);
  const ItpBytes b = packet_with_sequence(2);
  batch[0].assign(ep(1), std::span<const std::uint8_t>{a});
  batch[1].assign(ep(2), std::span<const std::uint8_t>{b});
  batch[2].assign(ep(3), std::span<const std::uint8_t>{a});
  EXPECT_EQ(transport.send_batch(batch), 3u);

  const auto sent = transport.take_sent();
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent[0].to, ep(1));
  EXPECT_EQ(sent[1].to, ep(2));
  EXPECT_EQ(sent[2].to, ep(3));
  EXPECT_EQ(sent[0].len, kItpPacketSize);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), sent[0].bytes.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), sent[1].bytes.begin()));
  // take_sent() moves the log out: a second take is empty.
  EXPECT_TRUE(transport.take_sent().empty());
}

// --- shard determinism -----------------------------------------------------

/// Console stream `which`: a circle whose radius grows with `which`, with
/// the pedal pressed after homing at a per-session time, so the sessions
/// of one chunk engage on different ticks.  An attacked stream carries a
/// scenario-A increment injection starting 100 pedal-down packets in.
std::vector<ItpBytes> console_stream(std::size_t which, std::size_t ticks, bool attacked = false) {
  auto trajectory = std::make_shared<CircleTrajectory>(
      Position{0.09, 0.0, -0.11}, 0.010 + 0.0002 * static_cast<double>(which), 2.5, 1.0e9);
  MasterConsole console(std::move(trajectory),
                        PedalSchedule::hold_from(kPedalAfterHomingSec +
                                                 0.013 * static_cast<double>(which)));
  std::optional<ItpInjectionWrapper> attack;
  if (attacked) {
    ItpInjectionConfig cfg;
    cfg.mode = ItpInjectionConfig::Mode::kInflateIncrement;
    cfg.increment_magnitude = 1.3e-4;
    cfg.duration_packets = 512;
    cfg.delay_packets = 100;
    cfg.seed = 99;
    attack.emplace(cfg);
  }
  std::vector<ItpBytes> out;
  out.reserve(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    out.push_back(encode_itp(console.tick()));
    if (attack) (void)attack->on_packet(out.back(), t);
  }
  return out;
}

/// The detector armed with E-STOP mitigation and the thresholds
/// `raven_guard_cli learn --runs 24 --seed 42` learns from fault-free
/// sessions.
SessionEngineConfig armed_engine() {
  DetectionThresholds th;
  th.motor_vel = Vec3{16.132078742002889, 31.415926536055359, 80.177969770219008};
  th.motor_acc = Vec3{531.48229686591765, 546.08542491399032, 1743.0181630611744};
  th.joint_vel = Vec3{0.28250681937196004, 0.55942395498397646, 0.03753949722228208};
  const SimConfig sim = make_session(SessionParams{}, th, MitigationMode::kArmed);
  SessionEngineConfig cfg;
  cfg.control = sim.control;
  cfg.plant = sim.plant;
  cfg.plc = sim.plc;
  cfg.channel = sim.channel;
  cfg.detection = *sim.detection;
  return cfg;
}

struct EndpointOutcome {
  std::uint32_t id = 0;
  std::uint64_t accepted = 0;
  std::uint64_t ticks = 0;
  std::uint64_t alarms = 0;
  std::uint64_t blocked = 0;
  std::uint64_t digest = 0;
  bool estop = false;

  friend bool operator==(const EndpointOutcome&, const EndpointOutcome&) = default;
};

std::map<std::string, EndpointOutcome> run_sharded(std::size_t shards, bool threaded,
                                                   const std::vector<std::vector<ItpBytes>>& streams,
                                                   std::size_t rx_batch = 64,
                                                   const SessionEngineConfig& engine = {}) {
  LoopbackTransport transport;
  GatewayConfig cfg;
  cfg.engine = engine;
  cfg.shards = shards;
  cfg.threaded = threaded;
  cfg.idle_timeout_ms = 1u << 30;
  cfg.rx_batch = rx_batch;
  TeleopGateway gateway(cfg, transport);
  // Interleave round-robin across endpoints, as concurrent consoles would,
  // in slices short enough that no shard ring fills.
  constexpr std::size_t kSliceTicks = 256;
  const std::size_t ticks = streams.front().size();
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      inject(transport, ep(static_cast<std::uint16_t>(1000 + s)), streams[s][t]);
    }
    if ((t + 1) % kSliceTicks == 0) pump_all(gateway, transport, 1);
  }
  pump_all(gateway, transport, 1);
  std::map<std::string, EndpointOutcome> out;
  for (const SessionStats& s : gateway.sessions()) {
    out[s.endpoint.to_string()] =
        EndpointOutcome{s.id,           s.counters.accepted, s.shard.ticks, s.shard.alarms,
                        s.shard.blocked, s.shard.digest,      s.shard.estop};
  }
  gateway.shutdown();
  return out;
}

TEST(Gateway, VerdictStreamsInvariantUnderShardCount) {
  std::vector<std::vector<ItpBytes>> streams;
  for (std::size_t s = 0; s < 6; ++s) streams.push_back(console_stream(s, 1200));

  const auto inline_1 = run_sharded(1, false, streams);
  const auto threaded_2 = run_sharded(2, true, streams);
  const auto threaded_4 = run_sharded(4, true, streams);

  ASSERT_EQ(inline_1.size(), 6u);
  EXPECT_EQ(inline_1, threaded_2);
  EXPECT_EQ(inline_1, threaded_4);
  for (const auto& [endpoint, outcome] : inline_1) {
    EXPECT_EQ(outcome.accepted, 1200u) << endpoint;
    EXPECT_EQ(outcome.ticks, 1200u) << endpoint;
    EXPECT_NE(outcome.digest, 0u) << endpoint;
  }
  // Six distinct trajectories: not all verdict digests can collide.
  std::map<std::uint64_t, int> digests;
  for (const auto& [endpoint, outcome] : inline_1) ++digests[outcome.digest];
  EXPECT_GT(digests.size(), 1u);
}

TEST(Gateway, VerdictStreamsInvariantUnderBatchAndShardMatrix) {
  std::vector<std::vector<ItpBytes>> streams;
  for (std::size_t s = 0; s < 4; ++s) streams.push_back(console_stream(s, 200));

  // Reference: inline, single shard, one datagram per poll_batch().
  const auto reference = run_sharded(1, false, streams, 1);
  ASSERT_EQ(reference.size(), 4u);
  for (const auto& [endpoint, outcome] : reference) {
    EXPECT_EQ(outcome.accepted, 200u) << endpoint;
    EXPECT_NE(outcome.digest, 0u) << endpoint;
  }

  // The full ingest matrix: verdict digests and every per-session
  // counter must be byte-identical at any shard count x any batch size,
  // threaded or inline.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t batch : {1u, 8u, 64u}) {
      EXPECT_EQ(reference, run_sharded(shards, true, streams, batch))
          << "shards=" << shards << " rx_batch=" << batch << " threaded";
      EXPECT_EQ(reference, run_sharded(shards, false, streams, batch))
          << "shards=" << shards << " rx_batch=" << batch << " inline";
    }
  }
}

TEST(Gateway, ShardedTeleoperationMatchesScalarReplay) {
  // Nine sessions: one shard runs them as an 8-lane chunk plus a 1-lane
  // chunk, and the staggered pedal presses mix solving and non-solving
  // lanes in one chunk.  Session 4 carries a scenario-A injection that
  // the armed detector must catch and stop.
  constexpr std::size_t kSessions = 9;
  constexpr std::size_t kTicks = 1400;
  constexpr std::size_t kAttacked = 4;
  const SessionEngineConfig engine = armed_engine();
  std::vector<std::vector<ItpBytes>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(console_stream(s, kTicks, s == kAttacked));
  }

  const auto inline_1 = run_sharded(1, false, streams, 64, engine);
  const auto threaded_1 = run_sharded(1, true, streams, 64, engine);
  const auto threaded_2 = run_sharded(2, true, streams, 64, engine);
  ASSERT_EQ(inline_1.size(), kSessions);
  EXPECT_EQ(inline_1, threaded_1);
  EXPECT_EQ(inline_1, threaded_2);

  for (const auto* run : {&inline_1, &threaded_1}) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      const EndpointOutcome& got = run->at(ep(static_cast<std::uint16_t>(1000 + s)).to_string());
      EXPECT_EQ(got.accepted, kTicks) << "session " << s;
      EXPECT_EQ(got.ticks, kTicks) << "session " << s;

      // The reference: the same stream alone through the scalar tick.
      SessionEngineConfig cfg = engine;
      cfg.plant.seed = GatewayConfig{}.plant_seed_base + got.id;
      SessionEngine scalar(cfg);
      for (const ItpBytes& bytes : streams[s]) {
        (void)scalar.tick(std::span<const std::uint8_t>{bytes});
      }
      EXPECT_EQ(got.digest, scalar.verdict_digest()) << "session " << s;
      EXPECT_EQ(got.alarms, scalar.alarms()) << "session " << s;
      EXPECT_EQ(got.blocked, scalar.blocked()) << "session " << s;
      EXPECT_EQ(got.estop, scalar.estop_latched()) << "session " << s;

      // Only the attacked session alarms, and its alarm latches E-STOP.
      EXPECT_EQ(got.alarms > 0, s == kAttacked) << "session " << s;
      EXPECT_EQ(got.estop, s == kAttacked) << "session " << s;
    }
  }
}

// --- deferred plant periods under fragmented arrivals ----------------------

/// How each control period's datagrams reach a fragmented run.
struct ArrivalPattern {
  /// Some sessions hold their datagrams back for one or two periods, then
  /// deliver the 2–3 queued ones back to back (one mailbox, several
  /// rounds in one drain).
  bool catch_up = false;
  /// Endpoint index of a session that goes silent after period
  /// `close_after` and is idle-evicted with that tick's plant period
  /// still due; none when out of range.
  std::size_t close = ~std::size_t{0};
  std::size_t close_after = 0;
};

/// Drive `streams` through a gateway in fragmented slices.  Period 0
/// opens every session in endpoint order (endpoint s gets id s + 1, on
/// shard (s + 1) % shards).  Every later period delivers each shard's
/// sessions on their own, in an order rotated by the period, as slices
/// of 1, 7 and 8 datagrams, each pumped and drained before the next — so
/// verdict rounds run 1 to 8 lanes wide and a session's plant period is
/// often still due when its next datagram arrives.
std::map<std::string, EndpointOutcome> run_fragmented(
    std::size_t shards, bool threaded, const std::vector<std::vector<ItpBytes>>& streams,
    const SessionEngineConfig& engine, const ArrivalPattern& pattern = {}) {
  constexpr std::uint64_t kIdleTimeoutMs = 100;
  LoopbackTransport transport;
  GatewayConfig cfg;
  cfg.engine = engine;
  cfg.shards = shards;
  cfg.threaded = threaded;
  cfg.idle_timeout_ms = pattern.close < streams.size() ? kIdleTimeoutMs : 1u << 30;
  TeleopGateway gateway(cfg, transport);
  const auto from = [](std::size_t s) { return ep(static_cast<std::uint16_t>(5000 + s)); };

  std::uint64_t now_ms = 1;
  for (std::size_t s = 0; s < streams.size(); ++s) inject(transport, from(s), streams[s][0]);
  pump_all(gateway, transport, now_ms);

  // Periods a session holds back: two sessions in three lag, some for two
  // periods (3 datagrams catch up), some for one (2 catch up).
  const auto holds = [&](std::size_t s, std::size_t t) {
    if (!pattern.catch_up) return false;
    if (s % 3 == 0) return t % 10 == 3 || t % 10 == 4;
    if (s % 3 == 1) return t % 7 == 2;
    return false;
  };
  constexpr std::array<std::size_t, 3> kSlices{1, 7, 8};
  const std::size_t ticks = streams.front().size();
  std::vector<std::size_t> next(streams.size(), 1);  // first undelivered datagram
  for (std::size_t t = 1; t < ticks; ++t) {
    const bool last = t + 1 == ticks;
    for (std::size_t k = 0; k < shards; ++k) {
      std::vector<std::size_t> members;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if ((s + 1) % shards != k) continue;
        if (pattern.close < streams.size() && s == pattern.close && t > pattern.close_after) {
          continue;
        }
        members.push_back(s);
      }
      if (members.empty()) continue;
      // The closing period delivers in ascending id, so the session that
      // closes (its shard's highest id) runs its shard's last round.
      if (t != pattern.close_after) {
        std::rotate(members.begin(),
                    members.begin() + static_cast<std::ptrdiff_t>(t % members.size()),
                    members.end());
      }
      std::vector<std::pair<std::size_t, std::size_t>> due;  // (endpoint, datagram)
      for (const std::size_t s : members) {
        if (holds(s, t) && !last) continue;
        for (; next[s] <= t; ++next[s]) due.emplace_back(s, next[s]);
      }
      for (std::size_t at = 0, slice = 0; at < due.size(); ++slice) {
        const std::size_t end = std::min(due.size(), at + kSlices[slice % kSlices.size()]);
        for (; at < end; ++at) {
          inject(transport, from(due[at].first), streams[due[at].first][due[at].second]);
        }
        pump_all(gateway, transport, now_ms);
      }
    }
    if (t == pattern.close_after && pattern.close < streams.size()) {
      // Past the idle timeout, every other session re-sends its newest
      // datagram: a rejected duplicate that keeps it alive without a
      // tick, so the eviction scan closes only the silent session.
      now_ms += 2 * kIdleTimeoutMs;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if (s != pattern.close) inject(transport, from(s), streams[s][t]);
      }
      pump_all(gateway, transport, now_ms);
    }
  }

  std::map<std::string, EndpointOutcome> out;
  for (const SessionStats& s : gateway.sessions()) {
    out[s.endpoint.to_string()] =
        EndpointOutcome{s.id,            s.counters.accepted, s.shard.ticks, s.shard.alarms,
                        s.shard.blocked, s.shard.digest,      s.shard.estop};
  }
  gateway.shutdown();
  return out;
}

/// A session's first `ticks` datagrams alone through the scalar tick, as
/// the outcome fields the gateway reports; cached per (stream, id, ticks).
class ScalarReplays {
 public:
  ScalarReplays(const SessionEngineConfig& engine,
                const std::vector<std::vector<ItpBytes>>& streams)
      : engine_(engine), streams_(streams) {}

  const EndpointOutcome& get(std::size_t stream, std::uint32_t id, std::uint64_t ticks) {
    const auto key = std::make_tuple(stream, id, ticks);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    SessionEngineConfig cfg = engine_;
    cfg.plant.seed = GatewayConfig{}.plant_seed_base + id;
    SessionEngine scalar(cfg);
    for (std::uint64_t t = 0; t < ticks; ++t) {
      (void)scalar.tick(std::span<const std::uint8_t>{streams_[stream][t]});
    }
    return cache_[key] = EndpointOutcome{id,
                                         ticks,
                                         scalar.ticks(),
                                         scalar.alarms(),
                                         scalar.blocked(),
                                         scalar.verdict_digest(),
                                         scalar.estop_latched()};
  }

 private:
  SessionEngineConfig engine_;
  const std::vector<std::vector<ItpBytes>>& streams_;
  std::map<std::tuple<std::size_t, std::uint32_t, std::uint64_t>, EndpointOutcome> cache_;
};

/// Every session's ticks, digest, alarms, blocked count and E-STOP latch
/// against its scalar replay.
void expect_matches_replay(const std::map<std::string, EndpointOutcome>& run,
                           std::size_t sessions, ScalarReplays& replays,
                           const std::string& where) {
  ASSERT_EQ(run.size(), sessions) << where;
  for (std::size_t s = 0; s < sessions; ++s) {
    const EndpointOutcome& got = run.at(ep(static_cast<std::uint16_t>(5000 + s)).to_string());
    EXPECT_EQ(got.id, s + 1) << where << " session " << s;
    const EndpointOutcome& want = replays.get(s, got.id, got.ticks);
    EXPECT_EQ(got.ticks, want.ticks) << where << " session " << s;
    EXPECT_EQ(got.digest, want.digest) << where << " session " << s;
    EXPECT_EQ(got.alarms, want.alarms) << where << " session " << s;
    EXPECT_EQ(got.blocked, want.blocked) << where << " session " << s;
    EXPECT_EQ(got.estop, want.estop) << where << " session " << s;
  }
}

/// 16 sessions per shard: eight console streams, each played by two or
/// more sessions with different plant seeds; endpoint `attacked` carries
/// the scenario-A injection.
std::vector<std::vector<ItpBytes>> fragmented_streams(std::size_t sessions, std::size_t ticks,
                                                      std::size_t attacked) {
  std::vector<std::vector<ItpBytes>> streams;
  for (std::size_t s = 0; s < sessions; ++s) {
    streams.push_back(console_stream(s % 8, ticks, s == attacked));
  }
  return streams;
}

TEST(Gateway, FragmentedArrivalsMatchScalarReplay) {
  // Verdict rounds of 1 to 8 lanes, catch-up bursts of 2–3 datagrams per
  // session, and plant periods stepped later in calls filled with other
  // sessions: every session must still match its scalar replay exactly.
  constexpr std::size_t kTicks = 1400;
  constexpr std::size_t kAttacked = 5;
  const SessionEngineConfig engine = armed_engine();
  const std::vector<std::vector<ItpBytes>> streams = fragmented_streams(64, kTicks, kAttacked);
  ScalarReplays replays(engine, streams);
  ArrivalPattern pattern;
  pattern.catch_up = true;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const std::vector<std::vector<ItpBytes>> used(
        streams.begin(), streams.begin() + static_cast<std::ptrdiff_t>(16 * shards));
    for (const bool threaded : {false, true}) {
      const std::string where =
          "shards=" + std::to_string(shards) + (threaded ? " threaded" : " inline");
      const auto run = run_fragmented(shards, threaded, used, engine, pattern);
      expect_matches_replay(run, used.size(), replays, where);
      // The scenario-A session was caught and stopped; no clean one was.
      for (std::size_t s = 0; s < used.size(); ++s) {
        const EndpointOutcome& got = run.at(ep(static_cast<std::uint16_t>(5000 + s)).to_string());
        EXPECT_EQ(got.ticks, kTicks) << where << " session " << s;
        EXPECT_EQ(got.estop, s == kAttacked) << where << " session " << s;
      }
    }
  }
}

TEST(Gateway, SessionClosedWithPlantPeriodDueLeavesOthersExact) {
  // The last session of the highest-id shard runs its shard's last round
  // of period 150, then goes silent and is evicted before any plant call
  // could take its due period.  Its verdicts stop at 151 ticks; every
  // other session carries on and must match its replay.
  constexpr std::size_t kTicks = 300;
  const SessionEngineConfig engine = armed_engine();
  ArrivalPattern pattern;
  pattern.close_after = 150;
  for (const std::size_t shards : {1u, 2u}) {
    const std::vector<std::vector<ItpBytes>> streams =
        fragmented_streams(16 * shards, kTicks, ~std::size_t{0});
    ScalarReplays replays(engine, streams);
    pattern.close = streams.size() - 1;
    for (const bool threaded : {false, true}) {
      const std::string where =
          "shards=" + std::to_string(shards) + (threaded ? " threaded" : " inline");
      const auto run = run_fragmented(shards, threaded, streams, engine, pattern);
      expect_matches_replay(run, streams.size(), replays, where);
      for (std::size_t s = 0; s < streams.size(); ++s) {
        const EndpointOutcome& got = run.at(ep(static_cast<std::uint16_t>(5000 + s)).to_string());
        EXPECT_EQ(got.ticks, s == pattern.close ? pattern.close_after + 1 : kTicks)
            << where << " session " << s;
      }
    }
  }
}

TEST(Gateway, FullShardsStepPlantPeriodsInFullCalls) {
  // With every shard holding 16 sessions, the 1/7/8 slices give verdict
  // rounds of every width, yet each deferred plant call fills all eight
  // lanes from the shard's due sessions.
  constexpr std::size_t kTicks = 120;
  const SessionEngineConfig engine = armed_engine();
  const auto hist = [](const char* name) {
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const obs::HistogramData* h = snap.histogram(name);
    return h == nullptr ? std::make_pair(std::uint64_t{0}, std::uint64_t{0})
                        : std::make_pair(h->count, h->sum);
  };
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const std::vector<std::vector<ItpBytes>> streams =
        fragmented_streams(16 * shards, kTicks, ~std::size_t{0});
    const auto plant_before = hist("rg.gw.plant.lanes");
    const auto round_before = hist("rg.gw.round.lanes");
    (void)run_fragmented(shards, false, streams, engine);
    const auto plant_after = hist("rg.gw.plant.lanes");
    const auto round_after = hist("rg.gw.round.lanes");
    const std::uint64_t calls = plant_after.first - plant_before.first;
    const std::uint64_t rounds = round_after.first - round_before.first;
    // Two full calls per shard per period after the first two periods.
    EXPECT_GE(calls, 2 * shards * (kTicks - 2)) << "shards=" << shards;
    EXPECT_EQ(plant_after.second - plant_before.second, kBatchLanes * calls)
        << "shards=" << shards;
    // The verdict rounds themselves ran well short of eight lanes.
    EXPECT_GT(rounds, calls) << "shards=" << shards;
  }
}

// --- E-STOP durability under state-plane backpressure ----------------------

TEST(Gateway, RefusedEstopLatchIsRetriedAfterRingDrains) {
  // A state-plane ring saturated with window notes refuses the E-STOP
  // latch a snapshot publish submits.  The gateway must not count that
  // latch as persisted: once the ring has room, the next publish submits
  // it again, so a crash after that flush restarts the session latched.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rg_test_gateway_estop_retry";
  std::filesystem::remove_all(dir);
  persist::StatePlaneConfig pc;
  pc.dir = dir.string();
  pc.ring_capacity = 8;
  pc.start_flusher = false;  // the ring only drains at flush_now()
  pc.journal_max_bytes = 1 << 20;
  auto opened = persist::StatePlane::open(pc);
  ASSERT_TRUE(opened.ok());
  persist::StatePlane& plane = *opened.value();
  {
    LoopbackTransport transport;
    GatewayConfig cfg = inline_config();
    cfg.engine = armed_engine();
    cfg.persist = &plane;
    cfg.stats_publish_period_ms = 0;  // publish only by hand
    TeleopGateway gateway(cfg, transport);

    // 1. The scenario-A stream latches E-STOP, and its window notes fill
    //    the ring behind the session's open.
    for (const ItpBytes& bytes : console_stream(4, 1400, true)) inject(transport, ep(6000), bytes);
    pump_all(gateway, transport, 1);
    const std::vector<SessionStats> sessions = gateway.sessions();
    ASSERT_EQ(sessions.size(), 1u);
    ASSERT_TRUE(sessions[0].shard.estop);
    const std::uint32_t id = sessions[0].id;
    const std::uint64_t dropped = plane.stats().ops_dropped;
    ASSERT_GT(dropped, 0u);

    // 2. The latch is refused on the full ring.
    gateway.publish_snapshot(2);
    EXPECT_EQ(plane.stats().ops_dropped, dropped + 1);
    plane.flush_now();
    ASSERT_EQ(plane.state().sessions.count(id), 1u);
    EXPECT_FALSE(plane.state().sessions.at(id).estop);

    // 3. The flush emptied the ring: the next publish retries the latch.
    gateway.publish_snapshot(3);
    plane.flush_now();
    // 4. Durable.
    EXPECT_TRUE(plane.state().sessions.at(id).estop);
    EXPECT_EQ(plane.stats().ops_dropped, dropped + 1);
    gateway.shutdown();
  }
  plane.stop();
  std::filesystem::remove_all(dir);
}

// --- streaming calibration: drift alarms + cohort sketch -------------------

TEST(Gateway, DriftAlarmsLatchCountAndEmitEvents) {
  std::vector<std::vector<ItpBytes>> streams;
  for (std::size_t s = 0; s < 3; ++s) streams.push_back(console_stream(s, 300));

  LoopbackTransport transport;
  obs::EventLog events;
  GatewayConfig cfg = inline_config();
  cfg.calibration.enabled = true;
  // A committed baseline no live traffic can satisfy: every session must
  // drift as soon as it clears the sample gate.
  cfg.calibration.committed.motor_vel = Vec3::filled(1.0e-12);
  cfg.calibration.committed.motor_acc = Vec3::filled(1.0e-12);
  cfg.calibration.committed.joint_vel = Vec3::filled(1.0e-12);
  cfg.calibration.min_samples = 16;
  cfg.events = &events;
  TeleopGateway gateway(cfg, transport);

  for (std::size_t t = 0; t < streams.front().size(); ++t) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      inject(transport, ep(static_cast<std::uint16_t>(2000 + s)), streams[s][t]);
    }
  }
  pump_all(gateway, transport, 1);
  (void)gateway.scan_drift_now(2);

  // Each session alarms exactly once (latched), however many scans ran.
  EXPECT_EQ(gateway.scan_drift_now(3), 0u);
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.drift_alarms, 3u);
  EXPECT_GT(stats.drift_checks, 0u);
  ASSERT_EQ(events.size(), 3u);
  for (const std::string& line : events.lines()) {
    EXPECT_NE(line.find("\"kind\": \"cal_drift\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"ratio\""), std::string::npos) << line;
  }
  gateway.shutdown();
}

TEST(Gateway, CohortSketchInvariantUnderShardCount) {
  std::vector<std::vector<ItpBytes>> streams;
  for (std::size_t s = 0; s < 5; ++s) streams.push_back(console_stream(s, 250));

  const auto cohort_digest = [&](std::size_t shards) {
    LoopbackTransport transport;
    GatewayConfig cfg = inline_config();
    cfg.shards = shards;
    cfg.calibration.enabled = true;
    // Generous baseline: no drift, we only exercise the sketches.
    cfg.calibration.committed.motor_vel = Vec3::filled(1.0e12);
    cfg.calibration.committed.motor_acc = Vec3::filled(1.0e12);
    cfg.calibration.committed.joint_vel = Vec3::filled(1.0e12);
    TeleopGateway gateway(cfg, transport);
    for (std::size_t t = 0; t < streams.front().size(); ++t) {
      for (std::size_t s = 0; s < streams.size(); ++s) {
        inject(transport, ep(static_cast<std::uint16_t>(3000 + s)), streams[s][t]);
      }
    }
    pump_all(gateway, transport, 1);
    const Result<ThresholdSketch> cohort = gateway.cohort_sketch();
    gateway.shutdown();
    return cohort;
  };

  const Result<ThresholdSketch> one = cohort_digest(1);
  const Result<ThresholdSketch> three = cohort_digest(3);
  const Result<ThresholdSketch> five = cohort_digest(5);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(three.ok());
  ASSERT_TRUE(five.ok());
  EXPECT_GT(one.value().count(), 0u);
  EXPECT_EQ(one.value().digest(), three.value().digest());
  EXPECT_EQ(one.value().digest(), five.value().digest());
}

TEST(Gateway, CohortSketchNotReadyWhenCalibrationOff) {
  LoopbackTransport transport;
  TeleopGateway gateway(inline_config(), transport);
  inject(transport, ep(4000), packet_with_sequence(1));
  pump_all(gateway, transport, 1);
  EXPECT_EQ(gateway.cohort_sketch().error().code(), ErrorCode::kNotReady);
  gateway.shutdown();
}

// --- threaded pump/stats concurrency (TSan coverage) -----------------------

TEST(Gateway, ConcurrentInjectPumpAndSnapshot) {
  LoopbackTransport transport;
  GatewayConfig cfg;
  cfg.shards = 2;
  cfg.threaded = true;
  cfg.idle_timeout_ms = 1u << 30;
  TeleopGateway gateway(cfg, transport);

  std::atomic<bool> stop{false};
  std::thread injector([&] {
    for (std::uint32_t s = 1; s <= 300; ++s) {
      for (std::uint16_t e = 1; e <= 4; ++e) inject(transport, ep(e), packet_with_sequence(s));
    }
  });
  std::thread reader([&] {
    while (!stop.load()) {
      (void)gateway.stats();
      (void)gateway.sessions();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::uint64_t now_ms = 1;
  injector.join();
  while (transport.pending() > 0) (void)gateway.pump(now_ms);
  gateway.drain();
  stop.store(true);
  reader.join();

  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.accepted, 1200u);
  EXPECT_EQ(stats.backpressure_dropped, 0u);
  std::uint64_t total_ticks = 0;
  for (const SessionStats& s : gateway.sessions()) total_ticks += s.shard.ticks;
  EXPECT_EQ(total_ticks, 1200u);
  gateway.shutdown();
}

// --- real socket smoke -----------------------------------------------------

TEST(GatewaySocket, RealUdpLoopbackSmoke) {
  UdpSocketConfig sc;
  sc.bind_address = "127.0.0.1";
  sc.port = 0;
  UdpSocketTransport transport(sc);
  ASSERT_GT(transport.bound_port(), 0);

  GatewayConfig cfg;
  cfg.shards = 2;
  cfg.threaded = true;
  TeleopGateway gateway(cfg, transport);

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(transport.bound_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  // rg-lint: allow(cast) -- BSD sockets API: sockaddr_in is the sockaddr it poses as
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);

  constexpr std::uint32_t kPackets = 20;
  for (std::uint32_t s = 1; s <= kPackets; ++s) {
    const ItpBytes bytes = packet_with_sequence(s);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  // One oversized datagram: dropped at the transport, never reaches ingest.
  const std::vector<std::uint8_t> oversized(100, 0xab);
  ASSERT_EQ(::send(fd, oversized.data(), oversized.size(), 0),
            static_cast<ssize_t>(oversized.size()));
  ::close(fd);

  // Loopback delivery is fast but asynchronous: pump with a deadline.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t now_ms = 1;
  while (gateway.stats().accepted < kPackets && std::chrono::steady_clock::now() < deadline) {
    if (gateway.pump(now_ms) == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gateway.drain();

  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.accepted, kPackets);
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(transport.oversize_datagrams(), 1u);
  const auto sessions = gateway.sessions();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].shard.ticks, kPackets);
  gateway.shutdown();
}

}  // namespace
}  // namespace rg::svc
