// itp_loadgen: multi-threaded ITP load generator for the teleoperation
// gateway.
//
// Opens one UDP socket per simulated console (distinct source port =>
// distinct gateway session), generates ITP packets from master-console
// trajectories at a configurable per-session rate, and can salt the
// stream with client-side loss and an attack mix (replayed datagrams,
// bit-flipped payloads, undefined flag bits) to exercise the gateway's
// ingest classification.
//
//   itp_loadgen --port 7413 --sessions 64 --rate 1000 --duration 2
//   itp_loadgen --port 7413 --sessions 8 --burst --attack-mix 0.05
//
// Rejoin mode drives the gateway-restart story (docs/persistence.md):
// at --rejoin-at the senders pause (the harness SIGKILLs and restarts
// the gateway against the same --state-dir during the gap), replay the
// last --rejoin-replay recorded datagrams per session verbatim — the
// restored anti-replay windows must reject every one — then skip the
// consoles --rejoin-skip ticks forward (a real console's sequence is
// clocked, so a pause advances it past the rejoin guard) and resume
// paced traffic into the restored sessions:
//
//   itp_loadgen --port 7413 --sessions 8 --rejoin-at 500
//     --rejoin-pause-ms 1500 --rejoin-replay 32 --rejoin-skip 512

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "defense/mac.hpp"
#include "net/itp_packet.hpp"
#include "net/master_console.hpp"
#include "svc/session.hpp"
#include "trajectory/trajectory.hpp"

namespace {

using namespace rg;

/// Upper bound on --batch: one stack-allocated mmsghdr array per flush.
constexpr std::size_t kMaxSendBatch = 64;

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  std::uint32_t port = 0;
  std::uint32_t sessions = 8;
  std::uint32_t threads = 0;  // 0 = min(sessions, hardware_concurrency)
  std::uint32_t batch = 1;    // ticks coalesced into one sendmmsg per session
  double rate = 1000.0;
  double duration = 2.0;
  double loss = 0.0;
  double attack_mix = 0.0;
  bool burst = false;
  bool mac = false;
  std::uint64_t mac_seed = 7;
  std::uint64_t seed = 1;
  std::uint64_t rejoin_at = 0;       // tick index to pause at (0 = no rejoin)
  std::uint32_t rejoin_pause_ms = 1000;
  std::uint32_t rejoin_replay = 0;   // recorded frames replayed per session
  std::uint32_t rejoin_skip = 0;     // console ticks skipped across the pause
};

struct Totals {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> dropped{0};   // client-side simulated loss
  std::atomic<std::uint64_t> replayed{0};
  std::atomic<std::uint64_t> flipped{0};
  std::atomic<std::uint64_t> garbled{0};
  std::atomic<std::uint64_t> send_errors{0};
  std::atomic<std::uint64_t> late_sends{0};  // pacing points a full window behind
  std::atomic<std::uint64_t> max_late_ns{0};
  std::atomic<std::uint64_t> rejoin_replayed{0};  // pre-pause frames re-sent verbatim
};

struct PendingFrame {
  std::uint8_t bytes[64];
  std::size_t len = 0;
};

struct ClientSession {
  int fd = -1;
  std::unique_ptr<MasterConsole> console;
  Pcg32 rng;
  std::vector<std::uint8_t> last_frame;
  std::uint32_t attack_rotor = 0;
  /// Rejoin mode: ring of the last --rejoin-replay frames that hit the
  /// wire, replayed verbatim after the gateway restart.
  std::vector<PendingFrame> sent_ring;
  std::size_t sent_pos = 0;
  std::uint64_t sent_count = 0;

  ClientSession() : rng(1) {}
  ~ClientSession() {
    if (fd >= 0) ::close(fd);
  }
};

std::uint8_t xor_checksum(const std::uint8_t* bytes, std::size_t n) {
  std::uint8_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c = static_cast<std::uint8_t>(c ^ bytes[i]);
  return c;
}

/// One frame for this tick: encoded ITP, attack transform, optional MAC
/// seal.  Tampering happens *after* the seal so a MAC-protected link
/// rejects it at the tag check, as a real in-network attacker would be.
std::vector<std::uint8_t> build_frame(ClientSession& cs, const LoadgenOptions& opt,
                                      const MacKey& key, Totals& totals) {
  const ItpPacket pkt = cs.console->tick();
  ItpBytes itp = encode_itp(pkt);

  std::vector<std::uint8_t> frame;
  if (opt.mac) {
    const svc::MacFrameBytes sealed = svc::seal_itp_frame(itp, key);
    frame.assign(sealed.begin(), sealed.end());
  } else {
    frame.assign(itp.begin(), itp.end());
  }

  if (opt.attack_mix > 0.0 && cs.rng.uniform() < opt.attack_mix) {
    switch (cs.attack_rotor++ % 3) {
      case 0:  // replay the previous datagram verbatim
        if (!cs.last_frame.empty()) {
          totals.replayed.fetch_add(1, std::memory_order_relaxed);
          return cs.last_frame;
        }
        break;
      case 1:  // bit-flip mid-payload (checksum/MAC should catch it)
        frame[10] = static_cast<std::uint8_t>(frame[10] ^ 0x40);
        totals.flipped.fetch_add(1, std::memory_order_relaxed);
        break;
      default:  // undefined flag bits, checksum fixed up to match
        frame[4] = static_cast<std::uint8_t>(frame[4] | 0x20);
        frame[kItpPacketSize - 1] = xor_checksum(frame.data(), kItpPacketSize - 1);
        totals.garbled.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  cs.last_frame = frame;
  return frame;
}

/// Flush up to kMaxSendBatch queued frames on one connected socket.  On
/// Linux this is a single sendmmsg; kernels without it (ENOSYS) and
/// other platforms fall back to per-datagram send.
void flush_frames(int fd, PendingFrame* frames, std::size_t count, Totals& totals) {
  std::size_t done = 0;
#if defined(__linux__)
  mmsghdr msgs[kMaxSendBatch];
  iovec iovs[kMaxSendBatch];
  std::memset(msgs, 0, sizeof(mmsghdr) * count);
  for (std::size_t i = 0; i < count; ++i) {
    iovs[i].iov_base = frames[i].bytes;
    iovs[i].iov_len = frames[i].len;
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  while (done < count) {
    const int sent = ::sendmmsg(fd, msgs + done, static_cast<unsigned>(count - done), 0);
    if (sent < 0) {
      if (errno == ENOSYS) break;  // per-datagram fallback below
      totals.send_errors.fetch_add(count - done, std::memory_order_relaxed);
      return;
    }
    totals.sent.fetch_add(static_cast<std::uint64_t>(sent), std::memory_order_relaxed);
    done += static_cast<std::size_t>(sent);
  }
#endif
  for (std::size_t i = done; i < count; ++i) {
    if (::send(fd, frames[i].bytes, frames[i].len, 0) < 0) {
      totals.send_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      totals.sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

/// Rejoin pause for one worker's sessions: wait out the gateway restart,
/// replay the recorded pre-pause frames verbatim (oldest first), then
/// advance every console --rejoin-skip ticks as its clocked sequence
/// would have during the gap.
void rejoin_pause(std::vector<ClientSession*>& sessions, const LoadgenOptions& opt,
                  Totals& totals) {
  std::this_thread::sleep_for(std::chrono::milliseconds(opt.rejoin_pause_ms));
  for (ClientSession* cs : sessions) {
    const std::size_t have =
        std::min<std::uint64_t>(cs->sent_count, cs->sent_ring.size());
    const bool wrapped = cs->sent_count > cs->sent_ring.size();
    for (std::size_t i = 0; i < have; i += kMaxSendBatch) {
      PendingFrame replay[kMaxSendBatch];
      std::size_t n = 0;
      for (; n < kMaxSendBatch && i + n < have; ++n) {
        // Oldest-first: once wrapped, the write cursor is the oldest slot.
        const std::size_t at =
            wrapped ? (cs->sent_pos + i + n) % cs->sent_ring.size() : i + n;
        replay[n] = cs->sent_ring[at];
      }
      flush_frames(cs->fd, replay, n, totals);
      totals.rejoin_replayed.fetch_add(n, std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < opt.rejoin_skip; ++i) (void)cs->console->tick();
  }
}

void run_worker(std::vector<ClientSession*> sessions, const LoadgenOptions& opt,
                const MacKey& key, std::uint64_t ticks, Totals& totals) {
  const std::size_t batch = std::clamp<std::size_t>(opt.batch, 1, kMaxSendBatch);
  std::vector<PendingFrame> pending(batch);
  const auto t0 = std::chrono::steady_clock::now();
  // Every deadline is derived from t0 and the absolute tick index, so
  // per-period integer rounding cannot accumulate into schedule drift
  // over long runs (the old `t0 + trunc(1e9/rate) * tick` form ran fast
  // by up to 1 ns/tick — seconds of skew across a million-tick soak).
  const double tick_ns = 1.0e9 / opt.rate;
  std::uint64_t local_late = 0;
  std::int64_t local_max_late = 0;
  bool rejoined = false;
  // Rejoin shifts every later deadline by the realized pause, so the
  // resumed stream is paced (not a catch-up burst) and late accounting
  // stays meaningful.
  std::chrono::nanoseconds pause_shift{0};
  for (std::uint64_t tick = 0; tick < ticks; tick += batch) {
    const std::uint64_t window = std::min<std::uint64_t>(batch, ticks - tick);
    if (opt.rejoin_at > 0 && !rejoined && tick >= opt.rejoin_at) {
      rejoined = true;
      rejoin_pause(sessions, opt, totals);
      const auto nominal =
          t0 + std::chrono::nanoseconds(
                   static_cast<std::int64_t>(static_cast<double>(tick) * tick_ns));
      pause_shift = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - nominal);
      if (pause_shift.count() < 0) pause_shift = std::chrono::nanoseconds{0};
    }
    if (!opt.burst) {
      const auto deadline =
          t0 + pause_shift +
          std::chrono::nanoseconds(
              static_cast<std::int64_t>(static_cast<double>(tick) * tick_ns));
      std::this_thread::sleep_until(deadline);
      const std::int64_t late_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                               deadline)
              .count();
      local_max_late = std::max(local_max_late, late_ns);
      // "Late" = the wakeup slipped past this pacing point's whole
      // window, i.e. the next batch was already due before this one hit
      // the wire.
      if (static_cast<double>(late_ns) >= tick_ns * static_cast<double>(window)) ++local_late;
    }
    for (ClientSession* cs : sessions) {
      std::size_t queued = 0;
      for (std::uint64_t k = 0; k < window; ++k) {
        const std::vector<std::uint8_t> frame = build_frame(*cs, opt, key, totals);
        if (opt.loss > 0.0 && cs->rng.uniform() < opt.loss) {
          totals.dropped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        PendingFrame& slot = pending[queued++];
        slot.len = std::min(frame.size(), sizeof slot.bytes);
        std::memcpy(slot.bytes, frame.data(), slot.len);
        if (!rejoined && !cs->sent_ring.empty()) {
          cs->sent_ring[cs->sent_pos] = slot;
          cs->sent_pos = (cs->sent_pos + 1) % cs->sent_ring.size();
          ++cs->sent_count;
        }
      }
      flush_frames(cs->fd, pending.data(), queued, totals);
    }
  }
  totals.late_sends.fetch_add(local_late, std::memory_order_relaxed);
  const auto mine = static_cast<std::uint64_t>(std::max<std::int64_t>(local_max_late, 0));
  std::uint64_t observed = totals.max_late_ns.load(std::memory_order_relaxed);
  while (mine > observed &&
         !totals.max_late_ns.compare_exchange_weak(observed, mine, std::memory_order_relaxed)) {
  }
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions opt;
  std::string out_json;

  FlagSet flags;
  flags.value("--host", &opt.host, "gateway host (default 127.0.0.1)");
  flags.value("--port", &opt.port, "gateway UDP port (required)");
  flags.value("--sessions", &opt.sessions, "concurrent console sessions");
  flags.value("--threads", &opt.threads, "sender threads (0 = auto)");
  flags.value("--batch", &opt.batch,
              "ticks coalesced into one sendmmsg per session (1-64, default 1)");
  flags.value("--rate", &opt.rate, "per-session packet rate, Hz (default 1000)");
  flags.value("--duration", &opt.duration, "seconds of traffic per session");
  flags.value("--loss", &opt.loss, "client-side drop probability [0,1]");
  flags.value("--attack-mix", &opt.attack_mix, "fraction of packets attacked [0,1]");
  flags.flag("--burst", &opt.burst, "no pacing: send as fast as possible");
  flags.flag("--mac", &opt.mac, "seal frames with the SipHash MAC");
  flags.value("--mac-seed", &opt.mac_seed, "MAC key seed (must match the gateway)");
  flags.value("--seed", &opt.seed, "base RNG seed");
  flags.value("--rejoin-at", &opt.rejoin_at,
              "pause at this tick for a gateway restart (0 = no rejoin)");
  flags.value("--rejoin-pause-ms", &opt.rejoin_pause_ms,
              "restart window to wait out (default 1000)");
  flags.value("--rejoin-replay", &opt.rejoin_replay,
              "recorded frames to replay per session after the pause");
  flags.value("--rejoin-skip", &opt.rejoin_skip,
              "console ticks skipped across the pause (clears the rejoin guard)");
  flags.value("--out", &out_json, "write a rg.loadgen/1 JSON summary here");
  if (const Status st = flags.parse(argc, argv, 1); !st.ok()) {
    std::fprintf(stderr, "%s\n\nusage: itp_loadgen [options]\n%s",
                 st.error().to_string().c_str(), flags.help().c_str());
    return 1;
  }
  if (opt.port == 0 || opt.port > 65535 || opt.sessions == 0 || opt.rate <= 0.0) {
    std::fprintf(stderr, "itp_loadgen: --port, --sessions and --rate must be positive\n%s",
                 flags.help().c_str());
    return 1;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
  if (inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "itp_loadgen: bad host %s\n", opt.host.c_str());
    return 1;
  }

  // One connected socket + console per session; distinct source ports key
  // distinct gateway sessions.
  std::vector<std::unique_ptr<ClientSession>> sessions;
  sessions.reserve(opt.sessions);
  for (std::uint32_t i = 0; i < opt.sessions; ++i) {
    auto cs = std::make_unique<ClientSession>();
    cs->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    // rg-lint: allow(cast) -- BSD sockets API: sockaddr_in is the sockaddr it poses as
    if (cs->fd < 0 || ::connect(cs->fd, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) != 0) {
      std::perror("itp_loadgen: socket/connect");
      return 1;
    }
    auto trajectory = std::make_shared<CircleTrajectory>(
        Position{0.09, 0.0, -0.11}, 0.010 + 0.0001 * static_cast<double>(i % 16), 2.5, 1.0e9);
    cs->console = std::make_unique<MasterConsole>(std::move(trajectory),
                                                  PedalSchedule::hold_from(kPedalAfterHomingSec));
    cs->rng = Pcg32(opt.seed * 0x9e3779b97f4a7c15ULL + i);
    if (opt.rejoin_at > 0 && opt.rejoin_replay > 0) cs->sent_ring.resize(opt.rejoin_replay);
    sessions.push_back(std::move(cs));
  }

  const std::uint32_t hw = std::max(1U, std::thread::hardware_concurrency());
  const std::uint32_t threads =
      opt.threads > 0 ? opt.threads : std::min(opt.sessions, std::min(hw, 8U));
  const auto ticks = static_cast<std::uint64_t>(opt.duration * opt.rate);
  const MacKey key = MacKey::from_seed(opt.mac_seed);

  Totals totals;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    std::vector<ClientSession*> mine;
    for (std::uint32_t i = t; i < opt.sessions; i += threads) mine.push_back(sessions[i].get());
    pool.emplace_back(run_worker, std::move(mine), std::cref(opt), std::cref(key),
                      ticks, std::ref(totals));
  }
  for (std::thread& th : pool) th.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const std::uint64_t sent = totals.sent.load();
  std::printf(
      "itp_loadgen: %u sessions x %llu ticks in %.3f s — sent %llu, dropped %llu, "
      "replayed %llu, flipped %llu, garbled %llu, errors %llu\n",
      opt.sessions, static_cast<unsigned long long>(ticks), elapsed,
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(totals.dropped.load()),
      static_cast<unsigned long long>(totals.replayed.load()),
      static_cast<unsigned long long>(totals.flipped.load()),
      static_cast<unsigned long long>(totals.garbled.load()),
      static_cast<unsigned long long>(totals.send_errors.load()));
  if (!opt.burst) {
    std::printf("itp_loadgen: pacing batch %u, late sends %llu, max late %.3f ms\n", opt.batch,
                static_cast<unsigned long long>(totals.late_sends.load()),
                static_cast<double>(totals.max_late_ns.load()) / 1.0e6);
  }
  if (opt.rejoin_at > 0) {
    std::printf("itp_loadgen: rejoin at tick %llu (paused %u ms) — replayed %llu, skipped %u\n",
                static_cast<unsigned long long>(opt.rejoin_at), opt.rejoin_pause_ms,
                static_cast<unsigned long long>(totals.rejoin_replayed.load()),
                opt.rejoin_skip);
  }

  if (!out_json.empty()) {
    std::ofstream os(out_json);
    os << "{\n  \"schema\": \"rg.loadgen/1\",\n"
       << "  \"sessions\": " << opt.sessions << ",\n  \"ticks\": " << ticks << ",\n"
       << "  \"elapsed_sec\": " << elapsed << ",\n  \"sent\": " << sent << ",\n"
       << "  \"dropped\": " << totals.dropped.load() << ",\n"
       << "  \"replayed\": " << totals.replayed.load() << ",\n"
       << "  \"flipped\": " << totals.flipped.load() << ",\n"
       << "  \"garbled\": " << totals.garbled.load() << ",\n"
       << "  \"send_errors\": " << totals.send_errors.load() << ",\n"
       << "  \"batch\": " << opt.batch << ",\n"
       << "  \"late_sends\": " << totals.late_sends.load() << ",\n"
       << "  \"max_late_ns\": " << totals.max_late_ns.load() << ",\n"
       << "  \"rejoin_at\": " << opt.rejoin_at << ",\n"
       << "  \"rejoin_replayed\": " << totals.rejoin_replayed.load() << "\n}\n";
  }
  return 0;
}
