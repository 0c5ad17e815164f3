#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "ecc/fixed_base.h"
#include "engine/net.h"
#include "engine/transport.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"

namespace wirebench {

namespace {

using namespace medsec;

constexpr std::size_t kBatch = 64;   ///< datagrams per sendmmsg/recvmmsg
constexpr std::size_t kSlot = 512;   ///< bytes per datagram buffer
constexpr std::size_t kChains = 64;  ///< independent commitment chains
/// Client patience before it repeats its own data frame. Far above any
/// healthy loopback latency: a retransmit here means the gateway lost or
/// refused to answer a frame, which the round then reports.
constexpr double kRtoUs = 200'000.0;
constexpr unsigned kMaxRetries = 6;
constexpr double kScanUs = 10'000.0;
constexpr double kSampleUs = 1'000.0;
constexpr std::size_t kRecord = 256;
/// A round that has not settled after this long is cut; its open
/// sessions count as failed.
constexpr double kRoundLimitUs = 20e6;

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  a.sin_port = htons(port);
  return a;
}

/// Batched datagram output. Pre-encoded frames are queued by pointer
/// (they must outlive the next flush); frames built on the fly are copied
/// into a slot arena.
class Outbox {
 public:
  /// `fd` must be connected to the gateway: sends carry no address.
  explicit Outbox(int fd) : fd_(fd) {}

  void add(const std::uint8_t* p, std::size_t n) {
    if (n_ == kBatch) flush();
    iov_[n_] = iovec{const_cast<std::uint8_t*>(p), n};
    ++n_;
  }
  void add_copy(const std::vector<std::uint8_t>& bytes) {
    if (n_ == kBatch) flush();
    std::uint8_t* slot = arena_.data() + n_ * kSlot;
    const std::size_t n = std::min(bytes.size(), kSlot);
    std::memcpy(slot, bytes.data(), n);
    iov_[n_] = iovec{slot, n};
    ++n_;
  }

  void flush() {
    std::size_t done = 0;
    unsigned spins = 0;
    while (done < n_) {
      for (std::size_t i = done; i < n_; ++i) {
        msgs_[i] = mmsghdr{};
        msgs_[i].msg_hdr.msg_iov = &iov_[i];
        msgs_[i].msg_hdr.msg_iovlen = 1;
      }
      const int k = ::sendmmsg(fd_, msgs_.data() + done,
                               static_cast<unsigned>(n_ - done), 0);
      if (k > 0) {
        done += static_cast<std::size_t>(k);
        continue;
      }
      // Full socket buffer: wait for room briefly; after that the frames
      // are dropped like any lost datagram and the ARQ repeats them.
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && spins++ < 100) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 1);
        continue;
      }
      break;
    }
    n_ = 0;
  }

 private:
  int fd_;
  std::array<mmsghdr, kBatch> msgs_{};
  std::array<iovec, kBatch> iov_{};
  std::vector<std::uint8_t> arena_ = std::vector<std::uint8_t>(kBatch * kSlot);
  std::size_t n_ = 0;
};

/// Batched datagram input: one recvmmsg fills up to kBatch slots.
class Inbox {
 public:
  Inbox() {
    for (std::size_t i = 0; i < kBatch; ++i)
      iov_[i] = iovec{arena_.data() + i * kSlot, kSlot};
  }
  std::size_t receive(int fd) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      msgs_[i] = mmsghdr{};
      msgs_[i].msg_hdr.msg_iov = &iov_[i];
      msgs_[i].msg_hdr.msg_iovlen = 1;
    }
    const int k = ::recvmmsg(fd, msgs_.data(), kBatch, MSG_DONTWAIT, nullptr);
    return k > 0 ? static_cast<std::size_t>(k) : 0;
  }
  std::span<const std::uint8_t> datagram(std::size_t i) const {
    return {arena_.data() + i * kSlot, msgs_[i].msg_len};
  }

 private:
  std::array<mmsghdr, kBatch> msgs_{};
  std::array<iovec, kBatch> iov_{};
  std::vector<std::uint8_t> arena_ = std::vector<std::uint8_t>(kBatch * kSlot);
};

/// e·x mod n by Montgomery multiplication with R = 2^192 (CIOS, three
/// 64-bit limbs): mul(e, x·R mod n) = e·x mod n. The library's ModRing
/// reduces by long division (~2.7 µs per product on the reference host),
/// which would make the response the client's largest user-space cost:
/// with ModRing::mul the client took 0.46-0.48 of a core on udp_saturate
/// there (0.36 with this), too close to the 0.5 the run allows it.
class ScalarMont {
 public:
  explicit ScalarMont(const ecc::Curve& curve) : n_(curve.order()) {
    std::uint64_t inv = n_.limb(0);  // Newton: inv = n0^-1 mod 2^64
    for (int i = 0; i < 6; ++i) inv *= 2 - n_.limb(0) * inv;
    n_prime_ = 0 - inv;
    const auto& ring = curve.scalar_ring();
    r_mod_n_ = ecc::Scalar(1);
    for (int i = 0; i < 192; ++i) r_mod_n_ = ring.add(r_mod_n_, r_mod_n_);
  }

  ecc::Scalar to_mont(const ecc::Curve& curve, const ecc::Scalar& x) const {
    return curve.scalar_ring().mul(x, r_mod_n_);
  }

  /// a·b·R^-1 mod n for a < R, b < n.
  ecc::Scalar mul(const ecc::Scalar& a, const ecc::Scalar& b) const {
    using u128 = unsigned __int128;
    std::uint64_t t[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < 3; ++i) {
      u128 c = 0;
      for (std::size_t j = 0; j < 3; ++j) {
        c += static_cast<u128>(a.limb(j)) * b.limb(i) + t[j];
        t[j] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      c += t[3];
      t[3] = static_cast<std::uint64_t>(c);
      t[4] = static_cast<std::uint64_t>(c >> 64);
      const std::uint64_t m = t[0] * n_prime_;
      c = static_cast<u128>(m) * n_.limb(0) + t[0];
      c >>= 64;
      for (std::size_t j = 1; j < 3; ++j) {
        c += static_cast<u128>(m) * n_.limb(j) + t[j];
        t[j - 1] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      c += t[3];
      t[2] = static_cast<std::uint64_t>(c);
      t[3] = t[4] + static_cast<std::uint64_t>(c >> 64);
    }
    ecc::Scalar r;
    for (std::size_t j = 0; j < 3; ++j) r.set_limb(j, t[j]);
    if (t[3] != 0 || !(r < n_)) r.sub_in_place(n_);
    return r;
  }

 private:
  ecc::Scalar n_;
  ecc::Scalar r_mod_n_;
  std::uint64_t n_prime_ = 0;
};

std::vector<std::uint8_t> frame_bytes(engine::FrameType type,
                                      std::uint64_t session,
                                      std::uint32_t seq, const char* label,
                                      std::vector<std::uint8_t> payload) {
  engine::Frame f;
  f.type = type;
  f.session = session;
  f.seq = seq;
  f.label = label;
  f.payload = std::move(payload);
  return engine::encode_frame(f);
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

double steal_share_since(double steal0, double wall_s) {
  const double cpus = static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  return wall_s > 0 ? (steal_s() - steal0) / (cpus * wall_s) : 0.0;
}

KeyPool make_key_pool(const ecc::Curve& curve, std::uint64_t seed,
                      std::size_t n) {
  rng::Xoshiro256 rng(seed);
  const ScalarMont mont(curve);
  KeyPool pool;
  pool.keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.keys.push_back(protocol::schnorr_keygen(curve, rng));
    pool.x_mont.push_back(mont.to_mont(curve, pool.keys.back().x));
  }
  // The client's arithmetic must agree with the library's.
  const auto& ring = curve.scalar_ring();
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 4); ++i) {
    const ecc::Scalar e = rng.uniform_nonzero(curve.order());
    if (!(mont.mul(e, pool.x_mont[i]) == ring.mul(e, pool.keys[i].x)))
      throw std::runtime_error("Montgomery product disagrees with ModRing");
  }
  return pool;
}

RoundPlan make_round_plan(const ecc::Curve& curve, std::uint64_t seed,
                          std::uint64_t id_base, std::size_t sessions,
                          std::size_t forge_every) {
  // Distinct commitments without one comb multiplication each: kChains
  // chains start at random k_c·G and step by a random D = d·G in
  // López–Dahab coordinates (no inversion per step); one shared batch
  // inversion then brings the whole round to compressed wire form, using
  // x = X/Z and y/x = Y/(X·Z).
  using ecc::Fe;
  rng::Xoshiro256 rng(seed);
  const auto& comb = ecc::generator_comb(curve);
  const auto& ring = curve.scalar_ring();
  const ecc::Scalar d = rng.uniform_nonzero(curve.order());
  const ecc::Point D = comb.mult(d);
  std::vector<ecc::Scalar> kc(kChains);
  std::vector<ecc::LdPoint> cur(kChains);
  for (std::size_t c = 0; c < kChains; ++c) {
    kc[c] = rng.uniform_nonzero(curve.order());
    cur[c] = ecc::LdPoint::from_affine(comb.mult(kc[c]));
  }

  RoundPlan plan;
  plan.id_base = id_base;
  plan.sessions = sessions;
  plan.k.resize(sessions);
  plan.forged.assign(sessions, 0);
  std::vector<ecc::LdPoint> pts(sessions);
  std::vector<Fe> inv(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    const std::size_t c = i % kChains;
    pts[i] = cur[c];
    plan.k[i] = kc[c];
    cur[c] = ecc::ld_add_affine(curve, cur[c], D);
    kc[c] = ring.add(kc[c], d);
    if (pts[i].X.is_zero() || pts[i].Z.is_zero())
      throw std::runtime_error("commitment chain hit a degenerate point");
    inv[i] = Fe::mul(pts[i].X, pts[i].Z);
    if (forge_every != 0 && i % forge_every == forge_every - 1)
      plan.forged[i] = 1;
  }
  Fe::batch_inv(inv.data(), sessions);

  for (std::size_t i = 0; i < sessions; ++i) {
    const Fe x = Fe::mul(Fe::sqr(pts[i].X), inv[i]);
    const bool y_bit = Fe::mul(pts[i].Y, inv[i]).bit(0);
    std::vector<std::uint8_t> wire;
    wire.reserve(1 + protocol::kFeBytes);
    wire.push_back(static_cast<std::uint8_t>(0x02 | (y_bit ? 1 : 0)));
    const auto xb = protocol::encode_fe(x);
    wire.insert(wire.end(), xb.begin(), xb.end());
    const auto bytes = frame_bytes(engine::FrameType::kData, id_base + i, 0,
                                   "commitment R", std::move(wire));
    if (i == 0) {
      plan.frame_len = bytes.size();
      plan.commit_frames.resize(sessions * plan.frame_len);
    }
    if (bytes.size() != plan.frame_len)
      throw std::runtime_error("commitment frames differ in length");
    std::memcpy(plan.commit_frames.data() + i * plan.frame_len, bytes.data(),
                bytes.size());
  }

  // The chain arithmetic must agree with the library's own encoder.
  for (std::size_t i = 0; i < std::min<std::size_t>(sessions, 2); ++i) {
    const auto f = engine::decode_frame(
        {plan.commit_frame(i), plan.frame_len});
    if (!f || f->payload != protocol::encode_point(curve, comb.mult(plan.k[i])))
      throw std::runtime_error("precomputed commitment does not match k·G");
  }
  return plan;
}

RoundResult run_round(const ecc::Curve& curve, const KeyPool& keys,
                      std::uint16_t port, const RoundPlan& plan,
                      const ClientConfig& config) {
  enum : std::uint8_t { kIdle, kCommitted, kResponded, kSettled };
  struct Sess {
    double last_tx_us = 0.0;
    ecc::Scalar response;
    std::uint32_t live_pos = 0;
    std::uint8_t state = kIdle;
    std::uint8_t retries = 0;
  };

  engine::UdpSocket sock;
  std::optional<engine::UdpSocket> spoofer;
  if (config.hostile) spoofer.emplace();
  const engine::Peer server{0x7F000001, port};
  // A connected socket: the kernel resolves the route once, not per send.
  const sockaddr_in to = loopback(port);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&to), sizeof to) != 0)
    throw std::runtime_error("client socket: connect() failed");
  Outbox out(sock.fd());
  Inbox in;
  const auto& ring = curve.scalar_ring();
  const ScalarMont mont(curve);
  const std::size_t n = plan.sessions;
  const bool open_loop = config.window == 0;

  RoundResult r;
  r.attempted = n;
  r.outcome.assign(n, 0);
  // Per session, µs from round start; NaN until it happens.
  std::vector<double> sent_us(n, std::nan("")), done_us(n, std::nan(""));
  std::vector<Sess> ss(n);
  std::vector<std::uint32_t> live;
  std::vector<std::size_t> spoof_live;
  std::uint64_t fresh_id = (1ULL << 62) | plan.id_base;

  const auto t0 = std::chrono::steady_clock::now();
  const auto now_us = [&t0] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  const auto queue_response = [&](std::size_t i) {
    const std::uint64_t id = plan.id_base + i;
    out.add_copy(frame_bytes(engine::FrameType::kData, id, 1, "response s",
                             protocol::encode_scalar(ss[i].response)));
  };
  const auto queue_ack = [&](std::size_t i) {
    out.add_copy(frame_bytes(engine::FrameType::kAck, plan.id_base + i, 1,
                             "", {}));
  };
  const auto settle = [&](std::size_t i) {
    Sess& s = ss[i];
    s.state = kSettled;
    const std::uint32_t last = live.back();
    live[s.live_pos] = last;
    ss[last].live_pos = s.live_pos;
    live.pop_back();
  };
  const auto corrupt_frame = [&](std::size_t i, std::uint64_t id) {
    auto f = engine::decode_frame({plan.commit_frame(i), plan.frame_len});
    f->session = id;
    std::vector<std::uint8_t> bytes = engine::encode_frame(*f);
    bytes[bytes.size() - 6] ^= 0xFF;  // payload byte: the CRC no longer holds
    return bytes;
  };
  const auto open = [&](std::size_t i, double now) {
    Sess& s = ss[i];
    sent_us[i] = now;
    s.last_tx_us = now;
    s.state = kCommitted;
    s.live_pos = static_cast<std::uint32_t>(live.size());
    live.push_back(static_cast<std::uint32_t>(i));
    out.add(plan.commit_frame(i), plan.frame_len);
    if (!spoofer) return;
    if (i % 400 == 199) spoof_live.push_back(i);
    if (i % 200 == 0) {
      static const std::uint8_t junk[4] = {0xDE, 0xAD, 0xBE, 0xEF};
      spoofer->send_to(server, junk);
    }
    if (i % 200 == 100) {
      spoofer->send_to(server, corrupt_frame(i, fresh_id++));
    }
  };
  const auto drain_spoofer = [&] {
    if (!spoofer) return;
    std::vector<std::uint8_t> buf;
    engine::Peer from;
    while (spoofer->recv_from(buf, from)) ++r.offpath_downlinks;
  };

  Window win;
  std::vector<double> win_end_us;
  double win_start = 0.0, win_cpu = process_cpu_s(), win_client = thread_cpu_s();
  double win_steal = steal_s();
  const auto close_window = [&](double now) {
    const double cpu = process_cpu_s(), client = thread_cpu_s();
    win.seconds = (now - win_start) * 1e-6;
    win.process_cpu_s = cpu - win_cpu;
    win.client_cpu_s = client - win_client;
    win.rss_mb = current_rss_mb();
    win.steal_share = steal_share_since(win_steal, win.seconds);
    r.windows.push_back(win);
    win = Window{};
    win_end_us.push_back(now);
    win_start = now;
    win_cpu = cpu;
    win_client = client;
    win_steal = steal_s();
  };

  std::size_t next = 0, settled = 0;
  double next_scan = kScanUs, next_sample = 0.0;
  while (settled < n) {
    double now = now_us();
    if (now > kRoundLimitUs) break;

    if (open_loop) {
      while (next < n && plan.due_us[next] <= now) open(next++, now);
    } else {
      while (next < n && live.size() < config.window) open(next++, now);
    }
    out.flush();
    // Off-path copies of a live id go out after the honest commitment.
    for (const std::size_t i : spoof_live)
      spoofer->send_to(server, corrupt_frame(i, plan.id_base + i));
    spoof_live.clear();

    std::size_t got = 0;
    for (std::size_t k; (k = in.receive(sock.fd())) > 0;) {
      got += k;
      now = now_us();
      for (std::size_t j = 0; j < k; ++j) {
        const auto dg = in.datagram(j);
        if (r.recorded.size() < kRecord) r.recorded.emplace_back(dg.begin(), dg.end());
        const auto sid = engine::peek_frame_session(dg);
        if (!sid || *sid < plan.id_base || *sid - plan.id_base >= n) continue;
        const std::size_t i = static_cast<std::size_t>(*sid - plan.id_base);
        Sess& s = ss[i];
        if (s.state != kCommitted && s.state != kResponded) continue;
        const auto f = engine::decode_frame(dg);
        if (!f) continue;
        switch (f->type) {
          case engine::FrameType::kData: {
            if (f->seq != 0 || std::strcmp(f->label, "challenge e") != 0) break;
            if (s.state == kCommitted) {
              const std::uint64_t id = plan.id_base + i;
              const ecc::Scalar e = protocol::decode_scalar(f->payload);
              // A forger answers with a stale key: a well-formed response
              // the verifier must reject.
              const std::size_t key = (plan.forged[i] ? id + 1 : id) % keys.keys.size();
              s.response = ring.add(plan.k[i], mont.mul(e, keys.x_mont[key]));
              s.state = kResponded;
              s.retries = 0;
              s.last_tx_us = now;
              queue_ack(i);
              queue_response(i);
            } else {
              queue_ack(i);  // the gateway repeated the challenge: re-ack
            }
            break;
          }
          case engine::FrameType::kAck:
            if (f->seq >= 2 && s.state == kResponded) {
              done_us[i] = now;
              ++win.completed;
              r.outcome[i] = RoundResult::kCompleted;
              ++settled;
              settle(i);
            }
            break;
          case engine::FrameType::kReject:
            r.outcome[i] = RoundResult::kRefused;
            ++settled;
            settle(i);
            break;
        }
      }
      out.flush();
    }

    if (now >= next_scan) {
      next_scan = now + kScanUs;
      for (std::size_t p = 0; p < live.size();) {
        const std::size_t i = live[p];
        Sess& s = ss[i];
        const double rto = kRtoUs * static_cast<double>(1u << std::min<unsigned>(s.retries, 3));
        if (now - s.last_tx_us < rto) {
          ++p;
          continue;
        }
        if (s.retries >= kMaxRetries) {
          ++settled;
          settle(i);  // moves another session into slot p
          continue;
        }
        ++s.retries;
        ++r.retransmits;
        s.last_tx_us = now;
        if (s.state == kCommitted)
          out.add(plan.commit_frame(i), plan.frame_len);
        else
          queue_response(i);
        ++p;
      }
      out.flush();
      drain_spoofer();
    }
    if (now - win_start >= 1e3 * kWindowMs) close_window(now);
    if (now >= next_sample) {
      next_sample = now + kSampleUs;
      r.backlog.push_back(static_cast<double>(live.size()));
    }

    if (got == 0) {
      double wait_us = next_scan - now;
      if (open_loop && next < n) wait_us = std::min(wait_us, plan.due_us[next] - now);
      if (!open_loop && next < n && live.size() < config.window) wait_us = 0;
      if (wait_us > 0) {
        pollfd p{sock.fd(), POLLIN, 0};
        const auto ns = static_cast<long>(wait_us * 1000.0);
        const timespec ts{ns / 1'000'000'000L, ns % 1'000'000'000L};
        ::ppoll(&p, 1, &ts, nullptr);
      }
    }
  }

  // Latency counts from when each session was due (open loop) or sent
  // (closed loop); each completed session lands in the window it
  // completed in.
  std::vector<double> due, sent, done;
  for (std::size_t i = 0; i < n; ++i) {
    if (r.outcome[i] != RoundResult::kCompleted) continue;
    due.push_back(open_loop ? plan.due_us[i] : sent_us[i]);
    sent.push_back(sent_us[i]);
    done.push_back(done_us[i]);
  }
  OpenLoopAccount acct = account_open_loop(due, sent, done);
  std::vector<std::vector<double>> by_window(r.windows.size());
  for (std::size_t j = 0; j < done.size(); ++j) {
    const auto k = static_cast<std::size_t>(
        std::lower_bound(win_end_us.begin(), win_end_us.end(), done[j]) - win_end_us.begin());
    if (k < by_window.size()) by_window[k].push_back(acct.latency_us[j]);
  }
  for (std::size_t k = 0; k < r.windows.size(); ++k)
    r.windows[k].latency_us = summarize(std::move(by_window[k]));
  if (open_loop) r.lateness_us = std::move(acct.lateness_us);
  drain_spoofer();
  return r;
}

}  // namespace wirebench
