#include "layers.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <stdexcept>

#include "core/event_queue.h"
#include "core/mpsc_ring.h"
#include "ecc/fixed_base.h"
#include "ecc/ladder.h"
#include "engine/batch_verifier.h"
#include "engine/campaign_fixtures.h"
#include "engine/gateway.h"
#include "engine/shard.h"
#include "engine/transport.h"
#include "protocol/schnorr.h"
#include "protocol/wire.h"
#include "rng/xoshiro.h"
#include "stats.h"

namespace wirebench {

namespace {

using namespace medsec;
using Clock = std::chrono::steady_clock;
using engine::campaign::mix_seed;

constexpr int kReps = 5;
constexpr std::size_t kItems = 64;  ///< transcripts / gateway sessions per rep

template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over kReps repetitions of the mean cost of one call, in ns.
/// `rep()` makes `calls` calls on inputs the caller built beforehand.
template <typename Rep>
double per_call_ns(std::size_t calls, Rep&& rep) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    rep();
    v.push_back(ns_since(t0) / static_cast<double>(calls));
  }
  return median(v);
}

/// Server and device step time for one session of gid's protocol, driven
/// machine against machine with no transport between them.
std::pair<double, double> drive_protocol(const engine::campaign::Fixtures& fx,
                                         std::uint64_t gid,
                                         std::uint64_t seed) {
  rng::Xoshiro256 drng(mix_seed(seed, gid * 4));
  rng::Xoshiro256 srng(mix_seed(seed, gid * 4 + 1));
  auto dev = engine::campaign::device_factory(fx, gid)(drng);
  auto srv = engine::campaign::server_factory(fx, gid, gid % 4 == 0)(srng);
  double srv_ns = 0, dev_ns = 0;
  auto t0 = Clock::now();
  protocol::StepResult first = dev->start();
  dev_ns += ns_since(t0);
  std::deque<protocol::Message> up(first.out.begin(), first.out.end()), down;
  const auto deliver = [](protocol::SessionMachine& m,
                          std::deque<protocol::Message>& in,
                          std::deque<protocol::Message>& out, double& ns) {
    while (!in.empty()) {
      if (m.state() != protocol::SessionState::kAwait) {
        in.clear();
        return;
      }
      const protocol::Message msg = std::move(in.front());
      in.pop_front();
      const auto t = Clock::now();
      protocol::StepResult r = m.on_message(msg);
      ns += ns_since(t);
      for (auto& o : r.out) out.push_back(std::move(o));
    }
  };
  while (!up.empty() || !down.empty()) {
    deliver(*srv, up, down, srv_ns);
    deliver(*dev, down, up, dev_ns);
  }
  if (srv->state() != protocol::SessionState::kDone)
    throw std::runtime_error("protocol drive did not finish");
  return {srv_ns, dev_ns};
}

}  // namespace

LayerCosts measure_layers(const ecc::Curve& curve, const KeyPool& keys,
                          const RoundPlan& plan,
                          const std::vector<std::vector<std::uint8_t>>& recorded,
                          double observed_batch, std::uint64_t seed) {
  using ecc::Fe;
  if (plan.sessions < kItems)
    throw std::runtime_error("layer timing needs a plan of >= 64 sessions");
  LayerCosts c;
  rng::Xoshiro256 rng(mix_seed(seed, 0x1A7E25));
  const auto& ring = curve.scalar_ring();

  // --- gf2m: dependent chains -------------------------------------------
  {
    const auto random_fe = [&rng] {
      bigint::U192 v;
      v.set_limb(0, rng.next_u64());
      v.set_limb(1, rng.next_u64());
      v.set_limb(2, rng.next_u64() & 0x7);  // 163 bits
      v.set_limb(0, v.limb(0) | 1);         // nonzero
      return Fe::from_bits(v);
    };
    Fe a = random_fe();
    const Fe b = random_fe();
    constexpr std::size_t kChain = 100'000, kInvChain = 2'000;
    c.gf_mul_ns = per_call_ns(kChain, [&] {
      for (std::size_t i = 0; i < kChain; ++i) a = Fe::mul(a, b);
      keep(a);
    });
    c.gf_sqr_ns = per_call_ns(kChain, [&] {
      for (std::size_t i = 0; i < kChain; ++i) a = Fe::sqr(a);
      keep(a);
    });
    c.gf_inv_ns = per_call_ns(kInvChain, [&] {
      for (std::size_t i = 0; i < kInvChain; ++i) a = Fe::inv(a);
      keep(a);
    });
  }

  // --- captured commitments and honest transcripts ----------------------
  std::vector<std::vector<std::uint8_t>> wires(kItems);
  std::vector<ecc::Point> R(kItems), X(kItems);
  std::vector<protocol::SchnorrTranscript> tr(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    const auto f = engine::decode_frame({plan.commit_frame(i), plan.frame_len});
    wires[i] = f->payload;
    R[i] = *protocol::decode_point(curve, wires[i]);
    const auto& key = keys.of(plan.id_base + i);
    X[i] = key.X;
    const ecc::Scalar e = rng.uniform_nonzero(curve.order());
    tr[i] = {R[i], e, ring.add(plan.k[i], ring.mul(e, key.x))};
  }

  // --- ecc ----------------------------------------------------------------
  {
    constexpr std::size_t kMults = 32;
    std::vector<ecc::Scalar> ks(kMults);
    for (auto& k : ks) k = rng.uniform_nonzero(curve.order());
    c.ladder_us = 1e-3 * per_call_ns(kMults, [&] {
      for (std::size_t i = 0; i < kMults; ++i)
        keep(ecc::montgomery_ladder(curve, ks[i], R[i]));
    });
    const auto& comb = ecc::generator_comb(curve);
    c.comb_us = 1e-3 * per_call_ns(kMults, [&] {
      for (std::size_t i = 0; i < kMults; ++i) keep(comb.mult_ct(ks[i]));
    });
    c.decode_point_us = 1e-3 * per_call_ns(kItems, [&] {
      for (std::size_t i = 0; i < kItems; ++i)
        keep(protocol::decode_point(curve, wires[i]));
    });
  }

  // --- engine batch verifier ----------------------------------------------
  {
    const auto check = [](const engine::BatchVerifyOutcome& o) {
      for (const bool ok : o.ok)
        if (!ok) throw std::runtime_error("honest transcript rejected");
    };
    c.verify_b1_us = 1e-3 * per_call_ns(kItems, [&] {
      for (std::size_t i = 0; i < kItems; ++i)
        check(engine::schnorr_verify_batch(curve, {&tr[i], 1}, {&X[i], 1}, rng));
    });
    c.verify_b64_us = 1e-3 * per_call_ns(kItems, [&] {
      check(engine::schnorr_verify_batch(curve, tr, X, rng));
    });
    const auto batch = static_cast<std::size_t>(
        std::clamp(observed_batch + 0.5, 1.0, static_cast<double>(kItems)));
    engine::SchnorrBatchVerifier v(curve, batch, seed);
    std::size_t accepted = 0;
    c.verify_observed_us = 1e-3 * per_call_ns(kItems, [&] {
      for (std::size_t i = 0; i < kItems; ++i) {
        engine::PendingTranscript t;
        t.session = plan.id_base + i;
        t.X = X[i];
        t.commitment_wire = wires[i];
        t.challenge = tr[i].challenge;
        t.response = tr[i].response;
        t.on_result = [&accepted](bool ok) { accepted += ok ? 1 : 0; };
        v.enqueue(std::move(t));
      }
      v.flush();
    });
    if (accepted != kReps * kItems)
      throw std::runtime_error("batch verifier rejected an honest transcript");
  }

  // --- protocol machines ----------------------------------------------------
  {
    const engine::campaign::Fixtures fx = engine::campaign::make_fixtures(seed);
    constexpr std::size_t kPerProtocol = 8;
    for (std::size_t p = 0; p < 4; ++p) {
      std::vector<double> srv, dev;
      for (std::size_t j = 1; j <= kPerProtocol; ++j) {
        const auto [s, d] = drive_protocol(fx, 4 * j + p, seed);
        srv.push_back(s);
        dev.push_back(d);
      }
      c.server_step_us[p] = 1e-3 * median(srv);
      c.device_step_us[p] = 1e-3 * median(dev);
    }
  }

  // --- engine transport: frame codec ----------------------------------------
  {
    std::vector<std::vector<std::uint8_t>> bytes = recorded;
    for (std::size_t i = 0; i < kItems; ++i)
      bytes.emplace_back(plan.commit_frame(i), plan.commit_frame(i) + plan.frame_len);
    std::vector<engine::Frame> frames;
    for (const auto& b : bytes)
      if (auto f = engine::decode_frame(b)) frames.push_back(std::move(*f));
    constexpr std::size_t kCodec = 20'000;
    std::vector<std::uint8_t> out;
    c.encode_ns = per_call_ns(kCodec, [&] {
      for (std::size_t i = 0; i < kCodec; ++i) {
        engine::encode_frame_into(frames[i % frames.size()], out);
        keep(out);
      }
    });
    c.decode_ns = per_call_ns(kCodec, [&] {
      for (std::size_t i = 0; i < kCodec; ++i)
        keep(engine::decode_frame(bytes[i % bytes.size()]));
    });
  }

  // --- engine gateway: uplink, snapshot, restore ------------------------------
  {
    std::vector<double> up, snap, rest;
    const auto judge = [](const protocol::SessionMachine&) { return true; };
    const auto drop = [](std::vector<std::uint8_t>) {};
    const auto machine = [&](std::uint64_t id,
                             std::unique_ptr<rng::Xoshiro256>& r) {
      r = std::make_unique<rng::Xoshiro256>(mix_seed(seed, id));
      return std::make_unique<protocol::SchnorrVerifier>(
          curve, keys.of(id).X, *r,
          protocol::SchnorrVerifier::Mode::kDeferred);
    };
    for (int rep = 0; rep < kReps; ++rep) {
      core::EventQueue q;
      engine::GatewayServer gw(q, seed, {});
      std::vector<std::vector<std::uint8_t>> frames(kItems);
      for (std::size_t i = 0; i < kItems; ++i) {
        const std::uint64_t id = plan.id_base + i;
        std::unique_ptr<rng::Xoshiro256> r;
        auto m = machine(id, r);
        gw.open_session(id, std::move(m), drop, judge, std::move(r));
        frames[i].assign(plan.commit_frame(i), plan.commit_frame(i) + plan.frame_len);
      }
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < kItems; ++i)
        gw.on_uplink(plan.id_base + i, std::move(frames[i]));
      up.push_back(ns_since(t0) / kItems);

      std::vector<std::vector<std::uint8_t>> snaps(kItems);
      t0 = Clock::now();
      for (std::size_t i = 0; i < kItems; ++i)
        snaps[i] = gw.snapshot_session(plan.id_base + i);
      snap.push_back(ns_since(t0) / kItems);

      core::EventQueue q2;
      engine::GatewayServer gw2(q2, seed, {});
      std::vector<std::unique_ptr<protocol::SchnorrVerifier>> ms(kItems);
      std::vector<std::unique_ptr<rng::Xoshiro256>> rs(kItems);
      for (std::size_t i = 0; i < kItems; ++i)
        ms[i] = machine(plan.id_base + i, rs[i]);
      t0 = Clock::now();
      for (std::size_t i = 0; i < kItems; ++i)
        gw2.restore_session(plan.id_base + i, std::move(ms[i]), drop, snaps[i],
                            judge, std::move(rs[i]));
      rest.push_back(ns_since(t0) / kItems);
    }
    c.uplink_us = 1e-3 * median(up);
    c.snapshot_us = 1e-3 * median(snap);
    c.restore_us = 1e-3 * median(rest);
  }

  // --- core mailbox: MpscRing round trip of an IngressItem -------------------
  {
    core::MpscRing<engine::IngressItem> ring_(1, 1024);
    engine::IngressItem item;
    item.session = plan.id_base;
    item.bytes.assign(plan.commit_frame(0), plan.commit_frame(0) + plan.frame_len);
    constexpr std::size_t kTrips = 200'000;
    c.push_pop_ns = per_call_ns(kTrips, [&] {
      for (std::size_t i = 0; i < kTrips; ++i) {
        ring_.try_push(0, std::move(item));
        ring_.try_pop(item);
      }
      keep(item);
    });
    if (item.bytes.size() != plan.frame_len)
      throw std::runtime_error("mailbox round trip lost the item");
  }
  return c;
}

}  // namespace wirebench
