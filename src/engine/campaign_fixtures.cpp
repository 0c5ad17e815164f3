#include "engine/campaign_fixtures.h"

#include "ciphers/aes128.h"

namespace medsec::engine {

namespace campaign {

Fixtures make_fixtures(const ecc::Curve& curve, std::uint64_t rng_seed) {
  rng::Xoshiro256 rng(rng_seed);
  Fixtures fx{curve,
              protocol::schnorr_keygen(curve, rng),
              protocol::ph_setup_reader(curve, rng),
              {},
              {},
              [](std::span<const std::uint8_t> key) {
                return std::unique_ptr<ciphers::BlockCipher>(
                    new ciphers::Aes128(key));
              },
              {},
              {}};
  fx.ph_tag = protocol::ph_register_tag(curve, fx.ph_reader, rng);
  std::vector<std::uint8_t> master(32);
  rng.fill(master);
  fx.keys = protocol::derive_session_keys(master, 16);
  fx.ecies_key = protocol::ecies_keygen(curve, rng);
  fx.telemetry.resize(48);
  rng.fill(fx.telemetry);
  return fx;
}

Fixtures make_fixtures(std::uint64_t seed) {
  return make_fixtures(ecc::Curve::k163(), mix_seed(seed, 0xF177));
}

/// The protocol mix: session gid runs protocol gid % 4.
MachineFactory device_factory(const Fixtures& fx, std::uint64_t gid) {
  switch (gid % 4) {
    case 0:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::SchnorrProver(fx.curve, fx.schnorr_key, r));
      };
    case 1:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::PhTagMachine(fx.curve, fx.ph_tag, r));
      };
    case 2:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::MutualAuthTag(fx.make_cipher, fx.keys,
                                        fx.telemetry, r));
      };
    default:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::EciesUploader(fx.curve, fx.ecies_key.Y,
                                        fx.telemetry, fx.make_cipher, 16,
                                        r));
      };
  }
}

MachineFactory server_factory(const Fixtures& fx, std::uint64_t gid,
                              bool deferred_schnorr) {
  switch (gid % 4) {
    case 0:
      return [&fx, deferred_schnorr](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::SchnorrVerifier(
                fx.curve, fx.schnorr_key.X, r,
                deferred_schnorr
                    ? protocol::SchnorrVerifier::Mode::kDeferred
                    : protocol::SchnorrVerifier::Mode::kInline));
      };
    case 1:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::PhReaderMachine(fx.curve, fx.ph_reader, r));
      };
    case 2:
      return [&fx](rng::RandomSource& r) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::MutualAuthServer(fx.make_cipher, fx.keys, r));
      };
    default:
      return [&fx](rng::RandomSource&) {
        return std::unique_ptr<protocol::SessionMachine>(
            new protocol::EciesReceiver(fx.curve, fx.ecies_key.y,
                                        fx.make_cipher, 16));
      };
  }
}

GatewayServer::Judge judge_for(std::uint64_t gid) {
  switch (gid % 4) {
    case 0:
      return [](const protocol::SessionMachine& m) {
        return static_cast<const protocol::SchnorrVerifier&>(m).accepted();
      };
    case 1:
      return [](const protocol::SessionMachine& m) {
        return static_cast<const protocol::PhReaderMachine&>(m)
            .identity()
            .has_value();
      };
    case 2:
      return [](const protocol::SessionMachine& m) {
        const auto& s = static_cast<const protocol::MutualAuthServer&>(m);
        return s.accepted_tag() && s.telemetry_delivered();
      };
    default:
      return [](const protocol::SessionMachine& m) {
        return static_cast<const protocol::EciesReceiver&>(m).delivered();
      };
  }
}

SessionFactory session_factory(const Fixtures& fx, std::uint64_t seed) {
  return [&fx, seed](std::uint64_t gid) {
    SessionSetup s;
    s.rng = std::make_unique<rng::Xoshiro256>(mix_seed(seed, gid * 4 + 1));
    s.deferred_schnorr = gid % 4 == 0;
    s.machine = server_factory(fx, gid, s.deferred_schnorr)(*s.rng);
    s.judge = judge_for(gid);
    return s;
  };
}

}  // namespace campaign

}  // namespace medsec::engine
