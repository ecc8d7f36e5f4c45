#include "workloads.hpp"

#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

#include "emc/crypto/dh.hpp"
#include "emc/crypto/provider.hpp"
#include "emc/keys/handshake.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/mpi/comm.hpp"
#include "emc/mpi/reduce.hpp"
#include "emc/mpi/world.hpp"
#include "emc/nas/nas.hpp"
#include "emc/netsim/wan.hpp"
#include "emc/reliable/reliable.hpp"
#include "emc/secure_mpi/secure_comm.hpp"
#include "emc/trace/export.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

using namespace emc;

constexpr std::size_t kMaxReported = 8;

std::uint64_t msg_key(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                      std::uint64_t c) {
  return mix64(mix64(mix64(seed ^ a) ^ b) ^ c);
}

/// Seeded Fisher-Yates: the seed orders a fixed multiset, so the total
/// work of a repetition does not depend on it.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    seed = mix64(seed);
    std::swap(v[i - 1], v[seed % i]);
  }
}

/// Paper-anchored analytic crypto timing per provider tier: per-byte
/// costs from the enc+dec throughputs of the paper's Fig. 2 at 2 MB,
/// per-op costs from its small-buffer latencies (the constants the
/// repository's traced benchmark runs use).
secure::CryptoCostModel nominal_cost_model(const std::string& provider) {
  double mbps = 1381.0;
  double per_op = 0.3e-6;
  if (provider == "libsodium-sim") {
    mbps = 583.0;
    per_op = 0.4e-6;
  } else if (provider == "cryptopp-sim") {
    mbps = 273.0;
    per_op = 1.5e-6;
  }
  secure::CryptoCostModel m;
  m.seal_per_op = m.open_per_op = per_op;
  m.seal_per_byte = m.open_per_byte = 1.0 / (2.0 * mbps * 1e6);
  return m;
}

secure::SecureConfig secure_config(const std::string& provider) {
  secure::SecureConfig c;
  c.provider = provider;
  c.key = crypto::demo_key(32);
  c.nonce_mode = secure::NonceMode::kCounter;
  c.bind_context = true;
  c.cost_model = nominal_cost_model(provider);
  return c;
}

void fold_secure(const secure::CryptoCounters& c, bool chunked,
                 const std::string& provider, RepResult& r) {
  auto& l = r.layer;
  l["secure_mpi.chunks_sealed"] += static_cast<double>(c.chunks_sealed);
  l["secure_mpi.nacks_sent"] += static_cast<double>(c.nacks_sent);
  l["secure_mpi.duplicates_suppressed"] +=
      static_cast<double>(c.duplicates_suppressed);
  l["secure_mpi.replays_rejected"] += static_cast<double>(c.replays_rejected);
  l["secure_mpi.auth_failures"] += static_cast<double>(c.auth_failures);
  l["secure_mpi.pipeline_stall_virt_s"] += c.pipeline_stall_seconds;
  l["keys.catchup_opens"] += static_cast<double>(c.catchup_opens);
  l["keys.grace_opens"] += static_cast<double>(c.grace_opens);
  const double bytes = static_cast<double>(c.bytes_sealed + c.bytes_opened);
  l["crypto.bytes"] += bytes;
  // Host-measured (not exact): kept out of the digest by the prefix.
  l["host.crypto_measured_s"] += c.seal_seconds + c.open_seconds;
  // Pipelined chunks record no host crypto time; the driver prices
  // their bytes with the provider probe instead.
  if (chunked) l["host.crypto_unmeasured_bytes." + provider] += bytes;
}

/// Runs one world and folds its engine, ARQ and fault counters into
/// @p r. Only encrypted worlds count as the workload's work; the plain
/// twin contributes its makespan.
void run_world(mpi::WorldConfig config, bool encrypted, bool traced,
               std::uint64_t salt, RepResult& r,
               const std::function<void(mpi::Comm&)>& body) {
  const int n = config.cluster.total_ranks();
  std::shared_ptr<trace::TraceRecorder> rec;
  if (traced && encrypted) {
    rec = std::make_shared<trace::TraceRecorder>(trace::Config{}, n);
    config.trace = rec;
  }
  Span world_span(Layer::kWorld);
  if (SpanLog* log = SpanLog::active()) log->set_world_span(world_span.index());
  std::vector<double> cpu(static_cast<std::size_t>(n), 0.0);
  double makespan = 0.0;
  const double t0 = wall_now_s();
  {
    mpi::World world(config);
    world.engine().set_tiebreak_salt(salt);
    try {
      makespan = world.run([&](mpi::Comm& comm) {
        const double c0 = thread_cpu_s();
        body(comm);
        cpu[static_cast<std::size_t>(comm.rank())] = thread_cpu_s() - c0;
      });
      r.check(true, "");
    } catch (const std::exception& e) {
      r.check(false, e.what());
    }
    if (encrypted) {
      auto& l = r.layer;
      l["sim.events"] +=
          static_cast<double>(world.engine().scheduled_events());
      if (const reliable::Channel* ch = world.reliability()) {
        const reliable::ReliabilityStats& s = ch->stats();
        l["reliable.data_frames"] += static_cast<double>(s.data_frames);
        l["reliable.deliveries"] += static_cast<double>(s.deliveries);
        l["reliable.retransmits"] += static_cast<double>(s.retransmits);
        l["reliable.spurious_retransmits"] +=
            static_cast<double>(s.spurious_retransmits);
        l["reliable.window_stalls"] += static_cast<double>(s.window_stalls);
      }
      std::vector<const net::FaultInjector*> injectors;
      if (const net::FaultInjector* f = world.fabric().faults()) {
        injectors.push_back(f);
      }
      for (const net::LinkSpec& link : config.cluster.links) {
        if (const net::FaultInjector* f =
                world.fabric().faults_for_hop(link.src_node, link.dst_node)) {
          injectors.push_back(f);
        }
      }
      for (const net::FaultInjector* f : injectors) {
        l["netsim.faults.dropped"] += static_cast<double>(f->stats().dropped);
        l["netsim.faults.corrupted"] +=
            static_cast<double>(f->stats().corrupted);
      }
    }
  }
  const double wall = wall_now_s() - t0;
  if (encrypted) {
    r.virt_makespan_s += makespan;
    r.wall_s += wall;
    for (const double c : cpu) r.rank_cpu_s += c;
    ++r.enc_worlds;
  } else {
    r.plain_makespan_s += makespan;
    ++r.plain_worlds;
  }
  if (rec) {
    Span span(Layer::kTrace);
    const trace::SummaryRow agg = trace::Summary::from(*rec).aggregate();
    for (std::size_t c = 0; c < trace::kNumCategories; ++c) {
      r.virt[c] += agg.seconds[c];
    }
    r.virt[trace::kNumCategories] += agg.idle;
  }
}

/// Digest of every exact output: makespans, latency samples in order,
/// message and byte counts, and the counters (host.* excluded). Then
/// reduces the latency samples to their count and percentiles.
void finalize(RepResult& r) {
  Digest d;
  d.add(r.virt_makespan_s);
  d.add(r.plain_makespan_s);
  d.add(r.app_msgs);
  d.add(r.app_bytes);
  d.add(static_cast<std::uint64_t>(r.latencies.size()));
  for (const double v : r.latencies) d.add(v);
  for (const auto& [name, value] : r.layer) {
    if (name.rfind("host.", 0) == 0) continue;
    for (const char ch : name) d.add(static_cast<std::uint64_t>(ch));
    d.add(value);
  }
  r.digest = d.value();
  r.lat_samples = r.latencies.size();
  r.lat_p50_s = percentile(r.latencies, 0.50);
  r.lat_p99_s = percentile(r.latencies, 0.99);
  std::vector<double>().swap(r.latencies);
}

/// Receive-side check of one stamped message: content and length, and
/// the one-way latency sample.
void check_stamped(const PayloadPool& pool, std::uint64_t key, BytesView buf,
                   const mpi::Status& st, double now,
                   std::vector<double>& lat, RepResult& r) {
  double sent = 0.0;
  const bool ok = st.bytes == buf.size() && pool.check(key, buf, &sent) &&
                  sent >= 0.0 && sent <= now;
  r.check(ok, "payload mismatch");
  if (ok) lat.push_back(now - sent);
}

// ------------------------------------------------------------ smallmsg_64r

/// 8 nodes x 8 ranks on 10 GbE: every round an intra-node ring
/// sendrecv, a cross-node sendrecv and an 8-byte allreduce, and every
/// 8th round a 16 B-per-peer alltoall. Message sizes are a seeded
/// order of a fixed multiset around 64 B.
class SmallMsg final : public Workload {
 public:
  SmallMsg(std::uint64_t seed, bool smoke)
      : seed_(seed), rounds_(smoke ? 8 : 12) {}

  int ranks() const override { return kNodes * kPerNode; }

  void setup() override {
    pool_ = std::make_unique<PayloadPool>(seed_, std::size_t{1} << 16);
    sizes_.clear();
    for (int i = 0; i < rounds_; ++i) {
      sizes_.push_back(48 + 8 * static_cast<std::size_t>(i % 5));
    }
    shuffle(sizes_, seed_ ^ 0x51e5ULL);
    expected_.assign(static_cast<std::size_t>(rounds_), 0);
    for (int round = 0; round < rounds_; ++round) {
      for (int rank = 0; rank < ranks(); ++rank) {
        expected_[static_cast<std::size_t>(round)] += contribution(rank, round);
      }
    }
  }

  RepResult run(bool traced) override {
    RepResult r;
    mpi::WorldConfig config;
    config.cluster.num_nodes = kNodes;
    config.cluster.ranks_per_node = kPerNode;
    const secure::SecureConfig scfg = secure_config("boringssl-sim");
    Tally tally;
    run_world(config, true, traced, 0, r, [&](mpi::Comm& plain) {
      secure::SecureComm sc(plain, scfg);
      TimedComm tc(sc, Layer::kSecureMpi, tally, plain.process());
      traffic(tc, plain.process(), r.latencies, r);
      fold_secure(sc.counters(), false, scfg.provider, r);
    });
    Tally plain_tally;
    std::vector<double> plain_lat;
    run_world(config, false, traced, 0, r, [&](mpi::Comm& plain) {
      TimedComm tc(plain, Layer::kMpi, plain_tally, plain.process());
      traffic(tc, plain.process(), plain_lat, r);
    });
    r.app_msgs = tally.msgs;
    r.app_bytes = tally.bytes;
    finalize(r);
    return r;
  }

 private:
  static constexpr int kNodes = 8;
  static constexpr int kPerNode = 8;
  static constexpr std::size_t kBlock = 16;

  std::uint64_t contribution(int rank, int round) const {
    return msg_key(seed_, 7, static_cast<std::uint64_t>(rank),
                   static_cast<std::uint64_t>(round));
  }
  std::uint64_t key(int kind, int src, int round, int dst = 0) const {
    return msg_key(seed_, static_cast<std::uint64_t>(kind),
                   (static_cast<std::uint64_t>(src) << 16) |
                       static_cast<std::uint64_t>(dst),
                   static_cast<std::uint64_t>(round));
  }

  void exchange(mpi::Communicator& comm, const sim::Process& proc, int kind,
                int dst, int src, int round, std::size_t len,
                std::vector<double>& lat, RepResult& r) const {
    Bytes out(len);
    Bytes in(len);
    pool_->fill(key(kind, comm.rank(), round), proc.now(), out);
    const mpi::Status st = comm.sendrecv(out, dst, kind, in, src, kind);
    check_stamped(*pool_, key(kind, src, round), in, st, proc.now(), lat, r);
  }

  void traffic(mpi::Communicator& comm, const sim::Process& proc,
               std::vector<double>& lat, RepResult& r) const {
    const int rank = comm.rank();
    const int node = rank / kPerNode;
    const int local = rank % kPerNode;
    const int n = comm.size();
    for (int round = 0; round < rounds_; ++round) {
      const std::size_t len = sizes_[static_cast<std::size_t>(round)];
      exchange(comm, proc, 1, node * kPerNode + (local + 1) % kPerNode,
               node * kPerNode + (local + kPerNode - 1) % kPerNode, round, len,
               lat, r);
      exchange(comm, proc, 2, ((node + 1) % kNodes) * kPerNode + local,
               ((node + kNodes - 1) % kNodes) * kPerNode + local, round, len,
               lat, r);
      const std::uint64_t sum =
          mpi::allreduce_sum<std::uint64_t>(comm, contribution(rank, round));
      r.check(sum == expected_[static_cast<std::size_t>(round)],
              "allreduce sum mismatch");
      if (round % 8 == 7) {
        Bytes out(kBlock * static_cast<std::size_t>(n));
        Bytes in(out.size());
        for (int p = 0; p < n; ++p) {
          const BytesView w = pool_->window(key(3, rank, round, p), kBlock);
          std::memcpy(out.data() + kBlock * static_cast<std::size_t>(p),
                      w.data(), kBlock);
        }
        comm.alltoall(out, in, kBlock);
        bool ok = true;
        for (int p = 0; p < n; ++p) {
          const BytesView w = pool_->window(key(3, p, round, rank), kBlock);
          const std::uint8_t* got =
              in.data() + kBlock * static_cast<std::size_t>(p);
          ok = ok && std::memcmp(got, w.data(), kBlock) == 0;
        }
        r.check(ok, "alltoall block mismatch");
      }
    }
  }

  std::uint64_t seed_;
  int rounds_;
  std::unique_ptr<PayloadPool> pool_;
  std::vector<std::size_t> sizes_;
  std::vector<std::uint64_t> expected_;
};

// ----------------------------------------------------------------- bulk_2r

/// Two single-rank nodes on QDR InfiniBand: ~1 MiB and ~4 MiB
/// ping-pongs under each provider tier, serial and pipelined, plus the
/// unencrypted twin. Sizes are 1 MiB / 4 MiB minus a seeded multiple
/// of 8 bytes below 512, so every seed does (almost) the same work.
class Bulk final : public Workload {
 public:
  Bulk(std::uint64_t seed, bool smoke)
      : seed_(seed), small_(smoke ? 1 : 4), large_(smoke ? 0 : 1) {}

  int ranks() const override { return 2; }

  void setup() override {
    constexpr std::size_t kMiB = std::size_t{1} << 20;
    pool_ = std::make_unique<PayloadPool>(seed_, 4 * kMiB + 4096);
    sizes_.clear();
    for (int i = 0; i < small_ + large_; ++i) {
      const std::size_t base = i < small_ ? kMiB : 4 * kMiB;
      const std::uint64_t k =
          msg_key(seed_, 11, static_cast<std::uint64_t>(i), 0);
      sizes_.push_back(base - 8 * static_cast<std::size_t>(k % 64));
    }
    // Known-answer self-test (key schedule, seal, open) of every tier.
    for (const std::string& tier : crypto_tiers()) {
      if (!crypto::self_test(crypto::provider(tier))) {
        throw std::runtime_error("provider self-test failed: " + tier);
      }
    }
  }

  RepResult run(bool traced) override {
    RepResult r;
    mpi::WorldConfig config;
    config.cluster.num_nodes = 2;
    config.cluster.ranks_per_node = 1;
    config.cluster.inter = net::infiniband_qdr_40g();
    Tally tally;
    for (const std::string& tier : crypto_tiers()) {
      for (const bool pipelined : {false, true}) {
        secure::SecureConfig scfg = secure_config(tier);
        scfg.pipeline.enabled = pipelined;
        run_world(config, true, traced, 0, r, [&](mpi::Comm& plain) {
          secure::SecureComm sc(plain, scfg);
          TimedComm tc(sc, Layer::kSecureMpi, tally, plain.process());
          traffic(tc, plain.process(), r.latencies, r);
          fold_secure(sc.counters(), pipelined, tier, r);
          r.check(!pipelined || sc.counters().messages_pipelined ==
                                    static_cast<std::uint64_t>(small_ + large_),
                  "pipeline did not engage");
        });
      }
    }
    Tally plain_tally;
    std::vector<double> plain_lat;
    run_world(config, false, traced, 0, r, [&](mpi::Comm& plain) {
      TimedComm tc(plain, Layer::kMpi, plain_tally, plain.process());
      traffic(tc, plain.process(), plain_lat, r);
    });
    r.app_msgs = tally.msgs;
    r.app_bytes = tally.bytes;
    finalize(r);
    return r;
  }

 private:
  void traffic(mpi::Communicator& comm, const sim::Process& proc,
               std::vector<double>& lat, RepResult& r) const {
    for (std::size_t i = 0; i < sizes_.size(); ++i) {
      const std::uint64_t k = msg_key(seed_, 12, i, 0);
      const int tag = static_cast<int>(i);
      Bytes buf(sizes_[i]);
      if (comm.rank() == 0) {
        pool_->fill(k, proc.now(), buf);
        comm.send(buf, 1, tag);
        const mpi::Status st = comm.recv(buf, 1, tag);
        check_stamped(*pool_, k, buf, st, proc.now(), lat, r);
      } else {
        const mpi::Status st = comm.recv(buf, 0, tag);
        check_stamped(*pool_, k, buf, st, proc.now(), lat, r);
        PayloadPool::restamp(proc.now(), buf);
        comm.send(buf, 0, tag);
      }
    }
  }

  std::uint64_t seed_;
  int small_;
  int large_;
  std::unique_ptr<PayloadPool> pool_;
  std::vector<std::size_t> sizes_;
};

// ------------------------------------------------------------- hostile_wan

/// Four single-rank nodes on lossy metro WAN links (15 % drop, 2 %
/// corruption, jitter) with the adaptive ARQ. Pair (0,1) is direct;
/// pair (2,3) is routed through node 1 as a hop-trusted relay. Setup
/// runs the DH link handshakes under loss; the traffic then seals under
/// per-link keyrings whose small seal budget forces mid-run ratchets.
class HostileWan final : public Workload {
 public:
  HostileWan(std::uint64_t seed, bool smoke)
      : seed_(seed), round_trips_(smoke ? 12 : 3000) {}

  int ranks() const override { return 4; }

  void setup() override {
    pool_ = std::make_unique<PayloadPool>(seed_, std::size_t{1} << 16);
    sizes_.clear();
    for (int i = 0; i < round_trips_; ++i) {
      sizes_.push_back(i % 4 == 3 ? kLarge : kSmall);
    }
    shuffle(sizes_, seed_ ^ 0x4a11ULL);

    // The group is a fixed parameter, not an input: its prime search
    // time must not vary with the seed.
    const crypto::DhGroup group = crypto::generate_test_group(192, 42);
    keys::HandshakeConfig hs;
    hs.seed = mix64(seed_ ^ 0x4853ULL);
    hs.max_attempts = 25;
    // The initiator stops answering duplicate ACCEPTs once its line has
    // been quiet for backoff_max + 2 * recv_timeout. With the default
    // ladder two lost ACCEPTs in a row end that linger while the
    // responder still retries, and the responder then fails closed
    // (15 % drop, seed 3). A long ladder keeps ~7 consecutive losses
    // inside the window.
    hs.backoff_max = 8.0;
    mpi::WorldConfig config = world_config(/*corrupt=*/false);
    config.reliability.enabled = false;  // the handshake retries itself
    config.recv_timeout = 0.25;
    chains_.assign(4, Bytes{});
    handshake_attempts_ = 0;
    handshake_ok_ = true;
    mpi::World world(config);
    world.run([&](mpi::Comm& comm) {
      Span span(Layer::kKeys, comm.rank());
      try {
        const keys::HandshakeResult res =
            keys::link_handshake(comm, peer(comm.rank()), group, hs);
        chains_[static_cast<std::size_t>(comm.rank())] = res.chain;
        handshake_attempts_ += res.attempts;
      } catch (const keys::HandshakeFailed&) {
        handshake_ok_ = false;
      }
    });
    handshake_ok_ = handshake_ok_ && chains_[0] == chains_[1] &&
                    chains_[2] == chains_[3] && !chains_[0].empty() &&
                    !chains_[2].empty();
  }

  RepResult run(bool traced) override {
    RepResult r;
    r.check(handshake_ok_, "link handshake failed or chains disagree");
    r.layer["keys.handshake_attempts"] =
        static_cast<double>(handshake_attempts_);
    const mpi::WorldConfig config = world_config(/*corrupt=*/true);
    Tally tally;
    run_world(config, true, traced, 0, r, [&](mpi::Comm& plain) {
      const int rank = plain.rank();
      keys::RatchetConfig ratchet;
      auto ring = std::make_shared<keys::LinkKeyring>("boringssl-sim", 32,
                                                      ratchet);
      {
        Span span(Layer::kKeys, rank);
        ring->install(peer(rank), chains_[static_cast<std::size_t>(rank)],
                      plain.now());
      }
      secure::SecureConfig scfg = secure_config("boringssl-sim");
      scfg.keyring = ring;
      scfg.nonce_rekey_threshold = 64;  // per-epoch seal budget
      scfg.replay_window = 8;
      secure::SecureComm sc(plain, scfg);
      TimedComm tc(sc, Layer::kSecureMpi, tally, plain.process());
      traffic(tc, nullptr, plain.process(), r.latencies, r);
      fold_secure(sc.counters(), false, scfg.provider, r);
      r.layer["keys.ratchets"] +=
          static_cast<double>(ring->counters().ratchets);
    });
    Tally plain_tally;
    std::vector<double> plain_lat;
    run_world(config, false, traced, 0, r, [&](mpi::Comm& plain) {
      TimedComm tc(plain, Layer::kMpi, plain_tally, plain.process());
      traffic(tc, &plain, plain.process(), plain_lat, r);
    });
    r.app_msgs = tally.msgs;
    r.app_bytes = tally.bytes;
    finalize(r);
    return r;
  }

 private:
  static constexpr std::size_t kSmall = 1024;
  static constexpr std::size_t kLarge = 16 * 1024;

  static int peer(int rank) { return rank ^ 1; }

  net::LinkProfile link(int src, int dst, bool corrupt) const {
    const net::NetworkProfile base = net::wan_metro();
    net::LinkProfile l = net::wan_link(
        base, 0.15, base.latency / 20.0,
        msg_key(seed_, 21, static_cast<std::uint64_t>(src),
                static_cast<std::uint64_t>(dst)));
    if (corrupt) l.faults.p_corrupt = 0.02;
    return l;
  }

  mpi::WorldConfig world_config(bool corrupt) const {
    mpi::WorldConfig config;
    config.cluster.num_nodes = 4;
    config.cluster.ranks_per_node = 1;
    config.cluster.inter = net::wan_metro();
    for (const auto& [a, b] : {std::pair{0, 1}, std::pair{2, 1},
                               std::pair{1, 3}}) {
      config.cluster.links.push_back({a, b, link(a, b, corrupt)});
      config.cluster.links.push_back({b, a, link(b, a, corrupt)});
    }
    config.cluster.routes.push_back({2, 3, {1}});
    config.cluster.routes.push_back({3, 2, {1}});
    config.reliability.enabled = true;
    config.reliability.transport = reliable::Transport::kAdaptive;
    config.reliability.max_retries = 24;
    config.reliability.seed = mix64(seed_ ^ 0xa79ULL);
    return config;
  }

  /// Ping-pong: even ranks send, odd ranks echo. @p recover is the
  /// plain twin's Comm: it stands in for an application checksum and
  /// asks the ARQ layer for a clean copy of damaged deliveries, the
  /// recovery SecureComm performs on an authentication failure.
  void traffic(mpi::Communicator& comm, mpi::Comm* recover,
               const sim::Process& proc, std::vector<double>& lat,
               RepResult& r) const {
    const int rank = comm.rank();
    const int other = peer(rank);
    for (int i = 0; i < round_trips_; ++i) {
      const std::uint64_t k =
          msg_key(seed_, 31, static_cast<std::uint64_t>(rank & ~1),
                  static_cast<std::uint64_t>(i));
      Bytes buf(sizes_[static_cast<std::size_t>(i)]);
      const auto receive = [&] {
        const mpi::Status st = comm.recv(buf, other, i);
        if (recover != nullptr) {
          (void)recover->recover_damaged_recv(buf, other, i);
        }
        check_stamped(*pool_, k, buf, st, proc.now(), lat, r);
      };
      if ((rank & 1) == 0) {
        pool_->fill(k, proc.now(), buf);
        comm.send(buf, other, i);
        receive();
      } else {
        receive();
        PayloadPool::restamp(proc.now(), buf);
        comm.send(buf, other, i);
      }
    }
  }

  std::uint64_t seed_;
  int round_trips_;
  std::unique_ptr<PayloadPool> pool_;
  std::vector<std::size_t> sizes_;
  std::vector<Bytes> chains_;
  int handshake_attempts_ = 0;
  bool handshake_ok_ = false;
};

// --------------------------------------------------------------- nas probe

/// CG, FT, IS and LU at class W on 4 x 4 encrypted ranks. The seed
/// picks the engine's tie-break salt. Kernel compute is billed from
/// measured host time, so the virtual outputs are not exact; that is
/// why this is a per-layer probe and not a gated workload.
class Nas final : public Workload {
 public:
  Nas(std::uint64_t seed, bool smoke)
      : salt_(mix64(seed) | 1U),
        cls_(smoke ? nas::ProblemClass::kS : nas::ProblemClass::kW) {}

  int ranks() const override { return 16; }

  void setup() override {
    if (!crypto::self_test(crypto::provider("boringssl-sim"))) {
      throw std::runtime_error("provider self-test failed");
    }
  }

  RepResult run(bool traced) override {
    RepResult r;
    mpi::WorldConfig config;
    config.cluster.num_nodes = 4;
    config.cluster.ranks_per_node = 4;
    const secure::SecureConfig scfg = secure_config("boringssl-sim");
    Tally tally;
    run_world(config, true, traced, salt_, r, [&](mpi::Comm& plain) {
      secure::SecureComm sc(plain, scfg);
      TimedComm tc(sc, Layer::kSecureMpi, tally, plain.process());
      kernels(tc, plain.process(), r);
      fold_secure(sc.counters(), false, scfg.provider, r);
    });
    return r;
  }

 private:
  void kernels(mpi::Communicator& comm, sim::Process& proc,
               RepResult& r) const {
    static constexpr std::pair<nas::Kernel, const char*> kKernels[] = {
        {nas::Kernel::kCG, "cg"},
        {nas::Kernel::kFT, "ft"},
        {nas::Kernel::kIS, "is"},
        {nas::Kernel::kLU, "lu"}};
    for (const auto& [k, name] : kKernels) {
      comm.barrier();
      const double begin = proc.now();
      nas::KernelResult res;
      {
        Span span(Layer::kNas, proc.index());
        res = nas::run_kernel(k, comm, proc, cls_);
      }
      comm.barrier();
      r.check(res.verified, "NAS kernel verification failed");
      r.layer["nas.comm_fraction_sum"] += res.comm_fraction;
      r.layer["nas.kernel_runs"] += 1.0;
      if (comm.rank() == 0) {
        r.layer[std::string("nas.virt_runtime_s.") + name] +=
            proc.now() - begin;
      }
    }
  }

  std::uint64_t salt_;
  nas::ProblemClass cls_;
};

}  // namespace

void RepResult::check(bool ok, const char* what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < kMaxReported) failures.emplace_back(what);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"smallmsg_64r", "bulk_2r",
                                                  "hostile_wan"};
  return kNames;
}

const std::vector<std::string>& crypto_tiers() {
  static const std::vector<std::string> kTiers = {
      "boringssl-sim", "libsodium-sim", "cryptopp-sim"};
  return kTiers;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "smallmsg_64r") return std::make_unique<SmallMsg>(seed, smoke);
  if (name == "bulk_2r") return std::make_unique<Bulk>(seed, smoke);
  if (name == "hostile_wan") return std::make_unique<HostileWan>(seed, smoke);
  throw std::invalid_argument("unknown workload: " + name);
}

std::unique_ptr<Workload> make_nas_probe(std::uint64_t seed, bool smoke) {
  return std::make_unique<Nas>(seed, smoke);
}

}  // namespace perfbench
