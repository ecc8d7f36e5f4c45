#include "emc/secure_mpi/secure_comm.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "emc/common/rng.hpp"
#include "emc/keys/keyring.hpp"
#include "emc/mpi/validate.hpp"
#include "emc/common/timer.hpp"

namespace emc::secure {

namespace detail {

/// Request state for an encrypted receive: the ciphertext lands in
/// `wire`; decryption into `user` happens at completion. `src`/`tag`
/// are kept so completion can re-post the inner receive after
/// absorbing a benign fabric duplicate.
struct SecureRecvState final : mpi::detail::RequestState {
  Bytes wire;
  MutBytes user;
  int src = mpi::kAnySource;
  int tag = mpi::kAnyTag;
  mpi::Request inner;
};

}  // namespace detail

namespace {

using crypto::kGcmNonceBytes;
using crypto::kGcmTagBytes;
using crypto::kWireOverhead;

/// Request state for a non-blocking encrypted send: keeps the wire
/// buffer alive until completion (rendezvous references it in place).
struct SecureSendState final : mpi::detail::RequestState {
  Bytes wire;
  mpi::Request inner;
};

/// Request state for a non-blocking pipelined send. Every chunk was
/// already dispatched in isend (send_chunk never blocks — the sender
/// only pays per-chunk CPU overhead), so the request is born complete
/// and wait() just hands back the status.
struct SecurePipeSendState final : mpi::detail::RequestState {
  mpi::Status status;
};

/// A received point-to-point frame, classified and bounds-checked.
struct Frame {
  enum class Kind {
    kSealed,     ///< nonce || ct || tag that fits the receive capacity
    kChunk,      ///< chunk header || nonce || ct || tag, header consistent
    kBadChunk,   ///< chunk magic, header inconsistent with length/capacity
    kBadLength,  ///< unchunked, outside [kWireOverhead, wire_size(capacity)]
  };
  Kind kind = Kind::kBadLength;
  PipeChunkHeader chunk;  ///< decoded header (both chunk kinds)

  [[nodiscard]] bool chunk_like() const {
    return kind == Kind::kChunk || kind == Kind::kBadChunk;
  }
};

/// The one frame decoder: every received point-to-point frame passes
/// through here before any crypto runs or any size arithmetic touches
/// it. A frame is a pipelined chunk when it can hold the chunk header
/// plus a minimal AEAD frame and leads with the magic (see kPipeMagic's
/// collision analysis in pipeline.hpp); its header must then fit the
/// frame length and the receive capacity. Pure bounds checks: field
/// integrity is enforced later — the header is the AAD prefix of its
/// chunk, so any tampered field fails the tag.
Frame decode(BytesView frame, std::size_t capacity) {
  Frame f;
  if (frame.size() >= kPipeHeaderBytes + kWireOverhead &&
      load_be32(frame.data()) == kPipeMagic) {
    f.chunk = load_pipe_header(frame.data());
    const PipeChunkHeader& h = f.chunk;
    const bool fits =
        h.count >= 1 && h.index < h.count && h.offset <= capacity &&
        h.chunk_len <= capacity - h.offset &&
        frame.size() == kPipeHeaderBytes + SecureComm::wire_size(h.chunk_len);
    f.kind = fits ? Frame::Kind::kChunk : Frame::Kind::kBadChunk;
  } else if (frame.size() >= kWireOverhead &&
             frame.size() <= SecureComm::wire_size(capacity)) {
    f.kind = Frame::Kind::kSealed;
  }
  return f;
}

}  // namespace

SecureComm::SecureComm(mpi::Comm& comm, const SecureConfig& config)
    : comm_(&comm),
      config_(config),
      key_(crypto::make_aes_gcm(config.provider, config.key)) {
  if (config_.replay_window > 0 && !config_.bind_context) {
    throw std::invalid_argument(
        "SecureConfig: replay_window requires bind_context (the window "
        "slides over the authenticated per-channel sequence numbers)");
  }
  net::RelayPolicy relay;  // kEndToEnd: sealed forwarding, free relays
  if (config_.relay_trust == RelayTrust::kHopTrusted) {
    relay.hop_integrity = true;  // each hop re-verifies before re-sealing
    if (config_.charge_crypto && config_.cost_model) {
      // One open + one seal of analytic crypto time per payload per
      // relay. Without a cost model relay crypto is unbilled (relays
      // are not simulated processes, so wall-clock charging has no
      // process to bill).
      const CryptoCostModel& m = *config_.cost_model;
      relay.per_hop_fixed = m.open_per_op + m.seal_per_op;
      relay.per_hop_byte = m.open_per_byte + m.seal_per_byte;
    }
  }
  comm_->set_relay_policy(relay);
  exposure_base_ = comm_->world().fabric().relay_exposures();
  if (config_.pipeline.enabled) {
    if (config_.pipeline.chunk_bytes == 0) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.chunk_bytes must be >= 1");
    }
    if (config_.pipeline.chunk_bytes >
        std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.chunk_bytes must fit the 32-bit "
          "chunk-length header field");
    }
    if (config_.pipeline.helper_cores < 0) {
      throw std::invalid_argument(
          "SecureConfig: pipeline.helper_cores must be >= 0");
    }
    if (config_.charge_crypto && !config_.cost_model) {
      throw std::invalid_argument(
          "SecureConfig: the pipeline requires a cost_model while "
          "charge_crypto is on — helper cores are not simulated "
          "processes, so their per-chunk crypto can only be billed "
          "analytically (docs/PIPELINE.md)");
    }
    helper_free_.assign(static_cast<std::size_t>(config_.pipeline.helper_cores),
                        0.0);
  }
}

double SecureComm::charged_crypto(const std::function<void()>& work,
                                  std::size_t bytes, bool encrypt) {
  if (!config_.charge_crypto) {
    // EMC_LINT_ALLOW(det-clock): measurement-mode only — the host
    // seconds feed BENCH JSON metrics, never the virtual timeline.
    WallTimer timer;
    work();
    return timer.seconds();
  }
  if (config_.cost_model) {
    // Analytic billing: the crypto really executes (semantics and
    // counters unchanged) but virtual time advances by the model, so
    // encrypted timelines are deterministic.
    // EMC_LINT_ALLOW(det-clock): same measurement-mode host read; the
    // virtual clock advances by the analytic model below.
    WallTimer timer;
    work();
    const double elapsed = timer.seconds();
    bill_on_rank(model_cost(bytes, encrypt), bytes, encrypt);
    return elapsed;
  }
  // Wall-clock billing: the engine charge observer records the span;
  // retag it from the default kCompute before charging.
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    rec->set_charge_category(comm_->process().index(),
                             encrypt ? trace::Category::kCryptoEncrypt
                                     : trace::Category::kCryptoDecrypt);
  }
  return comm_->process().charge(work);
}

double SecureComm::model_cost(std::size_t bytes, bool encrypt) const {
  const CryptoCostModel& m = *config_.cost_model;
  return encrypt
             ? m.seal_per_op + static_cast<double>(bytes) * m.seal_per_byte
             : m.open_per_op + static_cast<double>(bytes) * m.open_per_byte;
}

void SecureComm::bill_on_rank(double cost, std::size_t bytes, bool encrypt) {
  sim::Process& proc = comm_->process();
  const double begin = proc.now();
  proc.advance(cost);
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    // Trace rows are world-rank-indexed; on a shrunken communicator
    // the local rank() no longer names the right row.
    rec->record(proc.index(),
                encrypt ? trace::Category::kCryptoEncrypt
                        : trace::Category::kCryptoDecrypt,
                begin, proc.now(), -1, bytes);
  }
}

bool SecureComm::keyring_link(int peer) const noexcept {
  return config_.keyring != nullptr && peer >= 0;
}

void SecureComm::next_nonce(std::uint8_t out[kGcmNonceBytes]) {
  // Fail-closed rekey gate: refuse to seal past the per-key invocation
  // budget rather than risk a repeated (key, nonce) pair. Counted in
  // both modes — random nonces hit the NIST birthday bound at 2^32
  // invocations just as surely as a wrapped counter would repeat.
  if (config_.nonce_rekey_threshold != 0 &&
      nonce_counter_ >= config_.nonce_rekey_threshold) {
    throw NonceExhaustedError(nonce_counter_, config_.nonce_rekey_threshold);
  }
  if (config_.nonce_mode == NonceMode::kRandom) {
    ++nonce_counter_;
    // EMC_LINT_ALLOW(nonce-source): NonceMode::kRandom reproduces the
    // paper's random-IV configuration as a studied design point; the
    // nonce-exhaustion guard above still bounds draws per key, and
    // kCounter is the default for production-shaped runs.
    random_nonce(MutBytes(out, kGcmNonceBytes));
    return;
  }
  store_be32(out, static_cast<std::uint32_t>(rank()));
  store_be64(out + 4, nonce_counter_++);
}

void SecureComm::charge_relay_reseals(int peer) {
  if (peer < 0 || config_.relay_trust != RelayTrust::kHopTrusted ||
      keyring_link(peer)) {
    return;
  }
  const net::Fabric& fabric = comm_->world().fabric();
  const net::RouteSpec* route =
      fabric.route_for(fabric.node_of(comm_->to_world(rank())),
                       fabric.node_of(comm_->to_world(peer)));
  if (route == nullptr) return;
  // Every hop-trusted relay on the route re-seals this payload under
  // the same group key: those AEAD invocations spend the key's nonce
  // budget exactly like local seals. Count them against the
  // fail-closed guard, or the true invocation count under the key
  // silently overruns the configured threshold. (Keyring links are
  // exempt: their per-link budget rotates the epoch online instead.)
  const auto hops = static_cast<std::uint64_t>(route->via.size());
  if (config_.nonce_rekey_threshold != 0 &&
      nonce_counter_ + hops >= config_.nonce_rekey_threshold) {
    throw NonceExhaustedError(nonce_counter_ + hops,
                              config_.nonce_rekey_threshold);
  }
  nonce_counter_ += hops;
}

void SecureComm::rekey(BytesView new_key) {
  key_ = crypto::make_aes_gcm(config_.provider, new_key);
  config_.key.assign(new_key.begin(), new_key.end());
  // Every key-scoped stream restarts: nonces, per-channel sequence
  // numbers, replay-window bookkeeping. The fresh key makes the reset
  // safe (no (key, nonce) or (key, seq) pair can repeat).
  nonce_counter_ = 0;
  send_seq_.clear();
  recv_seq_.clear();
  extra_copies_.clear();
  pipe_msg_id_ = 0;
  pipe_recv_next_.clear();
  ++counters_.rekeys;
}

Bytes SecureComm::p2p_aad(int src, int dst, int tag,
                          std::uint64_t seq) const {
  if (!config_.bind_context) return {};
  Bytes aad(24);
  store_be32(aad.data(), static_cast<std::uint32_t>(src));
  store_be32(aad.data() + 4, static_cast<std::uint32_t>(dst));
  store_be32(aad.data() + 8, static_cast<std::uint32_t>(tag));
  store_be32(aad.data() + 12, 0);  // kind: 0 = point-to-point
  store_be64(aad.data() + 16, seq);
  return aad;
}

Bytes SecureComm::coll_aad(int src, int dst, std::uint64_t seq) const {
  if (!config_.bind_context) return {};
  Bytes aad(24);
  store_be32(aad.data(), static_cast<std::uint32_t>(src));
  store_be32(aad.data() + 4, static_cast<std::uint32_t>(dst));
  store_be32(aad.data() + 8, 0);
  store_be32(aad.data() + 12, 1);  // kind: 1 = collective
  store_be64(aad.data() + 16, seq);
  return aad;
}

std::uint64_t SecureComm::next_send_seq(int dst, int tag) {
  return send_seq_[{dst, tag}]++;
}

void SecureComm::seal_into(BytesView pt, MutBytes out, BytesView aad,
                           int peer, bool charged) {
  if (out.size() != wire_size(pt.size())) {
    throw std::invalid_argument("seal_into: wire buffer size mismatch");
  }
  charge_relay_reseals(peer);
  const crypto::AeadKey* aead = nullptr;
  if (keyring_link(peer)) {
    // Keyring links seal under the link's per-epoch key, fetched before
    // the charged region so ratchet billing lands on the key_mgmt lane,
    // not inside the seal span.
    keys::LinkKeyring& ring = *config_.keyring;
    const int link = comm_->to_world(peer);
    const keys::LinkKeyring::SealKey sk =
        ring.seal_key(link, comm_->now(), config_.nonce_rekey_threshold);
    if (sk.ratcheted) {
      // The epoch advanced in place — traffic continues under the next
      // chain key instead of stopping on NonceExhaustedError. Bill the
      // chain step analytically on the key_mgmt lane.
      ++counters_.link_ratchets;
      sim::Process& proc = comm_->process();
      const double begin = proc.now();
      proc.advance(ring.ratchet().step_cost);
      if (trace::TraceRecorder* rec = comm_->world().trace()) {
        rec->record(proc.index(), trace::Category::kKeyMgmt, begin,
                    proc.now(), link);
      }
    }
    // Both endpoints seal under the same epoch key; the sender's world
    // rank prefixes the per-epoch sequence so the two directions'
    // nonce streams can never collide.
    store_be32(out.data(), static_cast<std::uint32_t>(comm_->to_world(rank())));
    store_be64(out.data() + 4, sk.seq);
    aead = sk.aead;
  }
  const auto seal = [&] {
    if (aead == nullptr) {
      next_nonce(out.data());
      aead = key_.get();
    }
    aead->seal(BytesView(out.data(), kGcmNonceBytes), aad, pt,
               out.subspan(kGcmNonceBytes));
  };
  if (charged) {
    counters_.seal_seconds += charged_crypto(seal, pt.size(), /*encrypt=*/true);
  } else {
    seal();  // pipelined chunk: the helper core bills the time
  }
  ++counters_.messages_sealed;
  counters_.bytes_sealed += pt.size();
}

bool SecureComm::try_open_into(BytesView wire, MutBytes out, BytesView aad,
                               int peer, bool charged) {
  // Keyring links trial-open the link's epoch candidates (current,
  // ahead up to max_skew, grace) and report a success to the keyring;
  // everything else has the one group-key candidate.
  const bool ring = keyring_link(peer);
  const int link = comm_->to_world(peer);
  std::vector<keys::LinkKeyring::OpenCandidate> cands;
  if (ring) config_.keyring->open_candidates(link, comm_->now(), cands);
  const std::size_t n = ring ? cands.size() : 1;
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::AeadKey* aead = ring ? cands[i].aead : key_.get();
    bool ok = false;
    const auto trial = [&] {
      ok = aead->open(wire.first(kGcmNonceBytes), aad,
                      wire.subspan(kGcmNonceBytes), out);
    };
    if (charged) {
      counters_.open_seconds +=
          charged_crypto(trial, out.size(), /*encrypt=*/false);
    } else {
      trial();  // pipelined chunk: the helper core bills the time
    }
    if (!ok) continue;
    if (!ring) return true;
    switch (config_.keyring->note_open(link, cands[i].epoch, comm_->now())) {
      case keys::LinkKeyring::OpenKind::kGrace:
        ++counters_.grace_opens;
        break;
      case keys::LinkKeyring::OpenKind::kCatchup:
        ++counters_.catchup_opens;
        break;
      case keys::LinkKeyring::OpenKind::kCurrent:
        break;
    }
    return true;
  }
  return false;
}

void SecureComm::open_into(BytesView wire, MutBytes out, BytesView aad) {
  if (wire.size() != wire_size(out.size())) {
    throw std::invalid_argument("open_into: plaintext buffer size mismatch");
  }
  if (!try_open_into(wire, out, aad)) {
    ++counters_.auth_failures;
    throw IntegrityError(
        "authentication tag mismatch: message was tampered with or "
        "corrupted (rank " +
        std::to_string(rank()) + ")");
  }
  ++counters_.messages_opened;
  counters_.bytes_opened += out.size();
}

bool SecureComm::recover_frame(MutBytes frame, int src, int tag, int round) {
  // One end-to-end NACK round per frame: if the ARQ stash can prove
  // the damage happened on the wire, the clean copy is retransmitted
  // into `frame` and the caller decodes it again.
  if (round != 0 || !comm_->recover_damaged_recv(frame, src, tag)) {
    return false;
  }
  ++counters_.nacks_sent;
  ++counters_.retransmits_recovered;
  return true;
}

void SecureComm::recover_or_fail(MutBytes frame, int src, int tag, int round,
                                 MutBytes wipe,
                                 std::uint64_t CryptoCounters::*counter,
                                 const char* what) {
  // A second failure — or any failure the stash cannot explain — is
  // final.
  if (recover_frame(frame, src, tag, round)) return;
  secure_zero(wipe);  // never leak a partially verified message
  ++(counters_.*counter);
  throw IntegrityError(std::string(what) + " (rank " + std::to_string(rank()) +
                       ")");
}

std::optional<mpi::Status> SecureComm::open_message(MutBytes frame, int src,
                                                    int tag, MutBytes user) {
  for (int round = 0;; ++round) {
    const Frame f = decode(frame, user.size());
    if (f.kind == Frame::Kind::kChunk) {
      if (f.chunk.msg_id >= pipe_recv_next_[{src, tag}]) {
        return open_pipelined(frame, f.chunk, src, tag, user);
      }
      // An id below the channel's next pipelined message: wire damage
      // to the id field when the ARQ stash can prove it, otherwise a
      // stale frame of a delivered message (a fabric duplicate
      // straggling in behind completion), absorbed without crypto.
      if (recover_frame(frame, src, tag, round)) continue;
      ++counters_.duplicates_suppressed;
      return std::nullopt;
    }
    if (f.kind == Frame::Kind::kBadLength) {
      ++counters_.length_failures;
      throw IntegrityError(
          "wire message of " + std::to_string(frame.size()) +
          " bytes outside the valid [" + std::to_string(kWireOverhead) +
          ", " + std::to_string(wire_size(user.size())) +
          "] range for this receive: truncated or oversized in transit "
          "(rank " +
          std::to_string(rank()) + ")");
    }
    if (f.kind == Frame::Kind::kSealed) {
      const MutBytes out = user.first(frame.size() - kWireOverhead);
      // With context binding the channel counter advances only when a
      // message authenticates, so damaged traffic cannot desynchronize
      // honest traffic behind it. With a replay window, sequence
      // numbers slightly ahead (dropped predecessors) still
      // authenticate, and numbers behind are trial-checked to separate
      // benign fabric duplicates from replay attacks. Unbound traffic
      // authenticates an empty context exactly once.
      std::uint64_t unbound = 0;
      std::uint64_t& expected =
          config_.bind_context ? recv_seq_[{src, tag}] : unbound;
      const std::uint64_t ahead =
          config_.replay_window > 0 ? config_.replay_window : 1;
      for (std::uint64_t k = 0; k < ahead; ++k) {
        if (try_open_into(frame, out, p2p_aad(src, rank(), tag, expected + k),
                          src)) {
          expected += k + 1;
          ++counters_.messages_opened;
          counters_.bytes_opened += out.size();
          return mpi::Status{src, tag, out.size()};
        }
      }
      for (std::uint64_t back = 1;
           back <= config_.replay_window && back <= expected; ++back) {
        if (try_open_into(frame, out,
                          p2p_aad(src, rank(), tag, expected - back), src)) {
          secure_zero(out);  // never hand a repeated plaintext to the caller
          const std::uint64_t seq = expected - back;
          if (++extra_copies_[{src, tag, seq}] == 1) {
            // First extra copy: the fabric duplicated the frame. Absorb
            // it silently; the caller loops for the next real message.
            ++counters_.duplicates_suppressed;
            return std::nullopt;
          }
          // The same sequence number injected yet again: an attacker
          // replaying captured traffic, not a duplicating wire.
          ++counters_.replays_rejected;
          throw IntegrityError(
              "replayed message rejected: sequence " + std::to_string(seq) +
              " from rank " + std::to_string(src) +
              " was already delivered (rank " + std::to_string(rank()) + ")");
        }
      }
    }
    // A recovered frame is decoded afresh: the wire damage may have
    // destroyed (or forged) the chunk magic.
    const bool sealed = f.kind == Frame::Kind::kSealed;
    recover_or_fail(
        frame, src, tag, round, {},
        sealed ? &CryptoCounters::auth_failures
               : &CryptoCounters::length_failures,
        sealed ? "authentication tag mismatch: message was tampered with, "
                 "corrupted, or spliced from another channel"
               : "pipelined chunk header inconsistent with its frame length: "
                 "truncated, corrupted, or forged in transit");
  }
}

// ------------------------------------------------------ chunked pipeline

bool SecureComm::pipeline_engages(std::size_t bytes) const noexcept {
  const PipelineConfig& p = config_.pipeline;
  // A message that fits one chunk gains nothing from chunk framing.
  return p.enabled && bytes > p.chunk_bytes && bytes >= p.min_bytes;
}

double SecureComm::helper_crypto(std::size_t bytes, bool encrypt) {
  sim::Process& proc = comm_->process();
  if (!config_.charge_crypto || !config_.cost_model) {
    // Charge-free functional mode, or a wall-clock-billed peer
    // receiving chunked traffic: the crypto really executed but no
    // virtual time is billed (measuring host time here would break
    // the determinism of src/secure_mpi — see docs/PIPELINE.md).
    return proc.now();
  }
  const double cost = model_cost(bytes, encrypt);
  if (helper_free_.empty()) {
    // helper_cores == 0: chunk framing without overlap — the chunk's
    // crypto is billed serially on the rank itself.
    bill_on_rank(cost, bytes, encrypt);
    return proc.now();
  }
  // Earliest-free core wins, lowest index on ties: a pure function of
  // the simulated timeline, so helper schedules replay bit-exact
  // (EMC-DET). The chunk cannot start before its data exists on this
  // rank (`now`), nor before the core drained its queue.
  std::size_t core = 0;
  for (std::size_t c = 1; c < helper_free_.size(); ++c) {
    if (helper_free_[c] < helper_free_[core]) core = c;
  }
  const double start = std::max(helper_free_[core], proc.now());
  const double done = start + cost;
  helper_free_[core] = done;
  (encrypt ? counters_.helper_seal_seconds
           : counters_.helper_open_seconds) += cost;
  if (trace::TraceRecorder* rec = comm_->world().trace()) {
    rec->record(proc.index(), trace::Category::kCryptoHelper, start, done,
                static_cast<int>(core), bytes);
  }
  return done;
}

double SecureComm::seal_chunk(BytesView pt, MutBytes out, BytesView aad,
                              int peer) {
  // No host-time measurement on this path (seal_seconds stays a
  // main-clock wall measurement; helper billing is purely analytic).
  seal_into(pt, out, aad, peer, /*charged=*/false);
  ++counters_.chunks_sealed;
  return helper_crypto(pt.size(), /*encrypt=*/true);
}

void SecureComm::send_pipelined(BytesView data, int dst, int tag) {
  const std::size_t chunk = config_.pipeline.chunk_bytes;
  const auto count = static_cast<std::uint32_t>((data.size() + chunk - 1) /
                                                chunk);
  const std::uint64_t msg_id = pipe_msg_id_++;
  const bool bind = config_.bind_context;
  ++counters_.messages_pipelined;
  Bytes frame;
  Bytes aad(bind ? kPipeHeaderBytes + 24 : kPipeHeaderBytes);
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t off = std::size_t{k} * chunk;
    const std::size_t len = std::min(chunk, data.size() - off);
    frame.resize(kPipeHeaderBytes + wire_size(len));
    PipeChunkHeader h;
    h.msg_id = msg_id;
    h.index = k;
    h.count = count;
    h.chunk_len = static_cast<std::uint32_t>(len);
    h.offset = off;
    store_pipe_header(frame.data(), h);
    // The chunk's AAD is its own header — every field the receiver
    // steers by is under the tag — plus, with context binding, the
    // usual channel context with one fresh sequence number per chunk
    // (consecutive draws from the same stream as unchunked traffic).
    std::memcpy(aad.data(), frame.data(), kPipeHeaderBytes);
    if (bind) {
      const Bytes ctx = p2p_aad(rank(), dst, tag, next_send_seq(dst, tag));
      std::memcpy(aad.data() + kPipeHeaderBytes, ctx.data(), ctx.size());
    }
    const double sealed_at = seal_chunk(
        data.subspan(off, len), MutBytes(frame).subspan(kPipeHeaderBytes),
        aad, dst);
    // The frame flies as soon as both the NIC is free and the helper
    // core sealed it; the sender's own clock only pays the per-chunk
    // CPU overhead + copy, which is how encryption hides behind the
    // transfer of earlier chunks.
    comm_->send_chunk(frame, dst, tag, sealed_at);
  }
}

mpi::Status SecureComm::open_pipelined(MutBytes frame,
                                       const PipeChunkHeader& first, int src,
                                       int tag, MutBytes user) {
  const std::uint64_t msg_id = first.msg_id;
  const std::uint32_t count = first.count;
  const bool bind = config_.bind_context;
  // Chunk k authenticates channel sequence base + k — the sender drew
  // count consecutive numbers; the channel advances only on delivery.
  const std::uint64_t base = bind ? recv_seq_[{src, tag}] : 0;

  sim::Process& proc = comm_->process();
  std::vector<std::uint8_t> copies(count, 0);  ///< copies seen per chunk
  std::uint32_t have_n = 0;
  std::size_t bytes_accepted = 0;
  std::size_t total_len = 0;  ///< offset+len of chunk count-1
  double crypto_done = proc.now();
  Bytes aad(bind ? kPipeHeaderBytes + 24 : kPipeHeaderBytes);
  Bytes wire;

  for (bool first_frame = true;; first_frame = false) {
    // Decodes, deduplicates, authenticates, and places one frame, with
    // the single allowed ARQ recovery round per frame (a recovery may
    // change the header, so it decodes again).
    for (int round = 0;; ++round) {
      const Frame f = decode(frame, user.size());
      const PipeChunkHeader& h = f.chunk;
      const bool frame_ok = f.kind == Frame::Kind::kChunk &&
                            h.msg_id == msg_id && h.count == count;
      // Two verdicts are reached without crypto: a stale frame of an
      // older message arriving mid-stream, and another copy of an
      // accepted chunk. Wire damage to the header can fake either, so
      // the ARQ stash is asked first. The stale test never applies to
      // the first frame: msg_id was read from its header, which may be
      // the very damage a recovery just undid — a recovered first
      // frame that no longer matches fails closed below.
      const bool stale = !first_frame && f.chunk_like() && h.msg_id < msg_id;
      const bool again = frame_ok && copies[h.index] != 0;
      if ((stale || again) && recover_frame(frame, src, tag, round)) continue;
      if (stale) {
        ++counters_.duplicates_suppressed;
        break;
      }
      if (again) {
        // The first extra copy is a benign fabric duplicate, absorbed
        // without crypto (the frame carries nothing the message still
        // needs); the second is classified as a replay attack, like the
        // unchunked window.
        if (copies[h.index]++ == 1) {
          ++counters_.duplicates_suppressed;
          break;
        }
        secure_zero(user);
        ++counters_.replays_rejected;
        throw IntegrityError(
            "replayed pipelined chunk rejected: chunk " +
            std::to_string(h.index) + " of message " +
            std::to_string(msg_id) + " from rank " + std::to_string(src) +
            " was already delivered twice (rank " + std::to_string(rank()) +
            ")");
      }
      if (frame_ok) {
        std::memcpy(aad.data(), frame.data(), kPipeHeaderBytes);
        if (bind) {
          const Bytes ctx = p2p_aad(src, rank(), tag, base + h.index);
          std::memcpy(aad.data() + kPipeHeaderBytes, ctx.data(), ctx.size());
        }
        const MutBytes out = user.subspan(h.offset, h.chunk_len);
        if (try_open_into(BytesView(frame).subspan(kPipeHeaderBytes), out,
                          aad, src, /*charged=*/false)) {
          copies[h.index] = 1;
          ++have_n;
          bytes_accepted += h.chunk_len;
          if (h.index == count - 1) total_len = h.offset + h.chunk_len;
          ++counters_.messages_opened;
          ++counters_.chunks_opened;
          counters_.bytes_opened += h.chunk_len;
          // The open runs on a helper core from the moment the frame is
          // in memory; the main timeline keeps receiving chunk k+1
          // while this one decrypts.
          crypto_done = std::max(
              crypto_done, helper_crypto(h.chunk_len, /*encrypt=*/false));
          break;
        }
      }
      // The e2e NACK recovers this one chunk, not the message.
      recover_or_fail(
          frame, src, tag, round, user,
          frame_ok ? &CryptoCounters::auth_failures
                   : &CryptoCounters::length_failures,
          !f.chunk_like() ? "unchunked frame interleaved into a pipelined "
                            "message"
          : frame_ok      ? "authentication tag mismatch on pipelined "
                            "chunk: message was tampered with, corrupted, "
                            "or spliced from another channel"
                          : "pipelined chunk frame inconsistent "
                            "mid-message: header does not match the message");
    }
    if (have_n == count) break;
    if (wire.empty()) wire.resize(recv_wire_capacity(user.size()));
    const mpi::Status ws = comm_->recv(wire, src, tag);
    frame = MutBytes(wire).first(ws.bytes);
  }
  if (bytes_accepted != total_len) {
    // Unreachable for an honest sender (headers are authenticated and
    // indices deduplicated), kept as a cheap defence in depth.
    secure_zero(user);
    ++counters_.length_failures;
    throw IntegrityError(
        "pipelined chunks do not tile the message: " +
        std::to_string(bytes_accepted) + " bytes accepted for a " +
        std::to_string(total_len) + "-byte message (rank " +
        std::to_string(rank()) + ")");
  }
  pipe_recv_next_[{src, tag}] = msg_id + 1;
  if (bind) recv_seq_[{src, tag}] = base + count;
  // Stall only for crypto the wire did not hide: the receive is
  // complete when the last helper core finishes its last chunk.
  const double now = proc.now();
  if (crypto_done > now) {
    proc.advance(crypto_done - now);
    counters_.pipeline_stall_seconds += crypto_done - now;
    if (trace::TraceRecorder* rec = comm_->world().trace()) {
      rec->record(proc.index(), trace::Category::kPipelineStall, now,
                  proc.now(), src, bytes_accepted);
    }
  }
  return mpi::Status{src, tag, total_len};
}

// ------------------------------------------------------- point-to-point

void SecureComm::seal_p2p(BytesView data, MutBytes wire, int dst, int tag) {
  seal_into(data, wire,
            p2p_aad(rank(), dst, tag,
                    config_.bind_context ? next_send_seq(dst, tag) : 0),
            dst);
}

void SecureComm::send(BytesView data, int dst, int tag) {
  // Reject bad arguments before spending crypto time on the payload.
  mpi::validate_user_tag(tag);
  mpi::validate_peer(dst, size());
  if (pipeline_engages(data.size())) {
    send_pipelined(data, dst, tag);
    return;
  }
  Bytes wire(wire_size(data.size()));
  seal_p2p(data, wire, dst, tag);
  comm_->send(wire, dst, tag);
}

mpi::Status SecureComm::recv(MutBytes buf, int src, int tag) {
  // irecv + wait, with the request state on the stack.
  detail::SecureRecvState state;
  post_recv(state, buf, src, tag);
  return finish_recv(state);
}

mpi::Request SecureComm::isend(BytesView data, int dst, int tag) {
  mpi::validate_user_tag(tag);
  mpi::validate_peer(dst, size());
  if (pipeline_engages(data.size())) {
    // Every chunk is dispatched right here: send_chunk never blocks
    // (eager shape, wire gated by wire_not_before), so the request is
    // born complete and wait() is a lookup.
    send_pipelined(data, dst, tag);
    auto state = std::make_unique<SecurePipeSendState>();
    state->status = mpi::Status{dst, tag, data.size()};
    return mpi::Request(std::move(state));
  }
  auto state = std::make_unique<SecureSendState>();
  state->wire.resize(wire_size(data.size()));
  seal_p2p(data, state->wire, dst, tag);
  state->inner = comm_->isend(state->wire, dst, tag);
  return mpi::Request(std::move(state));
}

mpi::Request SecureComm::irecv(MutBytes buf, int src, int tag) {
  auto state = std::make_unique<detail::SecureRecvState>();
  post_recv(*state, buf, src, tag);
  return mpi::Request(std::move(state));
}

void SecureComm::post_recv(detail::SecureRecvState& state, MutBytes buf,
                           int src, int tag) {
  mpi::validate_recv_tag(tag);
  mpi::validate_recv_peer(src, size());
  // Sized so any frame fits: an unchunked message of up to buf.size()
  // payload bytes, or one pipelined chunk (header + AEAD frame of a
  // chunk no larger than the message).
  state.wire.resize(recv_wire_capacity(buf.size()));
  state.user = buf;
  state.src = src;
  state.tag = tag;
  state.inner = comm_->irecv(state.wire, src, tag);
}

mpi::Status SecureComm::finish_recv(detail::SecureRecvState& state) {
  for (;;) {
    const mpi::Status ws = comm_->wait(state.inner);
    if (const auto status = open_message(MutBytes(state.wire).first(ws.bytes),
                                         ws.source, ws.tag, state.user)) {
      return *status;
    }
    // Benign fabric duplicate absorbed: re-post and wait again.
    state.inner = comm_->irecv(state.wire, state.src, state.tag);
  }
}

mpi::Status SecureComm::wait(mpi::Request& request) {
  if (!request.valid()) {
    mpi::throw_invalid_wait(comm_->world().verifier(), rank(), request);
  }
  auto owned = request.take();
  if (auto* send_state = dynamic_cast<SecureSendState*>(owned.get())) {
    return comm_->wait(send_state->inner);
  }
  if (auto* pipe_state = dynamic_cast<SecurePipeSendState*>(owned.get())) {
    return pipe_state->status;  // chunks were all dispatched in isend
  }
  if (auto* recv_state = dynamic_cast<detail::SecureRecvState*>(owned.get())) {
    return finish_recv(*recv_state);
  }
  throw mpi::MpiError("request does not belong to this secure communicator");
}

std::vector<mpi::Status> SecureComm::waitall(
    std::span<mpi::Request> requests) {
  // Every inner request is drained even when a decryption fails:
  // abandoning the rest would leave rendezvous senders parked on
  // their handshakes and deadlock the simulation. The first failure
  // is rethrown once all completions have run.
  std::vector<mpi::Status> statuses(requests.size());
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      statuses[i] = wait(requests[i]);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return statuses;
}

mpi::Status SecureComm::sendrecv(BytesView senddata, int dst, int sendtag,
                                 MutBytes recvbuf, int src, int recvtag) {
  mpi::Request rr = irecv(recvbuf, src, recvtag);
  mpi::Request rs = isend(senddata, dst, sendtag);
  const mpi::Status status = wait(rr);
  wait(rs);
  return status;
}

// ---------------------------------------------------------- collectives

void SecureComm::barrier() { comm_->barrier(); }

void SecureComm::bcast(MutBytes data, int root) {
  mpi::validate_peer(root, size());
  const std::uint64_t seq = coll_seq_++;
  const Bytes aad = coll_aad(root, -1, seq);
  Bytes wire(wire_size(data.size()));
  if (rank() == root) seal_into(data, wire, aad);
  comm_->bcast(wire, root);
  if (rank() != root) open_into(wire, data, aad);
}

void SecureComm::allgather(BytesView sendpart, MutBytes recvall) {
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = sendpart.size();
  if (recvall.size() != block * n) {
    throw mpi::MpiError("allgather: recv buffer must be size()*block bytes");
  }
  const std::size_t wire_block = wire_size(block);
  const std::uint64_t seq = coll_seq_++;

  Bytes wire_send(wire_block);
  seal_into(sendpart, wire_send, coll_aad(rank(), -1, seq));
  Bytes wire_all(wire_block * n);
  comm_->allgather(wire_send, wire_all);
  for (std::size_t i = 0; i < n; ++i) {
    open_into(BytesView(wire_all).subspan(i * wire_block, wire_block),
              recvall.subspan(i * block, block),
              coll_aad(static_cast<int>(i), -1, seq));
  }
}

void SecureComm::alltoall(BytesView sendbuf, MutBytes recvbuf,
                          std::size_t block) {
  // Algorithm 1 of the paper, verbatim structure: encrypt every block
  // with a fresh nonce, exchange (l+28)-byte blocks with the plain
  // alltoall, then decrypt every received block.
  const auto n = static_cast<std::size_t>(size());
  const auto total = block * n;
  if (sendbuf.size() != total || recvbuf.size() != total) {
    throw mpi::MpiError("alltoall: buffers must be size()*block bytes");
  }
  const std::size_t wire_block = wire_size(block);
  const std::uint64_t seq = coll_seq_++;

  Bytes enc_sendbuf(wire_block * n);
  for (std::size_t i = 0; i < n; ++i) {
    seal_into(sendbuf.subspan(i * block, block),
              MutBytes(enc_sendbuf).subspan(i * wire_block, wire_block),
              coll_aad(rank(), static_cast<int>(i), seq));
  }
  Bytes enc_recvbuf(wire_block * n);
  comm_->alltoall(enc_sendbuf, enc_recvbuf, wire_block);
  for (std::size_t i = 0; i < n; ++i) {
    open_into(BytesView(enc_recvbuf).subspan(i * wire_block, wire_block),
              recvbuf.subspan(i * block, block),
              coll_aad(static_cast<int>(i), rank(), seq));
  }
}

void SecureComm::alltoallv(BytesView sendbuf,
                           std::span<const std::size_t> sendcounts,
                           std::span<const std::size_t> senddispls,
                           MutBytes recvbuf,
                           std::span<const std::size_t> recvcounts,
                           std::span<const std::size_t> recvdispls) {
  const auto n = static_cast<std::size_t>(size());
  if (sendcounts.size() != n || senddispls.size() != n ||
      recvcounts.size() != n || recvdispls.size() != n) {
    throw mpi::MpiError(
        "alltoallv: count/displacement arrays must have size() entries");
  }

  std::vector<std::size_t> wire_sendcounts(n);
  std::vector<std::size_t> wire_senddispls(n);
  std::vector<std::size_t> wire_recvcounts(n);
  std::vector<std::size_t> wire_recvdispls(n);
  std::size_t send_total = 0;
  std::size_t recv_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    wire_sendcounts[i] = wire_size(sendcounts[i]);
    wire_senddispls[i] = send_total;
    send_total += wire_sendcounts[i];
    wire_recvcounts[i] = wire_size(recvcounts[i]);
    wire_recvdispls[i] = recv_total;
    recv_total += wire_recvcounts[i];
  }

  const std::uint64_t seq = coll_seq_++;
  Bytes enc_sendbuf(send_total);
  for (std::size_t i = 0; i < n; ++i) {
    seal_into(sendbuf.subspan(senddispls[i], sendcounts[i]),
              MutBytes(enc_sendbuf)
                  .subspan(wire_senddispls[i], wire_sendcounts[i]),
              coll_aad(rank(), static_cast<int>(i), seq));
  }
  Bytes enc_recvbuf(recv_total);
  comm_->alltoallv(enc_sendbuf, wire_sendcounts, wire_senddispls,
                   enc_recvbuf, wire_recvcounts, wire_recvdispls);
  for (std::size_t i = 0; i < n; ++i) {
    open_into(BytesView(enc_recvbuf)
                  .subspan(wire_recvdispls[i], wire_recvcounts[i]),
              recvbuf.subspan(recvdispls[i], recvcounts[i]),
              coll_aad(static_cast<int>(i), rank(), seq));
  }
}

void SecureComm::gather(BytesView sendpart, MutBytes recvall, int root) {
  mpi::validate_peer(root, size());
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = sendpart.size();
  const std::size_t wire_block = wire_size(block);
  const std::uint64_t seq = coll_seq_++;

  Bytes wire_send(wire_block);
  seal_into(sendpart, wire_send, coll_aad(rank(), root, seq));
  Bytes wire_all(rank() == root ? wire_block * n : 0);
  comm_->gather(wire_send, wire_all, root);
  if (rank() == root) {
    if (recvall.size() != block * n) {
      throw mpi::MpiError("gather: root recv buffer must be size()*block");
    }
    for (std::size_t i = 0; i < n; ++i) {
      open_into(BytesView(wire_all).subspan(i * wire_block, wire_block),
                recvall.subspan(i * block, block),
                coll_aad(static_cast<int>(i), root, seq));
    }
  }
}

void SecureComm::scatter(BytesView sendall, MutBytes recvpart, int root) {
  mpi::validate_peer(root, size());
  const auto n = static_cast<std::size_t>(size());
  const std::size_t block = recvpart.size();
  const std::size_t wire_block = wire_size(block);

  const std::uint64_t seq = coll_seq_++;
  Bytes wire_all;
  if (rank() == root) {
    if (sendall.size() != block * n) {
      throw mpi::MpiError("scatter: root send buffer must be size()*block");
    }
    wire_all.resize(wire_block * n);
    for (std::size_t i = 0; i < n; ++i) {
      seal_into(sendall.subspan(i * block, block),
                MutBytes(wire_all).subspan(i * wire_block, wire_block),
                coll_aad(root, static_cast<int>(i), seq));
    }
  }
  Bytes wire_recv(wire_block);
  comm_->scatter(wire_all, wire_recv, root);
  open_into(wire_recv, recvpart, coll_aad(root, rank(), seq));
}

double run_secure_world(const mpi::WorldConfig& world_config,
                        const SecureConfig& secure_config,
                        const std::function<void(SecureComm&)>& body) {
  return mpi::run_world(world_config, [&](mpi::Comm& comm) {
    SecureComm secure(comm, secure_config);
    body(secure);
  });
}

}  // namespace emc::secure
