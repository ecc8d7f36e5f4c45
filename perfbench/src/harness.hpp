// Measurement primitives of the fixed-work benchmark: clocks, seeded
// inputs, the span log that times calls into each layer from outside,
// the communicator decorator that applies it, and small statistics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "emc/common/bytes.hpp"
#include "emc/mpi/communicator.hpp"
#include "emc/sim/engine.hpp"

namespace perfbench {

using emc::Bytes;
using emc::BytesView;
using emc::MutBytes;

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
/// Rank threads are descheduled while other ranks run, so this charges
/// a call only for the work done on its own thread.
[[nodiscard]] double thread_cpu_s();

/// Monotonic wall-clock seconds.
[[nodiscard]] double wall_now_s();

/// SplitMix64 finalizer: the one hash every seeded input derives from.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Seeded byte pool behind every payload. A message's bytes are a
/// window of the pool chosen by its key; its first 8 bytes carry the
/// sender's virtual send time, so the receiver both verifies the
/// content and measures one-way latency.
class PayloadPool {
 public:
  static constexpr std::size_t kStampBytes = sizeof(double);

  PayloadPool(std::uint64_t seed, std::size_t bytes);

  /// Writes message @p key's content into @p out and stamps @p sent.
  void fill(std::uint64_t key, double sent, MutBytes out) const;

  /// Message @p key's content of @p len bytes, unstamped.
  [[nodiscard]] BytesView window(std::uint64_t key, std::size_t len) const;

  /// Replaces the stamp of an already filled message (echo replies).
  static void restamp(double sent, MutBytes out);

  /// True when @p in is message @p key's content (stamp excluded);
  /// writes the stamp to @p sent.
  [[nodiscard]] bool check(std::uint64_t key, BytesView in,
                           double* sent) const;

 private:
  [[nodiscard]] std::size_t offset(std::uint64_t key,
                                   std::size_t len) const;
  Bytes bytes_;
};

/// Layers the driver times from outside, by the module it calls into.
enum class Layer : std::uint8_t {
  kRep,        ///< one repetition of the workload's fixed work
  kWorld,      ///< one World::run
  kSim,        ///< engine-only probe
  kMpi,        ///< calls into mpi::Comm (the plain twin)
  kSecureMpi,  ///< calls into secure::SecureComm
  kCrypto,     ///< provider seal/open probe
  kKeys,       ///< handshakes and keyring installs
  kNas,        ///< nas::run_kernel
  kTrace,      ///< trace::Summary extraction
};
inline constexpr std::size_t kNumLayers = 9;
[[nodiscard]] const char* layer_name(Layer layer) noexcept;

/// In-memory span log of the traced run. Spans carry thread-CPU and
/// wall begin/end and the index of the span that caused them; per-layer
/// totals and self times (total minus the children's share) are kept
/// exactly even when the stored list is capped. Rank threads run one
/// at a time (the engine hands over through its mutex), so the log
/// needs no lock of its own.
class SpanLog {
 public:
  struct Record {
    double cpu_begin = 0.0;
    double cpu_end = 0.0;
    double wall_begin = 0.0;
    double wall_end = 0.0;
    std::int32_t parent = -1;
    std::int32_t thread = -1;  ///< rank index, -1 for the driver thread
    Layer layer = Layer::kRep;
  };
  struct Totals {
    std::uint64_t count = 0;
    double cpu_s = 0.0;       ///< summed span durations (thread CPU)
    double self_cpu_s = 0.0;  ///< minus time covered by child spans
  };

  static constexpr std::size_t kMaxStored = 250000;

  /// The active log, or null when the run is untraced (every span
  /// site then costs one pointer test).
  [[nodiscard]] static SpanLog* active() noexcept { return active_; }
  static void activate(SpanLog* log) noexcept { active_ = log; }

  [[nodiscard]] const std::array<Totals, kNumLayers>& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] std::size_t stored() const noexcept { return records_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Spans opened on a rank thread with no open span of their own are
  /// children of the world span set here.
  void set_world_span(std::int32_t index) noexcept { world_span_ = index; }

  /// Writes every stored span as CSV; false when the file can't be
  /// written.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  friend class Span;
  std::int32_t open(Layer layer, int thread, double cpu, double wall);
  void close(std::int32_t index, Layer layer, double cpu_begin,
             double child_cpu, double cpu, double wall);

  static SpanLog* active_;
  std::vector<Record> records_;
  std::array<Totals, kNumLayers> totals_{};
  std::uint64_t dropped_ = 0;
  std::int32_t world_span_ = -1;
};

/// Scoped span: records [open, close) into the active log, if any.
class Span {
 public:
  explicit Span(Layer layer, int thread = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int32_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  Layer layer_;
  std::int32_t index_ = -1;
  double cpu_begin_ = 0.0;
  double wall_begin_ = 0.0;
  double child_cpu_ = 0.0;
  Span* outer_ = nullptr;
};

/// Application messages and payload bytes received through a
/// TimedComm.
struct Tally {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

/// Communicator decorator: forwards every call to @p inner, opens a
/// span of @p layer around it when tracing (on @p proc's rank), and
/// tallies completed receives.
class TimedComm final : public emc::mpi::Communicator {
 public:
  TimedComm(emc::mpi::Communicator& inner, Layer layer, Tally& tally,
            const emc::sim::Process& proc);

  [[nodiscard]] int rank() const override { return inner_->rank(); }
  [[nodiscard]] int size() const override { return inner_->size(); }

  void send(BytesView data, int dst, int tag) override;
  emc::mpi::Status recv(MutBytes buf, int src, int tag) override;
  emc::mpi::Request isend(BytesView data, int dst, int tag) override;
  emc::mpi::Request irecv(MutBytes buf, int src, int tag) override;
  emc::mpi::Status wait(emc::mpi::Request& request) override;
  std::vector<emc::mpi::Status> waitall(
      std::span<emc::mpi::Request> requests) override;
  emc::mpi::Status sendrecv(BytesView senddata, int dst, int sendtag,
                            MutBytes recvbuf, int src, int recvtag) override;
  void barrier() override;
  void bcast(MutBytes data, int root) override;
  void allgather(BytesView sendpart, MutBytes recvall) override;
  void alltoall(BytesView sendbuf, MutBytes recvbuf,
                std::size_t block) override;
  void alltoallv(BytesView sendbuf, std::span<const std::size_t> sendcounts,
                 std::span<const std::size_t> senddispls, MutBytes recvbuf,
                 std::span<const std::size_t> recvcounts,
                 std::span<const std::size_t> recvdispls) override;
  void gather(BytesView sendpart, MutBytes recvall, int root) override;
  void scatter(BytesView sendall, MutBytes recvpart, int root) override;

 private:
  void note_recv(const emc::mpi::Status& status);
  void note_block(std::uint64_t msgs, std::size_t bytes);

  emc::mpi::Communicator* inner_;
  Layer layer_;
  Tally* tally_;
  int rank_;  ///< world rank, the span's thread id
};

/// FNV-1a over the bit patterns of the exact (virtual-time) outputs.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, @p q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace perfbench
