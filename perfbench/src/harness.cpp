#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

thread_local Span* t_open_span = nullptr;

}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double wall_now_s() { return clock_s(CLOCK_MONOTONIC); }

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------- payload

PayloadPool::PayloadPool(std::uint64_t seed, std::size_t bytes)
    : bytes_(bytes) {
  std::uint64_t state = mix64(seed ^ 0x706f6f6cULL);
  for (std::size_t i = 0; i < bytes; i += 8) {
    state = mix64(state);
    const std::size_t n = std::min<std::size_t>(8, bytes - i);
    std::memcpy(bytes_.data() + i, &state, n);
  }
}

std::size_t PayloadPool::offset(std::uint64_t key, std::size_t len) const {
  if (len > bytes_.size()) throw std::length_error("payload exceeds pool");
  return static_cast<std::size_t>(mix64(key) % (bytes_.size() - len + 1));
}

BytesView PayloadPool::window(std::uint64_t key, std::size_t len) const {
  return BytesView(bytes_.data() + offset(key, len), len);
}

void PayloadPool::fill(std::uint64_t key, double sent, MutBytes out) const {
  if (out.size() < kStampBytes) throw std::length_error("payload too short");
  std::memcpy(out.data(), bytes_.data() + offset(key, out.size()),
              out.size());
  restamp(sent, out);
}

void PayloadPool::restamp(double sent, MutBytes out) {
  std::memcpy(out.data(), &sent, kStampBytes);
}

bool PayloadPool::check(std::uint64_t key, BytesView in, double* sent) const {
  if (in.size() < kStampBytes) return false;
  std::memcpy(sent, in.data(), kStampBytes);
  const std::uint8_t* want = bytes_.data() + offset(key, in.size());
  return std::memcmp(in.data() + kStampBytes, want + kStampBytes,
                     in.size() - kStampBytes) == 0;
}

// ------------------------------------------------------------------ spans

SpanLog* SpanLog::active_ = nullptr;

const char* layer_name(Layer layer) noexcept {
  static constexpr const char* kNames[kNumLayers] = {
      "rep", "world", "sim", "mpi", "secure_mpi", "crypto", "keys", "nas",
      "trace"};
  return kNames[static_cast<std::size_t>(layer)];
}

std::int32_t SpanLog::open(Layer layer, int thread, double cpu, double wall) {
  const Span* outer = t_open_span;
  std::int32_t parent = -1;
  if (outer != nullptr) {
    parent = outer->index();
  } else if (thread >= 0) {
    parent = world_span_;
  }
  if (records_.size() >= kMaxStored) {
    ++dropped_;
    return -1;
  }
  Record r;
  r.cpu_begin = cpu;
  r.wall_begin = wall;
  r.parent = parent;
  r.thread = thread;
  r.layer = layer;
  records_.push_back(r);
  return static_cast<std::int32_t>(records_.size() - 1);
}

void SpanLog::close(std::int32_t index, Layer layer, double cpu_begin,
                    double child_cpu, double cpu, double wall) {
  Totals& t = totals_[static_cast<std::size_t>(layer)];
  ++t.count;
  t.cpu_s += cpu - cpu_begin;
  t.self_cpu_s += cpu - cpu_begin - child_cpu;
  if (index >= 0) {
    Record& r = records_[static_cast<std::size_t>(index)];
    r.cpu_end = cpu;
    r.wall_end = wall;
  }
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "# spans kept " << records_.size() << ", dropped " << dropped_
      << "\nindex,layer,parent,thread,cpu_begin_ns,cpu_end_ns,wall_begin_ns,"
         "wall_end_ns\n";
  const auto ns = [](double s) { return std::llround(s * 1e9); };
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << i << ',' << layer_name(r.layer) << ',' << r.parent << ','
        << r.thread << ',' << ns(r.cpu_begin) << ',' << ns(r.cpu_end) << ','
        << ns(r.wall_begin) << ',' << ns(r.wall_end) << '\n';
  }
  return static_cast<bool>(out);
}

Span::Span(Layer layer, int thread) : log_(SpanLog::active()), layer_(layer) {
  if (log_ == nullptr) return;
  cpu_begin_ = thread_cpu_s();
  wall_begin_ = wall_now_s();
  index_ = log_->open(layer, thread, cpu_begin_, wall_begin_);
  outer_ = t_open_span;
  t_open_span = this;
}

Span::~Span() {
  if (log_ == nullptr) return;
  const double cpu = thread_cpu_s();
  log_->close(index_, layer_, cpu_begin_, child_cpu_, cpu, wall_now_s());
  if (outer_ != nullptr) outer_->child_cpu_ += cpu - cpu_begin_;
  t_open_span = outer_;
}

// -------------------------------------------------------------- TimedComm

TimedComm::TimedComm(emc::mpi::Communicator& inner, Layer layer,
                     Tally& tally, const emc::sim::Process& proc)
    : inner_(&inner), layer_(layer), tally_(&tally), rank_(proc.index()) {}

void TimedComm::note_recv(const emc::mpi::Status& status) {
  if (status.source == emc::mpi::kAnySource) return;  // a send completion
  ++tally_->msgs;
  tally_->bytes += status.bytes;
}

void TimedComm::note_block(std::uint64_t msgs, std::size_t bytes) {
  tally_->msgs += msgs;
  tally_->bytes += bytes;
}

void TimedComm::send(BytesView data, int dst, int tag) {
  Span span(layer_, rank_);
  inner_->send(data, dst, tag);
}

emc::mpi::Status TimedComm::recv(MutBytes buf, int src, int tag) {
  Span span(layer_, rank_);
  const emc::mpi::Status st = inner_->recv(buf, src, tag);
  note_recv(st);
  return st;
}

emc::mpi::Request TimedComm::isend(BytesView data, int dst, int tag) {
  Span span(layer_, rank_);
  return inner_->isend(data, dst, tag);
}

emc::mpi::Request TimedComm::irecv(MutBytes buf, int src, int tag) {
  Span span(layer_, rank_);
  return inner_->irecv(buf, src, tag);
}

emc::mpi::Status TimedComm::wait(emc::mpi::Request& request) {
  Span span(layer_, rank_);
  const emc::mpi::Status st = inner_->wait(request);
  note_recv(st);
  return st;
}

std::vector<emc::mpi::Status> TimedComm::waitall(
    std::span<emc::mpi::Request> requests) {
  Span span(layer_, rank_);
  std::vector<emc::mpi::Status> all = inner_->waitall(requests);
  for (const emc::mpi::Status& st : all) note_recv(st);
  return all;
}

emc::mpi::Status TimedComm::sendrecv(BytesView senddata, int dst, int sendtag,
                                     MutBytes recvbuf, int src, int recvtag) {
  Span span(layer_, rank_);
  const emc::mpi::Status st =
      inner_->sendrecv(senddata, dst, sendtag, recvbuf, src, recvtag);
  note_recv(st);
  return st;
}

void TimedComm::barrier() {
  Span span(layer_, rank_);
  inner_->barrier();
}

void TimedComm::bcast(MutBytes data, int root) {
  Span span(layer_, rank_);
  inner_->bcast(data, root);
  if (rank() != root) note_block(1, data.size());
}

void TimedComm::allgather(BytesView sendpart, MutBytes recvall) {
  Span span(layer_, rank_);
  inner_->allgather(sendpart, recvall);
  note_block(static_cast<std::uint64_t>(size() - 1),
             recvall.size() - sendpart.size());
}

void TimedComm::alltoall(BytesView sendbuf, MutBytes recvbuf,
                         std::size_t block) {
  Span span(layer_, rank_);
  inner_->alltoall(sendbuf, recvbuf, block);
  note_block(static_cast<std::uint64_t>(size() - 1), recvbuf.size() - block);
}

void TimedComm::alltoallv(BytesView sendbuf,
                          std::span<const std::size_t> sendcounts,
                          std::span<const std::size_t> senddispls,
                          MutBytes recvbuf,
                          std::span<const std::size_t> recvcounts,
                          std::span<const std::size_t> recvdispls) {
  Span span(layer_, rank_);
  inner_->alltoallv(sendbuf, sendcounts, senddispls, recvbuf, recvcounts,
                    recvdispls);
  std::size_t bytes = 0;
  for (std::size_t p = 0; p < recvcounts.size(); ++p) {
    if (static_cast<int>(p) != rank()) bytes += recvcounts[p];
  }
  note_block(static_cast<std::uint64_t>(size() - 1), bytes);
}

void TimedComm::gather(BytesView sendpart, MutBytes recvall, int root) {
  Span span(layer_, rank_);
  inner_->gather(sendpart, recvall, root);
  if (rank() == root) {
    note_block(static_cast<std::uint64_t>(size() - 1),
               recvall.size() - sendpart.size());
  }
}

void TimedComm::scatter(BytesView sendall, MutBytes recvpart, int root) {
  Span span(layer_, rank_);
  inner_->scatter(sendall, recvpart, root);
  if (rank() != root) note_block(1, recvpart.size());
}

// ------------------------------------------------------------------ stats

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

}  // namespace perfbench
