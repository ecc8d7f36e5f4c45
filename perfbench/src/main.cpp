// Fixed-work benchmark driver: one process, one pinned CPU.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH] [--smoke]
//
// Sets the workload up several times (setup_s is the median), then
// repeats its fixed work until S seconds have passed (the first
// repetition warms caches and is left out of the host figures). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it also
// runs the engine and crypto probes and one traced repetition, and
// reports the per-layer metrics. Every output is checked; the last
// stdout line is one JSON object, and the exit code is 1 when any
// check failed. See perfbench/README.md for the metric catalogue.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "emc/crypto/provider.hpp"
#include "emc/sim/engine.hpp"
#include "emc/trace/trace.hpp"
#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

// Setup is repeated until both bounds are met, so its median is stable
// even for inputs that take microseconds to build.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 400;
constexpr double kSetupSeconds = 0.2;
constexpr std::size_t kMinReps = 4;  // including the warm-up repetition
constexpr double kMaxMeasureSeconds = 120.0;
constexpr int kTracedPairs = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--smoke]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--smoke") {
      if (i + 1 >= argc) usage("missing value for " + arg);
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
      if (!have_seed) usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1" ? 1 : 0;
    } else if (arg == "--spans") {
      o.spans = value;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds <= 0.0 || o.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

/// Pins the process to the highest-numbered CPU it may run on and
/// switches it to SCHED_BATCH; the engine's rank threads inherit both.
/// With every rank thread on one CPU, wakeup preemption lets a rank
/// woken by the engine preempt the waker while it still holds the
/// engine lock; the extra switches vary from run to run and dominated
/// the spread of host time. SCHED_BATCH turns that preemption off.
/// Returns the CPU or -1; @p batch reports whether the policy took.
int pin_to_one_cpu(int* allowed, bool* batch) {
  const sched_param param{};
  *batch = sched_setscheduler(0, SCHED_BATCH, &param) == 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  *allowed = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  *allowed = CPU_COUNT(&set);
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

/// Engine-only handoff probe: @p ranks processes advancing in lockstep,
/// so every event hands the token to another rank thread.
double handoff_ns(int ranks) {
  Span span(Layer::kSim);
  const int per_rank = std::max(16, 60000 / ranks);
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    emc::sim::Engine engine(ranks);
    const double t0 = wall_now_s();
    engine.run([per_rank](emc::sim::Process& p) {
      for (int i = 0; i < per_rank; ++i) p.advance(1e-6);
    });
    const double wall = wall_now_s() - t0;
    samples.push_back(wall * 1e9 /
                      static_cast<double>(engine.scheduled_events()));
  }
  return median(samples);
}

/// Provider seal+open throughput on 64 KiB buffers (the default
/// pipeline chunk, whose host time the secure layer does not record),
/// in MB/s of plaintext processed (seal and open bytes both count).
double crypto_mbps(const std::string& tier, std::uint64_t* failed) {
  Span span(Layer::kCrypto);
  constexpr std::size_t kBytes = std::size_t{64} << 10;
  const emc::crypto::AeadKeyPtr key =
      emc::crypto::make_aes_gcm(tier, emc::crypto::demo_key(32));
  Bytes pt(kBytes, 0x5a);
  Bytes ct(kBytes + emc::crypto::kGcmTagBytes);
  Bytes back(kBytes);
  Bytes nonce(emc::crypto::kGcmNonceBytes, 0);
  std::uint64_t iters = 0;
  const double t0 = wall_now_s();
  double elapsed = 0.0;
  do {
    nonce[0] = static_cast<std::uint8_t>(iters);
    nonce[1] = static_cast<std::uint8_t>(iters >> 8);
    key->seal(nonce, {}, pt, ct);
    if (!key->open(nonce, {}, ct, back) || back != pt) ++*failed;
    ++iters;
    elapsed = wall_now_s() - t0;
  } while (iters < 2 || elapsed < 0.1);
  return 2.0 * static_cast<double>(kBytes * iters) / elapsed / 1e6;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double at(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

template <typename F>
double rep_median(const std::vector<RepResult>& reps, F f) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(v);
}

/// Host cost of one repetition: the minimum over the measured
/// repetitions. Interference from other tenants of a shared host only
/// ever adds time; it comes and goes within a second and sometimes lasts
/// minutes. Short repetitions and their minimum catch the quiet moments:
/// over five 30 s runs of smallmsg_64r on a shared 4-vCPU VM the median
/// of the per-repetition walls spread by 22 % (quartile distance over
/// median), their minimum by 4 %.
template <typename F>
double host_cost(const std::vector<RepResult>& reps, F f) {
  double best = f(reps.front());
  for (const RepResult& r : reps) best = std::min(best, f(r));
  return best;
}

double overhead_pct(const RepResult& r) {
  const double enc = r.virt_makespan_s / r.enc_worlds;
  const double plain = r.plain_makespan_s / r.plain_worlds;
  return plain > 0.0 ? (enc - plain) / plain * 100.0 : 0.0;
}

int run_benchmark(const Options& opt) {
  int allowed = 0;
  bool batch = false;
  const int cpu = pin_to_one_cpu(&allowed, &batch);
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace,
              opt.smoke ? " smoke" : "");
  std::printf("# pinned cpu=%d allowed_cpus=%d nproc=%ld sched=%s build=%s\n",
              cpu, allowed, sysconf(_SC_NPROCESSORS_ONLN),
              batch ? "batch" : "other", PERFBENCH_BUILD_TYPE);
  if (cpu < 0 || !batch) {
    std::printf("# warning: could not pin to one CPU or set SCHED_BATCH\n");
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  };

  // ---- setup, several times: setup_s is the median
  std::unique_ptr<Workload> work;
  std::vector<double> setup_times;
  const double setup_start = wall_now_s();
  while (setup_times.size() < static_cast<std::size_t>(kMinSetupReps) ||
         (wall_now_s() - setup_start < kSetupSeconds &&
          setup_times.size() < static_cast<std::size_t>(kMaxSetupReps))) {
    const double t0 = wall_now_s();
    work = make_workload(opt.workload, opt.seed, opt.smoke);
    work->setup();
    setup_times.push_back(wall_now_s() - t0);
  }

  // ---- fixed work, repeated for --seconds (rep 0 is the warm-up)
  std::vector<RepResult> all;
  const double t_start = wall_now_s();
  for (;;) {
    all.push_back(work->run(false));
    const double elapsed = wall_now_s() - t_start;
    if (all.size() >= kMinReps && elapsed >= opt.seconds) break;
    if (elapsed >= kMaxMeasureSeconds) break;
  }
  const std::vector<RepResult> reps(all.begin() + 1, all.end());

  // ---- traced repetitions and probes (per-layer run only). Each traced
  // repetition follows an untraced one; the median of their wall ratios
  // is the tracing overhead. Spans and virt.* come from the last one.
  std::map<std::string, double> probe_mbps;
  double probe_handoff_ns = 0.0;
  std::vector<RepResult> traced_reps;
  SpanLog spans;
  std::array<SpanLog::Totals, kNumLayers> traced_totals{};
  std::vector<double> trace_overhead;
  std::vector<RepResult> nas_runs;  // the last one is traced
  if (opt.trace == 1) {
    for (int i = 0; i < kTracedPairs; ++i) {
      all.push_back(work->run(false));
      spans = SpanLog{};
      SpanLog::activate(&spans);
      {
        Span rep_span(Layer::kRep);
        traced_reps.push_back(work->run(true));
      }
      SpanLog::activate(nullptr);
      trace_overhead.push_back(traced_reps.back().wall_s / all.back().wall_s -
                               1.0);
    }
    traced_totals = spans.totals();
    SpanLog::activate(&spans);
    probe_handoff_ns = handoff_ns(work->ranks());
    for (const std::string& tier : crypto_tiers()) {
      probe_mbps[tier] = crypto_mbps(tier, &failed);
    }
    const std::unique_ptr<Workload> nas = make_nas_probe(opt.seed, opt.smoke);
    nas->setup();
    for (int i = 0; i < 4; ++i) nas_runs.push_back(nas->run(i == 3));
    SpanLog::activate(nullptr);
    if (!opt.spans.empty()) {
      check(spans.write_csv(opt.spans), "cannot write spans to " + opt.spans);
    }
  }

  // ---- correctness, and exactness of every repetition of the workload
  for (const auto* runs : {&all, &traced_reps, &nas_runs}) {
    for (const RepResult& r : *runs) {
      attempted += r.attempted;
      failed += r.failed;
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    }
  }
  std::printf("# digest %s 0x%016" PRIx64 "\n", opt.workload.c_str(),
              all[0].digest);
  for (const auto* runs : {&all, &traced_reps}) {
    for (const RepResult& r : *runs) {
      check(r.digest == all[0].digest,
            "a repetition is not bit-identical to the first");
    }
  }
  std::printf("# exactness: %zu repetitions%s compared bit for bit\n",
              all.size(), opt.trace == 1 ? " and the traced ones" : "");
  if (opt.trace == 1) {
    std::printf("# nas probe: kernel compute is billed from measured host "
                "time, so its virtual outputs are not exact and not "
                "digest-checked\n");
  }

  // ---- end-to-end metrics
  const double wall =
      host_cost(reps, [](const RepResult& r) { return r.wall_s; });
  const double makespan =
      rep_median(reps, [](const RepResult& r) { return r.virt_makespan_s; });
  const double msgs = static_cast<double>(all[0].app_msgs);
  rusage usage_info{};
  getrusage(RUSAGE_SELF, &usage_info);
  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_times), "s"},
      {"wall_s", wall, "s"},
      {"host_msgs_per_s", msgs / wall, "1/s"},
      {"peak_rss_mb", static_cast<double>(usage_info.ru_maxrss) / 1024.0, "MB"},
      {"virt_makespan_s", makespan, "s"},
      {"virt_goodput_mbps",
       rep_median(reps, [](const RepResult& r) {
         return static_cast<double>(r.app_bytes) / r.virt_makespan_s / 1e6;
       }),
       "MB/s"},
      {"virt_lat_p50_us",
       rep_median(reps, [](const RepResult& r) { return r.lat_p50_s * 1e6; }),
       "us"},
      {"virt_lat_p99_us",
       rep_median(reps, [](const RepResult& r) { return r.lat_p99_s * 1e6; }),
       "us"},
  };
  const double enc_overhead = rep_median(reps, overhead_pct);

  // ---- per-layer metrics
  std::vector<Metric> layer;
  if (opt.trace == 1) {
    const RepResult& traced = traced_reps.back();
    const auto span_cpu = [&](Layer l) {
      return traced_totals[static_cast<std::size_t>(l)].cpu_s;
    };
    const auto layer_of = [&](const std::string& k) {
      return rep_median(reps,
                        [&](const RepResult& r) { return at(r.layer, k); });
    };
    const auto counter = [&](const char* name, const char* unit) {
      return Metric{name, layer_of(name), unit};
    };
    const auto virt = [&](emc::trace::Category c) {
      return traced.virt[static_cast<std::size_t>(c)];
    };
    const auto crypto_host_s = [&](const RepResult& r) {
      double s = at(r.layer, "host.crypto_measured_s");
      for (const auto& [tier, mbps] : probe_mbps) {
        s += at(r.layer, "host.crypto_unmeasured_bytes." + tier) / (mbps * 1e6);
      }
      return s;
    };
    const double events = layer_of("sim.events");
    const double rank_cpu =
        host_cost(reps, [](const RepResult& r) { return r.rank_cpu_s; });
    const double crypto_s = host_cost(reps, crypto_host_s);
    const double mpi_cpu = span_cpu(Layer::kMpi);
    const double twin_weight =
        static_cast<double>(traced.enc_worlds) / traced.plain_worlds;
    const double frames = layer_of("reliable.data_frames");
    const auto nas_of = [&](const std::string& k) {
      return rep_median(nas_runs, [&](const RepResult& r) {
        return at(r.layer, "nas." + k);
      });
    };
    std::vector<double> nas_totals;
    for (const RepResult& r : nas_runs) nas_totals.push_back(r.virt_makespan_s);
    const double nas_median = median(nas_totals);
    const double nas_spread =
        (*std::max_element(nas_totals.begin(), nas_totals.end()) -
         *std::min_element(nas_totals.begin(), nas_totals.end())) /
        nas_median * 100.0;

    layer = {
        {"sim.events", events, "count"},
        {"sim.events_per_msg", msgs > 0 ? events / msgs : 0.0, "count"},
        {"sim.rank_cpu_s", rank_cpu, "s"},
        {"sim.unattributed_s", wall - rank_cpu, "s"},
        {"sim.handoff_ns", probe_handoff_ns, "ns"},
        {"sim.handoff_share", probe_handoff_ns * 1e-9 * events / wall, "ratio"},
        {"mpi.msgs", msgs, "count"},
        {"mpi.bytes", static_cast<double>(all[0].app_bytes), "bytes"},
        {"mpi.call_cpu_s", mpi_cpu, "s"},
        {"secure_mpi.call_cpu_s",
         span_cpu(Layer::kSecureMpi) - crypto_host_s(traced) -
             twin_weight * mpi_cpu,
         "s"},
        counter("secure_mpi.chunks_sealed", "count"),
        counter("secure_mpi.nacks_sent", "count"),
        counter("secure_mpi.duplicates_suppressed", "count"),
        counter("secure_mpi.replays_rejected", "count"),
        counter("secure_mpi.auth_failures", "count"),
        {"secure_mpi.enc_overhead_pct", enc_overhead, "%"},
        counter("secure_mpi.pipeline_stall_virt_s", "s"),
        {"crypto.host_s", crypto_s, "s"},
        counter("crypto.bytes", "bytes"),
    };
    for (const std::string& tier : crypto_tiers()) {
      layer.push_back({"crypto.host_mbps." + tier, probe_mbps[tier], "MB/s"});
    }
    const std::vector<Metric> rest = {
        {"crypto.host_share", crypto_s / wall, "ratio"},
        counter("netsim.faults.dropped", "count"),
        counter("netsim.faults.corrupted", "count"),
        {"netsim.nic_queue_virt_s", virt(emc::trace::Category::kNicQueue), "s"},
        {"netsim.wire_virt_s", virt(emc::trace::Category::kWire), "s"},
        {"netsim.relay_forward_virt_s",
         virt(emc::trace::Category::kRelayForward), "s"},
        {"reliable.data_frames", frames, "count"},
        counter("reliable.retransmits", "count"),
        counter("reliable.spurious_retransmits", "count"),
        counter("reliable.window_stalls", "count"),
        {"reliable.useful_ratio",
         frames > 0 ? layer_of("reliable.deliveries") / frames : 0.0, "ratio"},
        {"reliable.arq_retransmit_virt_s",
         virt(emc::trace::Category::kArqRetransmit), "s"},
        counter("keys.handshake_attempts", "count"),
        counter("keys.ratchets", "count"),
        counter("keys.catchup_opens", "count"),
        counter("keys.grace_opens", "count"),
        {"keys.key_mgmt_virt_s", virt(emc::trace::Category::kKeyMgmt), "s"},
        {"nas.compute_virt_s",
         nas_runs.back()
             .virt[static_cast<std::size_t>(emc::trace::Category::kCompute)],
         "s"},
        {"nas.comm_fraction",
         nas_of("comm_fraction_sum") / nas_of("kernel_runs"), "ratio"},
        {"nas.virt_runtime_s.cg", nas_of("virt_runtime_s.cg"), "s"},
        {"nas.virt_runtime_s.ft", nas_of("virt_runtime_s.ft"), "s"},
        {"nas.virt_runtime_s.is", nas_of("virt_runtime_s.is"), "s"},
        {"nas.virt_runtime_s.lu", nas_of("virt_runtime_s.lu"), "s"},
        {"nas.virt_runtime_spread_pct", nas_spread, "%"},
        {"trace.overhead_pct", median(trace_overhead) * 100.0, "%"},
    };
    layer.insert(layer.end(), rest.begin(), rest.end());
    for (std::size_t c = 0; c < emc::trace::kNumCategories; ++c) {
      layer.push_back(
          {std::string("virt.") +
               emc::trace::category_name(static_cast<emc::trace::Category>(c)) +
               "_s",
           traced.virt[c], "s"});
    }
    layer.push_back(
        {"virt.idle_s", traced.virt[emc::trace::kNumCategories], "s"});
    std::printf("# spans: %zu kept in memory, %" PRIu64 " dropped; "
                "self thread-CPU by layer:",
                spans.stored(), spans.dropped());
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      std::printf(" %s=%.6f", layer_name(static_cast<Layer>(l)),
                  spans.totals()[l].self_cpu_s);
    }
    std::printf("\n");
  }

  // ---- report
  std::printf("# repetitions: %zu measured + 1 warm-up; run took %.3f s\n",
              reps.size(), wall_now_s() - t_start);
  std::printf("# wall_s per repetition (warm-up first):");
  for (const RepResult& r : all) std::printf(" %.4f", r.wall_s);
  std::printf("\n# rank_cpu_s per repetition:");
  for (const RepResult& r : all) std::printf(" %.4f", r.rank_cpu_s);
  std::printf("\n# latency samples per repetition: %zu\n",
              all[0].lat_samples);
  std::printf("# enc_overhead_pct %.10g %% (virtual makespan over the plain "
              "twin)\n", enc_overhead);
  std::printf("# failed_ops_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
  for (std::size_t i = 0; i < failures.size() && i < 8; ++i) {
    std::printf("# FAILED: %s\n", failures[i].c_str());
  }
  const std::vector<Metric>& out = opt.trace == 1 ? layer : e2e;
  for (const Metric& m : e2e) {
    std::printf("%-34s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : layer) {
    std::printf("%-34s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string body;
  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) finite = false;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    body += buf;
  }
  if (!finite) {
    ++attempted;
    ++failed;
    std::printf("# FAILED: a metric is not finite\n");
  }
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  bool known = false;
  for (const std::string& w : workload_names()) {
    known = known || w == opt.workload;
  }
  if (!known) usage("unknown workload " + opt.workload);
  try {
    return run_benchmark(opt);
  } catch (const std::exception& e) {
    // Setup or a probe failed outside any world run: no result.
    std::printf("# FAILED: %s\n", e.what());
    return 1;
  }
}
