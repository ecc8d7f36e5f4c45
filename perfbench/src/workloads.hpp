// The benchmark's workloads. Each runs a fixed amount of simulated
// work per repetition, derived only from --seed; see perfbench/README.md
// for why each one exists and which layer it stresses.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Trace categories (emc::trace::Category order) plus idle.
inline constexpr std::size_t kNumVirt = 13;

/// What one repetition of a workload produced. The encrypted worlds
/// are the workload proper; the plain twin is the same traffic on the
/// unencrypted communicator.
struct RepResult {
  // Exact outputs (virtual time, counts); fed to the digest.
  double virt_makespan_s = 0.0;   ///< summed over the encrypted worlds
  double plain_makespan_s = 0.0;  ///< summed over the plain twin worlds
  int enc_worlds = 0;
  int plain_worlds = 0;
  std::uint64_t app_msgs = 0;     ///< received through the encrypted comms
  std::uint64_t app_bytes = 0;
  /// One-way latencies in virtual seconds; reduced to the fields below
  /// (and released) once the digest is taken.
  std::vector<double> latencies;
  std::size_t lat_samples = 0;
  double lat_p50_s = 0.0;
  double lat_p99_s = 0.0;

  // Host measurements of the encrypted worlds.
  double wall_s = 0.0;
  double rank_cpu_s = 0.0;  ///< summed thread CPU of the rank bodies

  // Correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the report

  /// Per-layer counters by metric name (see README.md).
  std::map<std::string, double> layer;
  /// Traced runs only: virtual seconds per trace category, then idle,
  /// summed over the ranks of the encrypted worlds.
  std::array<double, kNumVirt> virt{};

  std::uint64_t digest = 0;

  void check(bool ok, const char* what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Ranks per world (the engine probe runs at this count).
  [[nodiscard]] virtual int ranks() const = 0;
  /// Builds the inputs; the driver times it as setup_s.
  virtual void setup() = 0;
  /// One repetition of the fixed work; @p traced attaches a trace
  /// recorder and the span log is expected to be active.
  virtual RepResult run(bool traced) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown @p name. @p smoke
/// shrinks the fixed work to a few messages (tests only).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool smoke);

/// NAS kernels (CG, FT, IS, LU) on 4 x 4 encrypted ranks, run by the
/// per-layer run to measure the nas layer. No plain twin.
[[nodiscard]] std::unique_ptr<Workload> make_nas_probe(std::uint64_t seed,
                                                       bool smoke);

/// Provider tiers the bulk workload and the crypto probe cover.
[[nodiscard]] const std::vector<std::string>& crypto_tiers();

}  // namespace perfbench
