// Shared CGRA kernel compilations for scenario sweeps.
//
// Compiling the beam kernel (parse -> lower -> list-schedule -> verify) costs
// around a millisecond — negligible for one framework, but a 100-scenario
// sweep that varies only controller settings would pay it 100 times and,
// worse, hold 100 identical schedules in memory. CompiledKernel is immutable
// after compilation and the engine keeps all mutable execution state
// privately, so distinct machines can safely share one kernel. The cache
// hands out shared_ptr<const CompiledKernel> keyed by the full
// (BeamKernelConfig, CgraArch) pair and guarantees exactly one compilation
// per distinct key even under concurrent lookups.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cgra/kernels.hpp"
#include "cgra/schedule.hpp"

namespace citl::sweep {

/// Which kernel-source generator a cache entry holds. The sample-accurate
/// framework compiles the sampled kernel; turn-level scenarios may use the
/// CORDIC waveform-synthesis kernel or the ramp kernel instead, and those
/// compile to different programs from the same BeamKernelConfig.
enum class KernelKind : std::uint8_t { kSampled, kAnalytic, kRamp };

/// Canonical textual key covering every field of the kernel configuration
/// and the architecture that can influence the compilation result. Doubles
/// are rendered as hex floats, so configs differing in the last ulp get
/// distinct entries rather than silently sharing a kernel.
[[nodiscard]] std::string kernel_cache_key(const cgra::BeamKernelConfig& config,
                                           const cgra::CgraArch& arch,
                                           KernelKind kind = KernelKind::kSampled);

class KernelCache {
 public:
  /// Returns the compiled kernel for (config, arch), compiling it on the
  /// first request. Concurrent requests for the same key block until the
  /// single compilation finishes and then share its result. A compilation
  /// failure propagates to every waiter of that round and is not cached.
  [[nodiscard]] std::shared_ptr<const cgra::CompiledKernel> get(
      const cgra::BeamKernelConfig& config, const cgra::CgraArch& arch,
      KernelKind kind = KernelKind::kSampled);
  /// get() for a caller that already built `key`, which must equal
  /// kernel_cache_key(config, arch, kind).
  [[nodiscard]] std::shared_ptr<const cgra::CompiledKernel> get(
      const std::string& key, const cgra::BeamKernelConfig& config,
      const cgra::CgraArch& arch, KernelKind kind);

  /// Number of compilations actually performed (== distinct keys resolved).
  [[nodiscard]] std::size_t compilations() const noexcept {
    return compilations_.load(std::memory_order_relaxed);
  }
  /// Number of get() calls served.
  [[nodiscard]] std::size_t lookups() const noexcept {
    return lookups_.load(std::memory_order_relaxed);
  }
  /// Distinct kernels currently cached.
  [[nodiscard]] std::size_t size() const;

  /// Drops every cached kernel (kernels still referenced by machines stay
  /// alive through their shared_ptr).
  void clear();

 private:
  using Entry =
      std::shared_future<std::shared_ptr<const cgra::CompiledKernel>>;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::atomic<std::size_t> compilations_{0};
  std::atomic<std::size_t> lookups_{0};
};

}  // namespace citl::sweep
