#include "sweep/kernel_cache.hpp"

#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace citl::sweep {

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a;", v);
  out += buf;
}

void append_int(std::string& out, long long v) {
  out += std::to_string(v);
  out += ';';
}

}  // namespace

std::string kernel_cache_key(const cgra::BeamKernelConfig& config,
                             const cgra::CgraArch& arch, KernelKind kind) {
  std::string key;
  key.reserve(256);
  // Kernel generator first: the same config compiles to different programs
  // for the sampled / analytic / ramp sources.
  switch (kind) {
    case KernelKind::kSampled: key += "sampled;"; break;
    case KernelKind::kAnalytic: key += "analytic;"; break;
    case KernelKind::kRamp: key += "ramp;"; break;
  }
  // Ion: the kernel bakes Q/(mc^2) into constants; the name is cosmetic but
  // cheap to include and makes keys self-describing in debug dumps.
  key += config.ion.name;
  key += ';';
  append_double(key, config.ion.mass_ev);
  append_int(key, config.ion.charge_number);
  // Ring.
  append_double(key, config.ring.circumference_m);
  append_double(key, config.ring.alpha_c);
  append_int(key, config.ring.harmonic);
  // Kernel generation options.
  append_double(key, config.gamma0);
  append_double(key, config.v_scale);
  append_int(key, config.n_bunches);
  append_int(key, config.pipelined ? 1 : 0);
  append_int(key, config.interpolate ? 1 : 0);
  append_double(key, config.sample_rate_hz);
  // Architecture: grid shape, per-PE capabilities, latencies, routing, clock.
  key += '|';
  append_int(key, arch.rows);
  append_int(key, arch.cols);
  for (const auto& pe : arch.pes) {
    key += static_cast<char>('0' + (pe.alu ? 1 : 0) + (pe.mul ? 2 : 0) +
                             (pe.divsqrt ? 4 : 0));
    key += static_cast<char>('0' + (pe.cordic ? 1 : 0) + (pe.mem ? 2 : 0));
  }
  key += ';';
  const auto& lat = arch.latency;
  append_int(key, lat.alu);
  append_int(key, lat.mul);
  append_int(key, lat.div);
  append_int(key, lat.sqrt);
  append_int(key, lat.load);
  append_int(key, lat.store);
  append_int(key, lat.cordic);
  append_int(key, lat.route_hop);
  append_int(key, lat.source);
  append_int(key, arch.route_ports_per_pe);
  append_double(key, arch.clock_hz);
  return key;
}

std::shared_ptr<const cgra::CompiledKernel> KernelCache::get(
    const cgra::BeamKernelConfig& config, const cgra::CgraArch& arch,
    KernelKind kind) {
  return get(kernel_cache_key(config, arch, kind), config, arch, kind);
}

std::shared_ptr<const cgra::CompiledKernel> KernelCache::get(
    const std::string& key, const cgra::BeamKernelConfig& config,
    const cgra::CgraArch& arch, KernelKind kind) {
  lookups_.fetch_add(1, std::memory_order_relaxed);

  std::promise<std::shared_ptr<const cgra::CompiledKernel>> promise;
  Entry entry;
  bool owner = false;
  {
    std::lock_guard lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      it->second = promise.get_future().share();
      owner = true;
    }
    entry = it->second;
  }

  // Hit/miss from the sweep's point of view: only the first requester of a
  // key pays the compilation; everyone else (including waiters on the
  // in-flight compile) shares the cached result.
  static obs::Counter& hits =
      obs::Registry::global().counter("sweep.kernel_cache.hits");
  static obs::Counter& misses =
      obs::Registry::global().counter("sweep.kernel_cache.misses");
  if (!owner) {
    hits.add();
    return entry.get();  // waits for the in-flight compilation
  }
  misses.add();

  try {
    CITL_TRACE_SPAN("sweep.kernel_compile");
    std::string source;
    const char* name = "beam_sampled";
    switch (kind) {
      case KernelKind::kSampled:
        source = cgra::beam_kernel_source(config);
        break;
      case KernelKind::kAnalytic:
        source = cgra::analytic_beam_kernel_source(config);
        name = "beam_analytic";
        break;
      case KernelKind::kRamp:
        source = cgra::ramp_beam_kernel_source(config);
        name = "beam_ramp";
        break;
    }
    auto kernel = std::make_shared<const cgra::CompiledKernel>(
        cgra::compile_kernel(source, arch, name));
    compilations_.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(kernel);
    return kernel;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard lock(mutex_);
    entries_.erase(key);  // allow a corrected config to retry later
    throw;
  }
}

std::size_t KernelCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace citl::sweep
