// Native codegen tier: SCAR schedules compiled to machine code at run time.
//
// emit_kernel_source() lowers a compiled kernel's dataflow graph to
// straight-line C11 — one source per (kernel, precision, lane width) — with
// explicit SIMD over the SoA lane rows via the simd_portability.hpp macro
// layer (AVX2 / NEON / scalar). The emitted code is bit-identical to the
// interpreter by construction: sources and moves stay in the raw double
// domain, compute nodes quantise at operand use exactly like cgra/exec.hpp,
// min/max/CORDIC go through the same scalar rules and iteration sequences, and
// FP contraction is disabled at compile time.
//
// NativeKernelCache::get() turns that source into a callable: one compiler
// process builds it straight into a .so whose one entry point, citl_run, is
// the full-width pass (a lane-masked pass runs on the interpreter). It has
// two keys. The in-process memo is keyed by what the emitter reads (the
// graph's tables, the kernel name, the precision and the lane count), so a
// hit emits nothing. Only a miss emits the source and derives the disk key, a
// content hash (emitted source + compiler version + flags + the compiler's
// resolved target macros + ABI tag), under which the kernel persists in a
// disk cache directory ($CITL_KERNEL_CACHE_DIR, default
// /tmp/citl-kernel-cache-<uid>) holding <hash>.c / <hash>.so / <hash>.json
// (a compilation report). A corrupt or mismatched .so is deleted and
// recompiled. In a CITL_SANITIZE build the kernels are compiled and linked
// with the library's own sanitizer flags, which the hash and the report
// carry like every other flag. When no host compiler can be found, get()
// returns nullptr and the engine falls back to the interpreter — nothing in
// the pipeline requires a toolchain at run time.
//
// Compiler discovery order: $CITL_CODEGEN_CC (explicit, no fallthrough — set
// it to a bogus path to force the fallback), the compiler that built this
// binary, then c++/g++/clang++ on PATH.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cgra/machine.hpp"
#include "cgra/schedule.hpp"

namespace citl::cgra {

/// ABI contract between the host and a generated kernel. Bumping it orphans
/// every cached .so (they fail verification and are recompiled).
inline constexpr unsigned kNativeKernelAbi = 4;

/// Pass-level execution state handed to a generated kernel: the engine's
/// SoA banks plus the sensor-bus trampolines (the generated code never
/// decodes addresses or touches C++ bus classes; the host wraps its bus in
/// C callbacks). Unlike the interpreter, a generated kernel also
/// owns the commit phase: it latches stage-0 rows into `pipe_regs` and the
/// state update rows into `state_vals` itself (the rows are hot in cache
/// there), so the host skips the data half of commit() for this tier.
struct NativeCtx {
  double* values = nullptr;
  double* pipe_regs = nullptr;
  double* state_vals = nullptr;
  const double* param_vals = nullptr;
  void* bus = nullptr;
  double (*bus_read)(void* bus, std::uint32_t lane, double addr) = nullptr;
  void (*bus_write)(void* bus, std::uint32_t lane, double addr,
                    double value) = nullptr;
  // Pre-decoded variants: the emitter folds decode_address() at codegen time
  // when the address operand is a constant node (it always is in the stock
  // kernels), so the per-lane IO call skips the divide/floor decode.
  double (*bus_read_at)(void* bus, std::uint32_t lane, std::uint32_t region,
                        double offset) = nullptr;
  void (*bus_write_at)(void* bus, std::uint32_t lane, std::uint32_t region,
                       double offset, double value) = nullptr;
};

/// Emits the C11 source for one (kernel, precision, lanes) triple.
/// Deterministic: byte-identical input -> byte-identical source (the content
/// hash depends on it).
[[nodiscard]] std::string emit_kernel_source(const CompiledKernel& kernel,
                                             Precision precision,
                                             std::size_t lanes);

/// A loaded generated kernel (owns the dlopen handle).
class NativeKernel {
 public:
  using RunFn = void (*)(NativeCtx*);

  NativeKernel(void* dl_handle, RunFn run_fn, std::string hash,
               double compile_ms, bool disk_hit, bool repaired);
  ~NativeKernel();
  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;

  /// One full-width iteration over every lane, commit included.
  void run(NativeCtx& ctx) const { run_(&ctx); }

  [[nodiscard]] const std::string& hash() const noexcept { return hash_; }
  /// Wall-clock cost of the host-compiler run that produced the .so this
  /// process loaded; 0 when it came straight from the disk cache.
  [[nodiscard]] double compile_ms() const noexcept { return compile_ms_; }
  [[nodiscard]] bool disk_hit() const noexcept { return disk_hit_; }
  [[nodiscard]] bool repaired() const noexcept { return repaired_; }

 private:
  void* dl_handle_;
  RunFn run_;
  std::string hash_;
  double compile_ms_;
  bool disk_hit_;
  bool repaired_;
};

/// Process-wide codegen counters (also mirrored into obs:
/// cgra.codegen.compiles / memo_hits / disk_hits / repairs / fallbacks /
/// compile_ms_total).
struct CodegenStats {
  std::uint64_t compiles = 0;   ///< kernels built by the host compiler
  std::uint64_t memo_hits = 0;  ///< served from the in-process memo
  std::uint64_t disk_hits = 0;  ///< dlopen'd a previously cached .so
  std::uint64_t repairs = 0;    ///< corrupt cached .so deleted + recompiled
  std::uint64_t fallbacks = 0;  ///< get() returned nullptr
  double compile_ms_total = 0.0;
};

class NativeKernelCache {
 public:
  /// Returns the loaded kernel, or nullptr when the native tier is
  /// unavailable (no compiler, or the compile failed) — callers
  /// fall back to the interpreter. Kernels with the same graph tables, name,
  /// precision and lanes share one memo entry, however they were compiled;
  /// concurrent gets of one entry share one compilation, and failures are
  /// memoised too (no retry storms).
  std::shared_ptr<const NativeKernel> get(const CompiledKernel& kernel,
                                          Precision precision,
                                          std::size_t lanes);

  /// Drops the in-process memo (disk cache untouched) — lets tests exercise
  /// the cold/warm disk paths within one process.
  void clear_memory();

  [[nodiscard]] CodegenStats stats() const;
  [[nodiscard]] std::string last_error() const;

  static NativeKernelCache& global();

  /// True when a host compiler was found (resolved once per process).
  static bool compiler_available();
  /// The resolved compiler command ("" when unavailable).
  static std::string compiler_command();
  /// First line of `<cc> --version` ("" when unavailable).
  static std::string compiler_version();
  /// Disk cache directory (created on demand by get()).
  static std::string cache_dir();

 private:
  struct Entry;
  std::shared_ptr<const NativeKernel> load_or_compile(
      const std::string& source, const std::string& hash,
      const CompiledKernel& kernel, Precision precision, std::size_t lanes,
      bool* disk_hit, bool* repaired, double* compile_ms, std::string* error);

  mutable std::mutex mu_;
  /// Keyed by the bytes of the emitter's inputs (memo_key in codegen.cpp).
  std::unordered_map<std::string, std::shared_ptr<Entry>> memo_;
  CodegenStats stats_;
  std::string last_error_;
};

/// Resolves a requested tier to the one the engine will run: kAuto becomes
/// kNative when a compiler is available (else kInterpreter, without touching
/// the cache), and an explicit kNative that cannot be satisfied falls back
/// to kInterpreter (counted in CodegenStats::fallbacks). On a kNative result
/// `*out_native` holds the loaded kernel.
[[nodiscard]] ExecTier resolve_exec_tier(
    ExecTier requested, const CompiledKernel& kernel, Precision precision,
    std::size_t lanes, std::shared_ptr<const NativeKernel>* out_native);

}  // namespace citl::cgra
