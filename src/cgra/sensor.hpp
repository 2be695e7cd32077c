// SensorAccess (§III-C): the memory-mapped bus between the CGRA and the
// surrounding framework. Kernels compute a single float address; the bus
// splits it into a region (ring buffers, detectors, actuators, ...) and a
// signed offset within the region.
//
// Encoding: address = region * 65536 + 32768 + offset, offset in
// [-32768, 32768). The bias makes negative offsets (samples *before* the
// zero crossing — early particles) valid, which the paper's double-period
// ring buffers exist to support. All values stay integer-exact in binary32.
//
// Region map:
//   0 PERIOD    read : offset 0 = averaged reference period [s]
//                      offset 1 = reference frequency [Hz]
//   1 REF_BUF   read : offset   = capture-clock ticks relative to the last
//                                 positive zero crossing; returns the raw
//                                 reference-channel ADC sample [V]
//   2 GAP_BUF   read : same, gap channel
//   3 ACTUATOR  write: offset j = arrival time of bunch j relative to the
//                                 zero crossing [s]; arms the Gauss pulse
//                                 timer for that bunch
//   4 MONITOR   write: offset 0 = value mirrored on the monitoring DAC
#pragma once

#include <cmath>
#include <cstdint>

namespace citl::cgra {

inline constexpr double kRegionSize = 65536.0;
inline constexpr double kRegionBias = 32768.0;

enum class SensorRegion : std::uint32_t {
  kPeriod = 0,
  kRefBuf = 1,
  kGapBuf = 2,
  kActuator = 3,
  kMonitor = 4,
};

/// Base address (as a kernel-language literal) of a region: add the signed
/// offset to this.
[[nodiscard]] constexpr double region_base(SensorRegion r) noexcept {
  return static_cast<double>(static_cast<std::uint32_t>(r)) * kRegionSize +
         kRegionBias;
}

/// Splits a raw kernel address into (region, signed offset).
struct DecodedAddress {
  SensorRegion region;
  double offset;
};

/// The region is floor(addr / kRegionSize), clamped at 0, and found without
/// a libm floor call (the bus decodes every computed address): a quotient
/// below 1 (negative, -0.0 and NaN included) gives 0, truncation is floor on
/// [1, 2^52), and every double from 2^52 up is integral. The offset has the
/// same bits as with std::floor for every finite address. A region index
/// past 2^32 - 1 decodes to UINT32_MAX, which names no region.
[[nodiscard]] inline DecodedAddress decode_address(double addr) noexcept {
  const double q = addr / kRegionSize;
  double r = 0.0;
  if (q >= 0x1p52) {
    r = q;
  } else if (q >= 1.0) {
    r = static_cast<double>(static_cast<std::int64_t>(q));
  }
  const std::uint32_t region =
      r < 0x1p32 ? static_cast<std::uint32_t>(r) : UINT32_MAX;
  return DecodedAddress{static_cast<SensorRegion>(region),
                        addr - r * kRegionSize - kRegionBias};
}

/// The bus the CGRA machine drives. The HIL framework implements it backed
/// by the capture buffers, detectors and pulse generators; tests implement
/// scripted versions.
class SensorBus {
 public:
  virtual ~SensorBus() = default;
  [[nodiscard]] virtual double read(SensorRegion region, double offset) = 0;
  virtual void write(SensorRegion region, double offset, double value) = 0;
};

/// A bus that reads zeros and ignores writes — for pure-dataflow kernels.
class NullSensorBus final : public SensorBus {
 public:
  [[nodiscard]] double read(SensorRegion, double) override { return 0.0; }
  void write(SensorRegion, double, double) override {}
};

}  // namespace citl::cgra
