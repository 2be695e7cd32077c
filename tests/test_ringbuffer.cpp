// Dual-port capture buffer (§III-B): retention window, interpolated reads.
#include <gtest/gtest.h>

#include <cmath>

#include "core/units.hpp"
#include "sig/ringbuffer.hpp"

namespace citl::sig {
namespace {

TEST(CaptureBuffer, PaperCapacity) {
  CaptureBuffer buf(13);
  EXPECT_EQ(buf.capacity(), 8192u);  // 2^13 samples (§III-B)
  // At 250 MHz, 8192 samples hold 32.8 µs — at least two periods of any
  // reference down to 61 kHz (paper requires 100 kHz).
  const double window_s = 8192.0 / 250.0e6;
  EXPECT_GT(window_s, 2.0 / 100.0e3 * 0.6);
}

TEST(CaptureBuffer, ReadsBackWrites) {
  CaptureBuffer buf(4);
  for (Tick t = 0; t < 10; ++t) buf.write(t, static_cast<double>(t) * 1.5);
  for (Tick t = 0; t < 10; ++t) {
    EXPECT_DOUBLE_EQ(buf.read(t), static_cast<double>(t) * 1.5);
  }
}

TEST(CaptureBuffer, OverwritesOldestAfterWrap) {
  CaptureBuffer buf(3);  // 8 deep
  for (Tick t = 0; t < 20; ++t) buf.write(t, static_cast<double>(t));
  EXPECT_EQ(buf.oldest(), 12);
  EXPECT_EQ(buf.newest(), 19);
  EXPECT_DOUBLE_EQ(buf.read(12), 12.0);
  EXPECT_DOUBLE_EQ(buf.read(19), 19.0);
  EXPECT_FALSE(buf.retained(11));
  EXPECT_THROW((void)buf.read(11), std::logic_error);
  EXPECT_THROW((void)buf.read(20), std::logic_error);
}

TEST(CaptureBuffer, RetainedWindowBeforeWrap) {
  CaptureBuffer buf(5);
  EXPECT_EQ(buf.size(), 0u);
  buf.write(0, 1.0);
  EXPECT_TRUE(buf.retained(0));
  EXPECT_FALSE(buf.retained(1));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(CaptureBuffer, InterpolatedReadIsLinear) {
  CaptureBuffer buf(4);
  for (Tick t = 0; t < 16; ++t) buf.write(t, static_cast<double>(t) * 2.0);
  EXPECT_DOUBLE_EQ(buf.read_interpolated(3.0), 6.0);
  EXPECT_DOUBLE_EQ(buf.read_interpolated(3.5), 7.0);
  EXPECT_DOUBLE_EQ(buf.read_interpolated(3.25), 6.5);
}

TEST(CaptureBuffer, InterpolationAccuracyOnSine) {
  // §IV-B: interpolation exists because ΔT is rarely an integer number of
  // sample periods. On a 800 kHz sine at 250 MHz, linear interpolation at
  // half-sample offsets is ~5e-5 accurate, nearest-sample is ~100x worse.
  CaptureBuffer buf(13);
  const double f = 800.0e3;
  const double fs = 250.0e6;
  for (Tick t = 0; t < 8192; ++t) {
    buf.write(t, std::sin(kTwoPi * f * static_cast<double>(t) / fs));
  }
  double worst_interp = 0.0, worst_nearest = 0.0;
  for (double x = 100.25; x < 8000.0; x += 13.5) {
    const double truth = std::sin(kTwoPi * f * x / fs);
    worst_interp = std::max(worst_interp,
                            std::abs(buf.read_interpolated(x) - truth));
    worst_nearest =
        std::max(worst_nearest, std::abs(buf.read_nearest(x) - truth));
  }
  EXPECT_LT(worst_interp, 1e-4);
  EXPECT_GT(worst_nearest, 20.0 * worst_interp);
}

TEST(CaptureBuffer, IntegerTickInterpolatedNeedsNoNeighbour) {
  CaptureBuffer buf(3);
  buf.write(0, 5.0);
  // Exactly at tick 0 with no tick 1 captured yet: no neighbour needed.
  EXPECT_DOUBLE_EQ(buf.read_interpolated(0.0), 5.0);
}

TEST(CaptureBuffer, FillCountSaturatesAtFullCapacity) {
  // Audit of the `count_ <= mask_` saturation in write(): the guard admits
  // increments up to count_ == mask_ + 1 == capacity(), so a full buffer
  // really does report size() == capacity() (no off-by-one that would
  // understate the retained window by a sample).
  CaptureBuffer buf(2);  // 4 deep
  EXPECT_EQ(buf.capacity(), 4u);
  for (Tick t = 0; t < 3; ++t) buf.write(t, static_cast<double>(t));
  EXPECT_EQ(buf.size(), 3u);  // partially filled: count tracks writes
  buf.write(3, 3.0);
  EXPECT_EQ(buf.size(), buf.capacity());  // exactly full on the 4th write
  EXPECT_EQ(buf.oldest(), 0);
  EXPECT_TRUE(buf.retained(0));  // the whole depth is still readable
  EXPECT_TRUE(buf.retained(3));
  buf.write(4, 4.0);  // first overwrite: count saturates, window slides
  EXPECT_EQ(buf.size(), buf.capacity());
  EXPECT_EQ(buf.oldest(), 1);
  EXPECT_FALSE(buf.retained(0));
  EXPECT_TRUE(buf.retained(4));
}

TEST(CaptureBuffer, RetainedWindowSpansCapacityAcrossWrap) {
  // Wraparound regression for the §III-B sizing guarantee: once the buffer
  // has wrapped (many times over), the retained window must still span the
  // full capacity — at depth 13 that is ≥ 2 reference periods down to
  // 61 kHz, which the period detector and the CGRA's interpolated reads
  // rely on.
  CaptureBuffer buf(4);  // 16 deep
  for (Tick t = 0; t < 100; ++t) buf.write(t, static_cast<double>(t) * 0.5);
  EXPECT_EQ(buf.size(), buf.capacity());
  EXPECT_EQ(buf.newest() - buf.oldest() + 1,
            static_cast<Tick>(buf.capacity()));
  // Every retained tick reads back the value written for that tick.
  for (Tick t = buf.oldest(); t <= buf.newest(); ++t) {
    EXPECT_DOUBLE_EQ(buf.read(t), static_cast<double>(t) * 0.5);
  }
  EXPECT_FALSE(buf.retained(buf.oldest() - 1));
  EXPECT_FALSE(buf.retained(buf.newest() + 1));
}

TEST(CaptureBuffer, RejectsSillyDepths) {
  EXPECT_THROW(CaptureBuffer(1), std::logic_error);
  EXPECT_THROW(CaptureBuffer(30), std::logic_error);
}

}  // namespace
}  // namespace citl::sig
