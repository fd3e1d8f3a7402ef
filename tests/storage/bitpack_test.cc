#include "storage/bitpack.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "util/rng.h"

namespace avm {
namespace {

class BitPackWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitPackWidthTest, RoundTripsRandomValues) {
  const uint32_t width = GetParam();
  Rng rng(width + 1);
  const size_t n = 257;  // odd size exercises straddling boundaries
  std::vector<uint64_t> values(n);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0}
                  : (width == 0 ? 0 : (uint64_t{1} << width) - 1);
  for (auto& v : values) v = rng.Next() & mask;

  std::vector<uint8_t> packed;
  BitPack(values.data(), n, width, &packed);
  std::vector<uint64_t> decoded(n, 0xdeadbeef);
  BitUnpack(packed.data(), packed.size(), n, width, decoded.data());
  EXPECT_EQ(values, decoded) << "width=" << width;
}

TEST_P(BitPackWidthTest, RandomAccessDecode) {
  const uint32_t width = GetParam();
  if (width == 0) return;
  Rng rng(width * 7 + 3);
  const size_t n = 100;
  std::vector<uint64_t> values(n);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  for (auto& v : values) v = rng.Next() & mask;
  std::vector<uint8_t> packed;
  BitPack(values.data(), n, width, &packed);
  // Decode a middle range only.
  std::vector<uint64_t> part(20);
  BitUnpackAt(packed.data(), packed.size(), 37, 20, width, part.data());
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(part[i], values[37 + i]);
}

// Kernel parity against the ReadBits reference: every start offset, ranges
// ending on the payload's last field, payload tails at every bit alignment.
// The payload is copied into a heap buffer of exactly the length the kernel
// is told — both the BitPackedBytes length (1 slack byte) and the slack-free
// length — so an ASan build reports any read past the payload.
TEST_P(BitPackWidthTest, UnpackRangeMatchesReadBitsAtPayloadEnd) {
  const uint32_t width = GetParam();
  Rng rng(width * 13 + 5);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0}
                  : (width == 0 ? 0 : (uint64_t{1} << width) - 1);
  for (size_t total = 64; total <= 72; ++total) {
    std::vector<uint64_t> values(total);
    for (auto& v : values) v = rng.Next() & mask;
    std::vector<uint8_t> packed;
    BitPack(values.data(), total, width, &packed);
    const size_t exact = width == 0 ? 0 : BitPackedBytes(total, width);
    ASSERT_EQ(packed.size(), exact);
    for (size_t bytes : {exact, (total * width + 7) / 8}) {
      auto payload = std::make_unique<uint8_t[]>(bytes);
      if (bytes > 0) std::memcpy(payload.get(), packed.data(), bytes);
      for (size_t first = 0; first < 64; ++first) {
        const size_t n = total - first;
        std::vector<uint64_t> got(n, 0xdeadbeef);
        UnpackRange(payload.get(), bytes, first, n, width,
                    [&](size_t i, uint64_t v) { got[i] = v; });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], ReadBits(payload.get(), (first + i) * width, width))
              << "width=" << width << " total=" << total << " bytes=" << bytes
              << " first=" << first << " i=" << i;
          ASSERT_EQ(got[i], values[first + i]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitPackWidthTest,
                         ::testing::Range(0u, 65u));

TEST(BitPackTest, WidthZeroDecodesZeros) {
  std::vector<uint8_t> packed;
  uint64_t v[4] = {0, 0, 0, 0};
  BitPack(v, 4, 0, &packed);
  EXPECT_TRUE(packed.empty());
  uint64_t out[4] = {9, 9, 9, 9};
  BitUnpack(packed.data(), packed.size(), 4, 0, out);
  for (uint64_t x : out) EXPECT_EQ(x, 0u);
}

TEST(BitPackTest, AppendsToExistingBuffer) {
  std::vector<uint8_t> buf{0xff, 0xee};
  uint64_t v[2] = {5, 6};
  BitPack(v, 2, 4, &buf);
  EXPECT_EQ(buf[0], 0xff);
  EXPECT_EQ(buf[1], 0xee);
  uint64_t out[2];
  BitUnpack(buf.data() + 2, buf.size() - 2, 2, 4, out);
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 6u);
}

TEST(ZigzagTest, RoundTripsSignedValues) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{123456},
                    int64_t{-123456}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(ZigzagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  EXPECT_EQ(ZigzagEncode(2), 4u);
}

}  // namespace
}  // namespace avm
