#include "storage/compression.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "storage/column.h"
#include "storage/datagen.h"

namespace avm {
namespace {

// ---------------------------------------------------------------------------
// Round-trip property: for every applicable (scheme, distribution) pair,
// decode(encode(v)) == v, full-block and arbitrary sub-ranges.
// ---------------------------------------------------------------------------

struct SchemeCase {
  Scheme scheme;
  const char* data_kind;  // uniform | runs | sorted | narrow | fewdistinct
};

class IntSchemeRoundTrip
    : public ::testing::TestWithParam<std::tuple<Scheme, const char*>> {};

std::vector<int64_t> MakeData(const char* kind, size_t n) {
  DataGen gen(1234);
  if (std::string(kind) == "uniform") return gen.UniformI64(n, -1e9, 1e9);
  if (std::string(kind) == "runs") return gen.RunsI64(n, 50, 8.0);
  if (std::string(kind) == "sorted") return gen.SortedI64(n, 0, 1e12);
  if (std::string(kind) == "narrow") return gen.UniformI64(n, 1000, 1100);
  return gen.UniformI64(n, 0, 15);  // fewdistinct
}

TEST_P(IntSchemeRoundTrip, FullBlock) {
  auto [scheme, kind] = GetParam();
  auto values = MakeData(kind, 4096);
  auto blk = EncodeBlock(scheme, TypeId::kI64, values.data(), 4096);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  std::vector<int64_t> out(4096);
  ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
  EXPECT_EQ(values, out) << SchemeName(scheme) << " over " << kind;
}

TEST_P(IntSchemeRoundTrip, SubRanges) {
  auto [scheme, kind] = GetParam();
  auto values = MakeData(kind, 1000);
  auto blk = EncodeBlock(scheme, TypeId::kI64, values.data(), 1000);
  ASSERT_TRUE(blk.ok());
  for (auto [off, len] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 1}, {999, 1}, {17, 100}, {500, 500}, {0, 1000}}) {
    std::vector<int64_t> out(len);
    ASSERT_TRUE(DecodeBlockRange(blk.value(), off, len, out.data()).ok());
    for (uint32_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], values[off + i])
          << SchemeName(scheme) << " " << kind << " off=" << off << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, IntSchemeRoundTrip,
    ::testing::Combine(::testing::Values(Scheme::kPlain, Scheme::kRle,
                                         Scheme::kDict, Scheme::kFor,
                                         Scheme::kDelta),
                       ::testing::Values("uniform", "runs", "sorted", "narrow",
                                         "fewdistinct")));

// Per-type round trip through the auto-chosen scheme.
class TypedAutoRoundTrip : public ::testing::TestWithParam<TypeId> {};

TEST_P(TypedAutoRoundTrip, AutoEncodeDecodes) {
  TypeId t = GetParam();
  const uint32_t n = 2048;
  DataGen gen(99);
  auto wide = gen.UniformI64(n, -100, 100);
  std::vector<uint8_t> raw(n * TypeWidth(t));
  DispatchType(t, [&]<typename T>() {
    if constexpr (std::is_same_v<T, bool>) {
      auto* p = reinterpret_cast<int8_t*>(raw.data());
      for (uint32_t i = 0; i < n; ++i) p[i] = wide[i] > 0 ? 1 : 0;
    } else {
      auto* p = reinterpret_cast<T*>(raw.data());
      for (uint32_t i = 0; i < n; ++i) p[i] = static_cast<T>(wide[i]);
    }
  });
  auto blk = EncodeBlockAuto(t, raw.data(), n);
  ASSERT_TRUE(blk.ok()) << blk.status().ToString();
  std::vector<uint8_t> out(raw.size());
  ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
  EXPECT_EQ(raw, out) << TypeName(t) << " via "
                      << SchemeName(blk.value().scheme);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TypedAutoRoundTrip,
                         ::testing::Values(TypeId::kBool, TypeId::kI8,
                                           TypeId::kI16, TypeId::kI32,
                                           TypeId::kI64, TypeId::kF32,
                                           TypeId::kF64));

// ---------------------------------------------------------------------------
// Stats & scheme choice
// ---------------------------------------------------------------------------

TEST(StatsTest, MinMaxSortedRuns) {
  std::vector<int64_t> v{1, 1, 1, 2, 2, 3};
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 6);
  EXPECT_EQ(s.min_i, 1);
  EXPECT_EQ(s.max_i, 3);
  EXPECT_TRUE(s.sorted);
  EXPECT_EQ(s.distinct, 3u);
  EXPECT_DOUBLE_EQ(s.avg_run_len, 2.0);
}

TEST(StatsTest, UnsortedDetected) {
  std::vector<int64_t> v{3, 1, 2};
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 3);
  EXPECT_FALSE(s.sorted);
}

TEST(SchemeChoiceTest, LongRunsPickRle) {
  DataGen gen(1);
  auto v = gen.RunsI64(4096, 10, 16.0);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kRle);
}

TEST(SchemeChoiceTest, NarrowRangePicksFor) {
  DataGen gen(2);
  auto v = gen.UniformI64(4096, 1000000, 1000250);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kFor);
}

TEST(SchemeChoiceTest, SortedPicksDelta) {
  DataGen gen(3);
  auto v = gen.SortedI64(4096, 0, int64_t{1} << 40);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kDelta);
}

TEST(SchemeChoiceTest, WideRandomPicksPlainOrDict) {
  DataGen gen(4);
  auto v = gen.UniformI64(4096, INT64_MIN / 2, INT64_MAX / 2);
  BlockStats s = ComputeStats(TypeId::kI64, v.data(), 4096);
  EXPECT_EQ(ChooseScheme(TypeId::kI64, s, 4096), Scheme::kPlain);
}

TEST(CompressionRatioTest, ForBeatsPlainOnNarrowData) {
  DataGen gen(5);
  auto v = gen.UniformI64(65536, 0, 255);
  auto plain = EncodeBlock(Scheme::kPlain, TypeId::kI64, v.data(), 65536);
  auto forb = EncodeBlock(Scheme::kFor, TypeId::kI64, v.data(), 65536);
  ASSERT_TRUE(plain.ok() && forb.ok());
  EXPECT_LT(forb.value().data.size(), plain.value().data.size() / 4);
}

// ---------------------------------------------------------------------------
// Compressed-execution accessors
// ---------------------------------------------------------------------------

TEST(ForAccessorTest, DeltasPlusRefReconstruct) {
  std::vector<int64_t> v{100, 105, 103, 100, 110};
  auto blk = EncodeBlock(Scheme::kFor, TypeId::kI64, v.data(), 5);
  ASSERT_TRUE(blk.ok());
  EXPECT_EQ(blk.value().for_ref, 100);
  std::vector<uint64_t> deltas(5);
  ASSERT_TRUE(DecodeForDeltas(blk.value(), deltas.data()).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(blk.value().for_ref + static_cast<int64_t>(deltas[i]), v[i]);
  }
}

TEST(ForAccessorTest, Range32) {
  DataGen gen(6);
  auto v = gen.UniformI64(1000, 5000, 9000);
  auto blk = EncodeBlock(Scheme::kFor, TypeId::kI64, v.data(), 1000);
  ASSERT_TRUE(blk.ok());
  ASSERT_LE(blk.value().bit_width, 32u);
  std::vector<uint32_t> d(100);
  ASSERT_TRUE(DecodeForDeltasRange32(blk.value(), 50, 100, d.data()).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(blk.value().for_ref + static_cast<int64_t>(d[i]), v[50 + i]);
  }
}

TEST(ForAccessorTest, RejectsWrongScheme) {
  std::vector<int64_t> v{1, 2, 3};
  auto blk = EncodeBlock(Scheme::kPlain, TypeId::kI64, v.data(), 3);
  std::vector<uint64_t> d(3);
  EXPECT_TRUE(DecodeForDeltas(blk.value(), d.data()).IsInvalidArgument());
}

TEST(RleAccessorTest, RunsMatch) {
  std::vector<int64_t> v{7, 7, 7, 2, 2, 9};
  auto blk = EncodeBlock(Scheme::kRle, TypeId::kI64, v.data(), 6);
  ASSERT_TRUE(blk.ok());
  std::vector<int64_t> values;
  std::vector<uint32_t> lengths;
  ASSERT_TRUE(DecodeRleRuns(blk.value(), &values, &lengths).ok());
  EXPECT_EQ(values, (std::vector<int64_t>{7, 2, 9}));
  EXPECT_EQ(lengths, (std::vector<uint32_t>{3, 2, 1}));
}

TEST(DictAccessorTest, DictionaryAndCodes) {
  std::vector<int64_t> v{50, 60, 50, 70, 60};
  auto blk = EncodeBlock(Scheme::kDict, TypeId::kI64, v.data(), 5);
  ASSERT_TRUE(blk.ok());
  std::vector<int64_t> dict;
  ASSERT_TRUE(DecodeDictionary(blk.value(), &dict).ok());
  EXPECT_EQ(dict, (std::vector<int64_t>{50, 60, 70}));
  std::vector<uint32_t> codes(5);
  ASSERT_TRUE(DecodeDictCodes(blk.value(), codes.data()).ok());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dict[codes[i]], v[i]);
}

TEST(DecodeRangeTest, OutOfRangeRejected) {
  std::vector<int64_t> v{1, 2, 3};
  auto blk = EncodeBlock(Scheme::kPlain, TypeId::kI64, v.data(), 3);
  int64_t out[4];
  EXPECT_TRUE(DecodeBlockRange(blk.value(), 2, 2, out).IsOutOfRange());
}

TEST(FloatTest, RleAndDictRoundTrip) {
  std::vector<double> v{1.5, 1.5, 2.5, 2.5, 2.5, 1.5};
  for (Scheme s : {Scheme::kRle, Scheme::kDict, Scheme::kPlain}) {
    auto blk = EncodeBlock(s, TypeId::kF64, v.data(), 6);
    ASSERT_TRUE(blk.ok()) << SchemeName(s);
    std::vector<double> out(6);
    ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
    EXPECT_EQ(v, out) << SchemeName(s);
  }
}

TEST(FloatTest, ForRejectedForFloats) {
  std::vector<double> v{1.0, 2.0};
  EXPECT_FALSE(EncodeBlock(Scheme::kFor, TypeId::kF64, v.data(), 2).ok());
}

TEST(EdgeTest, EmptyBlock) {
  auto blk = EncodeBlock(Scheme::kPlain, TypeId::kI64, nullptr, 0);
  ASSERT_TRUE(blk.ok());
  EXPECT_EQ(blk.value().count, 0u);
}

TEST(EdgeTest, SingleValueAllSchemes) {
  int64_t v = -42;
  for (Scheme s : {Scheme::kPlain, Scheme::kRle, Scheme::kDict, Scheme::kFor,
                   Scheme::kDelta}) {
    auto blk = EncodeBlock(s, TypeId::kI64, &v, 1);
    ASSERT_TRUE(blk.ok()) << SchemeName(s);
    int64_t out = 0;
    ASSERT_TRUE(DecodeBlock(blk.value(), &out).ok());
    EXPECT_EQ(out, -42) << SchemeName(s);
  }
}

TEST(EdgeTest, ExtremeValuesFor) {
  std::vector<int64_t> v{INT64_MIN, INT64_MAX};
  auto blk = EncodeBlock(Scheme::kFor, TypeId::kI64, v.data(), 2);
  ASSERT_TRUE(blk.ok());
  std::vector<int64_t> out(2);
  ASSERT_TRUE(DecodeBlock(blk.value(), out.data()).ok());
  EXPECT_EQ(v, out);
}

// ---------------------------------------------------------------------------
// DecodeBlockRange parity for every scheme x type: each window (including the
// block's last window) must equal the encoded values narrowed to the column
// type, and reads spanning two blocks must agree through Column::Read and
// ColumnChunkCursor. Block payloads are shrunk to their exact size so an ASan
// build reports any decoder read past the packed payload.
// ---------------------------------------------------------------------------

// Values for a column of `t` in the raw layout the column stores (bool as
// one 0/1 byte). `wide` draws from (most of) the type's range so FOR/Delta
// widths exceed the kernel's word path; otherwise values are narrow.
std::vector<uint8_t> MakeTypedValues(TypeId t, uint32_t n, bool wide,
                                     uint64_t seed) {
  DataGen gen(seed);
  std::vector<uint8_t> raw(static_cast<size_t>(n) * TypeWidth(t));
  DispatchType(t, [&]<typename T>() {
    T* out = reinterpret_cast<T*>(raw.data());
    if constexpr (std::is_same_v<T, bool>) {
      auto v = gen.UniformI64(n, 0, 1);
      for (uint32_t i = 0; i < n; ++i) out[i] = v[i] != 0;
    } else if constexpr (std::is_floating_point_v<T>) {
      auto v = gen.UniformI64(n, -20, 20);
      for (uint32_t i = 0; i < n; ++i) out[i] = static_cast<T>(v[i]) / 4;
    } else {
      // i64 stays within +-2^61 so the encoder's differences fit.
      const int64_t hi =
          std::is_same_v<T, int64_t>
              ? (int64_t{1} << 61)
              : static_cast<int64_t>(std::numeric_limits<T>::max());
      const int64_t lo = std::is_same_v<T, int64_t>
                             ? -hi
                             : static_cast<int64_t>(std::numeric_limits<T>::min());
      auto v = wide ? gen.UniformI64(n, lo, hi) : gen.UniformI64(n, 0, 90);
      for (uint32_t i = 0; i < n; ++i) out[i] = static_cast<T>(v[i]);
    }
  });
  return raw;
}

std::vector<Scheme> SchemesFor(TypeId t) {
  if (IsFloatType(t)) return {Scheme::kPlain, Scheme::kRle, Scheme::kDict};
  return {Scheme::kPlain, Scheme::kRle, Scheme::kDict, Scheme::kFor,
          Scheme::kDelta};
}

class DecodeParity : public ::testing::TestWithParam<TypeId> {};

TEST_P(DecodeParity, WindowsMatchEncodedValues) {
  const TypeId t = GetParam();
  const size_t w = TypeWidth(t);
  constexpr uint32_t kN = 1000;
  for (bool wide : {false, true}) {
    std::vector<uint8_t> raw = MakeTypedValues(t, kN, wide, 77);
    for (Scheme s : SchemesFor(t)) {
      auto encoded = EncodeBlock(s, t, raw.data(), kN);
      ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
      Block b = std::move(encoded).value();
      b.data.shrink_to_fit();
      const std::pair<uint32_t, uint32_t> windows[] = {
          {0, kN},     {kN - 1, 1},  {kN - 7, 7}, {kN - 64, 64},
          {kN - 333, 333}, {1, 63},  {500, 0},    {123, 456}};
      for (auto [off, len] : windows) {
        std::vector<uint8_t> out(static_cast<size_t>(len) * w + 1, 0xab);
        ASSERT_TRUE(DecodeBlockRange(b, off, len, out.data()).ok());
        EXPECT_EQ(std::memcmp(out.data(), raw.data() + off * w, len * w), 0)
            << TypeName(t) << " " << SchemeName(s) << " wide=" << wide
            << " [" << off << ", +" << len << ")";
        EXPECT_EQ(out.back(), 0xab) << "decode wrote past its window";
      }
    }
  }
}

TEST_P(DecodeParity, ReadsSpanningTwoBlocks) {
  const TypeId t = GetParam();
  const size_t w = TypeWidth(t);
  constexpr uint32_t kBlock = 600;
  for (Scheme s : SchemesFor(t)) {
    std::vector<uint8_t> raw = MakeTypedValues(t, 2 * kBlock, true, 91);
    Column col(t, kBlock);
    ASSERT_TRUE(col.AppendBlockWithScheme(s, raw.data(), kBlock).ok());
    ASSERT_TRUE(
        col.AppendBlockWithScheme(s, raw.data() + kBlock * w, kBlock).ok());
    ColumnChunkCursor cursor(&col);
    for (auto [row, len] : {std::pair<uint64_t, uint32_t>{kBlock - 1, 2},
                            {kBlock - 300, 600},
                            {0, 2 * kBlock},
                            {2 * kBlock - 5, 5}}) {
      std::vector<uint8_t> via_read(static_cast<size_t>(len) * w);
      std::vector<uint8_t> via_cursor(via_read.size());
      ASSERT_TRUE(col.Read(row, len, via_read.data()).ok());
      ASSERT_TRUE(cursor.ReadAt(row, len, via_cursor.data()).ok());
      EXPECT_EQ(std::memcmp(via_read.data(), raw.data() + row * w, len * w), 0)
          << TypeName(t) << " " << SchemeName(s) << " row=" << row;
      EXPECT_EQ(via_cursor, via_read) << TypeName(t) << " " << SchemeName(s);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DecodeParity,
                         ::testing::Values(TypeId::kBool, TypeId::kI8,
                                           TypeId::kI16, TypeId::kI32,
                                           TypeId::kI64, TypeId::kF32,
                                           TypeId::kF64));

}  // namespace
}  // namespace avm
