#include "storage/column.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "storage/datagen.h"
#include "storage/table.h"

namespace avm {
namespace {

TEST(ColumnTest, AppendSplitsIntoBlocks) {
  Column col(TypeId::kI64, /*block_size=*/1000);
  DataGen gen(1);
  auto v = gen.UniformI64(3500, 0, 100);
  ASSERT_TRUE(col.AppendValues(v.data(), 3500).ok());
  EXPECT_EQ(col.num_rows(), 3500u);
  EXPECT_EQ(col.num_blocks(), 4u);
  EXPECT_EQ(col.block(0).count, 1000u);
  EXPECT_EQ(col.block(3).count, 500u);
}

TEST(ColumnTest, ReadSpansBlocks) {
  Column col(TypeId::kI64, 100);
  std::vector<int64_t> v(1000);
  for (int i = 0; i < 1000; ++i) v[i] = i * 3;
  ASSERT_TRUE(col.AppendValues(v.data(), 1000).ok());
  std::vector<int64_t> out(250);
  ASSERT_TRUE(col.Read(75, 250, out.data()).ok());
  for (int i = 0; i < 250; ++i) EXPECT_EQ(out[i], (75 + i) * 3);
}

TEST(ColumnTest, ReadPastEndRejected) {
  Column col(TypeId::kI32, 10);
  std::vector<int32_t> v(10, 1);
  ASSERT_TRUE(col.AppendValues(v.data(), 10).ok());
  int32_t out[5];
  EXPECT_TRUE(col.Read(8, 5, out).IsOutOfRange());
}

TEST(ColumnTest, PerBlockSchemesCanDiffer) {
  Column col(TypeId::kI64, 1000);
  DataGen gen(2);
  auto narrow = gen.UniformI64(1000, 0, 50);          // FOR
  auto runs = gen.RunsI64(1000, 5, 20.0);             // RLE
  auto wide = gen.UniformI64(1000, INT64_MIN / 2, INT64_MAX / 2);  // Plain
  ASSERT_TRUE(col.AppendValues(narrow.data(), 1000).ok());
  ASSERT_TRUE(col.AppendValues(runs.data(), 1000).ok());
  ASSERT_TRUE(col.AppendValues(wide.data(), 1000).ok());
  ASSERT_EQ(col.num_blocks(), 3u);
  EXPECT_NE(col.block(0).scheme, col.block(2).scheme);
  auto s0 = col.SchemeAt(500);
  auto s2 = col.SchemeAt(2500);
  ASSERT_TRUE(s0.ok() && s2.ok());
  EXPECT_EQ(s0.value(), col.block(0).scheme);
  EXPECT_EQ(s2.value(), col.block(2).scheme);
}

TEST(ColumnTest, ForcedSchemePerBlock) {
  Column col(TypeId::kI64, 100);
  std::vector<int64_t> v(100, 7);
  ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kPlain, v.data(), 100).ok());
  ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kRle, v.data(), 100).ok());
  EXPECT_EQ(col.block(0).scheme, Scheme::kPlain);
  EXPECT_EQ(col.block(1).scheme, Scheme::kRle);
}

TEST(ColumnTest, BlockAtFindsOffsets) {
  Column col(TypeId::kI64, 100);
  std::vector<int64_t> v(250, 1);
  ASSERT_TRUE(col.AppendValues(v.data(), 250).ok());
  auto b = col.BlockAt(150);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().first, &col.block(1));
  EXPECT_EQ(b.value().second, 50u);
  EXPECT_TRUE(col.BlockAt(250).status().IsOutOfRange());
}

TEST(ColumnTest, CompressionRatioReported) {
  Column col(TypeId::kI64, 4096);
  DataGen gen(3);
  auto v = gen.UniformI64(65536, 0, 100);
  ASSERT_TRUE(col.AppendValues(v.data(), 65536).ok());
  EXPECT_GT(col.CompressionRatio(), 4.0);
}

TEST(ChunkCursorTest, SequentialChunksMatchColumn) {
  Column col(TypeId::kI64, 777);  // deliberately unaligned block size
  std::vector<int64_t> v(5000);
  for (int i = 0; i < 5000; ++i) v[i] = i;
  ASSERT_TRUE(col.AppendValues(v.data(), 5000).ok());

  ColumnChunkCursor cursor(&col);
  std::vector<int64_t> got;
  std::vector<int64_t> buf(1024);
  for (uint64_t row = 0; row < col.num_rows(); row += 1024) {
    const uint32_t take =
        static_cast<uint32_t>(std::min<uint64_t>(1024, col.num_rows() - row));
    Scheme s;
    ASSERT_TRUE(cursor.ReadAt(row, take, buf.data(), &s).ok());
    EXPECT_EQ(s, col.SchemeAt(row).value());
    got.insert(got.end(), buf.begin(), buf.begin() + take);
  }
  EXPECT_EQ(got, v);
  // A forward scan decodes every block exactly once.
  EXPECT_EQ(cursor.blocks_decoded(), col.num_blocks());
}

TEST(ChunkCursorTest, SeekBackRestarts) {
  Column col(TypeId::kI64, 100);
  std::vector<int64_t> v(300);
  for (int i = 0; i < 300; ++i) v[i] = i;
  ASSERT_TRUE(col.AppendValues(v.data(), 300).ok());
  ColumnChunkCursor cursor(&col);
  std::vector<int64_t> buf(300);
  ASSERT_TRUE(cursor.ReadAt(0, 300, buf.data()).ok());
  ASSERT_TRUE(cursor.ReadAt(0, 10, buf.data()).ok());
  EXPECT_EQ(buf[9], 9);
  EXPECT_TRUE(cursor.ReadAt(295, 10, buf.data()).IsOutOfRange());
}

TEST(TableTest, SchemaLookupAndRowCount) {
  Schema schema({{"a", TypeId::kI64}, {"b", TypeId::kF64}});
  Table t(schema, 100);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.schema().FieldIndex("b"), 1);
  EXPECT_EQ(t.schema().FieldIndex("zz"), -1);
  std::vector<int64_t> a(50, 1);
  ASSERT_TRUE(t.column(0).AppendValues(a.data(), 50).ok());
  EXPECT_EQ(t.num_rows(), 50u);
  EXPECT_TRUE(t.ColumnByName("a").ok());
  EXPECT_TRUE(t.ColumnByName("c").status().IsNotFound());
}

}  // namespace
}  // namespace avm
