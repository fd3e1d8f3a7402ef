#include "relational/join.h"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.h"

namespace avm::relational {
namespace {

TEST(HashSetTest, InsertContains) {
  HashSetI64 set;
  for (int64_t k : {5, -7, 0, 123456789}) set.Insert(k);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.Contains(5));
  EXPECT_TRUE(set.Contains(-7));
  EXPECT_FALSE(set.Contains(6));
  set.Insert(5);  // duplicate
  EXPECT_EQ(set.size(), 4u);
}

TEST(HashSetTest, GrowsUnderLoad) {
  HashSetI64 set(4);
  Rng rng(1);
  std::set<int64_t> oracle;
  for (int i = 0; i < 10000; ++i) {
    int64_t k = rng.NextInRange(-100000, 100000);
    set.Insert(k);
    oracle.insert(k);
  }
  EXPECT_EQ(set.size(), oracle.size());
  for (int64_t k : oracle) ASSERT_TRUE(set.Contains(k));
  EXPECT_FALSE(set.Contains(999999));
}

TEST(HashJoinTest, ProbeReturnsPayloadRows) {
  HashJoinI64 join;
  join.Insert(100, 7);
  join.Insert(200, 8);
  int64_t keys[4] = {200, 300, 100, 100};
  sel_t pos[4];
  uint32_t rows[4];
  uint32_t n = join.Probe(keys, nullptr, 4, pos, rows);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(pos[0], 0u);
  EXPECT_EQ(rows[0], 8u);
  EXPECT_EQ(pos[1], 2u);
  EXPECT_EQ(rows[1], 7u);
}

TEST(HashJoinTest, DuplicateKeysFanOutInInsertionOrder) {
  HashJoinI64 join;
  join.Insert(100, 1);
  join.Insert(200, 2);
  join.Insert(100, 3);
  join.Insert(100, 5);
  EXPECT_EQ(join.size(), 4u);  // build rows, not distinct keys
  int64_t keys[3] = {100, 300, 100};
  sel_t pos[8];
  uint32_t rows[8];
  uint32_t n = join.Probe(keys, nullptr, 3, pos, rows);
  ASSERT_EQ(n, 6u);  // 3 build rows per matching probe position
  const sel_t want_pos[6] = {0, 0, 0, 2, 2, 2};
  const uint32_t want_rows[6] = {1, 3, 5, 1, 3, 5};
  for (uint32_t j = 0; j < n; ++j) {
    EXPECT_EQ(pos[j], want_pos[j]) << j;
    EXPECT_EQ(rows[j], want_rows[j]) << j;
  }
}

TEST(HashJoinTest, GrowKeepsEntries) {
  HashJoinI64 join(2);
  for (uint32_t i = 0; i < 5000; ++i) {
    join.Insert(static_cast<int64_t>(i) * 3, i);
  }
  EXPECT_EQ(join.size(), 5000u);
  int64_t key = 4500 * 3;
  sel_t pos[1];
  uint32_t row[1];
  ASSERT_EQ(join.Probe(&key, nullptr, 1, pos, row), 1u);
  EXPECT_EQ(row[0], 4500u);
}

TEST(JoinQueryTest, MakeJoinQueryMatchesHashJoinOracle) {
  // The engine-side join must agree with the chained HashJoinI64 probe:
  // one pair per (probe row, matching build row), duplicates fan out.
  const uint64_t n = 80'000;
  Schema ps({{"f_key", TypeId::kI64}, {"f_val", TypeId::kI64}});
  Table probe(ps);
  Rng rng(31);
  std::vector<int64_t> fk(n), fv(n);
  for (uint64_t i = 0; i < n; ++i) {
    fk[i] = rng.NextInRange(0, 2'000);
    fv[i] = rng.NextInRange(1, 99);
  }
  ASSERT_TRUE(
      probe.column(0).AppendValues(fk.data(), static_cast<uint32_t>(n)).ok());
  ASSERT_TRUE(
      probe.column(1).AppendValues(fv.data(), static_cast<uint32_t>(n)).ok());

  Schema ds({{"d_key", TypeId::kI64}, {"d_w", TypeId::kI64}});
  Table dim(ds);
  const uint32_t dn = 1'500;  // sparse coverage + duplicate tail
  std::vector<int64_t> dk(dn), dw(dn);
  for (uint32_t i = 0; i < dn; ++i) {
    dk[i] = i < 1'200 ? rng.NextInRange(0, 2'000) : dk[i - 1'200];
    dw[i] = rng.NextInRange(1, 50);
  }
  ASSERT_TRUE(dim.column(0).AppendValues(dk.data(), dn).ok());
  ASSERT_TRUE(dim.column(1).AppendValues(dw.data(), dn).ok());

  HashJoinI64 ht;
  for (uint32_t i = 0; i < dn; ++i) {
    ht.Insert(dk[i], i);  // duplicates chain — every build row matches
  }
  int64_t expect_rev = 0;
  uint64_t expect_matches = 0;
  std::vector<sel_t> pos(dn);
  std::vector<uint32_t> row(dn);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t hits = ht.Probe(&fk[i], nullptr, 1, pos.data(), row.data());
    expect_matches += hits;
    for (uint32_t h = 0; h < hits; ++h) expect_rev += fv[i] * dw[row[h]];
  }

  for (size_t workers : {size_t{1}, size_t{4}}) {
    engine::EngineOptions eo;
    eo.strategy = engine::ExecutionStrategy::kInterpret;
    eo.num_workers = workers;
    auto run = RunJoinEngine(probe, "f_key", "f_val", dim, "d_key", "d_w", eo);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().matches, expect_matches) << "workers=" << workers;
    EXPECT_EQ(run.value().revenue, expect_rev) << "workers=" << workers;
    if (workers > 1) {
      EXPECT_GT(run.value().report.morsels, 1u);
      EXPECT_TRUE(run.value().report.ran_serial_reason.empty())
          << run.value().report.ran_serial_reason;
    }
  }

  // Grouped variant agrees with a scalar group-by oracle.
  engine::Query grouped =
      MakeJoinQuery(probe, "f_key", "f_val", dim, "d_key", "d_w", 4)
          .ValueOrDie();
  engine::EngineOptions eo;
  eo.strategy = engine::ExecutionStrategy::kInterpret;
  eo.num_workers = 4;
  ASSERT_TRUE(engine::ExecEngine::Execute(grouped.context(), eo).ok());
  std::vector<int64_t> expect_g(4, 0);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t hits = ht.Probe(&fk[i], nullptr, 1, pos.data(), row.data());
    for (uint32_t h = 0; h < hits; ++h) {
      expect_g[static_cast<size_t>(fv[i] % 4)] += fv[i] * dw[row[h]];
    }
  }
  for (size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(grouped.aggregate("revenue")[g], expect_g[g]) << "group " << g;
  }
}

}  // namespace
}  // namespace avm::relational
