// Seeded inputs of the end-to-end benchmark and their expected results.
//
// The tables are generated here, from the benchmark's seed, rather than by
// the engine's own generators: lineitem mirrors storage::MakeLineitem's
// column types and value domains (so the same compression schemes and JIT
// situations arise) and is loaded through Column::AppendValues. Every
// expected result — Q1 groups, the sorted join rows, each ad-hoc shape's
// sums and counts — is computed from the raw arrays in plain C++, never by
// the engine under test.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsl/ast.h"
#include "storage/table.h"
#include "util/rng.h"

namespace e2e {

using avm::Rng;
using avm::Table;
using avm::TypeId;

inline void Append(Table& t, size_t col, const void* data, size_t n) {
  t.column(col).AppendValues(data, static_cast<uint32_t>(n)).Abort("append");
}

// ------------------------------------------------------------- lineitem

/// TPC-H-like lineitem rows, raw and loaded (block-compressed) into a Table.
struct Lineitem {
  std::vector<int64_t> quantity, price, discount, tax;
  std::vector<int8_t> returnflag, linestatus;
  std::vector<int32_t> shipdate;
  std::unique_ptr<Table> table;

  Lineitem(uint64_t seed, size_t n)
      : quantity(n), price(n), discount(n), tax(n), returnflag(n),
        linestatus(n), shipdate(n) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      quantity[i] = rng.NextInRange(1, 50);
      price[i] = rng.NextInRange(90000, 10500000);
      discount[i] = rng.NextInRange(0, 10);
      tax[i] = rng.NextInRange(0, 8);
      shipdate[i] = static_cast<int32_t>(rng.NextInRange(8036, 10561));
      // Returnflag A/R only for old shipdates, N otherwise; linestatus F
      // before the status date: the correlations TPC-H group sizes follow.
      returnflag[i] = shipdate[i] < 9400
                          ? static_cast<int8_t>(rng.NextBool(0.5) ? 0 : 2)
                          : int8_t{1};
      linestatus[i] = static_cast<int8_t>(shipdate[i] < 9500 ? 1 : 0);
    }
    avm::Schema schema({{"l_quantity", TypeId::kI64},
                        {"l_extendedprice", TypeId::kI64},
                        {"l_discount", TypeId::kI64},
                        {"l_tax", TypeId::kI64},
                        {"l_returnflag", TypeId::kI8},
                        {"l_linestatus", TypeId::kI8},
                        {"l_shipdate", TypeId::kI32}});
    table = std::make_unique<Table>(schema);
    Append(*table, 0, quantity.data(), n);
    Append(*table, 1, price.data(), n);
    Append(*table, 2, discount.data(), n);
    Append(*table, 3, tax.data(), n);
    Append(*table, 4, returnflag.data(), n);
    Append(*table, 5, linestatus.data(), n);
    Append(*table, 6, shipdate.data(), n);
  }

  size_t rows() const { return quantity.size(); }
};

// ------------------------------------------------------------------- Q1

constexpr int32_t kQ1Cutoff = 10510;  // keeps ~98% of rows
constexpr size_t kQ1Groups = 8;       // returnflag * 2 + linestatus

/// Q1 aggregates per group: sum_qty, sum_base, sum_disc, sum_charge, count.
using Q1Sums = std::array<std::array<int64_t, 5>, kQ1Groups>;

inline Q1Sums Q1Expected(const Lineitem& l) {
  Q1Sums s{};
  for (size_t i = 0; i < l.rows(); ++i) {
    if (l.shipdate[i] > kQ1Cutoff) continue;
    auto& g = s[static_cast<size_t>(l.returnflag[i] * 2 + l.linestatus[i])];
    const int64_t dp = l.price[i] * (100 - l.discount[i]);
    g[0] += l.quantity[i];
    g[1] += l.price[i];
    g[2] += dp;
    g[3] += dp * (100 + l.tax[i]);
    g[4] += 1;
  }
  return s;
}

// ---------------------------------------------------------- join tables

/// Probe rows (f_key, f_a, f_b) and a duplicate-key build side
/// (d_key, d_val) with 1..3 copies per key: a many-to-many join whose
/// output is far larger than the 1 MiB per-query budget.
struct JoinTables {
  static constexpr int64_t kKeyHi = 999;
  static constexpr int64_t kFilterA = 800;  // f_a < 800 keeps ~80%

  std::vector<int64_t> key, a, b, dkey, dval;
  std::unique_ptr<Table> probe, build;

  JoinTables(uint64_t seed, size_t n) : key(n), a(n), b(n) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      key[i] = rng.NextInRange(-3, kKeyHi + 40);  // some keys never match
      a[i] = rng.NextInRange(0, 999);
      b[i] = rng.NextInRange(0, 999);
    }
    for (int64_t k = 0; k <= kKeyHi; ++k) {
      const int64_t copies = rng.NextInRange(1, 3);
      for (int64_t c = 0; c < copies; ++c) {
        dkey.push_back(k);
        dval.push_back(rng.NextInRange(1, 500));
      }
    }
    probe = std::make_unique<Table>(avm::Schema({{"f_key", TypeId::kI64},
                                                 {"f_a", TypeId::kI64},
                                                 {"f_b", TypeId::kI64}}));
    Append(*probe, 0, key.data(), n);
    Append(*probe, 1, a.data(), n);
    Append(*probe, 2, b.data(), n);
    build = std::make_unique<Table>(
        avm::Schema({{"d_key", TypeId::kI64}, {"d_val", TypeId::kI64}}));
    Append(*build, 0, dkey.data(), dkey.size());
    Append(*build, 1, dval.data(), dval.size());
  }
};

/// Expected output columns (f_key, f_b, d_val): one row per matching
/// (probe, build) pair in probe-row then build-row order, stably sorted
/// by f_key.
struct JoinRows {
  std::vector<int64_t> key, b, val;
};

inline JoinRows JoinExpected(const JoinTables& t) {
  std::vector<std::vector<size_t>> by_key(JoinTables::kKeyHi + 1);
  for (size_t j = 0; j < t.dkey.size(); ++j) {
    by_key[static_cast<size_t>(t.dkey[j])].push_back(j);
  }
  struct Row {
    int64_t key, b, val;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < t.key.size(); ++i) {
    if (t.a[i] >= JoinTables::kFilterA) continue;
    if (t.key[i] < 0 || t.key[i] > JoinTables::kKeyHi) continue;
    for (size_t j : by_key[static_cast<size_t>(t.key[i])]) {
      rows.push_back({t.key[i], t.b[i], t.dval[j]});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& x, const Row& y) { return x.key < y.key; });
  JoinRows out;
  for (const Row& r : rows) {
    out.key.push_back(r.key);
    out.b.push_back(r.b);
    out.val.push_back(r.val);
  }
  return out;
}

// ------------------------------------------------------- ad-hoc shapes

/// One seeded Filter / Project / grouped Sum+Count query over lineitem.
/// Shapes vary in predicate columns, operators and constants, projection
/// form, and grouping, so every shape lowers to traces the session has not
/// compiled before.
struct Shape {
  struct Pred {
    int col;  ///< index into kPredCols
    int op;   ///< 0 <, 1 <=, 2 >, 3 >=
    int64_t c;
  };
  std::vector<Pred> preds;
  int proj;     ///< 0: a*(k-b)  1: a+b*k  2: (a-b)*k
  int pa, pb;   ///< indices into kProjCols
  int64_t k;
  int sum_col;  ///< second Sum over kProjCols[sum_col]
  int group;    ///< 0 none, 1 returnflag, 2 linestatus, 3 rf*2+ls

  static constexpr const char* kPredCols[] = {
      "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"};
  static constexpr const char* kProjCols[] = {"l_quantity", "l_extendedprice",
                                              "l_discount", "l_tax"};

  static Shape Draw(Rng& rng) {
    Shape s;
    const int npreds = static_cast<int>(rng.NextInRange(1, 2));
    for (int p = 0; p < npreds; ++p) {
      Pred pr;
      pr.col = static_cast<int>(rng.NextInRange(0, 4));
      pr.op = static_cast<int>(rng.NextInRange(0, 3));
      static constexpr int64_t kLo[] = {1, 90000, 0, 0, 8036};
      static constexpr int64_t kHi[] = {50, 10500000, 10, 8, 10561};
      // Constants inside the central 80% of the domain keep every
      // predicate selective in both directions.
      const int64_t span = kHi[pr.col] - kLo[pr.col];
      pr.c = kLo[pr.col] + span / 10 + rng.NextInRange(0, span * 8 / 10);
      s.preds.push_back(pr);
    }
    s.proj = static_cast<int>(rng.NextInRange(0, 2));
    s.pa = static_cast<int>(rng.NextInRange(0, 3));
    // a*(k-b) with b = extendedprice could overflow an i64 sum; keep b
    // small there.
    static constexpr int kSmallCols[] = {0, 2, 3};
    s.pb = s.proj == 0 ? kSmallCols[rng.NextInRange(0, 2)]
                       : static_cast<int>(rng.NextInRange(0, 3));
    s.k = rng.NextInRange(2, 199);
    s.sum_col = static_cast<int>(rng.NextInRange(0, 3));
    s.group = static_cast<int>(rng.NextInRange(0, 3));
    return s;
  }

  /// Structural identity of the shape: columns, operators, projection
  /// form and grouping, without the constants. The engine passes constants
  /// to compiled traces at run time, so two shapes that differ only in
  /// constants share traces; a stream free of structural repeats is what
  /// keeps the trace cache missing.
  std::string Key() const {
    std::string key;
    for (const Pred& p : preds) {
      key += std::to_string(p.col) + "," + std::to_string(p.op) + ";";
    }
    key += std::to_string(proj) + "," + std::to_string(pa) + "," +
           std::to_string(pb) + "," + std::to_string(sum_col) + "," +
           std::to_string(group);
    return key;
  }

  size_t num_groups() const {
    static constexpr size_t kGroups[] = {1, 3, 2, 8};
    return kGroups[group];
  }

  // --- engine side: DSL expressions -----------------------------------
  avm::dsl::ExprPtr PredExpr(const Pred& p) const {
    using avm::dsl::ConstI;
    using avm::dsl::Var;
    auto v = Var(kPredCols[p.col]);
    auto c = ConstI(p.c);
    switch (p.op) {
      case 0: return v < c;
      case 1: return v <= c;
      case 2: return v > c;
      default: return v >= c;
    }
  }
  avm::dsl::ExprPtr ProjExpr() const {
    using avm::dsl::ConstI;
    using avm::dsl::Var;
    auto a = Var(kProjCols[pa]);
    auto b = Var(kProjCols[pb]);
    switch (proj) {
      case 0: return a * (ConstI(k) - b);
      case 1: return a + b * ConstI(k);
      default: return (a - b) * ConstI(k);
    }
  }
  avm::dsl::ExprPtr GroupExpr() const {
    using avm::dsl::Cast;
    using avm::dsl::ConstI;
    using avm::dsl::Var;
    auto rf = Cast(TypeId::kI64, Var("l_returnflag"));
    auto ls = Cast(TypeId::kI64, Var("l_linestatus"));
    switch (group) {
      case 1: return rf;
      case 2: return ls;
      default: return rf * ConstI(2) + ls;
    }
  }

  // --- reference side: the same shape over the raw arrays --------------
  /// Expected per-group (sum of projection, sum of column, count).
  std::vector<std::array<int64_t, 3>> Expected(const Lineitem& l) const {
    std::vector<std::array<int64_t, 3>> out(num_groups(), {0, 0, 0});
    const std::vector<int64_t>* proj_cols[] = {&l.quantity, &l.price,
                                               &l.discount, &l.tax};
    auto pred_col = [&](int c, size_t i) -> int64_t {
      if (c == 4) return l.shipdate[i];
      return (*proj_cols[c])[i];
    };
    for (size_t i = 0; i < l.rows(); ++i) {
      bool keep = true;
      for (const Pred& p : preds) {
        const int64_t v = pred_col(p.col, i);
        keep = keep && (p.op == 0   ? v < p.c
                        : p.op == 1 ? v <= p.c
                        : p.op == 2 ? v > p.c
                                    : v >= p.c);
      }
      if (!keep) continue;
      const int64_t a = (*proj_cols[pa])[i];
      const int64_t b = (*proj_cols[pb])[i];
      const int64_t pv = proj == 0 ? a * (k - b)
                         : proj == 1 ? a + b * k
                                     : (a - b) * k;
      const size_t g = group == 0   ? 0
                       : group == 1 ? static_cast<size_t>(l.returnflag[i])
                       : group == 2 ? static_cast<size_t>(l.linestatus[i])
                                    : static_cast<size_t>(l.returnflag[i] * 2 +
                                                          l.linestatus[i]);
      out[g][0] += pv;
      out[g][1] += (*proj_cols[sum_col])[i];
      out[g][2] += 1;
    }
    return out;
  }
};

}  // namespace e2e
