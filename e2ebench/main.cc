// End-to-end benchmark of the adaptive VM (see README.md in this directory).
//
//   e2ebench --workload q1_steady|join_orderby_spill|adhoc_shapes
//            --seed N --seconds S [--trace 0|1] [--smoke]
//            [--setup-only] [--trace-out FILE]
//
// One process runs one workload against one long-lived engine::Session
// built during set-up. Each timed query is preceded by a calibration pass
// on the client thread (the `cal` unit, host.h); latencies and CPU are
// reported in `cal`, raw milliseconds alongside. Every result is checked
// against the benchmark's own reference. The last stdout line is one JSON
// record: end-to-end metrics without --trace, per-layer metrics (from
// spans around the calls into each layer, ExecReport counters, and the Q1
// layer ladder) with --trace 1.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data.h"
#include "dsl/typecheck.h"
#include "engine/query_builder.h"
#include "engine/session.h"
#include "host.h"
#include "interp/interpreter.h"
#include "jit/backend_cc.h"
#include "relational/q1.h"
#include "trace.h"
#include "vm/adaptive_vm.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif

namespace e2e {
namespace {

using avm::Status;
using avm::engine::ExecReport;
using avm::engine::Query;
using avm::engine::QueryBuilder;
using avm::engine::QueryOptions;
using avm::engine::Session;
using avm::engine::SessionOptions;

double g_process_start_ms = 0;

/// Warm-up and set-up queries are not part of the traced loop.
Tracer& NoTrace() {
  static Tracer off(false);
  return off;
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "e2ebench: %s\n", msg.c_str());
  std::exit(2);
}

SessionOptions Workers(size_t n) {
  SessionOptions o;
  o.num_workers = n;
  return o;
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// ----------------------------------------------------------------- sizes

/// Input sizes; --smoke shrinks everything so all workloads finish in
/// seconds with every check still on.
struct Sizes {
  size_t q1_rows = 600'000;
  size_t join_rows = 200'000;
  size_t adhoc_rows = 24'000;
  size_t ladder_rows = 600'000;
  size_t min_queries = 100;  // p90 needs >= 10 samples above it
  size_t ladder_min_reps = 5;
};

Sizes SmokeSizes() {
  Sizes s;
  s.q1_rows = 20'000;
  s.join_rows = 20'000;
  s.adhoc_rows = 8'000;
  s.ladder_rows = 20'000;
  s.min_queries = 3;
  s.ladder_min_reps = 2;
  return s;
}

// ------------------------------------------------------------- workloads

/// One submitted query's outcome: Submit-to-Wait latency and its report.
struct Outcome {
  bool ok = false;
  double latency_ms = 0;
  ExecReport report;
  std::string error;
};

/// Submit + Wait with spans around each call into the engine layer.
Outcome SubmitAndWait(Session& session, Query& q, const QueryOptions& qo,
                      Tracer& tr, uint64_t qid, int parent) {
  Outcome o;
  const double t0 = NowMs();
  avm::engine::QueryHandle h;
  {
    ScopedSpan s(tr, "engine.submit", qid, parent);
    h = session.Submit(q.context(), qo);
  }
  avm::Result<ExecReport> r = Status::OK();
  {
    ScopedSpan s(tr, "engine.wait", qid, parent);
    r = h.Wait();
  }
  o.latency_ms = NowMs() - t0;
  o.ok = r.ok();
  if (r.ok()) {
    o.report = r.value();
  } else {
    o.error = r.status().ToString();
  }
  return o;
}

/// A closed-loop workload: one client thread, one Session.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate data and references, build the Session and queries, warm
  /// up until the JIT has settled.
  virtual void Setup(Tracer& tr) = 0;
  /// Untimed per-query preparation (ad-hoc shapes build their query here).
  virtual void Prepare(uint64_t qid, Tracer& tr, int parent) = 0;
  /// The timed part: Submit through Wait.
  virtual Outcome Execute(uint64_t qid, Tracer& tr, int parent) = 0;
  /// Compare the finished query's result with the reference.
  virtual bool CheckResult() = 0;
  virtual Session& session() = 0;
  /// Threads a query keeps busy; the calibration pass runs on as many.
  virtual int busy_threads() const { return 1; }
  /// Process threads when no query and no background compile runs.
  int idle_threads() const { return idle_threads_; }
  /// Warm-up queries whose result differed from the reference.
  uint64_t warmup_wrong() const { return warmup_wrong_; }

 protected:
  /// Repeat the query until one run compiles nothing and requests no tier
  /// upgrade, then wait for the upgrade threads to end.
  void WarmUntilSettled() {
    for (int attempt = 0; attempt < 40; ++attempt) {
      Outcome o = Execute(0, NoTrace(), -1);
      if (!o.ok) Die("warm-up query failed: " + o.error);
      if (!CheckResult()) ++warmup_wrong_;
      if (!WaitForThreads(idle_threads_)) Die("JIT did not settle");
      if (attempt > 0 && o.report.traces_compiled == 0 &&
          o.report.tier_upgrades_requested == 0) {
        return;
      }
    }
    Die("JIT still compiling after 40 warm-up queries");
  }

  int idle_threads_ = 0;
  uint64_t warmup_wrong_ = 0;
};

Query BuildQ1(const Table& t, Tracer& tr) {
  using avm::dsl::Cast;
  using avm::dsl::ConstI;
  using avm::dsl::Var;
  ScopedSpan s(tr, "engine.build", 0);
  QueryBuilder qb(t);
  qb.Filter(Var("l_shipdate") <= ConstI(kQ1Cutoff))
      .Project("dp", Var("l_extendedprice") * (ConstI(100) - Var("l_discount")))
      .Project("ch", Var("dp") * (ConstI(100) + Var("l_tax")))
      .Aggregate(Cast(TypeId::kI64, Var("l_returnflag")) * ConstI(2) +
                     Cast(TypeId::kI64, Var("l_linestatus")),
                 kQ1Groups)
      .Sum("sum_qty", Var("l_quantity"))
      .Sum("sum_base", Var("l_extendedprice"))
      .Sum("sum_disc", Var("dp"))
      .Sum("sum_charge", Var("ch"))
      .Count("count");
  auto q = qb.Build();
  Check(q.status(), "build Q1");
  return std::move(q).ValueOrDie();
}

bool Q1Matches(const Query& q, const Q1Sums& want) {
  static const char* kAggs[] = {"sum_qty", "sum_base", "sum_disc",
                                "sum_charge", "count"};
  for (size_t a = 0; a < 5; ++a) {
    const std::vector<int64_t>& got = q.aggregate(kAggs[a]);
    if (got.size() != kQ1Groups) return false;
    for (size_t g = 0; g < kQ1Groups; ++g) {
      if (got[g] != want[g][a]) return false;
    }
  }
  return true;
}

/// q1_steady: TPC-H Q1 re-submitted on a 1-worker adaptive-JIT session.
class Q1Steady : public Workload {
 public:
  Q1Steady(uint64_t seed, const Sizes& sz) : seed_(seed), rows_(sz.q1_rows) {}

  void Setup(Tracer& tr) override {
    data_ = std::make_unique<Lineitem>(seed_, rows_);
    want_ = Q1Expected(*data_);
    session_ = std::make_unique<Session>(Workers(1));
    idle_threads_ = ThreadCount();
    query_ = std::make_unique<Query>(BuildQ1(*data_->table, tr));
    WarmUntilSettled();
  }
  void Prepare(uint64_t, Tracer&, int) override {}
  Outcome Execute(uint64_t qid, Tracer& tr, int parent) override {
    query_->ResetAggregates();
    return SubmitAndWait(*session_, *query_, QueryOptions{}, tr, qid, parent);
  }
  bool CheckResult() override { return Q1Matches(*query_, want_); }
  Session& session() override { return *session_; }

 private:
  uint64_t seed_;
  size_t rows_;
  std::unique_ptr<Lineitem> data_;
  Q1Sums want_{};
  std::unique_ptr<Session> session_;
  std::unique_ptr<Query> query_;
};

/// join_orderby_spill: many-to-many CSR join + ORDER BY on 2 workers under
/// a 1 MiB per-query budget, so every query spills sorted runs and merges
/// them from disk at finalize.
class JoinOrderBySpill : public Workload {
 public:
  static constexpr uint64_t kBudget = 1u << 20;

  JoinOrderBySpill(uint64_t seed, const Sizes& sz)
      : seed_(seed), rows_(sz.join_rows) {}

  void Setup(Tracer& tr) override {
    using avm::dsl::ConstI;
    using avm::dsl::Var;
    data_ = std::make_unique<JoinTables>(seed_, rows_);
    want_ = JoinExpected(*data_);
    session_ = std::make_unique<Session>(Workers(2));
    idle_threads_ = ThreadCount();
    {
      ScopedSpan s(tr, "engine.build", 0);
      QueryBuilder qb(*data_->probe);
      qb.Filter(Var("f_a") < ConstI(JoinTables::kFilterA))
          .Join(*data_->build, "f_key", "d_key", {"d_val"})
          .Output("f_key")
          .Output("f_b")
          .Output("d_val")
          .OrderBy("f_key");
      auto q = qb.Build();
      Check(q.status(), "build join");
      query_ = std::make_unique<Query>(std::move(q).ValueOrDie());
    }
    options_.memory_budget = kBudget;
    WarmUntilSettled();
  }
  void Prepare(uint64_t, Tracer&, int) override {}
  Outcome Execute(uint64_t qid, Tracer& tr, int parent) override {
    query_->ResetAggregates();
    return SubmitAndWait(*session_, *query_, options_, tr, qid, parent);
  }
  bool CheckResult() override {
    const uint64_t n = query_->num_result_rows();
    if (n != want_.key.size()) return false;
    const auto eq = [n](const Query::ResultColumn& c,
                        const std::vector<int64_t>& w) {
      return c.data.size() == n * sizeof(int64_t) &&
             std::memcmp(c.data.data(), w.data(), c.data.size()) == 0;
    };
    return eq(query_->result_column("f_key"), want_.key) &&
           eq(query_->result_column("f_b"), want_.b) &&
           eq(query_->result_column("d_val"), want_.val);
  }
  Session& session() override { return *session_; }
  int busy_threads() const override { return 2; }

 private:
  uint64_t seed_;
  size_t rows_;
  std::unique_ptr<JoinTables> data_;
  JoinRows want_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<Query> query_;
  QueryOptions options_;
};

/// adhoc_shapes: a seeded stream of structurally distinct Filter/Project/
/// grouped Sum+Count shapes, each built and run exactly once on a 1-worker
/// adaptive-JIT session, so queries miss the trace cache and compile.
class AdhocShapes : public Workload {
 public:
  AdhocShapes(uint64_t seed, const Sizes& sz)
      : seed_(seed), rows_(sz.adhoc_rows), rng_(seed ^ 0xad0c5eedull) {}

  void Setup(Tracer&) override {
    data_ = std::make_unique<Lineitem>(seed_, rows_);
    session_ = std::make_unique<Session>(Workers(1));
    idle_threads_ = ThreadCount();
    // Warm-up shapes come from the same stream as the timed ones (each is
    // still used once): they page in the host compiler and the lowering
    // paths, and the session enters the loop with no compile in flight.
    for (int i = 0; i < 2; ++i) {
      Prepare(0, NoTrace(), -1);
      Outcome o = Execute(0, NoTrace(), -1);
      if (!o.ok) Die("warm-up shape failed: " + o.error);
      if (!CheckResult()) ++warmup_wrong_;
      if (!WaitForThreads(idle_threads_)) Die("JIT did not settle");
    }
  }
  void Prepare(uint64_t qid, Tracer& tr, int parent) override {
    Shape s = Shape::Draw(rng_);
    while (!seen_.insert(s.Key()).second) s = Shape::Draw(rng_);
    want_ = s.Expected(*data_);
    ScopedSpan span(tr, "engine.build", qid, parent);
    QueryBuilder qb(*data_->table);
    for (const Shape::Pred& p : s.preds) qb.Filter(s.PredExpr(p));
    qb.Project("p", s.ProjExpr());
    if (s.group != 0) qb.Aggregate(s.GroupExpr(), s.num_groups());
    qb.Sum("sum_p", avm::dsl::Var("p"))
        .Sum("sum_c", avm::dsl::Var(Shape::kProjCols[s.sum_col]))
        .Count("count");
    auto q = qb.Build();
    Check(q.status(), "build ad-hoc shape");
    query_ = std::make_unique<Query>(std::move(q).ValueOrDie());
  }
  Outcome Execute(uint64_t qid, Tracer& tr, int parent) override {
    return SubmitAndWait(*session_, *query_, QueryOptions{}, tr, qid, parent);
  }
  bool CheckResult() override {
    static const char* kAggs[] = {"sum_p", "sum_c", "count"};
    for (size_t a = 0; a < 3; ++a) {
      const std::vector<int64_t>& got = query_->aggregate(kAggs[a]);
      if (got.size() != want_.size()) return false;
      for (size_t g = 0; g < want_.size(); ++g) {
        if (got[g] != want_[g][a]) return false;
      }
    }
    return true;
  }
  Session& session() override { return *session_; }

 private:
  uint64_t seed_;
  size_t rows_;
  Rng rng_;
  std::set<std::string> seen_;
  std::unique_ptr<Lineitem> data_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<Query> query_;
  std::vector<std::array<int64_t, 3>> want_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Sizes& sz) {
  if (name == "q1_steady") return std::make_unique<Q1Steady>(seed, sz);
  if (name == "join_orderby_spill") {
    return std::make_unique<JoinOrderBySpill>(seed, sz);
  }
  if (name == "adhoc_shapes") return std::make_unique<AdhocShapes>(seed, sz);
  return nullptr;
}

// ------------------------------------------------------------ the loop

/// ExecReport counters summed over the timed queries.
struct Totals {
  uint64_t queries = 0, iterations = 0, injection_runs = 0, fallbacks = 0,
           traces_reused = 0, traces_compiled = 0, fast_compiles = 0,
           opt_compiles = 0, upgrades_requested = 0, upgrades_done = 0,
           verifier_checked = 0, verifier_rejects = 0, bytes_spilled = 0,
           spill_runs = 0, chunks_streamed = 0, peak_tracked = 0, morsels = 0;
  double compile_s = 0;

  void Add(const ExecReport& r) {
    ++queries;
    iterations += r.iterations;
    injection_runs += r.injection_runs;
    fallbacks += r.injection_fallbacks;
    traces_reused += r.traces_reused;
    traces_compiled += r.traces_compiled;
    fast_compiles += r.fast_compiles;
    opt_compiles += r.opt_compiles;
    upgrades_requested += r.tier_upgrades_requested;
    upgrades_done += r.tier_upgrades;
    verifier_checked += r.verifier_checked;
    verifier_rejects += r.verifier_rejects;
    bytes_spilled += r.bytes_spilled;
    spill_runs += r.spill_runs;
    chunks_streamed += r.chunks_streamed;
    peak_tracked += r.peak_tracked_bytes;
    morsels += r.morsels;
    compile_s += r.compile_seconds;
  }
};

struct LoopResult {
  std::vector<double> lat_ms, cal_ms;  // cal_ms has one pass more
  std::vector<bool> traced;
  double cpu_ms = 0;
  uint64_t attempted = 0, failed = 0;
  Totals totals;
  uint64_t cache_hits = 0, cache_lookups = 0;
  std::string first_error;

  /// Latencies in `cal`, each divided by the mean of the passes right
  /// before and right after it (the next query's pass, or a final one);
  /// all of them, or only the traced (1) or untraced (0) queries.
  std::vector<double> LatCal(int which = -1) const {
    std::vector<double> out;
    for (size_t i = 0; i < lat_ms.size(); ++i) {
      if (which >= 0 && traced[i] != (which == 1)) continue;
      out.push_back(lat_ms[i] / ((cal_ms[i] + cal_ms[i + 1]) / 2));
    }
    return out;
  }
};

/// The closed loop: prepare, calibrate, Submit..Wait, let background
/// compiles end, check. Runs until `seconds` passed and at least
/// `min_queries` were timed. With a tracer enabled, every other query
/// is traced so the span overhead can be read off the two halves.
LoopResult RunLoop(Workload& w, Calibrator& cal, Tracer* tr, double seconds,
                   size_t min_queries) {
  LoopResult res;
  const uint64_t hits0 = w.session().trace_cache().hits();
  const uint64_t miss0 = w.session().trace_cache().misses();
  const double start = NowMs();
  const double hard_stop = start + 120'000;  // stay inside the exit deadline
  for (uint64_t qid = 1;; ++qid) {
    const double now = NowMs();
    if ((now - start >= seconds * 1e3 && res.attempted >= min_queries) ||
        now > hard_stop) {
      break;
    }
    const bool traced = tr != nullptr && (qid % 2 == 1);
    Tracer& t = traced ? *tr : NoTrace();
    ScopedSpan root(t, "query", qid);
    w.Prepare(qid, t, root.id());
    {
      ScopedSpan s(t, "host.cal", qid, root.id());
      res.cal_ms.push_back(cal.Run());
    }
    const double cpu0 = TotalCpuMs();
    Outcome o = w.Execute(qid, t, root.id());
    {
      ScopedSpan s(t, "jit.background", qid, root.id());
      if (!WaitForThreads(w.idle_threads())) Die("JIT did not settle");
    }
    res.cpu_ms += TotalCpuMs() - cpu0;
    bool good = o.ok;
    {
      ScopedSpan s(t, "bench.check", qid, root.id());
      good = good && w.CheckResult();
    }
    ++res.attempted;
    if (!good) {
      ++res.failed;
      if (res.first_error.empty()) {
        res.first_error = o.ok ? "result differs from reference" : o.error;
      }
    }
    if (o.ok) res.totals.Add(o.report);
    res.lat_ms.push_back(o.latency_ms);
    res.traced.push_back(traced);
  }
  res.cal_ms.push_back(cal.Run());
  res.cache_hits = w.session().trace_cache().hits() - hits0;
  res.cache_lookups =
      res.cache_hits + w.session().trace_cache().misses() - miss0;
  return res;
}

// ----------------------------------------------------------- Q1 ladder

/// One rung of the Q1 layer ladder: runs Q1 once over the ladder's data
/// and returns whether the result matched the reference.
struct Rung {
  std::string name;
  std::function<bool()> run;
};

/// Bind every data declaration of a lowered Q1 program: table columns by
/// name, accumulators (acc_<aggregate>) to zeroed i64 arrays.
struct BoundQ1Program {
  avm::dsl::Program program;
  std::map<std::string, std::vector<int64_t>> accs;

  void Bind(avm::interp::Interpreter& in, const Table& t) {
    for (const auto& d : program.data) {
      auto col = t.ColumnByName(d.name);
      if (col.ok()) {
        Check(in.BindData(d.name,
                          avm::interp::DataBinding::FromColumn(col.value())),
              "bind column");
        continue;
      }
      std::vector<int64_t>& acc = accs[d.name];
      acc.assign(kQ1Groups, 0);
      Check(in.BindData(d.name, avm::interp::DataBinding::Raw(
                                    TypeId::kI64, acc.data(), acc.size(),
                                    /*writable=*/true)),
            "bind accumulator");
    }
  }
  bool Matches(const Q1Sums& want) const {
    static const char* kAccs[] = {"acc_sum_qty", "acc_sum_base",
                                  "acc_sum_disc", "acc_sum_charge",
                                  "acc_count"};
    for (size_t a = 0; a < 5; ++a) {
      auto it = accs.find(kAccs[a]);
      if (it == accs.end()) return false;
      for (size_t g = 0; g < kQ1Groups; ++g) {
        if (it->second[g] != want[g][a]) return false;
      }
    }
    return true;
  }
};

bool Q1ResultMatches(const avm::relational::Q1Result& r, const Q1Sums& want) {
  for (size_t g = 0; g < kQ1Groups; ++g) {
    const auto& x = r.groups[g];
    if (x.sum_qty != want[g][0] || x.sum_base_price != want[g][1] ||
        x.sum_disc_price != want[g][2] || x.sum_charge != want[g][3] ||
        x.count != want[g][4]) {
      return false;
    }
  }
  return true;
}

struct LadderResult {
  std::map<std::string, double> cal;  // rung -> median latency in cal
  std::map<std::string, size_t> reps;
  bool correct = true;
};

/// Time each rung of the Q1 ladder, all over the same seeded lineitem:
/// hand-written scalar and vectorized Q1, the interpreter over the lowered
/// program (no VM), the serial adaptive VM, and the Session with 1 worker,
/// 2 workers, and 2 concurrent clients. Each rep is paired with its own
/// calibration pass; adjacent rungs' difference is that layer's cost.
LadderResult RunLadder(uint64_t seed, const Sizes& sz, Tracer& tr,
                       double seconds) {
  Calibrator cal(seed, 1);  // every rung's client is one thread
  Lineitem data(seed, sz.ladder_rows);
  const Table& t = *data.table;
  const Q1Sums want = Q1Expected(data);
  const int64_t rows = static_cast<int64_t>(data.rows());

  Session s1(Workers(1));
  Session s2(Workers(2));
  Session sc(Workers(2));
  const int idle = ThreadCount();
  Query q1 = BuildQ1(t, tr), q2 = BuildQ1(t, tr), qa = BuildQ1(t, tr),
        qb = BuildQ1(t, tr), qlow = BuildQ1(t, tr);

  // Below the facade, built as bench_state_machine does: instantiate the
  // lowered program once, type-check it, bind it, run it.
  BoundQ1Program prog;
  {
    auto p = qlow.MakeProgram(rows);
    Check(p.status(), "MakeProgram");
    prog.program = std::move(p).ValueOrDie();
    Check(avm::dsl::TypeCheck(&prog.program), "typecheck");
  }
  avm::jit::TraceCache vm_cache;  // warm across VM reps, like a session's
  uint64_t vm_compiled = 0, vm_upgrades = 0;

  auto session_run = [&](Session& s, Query& q) {
    q.ResetAggregates();
    auto r = s.Submit(q.context()).Wait();
    vm_compiled = r.ok() ? r.value().traces_compiled : 1;
    vm_upgrades = r.ok() ? r.value().tier_upgrades_requested : 1;
    return r.ok() && Q1Matches(q, want);
  };
  std::vector<Rung> rungs = {
      {"relational.q1_scalar",
       [&] {
         auto r = avm::relational::RunQ1Scalar(t);
         vm_compiled = vm_upgrades = 0;
         return r.ok() && Q1ResultMatches(r.value(), want);
       }},
      {"interp.q1_vectorized",
       [&] {
         auto r = avm::relational::RunQ1Vectorized(t);
         vm_compiled = vm_upgrades = 0;
         return r.ok() && Q1ResultMatches(r.value(), want);
       }},
      {"interp.q1_interpreted",
       [&] {
         avm::interp::Interpreter in(&prog.program);
         prog.Bind(in, t);
         vm_compiled = vm_upgrades = 0;
         return in.Run().ok() && prog.Matches(want);
       }},
      {"vm.q1_adaptive",
       [&] {
         avm::vm::AdaptiveVm vm(&prog.program, {}, &vm_cache);
         prog.Bind(vm.interpreter(), t);
         const bool ok = vm.Run().ok();
         const avm::vm::VmReport rep = vm.Report();
         vm_compiled = rep.traces_compiled;
         vm_upgrades = rep.tier_upgrades_requested;
         return ok && prog.Matches(want);
       }},
      {"engine.q1_session_1w", [&] { return session_run(s1, q1); }},
      {"engine.q1_session_2w", [&] { return session_run(s2, q2); }},
      {"engine.q1_session_2clients",
       [&] {
         bool ok_b = false;
         std::thread other([&] {
           qb.ResetAggregates();
           auto r = sc.Submit(qb.context()).Wait();
           ok_b = r.ok() && Q1Matches(qb, want);
         });
         const bool ok_a = session_run(sc, qa);
         other.join();
         return ok_a && ok_b;
       }},
  };

  LadderResult out;
  const double per_rung_ms = seconds * 1e3 / static_cast<double>(rungs.size());
  for (Rung& rung : rungs) {
    // Warm-up: until the rung compiles nothing and requests no upgrade.
    for (int attempt = 0;; ++attempt) {
      if (!rung.run()) {
        out.correct = false;
        std::fprintf(stderr, "e2ebench: ladder rung %s wrong result\n",
                     rung.name.c_str());
      }
      if (!WaitForThreads(idle)) Die("JIT did not settle (ladder)");
      if (attempt > 0 && vm_compiled == 0 && vm_upgrades == 0) break;
      if (attempt > 40) Die("ladder rung never settled: " + rung.name);
    }
    std::vector<double> ms_reps, cal_reps;
    const double start = NowMs();
    while (ms_reps.size() < sz.ladder_min_reps ||
           (NowMs() - start < per_rung_ms && ms_reps.size() < 200)) {
      cal_reps.push_back(cal.Run());
      const int span = tr.Begin("ladder." + rung.name, ms_reps.size());
      const double t0 = NowMs();
      const bool ok = rung.run();
      const double ms = NowMs() - t0;
      tr.End(span);
      if (!ok) {
        out.correct = false;
        std::fprintf(stderr, "e2ebench: ladder rung %s wrong result\n",
                     rung.name.c_str());
      }
      ms_reps.push_back(ms);
    }
    cal_reps.push_back(cal.Run());
    std::vector<double> ratios;
    for (size_t i = 0; i < ms_reps.size(); ++i) {
      ratios.push_back(ms_reps[i] / ((cal_reps[i] + cal_reps[i + 1]) / 2));
    }
    out.cal[rung.name] = Median(ratios);
    out.reps[rung.name] = ratios.size();
  }
  if (!WaitForThreads(idle)) Die("JIT did not settle (ladder)");
  return out;
}

// -------------------------------------------------------------- output

std::string JsonStr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Metrics in output order, each with its unit and sample count.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    items_.push_back({name, unit, value, samples});
  }
  std::string Json() const {
    std::string o = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& m = items_[i];
      o += (i ? ", " : "") + JsonStr(m.name) + ": {\"value\": " +
           JsonNum(m.value) + ", \"unit\": " + JsonStr(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return o + "}";
  }

 private:
  struct Item {
    std::string name, unit;
    double value;
    size_t samples;
  };
  std::vector<Item> items_;
};

double Ratio(double num, double den, double if_zero) {
  return den > 0 ? num / den : if_zero;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool setup_only = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = next();
    } else if (k == "--seed") {
      a.seed = std::stoull(next());
    } else if (k == "--seconds") {
      a.seconds = std::stod(next());
    } else if (k == "--trace") {
      a.trace = next() != "0";
    } else if (k == "--trace-out") {
      a.trace_out = next();

    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else {
      Die("unknown argument " + k);
    }
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Sizes sz = args.smoke ? SmokeSizes() : Sizes{};
  const double load_start = LoadAvg1();
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed, sz);
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");

  Tracer tracer(args.trace);
  // --- set-up: everything up to the first timed query -----------------
  const int setup_span = tracer.Begin("bench.setup", 0);
  Calibrator cal(args.seed, w->busy_threads());
  w->Setup(tracer);
  tracer.End(setup_span);
  const double setup_s = (NowMs() - g_process_start_ms) / 1e3;
  if (args.setup_only) {
    std::printf("{\"setup_s\": %s}\n", JsonNum(setup_s).c_str());
    return 0;
  }

  // --- timed loop (traced mode: half the time, the ladder the rest) ----
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult res = RunLoop(*w, cal, args.trace ? &tracer : nullptr,
                           loop_seconds, args.trace ? 2 : sz.min_queries);
  LadderResult ladder;
  if (args.trace) {
    ladder = RunLadder(args.seed, sz, tracer, args.seconds / 2);
  }
  const double peak_rss = PeakRssMb();
  const double load_end = LoadAvg1();

  const double other_share = cal.OtherThreadShare();
  constexpr double kMaxOtherShare = 0.05;
  const bool cal_clean = other_share <= kMaxOtherShare;
  if (!cal_clean) {
    std::fprintf(stderr,
                 "e2ebench: calibration guard: other threads used %.1f%% of "
                 "process CPU during calibration (limit %.0f%%)\n",
                 other_share * 100, kMaxOtherShare * 100);
  }
  if (!res.first_error.empty()) {
    std::fprintf(stderr, "e2ebench: %llu failed queries, first: %s\n",
                 static_cast<unsigned long long>(res.failed),
                 res.first_error.c_str());
  }
  if (w->warmup_wrong() > 0) {
    std::fprintf(stderr, "e2ebench: %llu warm-up queries returned a wrong "
                 "result\n",
                 static_cast<unsigned long long>(w->warmup_wrong()));
  }
  const bool correct = res.failed == 0 && w->warmup_wrong() == 0 &&
                       cal_clean && ladder.correct;
  const size_t n = res.lat_ms.size();
  const std::vector<double> lat_cal = res.LatCal();
  const double cal_med = Median(cal.samples());
  const double cal_cpu_med = Median(cal.cpu_samples());
  const Totals& T = res.totals;
  const double q = static_cast<double>(std::max<uint64_t>(T.queries, 1));

  Metrics m;
  if (!args.trace) {
    m.Add("setup_s", setup_s, "s", 1);
    m.Add("latency_p50", Quantile(lat_cal, 0.5), "cal", n);
    m.Add("latency_p90", Quantile(lat_cal, 0.9), "cal", n);
    // CPU over CPU: each query's CPU over its calibration pass's CPU time.
    double cal_cpu_sum = 0;
    for (size_t i = 0; i < n; ++i) cal_cpu_sum += cal.cpu_samples()[i];
    m.Add("cpu_per_query", Ratio(res.cpu_ms, cal_cpu_sum, 0), "cal", n);
    m.Add("peak_rss_mb", peak_rss, "MB", 1);
    m.Add("ok_share",
          1.0 - Ratio(static_cast<double>(res.failed),
                      static_cast<double>(res.attempted), 1.0),
          "fraction", res.attempted);
  } else {
    for (const auto& [name, v] : ladder.cal) {
      m.Add(name, v, "cal", ladder.reps[name]);
    }
    const double vec = ladder.cal["interp.q1_vectorized"];
    const double itp = ladder.cal["interp.q1_interpreted"];
    const double avm = ladder.cal["vm.q1_adaptive"];
    const double s1w = ladder.cal["engine.q1_session_1w"];
    m.Add("interp.gap", itp - vec, "cal", ladder.reps["interp.q1_interpreted"]);
    m.Add("vm.gap", avm - itp, "cal", ladder.reps["vm.q1_adaptive"]);
    m.Add("engine.gap", s1w - avm, "cal", ladder.reps["engine.q1_session_1w"]);
    const auto med = [&](const char* name) {
      const std::vector<double> d = tracer.Durations(name);
      return std::make_pair(Median(d), d.size());
    };
    for (const char* span : {"engine.build", "engine.submit", "engine.wait"}) {
      const auto [v, k] = med(span);
      m.Add(std::string(span) + "_ms", v, "ms", k);
    }
    m.Add("interp.iterations", static_cast<double>(T.iterations) / q, "count",
          T.queries);
    m.Add("vm.injection_runs", static_cast<double>(T.injection_runs) / q,
          "count", T.queries);
    m.Add("vm.fallback_ratio",
          Ratio(static_cast<double>(T.fallbacks),
                static_cast<double>(T.injection_runs), 0),
          "ratio", T.queries);
    m.Add("vm.traces_reused", static_cast<double>(T.traces_reused) / q,
          "count", T.queries);
    m.Add("jit.traces_compiled", static_cast<double>(T.traces_compiled) / q,
          "count", T.queries);
    m.Add("jit.fast_compiles", static_cast<double>(T.fast_compiles) / q,
          "count", T.queries);
    m.Add("jit.opt_compiles", static_cast<double>(T.opt_compiles) / q, "count",
          T.queries);
    m.Add("jit.compile_ms", T.compile_s * 1e3 / q, "ms", T.queries);
    m.Add("jit.upgrade_done_ratio",
          Ratio(static_cast<double>(T.upgrades_done),
                static_cast<double>(T.upgrades_requested), 1),
          "ratio", T.queries);
    m.Add("jit.cache_hit_ratio",
          Ratio(static_cast<double>(res.cache_hits),
                static_cast<double>(res.cache_lookups), 0),
          "ratio", res.cache_lookups);
    m.Add("analysis.verifier_checked",
          static_cast<double>(T.verifier_checked) / q, "count", T.queries);
    m.Add("analysis.verifier_reject_ratio",
          Ratio(static_cast<double>(T.verifier_rejects),
                static_cast<double>(T.verifier_checked), 0),
          "ratio", T.queries);
    m.Add("storage.spill_mb", static_cast<double>(T.bytes_spilled) / q / 1e6,
          "MB", T.queries);
    m.Add("storage.spill_runs", static_cast<double>(T.spill_runs) / q, "count",
          T.queries);
    m.Add("storage.chunks_streamed",
          static_cast<double>(T.chunks_streamed) / q, "count", T.queries);
    m.Add("engine.peak_tracked_mb",
          static_cast<double>(T.peak_tracked) / q / 1e6, "MB", T.queries);
    m.Add("engine.morsels", static_cast<double>(T.morsels) / q, "count",
          T.queries);
    m.Add("host.cal_ms", cal_med, "ms", cal.samples().size());
    const std::vector<double> traced = res.LatCal(1);
    m.Add("bench.trace_overhead", Median(traced) - Median(res.LatCal(0)),
          "cal", traced.size());
  }

  // Provenance and raw figures, so any `cal` number converts back.
  std::ostringstream prov;
  prov << "{\"workload\": " << JsonStr(args.workload)
       << ", \"seed\": " << args.seed << ", \"seconds\": "
       << JsonNum(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"smoke\": " << (args.smoke ? "true" : "false")
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu_model\": " << JsonStr(CpuModel())
       << ", \"build_type\": " << JsonStr(E2E_BUILD_TYPE)
       << ", \"compiler\": " << JsonStr(E2E_COMPILER)
       << ", \"jit_compiler\": "
       << JsonStr(avm::jit::HostCompilerIdentity())
       << ", \"loadavg_start\": " << JsonNum(load_start)
       << ", \"loadavg_end\": " << JsonNum(load_end)
       << ", \"host_cal_ms\": " << JsonNum(cal_med)
       << ", \"host_cal_cpu_ms\": " << JsonNum(cal_cpu_med)
       << ", \"cal_threads\": " << cal.threads()
       << ", \"cal_samples\": " << cal.samples().size()
       << ", \"cal_other_thread_share\": " << JsonNum(other_share)
       << ", \"latency_p50_ms\": " << JsonNum(Quantile(res.lat_ms, 0.5))
       << ", \"latency_p90_ms\": " << JsonNum(Quantile(res.lat_ms, 0.9))
       << ", \"cpu_per_query_ms\": "
       << JsonNum(res.cpu_ms / static_cast<double>(std::max<size_t>(n, 1)))
       << ", \"failed_share\": "
       << JsonNum(Ratio(static_cast<double>(res.failed),
                        static_cast<double>(res.attempted), 0))
       << "}";

  if (args.trace && !args.trace_out.empty()) {
    std::ostringstream self;
    self << "{";
    bool first = true;
    for (const auto& [name, ms] : tracer.SelfTimes()) {
      self << (first ? "" : ", ") << JsonStr(name) << ": " << JsonNum(ms);
      first = false;
    }
    self << "}";
    const std::string meta = "{\"provenance\": " + prov.str() +
                             ", \"self_time_ms\": " + self.str() + "}";
    if (!tracer.WriteChromeTrace(args.trace_out, meta, g_process_start_ms)) {
      Die("cannot write " + args.trace_out);
    }
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"provenance\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), m.Json().c_str(),
      prov.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::g_process_start_ms = e2e::NowMs();
  // An inherited AVM_* variable would change what is measured (disk trace
  // cache, JIT tier, kernel tier, memory budget): run with none of them.
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "AVM_", 4) == 0) {
      const std::string kv(*e);
      inherited.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& k : inherited) unsetenv(k.c_str());
  return e2e::Main(argc, argv);
}
