#include "vm/adaptive_vm.h"

#include <gtest/gtest.h>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "interp/kernel_ops.h"
#include "jit/backend_cc.h"
#include "storage/datagen.h"
#include "util/rng.h"

namespace avm::vm {
namespace {

using interp::DataBinding;

struct Fig2Data {
  std::vector<int64_t> data, v, w;
};

Fig2Data MakeData(int64_t n) {
  Fig2Data d;
  d.data.resize(n);
  d.v.assign(n, -1);
  d.w.assign(n, -1);
  Rng rng(7);
  for (auto& x : d.data) x = rng.NextInRange(-50, 50);
  return d;
}

Status BindFig2(interp::Interpreter& in, Fig2Data* d) {
  const uint64_t n = d->data.size();
  AVM_RETURN_NOT_OK(in.BindData(
      "some_data", DataBinding::Raw(TypeId::kI64, d->data.data(), n)));
  AVM_RETURN_NOT_OK(
      in.BindData("v", DataBinding::Raw(TypeId::kI64, d->v.data(), n, true)));
  AVM_RETURN_NOT_OK(
      in.BindData("w", DataBinding::Raw(TypeId::kI64, d->w.data(), n, true)));
  return Status::OK();
}

TEST(AdaptiveVmTest, JitDisabledStillCorrect) {
  const int64_t kN = 32 * 1024;
  dsl::Program p = dsl::MakeFigure2Program(kN);
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.enable_jit = false;
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(d.v[i], 2 * d.data[i]);
  EXPECT_EQ(vm.Report().traces_compiled, 0u);
  EXPECT_TRUE(vm.state_machine().transitions().empty());
}

TEST(AdaptiveVmTest, CompilesAndInjectsMidRun) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 64 * 1024;  // 64 chunks: warmup + compiled phase
  dsl::Program p = dsl::MakeFigure2Program(kN);
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 4;
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());

  // Correctness is preserved through the mid-run strategy switch.
  size_t expect_w = 0;
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(d.v[i], 2 * d.data[i]);
    if (2 * d.data[i] > 0) {
      ASSERT_EQ(d.w[expect_w], 2 * d.data[i]);
      ++expect_w;
    }
  }
  VmReport report = vm.Report();
  EXPECT_GT(report.traces_compiled + report.disk_cache_hits, 0u);
  EXPECT_GT(report.injection_runs, 0u);
  // A warm persistent cache loads machine code without invoking a backend,
  // in which case zero compile wall time is the expected reading.
  if (report.disk_cache_hits == 0) {
    EXPECT_GT(report.compile_seconds, 0.0);
  }

  // The Fig. 1 cycle appears in the timeline.
  EXPECT_NE(report.state_timeline.find("Interpret -> Optimize"),
            std::string::npos);
  EXPECT_NE(report.state_timeline.find("GenerateCode -> InjectFunctions"),
            std::string::npos);
}

TEST(AdaptiveVmTest, SchemeChangeTriggersFallbackAndRespecialization) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  // Column whose scheme flips from FOR to PLAIN mid-column: the FOR-
  // specialized trace must stop applying (fallback), and the recheck pass
  // must install a plain variant.
  const uint32_t kHalf = 64 * 1024;
  Column col(TypeId::kI64, 4096);
  DataGen gen(3);
  auto narrow = gen.UniformI64(kHalf, 1000, 1500);  // FOR blocks
  std::vector<int64_t> wide(kHalf);
  Rng rng(4);
  for (auto& x : wide) x = static_cast<int64_t>(rng.Next() >> 1);  // Plain
  for (uint32_t off = 0; off < kHalf; off += 4096) {
    ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kFor,
                                          narrow.data() + off, 4096)
                    .ok());
  }
  for (uint32_t off = 0; off < kHalf; off += 4096) {
    ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kPlain,
                                          wide.data() + off, 4096)
                    .ok());
  }
  const uint64_t kN = col.num_rows();

  dsl::Program p = dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(2)),
      static_cast<int64_t>(kN));
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 4;
  opts.recheck_interval = 8;
  opts.specialize_compression = true;
  AdaptiveVm vm(&p, opts);
  std::vector<int64_t> out(kN, 0);
  ASSERT_TRUE(
      vm.interpreter().BindData("src", DataBinding::FromColumn(&col)).ok());
  ASSERT_TRUE(vm.interpreter()
                  .BindData("out", DataBinding::Raw(TypeId::kI64, out.data(),
                                                    kN, true))
                  .ok());
  ASSERT_TRUE(vm.Run().ok());
  for (uint32_t i = 0; i < kHalf; ++i) ASSERT_EQ(out[i], narrow[i] * 2);
  // wide[] reaches 2^63-1: the program's multiply wraps, so the
  // expectation must too (a plain `* 2` is signed overflow).
  for (uint32_t i = 0; i < kHalf; ++i) {
    ASSERT_EQ(out[kHalf + i], interp::ops::WrapMul<int64_t>(wide[i], 2));
  }
  VmReport report = vm.Report();
  // Two situations compiled: FOR-specialized and plain.
  EXPECT_GE(report.traces_compiled + report.disk_cache_hits, 2u);
  EXPECT_GT(report.injection_fallbacks, 0u);
  EXPECT_GT(report.injection_runs, 0u);
}

// Injected traces read column bindings through the interpreter's streaming
// cursor: over a Delta-compressed (sorted) column, whose random-access
// decode re-walks the block from its first value, a forward scan must still
// decode every block exactly once — interpreted and compiled reads alike —
// and count each in chunks_streamed.
TEST(AdaptiveVmTest, InjectedColumnReadsStreamEachBlockOnce) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  constexpr uint32_t kBlock = 4096;
  constexpr uint32_t kBlocks = 12;
  Column col(TypeId::kI64, kBlock);
  DataGen gen(9);
  auto sorted = gen.SortedI64(kBlock * kBlocks, 0, 1'000'000);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(col.AppendBlockWithScheme(Scheme::kDelta,
                                          sorted.data() + b * kBlock, kBlock)
                    .ok());
  }
  const uint64_t kN = col.num_rows();
  dsl::Program p = dsl::MakeMapPipeline(
      TypeId::kI64, dsl::Lambda({"x"}, dsl::Var("x") * dsl::ConstI(2)),
      static_cast<int64_t>(kN));
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 4;
  AdaptiveVm vm(&p, opts);
  std::vector<int64_t> out(kN, 0);
  ASSERT_TRUE(
      vm.interpreter().BindData("src", DataBinding::FromColumn(&col)).ok());
  ASSERT_TRUE(vm.interpreter()
                  .BindData("out", DataBinding::Raw(TypeId::kI64, out.data(),
                                                    kN, true))
                  .ok());
  ASSERT_TRUE(vm.Run().ok());
  for (uint64_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], sorted[i] * 2);
  VmReport report = vm.Report();
  ASSERT_GT(report.injection_runs, 0u);
  EXPECT_EQ(report.chunks_streamed, kBlocks);
}

TEST(AdaptiveVmTest, TraceCacheReusedAcrossSituationRecurrence) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  const int64_t kN = 96 * 1024;
  dsl::Program p = dsl::MakeFigure2Program(kN);
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 2;
  opts.recheck_interval = 16;  // several optimize passes over the run
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());
  // Recurrent passes must not recompile identical situations.
  EXPECT_LE(vm.Report().traces_compiled, 4u);
  EXPECT_GE(vm.trace_cache().size(), 1u);
}

TEST(AdaptiveVmTest, ShortRunStaysInterpreted) {
  if (!jit::HostCompilerAvailable()) GTEST_SKIP();
  // Fewer iterations than the optimize threshold: never compiles — the
  // paper's "interpret cold code and short-running programs".
  const int64_t kN = 2048;  // 2 iterations
  dsl::Program p = dsl::MakeFigure2Program(kN);
  ASSERT_TRUE(dsl::TypeCheck(&p).ok());
  VmOptions opts;
  opts.optimize_after_iterations = 100;
  AdaptiveVm vm(&p, opts);
  Fig2Data d = MakeData(kN);
  ASSERT_TRUE(BindFig2(vm.interpreter(), &d).ok());
  ASSERT_TRUE(vm.Run().ok());
  EXPECT_EQ(vm.Report().traces_compiled, 0u);
}

/// The loop `let x = read i src; let ok = filter (< 50) x;
/// let c = map (\v _s -> v*2) x ok; [k := k + len c;] i := i + len x` over
/// `n` rows. `read_len_c` adds the `len c` statement — a read of the
/// post-filter value `c` from outside the dependency graph, after every
/// graph node (so both shapes give their nodes the same ids).
dsl::Program LenOfPostFilterProgram(int64_t n, bool read_len_c) {
  using namespace dsl;  // NOLINT: builder DSL reads best unqualified
  Program p;
  p.data = {{"src", TypeId::kI64, false}};
  std::vector<StmtPtr> body;
  body.push_back(
      Let("x", Skeleton(SkeletonKind::kRead, {Var("i"), Var("src")})));
  body.push_back(Let("ok", Skeleton(SkeletonKind::kFilter,
                                    {Lambda({"v"}, Var("v") < ConstI(50)),
                                     Var("x")})));
  body.push_back(Let("c", Skeleton(SkeletonKind::kMap,
                                   {Lambda({"v", "_s"}, Var("v") * ConstI(2)),
                                    Var("x"), Var("ok")})));
  if (read_len_c) {
    body.push_back(Assign(
        "k", Var("k") + Skeleton(SkeletonKind::kLen, {Var("c")})));
  }
  body.push_back(Assign(
      "i", Var("i") + Skeleton(SkeletonKind::kLen, {Var("x")})));
  body.push_back(If(Var("i") >= ConstI(n), {Break()}));
  p.stmts = {MutDef("i"), Assign("i", ConstI(0)), MutDef("k"),
             Assign("k", ConstI(0)), Loop(std::move(body))};
  p.AssignIds();
  EXPECT_TRUE(TypeCheck(&p).ok());
  return p;
}

std::vector<int64_t> LenOfPostFilterData(int64_t n) {
  std::vector<int64_t> src(static_cast<size_t>(n));
  Rng rng(11);
  for (auto& x : src) x = rng.NextInRange(0, 99);
  return src;
}

/// Runs `p` over `src` (interpreted when `opts.enable_jit` is false) and
/// returns the final value of `k`.
int64_t RunLenOfPostFilter(const dsl::Program& p, std::vector<int64_t>* src,
                           VmOptions opts, jit::TraceCache* cache = nullptr,
                           VmReport* report = nullptr) {
  AdaptiveVm vm(&p, opts, cache);
  EXPECT_TRUE(vm.interpreter()
                  .BindData("src", DataBinding::Raw(TypeId::kI64, src->data(),
                                                    src->size()))
                  .ok());
  EXPECT_TRUE(vm.Run().ok());
  if (report != nullptr) *report = vm.Report();
  auto k = vm.interpreter().GetScalar("k");
  EXPECT_TRUE(k.ok());
  return k.ok() ? k.value().AsI64() : -1;
}

// `len c` reads the post-filter value `c` outside the graph. A trace that
// holds the filter and `c` would publish `c` without its selection, so the
// partitioner must keep them apart (the value is live-out and no condense
// follows) — the result equals interpretation.
TEST(AdaptiveVmTest, LenOfPostFilterValueMatchesInterpretation) {
  const int64_t kN = 64 * 1024;
  dsl::Program p = LenOfPostFilterProgram(kN, /*read_len_c=*/true);
  std::vector<int64_t> src = LenOfPostFilterData(kN);
  VmOptions interp;
  interp.enable_jit = false;
  const int64_t want = RunLenOfPostFilter(p, &src, interp);
  ASSERT_GT(want, 0);
  ASSERT_LT(want, kN);

  VmOptions jit;
  jit.optimize_after_iterations = 2;
  jit.constraints.allow_filter = true;
  jit::TraceCache cache;
  VmReport report;
  EXPECT_EQ(RunLenOfPostFilter(p, &src, jit, &cache, &report), want);
  EXPECT_EQ(report.verifier_rejects, 0u);
  // A second VM on the same cache reuses the partition (no region is
  // grown again) and every compiled trace (nothing is verified again).
  VmReport again;
  EXPECT_EQ(RunLenOfPostFilter(p, &src, jit, &cache, &again), want);
  if (jit::HostCompilerAvailable()) {
    EXPECT_GT(report.injection_runs, 0u);
    EXPECT_GT(report.partition_refusals, 0u);
    EXPECT_EQ(again.partition_refusals, 0u);
    EXPECT_EQ(again.verifier_checked, 0u);
    EXPECT_EQ(again.traces_compiled, 0u);
    EXPECT_GT(again.injection_runs, 0u);
  }
}

// Two programs whose trace nodes are identical but only one of which reads
// `len c` share one TraceCache: the live-out set is part of the trace
// fingerprint, so each gets its own entry (one publishes `c`, the other
// does not), and both match interpretation.
TEST(AdaptiveVmTest, SharedCacheKeepsLiveOutVariantsApart) {
  const int64_t kN = 64 * 1024;
  dsl::Program without = LenOfPostFilterProgram(kN, /*read_len_c=*/false);
  dsl::Program with = LenOfPostFilterProgram(kN, /*read_len_c=*/true);
  std::vector<int64_t> src = LenOfPostFilterData(kN);

  // The map's trace: same node, same shape, different outside uses.
  ir::DepGraph g_without = ir::DepGraph::Build(without).ValueOrDie();
  ir::DepGraph g_with = ir::DepGraph::Build(with).ValueOrDie();
  ir::Trace map_trace;
  map_trace.node_ids = {static_cast<uint32_t>(g_with.ProducerOf("c"))};
  ASSERT_EQ(g_without.ProducerOf("c"), g_with.ProducerOf("c"));
  EXPECT_EQ(g_without.nodes()[map_trace.node_ids[0]].shape_hash,
            g_with.nodes()[map_trace.node_ids[0]].shape_hash);
  EXPECT_NE(jit::TraceFingerprint(g_without, map_trace),
            jit::TraceFingerprint(g_with, map_trace));

  VmOptions interp;
  interp.enable_jit = false;
  const int64_t want_with = RunLenOfPostFilter(with, &src, interp);
  const int64_t want_without = RunLenOfPostFilter(without, &src, interp);

  // Filters stay interpreted, so both programs compile the same trace
  // nodes: {read x} and the selection-carrying {map c}.
  VmOptions jit;
  jit.optimize_after_iterations = 2;
  jit.constraints.allow_filter = false;
  jit::TraceCache cache;
  VmReport r_without, r_with;
  EXPECT_EQ(RunLenOfPostFilter(without, &src, jit, &cache, &r_without),
            want_without);
  EXPECT_EQ(RunLenOfPostFilter(with, &src, jit, &cache, &r_with), want_with);
  if (jit::HostCompilerAvailable()) {
    EXPECT_GT(r_with.injection_runs, 0u);
    // {read x} is shared; {map c} compiles once per live-out set.
    EXPECT_EQ(r_without.traces_compiled + r_without.disk_cache_hits, 2u);
    EXPECT_EQ(r_with.traces_reused, 1u);
    EXPECT_EQ(r_with.traces_compiled + r_with.disk_cache_hits, 1u);
    EXPECT_EQ(cache.size(), 3u);
  }
}

}  // namespace
}  // namespace avm::vm
