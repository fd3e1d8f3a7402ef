// Unit tests for compiling a whole C++ source to native code and loading it
// through the optimized-tier backend and the process-global ArtifactLoader,
// the path the whole-query Q1 baseline compiles through. Host-compiler
// availability and loader symbol checks are in jit_backend_test.
#include <gtest/gtest.h>

#include <string>

#include "jit/backend_cc.h"
#include "jit/jit_backend.h"

namespace avm::jit {
namespace {

constexpr const char* kAddSource = R"(
extern "C" long avm_source_jit_add(long a, long b) { return a + b; }
)";

TEST(SourceJitTest, OptimizedTierCompilesAndRuns) {
  JitBackend& backend = BackendForTier(JitTier::kOptimized);
  if (!backend.Available()) GTEST_SKIP() << "no host compiler";
  auto artifact = backend.Compile(kAddSource, "avm_source_jit_add", nullptr);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().tier, JitTier::kOptimized);
  auto sym =
      ArtifactLoader::Global().Load(artifact.value(), "avm_source_jit_add");
  ASSERT_TRUE(sym.ok()) << sym.status().ToString();
  auto fn = reinterpret_cast<long (*)(long, long)>(sym.value());
  EXPECT_EQ(fn(20, 22), 42);
}

TEST(SourceJitTest, IdenticalSourceLoadsOneSymbol) {
  JitBackend& backend = BackendForTier(JitTier::kOptimized);
  if (!backend.Available()) GTEST_SKIP() << "no host compiler";
  auto a = backend.Compile(kAddSource, "avm_source_jit_add", nullptr);
  auto b = backend.Compile(kAddSource, "avm_source_jit_add", nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  auto sa = ArtifactLoader::Global().Load(a.value(), "avm_source_jit_add");
  auto sb = ArtifactLoader::Global().Load(b.value(), "avm_source_jit_add");
  ASSERT_TRUE(sa.ok() && sb.ok());
  EXPECT_EQ(sa.value(), sb.value());
}

TEST(SourceJitTest, ReportsCompileErrors) {
  JitBackend& backend = BackendForTier(JitTier::kOptimized);
  if (!backend.Available()) GTEST_SKIP() << "no host compiler";
  auto r = backend.Compile("this is not C++;", "nope", nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCompilationError());
  EXPECT_FALSE(r.status().message().empty());
}

}  // namespace
}  // namespace avm::jit
