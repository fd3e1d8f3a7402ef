// Shared driver for the host-C++-compiler JIT backends.
//
// Both concrete backends (backend_cc_o0.cc, backend_cc_o2.cc) are the same
// pipeline — write the TU to a temp file, invoke the host compiler, read the
// produced shared object back as artifact bytes — differing only in name,
// tier, and flag set. CcBackend carries that shape once; the per-tier
// translation units just instantiate it.
#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "jit/jit_backend.h"
#include "util/thread_annotations.h"

namespace avm::jit {

/// Path of the host C++ compiler: AVM_CXX if set, else the first of
/// c++/g++/clang++ on PATH; empty string when none is found. Leaked static —
/// safe to call from detached tier-upgrade threads during shutdown.
const std::string& HostCompilerPath();

/// Whether a host C++ compiler was found — without one the JIT is off and
/// the VM interprets.
bool HostCompilerAvailable();

/// Identity line of the host compiler (`<path> --version`, first line).
/// Folded into every backend's version_hash so artifacts produced by a
/// different compiler (or version) never load from the disk cache.
const std::string& HostCompilerIdentity();

/// Invoke the host compiler on `source` with `flags` and return the bytes
/// of the produced shared object. `compile_seconds`, when non-null,
/// receives the wall time of the compiler invocation.
Result<std::vector<uint8_t>> CcCompileToBytes(const std::string& source,
                                              const std::string& flags,
                                              double* compile_seconds);

/// A JitBackend that shells out to the host C++ compiler with a fixed flag
/// set. Thread-safe; memoizes produced artifacts by (source, symbol).
///
/// The memo holds full artifact bytes, so it is bounded both by entry
/// count and by total byte size (FIFO eviction). An evicted (source,
/// symbol) pair simply recompiles on its next request — the memo is a
/// latency optimization, never a correctness dependency.
class CcBackend : public JitBackend {
 public:
  static constexpr size_t kDefaultMemoEntries = 256;
  static constexpr size_t kDefaultMemoBytes = size_t{64} << 20;  // 64 MiB

  CcBackend(const char* name, JitTier tier, std::string flags,
            size_t memo_max_entries = kDefaultMemoEntries,
            size_t memo_max_bytes = kDefaultMemoBytes);

  const char* name() const override { return name_; }
  JitTier tier() const override { return tier_; }
  uint64_t version_hash() const override { return version_hash_; }
  bool Available() const override;
  Result<JitArtifact> Compile(const std::string& source,
                              const std::string& symbol,
                              double* compile_seconds) override;

  /// Current memo occupancy (entries / summed artifact bytes), bounded by
  /// the construction limits.
  size_t memo_entries();
  size_t memo_bytes();

 private:
  const char* name_;
  JitTier tier_;
  std::string flags_;
  uint64_t version_hash_;
  size_t memo_max_entries_;
  size_t memo_max_bytes_;
  std::mutex mu_;
  std::unordered_map<uint64_t, JitArtifact> memo_ AVM_GUARDED_BY(mu_);
  /// memo_ keys in insertion order.
  std::deque<uint64_t> fifo_ AVM_GUARDED_BY(mu_);
  size_t memo_bytes_ AVM_GUARDED_BY(mu_) = 0;
};

/// The fast tier: host compiler at -O0 (backend_cc_o0.cc).
JitBackend& CcBackendO0();

/// The optimized tier: host compiler at -O2 -march=native
/// (backend_cc_o2.cc).
JitBackend& CcBackendO2();

}  // namespace avm::jit
