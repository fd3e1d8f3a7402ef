// Cache of compiled traces keyed by workload situation.
//
// Section III-B: "The repetition of this algorithm will eventually lead to
// many of these traces, each optimized for a specific situation. The VM
// then chooses — based on the current situation — a trace, if it already
// learned about that situation, or falls back to interpretation."
//
// A situation is: the trace's node set (with its live-out values and
// statement context), the compression schemes its reads are specialized
// for, which chunk inputs carry a selection vector, and a coarse
// selectivity bucket.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "jit/trace_compiler.h"
#include "storage/compression.h"
#include "util/thread_annotations.h"

namespace avm::jit {

/// Coarse selectivity classes the VM specializes for (Section III-C:
/// bitmap/full-compute when nearly nothing is filtered, selection vectors
/// when selective).
enum class SelectivityBucket : uint8_t {
  kAny = 0,
  kLow,    ///< < 25% survive
  kMid,
  kHigh,   ///< > 75% survive
};

SelectivityBucket BucketOf(double selectivity);
const char* BucketName(SelectivityBucket b);

struct Situation {
  uint64_t trace_fingerprint = 0;  ///< hash of node ids + shape hashes
  std::map<std::string, Scheme> schemes;  ///< per read data array
  /// Chunk-variable inputs observed to carry a selection vector (sorted).
  /// Part of the situation like compression schemes: the positional and
  /// the selection-carrying variants of one trace are distinct cache
  /// entries, each applicable only when the runtime selection pattern
  /// matches its specialization.
  std::vector<std::string> sel_inputs;
  SelectivityBucket selectivity = SelectivityBucket::kAny;

  uint64_t Key() const;
  std::string ToString() const;
};

/// Fingerprint of the code a trace compiles to and of everything its
/// verification reads: each node's id and DepNode::shape_hash, which nodes
/// are live-out (ir::IsLiveOut — so two plans whose trace nodes match but
/// whose outside uses differ never share an entry), the loop-body
/// statements its statement span covers (DepGraph::StmtHash), and the
/// statement ordinal of each boundary input's producer. A cache entry is
/// only ever inserted after a clean verification, so a hit for this key
/// needs no re-verification.
uint64_t TraceFingerprint(const ir::DepGraph& graph, const ir::Trace& trace);

/// Thread-safe: a single cache is shared by all workers of a parallel
/// (morsel-driven) run, so one worker's compiled trace serves every clone.
/// Entries are handed out as shared_ptr<TraceEntry> so a reader is never
/// invalidated by a concurrent insert; an entry's metadata is immutable,
/// while its machine code may be re-published in place by the asynchronous
/// tier upgrade (TraceEntry) — which is exactly how upgraded code reaches
/// both running injections and future cache hits without re-insertion.
class TraceCache {
 public:
  /// Find the entry compiled for exactly this situation.
  std::shared_ptr<TraceEntry> Find(const Situation& s) const;

  /// Insert (overwrites an existing entry for the same situation).
  /// Returns the inserted entry.
  std::shared_ptr<TraceEntry> Insert(const Situation& s, CompiledTrace trace);

  /// Single-flight lookup-or-compile: returns the cached entry for `s`, or
  /// runs `compile` and inserts its result. Compilation is serialized *per
  /// situation*, so concurrent morsel workers that miss on the same
  /// situation don't launch duplicate host-compiler invocations (late
  /// arrivals re-check the cache under the per-key lock and reuse the
  /// winner's trace), while distinct situations compile concurrently.
  /// `*compiled_fresh` reports whether this call ran `compile` (which may
  /// itself have loaded the artifact from the persistent disk cache rather
  /// than invoking a backend — CompileTraceTiered reports which).
  Result<std::shared_ptr<TraceEntry>> GetOrCompile(
      const Situation& s,
      const std::function<Result<CompiledTrace>()>& compile,
      bool* compiled_fresh);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

  /// The partition one VM computed for `key`: a dependency graph's shape
  /// together with the node costs, selection observations and constraints
  /// it was partitioned under (AdaptiveVm computes the key). Every morsel
  /// worker and every repeated query of the shape reuses it instead of
  /// growing regions under the verifier again. Null when absent.
  std::shared_ptr<const std::vector<ir::Trace>> FindPartition(
      uint64_t key) const;
  void InsertPartition(uint64_t key, std::vector<ir::Trace> traces);

 private:
  /// Find without touching the hit/miss counters (internal re-checks).
  std::shared_ptr<TraceEntry> Lookup(uint64_t key) const;

  mutable std::mutex mu_;
  /// Per-situation in-flight compile locks (single-flight). The map itself
  /// is guarded by mu_; the per-key mutexes are taken *after* releasing
  /// mu_, never while holding it.
  std::unordered_map<uint64_t, std::shared_ptr<std::mutex>> compiling_
      AVM_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::shared_ptr<TraceEntry>> entries_
      AVM_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::shared_ptr<const std::vector<ir::Trace>>>
      partitions_ AVM_GUARDED_BY(mu_);
  mutable uint64_t hits_ AVM_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ AVM_GUARDED_BY(mu_) = 0;
};

}  // namespace avm::jit
