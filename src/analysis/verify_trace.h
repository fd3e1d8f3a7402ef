// Level-2 static verifier: trace compilability (docs/VERIFIER.md).
//
// VerifyTrace encodes the docs/TRACE_ABI.md §6 decline taxonomy as
// machine-checked predicates over a candidate trace region: statement
// convexity (via ir::StmtConvexityViolation), capture staleness, the
// single-filter/condense selection discipline, scatter index-domain and
// conflict-function restrictions, affine read/write positions, gather and
// scatter base shapes, and value-argument resolvability. Each predicate
// carries a stable rule id.
//
// VerifyTrace is the only place that decides whether a trace compiles:
// the VM verifies each situation the trace cache has not seen, declines a
// dirty trace with its diagnostics (VerifyResult::ToStatus), and hands the
// TraceAnalysis of a clean one to jit::GenerateTrace, which emits from it.
// Codegen refuses nothing the verifier accepts; an emission gap is a
// Status::Internal failure. The partitioner grows regions under the same
// predicates (CheckRegion), so the traces it proposes verify clean.
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/diagnostic.h"
#include "dsl/ast.h"
#include "ir/depgraph.h"

namespace avm::analysis {

/// The situation the trace would be specialized for — the subset of
/// jit::CodegenOptions that affects accept/decline (compression schemes
/// only change input kinds, never declines; selection-carrying inputs
/// change the variant rules).
struct TraceContext {
  /// Chunk-variable inputs observed to carry a selection vector.
  std::set<std::string> sel_inputs;
};

/// Facts about one trace that the verifier's rules and the code generator's
/// emission both need. VerifyTrace computes them once; for a clean trace
/// they describe exactly what jit::GenerateTrace emits.
struct TraceAnalysis {
  /// The trace's node ids, as a set.
  std::unordered_set<uint32_t> nodes;
  /// Every graph node's expression -> node id.
  std::unordered_map<const dsl::Expr*, uint32_t> expr_to_node;
  /// Element type of every let-bound name in the program.
  std::unordered_map<std::string, TypeId> let_types;
  /// Chunk-variable trace inputs that carry a selection under the context
  /// (non-empty = the selection-carrying variant).
  std::set<std::string> sel_inputs;
  /// Nodes that depend, through in-trace edges, on a selection input.
  std::unordered_set<uint32_t> sel_dependent;
  /// Trace nodes whose value something outside the trace reads
  /// (ir::IsLiveOut): graph consumers outside the trace, and non-graph uses
  /// such as `len`, conditions and statements after the loop. The escape
  /// rules judge exactly these values, and codegen publishes exactly these.
  std::unordered_set<uint32_t> live_out;
  /// The in-trace filter node, -1 when there is none.
  int filter_node = -1;
  /// Scatter node -> conflict op (kAdd/kMin/kMax; kCast = overwrite).
  std::unordered_map<uint32_t, dsl::ScalarOp> scatter_combine;
  /// Loop-body statement ids the trace covers, and the first of them.
  std::vector<uint32_t> covered_stmt_ids;
  uint32_t anchor_stmt_id = 0;

  bool InTrace(uint32_t id) const { return nodes.contains(id); }
  bool LiveOut(uint32_t id) const { return live_out.contains(id); }
  bool SelDependent(uint32_t id) const { return sel_dependent.contains(id); }
  bool sel_mode() const { return !sel_inputs.empty(); }
  /// True when `id` consumes the filter through in-trace edges.
  bool DependsOnFilter(const ir::DepGraph& graph, uint32_t id) const;
};

/// Verify that `trace` (a region of `graph`, built from `program`) is
/// compilable under `ctx`. When `analysis` is non-null it receives the
/// trace facts; jit::GenerateTrace emits a clean trace from them.
VerifyResult VerifyTrace(const dsl::Program& program,
                         const ir::DepGraph& graph, const ir::Trace& trace,
                         const TraceContext& ctx = {},
                         TraceAnalysis* analysis = nullptr);

/// The partitioner's view of VerifyTrace (an ir::RegionCheck): kClean when
/// the candidate region verifies clean; kOpen when every diagnostic is one
/// that adding more nodes can repair — a filter or post-filter value whose
/// consumer node is still outside, a partially covered statement, a
/// condense or scatter waiting for its filter; kRefused otherwise (a second
/// filter, a value a non-graph use reads past a filter, an unsupported
/// node, a stale capture, ...).
ir::RegionVerdict CheckRegion(const dsl::Program& program,
                              const ir::DepGraph& graph,
                              const ir::Trace& trace,
                              const TraceContext& ctx);

}  // namespace avm::analysis
