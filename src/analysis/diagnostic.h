// Structured findings of the static verifier (docs/VERIFIER.md).
//
// Every rule the verifier checks has a stable kebab-case id (the catalog in
// docs/VERIFIER.md is keyed by it); a Diagnostic pins one violation of one
// rule to a dependency-graph node and loop-body statement, with a
// human-readable message and a fix hint. The engine surfaces the first
// diagnostic of a run through ExecReport::verifier_diagnostic, and the
// verifier tests assert specific rule ids fire on hand-built malformed
// programs — so ids are part of the observable contract and must not be
// renamed casually.
#pragma once

#include <string>
#include <vector>

#include "util/status.h"

namespace avm::analysis {

/// One rule violation: which rule, where, and how to fix it.
struct Diagnostic {
  std::string rule_id;   ///< stable id from the docs/VERIFIER.md catalog
  int node_id = -1;      ///< offending DepGraph node, -1 when program-level
  int stmt_index = -1;   ///< loop-body statement ordinal, -1 when unknown
  std::string message;   ///< what is wrong
  std::string fix_hint;  ///< what would make the program/trace verify

  /// "[rule-id] message (stmt N, node M; hint: ...)".
  std::string ToString() const;
};

/// The outcome of one verifier run: all diagnostics, in detection order
/// (the first one leads the decline message; see ToStatus).
struct VerifyResult {
  std::vector<Diagnostic> diagnostics;

  /// No rule fired.
  bool clean() const { return diagnostics.empty(); }

  /// First diagnostic carrying `rule_id`, or nullptr.
  const Diagnostic* FindRule(const std::string& rule_id) const;

  /// Newline-joined ToString of every diagnostic ("" when clean).
  std::string ToString() const;

  /// OK when clean; otherwise the trace decline: NotImplemented whose
  /// message is ToString(), so it leads with the first "[rule-id]".
  Status ToStatus() const;
};

}  // namespace avm::analysis
