#include "analysis/diagnostic.h"

#include <sstream>

namespace avm::analysis {

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << "[" << rule_id << "] " << message;
  if (stmt_index >= 0 || node_id >= 0) {
    os << " (";
    bool first = true;
    if (stmt_index >= 0) {
      os << "stmt " << stmt_index;
      first = false;
    }
    if (node_id >= 0) {
      if (!first) os << ", ";
      os << "node " << node_id;
    }
    os << ")";
  }
  if (!fix_hint.empty()) os << "; hint: " << fix_hint;
  return os.str();
}

const Diagnostic* VerifyResult::FindRule(const std::string& rule_id) const {
  for (const auto& d : diagnostics) {
    if (d.rule_id == rule_id) return &d;
  }
  return nullptr;
}

std::string VerifyResult::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    if (i) os << "\n";
    os << diagnostics[i].ToString();
  }
  return os.str();
}

Status VerifyResult::ToStatus() const {
  return clean() ? Status::OK() : Status::NotImplemented(ToString());
}

}  // namespace avm::analysis
