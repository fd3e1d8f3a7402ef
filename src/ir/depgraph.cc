#include "ir/depgraph.h"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dsl/printer.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace avm::ir {

namespace {

using dsl::Expr;
using dsl::ExprKind;
using dsl::ExprPtr;
using dsl::SkeletonKind;
using dsl::Stmt;
using dsl::StmtKind;
using dsl::StmtPtr;

double BaseCost(SkeletonKind k, uint32_t num_prims) {
  switch (k) {
    case SkeletonKind::kRead: return 1.0;
    case SkeletonKind::kWrite: return 1.0;
    case SkeletonKind::kMap: return 1.0 * num_prims;
    case SkeletonKind::kFilter: return 1.5 + 0.5 * num_prims;
    case SkeletonKind::kFold: return 1.2 * num_prims;
    case SkeletonKind::kCondense: return 1.0;
    case SkeletonKind::kGather: return 2.5;
    case SkeletonKind::kScatter: return 3.0;
    case SkeletonKind::kGen: return 1.0;
    case SkeletonKind::kExpand: return 2.5;
    case SkeletonKind::kMerge: return 4.0;
    case SkeletonKind::kLen: return 0.0;
  }
  return 1.0;
}

uint32_t CountPrims(const Expr& e) {
  uint32_t n = e.kind == ExprKind::kScalarCall ? 1 : 0;
  if (e.body) n += CountPrims(*e.body);
  for (const auto& a : e.args) n += CountPrims(*a);
  return n;
}

std::string ShortLabel(const Expr& e) {
  std::string label = dsl::SkeletonName(e.skeleton);
  if ((e.skeleton == SkeletonKind::kMap ||
       e.skeleton == SkeletonKind::kFilter ||
       e.skeleton == SkeletonKind::kFold) &&
      !e.args.empty() && e.args[0]->kind == ExprKind::kLambda) {
    std::string body = dsl::PrintExpr(*e.args[0]->body);
    if (body.size() > 24) body = body.substr(0, 21) + "...";
    label += " [" + body + "]";
  }
  return label;
}

uint64_t HashExprTypes(const Expr& e, uint64_t h) {
  h = HashCombine(h, static_cast<uint64_t>(e.type));
  if (e.body) h = HashExprTypes(*e.body, h);
  for (const auto& a : e.args) h = HashExprTypes(*a, h);
  return h;
}

class GraphBuilder {
 public:
  explicit GraphBuilder(const dsl::Program& program) : program_(program) {}

  Result<DepGraph> Run() {
    // Find the (first) loop; it defines the steady-state pipeline iteration
    // the VM profiles and compiles. Programs without a loop use all stmts.
    const std::vector<StmtPtr>* body = &program_.stmts;
    for (const auto& s : program_.stmts) {
      if (s->kind == StmtKind::kLoop) {
        body = &s->body;
        break;
      }
    }
    for (const auto& s : *body) {
      AVM_RETURN_NOT_OK(VisitStmt(*s));
      ++cur_stmt_index_;
    }
    return std::move(graph_);
  }

 private:
  Status VisitStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kLet: {
        AVM_ASSIGN_OR_RETURN(int node, VisitExpr(*s.expr));
        if (node >= 0) {
          graph_.nodes()[static_cast<size_t>(node)].label +=
              " -> " + s.var;
          RegisterProducer(s.var, static_cast<uint32_t>(node));
        }
        return Status::OK();
      }
      case StmtKind::kExpr:
      case StmtKind::kAssign: {
        AVM_RETURN_NOT_OK(VisitExpr(*s.expr).status());
        return Status::OK();
      }
      case StmtKind::kIf: {
        AVM_RETURN_NOT_OK(VisitExpr(*s.expr).status());
        for (const auto& c : s.body) AVM_RETURN_NOT_OK(VisitStmt(*c));
        for (const auto& c : s.else_body) AVM_RETURN_NOT_OK(VisitStmt(*c));
        return Status::OK();
      }
      case StmtKind::kLoop: {
        for (const auto& c : s.body) AVM_RETURN_NOT_OK(VisitStmt(*c));
        return Status::OK();
      }
      default:
        return Status::OK();
    }
  }

  // Returns node id for skeleton expressions (excluding len), -1 otherwise.
  Result<int> VisitExpr(const Expr& e) {
    if (e.kind != ExprKind::kSkeleton) {
      // Scalar expression: recurse to catch nested skeletons (e.g. len).
      for (const auto& a : e.args) {
        AVM_RETURN_NOT_OK(VisitExpr(*a).status());
      }
      return -1;
    }
    if (e.skeleton == SkeletonKind::kLen) {
      // Control-flow helper; not part of the data-parallel graph (Fig. 3
      // excludes mutable-variable updates and control flow).
      return -1;
    }
    DepNode node;
    node.id = static_cast<uint32_t>(graph_.nodes().size());
    node.expr = &e;
    node.kind = e.skeleton;
    node.num_prims = std::max<uint32_t>(1, CountPrims(e));
    node.label = ShortLabel(e);
    node.cost = BaseCost(e.skeleton, node.num_prims);
    node.stmt_index = cur_stmt_index_;
    graph_.nodes().push_back(node);
    const uint32_t id = node.id;

    for (size_t i = 0; i < e.args.size(); ++i) {
      const Expr& a = *e.args[i];
      if (a.kind == ExprKind::kLambda) continue;
      if (a.kind == ExprKind::kVarRef) {
        if (program_.FindData(a.var) != nullptr) {
          bool is_write_dest =
              (e.skeleton == SkeletonKind::kWrite ||
               e.skeleton == SkeletonKind::kScatter) &&
              i == 0;
          auto& n = graph_.nodes()[id];
          if (is_write_dest) {
            n.external_writes.push_back(a.var);
          } else {
            n.external_reads.push_back(a.var);
          }
          continue;
        }
        int prod = graph_.ProducerOf(a.var);
        if (prod >= 0) AddEdge(static_cast<uint32_t>(prod), id);
        continue;
      }
      if (a.kind == ExprKind::kSkeleton) {
        AVM_ASSIGN_OR_RETURN(int child, VisitExpr(a));
        if (child >= 0) {
          // Synthesize a name for the anonymous intermediate.
          std::string name = StrFormat("tmp%d", child);
          graph_.nodes()[static_cast<size_t>(child)].label += " -> " + name;
          RegisterProducer(name, static_cast<uint32_t>(child));
          AddEdge(static_cast<uint32_t>(child), id);
        }
        continue;
      }
      // Scalar expression argument (positions etc.): ignore.
    }
    return static_cast<int>(id);
  }

  void AddEdge(uint32_t from, uint32_t to) {
    graph_.nodes()[from].consumers.push_back(to);
    graph_.nodes()[to].inputs.push_back(from);
  }

  void RegisterProducer(const std::string& name, uint32_t node) {
    graph_.RegisterProducer(name, node);
  }

  const dsl::Program& program_;
  DepGraph graph_;
  uint32_t cur_stmt_index_ = 0;  ///< top-level body statement ordinal
};

/// Marks DepNode::used_outside_graph: every read of a node's value that is
/// not a direct value argument of another graph node. `consumed` says
/// whether the enclosing expression consumes `e`'s value (false for a
/// statement's own skeleton and for a graph node's nested arguments, which
/// are graph edges); `bound` holds the enclosing lambda parameters.
class OutsideUseMarker {
 public:
  explicit OutsideUseMarker(DepGraph* graph) : graph_(*graph) {
    for (const DepNode& n : graph_.nodes()) node_of_[n.expr] = n.id;
  }

  void Stmt(const dsl::Stmt& s) {
    if (s.expr != nullptr) {
      // A let binds its skeleton's value and an expression statement drops
      // it; assignments, conditions and the rest consume it.
      const bool consumed =
          s.kind != StmtKind::kLet && s.kind != StmtKind::kExpr;
      std::set<std::string> bound;
      Walk(*s.expr, consumed, &bound);
    }
    for (const auto& c : s.body) Stmt(*c);
    for (const auto& c : s.else_body) Stmt(*c);
  }

 private:
  void Walk(const Expr& e, bool consumed, std::set<std::string>* bound) {
    if (e.kind == ExprKind::kVarRef) {
      if (bound->contains(e.var)) return;
      const int prod = graph_.ProducerOf(e.var);
      if (prod >= 0) {
        graph_.nodes()[static_cast<size_t>(prod)].used_outside_graph = true;
      }
      return;
    }
    if (e.kind == ExprKind::kLambda) {
      // Free variables of a lambda body are captures.
      std::set<std::string> inner = *bound;
      inner.insert(e.params.begin(), e.params.end());
      if (e.body) Walk(*e.body, true, &inner);
      return;
    }
    auto it = node_of_.find(&e);
    const bool is_node = it != node_of_.end();
    if (is_node && consumed) {
      graph_.nodes()[it->second].used_outside_graph = true;
    }
    for (const auto& a : e.args) {
      // A node's variable arguments are graph edges (or data arrays).
      if (is_node && a->kind == ExprKind::kVarRef) continue;
      Walk(*a, !is_node, bound);
    }
    if (e.body) Walk(*e.body, true, bound);
  }

  DepGraph& graph_;
  std::unordered_map<const Expr*, uint32_t> node_of_;
};

}  // namespace

Result<DepGraph> DepGraph::Build(const dsl::Program& program) {
  AVM_ASSIGN_OR_RETURN(DepGraph graph, GraphBuilder(program).Run());
  OutsideUseMarker marker(&graph);
  for (const auto& s : program.stmts) marker.Stmt(*s);
  const std::vector<StmtPtr>* body = &program.stmts;
  for (const auto& s : program.stmts) {
    if (s->kind == StmtKind::kLoop) {
      body = &s->body;
      break;
    }
  }
  for (const auto& s : *body) {
    graph.stmt_hashes_.push_back(HashString(dsl::PrintStmt(*s)));
  }
  for (DepNode& node : graph.nodes_) {
    uint64_t h = HashString(dsl::PrintExpr(*node.expr));
    h = HashCombine(h, HashString(graph.OutputNameOf(node.id)));
    // The expression id pins the statement ids a trace anchors at; the
    // types are the type checker's, which the printed form omits.
    h = HashCombine(h, node.expr->id);
    node.shape_hash = HashExprTypes(*node.expr, h);
  }
  return graph;
}

int DepGraph::ProducerOf(const std::string& name) const {
  for (auto it = producers_.rbegin(); it != producers_.rend(); ++it) {
    if (it->first == name) return static_cast<int>(it->second);
  }
  return -1;
}

void DepGraph::RegisterProducer(const std::string& name, uint32_t node) {
  producers_.emplace_back(name, node);
}

std::string DepGraph::OutputNameOf(uint32_t node) const {
  for (const auto& [name, id] : producers_) {
    if (id == node) return name;
  }
  return StrFormat("node%u", node);
}

std::vector<uint32_t> DepGraph::TopoOrder() const {
  std::vector<uint32_t> indeg(nodes_.size(), 0);
  for (const auto& n : nodes_) {
    indeg[n.id] = static_cast<uint32_t>(n.inputs.size());
  }
  std::deque<uint32_t> ready;
  for (const auto& n : nodes_) {
    if (indeg[n.id] == 0) ready.push_back(n.id);
  }
  std::vector<uint32_t> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    uint32_t id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (uint32_t c : nodes_[id].consumers) {
      if (--indeg[c] == 0) ready.push_back(c);
    }
  }
  return order;
}

std::string DepGraph::ToDot() const {
  std::ostringstream os;
  os << "digraph deps {\n  rankdir=BT;\n";
  for (const auto& n : nodes_) {
    os << StrFormat("  n%u [label=\"%s\"];\n", n.id, n.label.c_str());
  }
  for (const auto& n : nodes_) {
    for (uint32_t c : n.consumers) {
      os << StrFormat("  n%u -> n%u;\n", n.id, c);
    }
  }
  os << "}\n";
  return os.str();
}

namespace {

bool NodeEligible(const DepNode& n, const PartitionConstraints& c) {
  switch (n.kind) {
    case SkeletonKind::kFilter:
      return c.allow_filter;
    case SkeletonKind::kCondense:
      return c.allow_condense;
    case SkeletonKind::kGather:
    case SkeletonKind::kScatter:
      return c.allow_scatter_gather;
    case SkeletonKind::kMerge:
      return false;  // complex op; hinders vectorization (paper §III-B)
    case SkeletonKind::kExpand:
      // Expand crosses row domains: its output length is data-dependent
      // (the hash-join fan-out), so it can never share a fixed-n trace
      // with its chunk-domain inputs. Keeping it out of traces also keeps
      // every domain-crossing edge out of compiled code — pair-domain
      // consumers connect to the probe domain only through expand or
      // through chunk-base gathers, which codegen declines.
      return false;
    default:
      return true;
  }
}

// Count the memory streams of a candidate region: external arrays plus
// array values crossing the region boundary (its inputs and live-out
// values; the scalar counts of writes/scatters and fold results are not
// streams).
size_t CountStreams(const DepGraph& g, const std::set<uint32_t>& region) {
  std::set<std::string> streams;
  for (uint32_t id : region) {
    const DepNode& n = g.nodes()[id];
    for (const auto& r : n.external_reads) streams.insert("D:" + r);
    for (const auto& w : n.external_writes) streams.insert("D:" + w);
    for (uint32_t in : n.inputs) {
      if (!region.contains(in)) streams.insert("V:" + g.OutputNameOf(in));
    }
    const bool scalar = n.kind == SkeletonKind::kWrite ||
                        n.kind == SkeletonKind::kScatter ||
                        n.kind == SkeletonKind::kFold;
    if (!scalar && IsLiveOut(n, region)) {
      streams.insert("V:" + g.OutputNameOf(id));
    }
  }
  return streams.size();
}

}  // namespace

int StmtConvexityViolation(const DepGraph& graph,
                           const std::set<uint32_t>& region) {
  uint32_t anchor = UINT32_MAX, last = 0;
  for (uint32_t id : region) {
    anchor = std::min(anchor, graph.nodes()[id].stmt_index);
    last = std::max(last, graph.nodes()[id].stmt_index);
  }
  // Value edges: inputs must predate the anchor.
  for (uint32_t id : region) {
    for (uint32_t in : graph.nodes()[id].inputs) {
      if (!region.contains(in) &&
          graph.nodes()[in].stmt_index >= anchor) {
        return static_cast<int>(in);
      }
    }
  }
  // Data arrays the region touches.
  std::set<std::string> reads, writes;
  for (uint32_t id : region) {
    const DepNode& n = graph.nodes()[id];
    reads.insert(n.external_reads.begin(), n.external_reads.end());
    writes.insert(n.external_writes.begin(), n.external_writes.end());
  }
  // A fused read-after-write of one array would see pre-write data
  // (compiled data writes publish after the call).
  for (uint32_t id : region) {
    for (const auto& r : graph.nodes()[id].external_reads) {
      if (writes.contains(r)) return static_cast<int>(id);
    }
  }
  // Outside accessors inside the statement span: an interpreted write to
  // an array the region reads (or writes), or an interpreted read of an
  // array the region writes, would observe/produce a different order than
  // statement-by-statement interpretation.
  for (const DepNode& n : graph.nodes()) {
    if (region.contains(n.id)) continue;
    if (n.stmt_index < anchor || n.stmt_index > last) continue;
    for (const auto& w : n.external_writes) {
      if (reads.contains(w) || writes.contains(w)) {
        return static_cast<int>(n.id);
      }
    }
    for (const auto& r : n.external_reads) {
      if (writes.contains(r)) return static_cast<int>(n.id);
    }
  }
  return -1;
}

int StmtConvexityViolation(const DepGraph& graph,
                           const std::vector<uint32_t>& region) {
  return StmtConvexityViolation(
      graph, std::set<uint32_t>(region.begin(), region.end()));
}

std::vector<std::string> Trace::ChunkVarInputs(
    const dsl::Program& program) const {
  std::vector<std::string> out;
  for (const auto& name : inputs) {
    if (program.FindData(name) == nullptr) out.push_back(name);
  }
  return out;
}

namespace {

// The trace a region compiles to: its nodes in topological order, and the
// names crossing its boundary.
Trace MakeTrace(const DepGraph& graph, const std::set<uint32_t>& region,
                const std::vector<uint32_t>& topo_pos) {
  Trace t;
  std::set<std::string> ins, outs;
  for (uint32_t id : region) {
    const DepNode& n = graph.nodes()[id];
    t.total_cost += n.cost;
    t.node_ids.push_back(id);
    for (const auto& r : n.external_reads) ins.insert(r);
    for (const auto& w : n.external_writes) outs.insert(w);
    for (uint32_t in : n.inputs) {
      if (!region.contains(in)) ins.insert(graph.OutputNameOf(in));
    }
    if (IsLiveOut(n, region)) outs.insert(graph.OutputNameOf(id));
  }
  std::sort(t.node_ids.begin(), t.node_ids.end(),
            [&](uint32_t a, uint32_t b) { return topo_pos[a] < topo_pos[b]; });
  t.inputs.assign(ins.begin(), ins.end());
  t.outputs.assign(outs.begin(), outs.end());
  return t;
}

}  // namespace

std::vector<Trace> GreedyPartition(const DepGraph& graph,
                                   const PartitionConstraints& constraints,
                                   const RegionCheck& check,
                                   uint64_t* refusals) {
  const auto& nodes = graph.nodes();
  std::vector<bool> visited(nodes.size(), false);
  std::vector<Trace> traces;
  uint64_t refused_steps = 0;

  auto topo = graph.TopoOrder();
  std::vector<uint32_t> topo_pos(nodes.size(), 0);
  for (size_t i = 0; i < topo.size(); ++i) topo_pos[topo[i]] = i;
  auto verdict = [&](const std::set<uint32_t>& region) {
    return check ? check(MakeTrace(graph, region, topo_pos))
                 : RegionVerdict::kClean;
  };

  while (true) {
    // Seed: most expensive unvisited eligible node.
    int seed = -1;
    for (const auto& n : nodes) {
      if (visited[n.id] || !NodeEligible(n, constraints)) continue;
      if (seed < 0 || n.cost > nodes[static_cast<size_t>(seed)].cost) {
        seed = static_cast<int>(n.id);
      }
    }
    if (seed < 0) break;

    std::set<uint32_t> region{static_cast<uint32_t>(seed)};
    const RegionVerdict seed_verdict = verdict(region);
    if (seed_verdict == RegionVerdict::kRefused) {
      ++refused_steps;
      visited[static_cast<size_t>(seed)] = true;  // stays interpreted
      continue;
    }
    // The last region state the check called clean: where an unclosed
    // region is cut back to.
    std::set<uint32_t> clean_prefix;
    if (seed_verdict == RegionVerdict::kClean) clean_prefix = region;
    std::set<uint32_t> refused;  // neighbours the check turned down
    while (region.size() < constraints.max_nodes) {
      // Candidates: unvisited eligible neighbours that keep the stream
      // budget and convexity, highest cost first (first-seen on ties).
      std::vector<uint32_t> candidates;
      for (uint32_t id : region) {
        auto consider = [&](uint32_t cand) {
          if (visited[cand] || region.contains(cand)) return;
          if (refused.contains(cand)) return;
          if (!NodeEligible(nodes[cand], constraints)) return;
          if (std::find(candidates.begin(), candidates.end(), cand) !=
              candidates.end()) {
            return;
          }
          std::set<uint32_t> tentative = region;
          tentative.insert(cand);
          if (CountStreams(graph, tentative) > constraints.max_streams) return;
          if (StmtConvexityViolation(graph, tentative) >= 0) return;
          candidates.push_back(cand);
        };
        for (uint32_t in : nodes[id].inputs) consider(in);
        for (uint32_t c : nodes[id].consumers) consider(c);
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](uint32_t a, uint32_t b) {
                         return nodes[a].cost > nodes[b].cost;
                       });
      bool grew = false;
      for (uint32_t cand : candidates) {
        std::set<uint32_t> tentative = region;
        tentative.insert(cand);
        const RegionVerdict v = verdict(tentative);
        if (v == RegionVerdict::kRefused) {
          ++refused_steps;
          refused.insert(cand);
          continue;
        }
        region = std::move(tentative);
        if (v == RegionVerdict::kClean) clean_prefix = region;
        grew = true;
        break;
      }
      if (!grew) break;
    }
    if (region != clean_prefix) {
      // Growth ended unclosed: keep the last clean prefix. The nodes cut
      // off stay unvisited and may seed or join a later region.
      ++refused_steps;
      region = std::move(clean_prefix);
      if (region.empty()) {
        visited[static_cast<size_t>(seed)] = true;  // stays interpreted
        continue;
      }
    }

    for (uint32_t id : region) visited[id] = true;
    Trace t = MakeTrace(graph, region, topo_pos);
    if (t.total_cost >= constraints.min_trace_cost) {
      traces.push_back(std::move(t));
    }
  }
  std::sort(traces.begin(), traces.end(),
            [](const Trace& a, const Trace& b) {
              return a.total_cost > b.total_cost;
            });
  if (refusals != nullptr) *refusals = refused_steps;
  return traces;
}

}  // namespace avm::ir
