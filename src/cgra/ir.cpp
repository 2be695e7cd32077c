#include "cgra/ir.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

namespace citl::cgra {

NodeId Dfg::push(Node n) {
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Dfg::add_const(double value) {
  // Dedupe identical literals — the context memories are small. Identical
  // means the same bits: -0.0 == 0.0, but the two are different constants.
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == OpKind::kConst &&
        std::bit_cast<std::uint64_t>(nodes_[i].constant) == bits) {
      return static_cast<NodeId>(i);
    }
  }
  Node n;
  n.kind = OpKind::kConst;
  n.constant = value;
  return push(std::move(n));
}

NodeId Dfg::add_param(const std::string& name, double default_value) {
  for (const auto& p : params_) {
    CITL_CHECK_MSG(p.name != name, "duplicate parameter: " + name);
  }
  Node n;
  n.kind = OpKind::kParam;
  n.name = name;
  n.constant = default_value;
  const NodeId id = push(std::move(n));
  params_.push_back(ParamVar{name, id, default_value});
  return id;
}

NodeId Dfg::add_state(const std::string& name, double initial) {
  for (const auto& s : states_) {
    CITL_CHECK_MSG(s.name != name, "duplicate state: " + name);
  }
  Node n;
  n.kind = OpKind::kState;
  n.name = name;
  n.constant = initial;
  const NodeId id = push(std::move(n));
  states_.push_back(StateVar{name, id, kNoNode, initial});
  return id;
}

NodeId Dfg::add_unary(OpKind k, NodeId a, int stage) {
  CITL_CHECK(op_arity(k) == 1);
  CITL_CHECK(a >= 0 && static_cast<std::size_t>(a) < nodes_.size());
  Node n;
  n.kind = k;
  n.args[0] = a;
  n.stage = stage;
  return push(std::move(n));
}

NodeId Dfg::add_binary(OpKind k, NodeId a, NodeId b, int stage) {
  CITL_CHECK(op_arity(k) == 2);
  CITL_CHECK(a >= 0 && static_cast<std::size_t>(a) < nodes_.size());
  CITL_CHECK(b >= 0 && static_cast<std::size_t>(b) < nodes_.size());
  Node n;
  n.kind = k;
  n.args[0] = a;
  n.args[1] = b;
  n.stage = stage;
  return push(std::move(n));
}

NodeId Dfg::add_select(NodeId cond, NodeId a, NodeId b, int stage) {
  Node n;
  n.kind = OpKind::kSelect;
  n.args[0] = cond;
  n.args[1] = a;
  n.args[2] = b;
  n.stage = stage;
  return push(std::move(n));
}

NodeId Dfg::add_load(NodeId address, int stage) {
  Node n;
  n.kind = OpKind::kLoad;
  n.args[0] = address;
  n.stage = stage;
  return push(std::move(n));
}

NodeId Dfg::add_store(NodeId address, NodeId value, int stage) {
  Node n;
  n.kind = OpKind::kStore;
  n.args[0] = address;
  n.args[1] = value;
  n.stage = stage;
  // Stores execute in program order relative to each other (the sensor bus
  // is a single in-order port).
  if (!stores_.empty()) n.order_deps.push_back(stores_.back());
  const NodeId id = push(std::move(n));
  stores_.push_back(id);
  return id;
}

void Dfg::set_state_update(const std::string& name, NodeId update) {
  for (auto& s : states_) {
    if (s.name == name) {
      s.update = update;
      return;
    }
  }
  CITL_CHECK_MSG(false, "unknown state: " + name);
}

bool Dfg::has_pipeline_stages() const noexcept {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [](const Node& n) { return n.stage != 0; });
}

std::vector<NodeId> Dfg::intra_preds(NodeId id) const {
  const Node& n = node(id);
  std::vector<NodeId> preds;
  for (unsigned i = 0; i < n.arity(); ++i) {
    const NodeId a = n.args[i];
    if (!is_pipeline_edge(a, id)) preds.push_back(a);
  }
  // Order edges chain the stores of one iteration in program order, across
  // the split too; unlike a value, an order edge never crosses iterations.
  for (NodeId d : n.order_deps) preds.push_back(d);
  return preds;
}

std::vector<NodeId> Dfg::topo_order() const {
  const std::size_t n = nodes_.size();
  std::vector<int> indegree(n, 0);
  std::vector<std::vector<NodeId>> succs(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (NodeId p : intra_preds(static_cast<NodeId>(i))) {
      succs[static_cast<std::size_t>(p)].push_back(static_cast<NodeId>(i));
      ++indegree[i];
    }
  }
  std::vector<NodeId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  std::vector<NodeId> order;
  order.reserve(n);
  // Process in id order within the ready set for determinism.
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const NodeId v = ready[head];
    order.push_back(v);
    for (NodeId s : succs[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  CITL_CHECK_MSG(order.size() == n, "dataflow graph has a combinational cycle");
  return order;
}

std::vector<unsigned> Dfg::criticality(const LatencyTable& lat) const {
  const auto order = topo_order();
  std::vector<unsigned> crit(nodes_.size(), 0);
  // Walk in reverse topological order: crit(v) = latency(v) + max crit(succ).
  std::vector<std::vector<NodeId>> succs(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (NodeId p : intra_preds(static_cast<NodeId>(i))) {
      succs[static_cast<std::size_t>(p)].push_back(static_cast<NodeId>(i));
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    unsigned best = 0;
    for (NodeId s : succs[static_cast<std::size_t>(v)]) {
      best = std::max(best, crit[static_cast<std::size_t>(s)]);
    }
    crit[static_cast<std::size_t>(v)] = best + lat.of(nodes_[static_cast<std::size_t>(v)].kind);
  }
  return crit;
}

void Dfg::validate() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    for (unsigned a = 0; a < n.arity(); ++a) {
      CITL_CHECK_MSG(n.args[a] >= 0 &&
                         static_cast<std::size_t>(n.args[a]) < nodes_.size(),
                     "operand out of range");
    }
    CITL_CHECK_MSG(n.stage == 0 || n.stage == 1, "stage must be 0 or 1");
    if (op_is_source(n.kind)) {
      CITL_CHECK_MSG(n.stage == 0, "sources live in stage 0");
    }
    // Stage-1 results feeding stage-0 consumers would need a negative
    // pipeline distance — reject.
    for (unsigned a = 0; a < n.arity(); ++a) {
      const Node& p = nodes_[static_cast<std::size_t>(n.args[a])];
      CITL_CHECK_MSG(!(p.stage == 1 && n.stage == 0),
                     "stage-1 value consumed in stage 0");
    }
  }
  for (const auto& s : states_) {
    CITL_CHECK_MSG(s.update != kNoNode,
                   "state '" + s.name + "' is never updated");
  }
  (void)topo_order();  // throws on cycles
}

std::size_t Dfg::count_class(OpClass c) const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [c](const Node& n) { return op_class(n.kind) == c; }));
}

Dfg Dfg::restore(std::vector<Node> nodes, std::vector<StateVar> states,
                 std::vector<ParamVar> params, std::vector<NodeId> stores) {
  Dfg g;
  g.nodes_ = std::move(nodes);
  g.states_ = std::move(states);
  g.params_ = std::move(params);
  g.stores_ = std::move(stores);
  for (const auto& s : g.states_) {
    CITL_CHECK_MSG(s.node >= 0 &&
                       static_cast<std::size_t>(s.node) < g.nodes_.size(),
                   "restored state node out of range");
  }
  for (const auto& p : g.params_) {
    CITL_CHECK_MSG(p.node >= 0 &&
                       static_cast<std::size_t>(p.node) < g.nodes_.size(),
                   "restored param node out of range");
  }
  g.validate();
  return g;
}

std::string Dfg::dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    os << '%' << i << " = " << op_name(n.kind);
    if (n.kind == OpKind::kConst) os << ' ' << n.constant;
    if (!n.name.empty()) os << " [" << n.name << ']';
    for (unsigned a = 0; a < n.arity(); ++a) os << " %" << n.args[a];
    if (n.stage != 0) os << "  (stage " << n.stage << ')';
    os << '\n';
  }
  for (const auto& s : states_) {
    os << "state " << s.name << ": %" << s.node << " <- %" << s.update
       << " (init " << s.initial << ")\n";
  }
  return os.str();
}

}  // namespace citl::cgra
