// SCAR-style dataflow IR (§III-C).
//
// A kernel is the body of the per-revolution loop, represented as a dataflow
// graph in SSA form:
//   * kConst / kParam / kState nodes are sources,
//   * kState carries a value across iterations; each state names the node
//     whose result becomes its value for the next iteration,
//   * kLoad / kStore talk to the SensorAccess bus,
//   * every node carries a pipeline `stage` (0 or 1). Edges from stage 0 to
//     stage 1 are *pipeline edges*: the consumer reads the value the producer
//     computed in the previous iteration (the paper's manual loop pipelining,
//     §IV-B). Within a stage the graph is an ordinary DAG.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cgra/arch.hpp"
#include "cgra/op.hpp"
#include "core/error.hpp"

namespace citl::cgra {

using NodeId = int;
inline constexpr NodeId kNoNode = -1;

struct Node {
  OpKind kind = OpKind::kConst;
  std::array<NodeId, 3> args{kNoNode, kNoNode, kNoNode};
  double constant = 0.0;          ///< value for kConst
  int stage = 0;                  ///< pipeline stage (0 or 1)
  std::string name;               ///< param/state name, or debug label
  std::vector<NodeId> order_deps; ///< extra ordering edges (store chains)

  [[nodiscard]] unsigned arity() const noexcept { return op_arity(kind); }
};

/// A loop-carried state variable.
struct StateVar {
  std::string name;
  NodeId node = kNoNode;    ///< the kState source node
  NodeId update = kNoNode;  ///< node providing next iteration's value
  double initial = 0.0;
};

/// A runtime parameter (set through the parameter interface at run time).
struct ParamVar {
  std::string name;
  NodeId node = kNoNode;
  double default_value = 0.0;
};

class Dfg {
 public:
  // --- construction -----------------------------------------------------
  NodeId add_const(double value);
  NodeId add_param(const std::string& name, double default_value);
  NodeId add_state(const std::string& name, double initial);
  NodeId add_unary(OpKind k, NodeId a, int stage);
  NodeId add_binary(OpKind k, NodeId a, NodeId b, int stage);
  NodeId add_select(NodeId cond, NodeId a, NodeId b, int stage);
  NodeId add_load(NodeId address, int stage);
  NodeId add_store(NodeId address, NodeId value, int stage);

  /// Declares that state `name` takes the value of `update` next iteration.
  void set_state_update(const std::string& name, NodeId update);

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] const Node& node(NodeId id) const {
    CITL_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<StateVar>& states() const noexcept {
    return states_;
  }
  [[nodiscard]] const std::vector<ParamVar>& params() const noexcept {
    return params_;
  }
  [[nodiscard]] const std::vector<NodeId>& stores() const noexcept {
    return stores_;
  }
  [[nodiscard]] bool has_pipeline_stages() const noexcept;

  /// True if the edge producer→consumer crosses from stage 0 into stage 1
  /// (and therefore carries last iteration's value). Sources (constants,
  /// params, states) are exempt: the context memory / register file serves
  /// them to both stages directly — only *computed* stage-0 values travel
  /// through pipeline registers. This matches the paper's manual pipelining,
  /// where the end-of-loop variable copies are made for intermediate results
  /// (the fetched voltages), not for the loop-carried state itself.
  [[nodiscard]] bool is_pipeline_edge(NodeId producer, NodeId consumer) const {
    return node(producer).stage == 0 && node(consumer).stage == 1 &&
           !op_is_source(node(producer).kind);
  }

  /// Intra-iteration predecessors of `id`: value operands whose edges do
  /// NOT cross the pipeline boundary, and every order dep.
  [[nodiscard]] std::vector<NodeId> intra_preds(NodeId id) const;

  /// Topological order of the intra-iteration DAG. Throws if cyclic.
  [[nodiscard]] std::vector<NodeId> topo_order() const;

  /// Longest latency path from each node to any sink, used as the list
  /// scheduler's priority.
  [[nodiscard]] std::vector<unsigned> criticality(const LatencyTable& lat) const;

  /// Structural checks: arities, operand validity, state updates resolved,
  /// acyclicity. Throws CompileError/logic_error on violations.
  void validate() const;

  /// Counts nodes of a given class (for resource-feasibility checks).
  [[nodiscard]] std::size_t count_class(OpClass c) const;

  /// Human-readable dump (one node per line) for debugging and docs.
  [[nodiscard]] std::string dump() const;

  /// Reconstructs a graph from raw tables (bitstream loading). Unlike the
  /// add_* builders this preserves node ids exactly (no const dedup), so a
  /// stored schedule stays aligned. Validates before returning.
  [[nodiscard]] static Dfg restore(std::vector<Node> nodes,
                                   std::vector<StateVar> states,
                                   std::vector<ParamVar> params,
                                   std::vector<NodeId> stores);

 private:
  NodeId push(Node n);

  std::vector<Node> nodes_;
  std::vector<StateVar> states_;
  std::vector<ParamVar> params_;
  std::vector<NodeId> stores_;
};

}  // namespace citl::cgra
