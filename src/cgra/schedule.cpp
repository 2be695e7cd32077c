#include "cgra/schedule.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "cgra/lower.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace citl::cgra {

namespace {

/// The h-th PE (0-based) the deterministic L-shaped route from `from` to
/// `to` visits after leaving `from`: rows first, then columns. The route has
/// distance(from, to) hops and ends at `to`.
PeId route_hop(PeId from, PeId to, unsigned h) {
  const int rows = std::abs(to.row - from.row);
  const int step = static_cast<int>(h) + 1;
  if (step <= rows) {
    return {from.row + (to.row > from.row ? step : -step), from.col};
  }
  const int cols = step - rows;
  return {to.row, from.col + (to.col > from.col ? cols : -cols)};
}

/// Mutable occupancy tables used while scheduling: per PE, one byte per
/// cycle for "an operation runs here" and one for the route ports in use.
class Occupancy {
 public:
  explicit Occupancy(const CgraArch& arch)
      : busy_(static_cast<std::size_t>(arch.pe_count())),
        route_(static_cast<std::size_t>(arch.pe_count())) {}

  /// The earliest cycle t >= from at which the PE is idle for [t, t + len).
  /// A busy cycle c inside the window rules out every start up to c, so the
  /// scan restarts after it instead of retrying t + 1.
  [[nodiscard]] unsigned first_free(int pe, unsigned from,
                                    unsigned len) const {
    const auto& b = busy_[static_cast<std::size_t>(pe)];
    unsigned t = from;
    for (unsigned c = t; c < t + len && c < b.size(); ++c) {
      if (b[c]) t = c + 1;
    }
    return t;
  }

  void reserve_pe(int pe, unsigned start, unsigned len) {
    auto& b = busy_[static_cast<std::size_t>(pe)];
    if (b.size() < start + len) b.resize(start + len, 0);
    for (unsigned c = start; c < start + len; ++c) b[c] = 1;
  }

  [[nodiscard]] unsigned route_used(int pe, unsigned cycle) const {
    const auto& r = route_[static_cast<std::size_t>(pe)];
    return cycle < r.size() ? r[cycle] : 0u;
  }

  void reserve_route(int pe, unsigned cycle) {
    auto& r = route_[static_cast<std::size_t>(pe)];
    if (r.size() <= cycle) r.resize(cycle + 1, 0);
    ++r[cycle];
  }

 private:
  std::vector<std::vector<std::uint8_t>> busy_;
  std::vector<std::vector<std::uint8_t>> route_;
};

class ListScheduler {
 public:
  ListScheduler(const Dfg& dfg, const CgraArch& arch)
      : dfg_(dfg),
        arch_(arch),
        pes_(static_cast<std::size_t>(arch.pe_count())),
        occ_(arch) {}

  Schedule run() {
    arch_.validate();
    dfg_.validate();
    check_capabilities();

    const auto crit = dfg_.criticality(arch_.latency);
    const std::size_t n = dfg_.size();
    placement_.resize(n);
    delivered_.assign(n * pes_, kUndelivered);

    // Remaining intra-iteration predecessor counts.
    std::vector<int> pending(n, 0);
    std::vector<std::vector<NodeId>> succs(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (NodeId p : dfg_.intra_preds(static_cast<NodeId>(i))) {
        ++pending[i];
        succs[static_cast<std::size_t>(p)].push_back(static_cast<NodeId>(i));
      }
    }

    std::vector<NodeId> ready;
    for (std::size_t i = 0; i < n; ++i) {
      if (pending[i] == 0) ready.push_back(static_cast<NodeId>(i));
    }

    std::size_t scheduled = 0;
    while (scheduled < n) {
      CITL_CHECK_MSG(!ready.empty(), "scheduler wedged: no ready node");
      // Pick the ready node with the longest remaining critical path.
      std::size_t best = 0;
      for (std::size_t i = 1; i < ready.size(); ++i) {
        const auto a = static_cast<std::size_t>(ready[i]);
        const auto b = static_cast<std::size_t>(ready[best]);
        if (crit[a] > crit[b] || (crit[a] == crit[b] && ready[i] < ready[best])) {
          best = i;
        }
      }
      const NodeId v = ready[best];
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
      place(v);
      ++scheduled;
      for (NodeId s : succs[static_cast<std::size_t>(v)]) {
        if (--pending[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
      }
    }

    Schedule sched;
    sched.placement = std::move(placement_);
    sched.hops = std::move(hops_);
    unsigned length = 0;
    for (const auto& p : sched.placement) length = std::max(length, p.finish);
    // Cross-iteration edges (pipeline registers, state feedback) must close
    // within one initiation interval: value written in iteration k, read in
    // iteration k+1 => start[consumer] + L >= finish[producer] + distance.
    for (std::size_t i = 0; i < dfg_.size(); ++i) {
      const Node& node = dfg_.node(static_cast<NodeId>(i));
      for (unsigned a = 0; a < node.arity(); ++a) {
        const NodeId p = node.args[a];
        if (!dfg_.is_pipeline_edge(p, static_cast<NodeId>(i))) continue;
        length = std::max(length, cross_iteration_bound(
                                      sched, p, static_cast<NodeId>(i)));
      }
    }
    for (const auto& sv : dfg_.states()) {
      length = std::max(length, cross_iteration_bound(sched, sv.update, sv.node));
    }
    sched.length = length;
    return sched;
  }

 private:
  /// delivered_ entry of a value not yet delivered to a PE.
  static constexpr unsigned kUndelivered = ~0u;

  [[nodiscard]] unsigned cross_iteration_bound(const Schedule& sched,
                                               NodeId producer,
                                               NodeId consumer) const {
    const auto& pp = sched.placement[static_cast<std::size_t>(producer)];
    const auto& pc = sched.placement[static_cast<std::size_t>(consumer)];
    const int d = CgraArch::distance(pp.pe, pc.pe);
    const long need = static_cast<long>(pp.finish) + d -
                      static_cast<long>(pc.start);
    return need > 0 ? static_cast<unsigned>(need) : 0u;
  }

  void check_capabilities() const {
    for (const Node& node : dfg_.nodes()) {
      const OpClass c = op_class(node.kind);
      bool ok = false;
      for (const auto& pe : arch_.pes) {
        if (pe.supports(c)) {
          ok = true;
          break;
        }
      }
      if (!ok) {
        throw ConfigError(std::string("no PE supports operator class for '") +
                          std::string(op_name(node.kind)) + "'");
      }
    }
  }

  /// Earliest cycle at which `value` (already placed) can be delivered to
  /// PE `dest` (index `dest_idx`), given route-port availability; appends
  /// the chosen forwarding slots to `hops` (not yet globally reserved).
  /// Slots already planned in `hops` for this candidate count against the
  /// port budget too — two operands of one node may contend for the same
  /// intermediate PE.
  [[nodiscard]] unsigned plan_delivery(NodeId value, PeId dest, int dest_idx,
                                       std::vector<RouteHop>* hops) const {
    const auto& pp = placement_[static_cast<std::size_t>(value)];
    const unsigned cached =
        delivered_[static_cast<std::size_t>(value) * pes_ +
                   static_cast<std::size_t>(dest_idx)];
    if (cached != kUndelivered) return cached;
    const auto path_len =
        static_cast<unsigned>(CgraArch::distance(pp.pe, dest));
    if (path_len == 0) return pp.finish;  // produced in place
    auto slot_free = [&](PeId pe, unsigned cycle) {
      unsigned planned = 0;
      for (const RouteHop& h : *hops) {
        if (h.pe == pe && h.cycle == cycle) ++planned;
      }
      return occ_.route_used(arch_.index(pe), cycle) + planned <
             arch_.route_ports_per_pe;
    };
    // Try increasing departure delays until all intermediate route ports
    // are free. The final hop lands in the consumer's input register and
    // does not occupy a route port.
    for (unsigned delay = 0;; ++delay) {
      bool ok = true;
      for (unsigned h = 0; h + 1 < path_len; ++h) {
        if (!slot_free(route_hop(pp.pe, dest, h), pp.finish + delay + h + 1)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (unsigned h = 0; h + 1 < path_len; ++h) {
          hops->push_back(RouteHop{value, route_hop(pp.pe, dest, h),
                                   pp.finish + delay + h + 1});
        }
        return pp.finish + delay + path_len;
      }
      CITL_CHECK_MSG(delay < 4096, "routing livelock");
    }
  }

  void place(NodeId v) {
    const Node& node = dfg_.node(v);
    const unsigned lat = arch_.latency.of(node.kind);
    const OpClass cls = op_class(node.kind);

    auto preds = dfg_.intra_preds(v);
    // A node may use the same value twice (x*x); one delivery suffices.
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());

    unsigned best_start = ~0u;
    int best_idx = -1;
    best_hops_.clear();

    for (int idx = 0; idx < arch_.pe_count(); ++idx) {
      if (!arch_.pes[static_cast<std::size_t>(idx)].supports(cls)) continue;
      const PeId pe = arch_.pe_at(idx);
      // No operand reaches this PE before its producer finishes plus one
      // cycle per hop (a delivery is never earlier), so a PE whose bound is
      // past the best start can neither beat nor tie it.
      unsigned bound = 0;
      for (NodeId p : preds) {
        const Placement& pp = placement_[static_cast<std::size_t>(p)];
        bound = std::max(
            bound,
            pp.finish + static_cast<unsigned>(CgraArch::distance(pp.pe, pe)));
      }
      if (bound > best_start) continue;

      cand_hops_.clear();
      unsigned lb = 0;
      for (NodeId p : preds) {
        lb = std::max(lb, plan_delivery(p, pe, idx, &cand_hops_));
      }
      const unsigned t = occ_.first_free(idx, lb, lat);
      if (t < best_start ||
          (t == best_start && cand_hops_.size() < best_hops_.size())) {
        best_start = t;
        best_idx = idx;
        std::swap(best_hops_, cand_hops_);
      }
    }
    CITL_CHECK_MSG(best_idx >= 0, "no feasible PE for node");

    occ_.reserve_pe(best_idx, best_start, lat);
    for (const RouteHop& h : best_hops_) {
      occ_.reserve_route(arch_.index(h.pe), h.cycle);
      hops_.push_back(h);
    }
    for (NodeId p : preds) {
      delivered_[static_cast<std::size_t>(p) * pes_ +
                 static_cast<std::size_t>(best_idx)] =
          std::max(placement_[static_cast<std::size_t>(p)].finish,
                   best_start);  // conservative: value parked at input
    }
    placement_[static_cast<std::size_t>(v)] =
        Placement{arch_.pe_at(best_idx), best_start, best_start + lat};
  }

  const Dfg& dfg_;
  const CgraArch& arch_;
  std::size_t pes_;
  Occupancy occ_;
  std::vector<Placement> placement_;
  std::vector<RouteHop> hops_;
  /// Per (value, PE index), row-major by value: the cycle the value is
  /// available at that PE's input once delivered, or kUndelivered.
  std::vector<unsigned> delivered_;
  /// The forwarding slots of the candidate PE being tried and of the best
  /// one so far; reused across nodes.
  std::vector<RouteHop> cand_hops_;
  std::vector<RouteHop> best_hops_;
};

}  // namespace

Schedule schedule_dfg(const Dfg& dfg, const CgraArch& arch) {
  Schedule sched;
  {
    CITL_TRACE_SPAN("cgra.compile.list_schedule");
    ListScheduler s(dfg, arch);
    sched = s.run();
  }
  {
    CITL_TRACE_SPAN("cgra.compile.verify");
    verify_schedule(dfg, arch, sched);
  }
  return sched;
}

CompiledKernel compile_kernel(std::string_view source, const CgraArch& arch,
                              std::string name) {
  // Pass-level spans make the compiler's cost visible in a trace; the
  // histogram records what came out (the real-time budget driver, §IV-B).
  CITL_TRACE_SPAN("cgra.compile");
  CompiledKernel k;
  k.name = std::move(name);
  {
    CITL_TRACE_SPAN("cgra.compile.frontend");
    k.dfg = compile_to_dfg(source);
  }
  k.arch = arch;
  k.schedule = schedule_dfg(k.dfg, arch);
  obs::Registry::global().counter("cgra.compilations").add();
  obs::Registry::global()
      .histogram("cgra.schedule_length_cycles",
                 {16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0})
      .observe(static_cast<double>(k.schedule.length));
  return k;
}

void verify_schedule(const Dfg& dfg, const CgraArch& arch,
                     const Schedule& schedule) {
  CITL_CHECK_MSG(schedule.placement.size() == dfg.size(),
                 "placement size mismatch");
  // Capability + latency + PE exclusivity: an op holds its PE for
  // [start, finish) and shares no cycle there with an op checked before it.
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(static_cast<NodeId>(i));
    const Placement& p = schedule.placement[i];
    CITL_CHECK_MSG(arch.caps(p.pe).supports(op_class(n.kind)),
                   "node placed on incapable PE");
    CITL_CHECK_MSG(p.finish == p.start + arch.latency.of(n.kind),
                   "placement latency mismatch");
    for (std::size_t j = 0; j < i; ++j) {
      const Placement& q = schedule.placement[j];
      CITL_CHECK_MSG(q.pe != p.pe || std::max(p.start, q.start) >=
                                         std::min(p.finish, q.finish),
                     "two ops overlap on one PE");
    }
  }
  // Precedence with routing distance for intra-iteration edges.
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Placement& pc = schedule.placement[i];
    for (NodeId pred : dfg.intra_preds(static_cast<NodeId>(i))) {
      const Placement& pp = schedule.placement[static_cast<std::size_t>(pred)];
      const int d = CgraArch::distance(pp.pe, pc.pe);
      CITL_CHECK_MSG(pc.start >= pp.finish + static_cast<unsigned>(d),
                     "operand not deliverable before consumer start");
    }
  }
  // Route-port limits: no (PE, cycle) forwards more values than the PE has
  // ports. Sorted, each slot's hops sit side by side.
  std::vector<std::pair<int, unsigned>> slots;
  slots.reserve(schedule.hops.size());
  for (const RouteHop& h : schedule.hops) {
    slots.emplace_back(arch.index(h.pe), h.cycle);
  }
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 0, run = 1; i < slots.size(); ++i) {
    run = (i > 0 && slots[i] == slots[i - 1]) ? run + 1 : 1;
    CITL_CHECK_MSG(run <= arch.route_ports_per_pe,
                   "route port oversubscribed");
  }
  // Cross-iteration closure.
  auto check_cross = [&](NodeId producer, NodeId consumer) {
    const Placement& pp = schedule.placement[static_cast<std::size_t>(producer)];
    const Placement& pc = schedule.placement[static_cast<std::size_t>(consumer)];
    const int d = CgraArch::distance(pp.pe, pc.pe);
    CITL_CHECK_MSG(static_cast<long>(pc.start) + schedule.length >=
                       static_cast<long>(pp.finish) + d,
                   "cross-iteration edge does not close within II");
  };
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(static_cast<NodeId>(i));
    for (unsigned a = 0; a < n.arity(); ++a) {
      if (dfg.is_pipeline_edge(n.args[a], static_cast<NodeId>(i))) {
        check_cross(n.args[a], static_cast<NodeId>(i));
      }
    }
  }
  for (const auto& sv : dfg.states()) check_cross(sv.update, sv.node);
  // Makespan covers every op.
  for (const Placement& p : schedule.placement) {
    CITL_CHECK_MSG(p.finish <= schedule.length, "op finishes after makespan");
  }
}

ScheduleStats schedule_stats(const Dfg& dfg, const CgraArch& arch,
                             const Schedule& schedule) {
  ScheduleStats st;
  st.length = schedule.length;
  const auto crit = dfg.criticality(arch.latency);
  for (unsigned c : crit) st.critical_path = std::max(st.critical_path, c);
  st.cp_efficiency =
      st.length > 0 ? static_cast<double>(st.critical_path) / st.length : 0.0;

  std::vector<unsigned> busy(static_cast<std::size_t>(arch.pe_count()), 0);
  unsigned total_busy = 0;
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Placement& p = schedule.placement[i];
    const unsigned cycles = p.finish - p.start;
    busy[static_cast<std::size_t>(arch.index(p.pe))] += cycles;
    total_busy += cycles;
  }
  st.pe_utilisation =
      st.length > 0
          ? static_cast<double>(total_busy) /
                (static_cast<double>(arch.pe_count()) * st.length)
          : 0.0;
  for (int i = 0; i < arch.pe_count(); ++i) {
    if (busy[static_cast<std::size_t>(i)] > st.busiest_pe_cycles) {
      st.busiest_pe_cycles = busy[static_cast<std::size_t>(i)];
      st.busiest_pe = arch.pe_at(i);
    }
  }
  st.route_hops = schedule.hops.size();
  return st;
}

std::string CompiledKernel::dump_contexts() const {
  // Group operations and route hops per PE, ordered by cycle — this is the
  // content that would be loaded into each PE's context memory.
  struct Entry {
    unsigned cycle;
    std::string text;
  };
  std::vector<std::vector<Entry>> per_pe(
      static_cast<std::size_t>(arch.pe_count()));
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const Node& n = dfg.node(static_cast<NodeId>(i));
    const Placement& p = schedule.placement[i];
    std::ostringstream os;
    os << op_name(n.kind) << " %" << i;
    for (unsigned a = 0; a < n.arity(); ++a) os << " %" << n.args[a];
    if (n.kind == OpKind::kConst) os << " = " << n.constant;
    if (!n.name.empty()) os << " [" << n.name << "]";
    per_pe[static_cast<std::size_t>(arch.index(p.pe))].push_back(
        {p.start, os.str()});
  }
  for (const RouteHop& h : schedule.hops) {
    per_pe[static_cast<std::size_t>(arch.index(h.pe))].push_back(
        {h.cycle, "route %" + std::to_string(h.value)});
  }
  std::ostringstream os;
  os << "schedule length: " << schedule.length << " ticks\n";
  for (int idx = 0; idx < arch.pe_count(); ++idx) {
    auto& entries = per_pe[static_cast<std::size_t>(idx)];
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.cycle < b.cycle; });
    const PeId pe = arch.pe_at(idx);
    os << "PE(" << pe.row << ',' << pe.col << "):\n";
    for (const auto& e : entries) {
      os << "  @" << e.cycle << "  " << e.text << '\n';
    }
  }
  return os.str();
}

}  // namespace citl::cgra
