#include "cgra/batch.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "cgra/codegen.hpp"
#include "cgra/exec.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace citl::cgra {

namespace {

/// Lane maps: the full-width pass uses the identity (dense rows, the
/// vectorizable fast path); partial passes indirect through a lane-id list.
struct IdentityMap {
  std::size_t operator()(std::size_t k) const noexcept { return k; }
};
struct IndexMap {
  const std::uint32_t* ids;
  std::size_t operator()(std::size_t k) const noexcept { return ids[k]; }
};

/// C-ABI bus trampolines for generated kernels (lane-indexed bus).
double lane_bus_read(void* bus, std::uint32_t lane, double addr) {
  const DecodedAddress da = decode_address(addr);
  return static_cast<LaneSensorBus*>(bus)->read(lane, da.region, da.offset);
}

void lane_bus_write(void* bus, std::uint32_t lane, double addr, double value) {
  const DecodedAddress da = decode_address(addr);
  static_cast<LaneSensorBus*>(bus)->write(lane, da.region, da.offset, value);
}

double lane_bus_read_at(void* bus, std::uint32_t lane, std::uint32_t region,
                        double offset) {
  return static_cast<LaneSensorBus*>(bus)->read(
      lane, static_cast<SensorRegion>(region), offset);
}

void lane_bus_write_at(void* bus, std::uint32_t lane, std::uint32_t region,
                       double offset, double value) {
  static_cast<LaneSensorBus*>(bus)->write(
      lane, static_cast<SensorRegion>(region), offset, value);
}

}  // namespace

BatchedCgraMachine::BatchedCgraMachine(const CompiledKernel& kernel,
                                       std::size_t lanes, LaneSensorBus& bus,
                                       Precision precision, ExecTier tier)
    : kernel_(&kernel),
      bus_(&bus),
      precision_(precision),
      lanes_(lanes),
      attribution_counters_(kernel) {
  init(tier);
}

BatchedCgraMachine::BatchedCgraMachine(const CompiledKernel& kernel,
                                       SensorBus& bus, Precision precision,
                                       ExecTier tier)
    : kernel_(&kernel),
      own_bus_(std::make_unique<PerLaneBusAdapter>(
          std::vector<SensorBus*>{&bus})),
      bus_(own_bus_.get()),
      precision_(precision),
      lanes_(1),
      attribution_counters_(kernel) {
  init(tier);
}

void BatchedCgraMachine::init(ExecTier tier) {
  const CompiledKernel& kernel = *kernel_;
  if (lanes_ == 0) {
    throw ConfigError("BatchedCgraMachine for kernel '" + kernel.name +
                      "' needs at least one lane");
  }
  tier_ = resolve_exec_tier(tier, kernel, precision_, lanes_, &native_);
  values_.assign(kernel.dfg.size() * lanes_, 0.0);
  pipe_regs_.assign(kernel.dfg.size() * lanes_, 0.0);
  topo_ = kernel.dfg.topo_order();
  param_slot_.assign(kernel.dfg.size(), -1);
  state_slot_.assign(kernel.dfg.size(), -1);
  const auto& params = kernel.dfg.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    param_slot_[static_cast<std::size_t>(params[i].node)] =
        static_cast<int>(i);
  }
  const auto& states = kernel.dfg.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    state_slot_[static_cast<std::size_t>(states[i].node)] =
        static_cast<int>(i);
  }
  scratch_f_.assign(4 * lanes_, 0.0f);
  scratch_d_.assign(4 * lanes_, 0.0);
  lane_iterations_.assign(lanes_, 0);
  auto& reg = obs::Registry::global();
  obs_batched_ = &reg.counter("cgra.batch.iterations");
  obs_lane_iters_ = &reg.counter("cgra.batch.lane_iterations");
  obs_lanes_active_ = &reg.gauge("cgra.batch.lanes_active");
  obs_iterations_ = &reg.counter("cgra.iterations");
  obs_cycles_ = &reg.counter("cgra.schedule_cycles");
  // Per-tier iteration series: which back end the functional path ran.
  obs_tier_iters_ = &reg.counter(tier_ == ExecTier::kNative
                                     ? "cgra.exec.iterations.native"
                                     : "cgra.exec.iterations.interpreter");
  reset();
}

void BatchedCgraMachine::reset() {
  const Dfg& g = kernel_->dfg;
  state_vals_.assign(g.states().size() * lanes_, 0.0);
  for (std::size_t i = 0; i < g.states().size(); ++i) {
    std::fill_n(state_vals_.begin() + static_cast<std::ptrdiff_t>(i * lanes_),
                lanes_, g.states()[i].initial);
  }
  param_vals_.assign(g.params().size() * lanes_, 0.0);
  for (std::size_t i = 0; i < g.params().size(); ++i) {
    std::fill_n(param_vals_.begin() + static_cast<std::ptrdiff_t>(i * lanes_),
                lanes_, g.params()[i].default_value);
  }
  std::fill(values_.begin(), values_.end(), 0.0);
  std::fill(pipe_regs_.begin(), pipe_regs_.end(), 0.0);
  std::fill(lane_iterations_.begin(), lane_iterations_.end(), 0);
  iterations_ = 0;
}

double BatchedCgraMachine::quantise(double v) const noexcept {
  return precision_ == Precision::kFloat32
             ? static_cast<double>(static_cast<float>(v))
             : v;
}

void BatchedCgraMachine::check_lane(std::size_t lane) const {
  if (lane >= lanes_) {
    detail::throw_lane_out_of_range(*kernel_, lane, lanes_);
  }
}

void BatchedCgraMachine::check_handle(bool valid, const char* what) const {
  if (!valid) detail::throw_invalid_handle(*kernel_, what);
}

void BatchedCgraMachine::set_param(ParamHandle h, double value,
                                   std::size_t lane) {
  check_lane(lane);
  check_handle(h.valid() && static_cast<std::size_t>(h.index) * lanes_ <
                                param_vals_.size(),
               "parameter");
  param_vals_[static_cast<std::size_t>(h.index) * lanes_ + lane] =
      quantise(value);
}

double BatchedCgraMachine::param(ParamHandle h, std::size_t lane) const {
  check_lane(lane);
  check_handle(h.valid() && static_cast<std::size_t>(h.index) * lanes_ <
                                param_vals_.size(),
               "parameter");
  return param_vals_[static_cast<std::size_t>(h.index) * lanes_ + lane];
}

void BatchedCgraMachine::set_state(StateHandle h, double value,
                                   std::size_t lane) {
  check_lane(lane);
  check_handle(h.valid() && static_cast<std::size_t>(h.index) * lanes_ <
                                state_vals_.size(),
               "state");
  state_vals_[static_cast<std::size_t>(h.index) * lanes_ + lane] =
      quantise(value);
}

double BatchedCgraMachine::state(StateHandle h, std::size_t lane) const {
  check_lane(lane);
  check_handle(h.valid() && static_cast<std::size_t>(h.index) * lanes_ <
                                state_vals_.size(),
               "state");
  return state_vals_[static_cast<std::size_t>(h.index) * lanes_ + lane];
}

void BatchedCgraMachine::snapshot_states(std::size_t lane, double* out) const {
  check_lane(lane);
  const std::size_t n = state_vals_.size() / (lanes_ > 0 ? lanes_ : 1);
  for (std::size_t s = 0; s < n; ++s) out[s] = state_vals_[s * lanes_ + lane];
}

void BatchedCgraMachine::restore_states(std::size_t lane,
                                        const double* values) {
  check_lane(lane);
  // Raw copy, no re-quantise: the image came from snapshot_states() and is
  // already at working precision, so the round-trip is bit-exact. Only this
  // lane's column is touched — siblings are unaffected.
  const std::size_t n = state_vals_.size() / (lanes_ > 0 ? lanes_ : 1);
  for (std::size_t s = 0; s < n; ++s) state_vals_[s * lanes_ + lane] = values[s];
}

void BatchedCgraMachine::snapshot_pipe_regs(std::size_t lane,
                                            double* out) const {
  check_lane(lane);
  const std::size_t n = pipe_regs_.size() / (lanes_ > 0 ? lanes_ : 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = pipe_regs_[i * lanes_ + lane];
}

void BatchedCgraMachine::restore_pipe_regs(std::size_t lane,
                                           const double* values) {
  check_lane(lane);
  const std::size_t n = pipe_regs_.size() / (lanes_ > 0 ? lanes_ : 1);
  for (std::size_t i = 0; i < n; ++i) pipe_regs_[i * lanes_ + lane] = values[i];
}

double BatchedCgraMachine::value(NodeId node, std::size_t lane) const {
  check_lane(lane);
  CITL_CHECK(node >= 0 &&
             static_cast<std::size_t>(node) < kernel_->dfg.size());
  return values_[static_cast<std::size_t>(node) * lanes_ + lane];
}

template <typename F>
F* BatchedCgraMachine::scratch_base() noexcept {
  if constexpr (std::is_same_v<F, float>) {
    return scratch_f_.data();
  } else {
    return scratch_d_.data();
  }
}

/// Batched CORDIC: reduce lane-by-lane (the reduction branches on the
/// quadrant), then rotate every lane together with a branch-free inner loop.
/// The select picks between the two candidate updates the scalar rotation
/// would have computed, so each lane's operation sequence — and therefore
/// its rounding — is identical to detail::cordic_rotate.
template <typename F, typename LaneMap>
void BatchedCgraMachine::eval_cordic(const Node& n, const double* in,
                                     double* out, const LaneMap& lm,
                                     std::size_t n_active) {
  F* const x = scratch_base<F>();
  F* const y = x + lanes_;
  F* const zr = y + lanes_;
  F* const flip = zr + lanes_;
  for (std::size_t k = 0; k < n_active; ++k) {
    detail::cordic_reduce(static_cast<F>(in[lm(k)]), &zr[k], &flip[k]);
    x[k] = F(detail::kCordicGainInv);
    y[k] = F(0);
  }
  F pow2 = F(1);
  for (int i = 0; i < detail::kCordicIters; ++i) {
    const F at = F(detail::kCordicAtan[i]);
    for (std::size_t k = 0; k < n_active; ++k) {
      const F xs = x[k] * pow2;
      const F ys = y[k] * pow2;
      const bool pos = zr[k] >= F(0);
      const F xn = pos ? x[k] - ys : x[k] + ys;
      const F yn = pos ? y[k] + xs : y[k] - xs;
      const F zn = pos ? zr[k] - at : zr[k] + at;
      x[k] = xn;
      y[k] = yn;
      zr[k] = zn;
    }
    pow2 = pow2 * F(0.5);
  }
  if (n.kind == OpKind::kSin) {
    for (std::size_t k = 0; k < n_active; ++k) {
      out[lm(k)] = static_cast<double>(y[k]);
    }
  } else {
    for (std::size_t k = 0; k < n_active; ++k) {
      out[lm(k)] = static_cast<double>(flip[k] * x[k]);
    }
  }
}

template <typename F, typename LaneMap>
void BatchedCgraMachine::run_pass(const LaneMap& lm, std::size_t n) {
  const Dfg& g = kernel_->dfg;
  for (NodeId id : topo_) {
    const Node& node = g.node(id);
    double* const out = row(id);
    const double* a =
        node.arity() > 0 ? operand_row(id, node.args[0]) : nullptr;
    const double* b =
        node.arity() > 1 ? operand_row(id, node.args[1]) : nullptr;
    const double* c =
        node.arity() > 2 ? operand_row(id, node.args[2]) : nullptr;
    switch (node.kind) {
      case OpKind::kConst: {
        const double q = quantise(node.constant);
        for (std::size_t k = 0; k < n; ++k) out[lm(k)] = q;
        break;
      }
      case OpKind::kParam: {
        const double* src =
            param_vals_.data() +
            static_cast<std::size_t>(
                param_slot_[static_cast<std::size_t>(id)]) *
                lanes_;
        for (std::size_t k = 0; k < n; ++k) out[lm(k)] = src[lm(k)];
        break;
      }
      case OpKind::kState: {
        const double* src =
            state_vals_.data() +
            static_cast<std::size_t>(
                state_slot_[static_cast<std::size_t>(id)]) *
                lanes_;
        for (std::size_t k = 0; k < n; ++k) out[lm(k)] = src[lm(k)];
        break;
      }
      case OpKind::kLoad: {
        a = operand_row(id, node.args[0]);
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          const DecodedAddress da = decode_address(a[l]);
          out[l] = quantise(bus_->read(l, da.region, da.offset));
        }
        break;
      }
      case OpKind::kStore: {
        a = operand_row(id, node.args[0]);
        b = operand_row(id, node.args[1]);
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          const DecodedAddress da = decode_address(a[l]);
          bus_->write(l, da.region, da.offset, b[l]);
          out[l] = b[l];
        }
        break;
      }
      case OpKind::kMove:
        a = operand_row(id, node.args[0]);
        for (std::size_t k = 0; k < n; ++k) out[lm(k)] = a[lm(k)];
        break;
#define CITL_BATCH_BIN(OP)                                       \
  for (std::size_t k = 0; k < n; ++k) {                          \
    const std::size_t l = lm(k);                                 \
    out[l] = static_cast<double>(static_cast<F>(a[l])            \
                                     OP static_cast<F>(b[l]));   \
  }                                                              \
  break
      case OpKind::kAdd: CITL_BATCH_BIN(+);
      case OpKind::kSub: CITL_BATCH_BIN(-);
      case OpKind::kMul: CITL_BATCH_BIN(*);
      case OpKind::kDiv: CITL_BATCH_BIN(/);
#undef CITL_BATCH_BIN
      case OpKind::kSqrt:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<double>(std::sqrt(static_cast<F>(a[l])));
        }
        break;
      case OpKind::kNeg:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<double>(-static_cast<F>(a[l]));
        }
        break;
      case OpKind::kAbs:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<double>(std::fabs(static_cast<F>(a[l])));
        }
        break;
      case OpKind::kMin:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<double>(
              std::fmin(static_cast<F>(a[l]), static_cast<F>(b[l])));
        }
        break;
      case OpKind::kMax:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<double>(
              std::fmax(static_cast<F>(a[l]), static_cast<F>(b[l])));
        }
        break;
      case OpKind::kFloor:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<double>(std::floor(static_cast<F>(a[l])));
        }
        break;
      case OpKind::kSin:
      case OpKind::kCos:
        eval_cordic<F>(node, a, out, lm, n);
        break;
      case OpKind::kCmpLt:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<F>(a[l]) < static_cast<F>(b[l]) ? 1.0 : 0.0;
        }
        break;
      case OpKind::kCmpLe:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<F>(a[l]) <= static_cast<F>(b[l]) ? 1.0 : 0.0;
        }
        break;
      case OpKind::kCmpEq:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<F>(a[l]) == static_cast<F>(b[l]) ? 1.0 : 0.0;
        }
        break;
      case OpKind::kSelect:
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = static_cast<F>(a[l]) != F(0)
                       ? static_cast<double>(static_cast<F>(b[l]))
                       : static_cast<double>(static_cast<F>(c[l]));
        }
        break;
      default:
        // Future operators fall back to the shared scalar semantics.
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t l = lm(k);
          out[l] = detail::eval_scalar<F>(node.kind, a != nullptr ? a[l] : 0.0,
                                          b != nullptr ? b[l] : 0.0,
                                          c != nullptr ? c[l] : 0.0);
        }
        break;
    }
  }
  commit(lm, n);
}

template <typename LaneMap>
void BatchedCgraMachine::commit(const LaneMap& lm, std::size_t n_active) {
  const Dfg& g = kernel_->dfg;
  // Pipeline registers latch this iteration's stage-0 values — only on the
  // lanes that actually ran; parked lanes keep last iteration's registers.
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g.node(static_cast<NodeId>(i)).stage == 0) {
      const double* vr = values_.data() + i * lanes_;
      double* pr = pipe_regs_.data() + i * lanes_;
      for (std::size_t k = 0; k < n_active; ++k) {
        const std::size_t l = lm(k);
        pr[l] = vr[l];
      }
    }
  }
  // States take their update nodes' values, again lane-masked so externally
  // written states of parked lanes (displace(), handle writes) survive.
  const auto& states = g.states();
  for (std::size_t i = 0; i < states.size(); ++i) {
    const double* up =
        values_.data() + static_cast<std::size_t>(states[i].update) * lanes_;
    double* sv = state_vals_.data() + i * lanes_;
    for (std::size_t k = 0; k < n_active; ++k) {
      const std::size_t l = lm(k);
      sv[l] = up[l];
    }
  }
  commit_bookkeeping(lm, n_active);
}

/// The counter half of commit(). The native tier latches pipeline registers
/// and states inside the generated kernel (NativeCtx contract), so it skips
/// the data copies above and runs only this.
template <typename LaneMap>
void BatchedCgraMachine::commit_bookkeeping(const LaneMap& lm,
                                            std::size_t n_active) {
  for (std::size_t k = 0; k < n_active; ++k) ++lane_iterations_[lm(k)];
  ++iterations_;

  // One branch while the registry is disabled. Every instrument below would
  // individually early-out on the same flag, so gating them as a block
  // records exactly the same values — it only stops a disabled registry from
  // costing a dozen loads on every committed iteration (the native tier's
  // whole iteration is ~500 ns; this bookkeeping was ~10% of it).
  if (!obs::Registry::global().enabled()) return;
  obs_batched_->add();
  obs_lane_iters_->add(n_active);
  obs_lanes_active_->set(static_cast<double>(n_active));
  obs_iterations_->add(n_active);
  obs_cycles_->add(n_active * kernel_->schedule.length);
  attribution_counters_.add_iterations(n_active);
}

BatchedCgraMachine::~BatchedCgraMachine() = default;

unsigned BatchedCgraMachine::run_iteration_all_lanes() {
  obs_tier_iters_->add();
  switch (tier_) {
    case ExecTier::kNative: {
      NativeCtx ctx;
      ctx.values = values_.data();
      ctx.pipe_regs = pipe_regs_.data();
      ctx.state_vals = state_vals_.data();
      ctx.param_vals = param_vals_.data();
      ctx.bus = bus_;
      ctx.bus_read = &lane_bus_read;
      ctx.bus_write = &lane_bus_write;
      ctx.bus_read_at = &lane_bus_read_at;
      ctx.bus_write_at = &lane_bus_write_at;
      native_->run_dense(ctx);
      commit_bookkeeping(IdentityMap{}, lanes_);
      break;
    }
    default:
      if (precision_ == Precision::kFloat32) {
        run_pass<float>(IdentityMap{}, lanes_);
      } else {
        run_pass<double>(IdentityMap{}, lanes_);
      }
      break;
  }
  return kernel_->schedule.length;
}

unsigned BatchedCgraMachine::run_iteration_lanes(const std::uint32_t* lane_ids,
                                                 std::size_t n_active) {
  if (n_active == 0) return kernel_->schedule.length;
  if (n_active == lanes_) return run_iteration_all_lanes();
  for (std::size_t k = 0; k < n_active; ++k) check_lane(lane_ids[k]);
  obs_tier_iters_->add();
  switch (tier_) {
    case ExecTier::kNative: {
      NativeCtx ctx;
      ctx.values = values_.data();
      ctx.pipe_regs = pipe_regs_.data();
      ctx.state_vals = state_vals_.data();
      ctx.param_vals = param_vals_.data();
      ctx.bus = bus_;
      ctx.bus_read = &lane_bus_read;
      ctx.bus_write = &lane_bus_write;
      ctx.bus_read_at = &lane_bus_read_at;
      ctx.bus_write_at = &lane_bus_write_at;
      native_->run_masked(ctx, lane_ids,
                          static_cast<std::uint32_t>(n_active));
      commit_bookkeeping(IndexMap{lane_ids}, n_active);
      break;
    }
    default:
      if (precision_ == Precision::kFloat32) {
        run_pass<float>(IndexMap{lane_ids}, n_active);
      } else {
        run_pass<double>(IndexMap{lane_ids}, n_active);
      }
      break;
  }
  return kernel_->schedule.length;
}

unsigned BatchedCgraMachine::run_iteration_cycle_accurate() {
  CITL_CHECK_MSG(lanes_ == 1, "cycle-accurate execution walks one lane");
  const Dfg& g = kernel_->dfg;
  const Schedule& sched = kernel_->schedule;

  // Issue order: by start cycle, then NodeId. The schedule guarantees every
  // operand is committed (producer finish <= consumer start), so issuing in
  // start order and committing at finish reproduces the hardware exactly.
  struct Event {
    unsigned start;
    NodeId node;
  };
  std::vector<Event> events;
  events.reserve(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    events.push_back({sched.placement[i].start, static_cast<NodeId>(i)});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.start != b.start ? a.start < b.start : a.node < b.node;
  });

  // With one lane, a node's row is its value slot: values_[node].
  std::vector<double> committed(values_.begin(), values_.end());
  struct PendingWrite {
    unsigned cycle;
    NodeId node;
    double value;
  };
  std::vector<PendingWrite> pending;

  std::size_t next_event = 0;
  for (unsigned cycle = 0; cycle <= sched.length; ++cycle) {
    // Commit results whose latency elapsed.
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->cycle <= cycle) {
        committed[static_cast<std::size_t>(it->node)] = it->value;
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    // Issue ops starting this cycle.
    while (next_event < events.size() && events[next_event].start == cycle) {
      const NodeId id = events[next_event].node;
      ++next_event;
      const Node& n = g.node(id);
      auto read_operand = [&](NodeId producer) {
        if (g.is_pipeline_edge(producer, id)) {
          return pipe_regs_[static_cast<std::size_t>(producer)];
        }
        return committed[static_cast<std::size_t>(producer)];
      };
      double out = 0.0;
      switch (n.kind) {
        case OpKind::kConst:
          out = quantise(n.constant);
          break;
        case OpKind::kParam:
          out = param_vals_[static_cast<std::size_t>(
              param_slot_[static_cast<std::size_t>(id)])];
          break;
        case OpKind::kState:
          out = state_vals_[static_cast<std::size_t>(
              state_slot_[static_cast<std::size_t>(id)])];
          break;
        case OpKind::kLoad: {
          const DecodedAddress da = decode_address(read_operand(n.args[0]));
          out = quantise(bus_->read(0, da.region, da.offset));
          break;
        }
        case OpKind::kStore: {
          const DecodedAddress da = decode_address(read_operand(n.args[0]));
          const double val = read_operand(n.args[1]);
          bus_->write(0, da.region, da.offset, val);
          out = val;
          break;
        }
        case OpKind::kMove:
          out = read_operand(n.args[0]);
          break;
        default: {
          const double a = n.arity() > 0 ? read_operand(n.args[0]) : 0.0;
          const double b = n.arity() > 1 ? read_operand(n.args[1]) : 0.0;
          const double c = n.arity() > 2 ? read_operand(n.args[2]) : 0.0;
          out = precision_ == Precision::kFloat32
                    ? detail::eval_scalar<float>(n.kind, a, b, c)
                    : detail::eval_scalar<double>(n.kind, a, b, c);
          break;
        }
      }
      values_[static_cast<std::size_t>(id)] = out;
      pending.push_back(
          {sched.placement[static_cast<std::size_t>(id)].finish, id, out});
    }
  }
  CITL_CHECK_MSG(pending.empty(), "uncommitted results after makespan");
  commit(IdentityMap{}, 1);
  return sched.length;
}

}  // namespace citl::cgra
