#include "cgra/codegen.hpp"

#include <dlfcn.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <unordered_set>

#include "cgra/exec.hpp"
#include "cgra/op.hpp"
#include "cgra/sensor.hpp"
#include "obs/metrics.hpp"

// The portability header, embedded at build time (embed_header.cmake) so the
// codegen tier can drop a self-contained copy next to every generated kernel.
#include "simd_portability_embed.inc"

namespace citl::cgra {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Source emission
// ---------------------------------------------------------------------------

/// Exact round-trip spelling of a double (C99 hex-float). The emitted source
/// must reproduce the host's constants bit-for-bit, and it feeds the content
/// hash, so the formatting has to be deterministic.
std::string hex_double(double v) {
  if (std::isnan(v)) return "(0.0 / 0.0)";
  if (std::isinf(v)) return v > 0 ? "(1.0 / 0.0)" : "(-1.0 / 0.0)";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool is_copy_node(OpKind k) {
  return k == OpKind::kConst || k == OpKind::kParam || k == OpKind::kState ||
         k == OpKind::kMove;
}

bool is_io_node(OpKind k) {
  return k == OpKind::kLoad || k == OpKind::kStore;
}

/// Emits one (kernel, precision, lanes) translation unit. See codegen.hpp
/// for the bit-identity contract; the structure per pass is: topo order,
/// maximal IO-free runs become SIMD block loops (width CITL_W, resolved when
/// the *generated* code is compiled) plus a scalar tail, IO nodes get their
/// own full-lane scalar loops so bus traffic keeps the interpreter's
/// node-outer / lane-ascending order.
class Emitter {
 public:
  Emitter(const CompiledKernel& kernel, Precision precision, std::size_t lanes)
      : k_(kernel), f64_(precision == Precision::kFloat64), lanes_(lanes) {
    const auto n = k_.dfg.size();
    param_slot_.assign(n, -1);
    state_slot_.assign(n, -1);
    const auto& params = k_.dfg.params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      param_slot_[static_cast<std::size_t>(params[i].node)] =
          static_cast<int>(i);
    }
    const auto& states = k_.dfg.states();
    for (std::size_t i = 0; i < states.size(); ++i) {
      state_slot_[static_cast<std::size_t>(states[i].node)] =
          static_cast<int>(i);
    }
    topo_ = k_.dfg.topo_order();
  }

  std::string emit() {
    preamble();
    out_ << "extern \"C\" {\n\n";
    out_ << "typedef struct citl_native_ctx_s {\n"
            "  double* values;\n"
            "  double* pipe_regs;\n"
            "  double* state_vals;\n"
            "  const double* param_vals;\n"
            "  void* bus;\n"
            "  double (*bus_read)(void* bus, unsigned lane, double addr);\n"
            "  void (*bus_write)(void* bus, unsigned lane, double addr,"
            " double value);\n"
            "  double (*bus_read_at)(void* bus, unsigned lane,"
            " unsigned region, double offset);\n"
            "  void (*bus_write_at)(void* bus, unsigned lane,"
            " unsigned region, double offset, double value);\n"
            "} citl_native_ctx;\n\n";
    out_ << "unsigned citl_native_abi(void) { return "
         << kNativeKernelAbi << "u; }\n\n";
    emit_dense();
    emit_masked();
    out_ << "}  // extern \"C\"\n";
    return out_.str();
  }

 private:
  std::size_t row(NodeId id) const {
    return static_cast<std::size_t>(id) * lanes_;
  }

  /// Raw (double-domain) operand row expression indexed by `lane`.
  std::string raw_operand(NodeId consumer, NodeId producer,
                          const std::string& lane) const {
    const char* bank = k_.dfg.is_pipeline_edge(producer, consumer) ? "P" : "V";
    std::ostringstream s;
    s << bank << "[" << row(producer) << " + " << lane << "]";
    return s.str();
  }

  /// Working-precision operand expression indexed by `lane`.
  std::string f_operand(NodeId consumer, NodeId producer,
                        const std::string& lane) const {
    return "(citl_f)" + raw_operand(consumer, producer, lane);
  }

  /// Vector operand: a live block-local when the producer is a compute node
  /// of the current segment, otherwise a (converting) row load at block
  /// offset `b`. Pipeline edges always read the register bank.
  std::string vec_operand(NodeId consumer, NodeId producer) const {
    if (!k_.dfg.is_pipeline_edge(producer, consumer) &&
        locals_.count(producer) != 0) {
      return "n" + std::to_string(producer);
    }
    const char* bank = k_.dfg.is_pipeline_edge(producer, consumer) ? "P" : "V";
    std::ostringstream s;
    s << "CITL_V_LOAD_D(" << bank << " + " << row(producer) << " + b)";
    return s.str();
  }

  double quantised_const(const Node& n) const {
    return f64_ ? n.constant
                : static_cast<double>(static_cast<float>(n.constant));
  }

  /// decode_address() folded at emit time. Only safe when the address
  /// operand is a same-stage constant node: its row always holds exactly the
  /// quantised constant the interpreter would pass at run time.
  bool fold_address(NodeId consumer, NodeId producer,
                    DecodedAddress* out) const {
    const Node& a = k_.dfg.node(producer);
    if (a.kind != OpKind::kConst ||
        k_.dfg.is_pipeline_edge(producer, consumer)) {
      return false;
    }
    *out = decode_address(quantised_const(a));
    return true;
  }

  /// One node evaluated for one lane, bit-identical to
  /// BatchedCgraMachine::run_pass. Used for masked passes, SIMD tails, and
  /// copy/IO nodes inside dense blocks.
  void scalar_stmt(NodeId id, const std::string& lane, const char* ind) {
    const Node& n = k_.dfg.node(id);
    const std::size_t dst = row(id);
    auto A = [&] { return f_operand(id, n.args[0], lane); };
    auto B = [&] { return f_operand(id, n.args[1], lane); };
    auto bin = [&](const char* op) {
      out_ << ind << "V[" << dst << " + " << lane << "] = (double)(" << A()
           << " " << op << " " << B() << ");\n";
    };
    auto call1 = [&](const char* fn) {
      out_ << ind << "V[" << dst << " + " << lane << "] = (double)" << fn
           << "(" << A() << ");\n";
    };
    auto cmp = [&](const char* op) {
      out_ << ind << "V[" << dst << " + " << lane << "] = " << A() << " " << op
           << " " << B() << " ? 1.0 : 0.0;\n";
    };
    switch (n.kind) {
      case OpKind::kConst:
        out_ << ind << "V[" << dst << " + " << lane << "] = "
             << hex_double(quantised_const(n)) << ";\n";
        break;
      case OpKind::kParam:
        out_ << ind << "V[" << dst << " + " << lane << "] = PR["
             << static_cast<std::size_t>(
                    param_slot_[static_cast<std::size_t>(id)]) *
                    lanes_
             << " + " << lane << "];\n";
        break;
      case OpKind::kState:
        out_ << ind << "V[" << dst << " + " << lane << "] = S["
             << static_cast<std::size_t>(
                    state_slot_[static_cast<std::size_t>(id)]) *
                    lanes_
             << " + " << lane << "];\n";
        break;
      case OpKind::kMove:
        out_ << ind << "V[" << dst << " + " << lane << "] = "
             << raw_operand(id, n.args[0], lane) << ";\n";
        break;
      case OpKind::kLoad: {
        DecodedAddress da;
        if (fold_address(id, n.args[0], &da)) {
          out_ << ind << "V[" << dst << " + " << lane
               << "] = (double)(citl_f)ctx->bus_read_at(ctx->bus, (unsigned)("
               << lane << "), " << static_cast<unsigned>(da.region) << "u, "
               << hex_double(da.offset) << ");\n";
        } else {
          out_ << ind << "V[" << dst << " + " << lane
               << "] = (double)(citl_f)ctx->bus_read(ctx->bus, (unsigned)("
               << lane << "), " << raw_operand(id, n.args[0], lane) << ");\n";
        }
        break;
      }
      case OpKind::kStore: {
        DecodedAddress da;
        out_ << ind << "{ const double sv = "
             << raw_operand(id, n.args[1], lane) << "; ";
        if (fold_address(id, n.args[0], &da)) {
          out_ << "ctx->bus_write_at(ctx->bus, (unsigned)(" << lane << "), "
               << static_cast<unsigned>(da.region) << "u, "
               << hex_double(da.offset) << ", sv); ";
        } else {
          out_ << "ctx->bus_write(ctx->bus, (unsigned)(" << lane << "), "
               << raw_operand(id, n.args[0], lane) << ", sv); ";
        }
        out_ << "V[" << dst << " + " << lane << "] = sv; }\n";
        break;
      }
      case OpKind::kAdd: bin("+"); break;
      case OpKind::kSub: bin("-"); break;
      case OpKind::kMul: bin("*"); break;
      case OpKind::kDiv: bin("/"); break;
      case OpKind::kSqrt: call1("std::sqrt"); break;
      case OpKind::kNeg:
        out_ << ind << "V[" << dst << " + " << lane << "] = (double)(-"
             << A() << ");\n";
        break;
      case OpKind::kAbs: call1("std::fabs"); break;
      case OpKind::kMin:
        out_ << ind << "V[" << dst << " + " << lane
             << "] = (double)std::fmin(" << A() << ", " << B() << ");\n";
        break;
      case OpKind::kMax:
        out_ << ind << "V[" << dst << " + " << lane
             << "] = (double)std::fmax(" << A() << ", " << B() << ");\n";
        break;
      case OpKind::kFloor: call1("std::floor"); break;
      case OpKind::kSin:
      case OpKind::kCos:
        out_ << ind << "{ citl_f c_, s_; citl_cordic_s(" << A()
             << ", &c_, &s_); V[" << dst << " + " << lane << "] = (double)"
             << (n.kind == OpKind::kSin ? "s_" : "c_") << "; }\n";
        break;
      case OpKind::kCmpLt: cmp("<"); break;
      case OpKind::kCmpLe: cmp("<="); break;
      case OpKind::kCmpEq: cmp("=="); break;
      case OpKind::kSelect:
        out_ << ind << "V[" << dst << " + " << lane << "] = " << A()
             << " != (citl_f)0 ? (double)" << f_operand(id, n.args[1], lane)
             << " : (double)" << f_operand(id, n.args[2], lane) << ";\n";
        break;
    }
  }

  /// One node inside the SIMD block loop (lanes [b, b + CITL_W)). Compute
  /// nodes become width-CITL_W vector locals; copy nodes stay raw double
  /// copies (a conversion through working precision would quantise values
  /// the interpreter passes through untouched).
  void vector_stmt(NodeId id) {
    const Node& n = k_.dfg.node(id);
    if (is_copy_node(n.kind)) {
      out_ << "    for (int w = 0; w < CITL_W; ++w) {\n";
      scalar_stmt(id, "(b + w)", "      ");
      out_ << "    }\n";
      return;
    }
    const std::string name = "n" + std::to_string(id);
    auto A = [&] { return vec_operand(id, n.args[0]); };
    auto B = [&] { return vec_operand(id, n.args[1]); };
    auto def = [&](const std::string& expr) {
      out_ << "    const citl_v " << name << " = " << expr << ";\n";
    };
    switch (n.kind) {
      case OpKind::kAdd: def("CITL_V_ADD(" + A() + ", " + B() + ")"); break;
      case OpKind::kSub: def("CITL_V_SUB(" + A() + ", " + B() + ")"); break;
      case OpKind::kMul: def("CITL_V_MUL(" + A() + ", " + B() + ")"); break;
      case OpKind::kDiv: def("CITL_V_DIV(" + A() + ", " + B() + ")"); break;
      case OpKind::kSqrt: def("CITL_V_SQRT(" + A() + ")"); break;
      case OpKind::kNeg: def("CITL_V_NEG(" + A() + ")"); break;
      case OpKind::kAbs: def("CITL_V_ABS(" + A() + ")"); break;
      case OpKind::kMin: def("CITL_V_FMIN(" + A() + ", " + B() + ")"); break;
      case OpKind::kMax: def("CITL_V_FMAX(" + A() + ", " + B() + ")"); break;
      case OpKind::kFloor: def("CITL_V_FLOOR(" + A() + ")"); break;
      case OpKind::kCmpLt: def("CITL_V_LT(" + A() + ", " + B() + ")"); break;
      case OpKind::kCmpLe: def("CITL_V_LE(" + A() + ", " + B() + ")"); break;
      case OpKind::kCmpEq: def("CITL_V_EQ(" + A() + ", " + B() + ")"); break;
      case OpKind::kSelect:
        def("CITL_V_SELECT(" + A() + ", " + B() + ", " +
            vec_operand(id, n.args[2]) + ")");
        break;
      default:
        break;  // copy/IO handled elsewhere, CORDIC by emit_cordic_group()
    }
    out_ << "    CITL_V_STORE_D(V + " << row(id) << " + b, " << name
         << ");\n";
    locals_.insert(id);
  }

  /// All operands of `id` computable at this point of the block body: a
  /// producer outside the segment (row load), a pipeline edge (register-bank
  /// load), or a segment node already emitted.
  bool node_ready(NodeId id, const std::unordered_set<NodeId>& segment,
                  const std::unordered_set<NodeId>& done) const {
    const Node& n = k_.dfg.node(id);
    for (NodeId a : n.args) {
      if (a == kNoNode) continue;
      if (k_.dfg.is_pipeline_edge(a, id)) continue;
      if (segment.count(a) != 0 && done.count(a) == 0) return false;
    }
    return true;
  }

  /// Emits one fused rotation loop for a batch of mutually independent
  /// CORDIC nodes. Distinct angles rotate as interleaved chains sharing the
  /// iteration counter and the running 2^-i scale — the per-angle operation
  /// sequence is exactly eval_cordic's select form, so values are unchanged;
  /// the interleave only buys instruction-level parallelism. Nodes that take
  /// sine and cosine of the *same* angle share one chain outright.
  void emit_cordic_group(const std::vector<NodeId>& group, int gid) {
    struct AngleKey {
      NodeId producer;
      bool pipe;
    };
    std::vector<AngleKey> angles;
    std::vector<std::string> angle_exprs;
    std::vector<std::size_t> angle_of(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      const NodeId id = group[i];
      const NodeId a = k_.dfg.node(id).args[0];
      const bool pipe = k_.dfg.is_pipeline_edge(a, id);
      std::size_t u = 0;
      while (u < angles.size() &&
             !(angles[u].producer == a && angles[u].pipe == pipe)) {
        ++u;
      }
      if (u == angles.size()) {
        angles.push_back({a, pipe});
        angle_exprs.push_back(vec_operand(id, a));
      }
      angle_of[i] = u;
    }
    const std::string g = "cg" + std::to_string(gid) + "_";
    auto nm = [&](const char* base, std::size_t u) {
      return g + base + std::to_string(u);
    };
    for (std::size_t u = 0; u < angles.size(); ++u) {
      out_ << "    citl_v " << nm("c", u) << ", " << nm("s", u) << ";\n";
    }
    out_ << "    {\n";
    for (std::size_t u = 0; u < angles.size(); ++u) {
      out_ << "      double " << nm("z", u) << "_[CITL_W], " << nm("f", u)
           << "_[CITL_W];\n"
           << "      { double a_[CITL_W]; CITL_V_STORE_D(a_, "
           << angle_exprs[u] << ");\n"
           << "        for (int w = 0; w < CITL_W; ++w) {\n"
           << "          citl_f z_, f_;\n"
           << "          citl_reduce((citl_f)a_[w], &z_, &f_);\n"
           << "          " << nm("z", u) << "_[w] = (double)z_; " << nm("f", u)
           << "_[w] = (double)f_;\n"
           << "        } }\n";
    }
    for (std::size_t u = 0; u < angles.size(); ++u) {
      out_ << "      citl_v x" << u << " = CITL_V_SET1((citl_f)CITL_GAIN_INV),"
           << " y" << u << " = CITL_V_SET1((citl_f)0)," << " z" << u
           << " = CITL_V_LOAD_D(" << nm("z", u) << "_);\n";
    }
    out_ << "      citl_v pw = CITL_V_SET1((citl_f)1);\n"
         << "      for (int i = 0; i < " << detail::kCordicIters
         << "; ++i) {\n"
         << "        const citl_v at = CITL_V_SET1((citl_f)citl_atan[i]);\n";
    for (std::size_t u = 0; u < angles.size(); ++u) {
      const std::string x = "x" + std::to_string(u);
      const std::string y = "y" + std::to_string(u);
      const std::string z = "z" + std::to_string(u);
      // Select form, not a ±1-factor multiply: both branch values compute in
      // parallel with the compare, keeping the z chain (the loop's critical
      // path) at compare ∥ add/sub → blend.
      out_ << "        {\n"
           << "          const citl_v xs = CITL_V_MUL(" << x << ", pw);\n"
           << "          const citl_v ys = CITL_V_MUL(" << y << ", pw);\n"
           << "          const citl_vm pos = CITL_V_GE0(" << z << ");\n"
           << "          const citl_v xn = CITL_V_SEL(pos, CITL_V_SUB(" << x
           << ", ys), CITL_V_ADD(" << x << ", ys));\n"
           << "          " << y << " = CITL_V_SEL(pos, CITL_V_ADD(" << y
           << ", xs), CITL_V_SUB(" << y << ", xs));\n"
           << "          " << z << " = CITL_V_SEL(pos, CITL_V_SUB(" << z
           << ", at), CITL_V_ADD(" << z << ", at));\n"
           << "          " << x << " = xn;\n"
           << "        }\n";
    }
    out_ << "        pw = CITL_V_MUL(pw, CITL_V_SET1((citl_f)0.5));\n"
         << "      }\n";
    for (std::size_t u = 0; u < angles.size(); ++u) {
      out_ << "      " << nm("c", u) << " = CITL_V_MUL(CITL_V_LOAD_D("
           << nm("f", u) << "_), x" << u << ");\n"
           << "      " << nm("s", u) << " = y" << u << ";\n";
    }
    out_ << "    }\n";
    for (std::size_t i = 0; i < group.size(); ++i) {
      const NodeId id = group[i];
      const bool is_sin = k_.dfg.node(id).kind == OpKind::kSin;
      out_ << "    const citl_v n" << id << " = "
           << nm(is_sin ? "s" : "c", angle_of[i]) << ";\n"
           << "    CITL_V_STORE_D(V + " << row(id) << " + b, n" << id
           << ");\n";
      locals_.insert(id);
    }
  }

  void emit_bank_locals() {
    out_ << "  double* const V = ctx->values;\n"
            "  double* const P = ctx->pipe_regs;\n"
            "  double* const S = ctx->state_vals;\n"
            "  const double* const PR = ctx->param_vals;\n"
            "  (void)P; (void)S; (void)PR;\n";
  }

  /// The commit phase, emitted at the end of both passes: latch stage-0 rows
  /// into the pipeline-register bank and state update rows into the state
  /// bank, exactly what BatchedCgraMachine::commit does (raw double rows,
  /// no quantisation). The host skips
  /// its own data copies for the native tier. Dense emission keeps the lane
  /// loop innermost (one contiguous row per copy — trivially vectorized);
  /// the masked form indirects each copy through the active-lane list.
  void emit_commit_dense() {
    for (std::size_t i = 0; i < k_.dfg.size(); ++i) {
      if (k_.dfg.node(static_cast<NodeId>(i)).stage != 0) continue;
      out_ << "  for (int l = 0; l < CITL_LANES; ++l) P[" << i * lanes_
           << " + l] = V[" << i * lanes_ << " + l];\n";
    }
    const auto& states = k_.dfg.states();
    for (std::size_t i = 0; i < states.size(); ++i) {
      out_ << "  for (int l = 0; l < CITL_LANES; ++l) S[" << i * lanes_
           << " + l] = V[" << row(states[i].update) << " + l];\n";
    }
  }

  void emit_commit_masked() {
    out_ << "  for (unsigned k = 0; k < n; ++k) {\n"
            "    const int l = (int)ids[k];\n";
    for (std::size_t i = 0; i < k_.dfg.size(); ++i) {
      if (k_.dfg.node(static_cast<NodeId>(i)).stage != 0) continue;
      out_ << "    P[" << i * lanes_ << " + l] = V[" << i * lanes_
           << " + l];\n";
    }
    const auto& states = k_.dfg.states();
    for (std::size_t i = 0; i < states.size(); ++i) {
      out_ << "    S[" << i * lanes_ << " + l] = V[" << row(states[i].update)
           << " + l];\n";
    }
    out_ << "  }\n";
  }

  void emit_dense() {
    out_ << "void citl_run_dense(citl_native_ctx* ctx) {\n";
    emit_bank_locals();
    std::size_t i = 0;
    while (i < topo_.size()) {
      const NodeId id = topo_[i];
      if (is_io_node(k_.dfg.node(id).kind)) {
        out_ << "  for (int l = 0; l < CITL_LANES; ++l) {\n";
        scalar_stmt(id, "l", "    ");
        out_ << "  }\n";
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < topo_.size() && !is_io_node(k_.dfg.node(topo_[j]).kind)) ++j;
      locals_.clear();
      out_ << "  for (int b = 0; b + CITL_W <= CITL_LANES; b += CITL_W) {\n";
      // Wave schedule within the IO-free segment: emit ready non-CORDIC
      // nodes in topo order, then fuse every ready CORDIC node into one
      // interleaved rotation loop, and repeat. Reordering is safe — the
      // segment has no observable effects (loads/stores split segments) and
      // data dependencies are respected — and it converts the CORDIC chains
      // from latency-bound back-to-back loops into one throughput-bound one.
      {
        const std::unordered_set<NodeId> segment(topo_.begin() + i,
                                                 topo_.begin() + j);
        std::vector<NodeId> pending(topo_.begin() + i, topo_.begin() + j);
        std::unordered_set<NodeId> done;
        int gid = 0;
        while (!pending.empty()) {
          bool progress = true;
          while (progress) {
            progress = false;
            for (auto it = pending.begin(); it != pending.end();) {
              const OpKind kind = k_.dfg.node(*it).kind;
              const bool cordic =
                  kind == OpKind::kSin || kind == OpKind::kCos;
              if (!cordic && node_ready(*it, segment, done)) {
                vector_stmt(*it);
                done.insert(*it);
                it = pending.erase(it);
                progress = true;
              } else {
                ++it;
              }
            }
          }
          std::vector<NodeId> group;
          for (auto it = pending.begin(); it != pending.end();) {
            const OpKind kind = k_.dfg.node(*it).kind;
            const bool cordic = kind == OpKind::kSin || kind == OpKind::kCos;
            if (cordic && node_ready(*it, segment, done)) {
              group.push_back(*it);
              it = pending.erase(it);
            } else {
              ++it;
            }
          }
          if (group.empty()) break;  // unreachable: the DFG is acyclic
          emit_cordic_group(group, gid++);
          for (NodeId nid : group) done.insert(nid);
        }
      }
      out_ << "  }\n";
      out_ << "  for (int l = (CITL_LANES / CITL_W) * CITL_W;"
              " l < CITL_LANES; ++l) {\n";
      for (std::size_t s = i; s < j; ++s) scalar_stmt(topo_[s], "l", "    ");
      out_ << "  }\n";
      locals_.clear();
      i = j;
    }
    emit_commit_dense();
    out_ << "}\n\n";
  }

  void emit_masked() {
    out_ << "void citl_run_masked(citl_native_ctx* ctx, const unsigned* ids,"
            " unsigned n) {\n";
    emit_bank_locals();
    for (NodeId id : topo_) {
      out_ << "  for (unsigned k = 0; k < n; ++k) {\n"
              "    const int l = (int)ids[k];\n";
      scalar_stmt(id, "l", "    ");
      out_ << "  }\n";
    }
    emit_commit_masked();
    out_ << "}\n\n";
  }

  void preamble() {
    out_ << "// Generated by citl cgra codegen — kernel '" << k_.name
         << "', " << (f64_ ? "f64" : "f32") << ", " << lanes_
         << " lane(s). DO NOT EDIT.\n"
         << "#include \"citl_simd_portability.h\"\n"
            "#include <cmath>\n\n"
         << "#define CITL_PREC_F64 " << (f64_ ? 1 : 0) << "\n"
         << "#define CITL_LANES " << lanes_ << "\n\n";
    out_ <<
        "#if CITL_PREC_F64\n"
        "typedef citl_vd citl_v;\n"
        "typedef citl_vdm citl_vm;\n"
        "typedef double citl_f;\n"
        "#define CITL_W CITL_VD_WIDTH\n"
        "#define CITL_V_LOAD_D citl_vd_load\n"
        "#define CITL_V_STORE_D citl_vd_store\n"
        "#define CITL_V_SET1 citl_vd_set1\n"
        "#define CITL_V_ADD citl_vd_add\n"
        "#define CITL_V_SUB citl_vd_sub\n"
        "#define CITL_V_MUL citl_vd_mul\n"
        "#define CITL_V_DIV citl_vd_div\n"
        "#define CITL_V_SQRT citl_vd_sqrt\n"
        "#define CITL_V_FLOOR citl_vd_floor\n"
        "#define CITL_V_NEG citl_vd_neg\n"
        "#define CITL_V_ABS citl_vd_abs\n"
        "#define CITL_V_FMIN citl_vd_fmin\n"
        "#define CITL_V_FMAX citl_vd_fmax\n"
        "#define CITL_V_LT citl_vd_lt\n"
        "#define CITL_V_LE citl_vd_le\n"
        "#define CITL_V_EQ citl_vd_eq\n"
        "#define CITL_V_SELECT citl_vd_select\n"
        "#define CITL_V_SEL citl_vd_sel\n"
        "#define CITL_V_GE0 citl_vd_ge0\n"
        "#else\n"
        "typedef citl_vf citl_v;\n"
        "typedef citl_vfm citl_vm;\n"
        "typedef float citl_f;\n"
        "#define CITL_W CITL_VF_WIDTH\n"
        "#define CITL_V_LOAD_D citl_vf_load_d\n"
        "#define CITL_V_STORE_D citl_vf_store_d\n"
        "#define CITL_V_SET1 citl_vf_set1\n"
        "#define CITL_V_ADD citl_vf_add\n"
        "#define CITL_V_SUB citl_vf_sub\n"
        "#define CITL_V_MUL citl_vf_mul\n"
        "#define CITL_V_DIV citl_vf_div\n"
        "#define CITL_V_SQRT citl_vf_sqrt\n"
        "#define CITL_V_FLOOR citl_vf_floor\n"
        "#define CITL_V_NEG citl_vf_neg\n"
        "#define CITL_V_ABS citl_vf_abs\n"
        "#define CITL_V_FMIN citl_vf_fmin\n"
        "#define CITL_V_FMAX citl_vf_fmax\n"
        "#define CITL_V_LT citl_vf_lt\n"
        "#define CITL_V_LE citl_vf_le\n"
        "#define CITL_V_EQ citl_vf_eq\n"
        "#define CITL_V_SELECT citl_vf_select\n"
        "#define CITL_V_SEL citl_vf_sel\n"
        "#define CITL_V_GE0 citl_vf_ge0\n"
        "#endif\n\n";
    // CORDIC constants and helpers, bit-identical to cgra/exec.hpp
    // (cordic_rotate) and BatchedCgraMachine::eval_cordic (the select-form
    // rotation performs the same operation sequence per lane).
    out_ << "static const double citl_atan[" << detail::kCordicIters
         << "] = {\n";
    for (int i = 0; i < detail::kCordicIters; ++i) {
      out_ << "    " << hex_double(detail::kCordicAtan[i]) << ",\n";
    }
    out_ << "};\n";
    out_ << "#define CITL_PI " << hex_double(detail::kCordicPi) << "\n"
         << "#define CITL_TWO_PI " << hex_double(2.0 * detail::kCordicPi)
         << "\n"
         << "#define CITL_INV_TWO_PI "
         << hex_double(1.0 / (2.0 * detail::kCordicPi)) << "\n"
         << "#define CITL_HALF_PI " << hex_double(1.5707963267948966) << "\n"
         << "#define CITL_GAIN_INV " << hex_double(detail::kCordicGainInv)
         << "\n\n";
    out_ <<
        "static double citl_rem2pi_slow(double x) {\n"
        "  return std::remainder(x, CITL_TWO_PI);\n"
        "}\n\n"
        "// Bit-exact std::remainder(x, 2*pi) without a libm call on the hot\n"
        "// path. n = rint(x / 2pi) is within one of the nearest integer for\n"
        "// |x| < 1e12, and fma(-n, 2pi, x) performs a single rounding of the\n"
        "// exact x - n*2pi -- which is no rounding at all once n is the true\n"
        "// nearest, because the IEEE remainder is always representable. The\n"
        "// two compares re-anchor n; anything within 1e-9 of the +/-pi\n"
        "// boundary (a tie, or a boundary value the candidate fma had to\n"
        "// round) and oversized or non-finite inputs take the library call.\n"
        "static inline double citl_rem2pi(double x) {\n"
        "  if (!(x > -1.0e12 && x < 1.0e12)) return citl_rem2pi_slow(x);\n"
        "  double n = std::rint(x * CITL_INV_TWO_PI);\n"
        "  double r = std::fma(-n, CITL_TWO_PI, x);\n"
        "  if (r > CITL_PI) {\n"
        "    n += 1.0;\n"
        "    r = std::fma(-n, CITL_TWO_PI, x);\n"
        "  } else if (r < -CITL_PI) {\n"
        "    n -= 1.0;\n"
        "    r = std::fma(-n, CITL_TWO_PI, x);\n"
        "  }\n"
        "  if (std::fabs(std::fabs(r) - CITL_PI) < 1.0e-9) {\n"
        "    return citl_rem2pi_slow(x);\n"
        "  }\n"
        "  return r;\n"
        "}\n\n"
        "static inline void citl_reduce(citl_f angle, citl_f* z_out,"
        " citl_f* flip_out) {\n"
        "  double z = (double)angle;\n"
        "  z = citl_rem2pi(z);\n"
        "  citl_f flip = (citl_f)1;\n"
        "  if (z > CITL_HALF_PI) {\n"
        "    z = CITL_PI - z;\n"
        "    flip = (citl_f)-1;\n"
        "  } else if (z < -CITL_HALF_PI) {\n"
        "    z = -CITL_PI - z;\n"
        "    flip = (citl_f)-1;\n"
        "  }\n"
        "  *z_out = (citl_f)z;\n"
        "  *flip_out = flip;\n"
        "}\n\n"
        "static inline void citl_cordic_s(citl_f angle, citl_f* out_c,"
        " citl_f* out_s) {\n"
        "  citl_f zr, flip;\n"
        "  citl_reduce(angle, &zr, &flip);\n"
        "  citl_f x = (citl_f)CITL_GAIN_INV;\n"
        "  citl_f y = (citl_f)0;\n"
        "  citl_f pow2 = (citl_f)1;\n"
        "  for (int i = 0; i < 28; ++i) {\n"
        "    const citl_f xs = x * pow2;\n"
        "    const citl_f ys = y * pow2;\n"
        "    if (zr >= (citl_f)0) {\n"
        "      const citl_f xn = x - ys;\n"
        "      y = y + xs;\n"
        "      x = xn;\n"
        "      zr = zr - (citl_f)citl_atan[i];\n"
        "    } else {\n"
        "      const citl_f xn = x + ys;\n"
        "      y = y - xs;\n"
        "      x = xn;\n"
        "      zr = zr + (citl_f)citl_atan[i];\n"
        "    }\n"
        "    pow2 = pow2 * (citl_f)0.5;\n"
        "  }\n"
        "  *out_c = flip * x;\n"
        "  *out_s = y;\n"
        "}\n\n";
  }

  const CompiledKernel& k_;
  bool f64_;
  std::size_t lanes_;
  std::vector<int> param_slot_;
  std::vector<int> state_slot_;
  std::vector<NodeId> topo_;
  std::unordered_set<NodeId> locals_;
  std::ostringstream out_;
};

// ---------------------------------------------------------------------------
// Compiler discovery (once per process)
// ---------------------------------------------------------------------------

/// Runs `cmd` through the shell, captures combined stdout+stderr into `out`.
/// Returns the exit status (-1 when popen itself fails).
int run_command(const std::string& cmd, std::string* out) {
  out->clear();
  FILE* p = ::popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) return -1;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, p)) > 0) out->append(buf, got);
  const int status = ::pclose(p);
  return status;
}

std::string first_line(const std::string& s) {
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char c : s) {
    if (c == '\'') q += "'\\''";
    else q += c;
  }
  q += "'";
  return q;
}

struct CompilerInfo {
  bool available = false;
  std::string cc;       ///< resolved compiler command
  std::string version;  ///< first line of `cc --version`
  std::string flags;    ///< full flag string used for kernel compiles
  std::string arch;     ///< "avx2" / "neon" / "scalar" under those flags
  std::string error;    ///< why discovery failed (for last_error())
};

CompilerInfo discover_compiler() {
  CompilerInfo info;
  const char* disabled = std::getenv("CITL_CODEGEN_DISABLE");
  if (disabled != nullptr && std::string_view(disabled) == "1") {
    info.error = "native codegen disabled via CITL_CODEGEN_DISABLE=1";
    return info;
  }
  std::vector<std::string> candidates;
  if (const char* env_cc = std::getenv("CITL_CODEGEN_CC")) {
    // Explicit override: no fallthrough, so tests (and operators) can force
    // the interpreter fallback by pointing this at a nonexistent binary.
    candidates.emplace_back(env_cc);
  } else {
#ifdef CITL_HOST_CXX
    candidates.emplace_back(CITL_HOST_CXX);
#endif
    candidates.emplace_back("c++");
    candidates.emplace_back("g++");
    candidates.emplace_back("clang++");
  }
  for (const std::string& cc : candidates) {
    std::string out;
    if (run_command(shell_quote(cc) + " --version", &out) != 0) continue;
    info.cc = cc;
    info.version = first_line(out);
    break;
  }
  if (info.cc.empty()) {
    info.error = "no host compiler found (tried";
    for (const std::string& cc : candidates) info.error += " " + cc;
    info.error += ")";
    return info;
  }
  const std::string base_flags =
      "-std=c++17 -O3 -fPIC -shared -ffp-contract=off -fno-math-errno";
  // -march=native when the compiler accepts it (probing also tells us which
  // SIMD back end the generated kernels will select).
  std::string probe;
  std::string flags = base_flags + " -march=native";
  if (run_command(shell_quote(info.cc) + " " + flags +
                      " -dM -E -x c++ /dev/null",
                  &probe) != 0) {
    flags = base_flags;
    if (run_command(shell_quote(info.cc) + " " + flags +
                        " -dM -E -x c++ /dev/null",
                    &probe) != 0) {
      info.error = "compiler probe failed: " + first_line(probe);
      return info;
    }
  }
  info.flags = flags;
  if (probe.find("__AVX2__") != std::string::npos) {
    info.arch = "avx2";
  } else if (probe.find("__ARM_NEON") != std::string::npos ||
             probe.find("__aarch64__") != std::string::npos) {
    info.arch = "neon";
  } else {
    info.arch = "scalar";
  }
  info.available = true;
  return info;
}

const CompilerInfo& compiler_info() {
  static const CompilerInfo info = discover_compiler();
  return info;
}

// ---------------------------------------------------------------------------
// Content hash, disk cache, loading
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// 32-hex content key: emitted source + everything that changes the produced
/// machine code (compiler version, flags, target SIMD arch, ABI tag).
std::string content_hash(const std::string& source, const CompilerInfo& ci) {
  std::string all = source;
  all += '\0';
  all += ci.version;
  all += '\0';
  all += ci.flags;
  all += '\0';
  all += ci.arch;
  all += '\0';
  all += std::to_string(kNativeKernelAbi);
  const std::uint64_t h1 = fnv1a(all, 14695981039346656037ull);
  const std::uint64_t h2 = fnv1a(all, 0x9e3779b97f4a7c15ull);
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2));
  return buf;
}

/// Atomic file publication: write to a pid-suffixed temp name, rename into
/// place. Concurrent processes race benignly (same content, last rename
/// wins).
bool write_file_atomic(const fs::path& path, const std::string& content,
                       std::string* error) {
  const fs::path tmp =
      path.string() + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      *error = "cannot write " + tmp.string();
      return false;
    }
    f.write(content.data(),
            static_cast<std::streamsize>(content.size()));
    if (!f) {
      *error = "short write to " + tmp.string();
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    *error = "rename to " + path.string() + " failed: " + ec.message();
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

struct LoadedSo {
  void* handle = nullptr;
  NativeKernel::DenseFn dense = nullptr;
  NativeKernel::MaskedFn masked = nullptr;
};

/// dlopen + full verification (ABI tag, content hash, entry points). Any
/// mismatch closes the handle and reports why — the caller treats the .so as
/// corrupt and recompiles.
bool load_so(const fs::path& so, const std::string& hash, LoadedSo* out,
             std::string* error) {
  void* h = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* e = ::dlerror();
    *error = std::string("dlopen failed: ") + (e != nullptr ? e : "?");
    return false;
  }
  auto fail = [&](const std::string& why) {
    ::dlclose(h);
    *error = why;
    return false;
  };
  using AbiFn = unsigned (*)();
  using HashFn = const char* (*)();
  auto abi = reinterpret_cast<AbiFn>(::dlsym(h, "citl_native_abi"));
  if (abi == nullptr) return fail("missing citl_native_abi");
  if (abi() != kNativeKernelAbi) {
    return fail("ABI mismatch: .so has " + std::to_string(abi()) +
                ", host wants " + std::to_string(kNativeKernelAbi));
  }
  auto hfn = reinterpret_cast<HashFn>(::dlsym(h, "citl_native_hash"));
  if (hfn == nullptr) return fail("missing citl_native_hash");
  if (hash != hfn()) return fail("content hash mismatch");
  auto dense =
      reinterpret_cast<NativeKernel::DenseFn>(::dlsym(h, "citl_run_dense"));
  auto masked =
      reinterpret_cast<NativeKernel::MaskedFn>(::dlsym(h, "citl_run_masked"));
  if (dense == nullptr || masked == nullptr) {
    return fail("missing kernel entry points");
  }
  out->handle = h;
  out->dense = dense;
  out->masked = masked;
  return true;
}

struct CodegenObs {
  obs::Counter& compiles;
  obs::Counter& memo_hits;
  obs::Counter& disk_hits;
  obs::Counter& repairs;
  obs::Counter& fallbacks;
  obs::Gauge& compile_ms_total;
  static CodegenObs& get() {
    static CodegenObs o{
        obs::Registry::global().counter("cgra.codegen.compiles"),
        obs::Registry::global().counter("cgra.codegen.memo_hits"),
        obs::Registry::global().counter("cgra.codegen.disk_hits"),
        obs::Registry::global().counter("cgra.codegen.repairs"),
        obs::Registry::global().counter("cgra.codegen.fallbacks"),
        obs::Registry::global().gauge("cgra.codegen.compile_ms_total")};
    return o;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

std::string emit_kernel_source(const CompiledKernel& kernel,
                               Precision precision, std::size_t lanes) {
  Emitter e(kernel, precision, lanes);
  return e.emit();
}

NativeKernel::NativeKernel(void* dl_handle, DenseFn dense, MaskedFn masked,
                           std::string hash, double compile_ms, bool disk_hit,
                           bool repaired)
    : dl_handle_(dl_handle),
      dense_(dense),
      masked_(masked),
      hash_(std::move(hash)),
      compile_ms_(compile_ms),
      disk_hit_(disk_hit),
      repaired_(repaired) {}

NativeKernel::~NativeKernel() {
  if (dl_handle_ != nullptr) ::dlclose(dl_handle_);
}

struct NativeKernelCache::Entry {
  std::promise<std::shared_ptr<const NativeKernel>> promise;
  std::shared_future<std::shared_ptr<const NativeKernel>> future;
  Entry() : future(promise.get_future().share()) {}
};

NativeKernelCache& NativeKernelCache::global() {
  static NativeKernelCache cache;
  return cache;
}

bool NativeKernelCache::compiler_available() {
  return compiler_info().available;
}

std::string NativeKernelCache::compiler_command() {
  return compiler_info().cc;
}

std::string NativeKernelCache::compiler_version() {
  return compiler_info().version;
}

std::string NativeKernelCache::target_simd_arch() {
  return compiler_info().arch;
}

std::string NativeKernelCache::cache_dir() {
  if (const char* env = std::getenv("CITL_KERNEL_CACHE_DIR")) {
    if (env[0] != '\0') return env;
  }
  return "/tmp/citl-kernel-cache-" +
         std::to_string(static_cast<long>(::getuid()));
}

CodegenStats NativeKernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string NativeKernelCache::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

void NativeKernelCache::clear_memory() {
  std::lock_guard<std::mutex> lock(mu_);
  memo_.clear();
}

std::shared_ptr<const NativeKernel> NativeKernelCache::get(
    const CompiledKernel& kernel, Precision precision, std::size_t lanes) {
  CodegenObs& o = CodegenObs::get();
  const CompilerInfo& ci = compiler_info();
  if (!ci.available) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.fallbacks;
      last_error_ = ci.error;
    }
    o.fallbacks.add();
    return nullptr;
  }
  const std::string source = emit_kernel_source(kernel, precision, lanes);
  const std::string hash = content_hash(source, ci);

  std::shared_ptr<Entry> entry;
  bool creator = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = memo_.find(hash);
    if (it != memo_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<Entry>();
      memo_.emplace(hash, entry);
      creator = true;
    }
  }
  if (!creator) {
    // Another caller owns (or owned) this key: wait for its outcome.
    // Memoised failures stay failures — no retry storms on a broken
    // toolchain; clear_memory() resets the verdict.
    auto k = entry->future.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (k != nullptr) ++stats_.memo_hits;
      else ++stats_.fallbacks;
    }
    (k != nullptr ? o.memo_hits : o.fallbacks).add();
    return k;
  }

  bool disk_hit = false;
  bool repaired = false;
  double compile_ms = 0.0;
  std::string error;
  auto k = load_or_compile(source, hash, kernel, precision, lanes, &disk_hit,
                           &repaired, &compile_ms, &error);
  entry->promise.set_value(k);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (k == nullptr) {
      ++stats_.fallbacks;
      last_error_ = error;
    } else if (disk_hit) {
      ++stats_.disk_hits;
    } else {
      ++stats_.compiles;
      stats_.compile_ms_total += compile_ms;
    }
    if (repaired) ++stats_.repairs;
  }
  if (k == nullptr) {
    o.fallbacks.add();
  } else if (disk_hit) {
    o.disk_hits.add();
  } else {
    o.compiles.add();
    o.compile_ms_total.add(compile_ms);
  }
  if (repaired) o.repairs.add();
  return k;
}

std::shared_ptr<const NativeKernel> NativeKernelCache::load_or_compile(
    const std::string& source, const std::string& hash,
    const CompiledKernel& kernel, Precision precision, std::size_t lanes,
    bool* disk_hit, bool* repaired, double* compile_ms, std::string* error) {
  const CompilerInfo& ci = compiler_info();
  const fs::path dir = cache_dir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create cache dir " + dir.string() + ": " + ec.message();
    return nullptr;
  }
  const fs::path so = dir / (hash + ".so");
  const fs::path cpp = dir / (hash + ".cpp");
  const fs::path report = dir / (hash + ".json");

  // Warm path: a previously cached .so that passes full verification.
  if (fs::exists(so, ec)) {
    LoadedSo loaded;
    std::string why;
    if (load_so(so, hash, &loaded, &why)) {
      *disk_hit = true;
      return std::make_shared<NativeKernel>(loaded.handle, loaded.dense,
                                            loaded.masked, hash, 0.0,
                                            /*disk_hit=*/true,
                                            /*repaired=*/false);
    }
    // Corrupt / stale: discard and recompile.
    *repaired = true;
    fs::remove(so, ec);
  }

  // Publish the portability header the generated source includes.
  const fs::path header = dir / "citl_simd_portability.h";
  {
    std::ifstream existing(header, std::ios::binary);
    std::string current((std::istreambuf_iterator<char>(existing)),
                        std::istreambuf_iterator<char>());
    if (!existing || current != kSimdPortabilityHeader) {
      if (!write_file_atomic(header, kSimdPortabilityHeader, error)) {
        return nullptr;
      }
    }
  }

  // The content hash is computed over the footer-less source; the footer
  // bakes the hash into the binary so verification can detect a swapped or
  // truncated .so.
  std::string full = source;
  full += "extern \"C\" const char* citl_native_hash(void) { return \"";
  full += hash;
  full += "\"; }\n";
  if (!write_file_atomic(cpp, full, error)) return nullptr;

  const fs::path so_tmp =
      so.string() + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const std::string cmd = shell_quote(ci.cc) + " " + ci.flags + " -I " +
                          shell_quote(dir.string()) + " -o " +
                          shell_quote(so_tmp.string()) + " " +
                          shell_quote(cpp.string());
  std::string cc_out;
  const auto t0 = std::chrono::steady_clock::now();
  const int status = run_command(cmd, &cc_out);
  const auto t1 = std::chrono::steady_clock::now();
  *compile_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (status != 0) {
    *error = "kernel compile failed (" + ci.cc + "): " + first_line(cc_out);
    fs::remove(so_tmp, ec);
    return nullptr;
  }
  fs::rename(so_tmp, so, ec);
  if (ec) {
    *error = "rename of compiled kernel failed: " + ec.message();
    fs::remove(so_tmp, ec);
    return nullptr;
  }

  // Compilation report (one JSON per cache entry; bench and tests read it).
  {
    std::ostringstream j;
    j << "{\n"
      << "  \"schema\": \"citl-compilation-report/1\",\n"
      << "  \"kernel\": \"" << json_escape(kernel.name) << "\",\n"
      << "  \"precision\": \""
      << (precision == Precision::kFloat64 ? "f64" : "f32") << "\",\n"
      << "  \"lanes\": " << lanes << ",\n"
      << "  \"abi\": " << kNativeKernelAbi << ",\n"
      << "  \"simd_arch\": \"" << json_escape(ci.arch) << "\",\n"
      << "  \"hash\": \"" << hash << "\",\n"
      << "  \"compiler\": \"" << json_escape(ci.cc) << "\",\n"
      << "  \"compiler_version\": \"" << json_escape(ci.version) << "\",\n"
      << "  \"flags\": \"" << json_escape(ci.flags) << "\",\n"
      << "  \"compile_ms\": " << *compile_ms << ",\n"
      << "  \"disk_hit\": " << (*disk_hit ? "true" : "false") << ",\n"
      << "  \"repaired\": " << (*repaired ? "true" : "false") << "\n"
      << "}\n";
    std::string werr;
    (void)write_file_atomic(report, j.str(), &werr);  // best-effort
  }

  LoadedSo loaded;
  std::string why;
  if (!load_so(so, hash, &loaded, &why)) {
    *error = "freshly compiled kernel failed verification: " + why;
    fs::remove(so, ec);
    return nullptr;
  }
  return std::make_shared<NativeKernel>(loaded.handle, loaded.dense,
                                        loaded.masked, hash, *compile_ms,
                                        /*disk_hit=*/false, *repaired);
}

ExecTier resolve_exec_tier(ExecTier requested, const CompiledKernel& kernel,
                           Precision precision, std::size_t lanes,
                           std::shared_ptr<const NativeKernel>* out_native) {
  switch (requested) {
    case ExecTier::kInterpreter:
      return ExecTier::kInterpreter;
    case ExecTier::kAuto:
      if (!NativeKernelCache::compiler_available()) {
        return ExecTier::kInterpreter;
      }
      [[fallthrough]];
    case ExecTier::kNative: {
      auto native =
          NativeKernelCache::global().get(kernel, precision, lanes);
      if (native != nullptr) {
        *out_native = std::move(native);
        return ExecTier::kNative;
      }
      return ExecTier::kInterpreter;
    }
  }
  return ExecTier::kInterpreter;
}

}  // namespace citl::cgra
