#include "hdl/verilog.h"

#include <set>
#include <sstream>

namespace aesifc::hdl {

namespace {

std::string hexLiteral(const BitVec& v) {
  std::ostringstream os;
  os << v.width() << "'h" << v.toHex();
  return os.str();
}

std::string net(ExprId id) {
  return std::string("e").append(std::to_string(id.v));
}

void collectReachable(const Module& m, ExprId id, std::set<std::uint32_t>& out) {
  if (!out.insert(id.v).second) return;
  for (const auto a : m.expr(id).args) collectReachable(m, a, out);
}

}  // namespace

std::string emitVerilog(const Module& m, const VerilogOptions& opts) {
  std::ostringstream os;

  // Port list.
  os << "module " << m.name() << " (\n";
  os << "  input wire " << opts.clock << ",\n";
  os << "  input wire " << opts.reset;
  for (const auto& s : m.signals()) {
    if (s.kind == SignalKind::Input) {
      os << ",\n  input wire [" << (s.width - 1) << ":0] " << s.name;
    } else if (s.kind == SignalKind::Output) {
      os << ",\n  output wire [" << (s.width - 1) << ":0] " << s.name;
    }
  }
  os << "\n);\n\n";

  if (opts.emit_label_comments) {
    for (const auto& s : m.signals()) {
      if (s.label.kind == LabelTerm::Kind::Static) {
        os << "  // label " << s.name << " : " << s.label.fixed.toString()
           << "\n";
      } else if (s.label.kind == LabelTerm::Kind::Dependent) {
        os << "  // label " << s.name << " : DL("
           << m.signal(s.label.selector).name << ")\n";
      }
    }
    os << "\n";
  }

  // Internal signal declarations.
  for (const auto& s : m.signals()) {
    if (s.kind == SignalKind::Wire) {
      os << "  wire [" << (s.width - 1) << ":0] " << s.name << ";\n";
    } else if (s.kind == SignalKind::Reg) {
      os << "  reg [" << (s.width - 1) << ":0] " << s.name << ";\n";
    }
  }
  os << "\n";

  // Reachable expression nodes.
  std::set<std::uint32_t> reach;
  for (const auto& a : m.assigns()) collectReachable(m, a.rhs, reach);
  for (const auto& rw : m.regWrites()) {
    collectReachable(m, rw.next, reach);
    collectReachable(m, rw.enable, reach);
  }
  for (const auto& d : m.downgrades()) collectReachable(m, d.value, reach);

  // Lookup tables become functions (declared before use).
  for (const auto idv : reach) {
    const Expr& e = m.expr(ExprId{idv});
    if (e.op != Op::Lut) continue;
    const unsigned iw = m.expr(e.args[0]).width;
    os << "  function [" << (e.width - 1) << ":0] f_" << net(ExprId{idv})
       << ";\n";
    os << "    input [" << (iw - 1) << ":0] idx;\n";
    os << "    begin\n      case (idx)\n";
    for (std::size_t i = 0; i < e.table.size(); ++i) {
      os << "        " << iw << "'h" << std::hex << i << std::dec << ": f_"
         << net(ExprId{idv}) << " = " << hexLiteral(e.table[i]) << ";\n";
    }
    os << "        default: f_" << net(ExprId{idv}) << " = "
       << e.width << "'h0;\n";
    os << "      endcase\n    end\n  endfunction\n\n";
  }

  // One net per expression node, in dependency (index) order.
  for (const auto idv : reach) {
    const ExprId id{idv};
    const Expr& e = m.expr(id);
    os << "  wire [" << (e.width - 1) << ":0] " << net(id) << " = ";
    auto a = [&](unsigned i) { return net(e.args[i]); };
    switch (e.op) {
      case Op::Const: os << hexLiteral(e.cval); break;
      case Op::SignalRef: os << m.signal(e.sig).name; break;
      case Op::Not: os << "~" << a(0); break;
      case Op::And: os << a(0) << " & " << a(1); break;
      case Op::Or: os << a(0) << " | " << a(1); break;
      case Op::Xor: os << a(0) << " ^ " << a(1); break;
      case Op::Add: os << a(0) << " + " << a(1); break;
      case Op::Sub: os << a(0) << " - " << a(1); break;
      case Op::Eq: os << "(" << a(0) << " == " << a(1) << ")"; break;
      case Op::Ne: os << "(" << a(0) << " != " << a(1) << ")"; break;
      case Op::Ult: os << "(" << a(0) << " < " << a(1) << ")"; break;
      case Op::Mux: os << a(0) << " ? " << a(1) << " : " << a(2); break;
      case Op::Concat: os << "{" << a(0) << ", " << a(1) << "}"; break;
      case Op::Slice:
        os << a(0) << "[" << (e.lo + e.width - 1) << ":" << e.lo << "]";
        break;
      case Op::Lut: os << "f_" << net(id) << "(" << a(0) << ")"; break;
      case Op::RedOr: os << "|" << a(0); break;
      case Op::RedAnd: os << "&" << a(0); break;
    }
    os << ";\n";
  }
  os << "\n";

  // Continuous assignments and downgrades (value-transparent).
  for (const auto& as : m.assigns()) {
    os << "  assign " << m.signal(as.lhs).name << " = " << net(as.rhs)
       << ";\n";
  }
  for (const auto& d : m.downgrades()) {
    os << "  assign " << m.signal(d.lhs).name << " = " << net(d.value) << ";";
    if (opts.emit_label_comments) {
      os << "  // "
         << (d.kind == lattice::DowngradeKind::Declassify ? "DECLASSIFY"
                                                          : "ENDORSE")
         << " to " << d.to.toString() << " by " << d.principal.name;
    }
    os << "\n";
  }
  os << "\n";

  // Registers: one always block per register, writes applied in program
  // order (last enabled write wins, matching the IR semantics).
  std::set<std::uint32_t> regs_done;
  for (const auto& rw : m.regWrites()) {
    if (!regs_done.insert(rw.reg.v).second) continue;
    const auto& r = m.signal(rw.reg);
    os << "  always @(posedge " << opts.clock << ") begin\n";
    os << "    if (" << opts.reset << ") begin\n";
    os << "      " << r.name << " <= " << hexLiteral(r.reset) << ";\n";
    os << "    end else begin\n";
    for (const auto& w : m.regWrites()) {
      if (!(w.reg == rw.reg)) continue;
      os << "      if (" << net(w.enable) << ") " << r.name << " <= "
         << net(w.next) << ";\n";
    }
    os << "    end\n  end\n\n";
  }

  os << "endmodule\n";
  return os.str();
}

}  // namespace aesifc::hdl
