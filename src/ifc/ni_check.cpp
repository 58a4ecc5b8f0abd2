#include "ifc/ni_check.h"

#include <map>
#include <set>
#include <sstream>

#include "ifc/checker.h"
#include "sim/simulator.h"

namespace aesifc::ifc {

using hdl::LabelTerm;
using hdl::Module;
using hdl::SignalId;
using hdl::SignalKind;
using lattice::Label;

std::string NiWitness::toString() const {
  std::ostringstream os;
  os << "interference at output '" << output << "':";
  os << " run A {";
  for (const auto& [n, v] : inputs_a) os << " " << n << "=" << v.toHex();
  os << " } vs run B {";
  for (const auto& [n, v] : inputs_b) os << " " << n << "=" << v.toHex();
  os << " }";
  return os.str();
}

namespace {

struct BucketEntry {
  std::vector<std::pair<std::string, aesifc::BitVec>> assignment;
  std::vector<std::pair<std::string, aesifc::BitVec>> observed;
};

}  // namespace

NiResult checkNoninterference(const Module& m, const Label& observer,
                              unsigned max_input_bits) {
  NiResult result;
  for (const auto& s : m.signals()) {
    if (s.kind == SignalKind::Reg) {
      result.status = NiResult::Status::Unsupported;
      result.note = "sequential module (register '" + s.name + "')";
      return result;
    }
  }
  if (!m.downgrades().empty()) {
    result.status = NiResult::Status::Unsupported;
    result.note = "module contains downgrades (intentional NI exceptions)";
    return result;
  }

  std::vector<SignalId> inputs;
  unsigned total_bits = 0;
  for (std::size_t i = 0; i < m.signals().size(); ++i) {
    if (m.signals()[i].kind == SignalKind::Input) {
      inputs.push_back(SignalId{static_cast<std::uint32_t>(i)});
      total_bits += m.signals()[i].width;
    }
  }
  if (total_bits > max_input_bits) {
    result.status = NiResult::Status::Unsupported;
    result.note = "input space too large (" + std::to_string(total_bits) +
                  " bits)";
    return result;
  }

  std::vector<SignalId> outputs;
  for (std::size_t i = 0; i < m.signals().size(); ++i) {
    const auto& s = m.signals()[i];
    if (s.kind == SignalKind::Output &&
        s.label.kind != LabelTerm::Kind::Unconstrained) {
      outputs.push_back(SignalId{static_cast<std::uint32_t>(i)});
    }
  }

  sim::Simulator sim{m};
  std::map<std::string, BucketEntry> buckets;

  const std::uint64_t space = 1ull << total_bits;
  for (std::uint64_t idx = 0; idx < space; ++idx) {
    // Decode the index into per-input values and drive the design.
    std::map<std::uint32_t, aesifc::BitVec> pinned;
    std::vector<std::pair<std::string, aesifc::BitVec>> assignment;
    std::uint64_t rest = idx;
    for (const auto in : inputs) {
      const unsigned w = m.signal(in).width;
      const aesifc::BitVec v(w, rest & ((w >= 64) ? ~0ull : ((1ull << w) - 1)));
      rest >>= w;
      sim.poke(in, v);
      pinned.emplace(in.v, v);
      assignment.emplace_back(m.signal(in).name, v);
    }
    sim.evalComb();

    // The observer's view of the inputs (resolved under this valuation), as
    // a byte string.
    std::string key;
    for (const auto in : inputs) {
      const Label l = resolveAnnotation(m, in, pinned);
      if (!l.flowsTo(observer)) continue;
      key.push_back(static_cast<char>(in.v));
      const auto& v = pinned.at(in.v);
      for (unsigned b = 0; b < v.width(); b += 8)
        key.push_back(static_cast<char>(v.byte(b / 8)));
    }

    // The observer's view of the outputs.
    std::vector<std::pair<std::string, aesifc::BitVec>> observed;
    for (const auto out : outputs) {
      const Label l = resolveAnnotation(m, out, pinned);
      if (!l.flowsTo(observer)) continue;
      observed.emplace_back(m.signal(out).name, sim.peek(out));
    }

    auto [it, inserted] = buckets.emplace(
        std::move(key), BucketEntry{assignment, observed});
    if (!inserted) {
      const auto& prior = it->second;
      // Visibility is consistent within a bucket (selectors visible to the
      // observer have equal values here; invisible selectors cannot make
      // their dependents visible).
      for (std::size_t k = 0; k < observed.size(); ++k) {
        if (!(observed[k].second == prior.observed[k].second)) {
          result.status = NiResult::Status::Interference;
          NiWitness w;
          w.inputs_a = prior.assignment;
          w.inputs_b = assignment;
          w.output = observed[k].first;
          result.witness = std::move(w);
          return result;
        }
      }
    }
  }
  return result;
}

NiResult checkNoninterferenceAllObservers(const Module& m,
                                          unsigned max_input_bits) {
  // Candidate observer levels: every label mentioned by an annotation.
  std::set<std::pair<std::uint16_t, std::uint16_t>> seen;
  std::vector<Label> observers;
  auto add = [&](const Label& l) {
    if (seen.insert({l.c.cats.mask(), l.i.cats.mask()}).second)
      observers.push_back(l);
  };
  for (const auto& s : m.signals()) {
    if (s.label.kind == LabelTerm::Kind::Static) add(s.label.fixed);
    if (s.label.kind == LabelTerm::Kind::Dependent) {
      for (const auto& l : s.label.by_value) add(l);
    }
  }

  NiResult last;
  for (const auto& obs : observers) {
    const auto r = checkNoninterference(m, obs, max_input_bits);
    if (r.status != NiResult::Status::Noninterferent) return r;
    last = r;
  }
  return last;
}

}  // namespace aesifc::ifc
