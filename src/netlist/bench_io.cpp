#include "netlist/bench_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/fault_inject.h"

namespace oisa::netlist {

namespace {

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::string upper(std::string value) {
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return value;
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw core::StatusError(core::Status::invalidInput(
      "readBench: line " + std::to_string(line) + ": " + message));
}

/// One `lhs = OP(args...)` statement, unresolved.
struct Definition {
  std::string op;                  // upper-cased cell name
  std::vector<std::string> args;   // input signal names
  std::size_t line = 0;
  bool building = false;           // cycle-detection mark
  NetId net{};                     // filled once built
  bool built = false;
};

/// Recursive-descent resolver: definitions may appear in any order, so a
/// signal is built on first use, with an in-progress mark catching
/// combinational cycles.
class BenchBuilder {
 public:
  explicit BenchBuilder(std::string topName) : nl_(std::move(topName)) {}

  void addInput(const std::string& name, std::size_t line) {
    if (defs_.count(name) != 0 || inputs_.count(name) != 0) {
      fail(line, "signal '" + name + "' defined twice");
    }
    inputs_.emplace(name, nl_.input(name));
  }

  void addOutput(const std::string& name, std::size_t line) {
    outputs_.emplace_back(name, line);
  }

  void addDefinition(const std::string& name, Definition def) {
    if (defs_.count(name) != 0 || inputs_.count(name) != 0) {
      fail(def.line, "signal '" + name + "' defined twice");
    }
    defOrder_.push_back(name);
    defs_.emplace(name, std::move(def));
  }

  Netlist finish() {
    // Resolve in declaration order (not unordered_map order), so the
    // same .bench text always builds the same NetId/gate numbering —
    // fault-universe indices, sampled fault subsets and report output
    // stay identical across platforms and standard libraries.
    for (const std::string& name : defOrder_) {
      resolve(name, defs_.find(name)->second.line);
    }
    for (const auto& [name, line] : outputs_) {
      nl_.output(name, resolve(name, line));
    }
    return std::move(nl_);
  }

 private:
  /// Iterative depth-first resolution (deep circuits — e.g. generated
  /// inverter chains — must raise diagnostics, not overflow the call
  /// stack). A definition is marked `building` while any of its
  /// dependencies is on the explicit stack; meeting a building
  /// definition again is a combinational cycle.
  NetId resolve(const std::string& name, std::size_t fromLine) {
    if (const auto it = inputs_.find(name); it != inputs_.end()) {
      return it->second;
    }
    const auto root = defs_.find(name);
    if (root == defs_.end()) {
      fail(fromLine, "signal '" + name + "' is never defined");
    }
    if (root->second.built) return root->second.net;

    struct Frame {
      Definition* def;
      const std::string* name;
      std::size_t nextArg = 0;
    };
    std::vector<Frame> stack;
    root->second.building = true;
    stack.push_back(Frame{&root->second, &root->first});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      Definition& def = *frame.def;
      if (frame.nextArg < def.args.size()) {
        const std::string& arg = def.args[frame.nextArg];
        ++frame.nextArg;
        if (inputs_.count(arg) != 0) continue;
        const auto it = defs_.find(arg);
        if (it == defs_.end()) {
          fail(def.line, "signal '" + arg + "' is never defined");
        }
        Definition& dep = it->second;
        if (dep.built) continue;
        if (dep.building) {
          fail(dep.line, "combinational cycle through '" + arg + "'");
        }
        dep.building = true;
        stack.push_back(Frame{&dep, &it->first});
        continue;
      }
      std::vector<NetId> ins;
      ins.reserve(def.args.size());
      for (const std::string& arg : def.args) {
        if (const auto it = inputs_.find(arg); it != inputs_.end()) {
          ins.push_back(it->second);
        } else {
          ins.push_back(defs_.find(arg)->second.net);
        }
      }
      def.net = build(*frame.name, def, ins);
      def.built = true;
      def.building = false;
      stack.pop_back();
    }
    return root->second.net;
  }

  /// Reduces `ins` with 2/3-input `kind` gates; intermediates are named
  /// off the target signal.
  NetId reduce(GateKind kind2, GateKind kind3, std::span<const NetId> ins,
               const std::string& name) {
    if (ins.size() == 1) return ins[0];
    if (ins.size() == 3) return nl_.gate3(kind3, ins[0], ins[1], ins[2], name);
    NetId acc = ins[0];
    for (std::size_t i = 1; i < ins.size(); ++i) {
      const bool last = i + 1 == ins.size();
      acc = nl_.gate2(kind2, acc, ins[i],
                      last ? name : name + "$r" + std::to_string(i));
    }
    return acc;
  }

  NetId build(const std::string& name, const Definition& def,
              std::span<const NetId> ins) {
    const std::string& op = def.op;
    const std::size_t line = def.line;
    if (ins.empty()) fail(line, op + " needs at least one input");
    const auto requireOne = [&] {
      if (ins.size() != 1) fail(line, op + " takes exactly one input");
    };
    if (op == "NOT") {
      requireOne();
      return nl_.gate1(GateKind::Inv, ins[0], name);
    }
    if (op == "BUF" || op == "BUFF") {
      requireOne();
      return nl_.gate1(GateKind::Buf, ins[0], name);
    }
    if (op == "AND") {
      if (ins.size() == 1) return nl_.gate1(GateKind::Buf, ins[0], name);
      return reduce(GateKind::And2, GateKind::And3, ins, name);
    }
    if (op == "OR") {
      if (ins.size() == 1) return nl_.gate1(GateKind::Buf, ins[0], name);
      return reduce(GateKind::Or2, GateKind::Or3, ins, name);
    }
    if (op == "XOR") {
      if (ins.size() == 1) return nl_.gate1(GateKind::Buf, ins[0], name);
      if (ins.size() == 2) return nl_.gate2(GateKind::Xor2, ins[0], ins[1], name);
      NetId acc = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) {
        const bool last = i + 1 == ins.size();
        acc = nl_.gate2(GateKind::Xor2, acc, ins[i],
                        last ? name : name + "$r" + std::to_string(i));
      }
      return acc;
    }
    if (op == "NAND") {
      if (ins.size() == 2) return nl_.gate2(GateKind::Nand2, ins[0], ins[1], name);
      const NetId all = reduce(GateKind::And2, GateKind::And3, ins, name + "$and");
      return nl_.gate1(GateKind::Inv, all, name);
    }
    if (op == "NOR") {
      if (ins.size() == 2) return nl_.gate2(GateKind::Nor2, ins[0], ins[1], name);
      const NetId any = reduce(GateKind::Or2, GateKind::Or3, ins, name + "$or");
      return nl_.gate1(GateKind::Inv, any, name);
    }
    if (op == "XNOR") {
      if (ins.size() == 2) return nl_.gate2(GateKind::Xnor2, ins[0], ins[1], name);
      NetId acc = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) {
        acc = nl_.gate2(GateKind::Xor2, acc, ins[i], name + "$r" + std::to_string(i));
      }
      return nl_.gate1(GateKind::Inv, acc, name);
    }
    if (op == "DFF" || op == "DFFSR" || op == "LATCH") {
      fail(line, op + " is sequential; readBench imports combinational "
                      "circuits only");
    }
    fail(line, "unsupported cell '" + op + "'");
  }

  Netlist nl_;
  std::unordered_map<std::string, NetId> inputs_;
  std::unordered_map<std::string, Definition> defs_;
  std::vector<std::string> defOrder_;  ///< declaration order of defs_
  std::vector<std::pair<std::string, std::size_t>> outputs_;
};

/// Extracts `NAME(payload)` from a statement tail; returns false when the
/// parentheses are malformed.
bool parseCall(const std::string& text, std::string& name,
               std::string& payload) {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return false;
  }
  name = upper(trim(text.substr(0, open)));
  payload = trim(text.substr(open + 1, close - open - 1));
  return true;
}

std::vector<std::string> splitArgs(const std::string& payload,
                                   std::size_t line) {
  std::vector<std::string> args;
  std::stringstream ss(payload);
  std::string token;
  while (std::getline(ss, token, ',')) {
    token = trim(token);
    if (token.empty()) fail(line, "empty argument");
    args.push_back(std::move(token));
  }
  return args;
}

Netlist parseBench(std::istream& in, std::string topName) {
  BenchBuilder builder(std::move(topName));
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    std::string callName;
    std::string payload;
    if (eq == std::string::npos) {
      // Port declaration: INPUT(x) / OUTPUT(x).
      if (!parseCall(line, callName, payload) || payload.empty()) {
        fail(lineNo, "expected INPUT(...), OUTPUT(...) or an assignment");
      }
      if (callName == "INPUT") {
        builder.addInput(payload, lineNo);
      } else if (callName == "OUTPUT") {
        builder.addOutput(payload, lineNo);
      } else {
        fail(lineNo, "unknown declaration '" + callName + "'");
      }
      continue;
    }

    const std::string lhs = trim(line.substr(0, eq));
    if (lhs.empty()) fail(lineNo, "missing signal name before '='");
    if (!parseCall(line.substr(eq + 1), callName, payload) ||
        payload.empty()) {
      fail(lineNo, "expected '" + lhs + " = CELL(args...)'");
    }
    Definition def;
    def.op = callName;
    def.args = splitArgs(payload, lineNo);
    if (def.args.size() > kMaxGateArity) {
      fail(lineNo, "gate '" + lhs + "' has absurd fan-in " +
                       std::to_string(def.args.size()) + " (limit " +
                       std::to_string(kMaxGateArity) + ")");
    }
    def.line = lineNo;
    builder.addDefinition(lhs, std::move(def));
  }
  return builder.finish();
}

/// Runs `parse` on the Status boundary. Netlist::validate and the builder
/// throw plain exceptions for structural violations; here they are still
/// a property of the input text.
template <typename Parse>
core::StatusOr<Netlist> guarded(Parse&& parse) {
  try {
    return parse();
  } catch (const core::StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return core::Status::invalidInput(std::string("readBench: ") + e.what());
  }
}

}  // namespace

core::StatusOr<Netlist> readBenchString(std::string_view text,
                                        std::string topName) {
  return guarded([&] {
    std::istringstream in{std::string(text)};
    return parseBench(in, std::move(topName));
  });
}

core::StatusOr<Netlist> readBenchFile(const std::string& path) {
  return guarded([&] {
    core::fault_inject::maybeThrow(core::fault_inject::kFileOpen,
                                   core::StatusCode::IoError);
    std::ifstream in(path);
    if (!in) {
      throw core::StatusError(
          core::Status::ioError("readBenchFile: cannot open " + path));
    }
    return parseBench(in, path);
  });
}

}  // namespace oisa::netlist
