// The CCK intermediate representation (paper §5.2).
//
// The custom front end does NOT outline OpenMP regions: it lowers the
// program to sequential IR and attaches the pragma semantics as
// metadata (OmpMeta) so the middle end can analyze whole functions at
// full accuracy.  Statements carry symbolic read/write sets; that is
// the abstraction of LLVM-IR memory operations the dependence analyses
// consume.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hw/memory.hpp"
#include "komp/icv.hpp"
#include "sim/time.hpp"

namespace kop::cck {

/// A program variable (symbol).  `is_object` distinguishes aggregates
/// (arrays, structs) from scalars -- the pivot of the AutoMP
/// privatization limitation (§6.2: "currently unable to exploit OpenMP
/// directives related to object privatization").
struct Var {
  std::string name;
  std::uint64_t bytes = 8;
  bool is_object = false;
};

/// One symbolic memory access inside a loop body.
struct Access {
  std::string var;
  bool write = false;
  /// Access is indexed solely by the induction variable (a[i]):
  /// distinct iterations touch distinct elements.
  bool per_iteration = false;
  /// Access crosses iterations at a fixed distance (a[i-1], a[i+1]).
  bool carried = false;
};

/// Convenience constructors for terse kernel descriptions.
inline Access read(std::string var, bool per_iter = true) {
  return Access{std::move(var), false, per_iter, false};
}
inline Access write(std::string var, bool per_iter = true) {
  return Access{std::move(var), true, per_iter, false};
}
inline Access carried_read(std::string var) {
  return Access{std::move(var), false, false, true};
}
inline Access carried_write(std::string var) {
  return Access{std::move(var), true, false, true};
}

struct Stmt {
  std::string label;
  std::vector<Access> accesses;
  /// The compile-time latency estimate the parallelism-aware data-flow
  /// analysis produces for one execution (drives the chunker, §6.2).
  double est_cost_ns = 100.0;
};

/// OpenMP semantics attached to a loop by the front end.
struct OmpMeta {
  bool parallel_for = false;
  std::vector<std::string> private_vars;
  std::vector<std::string> firstprivate_vars;
  std::vector<std::string> reduction_vars;
  komp::Schedule schedule = komp::Schedule::kStatic;
  int chunk = 0;
  bool nowait = false;
  bool ordered = false;
};

/// Execution payload: how running one iteration charges the simulator.
/// (The compiler only reads est_cost from Stmts; this block is the
/// stand-in for the machine code the backend would emit.)
struct ExecInfo {
  hw::MemRegion* region = nullptr;
  double per_iter_ns = 100.0;
  double mem_fraction = 0.3;
  std::uint64_t bytes_per_iter = 0;
  hw::AccessPattern pattern = hw::AccessPattern::kStreaming;
  /// Linear load ramp: iteration i costs
  /// per_iter_ns * (1 - skew + 2*skew*i/trip).  Non-zero skew is what
  /// makes coarse chunking lose (MG/CG in the paper).
  double skew = 0.0;
};

struct Loop {
  std::string name;
  std::int64_t trip = 0;
  std::vector<Stmt> body;
  OmpMeta omp;
  ExecInfo exec;

  /// Sum of statement latency estimates = estimated iteration latency.
  double est_iter_cost_ns() const;
};

/// A top-level item of a function body, in program order.
struct Item {
  enum class Kind { kLoop, kSerial, kCall };
  Kind kind = Kind::kSerial;
  Loop loop;              // kLoop
  double serial_ns = 0;   // kSerial
  std::string callee;     // kCall

  static Item make_loop(Loop l);
  static Item make_serial(double ns);
  static Item make_call(std::string callee);
};

struct Function {
  std::string name;
  std::map<std::string, Var> vars;
  std::vector<Item> items;

  void declare(Var v) { vars[v.name] = std::move(v); }
  const Var* find_var(const std::string& n) const;
};

/// A whole translation unit: functions by name; `main` is the entry.
struct Module {
  std::map<std::string, Function> functions;
  Function& entry();
  const Function& entry() const;
};

}  // namespace kop::cck
