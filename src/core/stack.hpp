// The public facade of the library: assemble a complete stack for any
// of the paper's evaluated configurations and run an application on it.
//
//   kLinuxOmp       -- the baseline: libomp on glibc pthreads on Linux
//   kRtk            -- §3: libomp ported into Nautilus
//   kPik            -- §4: pristine libomp binary in a kernel process
//   kAutoMpLinux    -- §5: CCK-compiled tasks on user-level VIRGIL
//   kAutoMpNautilus -- §5: CCK-compiled tasks on kernel VIRGIL
//
// libomp paths run OmpApps (code written against komp::Runtime, i.e.
// "compiled with -fopenmp"); AutoMP paths run CckApps (code that
// builds a cck::Module, compiles it, and executes the task program).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "komp/runtime.hpp"
#include "osal/osal.hpp"
#include "sim/engine.hpp"
#include "virgil/virgil.hpp"

namespace kop::core {

enum class PathKind { kLinuxOmp, kRtk, kPik, kAutoMpLinux, kAutoMpNautilus };

const char* path_name(PathKind p);

struct StackConfig {
  std::string machine = "phi";
  PathKind path = PathKind::kLinuxOmp;
  /// Execution width (OMP_NUM_THREADS / VIRGIL lanes); 0 = all CPUs.
  int num_threads = 0;
  std::uint64_t seed = 42;
  /// Ready-queue tie-break policy for the engine: FIFO (default), or a
  /// seeded random / PCT-style perturbation for schedule exploration.
  sim::SchedConfig sched;
  /// Attach the vector-clock race detector to the engine.
  bool racecheck = false;
  /// RTK: use the PTE pthread port (Fig. 2a) instead of the customized
  /// layer (Fig. 2b).
  bool rtk_use_pte = false;
  /// Nautilus §6.3 extension: first-touch allocation at 2 MB.
  bool nk_first_touch = false;
  /// Link-time static data of the app (RTK/CCK boot-image constraint).
  std::uint64_t app_static_bytes = 64ULL << 20;
  /// Migration-on-next-touch placement: arm every app allocation so its
  /// first access per slice re-homes the slice to the toucher's
  /// preferred DRAM zone (the policy beside immediate placement and
  /// first touch).
  bool numa_migrate = false;
  /// Extra environment for the run (OMP_SCHEDULE, KMP_BLOCKTIME, ...).
  std::vector<std::pair<std::string, std::string>> env;
};

class Stack {
 public:
  virtual ~Stack() = default;

  /// Build the full stack for a configuration.  Throws
  /// nautilus::BootOverlapError if an RTK/CCK boot image cannot fit.
  static std::unique_ptr<Stack> create(const StackConfig& config);

  virtual PathKind path() const = 0;
  virtual sim::Engine& engine() = 0;
  virtual osal::Os& os() = 0;
  virtual const StackConfig& config() const = 0;

  using OmpApp = std::function<int(komp::Runtime&)>;
  using CckApp = std::function<int(osal::Os&, virgil::Virgil&)>;

  /// Run an OpenMP application (libomp paths only; throws otherwise).
  /// Drains the engine; returns the app's exit code.
  virtual int run_omp_app(OmpApp app) = 0;
  /// Run a CCK/AutoMP application (AutoMP paths only; throws otherwise).
  virtual int run_cck_app(CckApp app) = 0;

  /// Whether this path runs OmpApps (vs CckApps).
  bool is_omp_path() const {
    return path() == PathKind::kLinuxOmp || path() == PathKind::kRtk ||
           path() == PathKind::kPik;
  }
};

}  // namespace kop::core
