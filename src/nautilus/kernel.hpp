// The Nautilus kernel facade: an osal::Os with the HRT-supporting
// subsystems a stack reaches -- identity-mapped placement on the
// largest pages, the SoftIRQ-like task system, a kernel
// environment-variable service and sysconf (§3.4), and the shell
// command registry through which RTK applications' main() is started
// (§3.1).  The buddy allocator, the executable loader and hardware TLS
// (buddy.hpp, loader.hpp, tls.hpp) are standalone models that PIK's
// process builds.  Interrupt steering and lazy SSE (§3.4) are modelled
// only by what the kernel cost sheet leaves out (hw::nautilus_costs: no
// periodic tick, no OS noise); nothing delivers device interrupts.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osal/osal.hpp"
#include "osal/task_queues.hpp"

namespace kop::nautilus {

struct NautilusConfig {
  /// §6.3 extension: first-touch allocation at 2 MB granularity instead
  /// of immediate single-zone allocation (needed for good NUMA behavior
  /// on 8XEON at 24+ cores).
  bool first_touch_at_2mb = false;
};

/// A shell command takes argv-style arguments and returns an exit code.
using ShellCommand = std::function<int(const std::vector<std::string>&)>;

class NautilusKernel final : public osal::Os {
 public:
  NautilusKernel(sim::Engine& engine, hw::MachineConfig machine,
                 NautilusConfig config = {});
  /// Variant with an explicit cost sheet (for ablations).
  NautilusKernel(sim::Engine& engine, hw::MachineConfig machine,
                 NautilusConfig config, hw::OsCosts costs);
  ~NautilusKernel() override;

  const NautilusConfig& config() const { return config_; }

  // --- subsystems ---
  /// The SoftIRQ-like per-CPU task queues (one lane per CPU); kernel
  /// VIRGIL is this object.
  osal::TaskQueues& task_system() { return *task_system_; }

  // --- shell (RTK launch path: main() becomes a shell command) ---
  void register_shell_command(const std::string& name, ShellCommand fn);
  bool has_shell_command(const std::string& name) const;
  /// Runs the command on the calling thread; throws if unknown.
  int run_shell_command(const std::string& name,
                        const std::vector<std::string>& args = {});
  std::vector<std::string> shell_command_names() const;

 protected:
  void place_region(hw::MemRegion& region, osal::AllocPolicy policy) override;

 private:
  NautilusConfig config_;
  std::unique_ptr<osal::TaskQueues> task_system_;
  std::map<std::string, ShellCommand> shell_;
};

}  // namespace kop::nautilus
