#include "cck/program.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

namespace kop::cck {

hw::WorkBlock chunk_work(const Loop& loop, std::int64_t begin,
                         std::int64_t end, int lanes) {
  const ExecInfo& e = loop.exec;
  const auto iters = static_cast<double>(end - begin);
  // Average of the linear ramp over [begin, end):
  //   mult(i) = 1 - skew + 2*skew*i/trip
  double mult = 1.0;
  if (e.skew != 0.0 && loop.trip > 0) {
    const double mid =
        (static_cast<double>(begin) + static_cast<double>(end)) / 2.0;
    mult = 1.0 - e.skew + 2.0 * e.skew * mid / static_cast<double>(loop.trip);
  }
  hw::WorkBlock b;
  b.cpu_ns = static_cast<sim::Time>(e.per_iter_ns * iters * mult);
  b.mem_fraction = e.mem_fraction;
  b.bytes_touched = e.bytes_per_iter * static_cast<std::uint64_t>(end - begin);
  b.pattern = e.pattern;
  b.region = e.region;
  if (e.region != nullptr && loop.trip > 0) {
    const double region_bytes = static_cast<double>(e.region->bytes());
    const double n = static_cast<double>(std::max(1, lanes));
    double ws = region_bytes;
    switch (e.pattern) {
      case hw::AccessPattern::kStreaming:
        ws = region_bytes / n;
        break;
      case hw::AccessPattern::kRandom:
        ws = region_bytes / std::sqrt(n);
        break;
      case hw::AccessPattern::kBlocked:
        ws = std::min(region_bytes, 16.0 * 1024 * 1024);
        break;
    }
    b.working_set_bytes = static_cast<std::uint64_t>(ws);
  }
  return b;
}

int chunk_partition(const Loop& loop, std::int64_t begin, std::int64_t end,
                    int nparts) {
  if (loop.trip <= 0) return 0;
  const std::int64_t mid = (begin + end) / 2;
  const auto part = static_cast<int>(mid * nparts / loop.trip);
  return std::clamp(part, 0, nparts - 1);
}

void ProgramRunner::run_parallel_loop(const CompiledProgram& program,
                                      const Phase& phase,
                                      double parallel_fraction) {
  const Loop& loop = phase.loop;
  const std::int64_t chunk = std::max<std::int64_t>(1, phase.plan.chunk);
  const std::int64_t trip = loop.trip;
  if (trip <= 0) return;
  const auto n_chunks = static_cast<int>((trip + chunk - 1) / chunk);

  // Generated join code: a counter the landing waits on.  The runtime
  // itself is unaware of the join (§5: "the runtime is unaware of this
  // join").
  //
  // Every chunk task reads one context on this frame, which latch.wait()
  // keeps alive until the last task is done, and captures only its
  // address and the chunk start: 16 bytes fit std::function's inline
  // buffer, so a submit allocates nothing.
  struct ChunkContext {
    osal::Os* os;
    const Loop* loop;
    virgil::CountdownLatch latch;
    std::int64_t chunk;
    double live_in_ns;
    double parallel_fraction;
    int lanes;
  };
  ChunkContext ctx{os_, &loop, virgil::CountdownLatch(*os_, n_chunks), chunk,
                   program.options.live_in_ns, parallel_fraction,
                   virgil_->width()};

  for (std::int64_t b = 0; b < trip; b += chunk) {
    virgil_->submit([c = &ctx, b]() {
      constexpr int kParts = 64;
      const std::int64_t e = std::min(c->loop->trip, b + c->chunk);
      // Live-in unmarshalling emitted at task entry.
      c->os->compute_ns(static_cast<sim::Time>(c->live_in_ns));
      hw::WorkBlock work = chunk_work(*c->loop, b, e, c->lanes);
      if (c->parallel_fraction < 1.0) {
        work.cpu_ns = static_cast<sim::Time>(
            static_cast<double>(work.cpu_ns) * c->parallel_fraction);
        work.bytes_touched = static_cast<std::uint64_t>(
            static_cast<double>(work.bytes_touched) * c->parallel_fraction);
      }
      const int part = chunk_partition(*c->loop, b, e, kParts);
      const int zone = c->os->resolve_data_zone(work.region, part, kParts);
      c->os->compute(work, zone);
      c->latch.count_down();
    });
  }
  ctx.latch.wait();
  // Landing task: reduce the live-out array (runs on the joiner).
  os_->compute_ns(static_cast<sim::Time>(program.options.live_out_ns *
                                         static_cast<double>(n_chunks)));

  if (parallel_fraction < 1.0) {
    // Sequential segment of a HELIX/DSWP loop: the serialized portion
    // executes at original program order on the joining thread.
    hw::WorkBlock serial = chunk_work(loop, 0, trip, /*lanes=*/1);
    serial.cpu_ns = static_cast<sim::Time>(static_cast<double>(serial.cpu_ns) *
                                           (1.0 - parallel_fraction));
    serial.bytes_touched = static_cast<std::uint64_t>(
        static_cast<double>(serial.bytes_touched) * (1.0 - parallel_fraction));
    os_->compute(serial);
  }
}

void ProgramRunner::run_sequential_loop(const Phase& phase) {
  const Loop& loop = phase.loop;
  // Charged in slices so fault accounting and the TLB model see the
  // same access stream a real sequential execution would produce.
  const std::int64_t slice = std::max<std::int64_t>(1, loop.trip / 16);
  for (std::int64_t b = 0; b < loop.trip; b += slice) {
    const std::int64_t e = std::min(loop.trip, b + slice);
    hw::WorkBlock work = chunk_work(loop, b, e, /*lanes=*/1);
    os_->compute(work);
  }
}

sim::Time ProgramRunner::run(const CompiledProgram& program) {
  const sim::Time start = os_->engine().now();
  for (const auto& phase : program.phases) {
    switch (phase.kind) {
      case Phase::Kind::kSerial:
        if (phase.serial_ns > 0)
          os_->compute_ns(static_cast<sim::Time>(phase.serial_ns));
        break;
      case Phase::Kind::kParallelLoop:
        run_parallel_loop(program, phase, 1.0);
        break;
      case Phase::Kind::kPipelineLoop:
        run_parallel_loop(program, phase, phase.plan.parallel_fraction);
        break;
      case Phase::Kind::kSequentialLoop:
        run_sequential_loop(phase);
        break;
    }
  }
  return os_->engine().now() - start;
}

}  // namespace kop::cck
