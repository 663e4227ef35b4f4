// Tests for the Nautilus kernel substrate: buddy allocator, task
// system, loader + boot layout, TLS, shell, placement.
#include <gtest/gtest.h>

#include "nautilus/buddy.hpp"
#include "nautilus/kernel.hpp"
#include "nautilus/loader.hpp"
#include "nautilus/tls.hpp"
#include "virgil/virgil.hpp"

namespace kop::nautilus {
namespace {

// ------------------------------------------------------------- buddy

TEST(Buddy, AllocFreeRoundTrip) {
  BuddyAllocator b(0, 1ULL << 20, 4096);
  const auto a1 = b.alloc(5000);  // rounds to 8K
  const auto a2 = b.alloc(4096);
  EXPECT_NE(a1, a2);
  EXPECT_EQ(b.allocated_bytes(), 8192u + 4096u);
  b.free(a1);
  b.free(a2);
  EXPECT_EQ(b.allocated_bytes(), 0u);
  EXPECT_EQ(b.largest_free_block(), 1ULL << 20);  // fully coalesced
}

TEST(Buddy, SplitsAndCoalesces) {
  BuddyAllocator b(1 << 20, 1ULL << 20, 4096);
  std::vector<std::uint64_t> blocks;
  for (int i = 0; i < 256; ++i) blocks.push_back(b.alloc(4096));
  EXPECT_EQ(b.free_bytes(), 0u);
  EXPECT_THROW(b.alloc(4096), BuddyError);
  for (auto a : blocks) b.free(a);
  EXPECT_EQ(b.largest_free_block(), 1ULL << 20);
}

TEST(Buddy, ErrorsOnBadFree) {
  BuddyAllocator b(0, 1ULL << 20);
  EXPECT_THROW(b.free(12345), BuddyError);
  const auto a = b.alloc(4096);
  b.free(a);
  EXPECT_THROW(b.free(a), BuddyError);  // double free
}

TEST(Buddy, OversizeAllocationFails) {
  BuddyAllocator b(0, 1ULL << 20);
  EXPECT_THROW(b.alloc(2ULL << 20), BuddyError);
}

TEST(Buddy, AddressesStayInRange) {
  BuddyAllocator b(4ULL << 30, 64ULL << 20, 4096);
  for (int i = 0; i < 100; ++i) {
    const auto a = b.alloc(64 * 1024);
    EXPECT_GE(a, 4ULL << 30);
    EXPECT_LT(a, (4ULL << 30) + (64ULL << 20));
  }
}

// ------------------------------------------------------- task system

TEST(TaskSystem, ExecutesEnqueuedTasks) {
  sim::Engine eng(1);
  NautilusKernel nk(eng, hw::phi());
  int executed = 0;
  nk.spawn_thread(
      "main",
      [&] {
        nk.task_system().start();
        for (int i = 0; i < 100; ++i)
          nk.task_system().enqueue([&] { ++executed; }, i % 64);
        while (nk.task_system().pending() > 0) eng.sleep_for(10'000);
        nk.task_system().stop();
      },
      0);
  eng.run();
  EXPECT_EQ(executed, 100);
  EXPECT_EQ(nk.task_system().executed(), 100u);
}

TEST(TaskSystem, SubmitSkipsLanesWithoutAWorker) {
  // Two rounds of round-robin submits over 8 of PHI's 64 lanes, 1 ms
  // apart so the workers park in between: the second round must land
  // on the 8 lanes that have a worker, not on lanes 8-15.
  sim::Engine eng(3);
  NautilusKernel nk(eng, hw::phi());
  int executed = 0;
  nk.spawn_thread(
      "main",
      [&] {
        nk.task_system().start(8);
        for (int round = 0; round < 2; ++round) {
          virgil::CountdownLatch latch(nk, 8);
          for (int i = 0; i < 8; ++i) {
            nk.task_system().submit([&] {
              ++executed;
              latch.count_down();
            });
          }
          latch.wait();
          eng.sleep_for(sim::kMillisecond);
        }
        nk.task_system().stop();
      },
      0);
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(executed, 16);
}

TEST(TaskSystem, EnqueueOnALaneWithoutAWorkerThrows) {
  sim::Engine eng(4);
  NautilusKernel nk(eng, hw::phi());
  nk.spawn_thread(
      "main",
      [&] {
        auto& ts = nk.task_system();
        EXPECT_THROW(ts.enqueue([] {}, 0), std::out_of_range);
        EXPECT_THROW(ts.submit([] {}), std::out_of_range);
        ts.start(8);
        EXPECT_THROW(ts.enqueue([] {}, 8), std::out_of_range);
        EXPECT_THROW(ts.enqueue([] {}, -1), std::out_of_range);
        ts.stop();
      },
      0);
  eng.run();
  EXPECT_EQ(nk.task_system().pending(), 0u);
  EXPECT_EQ(nk.task_system().executed(), 0u);
}

// ------------------------------------------------------------ loader

ExecutableImage small_image() {
  ExecutableImage img;
  img.name = "toy";
  img.position_independent = true;
  img.statically_linked = true;
  img.text_bytes = 1 << 20;
  img.rodata_bytes = 1 << 20;
  img.data_bytes = 1 << 20;
  img.bss_bytes = 4 << 20;
  img.tls.tdata_bytes = 4096;
  img.tls.tbss_bytes = 8192;
  img.header.magic = kMultiboot2Magic64;
  img.header.image_bytes = img.loadable_bytes();
  img.header.entry_offset = 0x100;
  return img;
}

TEST(Loader, LoadsValidImage) {
  BuddyAllocator phys(4ULL << 30, 1ULL << 30);
  Loader loader(phys);
  const auto img = small_image();
  const LoadedProgram p = loader.load(img);
  EXPECT_EQ(p.entry, p.base + 0x100);
  EXPECT_EQ(p.tls.tdata_bytes, 4096u);
  EXPECT_GT(phys.allocated_bytes(), 0u);
  loader.unload(p);
  EXPECT_EQ(phys.allocated_bytes(), 0u);
}

TEST(Loader, RejectsBadImages) {
  BuddyAllocator phys(4ULL << 30, 1ULL << 30);
  Loader loader(phys);

  auto bad_magic = small_image();
  bad_magic.header.magic = 0xdeadbeef;
  EXPECT_THROW(loader.load(bad_magic), LoaderError);

  auto not_pie = small_image();
  not_pie.position_independent = false;
  EXPECT_THROW(loader.load(not_pie), LoaderError);

  auto dynamic = small_image();
  dynamic.statically_linked = false;
  EXPECT_THROW(loader.load(dynamic), LoaderError);

  auto bad_entry = small_image();
  bad_entry.header.entry_offset = bad_entry.text_bytes + 1;
  EXPECT_THROW(loader.load(bad_entry), LoaderError);
}

TEST(BootLayout, GigabyteStaticsOverlapMmio) {
  const auto m = hw::phi();
  BootImage ok;
  ok.kernel_bytes = 48ULL << 20;
  ok.app_static_bytes = 420ULL << 20;  // class B statics
  EXPECT_TRUE(BootLayout::fits(m, ok));
  EXPECT_NO_THROW(BootLayout::check(m, ok));

  BootImage class_c = ok;
  class_c.app_static_bytes = 3400ULL << 20;  // class-C gigabyte globals
  EXPECT_FALSE(BootLayout::fits(m, class_c));
  EXPECT_THROW(BootLayout::check(m, class_c), BootOverlapError);
}

// --------------------------------------------------------------- tls

TEST(Tls, BlocksAndFsbaseSwitches) {
  BuddyAllocator phys(1ULL << 30, 1ULL << 30);
  TlsSupport tls(phys);
  TlsTemplate tmpl{4096, 8192};
  const auto b1 = tls.create_block(tmpl);
  const auto b2 = tls.create_block(tmpl);
  EXPECT_NE(b1, 0u);
  EXPECT_NE(b1, b2);
  tls.set_fsbase(1, b1);
  tls.set_fsbase(2, b2);
  EXPECT_EQ(tls.fsbase(1), b1);
  EXPECT_EQ(tls.fsbase(2), b2);
  tls.destroy_block(b1);
  tls.destroy_block(b2);
  EXPECT_EQ(phys.allocated_bytes(), 0u);
}

TEST(Tls, EmptyTemplateNeedsNoBlock) {
  BuddyAllocator phys(1ULL << 30, 1ULL << 30);
  TlsSupport tls(phys);
  EXPECT_EQ(tls.create_block(TlsTemplate{}), 0u);
}

// ------------------------------------------------------------- shell

TEST(Shell, RegisterAndRunCommand) {
  sim::Engine eng(4);
  NautilusKernel nk(eng, hw::phi());
  std::vector<std::string> seen_args;
  nk.register_shell_command("nas-bt", [&](const std::vector<std::string>& a) {
    seen_args = a;
    return 7;
  });
  EXPECT_TRUE(nk.has_shell_command("nas-bt"));
  EXPECT_FALSE(nk.has_shell_command("nope"));
  EXPECT_EQ(nk.run_shell_command("nas-bt", {"B", "64"}), 7);
  EXPECT_EQ(seen_args, (std::vector<std::string>{"B", "64"}));
  EXPECT_THROW(nk.run_shell_command("nope"), std::invalid_argument);
}

// --------------------------------------------------------- placement

TEST(Placement, ImmediateAllocationLandsInOneZone) {
  sim::Engine eng(5);
  NautilusKernel nk(eng, hw::xeon8());
  hw::MemRegion* r = nullptr;
  nk.spawn_thread(
      "t",
      [&] {
        r = nk.alloc_region("arr", 1ULL << 30, osal::AllocPolicy::local());
      },
      /*cpu=*/30);  // socket 1
  eng.run();
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->is_sliced());
  EXPECT_EQ(r->home_zone(), 1);
  EXPECT_EQ(r->page_size(), hw::PageSize::k1G);
  EXPECT_FALSE(r->demand_paged());
}

TEST(Placement, FirstTouchExtensionDefersAt2M) {
  sim::Engine eng(6);
  NautilusConfig cfg;
  cfg.first_touch_at_2mb = true;
  NautilusKernel nk(eng, hw::xeon8(), cfg);
  hw::MemRegion* r = nullptr;
  nk.spawn_thread(
      "t",
      [&] {
        r = nk.alloc_region("arr", 1ULL << 30, osal::AllocPolicy::local());
      },
      0);
  eng.run();
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->is_sliced());
  EXPECT_EQ(r->page_size(), hw::PageSize::k2M);
}

}  // namespace
}  // namespace kop::nautilus
