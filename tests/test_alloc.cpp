/// \file test_alloc.cpp
/// Allocation bound on the classify and simulate layers.  A steady-state
/// job — one election scratch warmed by earlier jobs, a configuration that
/// already exists — makes a number of heap allocations that does not grow
/// with n: the classifier keeps each iteration's labels in a flat
/// LabelTable and refines through one open-addressing array; the canonical
/// programs are pooled in the simulator scratch and overwritten in place,
/// and match their observed labels against the schedule in the history
/// without building them; the fast path keeps every node's sparse history
/// in one arena.  One bound holds at every n, so an allocation per node or
/// per label anywhere in classify, compile or simulate fails the test.
/// Counted with a replacing global operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/protocol.hpp"
#include "engine/workload.hpp"

namespace {

std::atomic<std::uint64_t> allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* block) noexcept { std::free(block); }

void operator delete[](void* block) noexcept { std::free(block); }

void operator delete(void* block, std::size_t) noexcept { std::free(block); }

void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace {

using namespace arl;

/// Allocations made by one run_protocol call.
std::uint64_t allocations_of(const config::Configuration& configuration,
                             const core::ProtocolSpec& protocol,
                             const core::ElectionOptions& options,
                             core::ElectionScratch& scratch) {
  const std::uint64_t before = allocations.load(std::memory_order_relaxed);
  const core::ElectionReport report = core::run_protocol(configuration, protocol, options, scratch);
  const std::uint64_t made = allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(report.valid) << protocol.name();
  return made;
}

TEST(Allocations, ClassifyAndSimulateMakeABoundedNumberPerJob) {
  constexpr std::uint64_t kCanonicalBound = 32;
  constexpr std::uint64_t kClassifyBound = 16;
  constexpr engine::JobId kWarmup = 8;
  constexpr engine::JobId kCounted = 8;
  const core::ProtocolSpec canonical = core::ProtocolSpec::canonical();
  const core::ProtocolSpec classify = core::ProtocolSpec::classify_only();

  // The options the batch engine runs a job with: the event-driven
  // simulator, result histories skipped.
  core::ElectionOptions options;
  options.simulator.engine = radio::SimulatorEngine::Event;
  options.simulator.keep_histories = false;

  for (const char* text : {"random:n=64,p=0.1,sigma=16", "random:n=256,p=0.03,sigma=200",
                           "random:n=1024,p=0.01,sigma=200"}) {
    const engine::CountedSweep sweep = engine::parse_workload(text).instantiate(
        /*seed=*/3, {canonical}, {.count = kWarmup + kCounted});
    core::ElectionScratch scratch;
    for (engine::JobId id = 0; id < kWarmup; ++id) {
      const config::Configuration configuration = sweep.source(id).configuration;
      (void)core::run_protocol(configuration, canonical, options, scratch);
      (void)core::run_protocol(configuration, classify, options, scratch);
    }
    for (engine::JobId id = kWarmup; id < sweep.count; ++id) {
      const config::Configuration configuration = sweep.source(id).configuration;
      const std::string what = std::string(text) + " #" + std::to_string(id);
      EXPECT_LE(allocations_of(configuration, canonical, options, scratch), kCanonicalBound)
          << what << " canonical";
      EXPECT_LE(allocations_of(configuration, classify, options, scratch), kClassifyBound)
          << what << " classify";
    }
  }
}

}  // namespace
