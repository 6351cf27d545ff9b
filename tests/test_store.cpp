/// \file test_store.cpp
/// The persistent artifact store's contract: entries round-trip through the
/// on-disk text format bit-exactly (classification and schedule alike);
/// every corruption — truncation, flipped bytes, swapped files, partial tmp
/// residue — reads as a *miss*, never as a wrong artifact; crash-safe
/// writes leave no partial entry visible; and store-on, store-off and
/// store-warm batch runs are bit-identical job for job.  Plus the tiered
/// cache's promote/write-through plumbing and the classification text
/// format itself.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/families.hpp"
#include "config/fingerprint.hpp"
#include "config/io.hpp"
#include "core/classifier.hpp"
#include "core/protocol.hpp"
#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "store/artifact_store.hpp"
#include "store/tiered_cache.hpp"
#include "support/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>
#endif

namespace {

using namespace arl;

// ---------------------------------------------------- classification format

TEST(ClassificationIo, FeasibleRunRoundTrips) {
  const config::Configuration c = config::family_g(2);
  const core::ClassifierResult result = core::Classifier().run(c);
  ASSERT_TRUE(result.feasible());

  const std::string text = core::classification_to_text_string(result);
  const core::ClassifierResult back = core::classification_from_text_string(text);
  EXPECT_EQ(back, result);
  EXPECT_EQ(core::classification_fingerprint(back), core::classification_fingerprint(result));
  // Idempotent: re-serializing the parse reproduces the bytes.
  EXPECT_EQ(core::classification_to_text_string(back), text);
}

TEST(ClassificationIo, InfeasibleRunRoundTrips) {
  const config::Configuration c = config::family_s(2);
  const core::ClassifierResult result = core::Classifier().run(c);
  ASSERT_FALSE(result.feasible());

  const core::ClassifierResult back =
      core::classification_from_text_string(core::classification_to_text_string(result));
  EXPECT_EQ(back, result);
}

TEST(ClassificationIo, NoCollisionDetectionModelRoundTrips) {
  const config::Configuration c = config::family_h(2);
  const core::ClassifierResult result =
      core::Classifier(radio::ChannelModel::NoCollisionDetection).run(c);
  const core::ClassifierResult back =
      core::classification_from_text_string(core::classification_to_text_string(result));
  EXPECT_EQ(back, result);
  EXPECT_EQ(back.model, radio::ChannelModel::NoCollisionDetection);
}

TEST(ClassificationIo, MalformedTextIsRejected) {
  const config::Configuration c = config::family_h(1);
  const std::string good = core::classification_to_text_string(core::Classifier().run(c));

  const std::vector<std::string> bad = {
      "",
      "arl-classification v2\n",
      good.substr(0, good.size() / 2),                 // truncated mid-record
      "arl-classification v1\nmodel maybe\n",          // unknown model
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)core::classification_from_text_string(text), support::ContractViolation)
        << "accepted: " << text.substr(0, 40);
  }
}

TEST(ClassificationIo, FingerprintSeparatesVerdictAndModel) {
  const config::Configuration feasible = config::family_h(2);
  const config::Configuration infeasible = config::family_s(2);
  const auto cd = core::Classifier().run(feasible);
  const auto nocd = core::Classifier(radio::ChannelModel::NoCollisionDetection).run(feasible);
  const auto inf = core::Classifier().run(infeasible);
  EXPECT_NE(core::classification_fingerprint(cd), core::classification_fingerprint(nocd));
  EXPECT_NE(core::classification_fingerprint(cd), core::classification_fingerprint(inf));
}

// ------------------------------------------------------------- store fixture

#if defined(__unix__) || defined(__APPLE__)

/// A private temp directory for one test's store, removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char pattern[] = "/tmp/arl-store-test-XXXXXX";
    ASSERT_NE(::mkdtemp(pattern), nullptr);
    dir_ = pattern;
  }

  void TearDown() override {
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          (void)::unlink((dir_ + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

  /// Entries currently visible to a load (final names, not tmp files).
  [[nodiscard]] std::vector<std::string> entry_files() const {
    std::vector<std::string> entries;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() > 4 && name.substr(name.size() - 4) == ".arl") {
          entries.push_back(name);
        }
      }
      ::closedir(d);
    }
    return entries;
  }

  /// Any tmp residue (there must never be any after a completed save).
  [[nodiscard]] std::vector<std::string> tmp_files() const {
    std::vector<std::string> leftovers;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.find(".tmp") != std::string::npos) {
          leftovers.push_back(name);
        }
      }
      ::closedir(d);
    }
    return leftovers;
  }

  std::string dir_;
};

/// A fully compiled entry (classification + schedule) for a configuration.
core::CompiledConfiguration compile(const config::Configuration& c,
                                    radio::ChannelModel model, bool with_schedule) {
  core::CompiledConfiguration compiled;
  compiled.classification = core::Classifier(model).run(c);
  if (with_schedule && compiled.classification.feasible()) {
    compiled.schedule = std::make_shared<const core::CanonicalSchedule>(
        core::build_schedule(c, compiled.classification));
  }
  return compiled;
}

TEST_F(StoreTest, ScheduleBearingEntryRoundTrips) {
  const config::Configuration c = config::family_g(2);
  const core::CompiledConfiguration compiled =
      compile(c, radio::ChannelModel::CollisionDetection, true);
  ASSERT_NE(compiled.schedule, nullptr);

  store::ArtifactStore writer(dir_);
  writer.save(c, radio::ChannelModel::CollisionDetection, false, compiled);
  EXPECT_EQ(writer.stats().saves, 1u);
  EXPECT_TRUE(tmp_files().empty());

  // A *fresh* handle (fresh process, as far as the store can tell) loads it.
  store::ArtifactStore reader(dir_);
  const auto loaded = reader.load(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->classification, compiled.classification);
  ASSERT_NE(loaded->schedule, nullptr);
  EXPECT_EQ(core::schedule_fingerprint(*loaded->schedule),
            core::schedule_fingerprint(*compiled.schedule));
  EXPECT_EQ(core::schedule_to_text_string(*loaded->schedule),
            core::schedule_to_text_string(*compiled.schedule));
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST_F(StoreTest, ClassificationOnlyEntryRoundTrips) {
  const config::Configuration c = config::family_s(3);  // infeasible: never a schedule
  const core::CompiledConfiguration compiled =
      compile(c, radio::ChannelModel::CollisionDetection, true);
  ASSERT_EQ(compiled.schedule, nullptr);

  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false, compiled);
  const auto loaded = store.load(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->classification, compiled.classification);
  EXPECT_EQ(loaded->schedule, nullptr);
}

TEST_F(StoreTest, KeySeparatesModelAndClassifierFlavor) {
  const config::Configuration c = config::family_h(2);
  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection, false));

  // Same configuration under the other model / the fast classifier: misses.
  EXPECT_EQ(store.load(c, radio::ChannelModel::NoCollisionDetection, false), nullptr);
  EXPECT_EQ(store.load(c, radio::ChannelModel::CollisionDetection, true), nullptr);
  EXPECT_EQ(store.stats().misses, 2u);
  EXPECT_EQ(store.stats().rejected, 0u);
}

TEST_F(StoreTest, AbsentEntryIsAMiss) {
  store::ArtifactStore store(dir_);
  EXPECT_EQ(store.load(config::family_h(1), radio::ChannelModel::CollisionDetection, false),
            nullptr);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().errors, 0u);
}

TEST_F(StoreTest, EveryTruncationReadsAsAMiss) {
  const config::Configuration c = config::family_g(2);
  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection, true));
  const std::string path = store.entry_path(c, radio::ChannelModel::CollisionDetection, false);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());

  // Truncate at a spread of byte counts, including 0 (empty file) and a cut
  // right before the end line; every one must reject, never crash, never
  // return an artifact.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 4, bytes.size() / 2,
        bytes.size() - 20, bytes.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    store::ArtifactStore reader(dir_);
    EXPECT_EQ(reader.load(c, radio::ChannelModel::CollisionDetection, false), nullptr)
        << "accepted a file truncated to " << keep << " bytes";
    EXPECT_EQ(reader.stats().rejected, 1u) << keep;
  }
}

TEST_F(StoreTest, EveryFlippedByteReadsAsAMiss) {
  const config::Configuration c = config::family_h(3);
  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection, true));
  const std::string path = store.entry_path(c, radio::ChannelModel::CollisionDetection, false);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_FALSE(bytes.empty());

  // Flip one bit at a stride of positions across the whole file — header,
  // config section, classification, schedule, end digest alike.
  for (std::size_t position = 0; position < bytes.size(); position += 7) {
    std::string corrupt = bytes;
    corrupt[position] = static_cast<char>(corrupt[position] ^ 0x20);
    if (corrupt == bytes) {
      continue;
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    store::ArtifactStore reader(dir_);
    EXPECT_EQ(reader.load(c, radio::ChannelModel::CollisionDetection, false), nullptr)
        << "accepted a byte flip at position " << position;
  }
}

TEST_F(StoreTest, SwappedEntryFilesReadAsMisses) {
  // Two valid entries renamed over each other: the embedded key/config
  // checks reject both (a digest-level collision degrades to a miss).
  const config::Configuration c1 = config::family_g(2);
  const config::Configuration c2 = config::family_h(2);
  store::ArtifactStore store(dir_);
  store.save(c1, radio::ChannelModel::CollisionDetection, false,
             compile(c1, radio::ChannelModel::CollisionDetection, true));
  store.save(c2, radio::ChannelModel::CollisionDetection, false,
             compile(c2, radio::ChannelModel::CollisionDetection, true));
  const std::string p1 = store.entry_path(c1, radio::ChannelModel::CollisionDetection, false);
  const std::string p2 = store.entry_path(c2, radio::ChannelModel::CollisionDetection, false);
  const std::string held = p1 + ".held";
  ASSERT_EQ(std::rename(p1.c_str(), held.c_str()), 0);
  ASSERT_EQ(std::rename(p2.c_str(), p1.c_str()), 0);
  ASSERT_EQ(std::rename(held.c_str(), p2.c_str()), 0);

  store::ArtifactStore reader(dir_);
  EXPECT_EQ(reader.load(c1, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(reader.load(c2, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(reader.stats().rejected, 2u);
}

TEST_F(StoreTest, TmpResidueIsInvisibleAndOverwritable) {
  // A crashed writer's half-written tmp file must not satisfy loads, and
  // must not block a later writer from landing the real entry.
  const config::Configuration c = config::family_h(2);
  store::ArtifactStore store(dir_);
  const std::string path = store.entry_path(c, radio::ChannelModel::CollisionDetection, false);
  {
    std::ofstream fake(path + ".tmp.999.0");
    fake << "arl-artifact 1\ngarbage";
  }
  EXPECT_EQ(store.load(c, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);

  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection, true));
  EXPECT_NE(store.load(c, radio::ChannelModel::CollisionDetection, false), nullptr);
}

TEST_F(StoreTest, ClassificationOnlySaveNeverDowngradesASchedule) {
  const config::Configuration c = config::family_g(2);
  const core::CompiledConfiguration full =
      compile(c, radio::ChannelModel::CollisionDetection, true);
  const core::CompiledConfiguration classify_only =
      compile(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(full.schedule, nullptr);
  ASSERT_EQ(classify_only.schedule, nullptr);

  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false, full);
  store.save(c, radio::ChannelModel::CollisionDetection, false, classify_only);
  EXPECT_EQ(store.stats().saves, 1u);
  EXPECT_EQ(store.stats().skipped, 1u);

  const auto loaded = store.load(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(loaded, nullptr);
  EXPECT_NE(loaded->schedule, nullptr) << "schedule-bearing entry was downgraded";
}

TEST_F(StoreTest, RacingSavesOfOneKeyNeverDowngradeASchedule) {
  // A classification-only save racing a schedule-bearing save of the same
  // key from another thread: on every interleaving the entry ends up
  // schedule-bearing.  A check-then-rename publish fails this when the
  // classification-only save passes its check before the schedule lands
  // and renames after it.
  const config::Configuration c = config::family_g(2);
  const radio::ChannelModel model = radio::ChannelModel::CollisionDetection;
  const core::CompiledConfiguration full = compile(c, model, true);
  const core::CompiledConfiguration classify_only = compile(c, model, false);
  ASSERT_NE(full.schedule, nullptr);

  store::ArtifactStore store(dir_);
  const std::string path = store.entry_path(c, model, false);
  for (int round = 0; round < 100; ++round) {
    (void)::unlink(path.c_str());
    std::atomic<int> ready{0};
    const auto save = [&](const core::CompiledConfiguration& compiled) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
        std::this_thread::yield();  // start both saves together
      }
      store.save(c, model, false, compiled);
    };
    std::thread classify(save, std::cref(classify_only));
    std::thread schedule(save, std::cref(full));
    classify.join();
    schedule.join();
    const auto loaded = store.load(c, model, false);
    ASSERT_NE(loaded, nullptr) << "round " << round;
    ASSERT_NE(loaded->schedule, nullptr) << "round " << round << ": the entry was downgraded";
  }
  EXPECT_TRUE(tmp_files().empty());
  EXPECT_EQ(store.stats().errors, 0u);
}

TEST_F(StoreTest, ScheduleBearingSaveUpgradesAClassificationOnlyEntry) {
  const config::Configuration c = config::family_g(2);
  store::ArtifactStore store(dir_);
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection, false));
  {
    const auto loaded = store.load(c, radio::ChannelModel::CollisionDetection, false);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->schedule, nullptr);
  }
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection, true));
  const auto upgraded = store.load(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(upgraded, nullptr);
  EXPECT_NE(upgraded->schedule, nullptr);
  EXPECT_EQ(store.stats().saves, 2u);
}

TEST_F(StoreTest, StatsSinceSubtractsCounters) {
  const config::Configuration c = config::family_h(1);
  store::ArtifactStore store(dir_);
  (void)store.load(c, radio::ChannelModel::CollisionDetection, false);
  const store::ArtifactStoreStats before = store.stats();
  store.save(c, radio::ChannelModel::CollisionDetection, false,
             compile(c, radio::ChannelModel::CollisionDetection, false));
  (void)store.load(c, radio::ChannelModel::CollisionDetection, false);
  const store::ArtifactStoreStats delta = store.stats().since(before);
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(delta.saves, 1u);
  EXPECT_EQ(delta.hits, 1u);
}

// --------------------------------------------------------------- tiered cache

TEST_F(StoreTest, TieredLookupPromotesDiskHitsIntoMemory) {
  const config::Configuration c = config::family_g(2);
  {
    store::ArtifactStore seed(dir_);
    seed.save(c, radio::ChannelModel::CollisionDetection, false,
              compile(c, radio::ChannelModel::CollisionDetection, true));
  }

  store::TieredScheduleCache tiered(dir_, 64);
  const auto first = tiered.lookup(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(tiered.artifacts().stats().hits, 1u);
  EXPECT_EQ(tiered.memory().stats().entries, 1u) << "disk hit was not promoted";

  // The second lookup is served from memory: disk counters do not move.
  const auto second = tiered.lookup(c, radio::ChannelModel::CollisionDetection, false);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(tiered.artifacts().stats().hits, 1u);
  EXPECT_EQ(second->classification, first->classification);
}

TEST_F(StoreTest, TieredStoreIsWriteThrough) {
  const config::Configuration c = config::family_h(2);
  store::TieredScheduleCache tiered(dir_, 64);
  (void)tiered.store(c, radio::ChannelModel::CollisionDetection, false,
                     compile(c, radio::ChannelModel::CollisionDetection, true));
  EXPECT_EQ(tiered.artifacts().stats().saves, 1u);

  // A brand-new tiered cache over the same directory (fresh process) finds
  // the entry on disk without any prior store() in its lifetime.
  store::TieredScheduleCache fresh(dir_, 64);
  EXPECT_NE(fresh.lookup(c, radio::ChannelModel::CollisionDetection, false), nullptr);
}

// ------------------------------------------------------------- batch parity

/// The parity workload: a seeded random sweep crossed with every registered
/// protocol (mirrors tests/test_schedule_cache.cpp).
engine::CountedSweep parity_sweep(std::size_t configurations) {
  const engine::WorkloadSpec workload = engine::WorkloadSpec::random(10, 0.3, 2);
  return workload.instantiate(4242, core::registered_protocols(), {.count = configurations});
}

TEST_F(StoreTest, StoreOnColdWarmAndOffBatchesAreBitIdentical) {
  const engine::CountedSweep sweep = parity_sweep(8);
  const engine::JobSource& source = sweep.source;
  const engine::JobId count = sweep.count;

  engine::BatchOptions no_store;
  no_store.threads = 2;
  no_store.seed = 99;
  no_store.cache_capacity = 64;
  engine::BatchRunner plain(no_store);
  const engine::BatchReport off = plain.run(count, source);
  EXPECT_FALSE(off.artifact_store.has_value());

  engine::BatchOptions with_store;
  with_store.threads = 2;
  with_store.seed = 99;
  with_store.cache_capacity = 64;
  with_store.store_directory = dir_;

  engine::BatchRunner cold_runner(with_store);
  const engine::BatchReport cold = cold_runner.run(count, source);
  ASSERT_TRUE(cold.artifact_store.has_value());
  EXPECT_GT(cold.artifact_store->saves, 0u);

  engine::BatchRunner warm_runner(with_store);
  const engine::BatchReport warm = warm_runner.run(count, source);
  ASSERT_TRUE(warm.artifact_store.has_value());
  EXPECT_GT(warm.artifact_store->hits, 0u);
  EXPECT_EQ(warm.artifact_store->saves, 0u) << "a warm run recompiled something";

  EXPECT_EQ(cold.jobs, off.jobs);
  EXPECT_EQ(warm.jobs, off.jobs);
  EXPECT_EQ(cold.by_protocol, off.by_protocol);
  EXPECT_EQ(warm.by_protocol, off.by_protocol);
  EXPECT_GT(off.valid_count, 0u);
}

TEST_F(StoreTest, CorruptedStoreStillYieldsBitIdenticalResults) {
  const engine::CountedSweep sweep = parity_sweep(4);
  const engine::JobSource& source = sweep.source;
  const engine::JobId count = sweep.count;

  engine::BatchOptions with_store;
  with_store.threads = 1;
  with_store.seed = 5;
  with_store.cache_capacity = 64;
  with_store.store_directory = dir_;

  engine::BatchRunner seed_runner(with_store);
  const engine::BatchReport reference = seed_runner.run(count, source);

  // Vandalize every entry file: truncate half of them, bit-flip the rest.
  const std::vector<std::string> entries = entry_files();
  ASSERT_FALSE(entries.empty());
  bool truncate = true;
  for (const std::string& name : entries) {
    const std::string path = dir_ + "/" + name;
    if (truncate) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << "arl-art";
    } else {
      std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
      out.seekp(10);
      out.put('~');
    }
    truncate = !truncate;
  }

  engine::BatchRunner rerun(with_store);
  const engine::BatchReport recovered = rerun.run(count, source);
  ASSERT_TRUE(recovered.artifact_store.has_value());
  EXPECT_GT(recovered.artifact_store->rejected, 0u);
  EXPECT_EQ(recovered.artifact_store->hits, 0u);
  EXPECT_EQ(recovered.jobs, reference.jobs);
  EXPECT_EQ(recovered.by_protocol, reference.by_protocol);

  // The recovery run re-saved clean entries; a final run is all hits again.
  engine::BatchRunner final_runner(with_store);
  const engine::BatchReport healed = final_runner.run(count, source);
  ASSERT_TRUE(healed.artifact_store.has_value());
  EXPECT_EQ(healed.artifact_store->rejected, 0u);
  EXPECT_GT(healed.artifact_store->hits, 0u);
  EXPECT_EQ(healed.jobs, reference.jobs);
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
