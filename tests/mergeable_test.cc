// Tests for the first-seen key dictionary (stats/mergeable.h): for every
// accumulator built on FirstSeenMap, folding chunk partials in chunk
// order must equal one sequential pass over the whole stream (same keys,
// same order, same payloads), wherever the chunk boundaries fall.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "stats/kll.h"
#include "stats/mergeable.h"
#include "stats/rng.h"

namespace fairlaw {
namespace {

using stats::Rng;

/// One stream element; each accumulator reads the fields it keys on.
struct Event {
  std::string key;
  std::string group;
  double value = 0.0;
  uint8_t tag = 0;
};

void Apply(const Event& event, stats::GroupCountsAccumulator* map) {
  (*map)[event.key] +=
      stats::GroupCounts::Row(event.tag, event.value < 0.5 ? 1 : 0);
}

void Apply(const Event& event, stats::StratifiedCountsAccumulator* map) {
  (*map)[event.key][event.group] += stats::GroupCounts::Row(event.tag);
}

void Apply(const Event& event, stats::GroupedSeries* map) {
  (*map)[event.key].Append(event.value, event.tag);
}

void Apply(const Event& event, stats::GroupedSketches* map) {
  (*map)[event.key].Add(event.value);
}

/// Keys drawn with skew so later keys first appear mid-stream, often
/// inside a later chunk than the one that starts the stream.
std::vector<Event> RandomStream(Rng* rng, size_t n) {
  std::vector<Event> events(n);
  for (Event& event : events) {
    const uint64_t k = rng->UniformInt(1 + rng->UniformInt(8));
    event.key = "k" + std::to_string(k);
    event.group = "g" + std::to_string(rng->UniformInt(3));
    event.value = rng->Uniform();
    event.tag = rng->Bernoulli(0.4) ? 1 : 0;
  }
  return events;
}

template <typename Map>
class FirstSeenMapTest : public ::testing::Test {};

using Accumulators =
    ::testing::Types<stats::GroupCountsAccumulator,
                     stats::StratifiedCountsAccumulator, stats::GroupedSeries,
                     stats::GroupedSketches>;
TYPED_TEST_SUITE(FirstSeenMapTest, Accumulators);

// Streams stay well under the KLL level-0 capacity, so no sketch
// compacts and the chunk merge must reproduce the sequential adds
// member for member; compacting merges are pinned in kll_test.
TYPED_TEST(FirstSeenMapTest, ChunkOrderMergeEqualsOneSequentialPass) {
  Rng rng(53);
  for (int trial = 0; trial < 25; ++trial) {
    const std::vector<Event> events =
        RandomStream(&rng, 1 + static_cast<size_t>(rng.UniformInt(300)));
    TypeParam sequential;
    for (const Event& event : events) Apply(event, &sequential);

    // Random cut points, repeats allowed: empty chunks must merge as
    // no-ops.
    TypeParam merged;
    size_t begin = 0;
    while (begin < events.size()) {
      const size_t end = begin + static_cast<size_t>(rng.UniformInt(
                                     events.size() - begin + 1));
      TypeParam partial;
      for (size_t i = begin; i < end; ++i) Apply(events[i], &partial);
      merged.MergeFrom(partial);
      begin = end;
    }

    EXPECT_EQ(merged.keys(), sequential.keys()) << "trial " << trial;
    EXPECT_TRUE(merged == sequential) << "trial " << trial;
    for (size_t i = 0; i < merged.num_keys(); ++i) {
      EXPECT_EQ(merged.FindKey(merged.keys()[i]), i);
    }
    EXPECT_EQ(merged.FindKey("absent"), merged.num_keys());
    EXPECT_EQ(merged.FindKey("k"), merged.num_keys());
  }
}

TEST(GroupCountsTest, RowTalliesOneRowsPredictionAndLabel) {
  using stats::GroupCounts;
  EXPECT_EQ(GroupCounts::Row(1, 1), (GroupCounts{1, 1, 1, 1}));
  EXPECT_EQ(GroupCounts::Row(1, 0), (GroupCounts{1, 1, 0, 0}));
  EXPECT_EQ(GroupCounts::Row(0, 1), (GroupCounts{1, 0, 1, 0}));
  EXPECT_EQ(GroupCounts::Row(0, 0), (GroupCounts{1, 0, 0, 0}));
  // No label: only the row and its prediction count.
  EXPECT_EQ(GroupCounts::Row(1), (GroupCounts{1, 1, 0, 0}));
}

TEST(GroupedSketchesTest, KeysKeepFirstSeenOrderAndMergeInKeyOrder) {
  stats::GroupedSketches a;
  a["beta"].Add(1.0);
  a["alpha"].Add(2.0);
  a["beta"].Add(3.0);

  stats::GroupedSketches b;
  b["gamma"].Add(4.0);
  b["alpha"].Add(5.0);

  a.MergeFrom(b);
  ASSERT_EQ(a.num_keys(), 3u);
  EXPECT_EQ(a.keys()[0], "beta");
  EXPECT_EQ(a.keys()[1], "alpha");
  EXPECT_EQ(a.keys()[2], "gamma");
  EXPECT_EQ(a.sketch(0).count(), 2u);
  EXPECT_EQ(a.sketch(1).count(), 2u);
  EXPECT_EQ(a.sketch(2).count(), 1u);

  EXPECT_EQ(a.FindKey("gamma"), 2u);
  EXPECT_EQ(a.FindKey("missing"), a.num_keys());
}

// New slots copy the prototype, which is how a sketch map carries its
// options to every key, including keys that arrive through a merge.
TEST(GroupedSketchesTest, NewKeysCopyThePrototypeOptions) {
  stats::KllSketch::Options options;
  options.k = 24;
  stats::GroupedSketches a(options);
  stats::GroupedSketches b(options);
  b["late"].Add(1.0);
  a.MergeFrom(b);
  a["early"].Add(2.0);
  stats::KllSketch expected(options);
  expected.Add(2.0);
  EXPECT_EQ(a.sketch(a.FindKey("early")), expected);
  EXPECT_EQ(a.prototype(), stats::KllSketch(options));
  EXPECT_EQ(a.sketch(0), b.sketch(0));
}

}  // namespace
}  // namespace fairlaw
