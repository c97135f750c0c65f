// The scatter benchmark's O(n) result check against the quadratic rescan it
// replaced: both must count exactly the same lost writes on the default
// map, on a collision-heavy map, and on a result with one corrupted slot.

#include <gtest/gtest.h>

#include <vector>

#include "comm/comm.hpp"
#include "core/ops.hpp"
#include "core/rng.hpp"
#include "suite/comm/scatter_check.hpp"

namespace dpf {
namespace {

/// The original check: for every write whose value is not at its target,
/// rescan the later writes for one to the same target that explains it.
double reference_lost_writes(const Array1<double>& dst,
                             const Array1<double>& src,
                             const Array1<index_t>& map) {
  const index_t n = src.size();
  double bad = 0;
  for (index_t i = 0; i < n; ++i) {
    if (dst[map[i]] != src[i]) {
      bool found = false;
      for (index_t j = i + 1; j < n && !found; ++j) {
        if (map[j] == map[i] && dst[map[i]] == src[j]) found = true;
      }
      if (!found) bad += 1;
    }
  }
  return bad;
}

double fast_lost_writes(const Array1<double>& dst, const Array1<double>& src,
                        const Array1<index_t>& map) {
  return static_cast<double>(
      suite::lost_scatter_writes(dst.data(), src.data(), map.data()));
}

/// The scatter benchmark's inputs: src[i] = 2i and n targets drawn from
/// `slots` slots of an n-element destination.
struct ScatterCase {
  Array1<double> src;
  Array1<double> dst;
  Array1<index_t> map;
};

ScatterCase scatter_case(index_t n, index_t slots, std::uint64_t seed) {
  ScatterCase c{make_vector<double>(n), make_vector<double>(n),
                Array1<index_t>(Shape<1>(n), Layout<1>(AxisKind::Parallel),
                                MemKind::User)};
  assign(c.src, 0, [](index_t i) { return static_cast<double>(2 * i); });
  const Rng rng(seed);
  assign(c.map, 0, [&](index_t i) {
    return static_cast<index_t>(
        rng.below(static_cast<std::uint64_t>(i), slots));
  });
  comm::scatter_into(c.dst, c.src, c.map);
  return c;
}

TEST(ScatterCheckTest, MatchesReferenceOnDefaultMap) {
  // n and seed of the registered scatter benchmark's defaults.
  const ScatterCase c = scatter_case(1 << 14, 1 << 14, 0x51c2);
  EXPECT_EQ(0.0, reference_lost_writes(c.dst, c.src, c.map));
  EXPECT_EQ(0.0, fast_lost_writes(c.dst, c.src, c.map));
}

TEST(ScatterCheckTest, MatchesReferenceOnCollisionHeavyMap) {
  const index_t n = 1 << 14;
  ScatterCase c = scatter_case(n, n / 8, 0x51c2);
  EXPECT_EQ(0.0, reference_lost_writes(c.dst, c.src, c.map));
  EXPECT_EQ(0.0, fast_lost_writes(c.dst, c.src, c.map));

  // Overwrite every hit slot with its *first* writer's value: each target's
  // writers after the first are then unexplained, in both checks alike.
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (index_t i = 0; i < n; ++i) {
    const auto t = static_cast<std::size_t>(c.map[i]);
    if (!seen[t]) c.dst[c.map[i]] = c.src[i];
    seen[t] = true;
  }
  const double ref = reference_lost_writes(c.dst, c.src, c.map);
  EXPECT_GT(ref, 0.0);
  EXPECT_EQ(ref, fast_lost_writes(c.dst, c.src, c.map));
}

TEST(ScatterCheckTest, OneCorruptedSlotCountsOnce) {
  const index_t n = 1 << 14;
  ScatterCase c = scatter_case(n, n, 0x51c2);
  // Corrupt the target of a write that no other write shares, with a value
  // no write produced (every src value is even).
  std::vector<int> writers(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) ++writers[static_cast<std::size_t>(c.map[i])];
  index_t victim = -1;
  for (index_t i = 0; i < n && victim < 0; ++i) {
    if (writers[static_cast<std::size_t>(c.map[i])] == 1) victim = i;
  }
  ASSERT_GE(victim, 0);
  c.dst[c.map[victim]] = 1.0;
  EXPECT_EQ(1.0, reference_lost_writes(c.dst, c.src, c.map));
  EXPECT_EQ(1.0, fast_lost_writes(c.dst, c.src, c.map));
}

}  // namespace
}  // namespace dpf
