// Off-processor accounting closed forms (comm/detail.hpp).
//
// cshift_offproc and eoshift_offproc count the positions a regular shift
// takes from another owner without visiting the positions. Their contract is
// the element-sweep definition: position j counts when its owner differs
// from the owner of the element it receives (end-off boundary fills are
// local). These tests pin the closed forms to that sweep over every shift
// of every extent up to 300 on 1..17 processors, under both distributions.

#include <gtest/gtest.h>

#include <algorithm>

#include "comm/detail.hpp"
#include "core/layout.hpp"

namespace dpf {
namespace {

constexpr index_t kMaxN = 300;
constexpr int kMaxP = 17;
constexpr index_t kSlotBytes = 24;

// Reference element sweep: positions j in [0,n) whose owner over p
// processors differs from the owner of perm(j).
template <typename PermFn>
index_t moved_slots(index_t n, PermFn&& perm, Dist d, int p) {
  if (p <= 1 || n == 0) return 0;
  index_t moved = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t k = perm(j);
    if (owner_of(n, p, j, d) != owner_of(n, p, k, d)) ++moved;
  }
  return moved;
}

TEST(OffprocClosedForm, CShiftMatchesElementSweep) {
  index_t cases = 0;
  for (Dist d : {Dist::Block, Dist::Cyclic}) {
    for (int p = 1; p <= kMaxP; ++p) {
      for (index_t n = 0; n <= kMaxN; ++n) {
        for (index_t sh = 0; sh < std::max<index_t>(n, 1); ++sh) {
          ++cases;
          const index_t want =
              moved_slots(n, [&](index_t j) { return (j + sh) % n; }, d, p);
          const index_t got =
              comm::detail::cshift_offproc(n, p, sh, d, kSlotBytes);
          if (got != want * kSlotBytes) {
            FAIL() << "cshift dist=" << static_cast<int>(d) << " p=" << p
                   << " n=" << n << " sh=" << sh << ": closed form " << got
                   << " != sweep " << want * kSlotBytes;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * kMaxP * (kMaxN * (kMaxN + 1) / 2 + 1));
}

TEST(OffprocClosedForm, EOShiftMatchesElementSweep) {
  index_t cases = 0;
  for (Dist d : {Dist::Block, Dist::Cyclic}) {
    for (int p = 1; p <= kMaxP; ++p) {
      for (index_t n = 0; n <= kMaxN; ++n) {
        for (index_t s = -n - 2; s <= n + 2; ++s) {
          ++cases;
          const index_t want = moved_slots(
              n,
              [&](index_t j) {
                const index_t jj = j + s;
                return (jj >= 0 && jj < n) ? jj : j;
              },
              d, p);
          const index_t got =
              comm::detail::eoshift_offproc(n, p, s, d, kSlotBytes);
          if (got != want * kSlotBytes) {
            FAIL() << "eoshift dist=" << static_cast<int>(d) << " p=" << p
                   << " n=" << n << " s=" << s << ": closed form " << got
                   << " != sweep " << want * kSlotBytes;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * kMaxP * ((kMaxN + 1) * (kMaxN + 5)));
}

}  // namespace
}  // namespace dpf
