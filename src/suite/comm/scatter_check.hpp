#pragma once

/// \file scatter_check.hpp
/// The scatter benchmark's result check, exposed so tests can pin it
/// against the quadratic reference it replaced.

#include <span>
#include <vector>

#include "core/types.hpp"

namespace dpf::suite {

/// Counts the writes of a scatter dst[map[i]] = src[i] (i in [0, n)) that
/// the result does not account for. Write i is accounted for when
/// dst[map[i]] equals src[i], or equals src[j] for some later writer j > i
/// to the same target — under collisions the last writer wins, so an
/// overwritten value is fine as long as a later write explains what is
/// there.
///
/// One reverse pass: walking i downwards, `explained[t]` records whether
/// any writer j >= i to target t wrote the value dst[t] holds. O(n) time
/// plus one flag per target.
[[nodiscard]] inline index_t lost_scatter_writes(std::span<const double> dst,
                                                 std::span<const double> src,
                                                 std::span<const index_t> map) {
  std::vector<char> explained(dst.size(), 0);
  index_t lost = 0;
  for (std::size_t i = src.size(); i-- > 0;) {
    const auto t = static_cast<std::size_t>(map[i]);
    if (dst[t] == src[i]) explained[t] = 1;
    if (explained[t] == 0) ++lost;
  }
  return lost;
}

}  // namespace dpf::suite
