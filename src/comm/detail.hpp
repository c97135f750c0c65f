#pragma once

/// \file detail.hpp
/// Shared helpers for the collective-communication library: ownership
/// classification of data movement under the block distribution of an
/// array's distributed axis.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>

#include "core/array.hpp"
#include "core/comm_log.hpp"
#include "core/machine.hpp"
#include "net/collectives.hpp"
#include "net/net.hpp"

namespace dpf::comm::detail {

/// Wall-clock timer for one collective operation; feeds the measured
/// `seconds` field of the recorded CommEvent. Every recording primitive
/// constructs one at its top, so the embedded RecordScope marks the
/// primitive's dynamic extent: collectives a primitive calls internally
/// (the DPF_NET=algorithmic realizations) see themselves nested and their
/// events are dropped in favour of the outermost pattern.
class OpTimer {
 public:
  OpTimer() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  CommLog::RecordScope scope_;
  std::chrono::steady_clock::time_point t0_;
};

/// FNV-1a key accumulator for the off-processor-byte memo caches below.
struct KeyHash {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  /// Folds in everything ownership classification of `a` depends on: rank,
  /// per-axis extents, per-axis processor counts under p VPs, and the
  /// distribution kind. Two arrays with equal folds place every linear
  /// index on the same owner.
  template <typename T, std::size_t R>
  void mix_owner_structure(const Array<T, R>& a, int p) {
    mix(R);
    mix(static_cast<std::uint64_t>(static_cast<int>(a.layout().dist())));
    for (std::size_t ax = 0; ax < R; ++ax) {
      mix(static_cast<std::uint64_t>(a.extent(ax)));
      mix(static_cast<std::uint64_t>(a.layout().procs_on_axis(ax, p)));
    }
  }
};

/// Direct-mapped thread-local memo for off-processor byte scans. The scans
/// are pure functions of the arrays' ownership structure (plus, for
/// irregular maps, the map contents), and the suite's apps re-issue the
/// same operation shape every iteration — so each scan runs once per shape
/// instead of once per call. Record-side only (control thread).
struct OffprocCache {
  struct Entry {
    std::uint64_t key = 0;
    index_t value = -1;
  };
  static constexpr std::size_t kSlots = 16;
  std::array<Entry, kSlots> slots{};

  [[nodiscard]] bool get(std::uint64_t k, index_t& out) const {
    const Entry& e = slots[k % kSlots];
    if (e.value >= 0 && e.key == k) {
      out = e.value;
      return true;
    }
    return false;
  }
  void put(std::uint64_t k, index_t v) { slots[k % kSlots] = {k, v}; }
};

/// True when two arrays share one backing store (full aliasing — the
/// in-place case the payload-once accounting rule covers).
template <typename T, std::size_t R>
[[nodiscard]] bool same_store(const Array<T, R>& a, const Array<T, R>& b) {
  return a.data().data() == b.data().data();
}

/// Number of positions j in [0,n) whose BLOCK owner over p processors is
/// also the owner of j + k (k >= 0): the overlap |B_q ∩ (B_q - k)| summed
/// over the p blocks, i.e. each block keeps max(0, size - k) of its slots.
[[nodiscard]] inline index_t block_stay(index_t n, int p, index_t k) {
  index_t stay = 0;
  for (int q = 0; q < p; ++q) {
    stay += std::max<index_t>(0, block_of(n, p, q).size() - k);
  }
  return stay;
}

/// Off-processor bytes of a circular shift by `sh` in [0,n) along an axis
/// of extent n distributed over p processors: the number of positions j
/// whose owner differs from the owner of (j + sh) mod n, times `slot_bytes`.
/// Closed form of that element count — O(1) for CYCLIC, O(p) for BLOCK,
/// where the shift splits into the unwrapped piece (offset sh) and the
/// wrapped piece (offset n - sh).
[[nodiscard]] inline index_t cshift_offproc(index_t n, int p, index_t sh,
                                            Dist d, index_t slot_bytes) {
  if (p <= 1 || n == 0 || sh == 0) return 0;
  index_t moved = 0;
  if (d == Dist::Cyclic) {
    moved = (sh % p != 0 ? n - sh : 0) + ((sh - n) % p != 0 ? sh : 0);
  } else {
    moved = n - block_stay(n, p, sh) - block_stay(n, p, n - sh);
  }
  return moved * slot_bytes;
}

/// Off-processor bytes of an end-off shift by `s` (any sign) along an axis
/// of extent n over p processors: positions j whose source j + s is in
/// [0,n) and owned elsewhere, times `slot_bytes`. Boundary fills are local.
[[nodiscard]] inline index_t eoshift_offproc(index_t n, int p, index_t s,
                                             Dist d, index_t slot_bytes) {
  if (p <= 1 || n == 0 || s == 0) return 0;
  // Positions with an in-range source: [max(0,-s), min(n,n-s)).
  const index_t valid = std::max<index_t>(
      0, std::min(n, n - s) - std::max<index_t>(0, -s));
  index_t moved = 0;
  if (d == Dist::Cyclic) {
    moved = s % p != 0 ? valid : 0;
  } else {
    moved = valid - block_stay(n, p, s < 0 ? -s : s);
  }
  return moved * slot_bytes;
}

/// Encoded owner id of the element at `coord` of array `a`, combining the
/// per-axis owners of every distributed axis (explicit grid when set, the
/// outermost-parallel-axis fold otherwise).
template <typename T, std::size_t R>
[[nodiscard]] int owner_id(const Array<T, R>& a,
                           const std::array<index_t, R>& coord) {
  const int p = Machine::instance().vps();
  if (p <= 1) return 0;
  const auto& layout = a.layout();
  int id = 0;
  for (std::size_t ax = 0; ax < R; ++ax) {
    const int g = layout.procs_on_axis(ax, p);
    if (g <= 1) continue;
    id = id * g + owner_of(a.extent(ax), g, coord[ax], layout.dist());
  }
  return id;
}

/// Encoded owner id of linear element i of array a.
template <typename T, std::size_t R>
[[nodiscard]] int owner_id_linear(const Array<T, R>& a, index_t i) {
  const auto strides = a.shape().strides();
  std::array<index_t, R> coord{};
  for (std::size_t ax = 0; ax < R; ++ax) {
    coord[ax] = (i / strides[ax]) % a.extent(ax);
  }
  return owner_id(a, coord);
}

/// Owner of position i on the distributed axis of extent n; 0 if n == 0.
[[nodiscard]] inline int owner(index_t n, index_t i, Dist d = Dist::Block) {
  const int p = Machine::instance().vps();
  return (p <= 1 || n == 0) ? 0 : owner_of(n, p, i, d);
}

/// Bytes per distributed-axis slot of an array: total bytes / extent of the
/// distributed axis (or all bytes when the array has no parallel axis).
template <typename T, std::size_t R>
[[nodiscard]] index_t slot_bytes(const Array<T, R>& a) {
  const index_t d = a.distributed_extent();
  return d > 0 ? a.bytes() / d : 0;
}

/// Routes per-VP reduction/scan partials through the transport allgather
/// when the algorithmic formulation is selected. The gathered copies are
/// bit-exact, so the caller's ascending combine loop — and therefore the
/// floating-point result — is unchanged.
template <typename T>
void share_partials(std::vector<T>& partial) {
  if (partial.size() <= 1) return;
  const net::ScopedMode tuned(net::mode_for(
      CommPattern::Reduction,
      static_cast<std::uint64_t>(partial.size() * sizeof(T))));
  if (net::algorithmic()) {
    net::allgather_slots(partial);
  }
}

/// Records one event on the global log, annotated with the fat-tree hop
/// count and (when the cost model is calibrated) the predicted time.
/// `bytes` follows the payload-once rule (see CommEvent): the logical
/// payload is counted exactly once regardless of aliasing or staging.
inline void record(CommPattern pattern, int src_rank, int dst_rank,
                   index_t bytes, index_t offproc_bytes, index_t detail = 0,
                   double seconds = 0.0) {
  CommEvent e{pattern, src_rank, dst_rank, bytes, offproc_bytes, detail};
  e.seconds = seconds;
  net::annotate(e);
  CommLog::instance().record(e);
}

/// Records one *split-phase* event: `seconds` covers the posting and
/// completion phases only, `overlap_seconds` is the in-flight window the
/// caller spent computing between them. The cost model subtracts the
/// window from its transfer prediction (cost_model.hpp), keeping
/// predicted-vs-measured comparable for overlapped collectives.
inline void record_split(CommPattern pattern, int src_rank, int dst_rank,
                         index_t bytes, index_t offproc_bytes, index_t detail,
                         double seconds, double overlap_seconds,
                         int blocks = 1) {
  CommEvent e{pattern, src_rank, dst_rank, bytes, offproc_bytes, detail};
  e.seconds = seconds;
  e.overlap_seconds = overlap_seconds;
  e.split_phase = true;
  e.blocks = blocks;
  net::annotate(e);
  CommLog::instance().record(e);
}

}  // namespace dpf::comm::detail
