#pragma once

/// \file collectives.hpp
/// Message-passing formulations of the group-communication primitives,
/// built on the Transport mailboxes and the SPMD region barrier.
///
/// Every collective is a sequence of *phases*: a posting region followed by
/// a fetching region (the region boundary is the barrier that publishes the
/// mailboxes). No region body ever blocks — with fewer workers than VPs a
/// blocking receive would deadlock the chunked dispatcher — so each
/// communication round costs two SPMD regions (three for the exchange under
/// DPF_NET=overlap, which runs the local copies as a separate middle region
/// between post and remote-consume; see split_phase.hpp).
///
/// Bit-identity with the direct shared-memory path is by construction:
///
///   * allgather_slots moves per-VP partial results (recursive doubling for
///     power-of-two P, a ring otherwise); the caller combines them in the
///     same ascending-VP order as the direct path, so floating-point
///     reductions associate identically.
///   * exchange is a personalized exchange (pairwise AAPC): both the sender
///     scan and the receiver scan walk destination indices in ascending
///     order, so each message is consumed in exactly the order it was
///     packed, and every element is a bit-exact copy.
///   * exchange_combine preserves the *global* source order j = 0..n-1 on
///     the receiver, so collision resolution (last writer wins) and
///     floating-point accumulation match the serial direct loop exactly.
///
/// Ownership classification is a caller-supplied functor, which keeps this
/// layer independent of array layouts (dpf::comm passes its owner_id fold).

#include <cassert>
#include <chrono>
#include <cstring>
#include <vector>

#include "core/comm_log.hpp"
#include "core/machine.hpp"
#include "net/net.hpp"
#include "net/split_phase.hpp"

namespace dpf::net {

namespace coll_detail {

inline bool is_pow2(int p) { return p > 0 && (p & (p - 1)) == 0; }

inline int log2_ceil(int p) {
  int r = 0;
  while ((1 << r) < p) ++r;
  return r;
}

/// RAII recorder for one engine collective. When the collective is invoked
/// directly (not nested inside a recording comm primitive) it is itself a
/// communication operation and logs one event whose bytes are the transport
/// payload it posted. Nested invocations — every DPF_NET=algorithmic comm
/// primitive routes through here — see a non-outermost RecordScope and stay
/// silent, so the payload is attributed to the outermost pattern only.
class EngineRecord {
 public:
  EngineRecord(CommPattern pattern, int src_rank, int dst_rank)
      : pattern_(pattern),
        src_rank_(src_rank),
        dst_rank_(dst_rank),
        bytes0_(transport().stats().bytes),
        t0_(std::chrono::steady_clock::now()) {}

  EngineRecord(const EngineRecord&) = delete;
  EngineRecord& operator=(const EngineRecord&) = delete;

  ~EngineRecord() {
    if (!scope_.outermost()) return;
    const std::uint64_t moved = transport().stats().bytes - bytes0_;
    if (moved == 0) return;
    CommEvent e{pattern_, src_rank_, dst_rank_,
                static_cast<index_t>(moved), static_cast<index_t>(moved), 0};
    e.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0_)
                    .count();
    annotate(e);
    CommLog::instance().record(e);
  }

 private:
  CommLog::RecordScope scope_;
  CommPattern pattern_;
  int src_rank_;
  int dst_rank_;
  std::uint64_t bytes0_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace coll_detail

/// Allgather of one slot per VP: on entry slot[v] is VP v's contribution;
/// on return every slot has travelled through the transport (the returned
/// values are VP 0's gathered view — bit-exact copies of the originals).
/// Recursive doubling when P is a power of two, a ring otherwise.
template <typename T>
void allgather_slots(std::vector<T>& slot) {
  static_assert(std::is_trivially_copyable_v<T>);
  Machine& m = Machine::instance();
  const int p = m.vps();
  if (p <= 1) return;
  assert(slot.size() == static_cast<std::size_t>(p));
  LocalTransport& t = transport();
  coll_detail::EngineRecord rec(CommPattern::AABC, 1, 1);

  // local[v*p + u] = slot u as known by VP v.
  std::vector<T> local(static_cast<std::size_t>(p) * p, T{});
  for (int v = 0; v < p; ++v) {
    local[static_cast<std::size_t>(v) * p + v] = slot[static_cast<std::size_t>(v)];
  }

  if (coll_detail::is_pow2(p)) {
    // Recursive doubling: after round r every VP holds the 2^(r+1)-aligned
    // segment containing its own slot.
    const int rounds = coll_detail::log2_ceil(p);
    const std::uint64_t base = next_tags(static_cast<std::uint64_t>(rounds));
    for (int r = 0; r < rounds; ++r) {
      const int seg = 1 << r;
      m.spmd([&](int v) {
        const int partner = v ^ seg;
        const int start = (v >> r) << r;
        t.post(v, partner, base + static_cast<std::uint64_t>(r),
               &local[static_cast<std::size_t>(v) * p + start],
               static_cast<std::size_t>(seg) * sizeof(T));
      });
      m.spmd([&](int v) {
        const int partner = v ^ seg;
        const int pstart = (partner >> r) << r;
        const bool ok =
            t.try_fetch(v, partner, base + static_cast<std::uint64_t>(r),
                        &local[static_cast<std::size_t>(v) * p + pstart],
                        static_cast<std::size_t>(seg) * sizeof(T));
        assert(ok);
        (void)ok;
      });
    }
  } else {
    // Ring: in round k, VP v forwards the slot it received k rounds ago to
    // its right neighbour.
    const std::uint64_t base = next_tags(static_cast<std::uint64_t>(p - 1));
    for (int k = 0; k < p - 1; ++k) {
      m.spmd([&](int v) {
        const int b_send = ((v - k) % p + p) % p;
        t.post(v, (v + 1) % p, base + static_cast<std::uint64_t>(k),
               &local[static_cast<std::size_t>(v) * p + b_send], sizeof(T));
      });
      m.spmd([&](int v) {
        const int left = (v - 1 + p) % p;
        const int b_recv = ((v - 1 - k) % p + p) % p;
        const bool ok =
            t.try_fetch(v, left, base + static_cast<std::uint64_t>(k),
                        &local[static_cast<std::size_t>(v) * p + b_recv],
                        sizeof(T));
        assert(ok);
        (void)ok;
      });
    }
  }

  for (int u = 0; u < p; ++u) {
    slot[static_cast<std::size_t>(u)] = local[static_cast<std::size_t>(u)];
  }
}

/// Binomial-tree broadcast of one value from VP 0 (recursive doubling of
/// the informed set). Returns the per-VP received copies.
template <typename T>
[[nodiscard]] std::vector<T> bcast_value(T root_value) {
  static_assert(std::is_trivially_copyable_v<T>);
  Machine& m = Machine::instance();
  const int p = m.vps();
  std::vector<T> vals(static_cast<std::size_t>(std::max(p, 1)), T{});
  vals[0] = root_value;
  if (p <= 1) return vals;
  LocalTransport& t = transport();
  coll_detail::EngineRecord rec(CommPattern::Broadcast, 0, 1);
  const int rounds = coll_detail::log2_ceil(p);
  const std::uint64_t base = next_tags(static_cast<std::uint64_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const int span = 1 << r;
    m.spmd([&](int v) {
      if (v < span && v + span < p) {
        t.post(v, v + span, base + static_cast<std::uint64_t>(r),
               &vals[static_cast<std::size_t>(v)], sizeof(T));
      }
    });
    m.spmd([&](int v) {
      if (v >= span && v < 2 * span && v < p) {
        const bool ok =
            t.try_fetch(v, v - span, base + static_cast<std::uint64_t>(r),
                        &vals[static_cast<std::size_t>(v)], sizeof(T));
        assert(ok);
        (void)ok;
      }
    });
  }
  return vals;
}

/// Personalized exchange (pairwise AAPC): dst[i] = src[src_index_of(i)] for
/// every destination index i, where a negative source index means the local
/// boundary value. `owner_dst(i)` / `owner_src(j)` classify linear indices.
/// dst must not alias src (in-place callers snapshot first).
///
/// Phase 1 (pack): VP s scans i ascending and packs the elements it owns
/// that other VPs need, one message per destination VP. Phase 2 (unpack):
/// VP d scans its own i ascending, consuming each sender's message in the
/// exact order it was packed.
template <typename T, typename MapFn, typename OwnerDst, typename OwnerSrc>
void exchange(T* dst, index_t n_dst, const T* src, MapFn&& src_index_of,
              OwnerDst&& owner_dst, OwnerSrc&& owner_src, T boundary = T{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  coll_detail::EngineRecord rec(CommPattern::AAPC, 1, 1);
  auto h = post_exchange(dst, n_dst, src, std::forward<MapFn>(src_index_of),
                         std::forward<OwnerDst>(owner_dst),
                         std::forward<OwnerSrc>(owner_src), boundary);
  // Overlap mode exercises the split-phase protocol even for a one-shot
  // call: the local copies run as a separate middle region while the
  // boundary messages sit in flight, and the completion region consumes
  // remote payloads only.
  if (overlap()) h.complete_local();
  h.complete();
}

/// Push-based exchange with combining: dst[map[j]] (op)= src[j] for j
/// ascending, where op is overwrite (`add == false`, last writer wins) or
/// accumulation (`add == true`). The receiver walks the *global* source
/// order, so collision order and floating-point association are identical
/// to the serial direct loop.
template <typename T, typename OwnerDst, typename OwnerSrc>
void exchange_combine(T* dst, const T* src, const index_t* map, index_t n_src,
                      OwnerDst&& owner_dst, OwnerSrc&& owner_src, bool add) {
  static_assert(std::is_trivially_copyable_v<T>);
  coll_detail::EngineRecord rec(
      add ? CommPattern::ScatterCombine : CommPattern::Scatter, 1, 1);
  auto h = post_exchange_combine(dst, src, map, n_src,
                                 std::forward<OwnerDst>(owner_dst),
                                 std::forward<OwnerSrc>(owner_src), add);
  h.complete();
}

}  // namespace dpf::net
