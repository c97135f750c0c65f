#pragma once

/// \file split_phase.hpp
/// Split-phase collectives: the async handle API over the transport's
/// post/probe/fetch protocol.
///
/// The phase discipline of PR 3 — messages posted in SPMD region k are
/// visible from region k+1 on — is already split-phase-shaped: nothing
/// requires the fetching region to be the *next* region. This header makes
/// that a first-class API:
///
///   auto h = net::post_exchange(dst, n, src, map, owner_dst, owner_src);
///   ... any number of SPMD regions of caller compute; the boundary
///   ... messages are in flight (copied into the mailboxes at post time,
///   ... so mutating src afterwards cannot alias the payload) ...
///   h.complete_local();   // optional: copy locally-owned elements — the
///                         // "interior" work of a double-buffered halo
///                         // exchange, overlapping the in-flight window
///   h.complete();         // consume the remote messages
///
/// Bit-identity with the one-shot net::exchange is structural: the pack
/// scan, the per-sender message order and the receiver's consume order are
/// the same code, and splitting the receiver scan into a local pass and a
/// remote pass only reorders writes to *distinct* destination elements.
///
/// exchange_combine gets a handle too (post_exchange_combine), but no
/// local pass: its receiver must replay the global source order j = 0..n-1
/// so collision resolution and floating-point accumulation stay identical
/// to the serial loop — local and remote contributions interleave in j and
/// cannot be split into two passes.
///
/// Handles type-erase the map/owner functors (std::function): the engine's
/// per-element cost is calibrated by the delta probe either way, and
/// erasure lets callers store handles across arbitrary compute without
/// dragging functor types through their interfaces.

#include <cassert>
#include <functional>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "core/types.hpp"
#include "net/net.hpp"
#include "net/local_transport.hpp"
#include "trace/trace.hpp"

namespace dpf::net {

namespace split_detail {

/// Phase 1 of the personalized exchange: VP s scans destination indices
/// ascending and posts one message per destination VP with the elements it
/// owns that the destination needs. Returns the posted payload bytes.
template <typename T, typename MapFn, typename OwnerDst, typename OwnerSrc>
std::uint64_t pack_and_post(index_t n_dst, const T* src,
                            const MapFn& src_index_of,
                            const OwnerDst& owner_dst,
                            const OwnerSrc& owner_src, std::uint64_t base,
                            int p) {
  Machine& m = Machine::instance();
  LocalTransport& t = transport();
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(p), 0);
  m.spmd([&](int s) {
    std::vector<std::vector<T>> bufs(static_cast<std::size_t>(p));
    for (index_t i = 0; i < n_dst; ++i) {
      const index_t j = src_index_of(i);
      if (j < 0) continue;
      if (owner_src(j) != s) continue;
      const int d = owner_dst(i);
      if (d == s) continue;
      bufs[static_cast<std::size_t>(d)].push_back(src[j]);
    }
    std::uint64_t bytes = 0;
    for (int d = 0; d < p; ++d) {
      auto& b = bufs[static_cast<std::size_t>(d)];
      if (!b.empty()) {
        const std::size_t sz = b.size() * sizeof(T);
        t.post(s, d,
               base + static_cast<std::uint64_t>(s) *
                          static_cast<std::uint64_t>(p) +
                   static_cast<std::uint64_t>(d),
               b.data(), sz);
        bytes += sz;
      }
    }
    sent[static_cast<std::size_t>(s)] = bytes;
  });
  std::uint64_t total = 0;
  for (std::uint64_t b : sent) total += b;
  return total;
}

}  // namespace split_detail

/// One in-flight personalized exchange. Move-only; must be completed before
/// destruction. Created by post_exchange() below.
template <typename T>
class [[nodiscard]] ExchangeHandle {
 public:
  using MapFn = std::function<index_t(index_t)>;
  using OwnerFn = std::function<int(index_t)>;

  ExchangeHandle() = default;
  ExchangeHandle(const ExchangeHandle&) = delete;
  ExchangeHandle& operator=(const ExchangeHandle&) = delete;
  ExchangeHandle(ExchangeHandle&& o) noexcept { swap(o); }
  ExchangeHandle& operator=(ExchangeHandle&& o) noexcept {
    if (this != &o) {
      assert(!pending());
      ExchangeHandle tmp(std::move(o));
      swap(tmp);
    }
    return *this;
  }
  ~ExchangeHandle() { assert(!pending()); }

  /// True between post_exchange() and complete().
  [[nodiscard]] bool pending() const { return posted_ && !completed_; }

  /// Payload bytes posted to the transport (the in-flight volume).
  [[nodiscard]] std::uint64_t posted_bytes() const { return posted_bytes_; }

  /// Steady-clock nanoseconds at the end of the posting phase — the start
  /// of the overlap window (trace annotation).
  [[nodiscard]] std::uint64_t post_end_ns() const { return post_end_ns_; }

  /// Optional middle phase: writes every destination element whose source
  /// is local (or a boundary fill), touching nothing that is in flight.
  /// This is the "compute the interior while the halo travels" pass of a
  /// double-buffered exchange. Reads src at call time — callers that
  /// interleave compute must not mutate the locally-sourced elements of
  /// src before this runs (posted payloads, by contrast, were copied into
  /// the mailboxes at post time and cannot alias).
  void complete_local() {
    assert(pending() && !local_done_);
    Machine& m = Machine::instance();
    m.spmd([&](int d) {
      for (index_t i = 0; i < n_dst_; ++i) {
        if (owner_dst_(i) != d) continue;
        const index_t j = map_(i);
        if (j < 0) {
          dst_[i] = boundary_;
          continue;
        }
        if (owner_src_(j) == d) dst_[i] = src_[j];
      }
    });
    local_done_ = true;
  }

  /// Final phase: consumes the remote messages (and, if complete_local()
  /// was not called, performs the local copies too — the one-shot unpack).
  /// Each sender's queue is consumed in exactly the order it was packed.
  void complete() {
    assert(pending());
    Machine& m = Machine::instance();
    LocalTransport& t = transport();
    const bool skip_local = local_done_;
    m.spmd([&](int d) {
      std::vector<std::vector<T>> in(static_cast<std::size_t>(p_));
      std::vector<std::size_t> cur(static_cast<std::size_t>(p_), 0);
      for (index_t i = 0; i < n_dst_; ++i) {
        if (owner_dst_(i) != d) continue;
        const index_t j = map_(i);
        if (j < 0) {
          if (!skip_local) dst_[i] = boundary_;
          continue;
        }
        const int o = owner_src_(j);
        if (o == d) {
          if (!skip_local) dst_[i] = src_[j];
          continue;
        }
        auto& q = in[static_cast<std::size_t>(o)];
        auto& c = cur[static_cast<std::size_t>(o)];
        if (q.empty()) {
          const std::uint64_t tag =
              base_ + static_cast<std::uint64_t>(o) *
                          static_cast<std::uint64_t>(p_) +
              static_cast<std::uint64_t>(d);
          const std::ptrdiff_t sz = t.probe(d, o, tag);
          assert(sz > 0 && sz % static_cast<std::ptrdiff_t>(sizeof(T)) == 0);
          q.resize(static_cast<std::size_t>(sz) / sizeof(T));
          const bool ok =
              t.try_fetch(d, o, tag, q.data(), static_cast<std::size_t>(sz));
          assert(ok);
          (void)ok;
        }
        assert(c < q.size());
        dst_[i] = q[c++];
      }
    });
    completed_ = true;
  }

 private:
  template <typename U, typename MapF, typename OwnerD, typename OwnerS>
  friend ExchangeHandle<U> post_exchange(U* dst, index_t n_dst, const U* src,
                                         MapF&& src_index_of,
                                         OwnerD&& owner_dst,
                                         OwnerS&& owner_src, U boundary);

  void swap(ExchangeHandle& o) noexcept {
    std::swap(dst_, o.dst_);
    std::swap(n_dst_, o.n_dst_);
    std::swap(src_, o.src_);
    std::swap(map_, o.map_);
    std::swap(owner_dst_, o.owner_dst_);
    std::swap(owner_src_, o.owner_src_);
    std::swap(boundary_, o.boundary_);
    std::swap(base_, o.base_);
    std::swap(p_, o.p_);
    std::swap(posted_bytes_, o.posted_bytes_);
    std::swap(post_end_ns_, o.post_end_ns_);
    std::swap(posted_, o.posted_);
    std::swap(local_done_, o.local_done_);
    std::swap(completed_, o.completed_);
  }

  T* dst_ = nullptr;
  index_t n_dst_ = 0;
  const T* src_ = nullptr;
  MapFn map_;
  OwnerFn owner_dst_;
  OwnerFn owner_src_;
  T boundary_{};
  std::uint64_t base_ = 0;
  int p_ = 1;
  std::uint64_t posted_bytes_ = 0;
  std::uint64_t post_end_ns_ = 0;
  bool posted_ = false;
  bool local_done_ = false;
  bool completed_ = false;
};

/// Posts the boundary messages of a personalized exchange (dst[i] =
/// src[src_index_of(i)], negative source index = boundary fill) and returns
/// the in-flight handle. Control thread only, outside any SPMD region. The
/// exchange's semantics match net::exchange exactly; see ExchangeHandle for
/// the window contract.
template <typename T, typename MapFn, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] ExchangeHandle<T> post_exchange(T* dst, index_t n_dst,
                                              const T* src,
                                              MapFn&& src_index_of,
                                              OwnerDst&& owner_dst,
                                              OwnerSrc&& owner_src,
                                              T boundary = T{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  ExchangeHandle<T> h;
  h.dst_ = dst;
  h.n_dst_ = n_dst;
  h.src_ = src;
  h.map_ = std::forward<MapFn>(src_index_of);
  h.owner_dst_ = std::forward<OwnerDst>(owner_dst);
  h.owner_src_ = std::forward<OwnerSrc>(owner_src);
  h.boundary_ = boundary;
  h.p_ = Machine::instance().vps();
  assert(h.p_ >= 1);
  h.base_ = next_tags(static_cast<std::uint64_t>(h.p_) *
                      static_cast<std::uint64_t>(h.p_));
  h.posted_bytes_ = split_detail::pack_and_post<T>(
      n_dst, src, h.map_, h.owner_dst_, h.owner_src_, h.base_, h.p_);
  h.post_end_ns_ = trace::now_ns();
  h.posted_ = true;
  return h;
}

/// One in-flight combining exchange (dst[map[j]] (op)= src[j]). Move-only;
/// must be completed before destruction. No local pass is offered: the
/// receiver must replay the global ascending-j order, interleaving local
/// and remote contributions, to keep collision order and floating-point
/// association bit-identical to the serial loop.
template <typename T>
class [[nodiscard]] CombineHandle {
 public:
  using OwnerFn = std::function<int(index_t)>;

  CombineHandle() = default;
  CombineHandle(const CombineHandle&) = delete;
  CombineHandle& operator=(const CombineHandle&) = delete;
  CombineHandle(CombineHandle&& o) noexcept { swap(o); }
  CombineHandle& operator=(CombineHandle&& o) noexcept {
    if (this != &o) {
      assert(!pending());
      CombineHandle tmp(std::move(o));
      swap(tmp);
    }
    return *this;
  }
  ~CombineHandle() { assert(!pending()); }

  [[nodiscard]] bool pending() const { return posted_ && !completed_; }
  [[nodiscard]] std::uint64_t posted_bytes() const { return posted_bytes_; }
  [[nodiscard]] std::uint64_t post_end_ns() const { return post_end_ns_; }

  /// Consumes the exchange: the full combining receiver scan. dst may have
  /// been rewritten during the window (e.g. zeroed by the caller's overlap
  /// compute) — it is read only here.
  void complete() {
    assert(pending());
    Machine& m = Machine::instance();
    LocalTransport& t = transport();
    m.spmd([&](int d) {
      std::vector<std::vector<T>> in(static_cast<std::size_t>(p_));
      std::vector<std::size_t> cur(static_cast<std::size_t>(p_), 0);
      for (index_t j = 0; j < n_src_; ++j) {
        const index_t target = map_[j];
        if (owner_dst_(target) != d) continue;
        const int o = owner_src_(j);
        T v;
        if (o == d) {
          v = src_[j];
        } else {
          auto& q = in[static_cast<std::size_t>(o)];
          auto& c = cur[static_cast<std::size_t>(o)];
          if (q.empty()) {
            const std::uint64_t tag =
                base_ + static_cast<std::uint64_t>(o) *
                            static_cast<std::uint64_t>(p_) +
                static_cast<std::uint64_t>(d);
            const std::ptrdiff_t sz = t.probe(d, o, tag);
            assert(sz > 0 &&
                   sz % static_cast<std::ptrdiff_t>(sizeof(T)) == 0);
            q.resize(static_cast<std::size_t>(sz) / sizeof(T));
            const bool ok =
                t.try_fetch(d, o, tag, q.data(), static_cast<std::size_t>(sz));
            assert(ok);
            (void)ok;
          }
          assert(c < q.size());
          v = q[c++];
        }
        if (add_) {
          dst_[target] += v;
        } else {
          dst_[target] = v;
        }
      }
    });
    completed_ = true;
  }

 private:
  template <typename U, typename OwnerD, typename OwnerS>
  friend CombineHandle<U> post_exchange_combine(U* dst, const U* src,
                                                const index_t* map,
                                                index_t n_src,
                                                OwnerD&& owner_dst,
                                                OwnerS&& owner_src, bool add);

  void swap(CombineHandle& o) noexcept {
    std::swap(dst_, o.dst_);
    std::swap(src_, o.src_);
    std::swap(map_, o.map_);
    std::swap(n_src_, o.n_src_);
    std::swap(owner_dst_, o.owner_dst_);
    std::swap(owner_src_, o.owner_src_);
    std::swap(add_, o.add_);
    std::swap(base_, o.base_);
    std::swap(p_, o.p_);
    std::swap(posted_bytes_, o.posted_bytes_);
    std::swap(post_end_ns_, o.post_end_ns_);
    std::swap(posted_, o.posted_);
    std::swap(completed_, o.completed_);
  }

  T* dst_ = nullptr;
  const T* src_ = nullptr;
  const index_t* map_ = nullptr;
  index_t n_src_ = 0;
  OwnerFn owner_dst_;
  OwnerFn owner_src_;
  bool add_ = false;
  std::uint64_t base_ = 0;
  int p_ = 1;
  std::uint64_t posted_bytes_ = 0;
  std::uint64_t post_end_ns_ = 0;
  bool posted_ = false;
  bool completed_ = false;
};

/// Posts the off-VP contributions of a combining exchange and returns the
/// in-flight handle. `map` and `src` must stay valid and unmutated until
/// complete(); dst may be rewritten during the window (it is read only at
/// completion). Control thread only, outside any SPMD region.
template <typename T, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] CombineHandle<T> post_exchange_combine(T* dst, const T* src,
                                                     const index_t* map,
                                                     index_t n_src,
                                                     OwnerDst&& owner_dst,
                                                     OwnerSrc&& owner_src,
                                                     bool add) {
  static_assert(std::is_trivially_copyable_v<T>);
  CombineHandle<T> h;
  h.dst_ = dst;
  h.src_ = src;
  h.map_ = map;
  h.n_src_ = n_src;
  h.owner_dst_ = std::forward<OwnerDst>(owner_dst);
  h.owner_src_ = std::forward<OwnerSrc>(owner_src);
  h.add_ = add;
  h.p_ = Machine::instance().vps();
  h.base_ = next_tags(static_cast<std::uint64_t>(h.p_) *
                      static_cast<std::uint64_t>(h.p_));
  // The combine pack scans source indices j ascending and routes src[j] to
  // the owner of map[j]; that is pack_and_post with an identity index map
  // and the destination-owner composed through map.
  h.posted_bytes_ = split_detail::pack_and_post<T>(
      n_src, src, [](index_t j) { return j; },
      [map, &od = h.owner_dst_](index_t j) { return od(map[j]); },
      h.owner_src_, h.base_, h.p_);
  h.post_end_ns_ = trace::now_ns();
  h.posted_ = true;
  return h;
}

}  // namespace dpf::net
