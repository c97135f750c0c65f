#pragma once

/// \file cost_model.hpp
/// CM-5-style fat-tree communication cost model.
///
/// The CM-5 data network is a 4-ary fat tree: processor addresses are
/// radix-4 digit strings, a message between two nodes climbs to their least
/// common ancestor and back down, and upper links are shared (the CM-5
/// thinned them, so contention grows with hop height). The model mirrors
/// that topology over the machine's VP grid:
///
///   hops(a, b)  = 2 * (levels to the least common ancestor of a and b)
///
/// and prices one collective as
///
///   T = alpha * (synchronization rounds)
///     + beta  * (payload bytes copied, with off-processor bytes inflated
///                by the hop/contention factor)
///     + gamma * (elements routed through the ownership classifier)
///
/// alpha (per-message/region latency), beta (per-byte copy time of the
/// whole machine), gamma (per-element routing cost) and delta (end-to-end
/// per-element cost of the message-passing exchange engine) are calibrated
/// by microbenchmark probes — a transport ping-pong, a block-distributed
/// copy sweep, an ownership-scan and a real net::exchange — or overridden
/// with DPF_NET_ALPHA, DPF_NET_BETA, DPF_NET_GAMMA, DPF_NET_DELTA,
/// DPF_NET_RADIX and DPF_NET_CONTENTION. Until calibrate() runs,
/// predictions stay 0 and only hop counts are annotated.

#include <mutex>

#include "core/comm_log.hpp"

namespace dpf::net {

class CostModel {
 public:
  struct Params {
    double alpha = 0.0;  ///< seconds per message incl. one region handshake
    double beta = 0.0;   ///< seconds per payload byte copied (whole machine)
    double gamma = 0.0;  ///< seconds per element classified (one thread)
    double delta = 0.0;  ///< seconds per element through the exchange engine
    int radix = 4;       ///< fat-tree arity
    double contention = 0.33;  ///< extra cost per hop level above the first
  };

  static CostModel& instance();

  /// Runs the calibration probes (idempotent unless `force`). Must be
  /// called from the control thread, never inside an SPMD region.
  void calibrate(bool force = false);

  /// True once calibrate() or set_params() has installed parameters.
  [[nodiscard]] bool calibrated() const { return calibrated_; }

  /// The installed parameters (defaults until calibrated()).
  [[nodiscard]] const Params& params() const { return params_; }

  /// Overrides the parameters (tests, offline what-if analysis).
  void set_params(const Params& p);

  /// Fat-tree hop distance between VPs a and b (0 when a == b).
  [[nodiscard]] int hops(int a, int b) const;

  /// Mean hop distance over all ordered pairs of distinct VPs.
  [[nodiscard]] double mean_pair_hops(int p) const;

  /// Characteristic hop distance of one communication pattern on p VPs:
  /// nearest-neighbour distance for shifts/stencils, root-to-leaf distance
  /// for tree collectives, the all-pairs mean for personalized exchanges.
  /// A pure function of (pattern, p, radix), memoized per thread — the
  /// all-pairs mean is O(p^2) and every recorded event pays this call, so
  /// an uncached lookup dominates record-heavy solvers at large p.
  [[nodiscard]] double pattern_hops(CommPattern pat, int p) const;

  /// Predicted wall time of the collective described by `e` on p VPs
  /// serviced by `workers` threads, under the direct or the algorithmic
  /// (message-passing) formulation. Returns 0 when not calibrated.
  ///
  /// Split-phase events (e.split_phase) are priced as their *unhidden*
  /// cost: the posting and completion phases pay their region handshakes
  /// and per-element engine cost as usual, but transfer time covered by
  /// the recorded in-flight window (e.overlap_seconds — compute the caller
  /// ran while messages travelled) is subtracted, floored at one region
  /// latency. Measured `seconds` of split-phase events excludes the window
  /// symmetrically, so predicted-vs-measured stays comparable.
  [[nodiscard]] double predict(const CommEvent& e, int p, int workers,
                               bool algorithmic) const;

 private:
  CostModel() = default;

  [[nodiscard]] double pattern_hops_uncached(CommPattern pat, int p) const;

  Params params_;
  bool calibrated_ = false;
  std::mutex mu_;  ///< serializes calibrate()
};

}  // namespace dpf::net
