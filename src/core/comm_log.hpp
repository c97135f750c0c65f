#pragma once

/// \file comm_log.hpp
/// Communication-pattern accounting (section 1.5, attributes 4 and 6).
///
/// Every collective primitive in dpf::comm records one CommEvent describing
/// the pattern it realizes, the ranks of the source/destination arrays, the
/// total bytes it moved and — using the layout's block distribution — how
/// many of those bytes crossed a virtual-processor boundary. Tables 3, 6
/// and 7 of the paper are regenerated from these events.

#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/types.hpp"

namespace dpf {

/// The communication-pattern taxonomy of the paper (section 1.5(4)).
enum class CommPattern : std::uint8_t {
  Stencil,
  Gather,
  GatherCombine,
  Scatter,
  ScatterCombine,
  Reduction,
  Broadcast,
  Spread,
  AABC,      ///< all-to-all broadcast
  AAPC,      ///< all-to-all personalized communication (e.g. transpose)
  Butterfly, ///< FFT data motion
  Scan,
  CShift,
  EOShift,
  Send,
  Get,
  Sort,
};

[[nodiscard]] constexpr std::string_view to_string(CommPattern p) noexcept {
  switch (p) {
    case CommPattern::Stencil: return "Stencil";
    case CommPattern::Gather: return "Gather";
    case CommPattern::GatherCombine: return "Gather w/ combine";
    case CommPattern::Scatter: return "Scatter";
    case CommPattern::ScatterCombine: return "Scatter w/ combine";
    case CommPattern::Reduction: return "Reduction";
    case CommPattern::Broadcast: return "Broadcast";
    case CommPattern::Spread: return "Spread";
    case CommPattern::AABC: return "AABC";
    case CommPattern::AAPC: return "AAPC";
    case CommPattern::Butterfly: return "Butterfly";
    case CommPattern::Scan: return "Scan";
    case CommPattern::CShift: return "CSHIFT";
    case CommPattern::EOShift: return "EOSHIFT";
    case CommPattern::Send: return "Send";
    case CommPattern::Get: return "Get";
    case CommPattern::Sort: return "Sort";
  }
  return "?";
}

/// Number of distinct CommPattern values (for dense per-pattern tables).
inline constexpr int kCommPatternCount = static_cast<int>(CommPattern::Sort) + 1;

/// One recorded collective operation.
///
/// Payload accounting rule: `bytes` counts the logical payload of the
/// operation exactly once, even when the source and destination arrays share
/// a backing store (an in-place exchange) or when the realizing path stages
/// the data through transport mailboxes or library temporaries. Staging
/// copies are transport-level traffic (see net::Transport stats), not
/// additional comm events.
struct CommEvent {
  CommPattern pattern{};
  int src_rank = 0;       ///< rank of the source array (0 = scalar)
  int dst_rank = 0;       ///< rank of the destination array
  index_t bytes = 0;      ///< payload bytes touched by the operation (once)
  index_t offproc_bytes = 0;  ///< bytes crossing a VP boundary under the layout
  index_t detail = 0;     ///< pattern-specific detail (e.g. stencil points)
  double seconds = 0.0;   ///< measured wall time of the primitive (0 = untimed)
  double predicted_seconds = 0.0;  ///< fat-tree cost-model prediction
  int hops = 0;           ///< characteristic fat-tree hop count of the pattern
  /// Split-phase operations only: wall time of the in-flight window between
  /// the posting phase and the completion phase — the compute the caller
  /// ran while the messages travelled. `seconds` for such events covers the
  /// post and completion phases alone, so measured and predicted times stay
  /// comparable (see METRICS.md, overlapped-phase accounting).
  double overlap_seconds = 0.0;
  bool split_phase = false;  ///< posted and completed in separate phases
  /// Split-phase operations only: number of pipelined in-flight blocks the
  /// exchange was split into (1 = a single post/complete pair). The cost
  /// model floors the charged remainder at `blocks` region latencies and
  /// prices one extra post/consume region pair per block.
  int blocks = 1;
};

/// Key used when aggregating events for the pattern-inventory tables.
struct CommKey {
  CommPattern pattern{};
  int src_rank = 0;
  int dst_rank = 0;
  friend auto operator<=>(const CommKey&, const CommKey&) = default;
};

/// Global, mutex-protected event log. Benchmarks run one at a time under a
/// single control thread, but SPMD bodies may record concurrently.
class CommLog {
 public:
  /// RAII marker for the dynamic extent of one recording primitive on the
  /// calling thread. When primitives nest — e.g. a DPF_NET=algorithmic
  /// cshift realized through net::exchange, which is itself a recording
  /// collective — only the *outermost* scope's event is kept: record()
  /// drops events arriving at depth > 1, so payload bytes are attributed
  /// to the pattern the program asked for, never double-counted against
  /// the internal traffic that realized it.
  class RecordScope {
   public:
    RecordScope() noexcept { ++depth_ref(); }
    ~RecordScope() { --depth_ref(); }
    RecordScope(const RecordScope&) = delete;
    RecordScope& operator=(const RecordScope&) = delete;

    /// Number of recording primitives on this thread's stack.
    [[nodiscard]] static int depth() noexcept { return depth_ref(); }

    /// True when this scope is the outermost recording primitive.
    [[nodiscard]] bool outermost() const noexcept { return depth_ref() == 1; }

   private:
    static int& depth_ref() noexcept {
      thread_local int depth = 0;
      return depth;
    }
  };

  static CommLog& instance();

  /// Appends one event. Calls made while more than one RecordScope is live
  /// on this thread are dropped (see RecordScope); calls with no scope at
  /// all (analytic per-iteration records from the la/app layers) always
  /// land.
  void record(const CommEvent& e);
  void reset();

  /// Total number of events since the last reset.
  [[nodiscard]] std::size_t event_count() const;

  /// Snapshot of all events since the last reset.
  [[nodiscard]] std::vector<CommEvent> events() const;

  /// Snapshot of the events from index `start` on (empty when `start` is
  /// at or past the end). Copies only that suffix, so scopes that remember
  /// where they began pay for their own events, not the whole log.
  [[nodiscard]] std::vector<CommEvent> events_since(std::size_t start) const;

  /// Aggregated operation counts keyed by (pattern, src rank, dst rank).
  [[nodiscard]] std::map<CommKey, index_t> counts() const;

  /// Count of events of a given pattern (any ranks).
  [[nodiscard]] index_t count(CommPattern p) const;

  /// Total off-processor bytes since the last reset.
  [[nodiscard]] index_t offproc_bytes() const;

  /// Total payload bytes since the last reset.
  [[nodiscard]] index_t total_bytes() const;

  /// Sum of measured primitive wall times since the last reset (seconds).
  [[nodiscard]] double measured_seconds() const;

  /// Sum of cost-model predictions since the last reset (seconds).
  [[nodiscard]] double predicted_seconds() const;

  /// Enables/disables recording (used to exclude warm-up/setup phases).
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Writes every recorded event as CSV (header + one row per event:
  /// sequence, pattern, src_rank, dst_rank, bytes, offproc_bytes, detail,
  /// seconds, predicted_seconds, hops) for offline analysis of a benchmark's
  /// communication trace. Returns false if the file could not be opened.
  [[nodiscard]] bool dump_csv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<CommEvent> events_;
  bool enabled_ = true;
};

/// RAII scope that isolates the events recorded during its lifetime.
class CommScope {
 public:
  CommScope() : start_(CommLog::instance().event_count()) {}

  /// Events recorded since scope entry.
  [[nodiscard]] std::vector<CommEvent> events() const;

  /// Aggregated counts of events recorded since scope entry.
  [[nodiscard]] std::map<CommKey, index_t> counts() const;

  /// Number of events of pattern `p` since scope entry.
  [[nodiscard]] index_t count(CommPattern p) const;

 private:
  std::size_t start_;
};

}  // namespace dpf
