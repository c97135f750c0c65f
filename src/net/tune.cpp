#include "net/tune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include "comm/broadcast.hpp"
#include "comm/cshift.hpp"
#include "comm/gather_scatter.hpp"
#include "comm/transpose.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "net/cost_model.hpp"
#include "net/net.hpp"
#include "vec/vec.hpp"

namespace dpf::net {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-local pipelined-block override used by the block-count probe;
/// 0 = no override. Read by tuned_blocks() below.
thread_local int forced_blocks = 0;

class ForcedBlocks {
 public:
  explicit ForcedBlocks(int blocks) : prev_(forced_blocks) {
    forced_blocks = blocks;
  }
  ~ForcedBlocks() { forced_blocks = prev_; }
  ForcedBlocks(const ForcedBlocks&) = delete;
  ForcedBlocks& operator=(const ForcedBlocks&) = delete;

 private:
  int prev_;
};

/// RAII latch for Tuner::ensuring_: the probes run real collectives, whose
/// own mode_for() must not recurse into ensure().
class EnsuringLatch {
 public:
  explicit EnsuringLatch(bool& flag) : flag_(flag) { flag_ = true; }
  ~EnsuringLatch() { flag_ = false; }

 private:
  bool& flag_;
};

int log2_floor(std::uint64_t v) {
  int l = 0;
  while (v > 1) {
    v >>= 1;
    ++l;
  }
  return l;
}

/// Representative CommPattern per class, used for the synthetic events the
/// cost model prices (the probe collectives record nothing themselves).
CommPattern representative(PatternClass c) {
  switch (c) {
    case PatternClass::Shift: return CommPattern::CShift;
    case PatternClass::Tree: return CommPattern::Broadcast;
    case PatternClass::Exchange: return CommPattern::AAPC;
    case PatternClass::GatherScatter: return CommPattern::Gather;
  }
  return CommPattern::CShift;
}

/// Default pipelined block count of the exchange engine for an n-element
/// payload (mirrors comm/pipeline.hpp's heuristic; kept independent so the
/// prediction does not drag the comm headers' dispatch into the probe).
int default_blocks(std::uint64_t n, int p) {
  const std::uint64_t by_size = n / 1024;
  std::uint64_t b = 4;
  b = std::min(b, static_cast<std::uint64_t>(std::max(1, p)));
  b = std::min(b, std::max<std::uint64_t>(1, by_size));
  return static_cast<int>(std::max<std::uint64_t>(1, b));
}

/// Cost-model prediction for one (class, payload, mode) cell.
double predict_mode(PatternClass klass, std::uint64_t bytes, Mode m, int p,
                    int workers) {
  CostModel& model = CostModel::instance();
  CommEvent e;
  e.pattern = representative(klass);
  e.src_rank = 1;
  e.dst_rank = 1;
  e.bytes = static_cast<index_t>(bytes);
  // Block distribution over p VPs: roughly (p-1)/p of the payload is
  // off-processor for the patterns the classes represent.
  e.offproc_bytes =
      p > 1 ? static_cast<index_t>(bytes - bytes / static_cast<unsigned>(p))
            : 0;
  if (m == Mode::Overlap) {
    e.split_phase = true;
    e.blocks = default_blocks(bytes / 8, p);
    e.overlap_seconds = 0.0;  // priced as fully unhidden: the conservative bound
  }
  return model.predict(e, p, workers, /*algorithmic=*/m != Mode::Direct);
}

/// One timed probe run: the collective for `klass` on an n-element payload,
/// under the already-installed ScopedMode. Arrays are rebuilt per call so
/// every mode sees identical cold state.
double run_probe(PatternClass klass, index_t n) {
  switch (klass) {
    case PatternClass::Shift: {
      auto src = make_vector<double>(n, MemKind::Temporary);
      auto dst = make_vector<double>(n, MemKind::Temporary);
      for (index_t i = 0; i < n; ++i) src[i] = static_cast<double>(i & 1023);
      const double t0 = now_seconds();
      comm::cshift_into(dst, src, 0, 3);
      return now_seconds() - t0;
    }
    case PatternClass::Tree: {
      auto dst = make_vector<double>(n, MemKind::Temporary);
      const double t0 = now_seconds();
      comm::broadcast_fill(dst, 1.25);
      return now_seconds() - t0;
    }
    case PatternClass::Exchange: {
      // Square matrix with n elements total.
      const index_t side =
          static_cast<index_t>(std::sqrt(static_cast<double>(n)));
      auto src = make_matrix<double>(side, side, MemKind::Temporary);
      auto dst = make_matrix<double>(side, side, MemKind::Temporary);
      for (index_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<double>((i * 7) & 1023);
      }
      const double t0 = now_seconds();
      comm::transpose_into(dst, src);
      return now_seconds() - t0;
    }
    case PatternClass::GatherScatter: {
      auto src = make_vector<double>(n, MemKind::Temporary);
      auto dst = make_vector<double>(n, MemKind::Temporary);
      Array<index_t, 1> map(Shape<1>(n), Layout<1>{}, MemKind::Temporary);
      // Stride permutation: genuinely scattered reads, every VP touched.
      for (index_t i = 0; i < n; ++i) {
        src[i] = static_cast<double>(i);
        map[i] = (i * 257) % n;
      }
      const double t0 = now_seconds();
      comm::gather_into(dst, src, map);
      return now_seconds() - t0;
    }
  }
  return 0.0;
}

/// Best-of-2 measured seconds for one (class, payload, mode) cell.
double measure_mode(PatternClass klass, index_t n, Mode m) {
  const ScopedMode forced(m);
  double best = run_probe(klass, n);
  best = std::min(best, run_probe(klass, n));
  return best;
}

/// SIMD probe: the axpy kernel with vector units on vs off. Restores the
/// caller's vec mode; the recommendation lands in the table as advisory.
void probe_simd(TuneTable& table) {
  constexpr index_t n = 1 << 16;
  std::vector<double> x(static_cast<std::size_t>(n), 1.5);
  std::vector<double> y(static_cast<std::size_t>(n), 0.25);
  const bool prior = vec::enabled();
  const auto time_axpy = [&] {
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_seconds();
      vec::axpy(1.0001, x.data(), y.data(), n);
      best = std::min(best, now_seconds() - t0);
    }
    return best;
  };
  vec::set_enabled(true);
  const double t_simd = time_axpy();
  vec::set_enabled(false);
  const double t_scalar = time_axpy();
  vec::set_enabled(prior);
  table.simd_ratio = t_simd > 0.0 ? t_scalar / t_simd : 1.0;
  // Keep SIMD unless the scalar variant is decisively (>10%) faster —
  // dispatch overhead on tiny kernels should not flip the default.
  table.simd_on = table.simd_ratio >= 0.9;
}

}  // namespace

PatternClass pattern_class(CommPattern pat) {
  switch (pat) {
    case CommPattern::Stencil:
    case CommPattern::CShift:
    case CommPattern::EOShift:
      return PatternClass::Shift;
    case CommPattern::Reduction:
    case CommPattern::Broadcast:
    case CommPattern::Spread:
    case CommPattern::Scan:
      return PatternClass::Tree;
    case CommPattern::AAPC:
    case CommPattern::AABC:
    case CommPattern::Butterfly:
    case CommPattern::Sort:
      return PatternClass::Exchange;
    case CommPattern::Gather:
    case CommPattern::GatherCombine:
    case CommPattern::Scatter:
    case CommPattern::ScatterCombine:
    case CommPattern::Send:
    case CommPattern::Get:
      return PatternClass::GatherScatter;
  }
  return PatternClass::Shift;
}

const char* pattern_class_name(PatternClass c) {
  switch (c) {
    case PatternClass::Shift: return "shift";
    case PatternClass::Tree: return "tree";
    case PatternClass::Exchange: return "exchange";
    case PatternClass::GatherScatter: return "gather-scatter";
  }
  return "?";
}

Tuner& Tuner::instance() {
  static Tuner t;
  return t;
}

std::string Tuner::config_signature() {
  Machine& m = Machine::instance();
  return "vps=" + std::to_string(m.vps()) +
         "|workers=" + std::to_string(m.workers());
}

bool Tuner::ready() const {
  return !table_.choices.empty() && signature_ == config_signature();
}

void Tuner::install(const TuneTable& table) {
  table_ = table;
  signature_ = config_signature();
}

void Tuner::invalidate() {
  table_ = TuneTable{};
  signature_.clear();
}

void Tuner::ensure() {
  if (ready() || ensuring_) return;
  Machine& m = Machine::instance();
  if (m.inside_region()) return;  // collectives cannot nest under a region
  const EnsuringLatch latch(ensuring_);
  CostModel::instance().calibrate(/*force=*/false);

  const int p = m.vps();
  const int workers = m.workers();
  // Per-class probe payloads: a small and a large representative size
  // (doubles). The exchange probes use matrices with this many elements.
  constexpr index_t kSmall = 4096;    // 32 KiB
  constexpr index_t kLarge = 65536;   // 512 KiB

  TuneTable table;
  for (int c = 0; c < kPatternClassCount; ++c) {
    const auto klass = static_cast<PatternClass>(c);
    for (const index_t n : {kSmall, kLarge}) {
      TuneChoice cell;
      cell.klass = klass;
      const std::uint64_t bytes = static_cast<std::uint64_t>(n) * 8;
      cell.log2_bytes = log2_floor(bytes);
      // The probe collectives run for real but must not pollute the comm
      // log or the trace-facing metrics: an outer RecordScope makes every
      // nested record() arrive at depth > 1 and be dropped.
      const CommLog::RecordScope quiet;
      for (int mi = 0; mi < kTuneModes; ++mi) {
        const auto mode = static_cast<Mode>(mi);
        cell.predicted[mi] = predict_mode(klass, bytes, mode, p, workers);
        cell.measured[mi] = measure_mode(klass, n, mode);
      }
      // Measured time decides; the prediction is the cross-check kept for
      // --report tune. A non-direct mode must win by a clear margin (3%)
      // to displace the shared-memory formulation — ties go to direct,
      // whose result path has no transport dependence.
      cell.chosen = 0;
      for (int mi = 1; mi < kTuneModes; ++mi) {
        if (cell.measured[mi] < cell.measured[cell.chosen] * 0.97) {
          cell.chosen = mi;
        }
      }
      // Exchange-class large payloads: probe the pipelined block count
      // under the winning split-phase mode.
      if (klass == PatternClass::Exchange && n == kLarge &&
          cell.chosen == static_cast<int>(Mode::Overlap)) {
        double best = cell.measured[cell.chosen];
        for (const int b : {2, 4, 8}) {
          if (b > p) continue;
          const ForcedBlocks force(b);
          const double t = measure_mode(klass, n, Mode::Overlap);
          if (t < best * 0.97) {
            best = t;
            cell.blocks = b;
          }
        }
      }
      table.choices.push_back(cell);
    }
  }
  probe_simd(table);
  table_ = std::move(table);
  signature_ = config_signature();
}

Mode Tuner::choose(CommPattern pat, std::uint64_t bytes) {
  if (!ready()) {
    if (ensuring_ || Machine::instance().inside_region()) {
      return Mode::Direct;
    }
    ensure();
    if (!ready()) return Mode::Direct;
  }
  const PatternClass klass = pattern_class(pat);
  const int lb = log2_floor(std::max<std::uint64_t>(1, bytes));
  const TuneChoice* best = nullptr;
  int best_dist = 0;
  for (const TuneChoice& c : table_.choices) {
    if (c.klass != klass) continue;
    const int dist = std::abs(c.log2_bytes - lb);
    if (best == nullptr || dist < best_dist) {
      best = &c;
      best_dist = dist;
    }
  }
  if (best == nullptr) return Mode::Direct;
  return static_cast<Mode>(best->chosen);
}

int Tuner::blocks_for(CommPattern pat, std::uint64_t bytes) const {
  if (!ready()) return 0;
  const PatternClass klass = pattern_class(pat);
  const int lb = log2_floor(std::max<std::uint64_t>(1, bytes));
  const TuneChoice* best = nullptr;
  int best_dist = 0;
  for (const TuneChoice& c : table_.choices) {
    if (c.klass != klass) continue;
    const int dist = std::abs(c.log2_bytes - lb);
    if (best == nullptr || dist < best_dist) {
      best = &c;
      best_dist = dist;
    }
  }
  return best != nullptr ? best->blocks : 0;
}

index_t tuned_blocks(CommPattern pat, std::uint64_t bytes, index_t fallback) {
  if (forced_blocks > 0) return static_cast<index_t>(forced_blocks);
  if (!auto_enabled()) return fallback;
  const int b = Tuner::instance().blocks_for(pat, bytes);
  if (b <= 0) return fallback;
  const int p = Machine::instance().vps();
  return static_cast<index_t>(std::clamp(b, 1, std::max(1, p)));
}

}  // namespace dpf::net
