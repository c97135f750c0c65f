#pragma once

/// \file tune.hpp
/// Cost-model-driven autotuning of the collective dispatch (`DPF_NET=auto`).
///
/// The paper's central observation is that the right communication strategy
/// depends on (pattern, message size, p): small shifts want the direct
/// shared-memory formulation, large personalized exchanges want the
/// message-passing engine, and stencil-shaped traffic wants the split-phase
/// overlap. The manual knobs (DPF_NET, pipeline block counts, DPF_SIMD)
/// expose that choice; the tuner makes it.
///
/// At calibration time, Tuner::ensure() prices every (pattern class, size
/// bucket) cell with the fat-tree CostModel and cross-checks the
/// predictions against short measured probes — real collectives on
/// temporary arrays, run once per candidate mode under a forced ScopedMode
/// with CommLog recording suppressed. The resulting decision table is keyed
/// by the machine configuration (vps|workers), so a process probes at most
/// once per configuration.
///
/// Dispatch: every comm primitive calls net::mode_for(pattern, bytes) at
/// the top; under DPF_NET=auto that routes here (Tuner::choose). Every
/// selectable path is proven bit-identical by the three-mode equivalence
/// battery, so tuning changes cost, never checksums.

#include <cstdint>
#include <string>
#include <vector>

#include "core/comm_log.hpp"
#include "core/types.hpp"

namespace dpf::net {

enum class Mode;  // defined in net.hpp; forward-declared to avoid a cycle

/// The tuning space collapses the 17 CommPattern values into four classes
/// with genuinely different cost shapes:
///   Shift          nearest-neighbour boundary motion (stencils, cshift)
///   Tree           root-to-leaves / leaves-to-root (reduce, broadcast, scan)
///   Exchange       all-to-all personalized (transpose, butterfly, sort)
///   GatherScatter  router-classified irregular motion (gather, scatter)
enum class PatternClass : std::uint8_t { Shift, Tree, Exchange, GatherScatter };

inline constexpr int kPatternClassCount = 4;

[[nodiscard]] PatternClass pattern_class(CommPattern pat);

[[nodiscard]] const char* pattern_class_name(PatternClass c);

/// Number of modes a cell chooses between (direct, algorithmic, overlap).
inline constexpr int kTuneModes = 3;

/// One cell of the decision table: the winning mode for a (pattern class,
/// size bucket) pair, with the evidence (per-mode measured probe times and
/// cost-model predictions, seconds) kept for `dpfrun --report tune`.
struct TuneChoice {
  PatternClass klass = PatternClass::Shift;
  /// Size bucket: probes run at two representative payloads per class;
  /// dispatch picks the cell whose log2(bytes) is nearest.
  int log2_bytes = 0;
  int chosen = 0;  ///< static_cast<int>(Mode): 0 direct, 1 algorithmic, 2 overlap
  /// Pipelined in-flight block count for the Exchange class (0 = keep the
  /// engine's default heuristic).
  int blocks = 0;
  double measured[kTuneModes] = {0.0, 0.0, 0.0};
  double predicted[kTuneModes] = {0.0, 0.0, 0.0};
};

/// The decision table for one configuration signature.
struct TuneTable {
  std::vector<TuneChoice> choices;
  /// SIMD recommendation from the kernel probe. Advisory: dispatch never
  /// flips vec mode behind the caller's back — dpfrun applies it only when
  /// DPF_SIMD is unset.
  bool simd_on = true;
  double simd_ratio = 1.0;  ///< t_scalar / t_simd from the probe
};

/// Process-wide tuner. Control thread only (like the collectives and the
/// cost model it builds on).
class Tuner {
 public:
  static Tuner& instance();

  /// The configuration a decision table is valid for: "vps=N|workers=M".
  [[nodiscard]] static std::string config_signature();

  /// True when a decision table for the *current* configuration signature
  /// is installed.
  [[nodiscard]] bool ready() const;

  /// Builds the decision table for the current configuration by probing,
  /// unless one is already installed (ready()) — probes run at most once
  /// per configuration. Calibrates the cost model first if needed. No-op
  /// while a probe is already in flight or inside an SPMD region.
  void ensure();

  /// Installs a handcrafted table for the current configuration signature,
  /// skipping the probes (tests pin dispatch through it).
  void install(const TuneTable& table);

  /// Drops the installed table (tests; configuration teardown).
  void invalidate();

  /// The installed table (empty when !ready()).
  [[nodiscard]] const TuneTable& table() const { return table_; }

  /// The tuned mode for one dispatch: nearest size bucket of the pattern's
  /// class. Falls back to Direct when no table is installed and one cannot
  /// be built right now (mid-region, or probes already in flight).
  [[nodiscard]] Mode choose(CommPattern pat, std::uint64_t bytes);

  /// The tuned pipelined block count for one exchange (0 = no opinion).
  [[nodiscard]] int blocks_for(CommPattern pat, std::uint64_t bytes) const;

 private:
  Tuner() = default;

  TuneTable table_;
  std::string signature_;  ///< signature table_ was built/installed for
  bool ensuring_ = false;  ///< re-entrancy latch: probes call collectives
};

/// The pipelined block count a split-phase exchange should use: the tuned
/// value under DPF_NET=auto when the table has an opinion, else `fallback`
/// (the engine's static heuristic). Clamped to [1, fallback's legal range]
/// by the caller's own pipeline maths.
[[nodiscard]] index_t tuned_blocks(CommPattern pat, std::uint64_t bytes,
                                   index_t fallback);

}  // namespace dpf::net
