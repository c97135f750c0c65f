#pragma once

/// \file calibration_cache.hpp
/// Persisted cost-model and peak-FLOPs calibration, keyed by machine
/// configuration.
///
/// The expensive per-invocation work of a one-shot dpfrun is not the
/// benchmark — it is the probing around it: the peak-MFLOPS microkernel
/// (~hundreds of ms) and the four cost-model probes (alpha ping-pong, beta
/// copy sweep, gamma ownership scan, delta real exchange). All of these are
/// stable machine properties per (vps, workers) — OMI4papps' observation that
/// modelling constants persist across runs — so the daemon measures each
/// configuration once and every later job installs the memoized values:
///
///   prime()    before a job: if the current (vps, workers) has an
///              entry, install it into CostModel + Machine and skip every
///              probe. Returns true on that hit.
///   capture()  after a cold calibration: read the freshly probed values
///              back out of CostModel + Machine into the cache (and the
///              on-disk file, when configured).
///
/// The on-disk form is one calibration.json per cache directory holding
/// every configuration measured so far; a restarted daemon (or a fresh
/// dpfrun pointed at the same cache dir) starts warm. Entries are keyed by
/// hostname too, so a cache directory on shared storage never crosses
/// machines.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "net/cost_model.hpp"
#include "net/tune.hpp"

namespace dpf::serve {

class CalibrationCache {
 public:
  /// `dir` empty = in-memory only; otherwise loads <dir>/calibration.json
  /// (if present) and persists every capture() back to it.
  explicit CalibrationCache(std::string dir = {});

  /// If the cache holds an entry for the *current* configuration (Machine
  /// vps/workers), installs it: CostModel::set_params
  /// plus Machine::set_peak_mflops, and flags the install as cache-served
  /// (net::set_calibration_from_cache). Returns true on that hit.
  [[nodiscard]] bool prime();

  /// Captures the current CostModel params and Machine peak for the
  /// current configuration into the cache. Call after a cold
  /// net::calibrate(force) + peak_mflops() pass; counts one probe.
  void capture();

  struct Stats {
    std::uint64_t hits = 0;    ///< prime() installs that skipped probing
    std::uint64_t probes = 0;  ///< capture() calls (cold calibrations)
    std::uint64_t entries = 0; ///< configurations known
  };
  [[nodiscard]] Stats stats() const;

  /// Entry count currently known (loaded + captured).
  [[nodiscard]] std::size_t entries() const;

 private:
  struct Entry {
    net::CostModel::Params params;
    double peak_mflops = 0.0;
    /// Autotuner decision table (tentatively present: only configurations
    /// calibrated under DPF_NET=auto carry one). The persisted form folds
    /// the engine version in; load drops tables from a different engine —
    /// the decision evidence is stale — while keeping the cost-model
    /// params, which are hardware properties.
    bool has_tune = false;
    net::TuneTable tune;
  };

  [[nodiscard]] static std::string current_config_key();
  void load_locked();
  void save_locked();

  std::string dir_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace dpf::serve
