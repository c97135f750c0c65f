#pragma once

/// \file result_store.hpp
/// Content-addressed benchmark result store.
///
/// A benchmark run is a pure function of its configuration: the suite's
/// kernels are deterministic (bit-identical across DPF_NET modes and
/// SIMD toggles by construction), so a result can be served from a
/// store keyed by everything that feeds the computation:
///
///   (benchmark, code version, vps, workers, net mode, simd flag,
///    resolved params, engine version)
///
/// The address is the FNV-1a hash of the key's canonical JSON (sorted
/// keys, exact doubles), in the spirit of HPCC_FPGA's machine-readable,
/// configuration-keyed result records. The engine-version tag folds the
/// code generation into the address so a rebuilt daemon never serves a
/// stale result from a previous engine.
///
/// Records carry the benchmark's check values twice: as %.17g numbers for
/// humans and as raw IEEE-754 bit patterns (hex) for the bit-identity
/// guarantee, plus an FNV-1a checksum over those patterns that clients can
/// verify end-to-end. Cache hits are bit-identical to the run that
/// produced them by construction — the record IS that run's output.
///
/// The store is two-level: an in-memory map (shared_ptr records, so a hit
/// costs one lock + one refcount) over an optional on-disk directory of
/// <address>.json files that survives daemon restarts.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "serve/json.hpp"

namespace dpf::serve {

/// Engine-version tag folded into every content address. Bump whenever a
/// change can alter any benchmark's output bits (new kernels, changed
/// reduction order, ...) so persisted results from older engines miss.
[[nodiscard]] const char* engine_version();

/// Everything that determines a benchmark's output bits.
struct ResultKey {
  std::string benchmark;
  std::string version = "basic";           ///< Table 1 code version
  int vps = 0;
  int workers = 0;
  std::string net_mode = "direct";         ///< DPF_NET
  bool simd = true;                        ///< DPF_SIMD
  std::map<std::string, long long> params; ///< resolved (defaults merged)

  [[nodiscard]] Json to_json() const;

  /// Canonical content address: hex64 of fnv1a(to_json().dump() with the
  /// engine-version tag folded in).
  [[nodiscard]] std::string address() const;
};

/// One stored run.
struct ResultRecord {
  ResultKey key;
  std::map<std::string, double> checks;    ///< bit-exact validation values
  Json metrics;                            ///< serialized Metrics summary
  Json segments;                           ///< per-segment metrics (object)
  double cold_elapsed_seconds = 0.0;       ///< wall time of the producing run
  std::uint64_t checksum = 0;              ///< fnv1a over check names + bits
  int exit_code = 0;                       ///< dpfrun-compatible exit status

  /// Checksum over the checks map: names and raw double bit patterns, in
  /// map (sorted) order. Bit-identical runs produce equal checksums.
  [[nodiscard]] static std::uint64_t checksum_checks(
      const std::map<std::string, double>& checks);

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static bool from_json(const Json& j, ResultRecord* out);
};

class ResultStore {
 public:
  /// `dir` empty = memory-only. Otherwise records persist as
  /// <dir>/<address>.json (dir is created if missing) and get() falls
  /// back to disk on a memory miss, so a restarted daemon keeps its
  /// result history.
  explicit ResultStore(std::string dir = {});

  /// Returns the record at `key`'s address, or null on a miss. A disk hit
  /// is promoted into memory. Records whose stored engine tag differs
  /// from engine_version() are ignored (and count as misses).
  [[nodiscard]] std::shared_ptr<const ResultRecord> get(const ResultKey& key);

  /// Inserts (or overwrites) the record at its key's address, writing the
  /// on-disk file when a directory is configured.
  void put(const ResultRecord& record);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t disk_loads = 0;  ///< subset of hits served from disk
    std::uint64_t entries = 0;     ///< records currently in memory
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ResultRecord>> mem_;
  Stats stats_;
};

}  // namespace dpf::serve
