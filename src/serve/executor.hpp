#pragma once

/// \file executor.hpp
/// The daemon's engine thread: one warm Machine, many jobs.
///
/// The DPF Machine is a process-wide singleton (one VP grid, one persistent
/// worker pool), so benchmark execution serializes on a single executor
/// thread that owns it — concurrency toward clients lives in the accept /
/// queue / stream layers, and the executor turns the queue's fair ordering
/// into back-to-back runs on workers that never re-spawn. That warm reuse
/// is the daemon's whole point: a one-shot dpfrun pays thread-pool spin-up,
/// peak-MFLOPS probing and cost-model calibration on every invocation; the
/// executor pays them once per configuration and then amortizes.
///
/// Per-job isolation: each job carries an environment-knob snapshot
/// (DPF_NET, DPF_SIMD, DPF_WORKERS). The executor installs the snapshot
/// before the job and restores the daemon's own environment after, between
/// jobs, while the machine workers are parked — the mode is re-read per
/// collective, so the applied snapshot fully determines the job's
/// formulation. Knobs outside this whitelist are ignored: a client cannot
/// set arbitrary daemon environment. The machine reconfigures only when (vps, DPF_WORKERS)
/// actually changes, and the calibration cache is primed per
/// (vps, workers) so probes run at most once per configuration.
///
/// Results go through the content-addressed ResultStore first: an identical
/// earlier run is streamed back without touching the machine at all.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "serve/calibration_cache.hpp"
#include "serve/job_queue.hpp"
#include "serve/result_store.hpp"

namespace dpf::serve {

class Executor {
 public:
  Executor(JobQueue& queue, ResultStore& store, CalibrationCache& calibration);
  ~Executor();

  /// Spawns the engine thread (popping jobs until the queue drains).
  void start();

  /// Joins the engine thread; returns once every queued job has run.
  /// Requires a prior JobQueue::drain() (or the pop() would block forever).
  void join();

  /// Runs one job synchronously on the calling thread — the same path the
  /// engine thread takes, exposed so tests can drive jobs without a queue.
  void run_job(Job& job);

  struct Stats {
    std::uint64_t jobs = 0;          ///< jobs completed (any outcome)
    std::uint64_t benchmarks = 0;    ///< benchmark runs served (hit or cold)
    std::uint64_t cache_hits = 0;    ///< served from the result store
    std::uint64_t cold_runs = 0;     ///< actually executed
    std::uint64_t errors = 0;        ///< unknown benchmark / bad version
    std::uint64_t cancelled = 0;     ///< jobs stopped by cancellation
    std::uint64_t timeouts = 0;      ///< jobs stopped by their deadline
    std::uint64_t reconfigures = 0;  ///< Machine::configure calls
    std::uint64_t calibrations = 0;  ///< cold calibration passes
  };
  [[nodiscard]] Stats stats() const;

 private:
  void loop();
  void ensure_machine(const Job& job);
  void ensure_calibrated();
  Json run_one(Job& job, const std::string& name, bool last);

  JobQueue& queue_;
  ResultStore& store_;
  CalibrationCache& calibration_;
  std::thread thread_;
  bool started_ = false;

  /// Worker budget (Machine::worker_budget(), i.e. the parsed, clamped
  /// DPF_WORKERS) in effect when the machine pool was last (re)built;
  /// together with Machine::vps() it decides whether a job needs a
  /// reconfigure at all. Comparing the parsed value — not the raw string —
  /// means a job knob of "abc" or "9999" reconfigures exactly when a CLI
  /// run with the same value would.
  int configured_worker_budget_ = 0;

  /// vps|workers key whose calibration is currently installed.
  std::string calibrated_key_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace dpf::serve
