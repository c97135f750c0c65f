#pragma once

/// \file job_queue.hpp
/// Bounded, client-fair benchmark job queue with admission control.
///
/// Admission control is reject-with-reason, never block: a full daemon
/// tells the client *why* (global queue full vs per-client quota vs
/// draining) in the rejection frame, so clients can back off or route
/// elsewhere instead of hanging on a connect.
///
/// Fairness is round-robin across clients, not FIFO across jobs: each
/// client name owns a sub-queue, and pop() serves the next non-empty
/// client after the last one served. A client that dumps 50 jobs cannot
/// starve one that submits a single run — the single run departs at worst
/// one full rotation later. Per-client quotas bound how much of the global
/// queue one client can hold.
///
/// The queue also owns job-id assignment and queued-job cancellation;
/// cancellation of a *running* job is the executor's business (it checks
/// Job::cancelled between benchmarks of a suite job).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dpf::serve {

class ClientConn;  // server.hpp; jobs stream frames to their submitter

/// One submitted job: a single benchmark run or a suite (list) of runs.
struct Job {
  std::uint64_t id = 0;
  std::string client;                       ///< fairness + accounting key
  std::vector<std::string> benchmarks;      ///< >1 = suite job
  std::string version = "basic";
  int vps = 0;                              ///< 0 = daemon default
  std::map<std::string, long long> params;
  /// Job-scoped environment-knob snapshot (DPF_NET, DPF_SIMD,
  /// DPF_WORKERS): applied for the duration of the job, restored after.
  std::map<std::string, std::string> knobs;
  bool no_cache = false;                    ///< bypass the result store
  bool trace_summary = false;               ///< stream a trace-summary frame
  double timeout_seconds = 0.0;             ///< 0 = none; queue+run deadline
  double submitted_monotonic = 0.0;         ///< steady-clock submit stamp
  std::shared_ptr<ClientConn> reply;        ///< null = detached (fire-and-forget)
  std::atomic<bool> cancelled{false};
};

class JobQueue {
 public:
  enum class Admit { Ok, QueueFull, ClientQuota, Draining };

  /// `depth` bounds the total queued jobs; `per_client` bounds one
  /// client's share of it.
  explicit JobQueue(std::size_t depth = 64, std::size_t per_client = 16);

  /// Admission check + enqueue. On success assigns job->id. On rejection
  /// returns the reason (reason_string() spells it for the wire).
  Admit push(const std::shared_ptr<Job>& job);

  /// Blocks for the next job in client round-robin order. Returns null
  /// only after drain() once every queued job has been handed out.
  [[nodiscard]] std::shared_ptr<Job> pop();

  /// Cancels a queued job (removes it). False if unknown or already
  /// handed to the executor — the executor honors Job::cancelled for
  /// not-yet-started suite members, so the flag is set either way.
  bool cancel(std::uint64_t id);

  /// Stops admission; pop() drains the remaining jobs then returns null.
  void drain();

  [[nodiscard]] bool draining() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t depth_limit() const { return depth_; }

  [[nodiscard]] static const char* reason_string(Admit a);

 private:
  const std::size_t depth_;
  const std::size_t per_client_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Per-client sub-queues in rotation order. Entries persist after a
  /// client empties (cheap, keeps rotation stable); rotation_ names the
  /// serving order and next_ the cursor.
  std::map<std::string, std::deque<std::shared_ptr<Job>>> queues_;
  std::vector<std::string> rotation_;
  std::size_t next_ = 0;
  std::size_t total_ = 0;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
};

}  // namespace dpf::serve
