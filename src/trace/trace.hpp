#pragma once

/// \file trace.hpp
/// dpf::trace — per-VP timeline tracing of the machine.
///
/// The paper's methodology is measurement, but end-of-run aggregates
/// (Metrics, CommLog) cannot show *where inside a run* the busy time, load
/// imbalance, or cost-model error live. This subsystem records a timeline of
/// events per machine worker and exports it as a Chrome trace-event JSON
/// (chrome_export.hpp, loadable in Perfetto / chrome://tracing) or a
/// terminal per-phase summary (summary.hpp).
///
/// Design constraints (see DESIGN.md "Tracing"):
///
///   * Always compiled, runtime-toggled: DPF_TRACE=off|summary|full.
///     `summary` records SPMD region spans, per-worker VP-chunk spans and
///     collective events; `full` adds transport post/fetch spans and
///     TemporaryPool marks.
///   * Each worker thread owns one fixed-capacity ring buffer; the worker is
///     the ring's only writer, so the hot path is one monotonic-clock read
///     plus one relaxed slot store and one release head store — no locks, no
///     allocation. On overflow the ring drops its *oldest* events and counts
///     them (surfaced by the summary exporter).
///   * Rings are flushed once, at collection time, by the control thread
///     while the machine is quiescent (no SPMD region executing). The
///     happens-before edge is the release/acquire pair on each ring head.
///
/// Timestamps are steady-clock nanoseconds, shared with the machine's busy
/// accounting so chunk spans reuse the clock reads the busy timer already
/// pays for.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace dpf::trace {

/// Runtime tracing level, from the DPF_TRACE environment variable.
enum class Mode : int { Off = 0, Summary = 1, Full = 2 };

/// Parses a DPF_TRACE value ("off"|"summary"|"full", unknown = Off).
[[nodiscard]] Mode parse_mode(const char* s) noexcept;

/// Current mode (first call reads DPF_TRACE).
[[nodiscard]] Mode mode();

/// Overrides the mode at runtime (dpfrun --trace / --report trace).
void set_mode(Mode m);

/// What a recorded event describes.
enum class EventKind : std::uint8_t {
  Region,       ///< one top-level SPMD region (dispatcher worker)
  Chunk,        ///< one claimed VP chunk executed by a worker
  Collective,   ///< one CommEvent, joined at record time
  Post,         ///< transport post span (full mode)
  Fetch,        ///< transport fetch span (full mode)
  PoolAcquire,  ///< TemporaryPool acquire mark (full mode, instant)
  PoolRelease,  ///< TemporaryPool release mark (full mode, instant)
  Overlap,      ///< split-phase in-flight window (post done -> completion)
};

/// One timeline event. Field use by kind:
///   Region      t0/t1 span, serial, arg = VP count
///   Chunk       t0/t1 span, serial, x/y = [vp_begin, vp_end)
///   Collective  t0/t1 span (t1-t0 = measured primitive time), arg = bytes,
///               aux = cost-model predicted seconds, pattern, x = hops
///   Post/Fetch  t0/t1 span, arg = bytes, x = src VP, y = dst VP, serial
///   Pool*       instant (t0 == t1), arg = block capacity bytes,
///               x = 1 for cache hit (acquire) / recycle (release)
///   Overlap     t0/t1 span (the window between the end of a split-phase
///               posting phase and the start of its completion — caller
///               compute ran here), arg = bytes in flight, pattern
struct Event {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint64_t arg = 0;
  double aux = 0.0;
  std::uint32_t serial = 0;
  std::uint16_t x = 0;
  std::uint16_t y = 0;
  EventKind kind = EventKind::Region;
  std::uint8_t pattern = 0;
};

/// Fixed-capacity single-writer ring of events. The owning thread pushes;
/// the control thread snapshots at quiescence. Overflow overwrites the
/// oldest slot; `pushed() - capacity()` events have then been dropped.
class Ring {
 public:
  explicit Ring(std::size_t capacity_pow2) { reset_capacity(capacity_pow2); }

  /// Owner thread only.
  void push(const Event& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    buf_[static_cast<std::size_t>(h) & mask_] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Total events ever pushed (not clamped to capacity).
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Copies the retained events, oldest first. Control thread, machine
  /// quiescent.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Drops all events (keeps capacity). Control thread, machine quiescent.
  void clear() { head_.store(0, std::memory_order_release); }

  /// Reallocates the buffer (rounding up to a power of two) and clears.
  /// Control thread, machine quiescent.
  void reset_capacity(std::size_t capacity_pow2);

 private:
  std::vector<Event> buf_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

namespace detail {

/// Cached tracing level; -1 until the first mode() call reads DPF_TRACE.
extern std::atomic<int> g_level;
int init_level();

/// Ring of the calling thread (bound by bind_worker), or nullptr.
extern thread_local Ring* t_ring;

}  // namespace detail

/// True when tracing at `at_least` or deeper. One relaxed load — cheap
/// enough for per-chunk dispatch checks.
[[nodiscard]] inline bool enabled(Mode at_least) {
  int l = detail::g_level.load(std::memory_order_relaxed);
  if (l < 0) l = detail::init_level();
  return l >= static_cast<int>(at_least);
}

/// Steady-clock nanoseconds — the subsystem's time base.
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Binds the calling thread to worker `w`'s ring, creating it on first use.
/// Called by the machine for the dispatching thread (worker 0) and by every
/// pool helper at thread start; rings persist across reconfigures.
void bind_worker(int w);

/// Pushes onto the calling thread's ring; events from unbound threads are
/// counted (see Snapshot::unbound_events) instead of recorded.
void emit(const Event& e);

// --- instrumentation hooks ------------------------------------------------

/// One top-level SPMD region on the dispatching thread.
void region(std::uint64_t serial, std::uint64_t t0_ns, std::uint64_t t1_ns,
            int vps);

/// One executed VP chunk. Inline: called per chunk inside region dispatch.
inline void chunk(std::uint64_t serial, std::uint64_t t0_ns,
                  std::uint64_t t1_ns, int vp_begin, int vp_end) {
  Event e;
  e.kind = EventKind::Chunk;
  e.t0_ns = t0_ns;
  e.t1_ns = t1_ns;
  e.serial = static_cast<std::uint32_t>(serial);
  e.x = static_cast<std::uint16_t>(vp_begin);
  e.y = static_cast<std::uint16_t>(vp_end);
  emit(e);
}

/// One collective, joined with its CommEvent fields at record time. The
/// span is reconstructed from the primitive's measured wall time (an
/// instant mark when untimed).
void collective(std::uint8_t pattern, std::uint64_t bytes, double seconds,
                double predicted_seconds, int hops, std::uint64_t serial);

/// One transport post (post = true) or successful fetch span.
void transport_span(bool post, int src, int dst, std::uint64_t bytes,
                    std::uint64_t t0_ns, std::uint64_t t1_ns,
                    std::uint64_t serial);

/// One split-phase overlap window: `bytes` sat in the mailboxes from t0
/// (end of the posting phase) to t1 (start of completion) while the caller
/// ran compute. Recorded at Summary level alongside the collective events,
/// so a timeline shows exactly which compute the messages hid behind.
void overlap_span(std::uint8_t pattern, std::uint64_t bytes,
                  std::uint64_t t0_ns, std::uint64_t t1_ns,
                  std::uint64_t serial);

/// One TemporaryPool acquire/release mark. `reused` flags a cache hit
/// (acquire) or a recycled block (release).
void pool_mark(bool acquire, std::uint64_t capacity_bytes, bool reused);

// --- collection -----------------------------------------------------------

/// The flushed timeline of one worker.
struct WorkerTrace {
  int worker = 0;
  std::uint64_t dropped = 0;  ///< events lost to ring overflow
  std::vector<Event> events;  ///< oldest first
};

/// A point-in-time flush of every ring.
struct Snapshot {
  std::vector<WorkerTrace> workers;  ///< indexed by worker id
  std::uint64_t unbound_events = 0;  ///< emits from unregistered threads

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped_count() const;
};

/// Flushes every ring. Control thread, machine quiescent.
[[nodiscard]] Snapshot collect();

/// Clears every ring and the unbound counter. Control thread, quiescent.
void reset();

/// Resizes every ring (rounded up to a power of two, min 64 events) and
/// clears them; later-created rings use the same capacity. Control thread,
/// quiescent. Default capacity: DPF_TRACE_CAP if set, else 32768.
void set_ring_capacity(std::size_t events);

}  // namespace dpf::trace
