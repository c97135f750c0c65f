#include "net/net.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/machine.hpp"
#include "net/cost_model.hpp"
#include "net/local_transport.hpp"
#include "net/tune.hpp"

namespace dpf::net {
namespace {

std::atomic<std::uint64_t> tag_counter{1};

LocalTransport& local_transport() {
  static LocalTransport t(Machine::instance().vps());
  return t;
}

void reconfigure_hook(int vps) { local_transport().resize(vps); }

}  // namespace

namespace {

/// Innermost ScopedMode override for this thread; -1 when none is active.
/// Thread-local rather than global: probe threads and the control thread
/// must not see each other's decisions.
thread_local int mode_override = -1;

}  // namespace

Mode mode() {
  if (mode_override >= 0) return static_cast<Mode>(mode_override);
  const char* s = std::getenv("DPF_NET");
  if (s != nullptr && *s != '\0') {
    if (std::strcmp(s, "algorithmic") == 0) return Mode::Algorithmic;
    if (std::strcmp(s, "overlap") == 0) return Mode::Overlap;
    if (std::strcmp(s, "direct") != 0 && std::strcmp(s, "auto") != 0) {
      // A set-but-unrecognized mode is rejected *loudly*, once: a silent
      // fall back to direct would quietly skip the transport paths the
      // caller asked to exercise (e.g. DPF_NET=overlop). "auto" stays
      // silent: outside a ScopedMode (i.e. outside any collective) the
      // tuned session's ambient mode is direct by design.
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "dpf: ignoring DPF_NET=\"%s\" (expected "
                     "direct|algorithmic|overlap|auto); using default "
                     "direct\n",
                     s);
      }
    }
  }
  return Mode::Direct;
}

bool auto_enabled() {
  const char* s = std::getenv("DPF_NET");
  return s != nullptr && std::strcmp(s, "auto") == 0;
}

Mode mode_for(CommPattern pattern, std::uint64_t bytes) {
  if (mode_override >= 0) return static_cast<Mode>(mode_override);
  if (!auto_enabled()) return mode();
  return Tuner::instance().choose(pattern, bytes);
}

const char* mode_label() {
  return auto_enabled() ? "auto" : mode_name(mode());
}

ScopedMode::ScopedMode(Mode m) : prev_(mode_override) {
  mode_override = static_cast<int>(m);
}

ScopedMode::~ScopedMode() { mode_override = prev_; }

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Direct: return "direct";
    case Mode::Algorithmic: return "algorithmic";
    case Mode::Overlap: return "overlap";
  }
  return "?";
}

LocalTransport& transport() {
  static bool hook_installed = [] {
    Machine::instance().set_reconfigure_hook(&reconfigure_hook);
    return true;
  }();
  (void)hook_installed;
  LocalTransport& t = local_transport();
  // The machine may have been reconfigured before the hook existed.
  const int vps = Machine::instance().vps();
  if (t.endpoints() != vps) t.resize(vps);
  return t;
}

std::uint64_t next_tag() {
  return tag_counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_tags(std::uint64_t count) {
  return tag_counter.fetch_add(count, std::memory_order_relaxed);
}

void annotate(CommEvent& e) {
  Machine& m = Machine::instance();
  const int p = m.vps();
  CostModel& model = CostModel::instance();
  e.hops = static_cast<int>(model.pattern_hops(e.pattern, p) + 0.5);
  if (model.calibrated()) {
    e.predicted_seconds = model.predict(e, p, m.workers(), algorithmic());
  }
}

void calibrate(bool force) { CostModel::instance().calibrate(force); }

}  // namespace dpf::net
