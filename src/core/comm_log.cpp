#include "core/comm_log.hpp"

#include <cstdio>
#include <string>

#include "core/machine.hpp"
#include "trace/trace.hpp"

namespace dpf {

CommLog& CommLog::instance() {
  static CommLog log;
  return log;
}

void CommLog::record(const CommEvent& e) {
  // Outermost-pattern-only rule: a primitive realized through another
  // recording primitive (net collectives under a comm scope) contributes
  // its bytes to the outer pattern alone.
  if (RecordScope::depth() > 1) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_) return;
    events_.push_back(e);
  }
  // Join the event into the timeline: the trace span is reconstructed from
  // the primitive's own wall-time measurement at this single point.
  if (trace::enabled(trace::Mode::Summary)) {
    trace::collective(static_cast<std::uint8_t>(e.pattern),
                      static_cast<std::uint64_t>(e.bytes), e.seconds,
                      e.predicted_seconds, e.hops,
                      Machine::instance().region_serial());
  }
}

void CommLog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::size_t CommLog::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<CommEvent> CommLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<CommEvent> CommLog::events_since(std::size_t start) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (start >= events_.size()) return {};
  return std::vector<CommEvent>(
      events_.begin() + static_cast<std::ptrdiff_t>(start), events_.end());
}

std::map<CommKey, index_t> CommLog::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<CommKey, index_t> out;
  for (const CommEvent& e : events_) {
    ++out[CommKey{e.pattern, e.src_rank, e.dst_rank}];
  }
  return out;
}

index_t CommLog::count(CommPattern p) const {
  std::lock_guard<std::mutex> lock(mu_);
  index_t n = 0;
  for (const CommEvent& e : events_) n += (e.pattern == p);
  return n;
}

index_t CommLog::offproc_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  index_t n = 0;
  for (const CommEvent& e : events_) n += e.offproc_bytes;
  return n;
}

index_t CommLog::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  index_t n = 0;
  for (const CommEvent& e : events_) n += e.bytes;
  return n;
}

double CommLog::measured_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double s = 0.0;
  for (const CommEvent& e : events_) s += e.seconds;
  return s;
}

double CommLog::predicted_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double s = 0.0;
  for (const CommEvent& e : events_) s += e.predicted_seconds;
  return s;
}

void CommLog::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = enabled;
}

bool CommLog::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

bool CommLog::dump_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "seq,pattern,src_rank,dst_rank,bytes,offproc_bytes,detail,"
               "seconds,predicted_seconds,hops,overlap_seconds,split_phase,"
               "blocks\n");
  std::vector<CommEvent> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = events_;
  }
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const CommEvent& e = snapshot[i];
    std::fprintf(f, "%zu,%s,%d,%d,%lld,%lld,%lld,%.9f,%.9f,%d,%.9f,%d,%d\n",
                 i, std::string(to_string(e.pattern)).c_str(), e.src_rank,
                 e.dst_rank, static_cast<long long>(e.bytes),
                 static_cast<long long>(e.offproc_bytes),
                 static_cast<long long>(e.detail), e.seconds,
                 e.predicted_seconds, e.hops, e.overlap_seconds,
                 e.split_phase ? 1 : 0, e.blocks);
  }
  std::fclose(f);
  return true;
}

std::vector<CommEvent> CommScope::events() const {
  return CommLog::instance().events_since(start_);
}

std::map<CommKey, index_t> CommScope::counts() const {
  std::map<CommKey, index_t> out;
  for (const CommEvent& e : events()) {
    ++out[CommKey{e.pattern, e.src_rank, e.dst_rank}];
  }
  return out;
}

index_t CommScope::count(CommPattern p) const {
  index_t n = 0;
  for (const CommEvent& e : events()) n += (e.pattern == p);
  return n;
}

}  // namespace dpf
