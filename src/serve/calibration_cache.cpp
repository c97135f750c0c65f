#include "serve/calibration_cache.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/machine.hpp"
#include "net/net.hpp"
#include "serve/json.hpp"
#include "serve/result_store.hpp"

namespace dpf::serve {
namespace {

std::string hostname() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof buf - 1) != 0) return "unknown-host";
  return buf;
}

Json params_to_json(const net::CostModel::Params& p, double peak) {
  Json j(Json::Object{});
  j.set("alpha", p.alpha)
      .set("beta", p.beta)
      .set("gamma", p.gamma)
      .set("delta", p.delta)
      .set("radix", p.radix)
      .set("contention", p.contention)
      .set("peak_mflops", peak);
  return j;
}

/// The autotuner decision table, with the engine version folded in so a
/// table probed by one engine build never drives another's dispatch.
Json tune_to_json(const net::TuneTable& t) {
  Json choices(Json::Array{});
  for (const net::TuneChoice& c : t.choices) {
    Json jc(Json::Object{});
    jc.set("class", static_cast<long long>(c.klass))
        .set("log2_bytes", static_cast<long long>(c.log2_bytes))
        .set("chosen", static_cast<long long>(c.chosen))
        .set("blocks", static_cast<long long>(c.blocks));
    Json measured(Json::Array{});
    Json predicted(Json::Array{});
    for (int m = 0; m < net::kTuneModes; ++m) {
      measured.push_back(c.measured[m]);
      predicted.push_back(c.predicted[m]);
    }
    jc.set("measured", std::move(measured))
        .set("predicted", std::move(predicted));
    choices.push_back(std::move(jc));
  }
  Json j(Json::Object{});
  j.set("engine", engine_version())
      .set("simd_on", t.simd_on)
      .set("simd_ratio", t.simd_ratio)
      .set("choices", std::move(choices));
  return j;
}

/// Parses a persisted decision table. Returns false — drop the table, keep
/// the entry — when the engine version differs or the shape is wrong.
bool tune_from_json(const Json& j, net::TuneTable* out) {
  if (!j.is_object()) return false;
  if (j["engine"].as_string() != engine_version()) return false;
  if (!j["choices"].is_array()) return false;
  net::TuneTable t;
  t.simd_on = j["simd_on"].as_bool(true);
  t.simd_ratio = j["simd_ratio"].as_number(1.0);
  for (const Json& jc : j["choices"].as_array()) {
    net::TuneChoice c;
    const long long klass = jc["class"].as_int(-1);
    if (klass < 0 || klass >= net::kPatternClassCount) return false;
    c.klass = static_cast<net::PatternClass>(klass);
    c.log2_bytes = static_cast<int>(jc["log2_bytes"].as_int(0));
    const long long chosen = jc["chosen"].as_int(-1);
    if (chosen < 0 || chosen >= net::kTuneModes) return false;
    c.chosen = static_cast<int>(chosen);
    c.blocks = static_cast<int>(jc["blocks"].as_int(0));
    if (jc["measured"].is_array() && jc["predicted"].is_array()) {
      const auto& meas = jc["measured"].as_array();
      const auto& pred = jc["predicted"].as_array();
      for (int m = 0; m < net::kTuneModes; ++m) {
        if (m < static_cast<int>(meas.size())) {
          c.measured[m] = meas[static_cast<std::size_t>(m)].as_number();
        }
        if (m < static_cast<int>(pred.size())) {
          c.predicted[m] = pred[static_cast<std::size_t>(m)].as_number();
        }
      }
    }
    t.choices.push_back(c);
  }
  if (t.choices.empty()) return false;
  *out = std::move(t);
  return true;
}

}  // namespace

CalibrationCache::CalibrationCache(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    ::mkdir(dir_.c_str(), 0755);
    std::lock_guard<std::mutex> lock(mu_);
    load_locked();
  }
}

std::string CalibrationCache::current_config_key() {
  Machine& m = Machine::instance();
  return hostname() + "|vps=" + std::to_string(m.vps()) +
         "|workers=" + std::to_string(m.workers());
}

bool CalibrationCache::prime() {
  const std::string key = current_config_key();
  Entry e;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    e = it->second;
    ++stats_.hits;
  }
  net::CostModel::instance().set_params(e.params);
  Machine::instance().set_peak_mflops(e.peak_mflops);
  net::set_calibration_from_cache(true);
  // A persisted decision table rides the same entry: installing it means
  // the tuner's probes run at most once per configuration, daemon restarts
  // included.
  if (e.has_tune) net::Tuner::instance().install(e.tune);
  return true;
}

void CalibrationCache::capture() {
  Entry e;
  e.params = net::CostModel::instance().params();
  // peak_mflops() is lazily calibrated; reading it here runs the probe if
  // the executor has not already paid for it.
  e.peak_mflops = Machine::instance().peak_mflops();
  // A decision table built for this configuration persists with it.
  if (net::Tuner::instance().ready()) {
    e.has_tune = true;
    e.tune = net::Tuner::instance().table();
  }
  const std::string key = current_config_key();
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key] = e;
  ++stats_.probes;
  stats_.entries = entries_.size();
  if (!dir_.empty()) save_locked();
}

CalibrationCache::Stats CalibrationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

std::size_t CalibrationCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void CalibrationCache::load_locked() {
  std::ifstream in(dir_ + "/calibration.json");
  if (!in) return;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  const Json doc = Json::parse(buf.str(), &err);
  if (!err.empty() || !doc["configs"].is_object()) return;
  for (const auto& [key, j] : doc["configs"].as_object()) {
    Entry e;
    e.params.alpha = j["alpha"].as_number();
    e.params.beta = j["beta"].as_number();
    e.params.gamma = j["gamma"].as_number();
    e.params.delta = j["delta"].as_number();
    e.params.radix = static_cast<int>(j["radix"].as_int(4));
    e.params.contention = j["contention"].as_number(0.33);
    e.peak_mflops = j["peak_mflops"].as_number();
    if (j.contains("tune")) {
      e.has_tune = tune_from_json(j["tune"], &e.tune);
    }
    // Zero or negative constants would make every prediction degenerate;
    // a corrupt entry is dropped, forcing a clean re-probe.
    if (e.params.alpha > 0.0 && e.params.beta > 0.0 && e.peak_mflops > 0.0) {
      entries_[key] = e;
    }
  }
  stats_.entries = entries_.size();
}

void CalibrationCache::save_locked() {
  Json::Object configs;
  for (const auto& [key, e] : entries_) {
    Json j = params_to_json(e.params, e.peak_mflops);
    if (e.has_tune) j.set("tune", tune_to_json(e.tune));
    configs[key] = std::move(j);
  }
  Json doc(Json::Object{});
  doc.set("schema_version", 2).set("configs", Json(std::move(configs)));
  const std::string path = dir_ + "/calibration.json";
  const std::string tmp = path + ".tmp";
  if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
    const std::string text = doc.dump();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (ok) {
      std::rename(tmp.c_str(), path.c_str());
    } else {
      std::remove(tmp.c_str());
    }
  }
}

}  // namespace dpf::serve
