#include "serve/result_store.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dpf::serve {

const char* engine_version() {
  // Hand-bumped tag naming the engine generation whose output bits this
  // build produces. PR-level granularity is the right knife: any PR that
  // can change a result bit bumps it, and persisted records from older
  // engines stop matching addresses.
  return "dpf-engine-9";
}

Json ResultKey::to_json() const {
  Json::Object params_obj;
  for (const auto& [k, v] : params) params_obj[k] = Json(v);
  Json j(Json::Object{});
  j.set("benchmark", benchmark)
      .set("version", version)
      .set("vps", vps)
      .set("workers", workers)
      .set("net_mode", net_mode)
      .set("simd", simd)
      .set("params", Json(std::move(params_obj)))
      .set("engine", engine_version());
  return j;
}

std::string ResultKey::address() const {
  return hex64(fnv1a(to_json().dump()));
}

std::uint64_t ResultRecord::checksum_checks(
    const std::map<std::string, double>& checks) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : checks) {
    h = fnv1a(name, h);
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    __builtin_memcpy(&bits, &value, sizeof bits);
    char raw[8];
    __builtin_memcpy(raw, &bits, sizeof raw);
    h = fnv1a(std::string_view(raw, sizeof raw), h);
  }
  return h;
}

Json ResultRecord::to_json() const {
  Json::Object checks_obj;
  for (const auto& [name, value] : checks) {
    Json entry(Json::Object{});
    entry.set("bits", double_to_hex(value)).set("value", value);
    checks_obj[name] = std::move(entry);
  }
  Json j(Json::Object{});
  j.set("key", key.to_json())
      .set("checks", Json(std::move(checks_obj)))
      .set("metrics", metrics)
      .set("segments", segments)
      .set("cold_elapsed_s", cold_elapsed_seconds)
      .set("checksum", hex64(checksum))
      .set("exit", exit_code)
      .set("schema_version", 2);
  return j;
}

bool ResultRecord::from_json(const Json& j, ResultRecord* out) {
  if (!j.is_object() || !j["key"].is_object()) return false;
  const Json& k = j["key"];
  out->key.benchmark = k["benchmark"].as_string();
  out->key.version = k["version"].as_string();
  out->key.vps = static_cast<int>(k["vps"].as_int());
  out->key.workers = static_cast<int>(k["workers"].as_int());
  out->key.net_mode = k["net_mode"].as_string();
  out->key.simd = k["simd"].as_bool(true);
  out->key.params.clear();
  for (const auto& [name, v] : k["params"].as_object()) {
    out->key.params[name] = v.as_int();
  }
  // The engine tag must match this build: a record produced by an older
  // engine may encode different bits for the same key fields.
  if (k["engine"].as_string() != engine_version()) return false;
  out->checks.clear();
  for (const auto& [name, entry] : j["checks"].as_object()) {
    double value = 0.0;
    // The hex bit pattern is authoritative; the decimal field is for
    // humans reading the store file.
    if (!double_from_hex(entry["bits"].as_string(), &value)) {
      value = entry["value"].as_number();
    }
    out->checks[name] = value;
  }
  out->metrics = j["metrics"];
  out->segments = j["segments"];
  out->cold_elapsed_seconds = j["cold_elapsed_s"].as_number();
  out->exit_code = static_cast<int>(j["exit"].as_int());
  std::uint64_t sum = 0;
  if (!parse_hex64(j["checksum"].as_string(), &sum)) return false;
  out->checksum = sum;
  // Integrity: a corrupted or hand-edited record must not be served as
  // bit-identical.
  return sum == checksum_checks(out->checks);
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine; failures degrade to memory-only writes
  }
}

std::shared_ptr<const ResultRecord> ResultStore::get(const ResultKey& key) {
  const std::string addr = key.address();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = mem_.find(addr);
    if (it != mem_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  if (!dir_.empty()) {
    std::ifstream in(dir_ + "/" + addr + ".json");
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      auto rec = std::make_shared<ResultRecord>();
      std::string err;
      const Json j = Json::parse(buf.str(), &err);
      if (err.empty() && ResultRecord::from_json(j, rec.get()) &&
          rec->key.address() == addr) {
        std::lock_guard<std::mutex> lock(mu_);
        mem_[addr] = rec;
        ++stats_.hits;
        ++stats_.disk_loads;
        stats_.entries = mem_.size();
        return rec;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  return nullptr;
}

void ResultStore::put(const ResultRecord& record) {
  const std::string addr = record.key.address();
  auto rec = std::make_shared<ResultRecord>(record);
  {
    std::lock_guard<std::mutex> lock(mu_);
    mem_[addr] = rec;
    stats_.entries = mem_.size();
  }
  if (!dir_.empty()) {
    // Write-then-rename so a crashed daemon never leaves a torn record at
    // a valid address.
    const std::string path = dir_ + "/" + addr + ".json";
    const std::string tmp = path + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "w")) {
      const std::string text = rec->to_json().dump();
      const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                      text.size();
      std::fclose(f);
      if (ok) {
        std::rename(tmp.c_str(), path.c_str());
      } else {
        std::remove(tmp.c_str());
      }
    }
  }
}

ResultStore::Stats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dpf::serve
