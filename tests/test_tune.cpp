// The dpf::tune autotuner (DPF_NET=auto): the installed decision table is
// dropped when the configuration changes, tuned dispatch is bit-identical
// to the direct formulation across the whole registry, and the
// perf_gate.py edge cases (malformed input, sub-floor --update) are driven
// through real subprocesses.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/registry.hpp"
#include "net/net.hpp"
#include "net/tune.hpp"
#include "suite/register_all.hpp"

namespace dpf {
namespace {

std::string temp_dir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + std::string(tag) + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* got = ::mkdtemp(buf.data());
  return got != nullptr ? std::string(got) : std::string();
}

/// A handcrafted decision table exercising every pattern class with a mix
/// of modes — the shape a probe pass would produce, minus the probing.
net::TuneTable mixed_table() {
  net::TuneTable t;
  const struct {
    net::PatternClass klass;
    int log2_bytes;
    int chosen;
    int blocks;
  } cells[] = {
      {net::PatternClass::Shift, 15, 0, 0},          // small shifts: direct
      {net::PatternClass::Shift, 19, 2, 0},          // large shifts: overlap
      {net::PatternClass::Tree, 15, 0, 0},
      {net::PatternClass::Tree, 19, 1, 0},           // algorithmic broadcast
      {net::PatternClass::Exchange, 15, 1, 0},
      {net::PatternClass::Exchange, 19, 2, 2},       // pipelined, 2 blocks
      {net::PatternClass::GatherScatter, 15, 0, 0},
      {net::PatternClass::GatherScatter, 19, 1, 0},
  };
  for (const auto& cell : cells) {
    net::TuneChoice c;
    c.klass = cell.klass;
    c.log2_bytes = cell.log2_bytes;
    c.chosen = cell.chosen;
    c.blocks = cell.blocks;
    for (int m = 0; m < net::kTuneModes; ++m) {
      c.measured[m] = 0.001 * (m + 1);
      c.predicted[m] = 0.0015 * (m + 1);
    }
    t.choices.push_back(c);
  }
  t.simd_on = true;
  t.simd_ratio = 1.4;
  return t;
}

class TuneTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
    net::Tuner::instance().invalidate();
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    net::Tuner::instance().invalidate();
    Machine::instance().configure(4);
  }
};

TEST_F(TuneTableTest, InstalledTableDroppedOnReconfigure) {
  // The table is keyed by the configuration it was installed under; a
  // reconfigure must make it unusable so the next dispatch re-probes.
  net::Tuner& tuner = net::Tuner::instance();
  tuner.install(mixed_table());
  ASSERT_TRUE(tuner.ready());
  EXPECT_EQ("vps=4|workers=4", net::Tuner::config_signature());

  Machine::instance().configure(8);
  EXPECT_FALSE(tuner.ready());

  tuner.install(mixed_table());
  ASSERT_TRUE(tuner.ready());
  tuner.invalidate();
  EXPECT_FALSE(tuner.ready());
  EXPECT_TRUE(tuner.table().choices.empty());
}

// --- tuned dispatch bit-identity across the whole registry -----------------

TEST_F(TuneTableTest, TunedDispatchBitIdenticalOnAllBenchmarks) {
  register_all_benchmarks();
  Machine::instance().configure(16);
  // Install the mixed handcrafted table for THIS configuration so tuned
  // runs take a genuine mix of direct/algorithmic/overlap paths without
  // any probing (probes would only re-derive some other, equally legal
  // mode assignment — the identity claim is mode-independent).
  net::Tuner::instance().install(mixed_table());
  ASSERT_TRUE(net::Tuner::instance().ready());

  for (const Group g : {Group::Communication, Group::LinearAlgebra,
                        Group::Application}) {
    for (const auto* def : Registry::instance().by_group(g)) {
      unsetenv("DPF_NET");
      const auto direct = def->run_with_defaults(RunConfig{});
      setenv("DPF_NET", "auto", 1);
      const auto tuned = def->run_with_defaults(RunConfig{});
      unsetenv("DPF_NET");
      ASSERT_FALSE(direct.checks.empty()) << def->name;
      ASSERT_EQ(direct.checks.size(), tuned.checks.size()) << def->name;
      for (const auto& [key, value] : direct.checks) {
        const auto it = tuned.checks.find(key);
        ASSERT_NE(it, tuned.checks.end())
            << def->name << " lost check " << key << " under DPF_NET=auto";
        EXPECT_EQ(value, it->second)
            << def->name << " check '" << key
            << "' not bit-identical under DPF_NET=auto";
      }
    }
  }
}

// --- perf_gate.py edge cases (driven as real subprocesses) -----------------

class PerfGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (run("python3 -c 'pass' >/dev/null 2>&1") != 0) {
      GTEST_SKIP() << "python3 not available";
    }
    dir_ = temp_dir("perfgate");
    ASSERT_FALSE(dir_.empty());
  }

  static int run(const std::string& cmd) {
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  int gate(const std::string& args) {
    return run(std::string("python3 ") + DPF_PERF_GATE_PY + " " + args +
               " >" + dir_ + "/out.txt 2>&1");
  }

  std::string output() const {
    std::ifstream in(dir_ + "/out.txt");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string write(const char* name, const std::string& text) const {
    const std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << text;
    return path;
  }

  /// A well-formed perf JSON with all seven gated benchmarks at `elapsed`.
  static std::string perf_json(double elapsed) {
    std::ostringstream os;
    os << "{\"schema_version\": 2, \"machine\": {\"vps\": 16, "
          "\"peak_mflops\": 1000.0, \"simd\": true, "
          "\"net_mode\": \"direct\"},\n \"benchmarks\": [\n";
    const char* gated[] = {"gauss-jordan", "jacobi",  "transpose", "fem-3D",
                           "diff-2D",      "diff-3D", "ellip-2D"};
    for (std::size_t i = 0; i < 7; ++i) {
      os << "  {\"name\": \"" << gated[i] << "\", \"elapsed_s\": " << elapsed
         << "}" << (i + 1 < 7 ? "," : "") << "\n";
    }
    os << "]}\n";
    return os.str();
  }

  std::string dir_;
};

TEST_F(PerfGateTest, MissingFileExitsTwoWithDiagnostic) {
  EXPECT_EQ(2, gate("--current " + dir_ + "/nope.json"));
  EXPECT_NE(std::string::npos, output().find("perf_gate:")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, InvalidJsonExitsTwoWithDiagnostic) {
  const std::string cur = write("bad.json", "{not json");
  EXPECT_EQ(2, gate("--current " + cur));
  EXPECT_NE(std::string::npos, output().find("not valid JSON")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, MissingMachineKeyExitsTwoNotKeyError) {
  const std::string cur =
      write("nomachine.json",
            "{\"benchmarks\": [{\"name\": \"jacobi\", \"elapsed_s\": 0.1}]}");
  EXPECT_EQ(2, gate("--current " + cur));
  EXPECT_NE(std::string::npos, output().find("machine")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, MissingPeakMflopsExitsTwoNotKeyError) {
  const std::string cur = write(
      "nopeak.json",
      "{\"machine\": {\"vps\": 16, \"simd\": true}, \"benchmarks\": []}");
  EXPECT_EQ(2, gate("--current " + cur));
  EXPECT_NE(std::string::npos, output().find("peak_mflops")) << output();
  EXPECT_EQ(std::string::npos, output().find("Traceback")) << output();
}

TEST_F(PerfGateTest, SubFloorUpdateRefusedUnlessForced) {
  // 0.1 ms elapsed: under the 1 ms jitter floor for every gated entry.
  const std::string cur = write("subfloor.json", perf_json(1e-4));
  const std::string baseline = dir_ + "/baseline.json";
  EXPECT_EQ(2, gate("--current " + cur + " --baseline " + baseline +
                    " --update"));
  EXPECT_NE(std::string::npos, output().find("sub-floor")) << output();
  EXPECT_FALSE(static_cast<bool>(std::ifstream(baseline)))
      << "refused update must not write the baseline";

  EXPECT_EQ(0, gate("--current " + cur + " --baseline " + baseline +
                    " --update --allow-sub-floor"));
  EXPECT_NE(std::string::npos, output().find("Updating anyway")) << output();
  EXPECT_TRUE(static_cast<bool>(std::ifstream(baseline)));
}

TEST_F(PerfGateTest, HealthyCompareAndOnlySubsetPass) {
  const std::string base = write("base.json", perf_json(0.01));
  // 10% slower: inside the 15% bound -> pass (exit 0).
  const std::string cur = write("cur.json", perf_json(0.011));
  EXPECT_EQ(0, gate("--current " + cur + " --baseline " + base));
  // 30% slower: fails the full gate (exit 1)...
  const std::string slow = write("slow.json", perf_json(0.013));
  EXPECT_EQ(1, gate("--current " + slow + " --baseline " + base));
  // ...and --only with an unknown name is a usage error (exit 2).
  EXPECT_EQ(2, gate("--current " + slow + " --baseline " + base +
                    " --only no-such-bench"));
}

}  // namespace
}  // namespace dpf
