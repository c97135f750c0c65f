// DPF_NET environment handling: a set-but-invalid value must not silently
// run the default — it warns once on stderr (the DPF_SIMD / DPF_WORKERS
// idiom) and then falls back. Recognized values, explicit defaults, and
// unset variables stay silent.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "net/net.hpp"

namespace dpf {
namespace {

class NetModeWarningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cur = std::getenv("DPF_NET");
    had_ = cur != nullptr;
    if (had_) saved_ = cur;
  }
  void TearDown() override {
    if (had_) {
      setenv("DPF_NET", saved_.c_str(), 1);
    } else {
      unsetenv("DPF_NET");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST_F(NetModeWarningTest, ValidValuesAndUnsetStaySilent) {
  testing::internal::CaptureStderr();
  unsetenv("DPF_NET");
  EXPECT_EQ(net::Mode::Direct, net::mode());
  setenv("DPF_NET", "direct", 1);  // explicit default: accepted, no warning
  EXPECT_EQ(net::Mode::Direct, net::mode());
  setenv("DPF_NET", "algorithmic", 1);
  EXPECT_EQ(net::Mode::Algorithmic, net::mode());
  setenv("DPF_NET", "overlap", 1);
  EXPECT_EQ(net::Mode::Overlap, net::mode());
  // "auto" hands the choice to the tuner: mode() itself stays at the
  // Direct default (dispatch goes through mode_for), silently.
  setenv("DPF_NET", "auto", 1);
  EXPECT_EQ(net::Mode::Direct, net::mode());
  EXPECT_TRUE(net::auto_enabled());
  setenv("DPF_NET", "", 1);  // empty string counts as unset
  EXPECT_EQ(net::Mode::Direct, net::mode());
  EXPECT_FALSE(net::auto_enabled());
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

TEST_F(NetModeWarningTest, UnrecognizedValueWarnsOnceAndFallsBackToDirect) {
  setenv("DPF_NET", "overlop", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(net::Mode::Direct, net::mode());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(std::string::npos, err.find("ignoring DPF_NET=\"overlop\""))
      << "stderr was: " << err;
  EXPECT_NE(std::string::npos, err.find("direct|algorithmic|overlap"))
      << "stderr was: " << err;

  // One-shot: a second probe (even with a different bad value) is silent.
  setenv("DPF_NET", "fnord", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(net::Mode::Direct, net::mode());
  EXPECT_EQ("", testing::internal::GetCapturedStderr());
}

}  // namespace
}  // namespace dpf
