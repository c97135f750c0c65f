// Tests for the dpf::net transport layer: the phase-based post/fetch
// protocol over per-VP-pair mailboxes, tag and FIFO semantics, machine
// reconfiguration, and the payload-once accounting rule for aliased
// (in-place) exchanges.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "net/net.hpp"

namespace dpf {
namespace {

class NetTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
    net::transport().reset();
    CommLog::instance().reset();
  }
  void TearDown() override { unsetenv("DPF_NET"); }
};

TEST_F(NetTransportTest, PostThenFetchAcrossRegions) {
  Machine& m = Machine::instance();
  net::LocalTransport& t = net::transport();
  const std::uint64_t tag = net::next_tag();
  const double sent = 42.5;
  m.spmd([&](int v) {
    if (v == 0) t.post(0, 1, tag, &sent, sizeof(sent));
  });
  EXPECT_EQ(t.pending(), 1u);
  double got = 0.0;
  bool ok = false;
  m.spmd([&](int v) {
    if (v == 1) ok = t.try_fetch(1, 0, tag, &got, sizeof(got));
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, sent);
  EXPECT_EQ(t.pending(), 0u);
  const auto stats = t.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, sizeof(double));
}

TEST_F(NetTransportTest, FetchWithoutMessageReturnsFalse) {
  net::LocalTransport& t = net::transport();
  double got = 0.0;
  EXPECT_FALSE(t.try_fetch(1, 0, net::next_tag(), &got, sizeof(got)));
}

TEST_F(NetTransportTest, TagsKeepMessagesApart) {
  Machine& m = Machine::instance();
  net::LocalTransport& t = net::transport();
  const std::uint64_t ta = net::next_tag();
  const std::uint64_t tb = net::next_tag();
  const int a = 1, b = 2;
  m.spmd([&](int v) {
    if (v == 0) {
      t.post(0, 1, ta, &a, sizeof(a));
      t.post(0, 1, tb, &b, sizeof(b));
    }
  });
  // Fetch in the opposite order of posting: tags, not position, select.
  int got_b = 0, got_a = 0;
  m.spmd([&](int v) {
    if (v == 1) {
      EXPECT_TRUE(t.try_fetch(1, 0, tb, &got_b, sizeof(got_b)));
      EXPECT_TRUE(t.try_fetch(1, 0, ta, &got_a, sizeof(got_a)));
    }
  });
  EXPECT_EQ(got_a, a);
  EXPECT_EQ(got_b, b);
}

TEST_F(NetTransportTest, SameTagIsFifo) {
  Machine& m = Machine::instance();
  net::LocalTransport& t = net::transport();
  const std::uint64_t tag = net::next_tag();
  const int first = 7, second = 9;
  m.spmd([&](int v) {
    if (v == 0) {
      t.post(0, 2, tag, &first, sizeof(first));
      t.post(0, 2, tag, &second, sizeof(second));
    }
  });
  int got1 = 0, got2 = 0;
  m.spmd([&](int v) {
    if (v == 2) {
      EXPECT_TRUE(t.try_fetch(2, 0, tag, &got1, sizeof(got1)));
      EXPECT_TRUE(t.try_fetch(2, 0, tag, &got2, sizeof(got2)));
    }
  });
  EXPECT_EQ(got1, first);
  EXPECT_EQ(got2, second);
}

TEST_F(NetTransportTest, ProbeReportsPendingSize) {
  Machine& m = Machine::instance();
  net::LocalTransport& t = net::transport();
  const std::uint64_t tag = net::next_tag();
  const std::vector<double> payload(13, 1.0);
  EXPECT_EQ(t.probe(3, 0, tag), -1);
  m.spmd([&](int v) {
    if (v == 0) {
      t.post(0, 3, tag, payload.data(), payload.size() * sizeof(double));
    }
  });
  EXPECT_EQ(t.probe(3, 0, tag),
            static_cast<std::ptrdiff_t>(13 * sizeof(double)));
  std::vector<double> got(13, 0.0);
  EXPECT_TRUE(
      t.try_fetch(3, 0, tag, got.data(), got.size() * sizeof(double)));
  EXPECT_EQ(t.probe(3, 0, tag), -1);
}

TEST_F(NetTransportTest, ResizeFollowsMachineReconfigure) {
  net::LocalTransport& t = net::transport();
  EXPECT_EQ(t.endpoints(), 4);
  Machine::instance().configure(7);
  EXPECT_EQ(net::transport().endpoints(), 7);
  EXPECT_EQ(net::transport().pending(), 0u) << "resize drops stale messages";
  Machine::instance().configure(4);
  EXPECT_EQ(net::transport().endpoints(), 4);
}

TEST_F(NetTransportTest, RegionSerialAdvancesPerRegion) {
  Machine& m = Machine::instance();
  const std::uint64_t before = m.region_serial();
  m.spmd([](int) {});
  m.spmd([](int) {});
  EXPECT_EQ(m.region_serial(), before + 2);
  EXPECT_FALSE(m.inside_region());
}

TEST_F(NetTransportTest, NextTagsReservesDisjointRanges) {
  const std::uint64_t a = net::next_tags(16);
  const std::uint64_t b = net::next_tags(16);
  EXPECT_GE(b, a + 16);
}

// --- payload-once accounting (aliasing regression) ----------------------

// An in-place butterfly records exactly one event whose `bytes` equals the
// array payload — not 2x from counting the staging/swap traffic as well.
TEST_F(NetTransportTest, InPlaceButterflyCountsPayloadOnce) {
  auto a = make_vector<double>(64);
  for (index_t i = 0; i < 64; ++i) a[i] = static_cast<double>(i);
  auto out = make_vector<double>(64);

  CommLog::instance().reset();
  comm::butterfly_into(out, a, 8);  // out-of-place reference
  const auto ref_events = CommLog::instance().events();
  ASSERT_EQ(ref_events.size(), 1u);

  CommLog::instance().reset();
  comm::butterfly_into(a, a, 8);  // aliased: src and dst share the store
  const auto alias_events = CommLog::instance().events();
  ASSERT_EQ(alias_events.size(), 1u) << "in-place must record one event";

  EXPECT_EQ(alias_events[0].bytes, ref_events[0].bytes)
      << "aliased exchange double-counted the moved payload";
  EXPECT_EQ(alias_events[0].offproc_bytes, ref_events[0].offproc_bytes);
  EXPECT_EQ(alias_events[0].bytes,
            static_cast<index_t>(64 * sizeof(double)));
  for (index_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a[i], out[i]) << "in-place result diverged at " << i;
  }
}

// The same invariant on the algorithmic path, where the in-place exchange
// stages through a snapshot and the transport: staging traffic shows up in
// the transport stats, never in the event's payload bytes.
TEST_F(NetTransportTest, AlgorithmicInPlaceButterflyCountsPayloadOnce) {
  setenv("DPF_NET", "algorithmic", 1);
  auto a = make_vector<double>(64);
  auto b = make_vector<double>(64);
  for (index_t i = 0; i < 64; ++i) a[i] = b[i] = std::sin(double(i));

  net::transport().reset();
  CommLog::instance().reset();
  comm::butterfly_into(a, a, 4);  // aliased, message-passing path
  const auto events = CommLog::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, static_cast<index_t>(64 * sizeof(double)));

  // Cross-check against the direct path on an identical input.
  unsetenv("DPF_NET");
  comm::butterfly_into(b, b, 4);
  for (index_t i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace dpf
