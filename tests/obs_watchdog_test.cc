// Watchdog tests: heartbeat arm/beat/disarm mechanics through the
// deterministic PollForTesting scan, stall + recovery telemetry (counter
// and wide events), and the headline acceptance property — a writer stuck
// in its WAL fsync flips the watchdog to stalled within 2x the heartbeat
// deadline, and unfreezing the fsync recovers it.

#include "src/obs/watchdog.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/pagestore/page_store.h"
#include "src/store/bmeh_store.h"
#include "tests/test_util.h"

namespace bmeh {
namespace obs {
namespace {

class CaptureSink : public LogSink {
 public:
  void WriteLine(std::string_view line) override {
    std::lock_guard<std::mutex> g(mu_);
    lines_.emplace_back(line);
  }
  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> g(mu_);
    return lines_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Polls `pred` every millisecond for up to `budget_ms`; returns the
/// elapsed milliseconds, or -1 on timeout.
template <typename Pred>
int WaitFor(Pred pred, int budget_ms) {
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    if (pred()) {
      return static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (elapsed > std::chrono::milliseconds(budget_ms)) return -1;
    SleepMs(1);
  }
}

TEST(WatchdogTest, DisarmedHeartbeatNeverStalls) {
  Watchdog::Options options;
  options.check_interval_ms = 1000;  // scans driven manually
  Watchdog dog(options);
  Watchdog::Heartbeat* hb = dog.Register("idle", /*deadline_ms=*/1);
  SleepMs(5);
  dog.PollForTesting();
  EXPECT_FALSE(dog.AnyStalled());
  EXPECT_EQ(dog.stalls_raised(), 0u);
  dog.Unregister(hb);
}

TEST(WatchdogTest, MissedDeadlineRaisesStallAndBeatRecovers) {
  MetricsRegistry registry;
  auto sink = std::make_shared<CaptureSink>();
  OpLog oplog(sink);
  Watchdog::Options options;
  options.check_interval_ms = 1000;  // scans driven manually
  options.metrics = &registry;
  options.oplog = &oplog;
  Watchdog dog(options);

  Watchdog::Heartbeat* hb = dog.Register("commit", /*deadline_ms=*/5);
  hb->Arm();
  dog.PollForTesting();
  EXPECT_FALSE(dog.AnyStalled()) << "Arm counts as a beat";

  SleepMs(15);  // well past the 5 ms deadline
  dog.PollForTesting();
  EXPECT_TRUE(dog.AnyStalled());
  EXPECT_TRUE(hb->stalled());
  EXPECT_EQ(dog.stalls_raised(), 1u);
  EXPECT_EQ(registry.GetCounter("store_stalled_total")->value(), 1u);
  ASSERT_EQ(dog.StalledNames(), std::vector<std::string>{"commit"});

  // The stall is an always-logged wide event naming the activity.
  std::vector<std::string> lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("watchdog_stall"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("commit"), std::string::npos) << lines[0];

  // A second scan of the same stall does not double-count.
  dog.PollForTesting();
  EXPECT_EQ(dog.stalls_raised(), 1u);

  hb->Beat();
  dog.PollForTesting();
  EXPECT_FALSE(dog.AnyStalled());
  EXPECT_FALSE(hb->stalled());
  lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("watchdog_recover"), std::string::npos) << lines[1];

  dog.Unregister(hb);
}

TEST(WatchdogTest, UnregisterClearsContributedStall) {
  Watchdog::Options options;
  options.check_interval_ms = 1000;
  Watchdog dog(options);
  Watchdog::Heartbeat* hb = dog.Register("doomed", /*deadline_ms=*/1);
  hb->Arm();
  SleepMs(5);
  dog.PollForTesting();
  ASSERT_TRUE(dog.AnyStalled());
  dog.Unregister(hb);
  EXPECT_FALSE(dog.AnyStalled());
}

TEST(WatchdogTest, ArmedScopeDisarmsOnExit) {
  Watchdog::Options options;
  options.check_interval_ms = 1000;
  Watchdog dog(options);
  Watchdog::Heartbeat* hb = dog.Register("scoped", /*deadline_ms=*/1);
  {
    Watchdog::ArmedScope armed(hb);
    EXPECT_TRUE(hb->armed());
  }
  EXPECT_FALSE(hb->armed());
  Watchdog::ArmedScope null_ok(nullptr);  // null heartbeat is a no-op
  dog.Unregister(hb);
}

// The acceptance property: freeze the WAL fsync under a writer with a
// live watchdog and the stall must be raised within 2x the heartbeat
// deadline; thawing recovers.  Deadline 250 ms with a 50 ms scan bounds
// detection at deadline + interval = 300 ms < 500 ms.
TEST(WatchdogStoreTest, FrozenCommitterStallsWithinTwiceTheDeadline) {
  constexpr uint64_t kDeadlineMs = 250;
  MetricsRegistry registry;
  Watchdog::Options dog_options;
  dog_options.check_interval_ms = 50;
  dog_options.metrics = &registry;
  Watchdog dog(dog_options);

  StoreOptions options;
  options.schema = KeySchema(2, 31);
  options.tree = TreeOptions::Make(2, 8);
  options.page_size = 512;
  options.metrics = &registry;
  options.watchdog = &dog;
  options.watchdog_deadline_ms = kDeadlineMs;
  auto device =
      std::make_unique<bmeh::testing::LatchedSyncPageStore>(options.page_size);
  bmeh::testing::LatchedSyncPageStore* latch = device.get();
  auto opened = BmehStore::Open(std::move(device), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();

  // A healthy commit arms the heartbeat only around its own fsync: give
  // the watchdog a few scans and confirm no stall.
  ASSERT_TRUE(store->Put(PseudoKey({1, 1}), 1).ok());
  SleepMs(2 * kDeadlineMs / 4);
  EXPECT_FALSE(dog.AnyStalled());
  EXPECT_EQ(registry.GetCounter("store_stalled_total")->value(), 0u);

  latch->Hold(true);
  Status put_status;
  std::thread writer(
      [&] { put_status = store->Put(PseudoKey({2, 2}), 2); });
  const int detected_ms =
      WaitFor([&] { return dog.AnyStalled(); }, 2 * kDeadlineMs);
  EXPECT_GE(detected_ms, 0) << "stall not raised within 2x deadline";
  EXPECT_GE(registry.GetCounter("store_stalled_total")->value(), 1u);
  const std::vector<std::string> names = dog.StalledNames();
  EXPECT_EQ(names.size(), 1u);
  if (!names.empty()) {
    EXPECT_NE(names[0].find("commit"), std::string::npos) << names[0];
  }

  latch->Hold(false);
  writer.join();
  ASSERT_TRUE(put_status.ok()) << put_status;
  const int recovered_ms =
      WaitFor([&] { return !dog.AnyStalled(); }, 2 * kDeadlineMs);
  ASSERT_GE(recovered_ms, 0) << "stall not cleared after thaw";

  // The thawed store still commits: acks drain and reads see data.
  ASSERT_TRUE(store->Put(PseudoKey({3, 3}), 3).ok());
  auto got = store->Get(PseudoKey({2, 2}));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, 2u);
}

// The commit and checkpoint paths arm their heartbeats only while a
// commit or a checkpoint runs: no stall while idle, none after a healthy
// commit and checkpoint.
TEST(WatchdogStoreTest, CheckpointHeartbeatIdlesDisarmed) {
  MetricsRegistry registry;
  Watchdog::Options dog_options;
  dog_options.check_interval_ms = 1000;  // manual scans
  dog_options.metrics = &registry;
  Watchdog dog(dog_options);

  StoreOptions options;
  options.schema = KeySchema(2, 31);
  options.tree = TreeOptions::Make(2, 8);
  options.page_size = 512;
  options.watchdog = &dog;
  options.watchdog_deadline_ms = 1;  // any armed-idle gap would trip it
  auto opened = BmehStore::Open(
      std::make_unique<InMemoryPageStore>(options.page_size), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto store = std::move(opened).ValueOrDie();

  ASSERT_TRUE(store->Put(PseudoKey({1, 1}), 1).ok());  // arms "commit"
  ASSERT_TRUE(store->Checkpoint().ok());                // arms "checkpoint"
  SleepMs(5);
  dog.PollForTesting();
  EXPECT_FALSE(dog.AnyStalled());
  EXPECT_EQ(dog.stalls_raised(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace bmeh
