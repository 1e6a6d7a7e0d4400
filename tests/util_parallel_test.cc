// ParallelFor's contract (src/util/parallel.h): feed and done run on the
// calling thread in index order, work runs once per index after its feed, at
// most `window` indices are in flight, and the exception of the lowest index
// wins, after every started work() returned. Run under TSan in
// scripts/ci_smoke.sh.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/parallel.h"

namespace ebs {
namespace {

TEST(ParallelForTest, StagesRunInOrderWithinTheWindow) {
  for (const size_t helpers : {size_t{0}, size_t{1}, size_t{3}}) {
    for (const size_t window : {size_t{1}, size_t{2}, size_t{5}}) {
      constexpr size_t kN = 1000;
      const std::thread::id caller = std::this_thread::get_id();
      std::vector<size_t> slots(window);
      std::vector<std::atomic<int>> works(kN);
      size_t fed = 0;
      size_t done = 0;
      bool in_order = true;
      bool on_caller = true;
      bool slot_intact = true;
      size_t max_in_flight = 0;
      ParallelFor(
          kN, helpers, window,
          [&](size_t i) {
            in_order = in_order && i == fed;
            on_caller = on_caller && std::this_thread::get_id() == caller;
            slots[i % window] = i;  // the slot is free: index i - window is done
            ++fed;
            max_in_flight = std::max(max_in_flight, fed - done);
          },
          [&](size_t i) {
            slots[i % window] = slots[i % window] * 3 + 1;
            works[i].fetch_add(1);
          },
          [&](size_t i) {
            in_order = in_order && i == done;
            on_caller = on_caller && std::this_thread::get_id() == caller;
            slot_intact = slot_intact && slots[i % window] == i * 3 + 1;
            ++done;
          });
      EXPECT_EQ(fed, kN);
      EXPECT_EQ(done, kN);
      EXPECT_TRUE(in_order);
      EXPECT_TRUE(on_caller);
      EXPECT_TRUE(slot_intact);
      EXPECT_LE(max_in_flight, window);
      for (size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(works[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ParallelForTest, ZeroHelpersRunEverythingOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  ParallelFor(
      50, 0, 8, nullptr,
      [&](size_t) { on_caller = on_caller && std::this_thread::get_id() == caller; }, nullptr);
  EXPECT_TRUE(on_caller);
  ParallelFor(0, 3, 8, nullptr, [](size_t) { FAIL() << "no index to run"; }, nullptr);
}

// The message of the exception ParallelFor rethrows.
template <typename Run>
std::string ErrorOf(Run run) {
  try {
    run();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "no error";
}

TEST(ParallelForTest, TheLowestIndexErrorWinsAfterEveryWorkReturned) {
  // Index 3 runs on a helper (feed(4) waits until it started) and fails only
  // after index 7 failed, so the lower error is the one found later.
  std::atomic<bool> three_started{false};
  std::atomic<bool> seven_failed{false};
  std::atomic<int> running{0};
  std::vector<size_t> done;
  const std::string error = ErrorOf([&] {
    ParallelFor(
        40, 3, 16,
        [&](size_t i) {
          while (i == 4 && !three_started.load()) {
            std::this_thread::yield();
          }
        },
        [&](size_t i) {
          running.fetch_add(1);
          if (i == 3) {
            three_started.store(true);
            while (!seven_failed.load()) {
              std::this_thread::yield();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
          running.fetch_sub(1);
          if (i == 7) {
            seven_failed.store(true);
          }
          if (i == 3 || i == 7) {
            throw std::runtime_error("work " + std::to_string(i));
          }
        },
        [&](size_t i) { done.push_back(i); });
  });
  EXPECT_EQ(error, "work 3");
  EXPECT_EQ(running.load(), 0);
  EXPECT_EQ(done, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParallelForTest, FeedAndDoneErrorsRankByIndexToo) {
  for (const size_t helpers : {size_t{0}, size_t{3}}) {
    std::vector<size_t> done;
    const auto feed = [](size_t i) {
      if (i == 5) {
        throw std::runtime_error("feed 5");
      }
    };
    // Work fails before the feed error: work wins.
    EXPECT_EQ(ErrorOf([&] {
                ParallelFor(
                    20, helpers, 8, feed,
                    [](size_t i) {
                      if (i == 2) {
                        throw std::runtime_error("work 2");
                      }
                    },
                    nullptr);
              }),
              "work 2");
    // Nothing fails before it: every earlier index is done, then the feed
    // error, and nothing after it is fed or done.
    EXPECT_EQ(ErrorOf([&] {
                ParallelFor(20, helpers, 8, feed, [](size_t) {},
                            [&](size_t i) { done.push_back(i); });
              }),
              "feed 5");
    EXPECT_EQ(done, (std::vector<size_t>{0, 1, 2, 3, 4}));
    done.clear();
    // A done() that throws ends the loop there.
    EXPECT_EQ(ErrorOf([&] {
                ParallelFor(20, helpers, 8, nullptr, [](size_t) {}, [&](size_t i) {
                  done.push_back(i);
                  if (i == 4) {
                    throw std::runtime_error("done 4");
                  }
                });
              }),
              "done 4");
    EXPECT_EQ(done, (std::vector<size_t>{0, 1, 2, 3, 4}));
    done.clear();
  }
}

}  // namespace
}  // namespace ebs
