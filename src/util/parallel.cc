#include "src/util/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/thread_annotations.h"

namespace ebs {

size_t DefaultGenerateWorkers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

namespace {

// ParallelFor's shared state: how many indices are fed and claimed, and which
// of the fed ones finished, with what error. Index i owns slot i % window
// from its feed until the calling thread takes its result.
class OrderedLoop {
 public:
  OrderedLoop(size_t window, const std::function<void(size_t)>& work)
      : window_(window), work_(work), finished_(window, false), errors_(window) {}

  // Makes the next index claimable.
  void Fed() EBS_EXCLUDES(mu_) {
    {
      util::MutexLock lock(&mu_);
      ++fed_;
    }
    claimable_.notify_one();
  }

  // A helper thread's body: claims and runs fed indices until stopped.
  void Serve() EBS_EXCLUDES(mu_) {
    for (;;) {
      size_t i = 0;
      {
        util::MutexLock lock(&mu_);
        claimable_.wait(mu_, [this]() EBS_REQUIRES(mu_) { return stop_ || claimed_ < fed_; });
        if (stop_) {
          return;
        }
        i = claimed_++;
      }
      Run(i);
    }
  }

  // Runs one claimable index on the calling thread; false when none is.
  bool RunOne() EBS_EXCLUDES(mu_) {
    size_t i = 0;
    {
      util::MutexLock lock(&mu_);
      if (claimed_ == fed_) {
        return false;
      }
      i = claimed_++;
    }
    Run(i);
    return true;
  }

  // True once index i finished: moves its error (null on success) into
  // *error and frees its slot.
  bool Take(size_t i, std::exception_ptr* error) EBS_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    if (!finished_[i % window_]) {
      return false;
    }
    finished_[i % window_] = false;
    *error = std::exchange(errors_[i % window_], nullptr);
    return true;
  }

  void Wait(size_t i) EBS_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    finished_cv_.wait(mu_, [this, i]() EBS_REQUIRES(mu_) { return finished_[i % window_]; });
  }

  void Stop() EBS_EXCLUDES(mu_) {
    {
      util::MutexLock lock(&mu_);
      stop_ = true;
    }
    claimable_.notify_all();
  }

 private:
  void Run(size_t i) EBS_EXCLUDES(mu_) {
    std::exception_ptr error;
    try {
      work_(i);
    } catch (...) {
      error = std::current_exception();
    }
    {
      util::MutexLock lock(&mu_);
      finished_[i % window_] = true;
      errors_[i % window_] = std::move(error);
    }
    finished_cv_.notify_one();  // only the calling thread waits on it
  }

  const size_t window_;
  const std::function<void(size_t)>& work_;
  util::Mutex mu_;
  std::condition_variable_any claimable_;
  std::condition_variable_any finished_cv_;
  size_t fed_ EBS_GUARDED_BY(mu_) = 0;
  size_t claimed_ EBS_GUARDED_BY(mu_) = 0;
  bool stop_ EBS_GUARDED_BY(mu_) = false;
  std::vector<bool> finished_ EBS_GUARDED_BY(mu_);
  std::vector<std::exception_ptr> errors_ EBS_GUARDED_BY(mu_);
};

// Stops and joins the helpers on every way out of ParallelFor, so no work()
// outlives the call.
class HelperThreads {
 public:
  explicit HelperThreads(OrderedLoop* loop) : loop_(loop) {}
  HelperThreads(const HelperThreads&) = delete;
  HelperThreads& operator=(const HelperThreads&) = delete;
  ~HelperThreads() {
    loop_->Stop();
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }

  void Start(size_t count) {
    threads_.reserve(count);
    for (size_t t = 0; t < count; ++t) {
      threads_.emplace_back([loop = loop_] { loop->Serve(); });
    }
  }

 private:
  OrderedLoop* loop_;
  std::vector<std::thread> threads_;
};

}  // namespace

void ParallelFor(size_t n, size_t helpers, size_t window,
                 const std::function<void(size_t)>& feed,
                 const std::function<void(size_t)>& work,
                 const std::function<void(size_t)>& done) {
  if (n == 0) {
    return;
  }
  window = std::max<size_t>(window, 1);
  OrderedLoop loop(window, work);
  HelperThreads threads(&loop);
  // More helpers than claimable indices would only wait.
  threads.Start(std::min(helpers, std::min(n, window) - 1));

  size_t fed = 0;
  size_t limit = n;  // a feed error ends the loop at its index
  std::exception_ptr feed_error;
  for (size_t next = 0; next < limit;) {
    if (fed < limit && fed < next + window) {
      try {
        if (feed) {
          feed(fed);
        }
      } catch (...) {
        feed_error = std::current_exception();
        limit = fed;
        continue;
      }
      ++fed;
      loop.Fed();
      continue;
    }
    std::exception_ptr error;
    if (loop.Take(next, &error)) {
      if (error) {
        std::rethrow_exception(error);
      }
      if (done) {
        done(next);
      }
      ++next;
      continue;
    }
    // Index `next` is fed and claimed by now unless something is claimable,
    // so this wait always ends.
    if (!loop.RunOne()) {
      loop.Wait(next);
    }
  }
  if (feed_error) {
    std::rethrow_exception(feed_error);
  }
}

void ForEachChunk(size_t count, size_t chunk_cost, const std::function<size_t(size_t)>& cost_of,
                  const std::function<void(size_t, size_t)>& fill) {
  std::vector<size_t> starts = {0};
  size_t cost = 0;
  for (size_t i = 0; i + 1 < count; ++i) {
    cost += cost_of(i);
    if (cost >= chunk_cost) {
      starts.push_back(i + 1);
      cost = 0;
    }
  }
  starts.push_back(count);
  const size_t chunks = starts.size() - 1;
  ParallelFor(
      chunks, DefaultGenerateWorkers(), chunks, {},
      [&](size_t c) { fill(starts[c], starts[c + 1]); }, {});
}

}  // namespace ebs
