#include "core/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace hostnet::core {

unsigned parallel_threads() {
  if (const char* e = std::getenv("HOSTNET_THREADS")) {
    const long v = std::atol(e);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

namespace {

/// Set while a thread is executing run_parallel jobs: a nested run_parallel
/// from inside a job runs serially inline instead of spawning more workers.
thread_local bool tl_in_job = false;

}  // namespace

void run_parallel(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned nthreads) {
  if (count == 0) return;
  if (nthreads == 0) nthreads = parallel_threads();
  if (nthreads > count) nthreads = static_cast<unsigned>(count);
  if (nthreads <= 1 || tl_in_job) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::exception_ptr err;
  const auto work = [&] {
    tl_in_job = true;
    while (!abort) {
      const std::size_t i = next++;
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lk(err_mu);
        if (!err) err = std::current_exception();
        abort = true;
      }
    }
    tl_in_job = false;
  };

  std::vector<std::thread> workers;
  workers.reserve(nthreads - 1);
  for (unsigned t = 1; t < nthreads; ++t) {
    try {
      workers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // no more threads available: finish with the ones running
    }
  }
  work();  // the calling thread is a worker too
  for (std::thread& w : workers) w.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace hostnet::core
