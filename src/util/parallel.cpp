#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace ouessant::util {

void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min<std::size_t>(jobs, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  std::size_t error_index = count;
  std::exception_ptr error;

  auto worker = [&] {
    while (!stop) {
      const std::size_t i = next++;
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        stop = true;
      }
    }
  };

  // The calling thread is worker 0. A thread the host refuses to start
  // only narrows the pool: the workers that did start still claim every
  // index.
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  } catch (const std::system_error&) {
  }
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace ouessant::util
