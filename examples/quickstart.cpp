// Quickstart: the gran API in one file.
//
//   $ ./quickstart
//
// Shows: starting the runtime, async/future, continuations, dataflow
// composition, cooperative synchronization, and reading performance
// counters at runtime.
#include <cstdio>
#include <vector>

#include "async/gran.hpp"

using namespace gran;

int main() {
  // 1. Start the runtime: one worker OS thread per core by default. The
  //    first manager becomes the process default used by async()/dataflow().
  scheduler_config cfg;
  cfg.num_workers = 4;      // explicit, so the example behaves the same anywhere
  cfg.pin_workers = false;  // harmless on oversubscribed machines
  thread_manager runtime(cfg);

  // 2. async: run a callable as a lightweight task, get a future.
  future<int> answer = async([] { return 6 * 7; });
  std::printf("async answer: %d\n", answer.get());

  // 3. Continuations: then() chains work without blocking anybody.
  future<int> chained =
      async([] { return 20; }).then([](future<int> f) { return f.get() + 1; }).then([](future<int> f) {
        return f.get() * 2;
      });
  std::printf("chained: %d\n", chained.get());

  // 4. dataflow: run when *all* inputs are ready — the building block the
  //    heat-diffusion benchmark uses for its dependency tree.
  future<int> a = async([] { return 3; });
  future<int> b = async([] { return 4; });
  future<int> c = dataflow([](future<int>& x, future<int>& y) { return x.get() * y.get(); },
                           a, b);
  std::printf("dataflow 3*4 = %d\n", c.get());

  // 5. Fork/join over many tasks with when_all.
  std::vector<future<long>> parts;
  for (long i = 0; i < 100; ++i)
    parts.push_back(async([i] { return i * i; }));
  when_all(parts).wait();
  long sum = 0;
  for (const auto& p : parts) sum += p.get();
  std::printf("sum of squares 0..99: %ld\n", sum);

  // 6. Tasks block cooperatively: a waiting task suspends, its worker keeps
  //    running other tasks — no OS thread ever blocks on a gran::mutex.
  gran::mutex m;
  long counter = 0;
  latch done(1000);
  for (int i = 0; i < 1000; ++i)
    runtime.spawn([&] {
      std::lock_guard<gran::mutex> lock(m);
      ++counter;
      done.count_down();
    });
  done.wait();
  std::printf("counter under cooperative mutex: %ld\n", counter);

  // 7. Introspection: every runtime metric is a named counter, queryable
  //    while the application runs. The lazy splitter (algo::lazy_chunk)
  //    adapts grain size online from the same idle-rate totals.
  auto& registry = perf::registry::instance();
  std::printf("tasks executed:   %.0f\n",
              registry.value_or("/threads/count/cumulative", 0));
  std::printf("avg task time:    %.0f ns\n",
              registry.value_or("/threads/time/average", 0));
  std::printf("avg task overhead:%.0f ns\n",
              registry.value_or("/threads/time/average-overhead", 0));
  std::printf("idle-rate:        %.1f %%\n",
              100.0 * registry.value_or("/threads/idle-rate", 0));
  return 0;
}
