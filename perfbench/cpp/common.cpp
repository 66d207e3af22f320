#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

#include "trace.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {
double clock_s(clockid_t id) noexcept {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_s() noexcept { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() noexcept { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mib() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
// The process's CPU set at start-up, before the client pinned itself.
const cpu_set_t& startup_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof s, &s);
    return s;
  }();
  return set;
}
}  // namespace

int allowed_cpus() noexcept { return std::max(1, CPU_COUNT(&startup_cpus())); }

int worker_count() noexcept { return std::max(1, allowed_cpus() - 1); }

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

void spin_until(std::uint64_t t) noexcept {
  while (now_ns() < t) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

gran::scheduler_config pool_config() {
  gran::scheduler_config cfg;
  cfg.num_workers = worker_count();
  cfg.policy = "priority-local-fifo";
  return cfg;
}

std::unique_ptr<gran::thread_manager> make_pool(int& client_cpu) {
  cpu_set_t all = startup_cpus();
  sched_setaffinity(0, sizeof all, &all);
  auto tm = std::make_unique<gran::thread_manager>(pool_config());
  client_cpu = -1;
  if (!tm->plan().pinned()) return tm;  // workers float: nothing to keep clear of
  for (int cpu = 0; cpu < CPU_SETSIZE && client_cpu < 0; ++cpu) {
    if (!CPU_ISSET(cpu, &all)) continue;
    bool taken = false;
    for (const auto& w : tm->plan().workers) taken = taken || w.cpu == cpu;
    if (!taken) client_cpu = cpu;
  }
  if (client_cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(client_cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) client_cpu = -1;
  }
  return tm;
}

counter_delta diff(const gran::thread_manager::totals& a,
                   const gran::thread_manager::totals& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  counter_delta c;
  c.tasks = d(a.tasks_executed, b.tasks_executed);
  c.phases = d(a.phases_executed, b.phases_executed);
  c.exec_ns = d(a.exec_ns, b.exec_ns);
  c.func_ns = d(a.func_ns, b.func_ns);
  c.stolen = d(a.tasks_stolen, b.tasks_stolen);
  c.pending_accesses = d(a.queues.pending_accesses, b.queues.pending_accesses);
  c.pending_misses = d(a.queues.pending_misses, b.queues.pending_misses);
  return c;
}

double timed_setup(int times, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < times; ++i) {
    const std::uint64_t t0 = now_ns();
    setup();
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(s));
}

void run_reps(const options& opt, int min_reps,
              const std::function<void(bool traced)>& rep) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (int i = 0; i < min_reps || now_ns() < end; ++i) {
    const bool traced = opt.trace && (i % 2 == 1);
    trace::clear();
    rep(traced);
  }
}

void report_spans(result& r, const options& opt,
                  const std::vector<std::vector<trace::span>>& spans) {
  r.layer_table = trace::format_layer_table(trace::layer_table(spans));
  if (!opt.out_dir.empty())
    trace::dump_csv(spans, opt.out_dir + "/" + opt.workload + ".spans.csv");
}

void add_counter_metrics(result& r, const counter_delta& c) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.add("fiber.phases_per_task", ratio(c.phases, c.tasks), "ratio");
  r.add("threads.idle_rate", ratio(c.func_ns - c.exec_ns, c.func_ns), "ratio");
  r.add("threads.to_us", ratio(c.func_ns - c.exec_ns, c.tasks) * 1e-3, "us");
  r.add("threads.stolen_ratio", ratio(c.stolen, c.tasks), "ratio");
  r.add("queues.pending_miss_ratio", ratio(c.pending_misses, c.pending_accesses),
        "ratio");
}

}  // namespace perfbench
