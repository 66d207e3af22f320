// Shared pieces of the benchmark program: options, the result record, clocks,
// order statistics, process resource usage, and the rep loop that fills a
// run's time budget.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "threads/thread_manager.hpp"
#include "trace.hpp"

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured time budget of one run
  bool trace = false;   // per-layer (traced) run instead of end-to-end
  bool smoke = false;   // tiny inputs: checks wiring, not performance
  std::string out_dir;  // where span dumps and result records go ("" = none)
};

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // observations behind a percentile (0 = n/a)
};

struct result {
  std::uint64_t attempted = 0;  // checked operations
  std::uint64_t failed = 0;     // checks that missed
  std::vector<metric> metrics;
  std::vector<std::string> layer_table;  // human-readable self-time rows
  int client_cpu = -1;                   // CPU of the producing/client thread

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Nanoseconds on the steady clock since the first call in this process.
std::uint64_t now_ns() noexcept;
// CPU time of the calling thread / of the whole process, seconds.
double thread_cpu_s() noexcept;
double process_cpu_s() noexcept;
// Peak resident set of this process, MiB.
double peak_rss_mib() noexcept;
// Logical CPUs this process could run on at start-up.
int allowed_cpus() noexcept;
// Worker count of every workload: one CPU is left to the producing or
// client thread.
int worker_count() noexcept;

// Linear-interpolated quantile (q in [0,1]) of `v`; reorders `v`. 0 when
// empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// Busy-waits until now_ns() >= t.
void spin_until(std::uint64_t t) noexcept;

// The pool every workload runs on: default policy, nproc-1 pinned workers.
gran::scheduler_config pool_config();

// Builds a pool from the calling thread's full CPU set, then pins the
// calling (producing or client) thread to an allowed CPU no worker is
// pinned to, so it never time-slices with a spinning worker. Returns the
// pool; `client_cpu` gets the CPU (-1 = left unpinned, e.g. when the
// workers themselves are not pinned).
std::unique_ptr<gran::thread_manager> make_pool(int& client_cpu);

// Deltas of thread_manager::counter_totals() over one rep.
struct counter_delta {
  double tasks = 0, phases = 0, exec_ns = 0, func_ns = 0, stolen = 0;
  double pending_accesses = 0, pending_misses = 0;

  counter_delta& operator+=(const counter_delta& o) {
    tasks += o.tasks;
    phases += o.phases;
    exec_ns += o.exec_ns;
    func_ns += o.func_ns;
    stolen += o.stolen;
    pending_accesses += o.pending_accesses;
    pending_misses += o.pending_misses;
    return *this;
  }
};
counter_delta diff(const gran::thread_manager::totals& a,
                   const gran::thread_manager::totals& b);

// Runs `setup` `times` times (each call replaces the previous pool and
// inputs) and returns the median duration in seconds.
double timed_setup(int times, const std::function<void()>& setup);

// Calls rep(traced) until `seconds` of measured time have passed (at least
// `min_reps` times). With opt.trace the reps alternate untraced/traced so
// the traced run also yields the untraced wall time it is compared with.
void run_reps(const options& opt, int min_reps,
              const std::function<void(bool traced)>& rep);

// Self-time table of a traced run's last traced rep, and its spans dumped
// to <opt.out_dir>/<opt.workload>.spans.csv.
void report_spans(result& r, const options& opt,
                  const std::vector<std::vector<trace::span>>& spans);

// Metrics every workload reports from thread-manager counters over its
// traced reps (Eq. 1 and Eq. 3 of the paper beside the outside view).
void add_counter_metrics(result& r, const counter_delta& c);

}  // namespace perfbench
