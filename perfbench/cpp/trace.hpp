// The benchmark's own span recorder for the traced run.
//
// Spans are stamped only in the benchmark's task bodies and call sites,
// never inside the runtime. Each thread writes into its own preallocated
// buffer (no sharing, no allocation on the hot path); buffers are read
// after a rep, once every task of the rep has completed. A span is
// recorded by the thread that ends it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

enum class name : std::uint8_t {
  graph_build,      // main thread: the whole graph::futurize_dag call
  graph_node,       // stencil node body (on-CPU segment)
  graph_fold,       // node body: get() + mix over the ready input futures
  graph_kernel,     // graph::run_kernel call
  fork_task,        // fork-join task body, first to last instruction
  fork_run,         // an on-CPU segment of a fork-join task body
  async_spawn,      // the gran::async call in the parent (arg = child id)
  async_get,        // future::get in the parent (arg = child id)
  service_submit,   // task_service::submit on the client
  service_request,  // request body (on-CPU segment)
  count_
};

inline constexpr std::uint8_t flag_waited = 1;  // async_get: future not ready

struct span {
  std::uint64_t t0 = 0, t1 = 0;  // now_ns()
  std::uint32_t id = 0;          // task / node / request id
  std::uint32_t parent = 0;      // id of the task that caused it
  std::uint32_t arg = 0;         // per-name extra (child id)
  std::uint8_t what = 0;         // trace::name
  std::uint8_t flags = 0;
};

// Capacity of each thread's buffer; takes effect for buffers not yet made.
void set_capacity(std::size_t spans_per_thread);
// Empties every buffer (between reps, while the pool is idle).
void clear() noexcept;
void emit(name n, std::uint64_t t0, std::uint64_t t1, std::uint32_t id,
          std::uint32_t parent = 0, std::uint32_t arg = 0,
          std::uint8_t flags = 0) noexcept;
// Spans lost to full buffers over the whole run.
std::uint64_t dropped() noexcept;

// Every thread's spans of the current rep, one vector per thread.
std::vector<std::vector<span>> collect();

// Self time per span name: duration minus the time of its direct children
// (spans of the same id nested inside it).
struct layer_row {
  name what;
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double p50_ns = 0;
};
std::vector<layer_row> layer_table(const std::vector<std::vector<span>>& threads);
std::vector<std::string> format_layer_table(const std::vector<layer_row>& rows);

// Median gap between consecutive body segments on the same thread.
double gap_ns_p50(const std::vector<std::vector<span>>& threads);
// Σ body-segment time.
double busy_ns(const std::vector<std::vector<span>>& threads);

// Writes every span as CSV (thread,name,t0_ns,t1_ns,id,parent,arg,flags).
bool dump_csv(const std::vector<std::vector<span>>& threads,
              const std::string& path);

}  // namespace perfbench::trace
