// stencil-fine: the heat ring (paper Fig. 2) as a `nearest` r=1 dataflow
// graph at 1 µs busy_spin grain. The main thread builds the graph through
// graph::futurize_dag while nproc-1 workers execute it, so every node pays
// construction, dataflow allocation, continuation firing, spawn, enqueue,
// dequeue, convert and switch.
#include <memory>

#include "graph/executor.hpp"
#include "graph/futurize.hpp"
#include "graph/kernels.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gran::future;
namespace graph = gran::graph;

constexpr std::uint32_t k_width = 1000;
constexpr std::uint32_t k_steps = 100;
constexpr double k_grain_ns = 1000;
constexpr std::uint32_t k_build_id = 0xffffffffu;

struct rep_out {
  double wall_s = 0, build_cpu_s = 0, cpu_s = 0;
  std::uint64_t checksum = 0, tasks = 0;
  counter_delta counters;
};

rep_out run_graph_once(gran::thread_manager& tm, const graph::graph_spec& g,
                       const graph::kernel_spec& k, bool traced) {
  const std::uint32_t width = g.width;
  const auto before = tm.counter_totals();
  const double cpu0 = process_cpu_s();
  const double build0 = thread_cpu_s();
  const std::uint64_t t0 = now_ns();
  // Same fold as graph::run_graph's body, so the checksums must agree.
  auto dag = graph::futurize_dag<std::uint64_t>(
      tm, g,
      [&k, width, traced](std::uint32_t t, std::uint32_t p,
                          const std::vector<future<std::uint64_t>>& in) {
        const std::uint64_t b0 = traced ? now_ns() : 0;
        std::uint64_t acc = gran::mix64_combine(t, p);
        for (const auto& f : in) acc = gran::mix64_combine(acc, f.get());
        const std::uint64_t b1 = traced ? now_ns() : 0;
        const std::uint64_t kbits = graph::run_kernel(k, t, p);
        if (traced) {
          const std::uint64_t b2 = now_ns();
          const std::uint32_t id = t * width + p;
          trace::emit(trace::name::graph_node, b0, b2, id, k_build_id);
          trace::emit(trace::name::graph_fold, b0, b1, id);
          trace::emit(trace::name::graph_kernel, b1, b2, id);
        }
        return gran::mix64_combine(acc, kbits);
      });
  const std::uint64_t t1 = now_ns();
  rep_out r;
  r.build_cpu_s = thread_cpu_s() - build0;
  r.cpu_s = process_cpu_s() - cpu0;
  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  r.counters = diff(before, tm.counter_totals());
  r.tasks = dag.tasks;
  for (auto& f : dag.last_row) r.checksum = gran::mix64_combine(r.checksum, f.get());
  if (traced) trace::emit(trace::name::graph_build, t0, t1, k_build_id);
  return r;
}

// Node body start minus the latest end of its input bodies, µs.
std::vector<double> ready_to_run_us(const std::vector<std::vector<trace::span>>& spans,
                                    const graph::graph_spec& g) {
  const std::size_t n = g.total_tasks();
  std::vector<std::uint64_t> start(n, 0), end(n, 0);
  for (const auto& v : spans)
    for (const trace::span& s : v)
      if (s.what == static_cast<std::uint8_t>(trace::name::graph_node) && s.id < n) {
        start[s.id] = s.t0;
        end[s.id] = s.t1;
      }
  std::vector<double> out;
  std::vector<std::uint32_t> deps;
  for (std::uint32_t t = 1; t < g.steps; ++t)
    for (std::uint32_t p = 0; p < g.width; ++p) {
      g.dependencies(t, p, deps);
      std::uint64_t ready = 0;
      for (std::uint32_t d : deps) ready = std::max(ready, end[(t - 1) * g.width + d]);
      const std::uint64_t s = start[t * g.width + p];
      if (s != 0 && ready != 0)
        out.push_back(s >= ready ? static_cast<double>(s - ready) * 1e-3 : 0.0);
    }
  return out;
}

std::vector<double> durations_ns(const std::vector<std::vector<trace::span>>& spans,
                                 trace::name what) {
  std::vector<double> out;
  for (const auto& v : spans)
    for (const trace::span& s : v)
      if (s.what == static_cast<std::uint8_t>(what))
        out.push_back(static_cast<double>(s.t1 - s.t0));
  return out;
}

}  // namespace

result run_stencil_fine(const options& opt) {
  graph::graph_spec g;
  g.kind = graph::pattern::nearest;
  g.radius = 1;
  g.width = opt.smoke ? 64 : k_width;
  g.steps = opt.smoke ? 16 : k_steps;
  g.seed = opt.seed;
  graph::kernel_spec k;
  k.kind = graph::kernel_kind::busy_spin;
  k.grain_ns = k_grain_ns;
  k.seed = opt.seed;
  const double nodes = static_cast<double>(g.total_tasks());

  result res;
  const int workers = worker_count();
  std::unique_ptr<gran::thread_manager> tm;
  const std::uint64_t c0 = now_ns();
  (void)graph::calibrated_rates();
  const double calibration_s = static_cast<double>(now_ns() - c0) * 1e-9;
  const double setup_s = timed_setup(5, [&] {
    tm.reset();
    tm = make_pool(res.client_cpu);
    (void)run_graph_once(*tm, g, k, /*traced=*/false);  // warm-up
  });
  trace::set_capacity(static_cast<std::size_t>(nodes) * 3 + 16);

  std::vector<rep_out> plain, traced;
  std::vector<std::vector<trace::span>> last_spans;
  std::vector<double> r2r_p50, r2r_p99, fold_p50, kernel_p50, gap_p50, busy;
  run_reps(opt, opt.trace ? 4 : 3, [&](bool tr) {
    rep_out r = run_graph_once(*tm, g, k, tr);
    if (!tr) {
      plain.push_back(r);
      return;
    }
    traced.push_back(r);
    last_spans = trace::collect();
    auto r2r = ready_to_run_us(last_spans, g);
    r2r_p50.push_back(quantile(r2r, 0.5));
    r2r_p99.push_back(quantile(r2r, 0.99));
    fold_p50.push_back(median(durations_ns(last_spans, trace::name::graph_fold)));
    kernel_p50.push_back(median(durations_ns(last_spans, trace::name::graph_kernel)));
    gap_p50.push_back(trace::gap_ns_p50(last_spans));
    busy.push_back(trace::busy_ns(last_spans) * 1e-9 / (workers * r.wall_s));
  });

  // Correctness: every rep's checksum equals graph::run_graph's on the same
  // spec, and every node was constructed.
  const graph::run_stats ref = graph::run_graph(*tm, g, k);
  for (const auto* reps : {&plain, &traced})
    for (const rep_out& r : *reps)
      res.check(r.checksum == ref.checksum && r.tasks == ref.tasks);

  std::vector<double> wall;
  for (const rep_out& r : plain) wall.push_back(r.wall_s);
  if (!opt.trace) {
    double cpu = 0, tasks = 0;
    std::vector<double> eff, lat_us;
    for (const rep_out& r : plain) {
      cpu += r.cpu_s;
      tasks += static_cast<double>(r.tasks);
      eff.push_back(nodes * k_grain_ns * 1e-9 / (workers * r.wall_s));
      lat_us.push_back(r.wall_s * 1e6);
    }
    res.add("setup_s", calibration_s + setup_s, "s");
    res.add("wall_s", median(wall), "s", wall.size());
    res.add("efficiency", median(eff), "ratio", eff.size());
    res.add("cpu_per_task_us", cpu / tasks * 1e6, "us");
    res.add("peak_rss_mb", peak_rss_mib(), "MiB");
    res.add("sojourn_p50_us", quantile(lat_us, 0.5), "us", lat_us.size());
    res.add("sojourn_p99_us", quantile(lat_us, 0.99), "us", lat_us.size());
    return res;
  }

  std::vector<double> build_cpu, share, per_node, twall;
  counter_delta c;
  for (const rep_out& r : traced) {
    build_cpu.push_back(r.build_cpu_s);
    share.push_back(r.build_cpu_s / r.wall_s);
    per_node.push_back(r.build_cpu_s / nodes * 1e9);
    twall.push_back(r.wall_s);
    c += r.counters;
  }
  // Plain single-threaded baseline: the same kernel calls, no runtime.
  const std::uint64_t s0 = now_ns();
  volatile std::uint64_t sink = 0;
  for (std::uint32_t t = 0; t < g.steps; ++t)
    for (std::uint32_t p = 0; p < g.width; ++p) sink = sink ^ graph::run_kernel(k, t, p);
  const double serial_ns = static_cast<double>(now_ns() - s0) / nodes;

  res.add("graph.build_cpu_s", median(build_cpu), "s", build_cpu.size());
  res.add("graph.build_share", median(share), "ratio", share.size());
  res.add("graph.build_ns_per_node", median(per_node), "ns", per_node.size());
  res.add("graph.fold_ns_p50", median(fold_p50), "ns");
  res.add("graph.kernel_ns_p50", median(kernel_p50), "ns");
  res.add("async.ready_to_run_us_p50", median(r2r_p50), "us");
  res.add("async.ready_to_run_us_p99", median(r2r_p99), "us");
  res.add("threads.gap_ns_p50", median(gap_p50), "ns");
  res.add("threads.busy_share", median(busy), "ratio");
  add_counter_metrics(res, c);
  res.add("bench.serial_ns_per_task", serial_ns, "ns");
  res.add("bench.trace_overhead", median(twall) / median(wall) - 1, "ratio");
  report_spans(res, opt, last_spans);
  return res;
}

}  // namespace perfbench
