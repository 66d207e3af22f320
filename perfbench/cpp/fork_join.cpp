// fork-join: recursive binary trees of gran::async + future::get with 1 µs
// busy_spin leaves, rooted inside the pool and repeated to fill the run.
// Each task spawns its left subtree, recurses into the right one inline and
// then gets the left result, so every internal node suspends and resumes on
// its fiber and work spreads only by stealing: no dataflow, no external
// producer.
//
// Tree size is capped at 2^16 leaves because a single tree of 2^18 leaves
// aborts today with std::bad_alloc: every suspended parent holds an mmap'd
// stack and the process runs out of vm.max_map_count mappings. Lift the cap
// once stack exhaustion degrades instead of aborting.
#include <memory>

#include "async/async.hpp"
#include "graph/kernels.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace graph = gran::graph;

constexpr std::uint32_t k_depth = 16;
constexpr double k_grain_ns = 1000;

struct tree_ctx {
  graph::kernel_spec leaf;
  std::uint64_t salt = 0;  // per-tree leaf-value salt
  bool traced = false;
};

struct subtotal {
  std::uint64_t count = 0;  // leaves reached
  std::uint64_t sum = 0;    // Σ leaf values (wrapping)
};

// The running task: its id (heap index of the subtree it was spawned for)
// and the start of its current on-CPU segment.
struct task_ctx {
  std::uint32_t id = 0;
  std::uint64_t seg_start = 0;
};

std::uint64_t leaf_value(std::uint64_t salt, std::uint32_t leaf,
                         std::uint64_t kernel_bits) {
  return gran::mix64_combine(salt, leaf) + kernel_bits;
}

subtotal task_body(const tree_ctx* ctx, std::uint32_t node, std::uint32_t leaves,
                   std::uint32_t first_leaf, std::uint32_t parent);

subtotal subtree(const tree_ctx* ctx, task_ctx& tc, std::uint32_t node,
                 std::uint32_t leaves, std::uint32_t first_leaf) {
  if (leaves == 1) {
    const std::uint64_t k0 = ctx->traced ? now_ns() : 0;
    const std::uint64_t bits = graph::run_kernel(ctx->leaf, 0, first_leaf);
    if (ctx->traced) trace::emit(trace::name::graph_kernel, k0, now_ns(), tc.id);
    return {1, leaf_value(ctx->salt, first_leaf, bits)};
  }
  const std::uint32_t half = leaves / 2;
  const std::uint32_t left = 2 * node;
  const std::uint64_t s0 = ctx->traced ? now_ns() : 0;
  gran::future<subtotal> f =
      gran::async(task_body, ctx, left, half, first_leaf, tc.id);
  if (ctx->traced) trace::emit(trace::name::async_spawn, s0, now_ns(), tc.id, 0, left);
  const subtotal r = subtree(ctx, tc, left + 1, half, first_leaf + half);
  if (!ctx->traced) {
    const subtotal l = f.get();
    return {l.count + r.count, l.sum + r.sum};
  }
  const std::uint8_t waited = f.is_ready() ? 0 : trace::flag_waited;
  const std::uint64_t g0 = now_ns();
  trace::emit(trace::name::fork_run, tc.seg_start, g0, tc.id);
  const subtotal l = f.get();
  tc.seg_start = now_ns();
  trace::emit(trace::name::async_get, g0, tc.seg_start, tc.id, 0, left, waited);
  return {l.count + r.count, l.sum + r.sum};
}

subtotal task_body(const tree_ctx* ctx, std::uint32_t node, std::uint32_t leaves,
                   std::uint32_t first_leaf, std::uint32_t parent) {
  task_ctx tc{node, ctx->traced ? now_ns() : 0};
  const std::uint64_t t0 = tc.seg_start;
  const subtotal s = subtree(ctx, tc, node, leaves, first_leaf);
  if (ctx->traced) {
    const std::uint64_t t1 = now_ns();
    trace::emit(trace::name::fork_run, tc.seg_start, t1, node);
    trace::emit(trace::name::fork_task, t0, t1, node, parent);
  }
  return s;
}

struct rep_out {
  double wall_s = 0, cpu_s = 0;
  std::uint64_t salt = 0;
  subtotal got;
  counter_delta counters;
};

rep_out run_tree(gran::thread_manager& tm, tree_ctx& ctx, std::uint32_t leaves) {
  rep_out r;
  r.salt = ctx.salt;
  const auto before = tm.counter_totals();
  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = now_ns();
  auto root = gran::async_on(tm, gran::task_priority::normal, task_body, &ctx,
                             1u, leaves, 0u, 0u);
  r.got = root.get();
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.cpu_s = process_cpu_s() - cpu0;
  r.counters = diff(before, tm.counter_totals());
  return r;
}

}  // namespace

result run_fork_join(const options& opt) {
  const std::uint32_t depth = opt.smoke ? 8 : k_depth;
  const std::uint32_t leaves = 1u << depth;
  tree_ctx ctx;
  ctx.leaf.kind = graph::kernel_kind::busy_spin;
  ctx.leaf.grain_ns = k_grain_ns;
  ctx.leaf.seed = opt.seed;

  result res;
  const int workers = worker_count();
  std::unique_ptr<gran::thread_manager> tm;
  const std::uint64_t c0 = now_ns();
  (void)graph::calibrated_rates();
  const double calibration_s = static_cast<double>(now_ns() - c0) * 1e-9;
  const double setup_s = timed_setup(5, [&] {
    tm.reset();
    tm = make_pool(res.client_cpu);
    ctx.salt = gran::mix64_combine(opt.seed, ~0ull);
    (void)run_tree(*tm, ctx, leaves);  // warm-up: stacks, allocator, pool
  });
  // Per task: one fork_task, up to depth+1 fork_run, depth spawns, depth
  // gets and one kernel; a tree has `leaves` tasks.
  trace::set_capacity(static_cast<std::size_t>(leaves) * 6 + 64);

  std::vector<rep_out> plain, traced;
  std::vector<std::vector<trace::span>> last_spans;
  std::vector<double> spawn_p50, s2r_p50, s2r_p99, res_p50, res_p99, suspend,
      kernel_p50, gap_p50, busy;
  std::uint64_t rep_index = 0;
  run_reps(opt, opt.trace ? 4 : 3, [&](bool tr) {
    ctx.salt = gran::mix64_combine(opt.seed, rep_index++);
    ctx.traced = tr;
    rep_out r = run_tree(*tm, ctx, leaves);
    ctx.traced = false;
    if (!tr) {
      plain.push_back(r);
      return;
    }
    traced.push_back(r);
    last_spans = trace::collect();
    std::vector<std::uint64_t> start(2 * leaves, 0), end(2 * leaves, 0);
    for (const auto& v : last_spans)
      for (const trace::span& s : v)
        if (s.what == static_cast<std::uint8_t>(trace::name::fork_task) &&
            s.id < 2 * leaves) {
          start[s.id] = s.t0;
          end[s.id] = s.t1;
        }
    std::vector<double> spawn, s2r, resume, kernel;
    double gets = 0, waited = 0;
    for (const auto& v : last_spans)
      for (const trace::span& s : v) {
        const auto what = static_cast<trace::name>(s.what);
        if (what == trace::name::async_spawn) {
          spawn.push_back(static_cast<double>(s.t1 - s.t0));
          if (s.arg < 2 * leaves && start[s.arg] >= s.t0)
            s2r.push_back(static_cast<double>(start[s.arg] - s.t0) * 1e-3);
        } else if (what == trace::name::async_get) {
          ++gets;
          if ((s.flags & trace::flag_waited) == 0) continue;
          ++waited;
          if (s.arg < 2 * leaves && s.t1 >= end[s.arg])
            resume.push_back(static_cast<double>(s.t1 - end[s.arg]) * 1e-3);
        } else if (what == trace::name::graph_kernel) {
          kernel.push_back(static_cast<double>(s.t1 - s.t0));
        }
      }
    spawn_p50.push_back(quantile(spawn, 0.5));
    s2r_p50.push_back(quantile(s2r, 0.5));
    s2r_p99.push_back(quantile(s2r, 0.99));
    res_p50.push_back(quantile(resume, 0.5));
    res_p99.push_back(quantile(resume, 0.99));
    suspend.push_back(gets > 0 ? waited / gets : 0);
    kernel_p50.push_back(quantile(kernel, 0.5));
    gap_p50.push_back(trace::gap_ns_p50(last_spans));
    busy.push_back(trace::busy_ns(last_spans) * 1e-9 / (workers * r.wall_s));
  });

  // Correctness: each tree reached 2^depth leaves and their values sum to
  // the serial reference. The kernel part of a leaf value does not depend on
  // the salt, so one serial pass (also the single-thread baseline) serves
  // every tree.
  const std::uint64_t s0 = now_ns();
  std::uint64_t kernel_sum = 0;
  for (std::uint32_t i = 0; i < leaves; ++i)
    kernel_sum += graph::run_kernel(ctx.leaf, 0, i);
  const double serial_ns = static_cast<double>(now_ns() - s0) / leaves;
  for (const auto* reps : {&plain, &traced})
    for (const rep_out& r : *reps) {
      std::uint64_t want = 0;
      for (std::uint32_t i = 0; i < leaves; ++i) want += leaf_value(r.salt, i, 0);
      res.check(r.got.count == leaves && r.got.sum == want + kernel_sum);
    }

  std::vector<double> wall;
  for (const rep_out& r : plain) wall.push_back(r.wall_s);
  if (!opt.trace) {
    double cpu = 0;
    std::vector<double> eff, lat_us;
    for (const rep_out& r : plain) {
      cpu += r.cpu_s;
      eff.push_back(leaves * k_grain_ns * 1e-9 / (workers * r.wall_s));
      lat_us.push_back(r.wall_s * 1e6);
    }
    res.add("setup_s", calibration_s + setup_s, "s");
    res.add("wall_s", median(wall), "s", wall.size());
    res.add("efficiency", median(eff), "ratio", eff.size());
    res.add("cpu_per_task_us",
            cpu / (static_cast<double>(plain.size()) * leaves) * 1e6, "us");
    res.add("peak_rss_mb", peak_rss_mib(), "MiB");
    res.add("sojourn_p50_us", quantile(lat_us, 0.5), "us", lat_us.size());
    res.add("sojourn_p99_us", quantile(lat_us, 0.99), "us", lat_us.size());
    return res;
  }

  std::vector<double> twall;
  counter_delta c;
  for (const rep_out& r : traced) {
    twall.push_back(r.wall_s);
    c += r.counters;
  }
  res.add("graph.kernel_ns_p50", median(kernel_p50), "ns");
  res.add("async.spawn_ns_p50", median(spawn_p50), "ns");
  res.add("async.spawn_to_run_us_p50", median(s2r_p50), "us");
  res.add("async.spawn_to_run_us_p99", median(s2r_p99), "us");
  res.add("async.resume_us_p50", median(res_p50), "us");
  res.add("async.resume_us_p99", median(res_p99), "us");
  res.add("fiber.suspend_ratio", median(suspend), "ratio");
  res.add("threads.gap_ns_p50", median(gap_p50), "ns");
  res.add("threads.busy_share", median(busy), "ratio");
  add_counter_metrics(res, c);
  res.add("bench.serial_ns_per_task", serial_ns, "ns");
  res.add("bench.trace_overhead", median(twall) / median(wall) - 1, "ratio");
  report_spans(res, opt, last_spans);
  return res;
}

}  // namespace perfbench
