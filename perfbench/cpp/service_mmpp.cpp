// service-mmpp: open-loop MMPP arrivals from one client thread through
// service::task_service (default block admission), request grain
// log-uniform in 5-40 µs, nproc-1 workers. Mean load is about a third of
// the workers' capacity; bursts run briefly above it. This is the only
// workload that enters through the service ingress and the external lane
// and goes idle between arrivals, so it exercises park/notify, wake latency
// and backlog drain.
//
// Sojourn is timed from each request's *due* time, not its admission stamp:
// when block admission holds the client back, the wait counts (no
// coordinated omission).
//
// A request body spins on the clock for its grain rather than calling
// graph::run_kernel: the kernel's one-shot calibration differs by up to
// ±10% between processes, and at this load that moves the tail latency
// more than the runtime does. The client thread is pinned to the CPU the
// workers leave free (make_pool), so it never time-slices with a worker.
#include <algorithm>
#include <atomic>
#include <memory>

#include "service/arrival.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace service = gran::service;

constexpr double k_rate_per_s = 60'000;
constexpr double k_grain_min_ns = 5'000;
constexpr double k_grain_max_ns = 40'000;
// Bursts at 4x the background rate, 10% of the time, 2 ms mean dwell: about
// 50 bursts a second, each briefly above capacity.
constexpr double k_burst_factor = 4;
constexpr double k_burst_fraction = 0.1;
constexpr double k_burst_dwell_s = 0.002;
constexpr double k_window_s = 1.0;       // one rep: a window of arrivals
constexpr double k_warm_window_s = 0.25;
constexpr std::uint64_t k_lead_ns = 100'000;  // first due time after rep start

// One arrival stream and what happened to each of its requests.
struct stream {
  std::vector<service::arrival_event> arrivals;
  std::vector<std::uint64_t> due, end;                 // now_ns() per request
  std::unique_ptr<std::atomic<std::uint32_t>[]> runs;  // body executions

  explicit stream(std::vector<service::arrival_event> a)
      : arrivals(std::move(a)),
        due(arrivals.size(), 0),
        end(arrivals.size(), 0),
        runs(new std::atomic<std::uint32_t>[arrivals.size()]) {
    for (std::size_t i = 0; i < arrivals.size(); ++i) runs[i].store(0);
  }
};

service::arrival_config arrivals_for(std::uint64_t seed) {
  service::arrival_config a;
  a.kind = service::arrival_kind::mmpp;
  a.rate_per_s = k_rate_per_s;
  a.seed = seed;
  a.grain_min_ns = k_grain_min_ns;
  a.grain_max_ns = k_grain_max_ns;
  a.burst_factor = k_burst_factor;
  a.burst_fraction = k_burst_fraction;
  a.burst_dwell_s = k_burst_dwell_s;
  return a;
}

struct rep_out {
  double wall_s = 0, cpu_s = 0, grain_s = 0;
  std::size_t first = 0, last = 0;  // request range [first, last)
  counter_delta counters;
};

// Submits arrivals [first, last) at their due times, offset so that time
// `t_origin` of the stream falls k_lead_ns after the call, then quiesces.
rep_out run_window(gran::thread_manager& tm, service::task_service& svc,
                   stream& s, std::size_t first, std::size_t last,
                   double t_origin, bool traced) {
  rep_out r;
  r.first = first;
  r.last = last;
  const auto before = tm.counter_totals();
  const double cpu0 = process_cpu_s();
  const std::uint64_t base = now_ns() + k_lead_ns;
  stream* sp = &s;
  for (std::size_t i = first; i < last; ++i) {
    const service::arrival_event& a = s.arrivals[i];
    const std::uint64_t due =
        base + static_cast<std::uint64_t>((a.t_s - t_origin) * 1e9);
    s.due[i] = due;
    r.grain_s += static_cast<double>(a.grain_ns) * 1e-9;
    spin_until(due);
    const std::uint64_t s0 = traced ? now_ns() : 0;
    const auto id = static_cast<std::uint32_t>(i);
    const std::uint64_t grain_ns = a.grain_ns;
    svc.submit([sp, id, grain_ns, traced] {
      const std::uint64_t b0 = now_ns();
      spin_until(b0 + grain_ns);
      const std::uint64_t e = now_ns();
      sp->end[id] = e;
      sp->runs[id].fetch_add(1, std::memory_order_relaxed);
      if (traced) trace::emit(trace::name::service_request, b0, e, id);
    });
    if (traced) trace::emit(trace::name::service_submit, s0, now_ns(), id);
  }
  svc.quiesce();
  const std::uint64_t t1 = now_ns();
  const std::uint64_t first_due = first < last ? s.due[first] : base;
  r.wall_s = static_cast<double>(t1 - first_due) * 1e-9;
  r.cpu_s = process_cpu_s() - cpu0;
  r.counters = diff(before, tm.counter_totals());
  return r;
}

// Index of the first arrival at or after time t.
std::size_t lower_index(const stream& s, double t) {
  const auto it = std::lower_bound(
      s.arrivals.begin(), s.arrivals.end(), t,
      [](const service::arrival_event& a, double v) { return a.t_s < v; });
  return static_cast<std::size_t>(it - s.arrivals.begin());
}

}  // namespace

result run_service_mmpp(const options& opt) {
  const double window_s = opt.smoke ? 0.1 : k_window_s;
  const double warm_s = opt.smoke ? 0.05 : k_warm_window_s;
  // Every rep takes at least window_s of wall time, so this many windows
  // outlast the time budget.
  const std::size_t windows =
      static_cast<std::size_t>(opt.seconds / window_s) + 6;

  result res;
  const int workers = worker_count();
  std::unique_ptr<gran::thread_manager> tm;
  std::unique_ptr<service::task_service> svc;
  std::unique_ptr<stream> run;
  const double setup_s = timed_setup(5, [&] {
    svc.reset();
    tm.reset();
    tm = make_pool(res.client_cpu);
    svc = std::make_unique<service::task_service>(*tm);
    run = std::make_unique<stream>(
        service::generate_arrivals(arrivals_for(opt.seed), windows * window_s));
    stream warm(service::generate_arrivals(
        arrivals_for(gran::mix64_combine(opt.seed, ~0ull)), warm_s));
    (void)run_window(*tm, *svc, warm, 0, warm.arrivals.size(), 0, false);
  });
  trace::set_capacity(
      static_cast<std::size_t>(k_rate_per_s * window_s * 4) + 1024);

  std::vector<rep_out> plain, traced;
  std::vector<std::vector<trace::span>> last_spans;
  std::vector<double> submit_p50, submit_p99, wait_p50, wait_p99, late_p99,
      gap_p50, busy;
  std::size_t window = 0;
  bool out_of_input = false;
  run_reps(opt, opt.trace ? 4 : 3, [&](bool tr) {
    if (window >= windows) {
      out_of_input = true;
      return;
    }
    const std::size_t first = lower_index(*run, window * window_s);
    const std::size_t last = lower_index(*run, (window + 1) * window_s);
    rep_out r = run_window(*tm, *svc, *run, first, last, window * window_s, tr);
    ++window;
    if (!tr) {
      plain.push_back(r);
      return;
    }
    traced.push_back(r);
    last_spans = trace::collect();
    std::vector<std::uint64_t> submit_t0(run->arrivals.size(), 0);
    std::vector<double> submit, wait, late;
    for (const auto& v : last_spans)
      for (const trace::span& s : v)
        if (s.what == static_cast<std::uint8_t>(trace::name::service_submit)) {
          submit_t0[s.id] = s.t0;
          submit.push_back(static_cast<double>(s.t1 - s.t0));
          late.push_back(static_cast<double>(s.t0 - run->due[s.id]) * 1e-3);
        }
    for (const auto& v : last_spans)
      for (const trace::span& s : v)
        if (s.what == static_cast<std::uint8_t>(trace::name::service_request) &&
            submit_t0[s.id] != 0 && s.t0 >= submit_t0[s.id])
          wait.push_back(static_cast<double>(s.t0 - submit_t0[s.id]) * 1e-3);
    submit_p50.push_back(quantile(submit, 0.5));
    submit_p99.push_back(quantile(submit, 0.99));
    wait_p50.push_back(quantile(wait, 0.5));
    wait_p99.push_back(quantile(wait, 0.99));
    late_p99.push_back(quantile(late, 0.99));
    gap_p50.push_back(trace::gap_ns_p50(last_spans));
    busy.push_back(trace::busy_ns(last_spans) * 1e-9 / (workers * r.wall_s));
  });

  // Correctness: every request of every measured window ran exactly once,
  // and the service completed exactly what it accepted, refusing nothing.
  res.check(!out_of_input);
  for (const auto* reps : {&plain, &traced})
    for (const rep_out& r : *reps)
      for (std::size_t i = r.first; i < r.last; ++i)
        res.check(run->runs[i].load() == 1);
  const service::task_service::stats st = svc->snapshot();
  res.check(st.accepted == st.completed && st.rejected == 0 && st.shed == 0 &&
            st.accepted == st.submitted);

  std::vector<double> wall;
  for (const rep_out& r : plain) wall.push_back(r.wall_s);
  if (!opt.trace) {
    // Sojourn percentiles are taken per window and reported as the median
    // over windows, like every other rep metric.
    double cpu = 0, n = 0;
    std::vector<double> eff, p50, p99;
    for (const rep_out& r : plain) {
      cpu += r.cpu_s;
      n += static_cast<double>(r.last - r.first);
      eff.push_back(r.grain_s / (workers * r.wall_s));
      std::vector<double> sojourn_us;
      for (std::size_t i = r.first; i < r.last; ++i)
        sojourn_us.push_back(static_cast<double>(run->end[i] - run->due[i]) * 1e-3);
      p50.push_back(quantile(sojourn_us, 0.5));
      p99.push_back(quantile(sojourn_us, 0.99));
    }
    res.add("setup_s", setup_s, "s");
    res.add("wall_s", median(wall), "s", wall.size());
    res.add("efficiency", median(eff), "ratio", eff.size());
    res.add("cpu_per_task_us", cpu / n * 1e6, "us");
    res.add("peak_rss_mb", peak_rss_mib(), "MiB");
    const auto samples = static_cast<std::uint64_t>(n);
    res.add("sojourn_p50_us", median(p50), "us", samples);
    res.add("sojourn_p99_us", median(p99), "us", samples);
    return res;
  }

  std::vector<double> twall;
  counter_delta c;
  for (const rep_out& r : traced) {
    twall.push_back(r.wall_s);
    c += r.counters;
  }
  // Plain single-threaded baseline: the same request bodies, no runtime.
  const std::size_t serial_n = std::min<std::size_t>(run->arrivals.size(), 10'000);
  const std::uint64_t s0 = now_ns();
  for (std::size_t i = 0; i < serial_n; ++i)
    spin_until(now_ns() + run->arrivals[i].grain_ns);
  const double serial_ns = static_cast<double>(now_ns() - s0) /
                           static_cast<double>(std::max<std::size_t>(1, serial_n));

  res.add("service.submit_ns_p50", median(submit_p50), "ns");
  res.add("service.submit_ns_p99", median(submit_p99), "ns");
  res.add("service.queue_wait_us_p50", median(wait_p50), "us");
  res.add("service.queue_wait_us_p99", median(wait_p99), "us");
  res.add("service.backlog_peak", static_cast<double>(st.backlog_peak), "count");
  res.add("bench.gen_late_p99_us", median(late_p99), "us");
  res.add("threads.gap_ns_p50", median(gap_p50), "ns");
  res.add("threads.busy_share", median(busy), "ratio");
  add_counter_metrics(res, c);
  res.add("bench.serial_ns_per_task", serial_ns, "ns");
  res.add("bench.trace_overhead", median(twall) / median(wall) - 1, "ratio");
  report_spans(res, opt, last_spans);
  return res;
}

}  // namespace perfbench
