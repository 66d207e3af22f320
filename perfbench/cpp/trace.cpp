#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace {

struct buffer {
  std::vector<span> spans;  // preallocated; `n` used
  std::size_t n = 0;
  std::uint64_t dropped = 0;
};

std::mutex g_mutex;  // guards g_buffers and g_capacity
std::vector<std::unique_ptr<buffer>> g_buffers;
std::size_t g_capacity = 1 << 16;
thread_local buffer* t_buffer = nullptr;

buffer* make_buffer() {
  std::lock_guard<std::mutex> lock(g_mutex);
  auto b = std::make_unique<buffer>();
  // value-initialized: every page is touched here, not on the hot path
  b->spans.resize(g_capacity);
  g_buffers.push_back(std::move(b));
  return g_buffers.back().get();
}

const char* const k_names[] = {
    "graph.build",  "graph.node",    "graph.fold",     "graph.kernel",
    "fork.task",    "fork.run",      "async.spawn",    "async.get",
    "service.submit", "service.request",
};
static_assert(sizeof(k_names) / sizeof(k_names[0]) ==
              static_cast<std::size_t>(name::count_));

double median_of(std::vector<double>& v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

const char* to_string(name n) noexcept { return k_names[static_cast<int>(n)]; }

// Spans that are on-CPU body segments (busy time and per-thread gaps).
bool is_segment(name n) noexcept {
  return n == name::graph_node || n == name::fork_run ||
         n == name::service_request;
}

}  // namespace

void set_capacity(std::size_t spans_per_thread) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_capacity = spans_per_thread;
}

void clear() noexcept {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& b : g_buffers) b->n = 0;
}

void emit(name n, std::uint64_t t0, std::uint64_t t1, std::uint32_t id,
          std::uint32_t parent, std::uint32_t arg, std::uint8_t flags) noexcept {
  buffer* b = t_buffer;
  if (b == nullptr) b = t_buffer = make_buffer();
  if (b->n == b->spans.size()) {
    ++b->dropped;
    return;
  }
  b->spans[b->n++] = span{t0, t1, id, parent, arg, static_cast<std::uint8_t>(n), flags};
}

std::uint64_t dropped() noexcept {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::uint64_t d = 0;
  for (auto& b : g_buffers) d += b->dropped;
  return d;
}

std::vector<std::vector<span>> collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<std::vector<span>> out;
  for (auto& b : g_buffers)
    out.emplace_back(b->spans.begin(),
                     b->spans.begin() + static_cast<std::ptrdiff_t>(b->n));
  return out;
}

std::vector<layer_row> layer_table(const std::vector<std::vector<span>>& threads) {
  // Spans of one id nest (a child lies inside its parent's interval), so
  // sorting by (id, t0 ascending, t1 descending) and keeping a stack of open
  // spans gives each span its innermost enclosing span.
  std::vector<span> all;
  for (const auto& v : threads) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(), [](const span& a, const span& b) {
    if (a.id != b.id) return a.id < b.id;
    if (a.t0 != b.t0) return a.t0 < b.t0;
    return a.t1 > b.t1;
  });
  const std::size_t k = static_cast<std::size_t>(name::count_);
  std::vector<double> child_ns(all.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < all.size(); ++i) {
    while (!open.empty() && (all[open.back()].id != all[i].id ||
                             all[open.back()].t1 < all[i].t1 ||
                             all[open.back()].t1 <= all[i].t0))
      open.pop_back();
    if (!open.empty())
      child_ns[open.back()] += static_cast<double>(all[i].t1 - all[i].t0);
    open.push_back(i);
  }
  std::vector<layer_row> rows(k);
  std::vector<std::vector<double>> durations(k);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::size_t w = all[i].what;
    const double d = static_cast<double>(all[i].t1 - all[i].t0);
    rows[w].what = static_cast<name>(w);
    ++rows[w].count;
    rows[w].total_ms += d * 1e-6;
    rows[w].self_ms += std::max(0.0, d - child_ns[i]) * 1e-6;
    durations[w].push_back(d);
  }
  std::vector<layer_row> out;
  for (std::size_t w = 0; w < k; ++w) {
    if (rows[w].count == 0) continue;
    rows[w].p50_ns = median_of(durations[w]);
    out.push_back(rows[w]);
  }
  return out;
}

std::vector<std::string> format_layer_table(const std::vector<layer_row>& rows) {
  std::vector<std::string> out;
  char line[160];
  std::snprintf(line, sizeof line, "%-16s %10s %12s %12s %12s", "span", "count",
                "total_ms", "self_ms", "p50_ns");
  out.emplace_back(line);
  for (const layer_row& r : rows) {
    std::snprintf(line, sizeof line, "%-16s %10llu %12.3f %12.3f %12.0f",
                  to_string(r.what), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.self_ms, r.p50_ns);
    out.emplace_back(line);
  }
  return out;
}

double gap_ns_p50(const std::vector<std::vector<span>>& threads) {
  std::vector<double> gaps;
  for (const auto& v : threads) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seg;
    for (const span& s : v)
      if (is_segment(static_cast<name>(s.what))) seg.emplace_back(s.t0, s.t1);
    std::sort(seg.begin(), seg.end());
    for (std::size_t i = 1; i < seg.size(); ++i)
      if (seg[i].first >= seg[i - 1].second)
        gaps.push_back(static_cast<double>(seg[i].first - seg[i - 1].second));
  }
  return median_of(gaps);
}

double busy_ns(const std::vector<std::vector<span>>& threads) {
  double sum = 0;
  for (const auto& v : threads)
    for (const span& s : v)
      if (is_segment(static_cast<name>(s.what))) sum += static_cast<double>(s.t1 - s.t0);
  return sum;
}

bool dump_csv(const std::vector<std::vector<span>>& threads,
              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,name,t0_ns,t1_ns,id,parent,arg,flags\n");
  for (std::size_t t = 0; t < threads.size(); ++t)
    for (const span& s : threads[t])
      std::fprintf(f, "%zu,%s,%llu,%llu,%u,%u,%u,%u\n", t,
                   to_string(static_cast<name>(s.what)),
                   static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1), s.id, s.parent, s.arg,
                   static_cast<unsigned>(s.flags));
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
