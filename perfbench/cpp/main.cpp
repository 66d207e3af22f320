// perfbench: one run of one workload. Usage:
//
//   perfbench --workload <stencil-fine|fork-join|service-mmpp> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//             [--result <file.json>]
//
// Prints a human-readable report (host record, every metric with its unit
// and sample count, and in a traced run the per-layer self-time table) and
// writes the machine-readable result to --result. run.py builds this
// program, calls it and turns the result into the benchmark's output line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::options;
using perfbench::result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <stencil-fine|fork-join|"
               "service-mmpp> --seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--out-dir <dir>] [--result <file>]\n",
               why);
  std::exit(2);
}

std::string read_first_line(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (key == nullptr || line.rfind(key, 0) == 0) {
      if (key == nullptr) return line;
      const auto colon = line.find(':');
      if (colon == std::string::npos) return "";
      const auto start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  return "";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Time the hypervisor gave this VM's CPUs to others (/proc/stat steal),
// seconds summed over CPUs; large values explain slow runs.
double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string host_record(const options& opt, int client_cpu, double steal_s) {
  const gran::scheduler_config cfg = perfbench::pool_config();
  const char* pin = std::getenv("GRAN_PIN");
  std::ostringstream o;
  o << "{\"nproc\": " << perfbench::allowed_cpus()
    << ", \"workers\": " << cfg.num_workers
    << ", \"policy\": " << json_string(cfg.policy)
    << ", \"pinning\": " << json_string(cfg.pin_workers ? (pin ? pin : "compact") : "none")
    << ", \"client_cpu\": " << client_cpu
    << ", \"steal_s\": " << json_number(steal_s)
    << ", \"vm_max_map_count\": "
    << json_string(read_first_line("/proc/sys/vm/max_map_count", nullptr))
    << ", \"cpu_model\": " << json_string(read_first_line("/proc/cpuinfo", "model name"))
    << ", \"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
    << ", \"seconds\": " << json_number(opt.seconds)
    << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"smoke\": " << (opt.smoke ? 1 : 0)
    << "}";
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  std::string result_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--out-dir") opt.out_dir = value();
    else if (a == "--result") result_path = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds must be in (0, 600]");

  const double steal0 = host_steal_s();
  result res;
  if (opt.workload == "stencil-fine") res = perfbench::run_stencil_fine(opt);
  else if (opt.workload == "fork-join") res = perfbench::run_fork_join(opt);
  else if (opt.workload == "service-mmpp") res = perfbench::run_service_mmpp(opt);
  else usage("unknown workload");

  const std::string host = host_record(opt, res.client_cpu, host_steal_s() - steal0);
  const double fail_ratio =
      res.attempted > 0 ? static_cast<double>(res.failed) / res.attempted : 1.0;

  std::printf("host %s\n", host.c_str());
  if (opt.trace)
    std::printf("trace spans dropped (buffers full): %llu\n",
                static_cast<unsigned long long>(perfbench::trace::dropped()));
  for (const auto& row : res.layer_table) std::printf("layer %s\n", row.c_str());
  for (const auto& m : res.metrics) {
    std::printf("metric %-28s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
    std::printf("\n");
  }
  std::printf("metric %-28s %14.6g %-6s attempted=%llu failed=%llu\n", "fail_ratio",
              fail_ratio, "ratio", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));

  if (!result_path.empty()) {
    std::ofstream out(result_path);
    out << "{\"host\": " << host << ", \"attempted\": " << res.attempted
        << ", \"failed\": " << res.failed << ", \"fail_ratio\": " << json_number(fail_ratio)
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
      const auto& m = res.metrics[i];
      out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
          << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
          << ", \"samples\": " << m.samples << "}";
    }
    out << "}}\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", result_path.c_str());
      return 1;
    }
  }
  return res.failed == 0 && res.attempted > 0 ? 0 : 1;
}
