// lqcd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>]
//
// Runs one benchmark workload, prints context and sample-count lines,
// and ends its output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage or runtime error (no JSON line then).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: lqcd_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a non-negative integer");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || !std::isfinite(opt.seconds))
        return usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_path = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunReport rep;
  try {
    rep = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  for (const auto& n : rep.notes) std::printf("%s\n", n.c_str());
  for (const auto& m : rep.metrics)
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              rep.correct ? "true" : "false",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", rep.metrics[i].name.c_str(),
                rep.metrics[i].value, rep.metrics[i].unit.c_str());
  std::printf("}}\n");
  return rep.correct ? 0 : 1;
}
