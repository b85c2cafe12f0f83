// End-to-end benchmark entry point. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--corrupt] [--commit <id>] [--trace-out <path>]
//
// Output: a header naming machine and build, raw counters, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from the span trace. Exit status is 0 only when every
// answer passed its check.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pr_recurring|pir_popular|"
               "sharded_mixed_ingest --seed N --seconds S --trace 0|1 "
               "[--smoke] [--corrupt] [--commit ID] [--trace-out PATH]\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

void PrintHeader(const RunOptions& o, const std::string& commit) {
  const CpuFeatures& cpu = GetCpuFeatures();
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d%s%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "",
              o.corrupt ? " corrupt" : "");
  std::printf("# machine nproc=%u adx=%d avx2=%d avx512ifma=%d kernel=%s\n",
              std::thread::hardware_concurrency(), cpu.adx ? 1 : 0,
              cpu.avx2 ? 1 : 0, cpu.avx512ifma ? 1 : 0,
              KernelName(SelectedKernel()));
  std::printf("# build type=%s compiler=\"%s\" commit=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, commit.c_str());
}

// Milliseconds of CPU time the hypervisor stole from this machine, summed
// over its CPUs (the "steal" column of /proc/stat); -1 where unavailable.
// Printed so a slow run can be told apart from a slow program.
double StealMillis() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long ticks = sysconf(_SC_CLK_TCK);
  if (n != 8 || ticks <= 0) return -1;
  return static_cast<double>(v[7]) * 1000.0 / static_cast<double>(ticks);
}

// JSON numbers keep every measured digit (%.17g round-trips a double).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    uint64_t v = 0;
    if (arg == "--workload") {
      const char* s = next();
      if (s == nullptr) return Usage();
      o.workload = s;
      have_workload = true;
    } else if (arg == "--seed") {
      const char* s = next();
      if (s == nullptr || !ParseUint(s, &o.seed)) return Usage();
    } else if (arg == "--seconds") {
      const char* s = next();
      if (s == nullptr || !ParseUint(s, &v) || v < 1 || v > 3600) {
        return Usage();
      }
      o.seconds = static_cast<int>(v);
    } else if (arg == "--trace") {
      const char* s = next();
      if (s == nullptr || !ParseUint(s, &v) || v > 1) return Usage();
      o.trace = v == 1;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else if (arg == "--commit") {
      const char* s = next();
      if (s == nullptr) return Usage();
      commit = s;
    } else if (arg == "--trace-out") {
      const char* s = next();
      if (s == nullptr) return Usage();
      o.trace_path = s;
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  RunResult (*run)(const RunOptions&, Tracer&) = nullptr;
  if (o.workload == "pr_recurring") run = RunPrRecurring;
  if (o.workload == "pir_popular") run = RunPirPopular;
  if (o.workload == "sharded_mixed_ingest") run = RunShardedMixedIngest;
  if (run == nullptr) return Usage();

  PrintHeader(o, commit);
  std::fflush(stdout);

  Tracer tracer(o.trace);
  const double steal_before = StealMillis();
  RunResult r = run(o, tracer);
  const double steal_after = StealMillis();

  for (const auto& [name, value] : r.counts) {
    std::printf("# count %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("# measured_s %.3f host_steal_ms %.0f\n", r.measured_s,
              steal_before < 0 || steal_after < 0 ? -1.0
                                                  : steal_after - steal_before);
  // The traced run also prints its (traced) end-to-end figures, so the
  // tracing overhead is the difference to an untraced run of the same seed.
  if (o.trace) {
    for (const Metric& m : r.end_to_end) {
      std::printf("# traced %s %s %s\n", m.name.c_str(),
                  JsonNumber(m.value).c_str(), m.unit.c_str());
    }
    if (!o.trace_path.empty() && !tracer.Write(o.trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", o.trace_path.c_str());
    } else if (!o.trace_path.empty()) {
      std::printf("# trace %zu spans -> %s\n", tracer.spans().size(),
                  o.trace_path.c_str());
    }
  }
  if (!r.correct) {
    std::printf("# CHECK FAILED: %s\n", r.first_failure.c_str());
  }

  const std::vector<Metric>& metrics = o.trace ? r.per_layer : r.end_to_end;
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
