// The repo benchmark: runs one named workload for a time budget and prints
// its metrics as one JSON line (see lambench/README.md).
//
//   lambench --workload math_32B_1024gpu --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with the registry unwrapped
// (plus one traced check run); --trace 1 alternates untraced and traced reps
// and reports the per-layer table. --spans PATH writes the last traced rep's
// spans as CSV. Exit code 0 = every op passed its output checks; the JSON is
// printed either way so the caller can show what failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lambench/measure.h"
#include "lambench/workloads.h"

namespace lambench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lambench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  unsigned long long seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (argc % 2 != 1 || !MakeWorkload(workload, seed, &w) || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  MeasureOptions opt;
  opt.seconds = seconds;
  opt.trace = trace == 1;
  opt.spans_path = spans_path;
  MeasureResult res = Measure(w, opt);

  std::string out = "{\"correct\": ";
  out += res.failed == 0 && res.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : res.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      res.errors.push_back("metric " + m.name + " is not finite");
      v = 0.0;
    }
    out += first ? "" : ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(v) +
           ", \"unit\": " + JsonString(m.unit) + ", \"samples\": " + std::to_string(m.samples) +
           "}";
  }
  out += "}, \"reps\": {\"setup\": " + std::to_string(res.setup_reps) +
         ", \"untraced\": " + std::to_string(res.untraced_reps) +
         ", \"traced\": " + std::to_string(res.traced_reps) + "}";
  out += ", \"build\": {\"compiler\": " + JsonString(LAMBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(LAMBENCH_BUILD_TYPE) + "}";
  out += ", \"errors\": [";
  for (size_t i = 0; i < res.errors.size() && i < 20; ++i) {
    out += (i ? ", " : "") + JsonString(res.errors[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return res.failed == 0 && res.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace lambench

int main(int argc, char** argv) { return lambench::Main(argc, argv); }
