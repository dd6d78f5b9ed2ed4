// The repository benchmark program.
//
//   dema_perfbench --workload star_inline|tcp_loopback|keyed_100k
//                  --seed N --seconds S --trace 0|1
//
// Runs one workload for S seconds on inputs generated from seed N, checks
// every result against an exact oracle, prints each metric by name with its
// unit, and ends with one JSON line. --trace 1 adds the per-layer ledger
// (spans around every call into a layer) and writes the spans to
// .bench_out/. The exit code is non-zero when any output was wrong.

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

using namespace dema;
using namespace dema::perfbench;

namespace {

int Usage(const std::string& why) {
  std::cerr << "dema_perfbench: " << why
            << "\nusage: dema_perfbench --workload star_inline|tcp_loopback|"
               "keyed_100k --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + arg);
    }
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage("unknown flag " + arg);
    }
    if (end != nullptr && *end != '\0') return Usage("bad value for " + arg);
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  Report report;
  report.workload = options.workload;
  report.seed = options.seed;
  Status st;
  if (options.workload == "star_inline") {
    st = RunStarInline(options, &report);
  } else if (options.workload == "tcp_loopback") {
    st = RunTcpLoopback(options, &report);
  } else if (options.workload == "keyed_100k") {
    st = RunKeyed(options, &report);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (!st.ok()) {
    std::cerr << "workload " << options.workload << " failed: " << st << "\n";
    return 1;
  }
  return EmitReport(options, &report);
}
