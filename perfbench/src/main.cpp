// perfbench: the controller's wall-clock benchmark.
//
//   perfbench --workload <call_setup|oplog_replay|fault_campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--source-id <id>]
//
// Prints a stamp line (host, compiler, build, source, seed), one line per
// metric and, last, the JSON result. Exits 1 when an output is wrong.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--source-id <id>]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out") {
        options.out_dir = value;
      } else if (flag == "--source-id") {
        source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(options.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  options.threads = std::max(1u, std::thread::hardware_concurrency());

  std::printf("stamp  cpu=\"%s\" nproc=%zu compiler=\"%s\" build=%s source=%s "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              cpu_model().c_str(), options.threads, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, source_id.c_str(), options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  perfbench::Report report;
  if (options.workload == "call_setup") {
    perfbench::run_call_setup(options, report);
  } else if (options.workload == "oplog_replay") {
    perfbench::run_oplog_replay(options, report);
  } else if (options.workload == "fault_campaign") {
    perfbench::run_fault_campaign(options, report);
  } else {
    usage("unknown workload '" + options.workload + "'");
  }
  if (options.trace) {
    report.emit(std::data(perfbench::kPerLayer), std::size(perfbench::kPerLayer), true);
  } else {
    report.emit(std::data(perfbench::kEndToEnd), std::size(perfbench::kEndToEnd), false);
  }
  return report.correct() ? 0 : 1;
}
