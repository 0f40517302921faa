// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload gpu-fig8 --seed 12648430 --seconds 10 --trace 0
//             [--expected-dir perfbench/expected] [--out-dir DIR]
//             [--write-expected FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. --write-expected stores the first pass's simulated
// stats (run at the default seed to refresh perfbench/expected/).
#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "perfbench.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload gpu-fig8|noc-sparse|noc-qos-saturated\n"
    "                 [--seed N] [--seconds S] [--trace 0|1]\n"
    "                 [--expected-dir DIR] [--out-dir DIR]"
    " [--write-expected FILE]\n";

struct Args {
  std::string workload;
  perfbench::RunOptions run;
  std::string expected_dir;
  std::string out_dir;
  std::string write_expected;
};

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || v[0] == '-' || used != v.size()) {
    throw std::invalid_argument(flag + " wants a non-negative integer, got '" +
                                v + "'");
  }
  return n;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.run.seed = ParseUnsigned(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t s = ParseUnsigned(flag, value);
      if (s > 3600) throw std::invalid_argument("--seconds is at most 3600");
      args.run.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace wants 0 or 1");
      }
      args.run.trace = value == "1";
    } else if (flag == "--expected-dir") {
      args.expected_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--write-expected") {
      args.write_expected = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "gpu-fig8" && !perfbench::IsNocWorkload(args.workload)) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  return args;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Peak resident set of this process, in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }

  try {
    gnoc::JsonValue expected;
    if (!args.expected_dir.empty() &&
        args.run.seed == perfbench::kDefaultSeed) {
      expected = gnoc::JsonValue::Parse(
          ReadFile(args.expected_dir + "/" + args.workload + ".json"));
      args.run.expected = &expected;
    }
    if (args.run.trace && !args.out_dir.empty()) {
      std::filesystem::create_directories(args.out_dir);
      args.run.trace_path = args.out_dir + "/trace_" + args.workload +
                            "_seed" + std::to_string(args.run.seed) + ".json";
    }

    perfbench::WorkloadReport report =
        args.workload == "gpu-fig8"
            ? perfbench::RunGpuFig8(args.run)
            : perfbench::RunNocWorkload(args.workload, args.run);
    if (!args.run.trace) {
      report.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    }
    if (!args.write_expected.empty()) {
      std::ofstream out(args.write_expected);
      out << report.stats_json;
      out.flush();
      if (!out) throw std::runtime_error("cannot write " + args.write_expected);
    }

    for (const std::string& note : report.notes) std::cout << note << "\n";
    for (const perfbench::Metric& m : report.metrics) {
      std::cout << "  " << m.name << " = " << gnoc::JsonNumber(m.value) << " "
                << m.unit << "\n";
    }
    gnoc::JsonWriter w(std::cout, 0);
    w.BeginObject();
    w.Key("correct").Value(report.failed == 0);
    w.Key("attempted").Value(report.attempted);
    w.Key("failed").Value(report.failed);
    w.Key("metrics").BeginObject();
    for (const perfbench::Metric& m : report.metrics) {
      w.Key(m.name).BeginObject();
      w.Key("value").Value(m.value);
      w.Key("unit").Value(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    std::cout << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
