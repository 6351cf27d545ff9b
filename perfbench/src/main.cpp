/// \file main.cpp
/// perfbench: runs one benchmark workload with one seed and prints the
/// result object as the last line of standard output.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-dir DIR] [--corrupt-reference]
///
/// With --trace 0 the metrics are the end-to-end ones, measured untraced.
/// With --trace 1 the run also replays a prefix of the same jobs on one
/// thread through each layer's public function and prints the per-layer
/// metrics.  The exit code is 0 only when every output check passed.

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload canonical-sparse|classify-large|canonical-drop|"
               "serve-mixed --seed N --seconds S --trace 0|1 [--trace-dir DIR] "
               "[--corrupt-reference]\n";
  std::exit(2);
}

perfbench::RunSettings parse_arguments(int argc, char** argv) {
  perfbench::RunSettings settings;
  bool has_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      settings.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        settings.workload = value;
        has_workload = true;
      } else if (flag == "--seed") {
        settings.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        settings.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        settings.trace = value == "1";
      } else if (flag == "--trace-dir") {
        settings.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + flag + ": " + value);
    }
  }
  if (!has_workload) {
    usage("--workload is required");
  }
  if (!(settings.seconds > 0.0 && settings.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  if (settings.workload != "serve-mixed" && !perfbench::is_sweep_workload(settings.workload)) {
    usage("unknown workload " + settings.workload);
  }
  return settings;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunSettings settings = parse_arguments(argc, argv);
  perfbench::RunResult result;
  try {
    if (settings.workload == "serve-mixed") {
      perfbench::run_serve_workload(settings, result);
    } else {
      perfbench::run_sweep_workload(settings, result);
    }
  } catch (const std::exception& failure) {
    result.check(false, std::string("run aborted: ") + failure.what());
  }
  std::cout << result.json() << std::endl;
  return result.correct() ? 0 : 1;
}
