// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <ingest|diagnose|restart> --seed <n> --seconds <s>
//             --trace <0|1> [--size tiny] [--corrupt-reference]
//
// Prints notes, a metric table and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics with the global tracer forced off; --trace 1 the
// per-layer metrics. Exits 1 when a correctness gate failed and 2, without a
// result, on bad arguments or a run that could not complete.
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest|diagnose|restart> "
               "--seed <n> --seconds <s> --trace <0|1> [--size tiny] "
               "[--corrupt-reference]\n");
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--size") {
        const std::string size = value();
        if (size != "tiny" && size != "full") usage();
        options.tiny = size == "tiny";
      } else if (arg == "--corrupt-reference") {
        options.corrupt_reference = true;
      } else {
        usage();
      }
    } catch (const std::logic_error&) {
      usage();
    }
  }
  if (options.workload != "ingest" && options.workload != "diagnose" &&
      options.workload != "restart") {
    usage();
  }
  if (!(options.seconds > 0.0)) usage();
  return options;
}

void printReport(const Options& options, const Report& report) {
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  for (const std::string& line : report.failures) {
    std::printf("GATE FAILED: %s\n", line.c_str());
  }
  std::printf("\n%-32s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  for (const Report::Metric& m : report.metrics) {
    std::printf("%-32s %16.6g %-9s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const double error_frac =
      static_cast<double>(report.failed) /
      static_cast<double>(report.attempted > 0 ? report.attempted : 1);
  std::printf("%-32s %16.6g %-9s %zu\n", "error_frac", error_frac, "fraction",
              report.attempted);
  std::printf("workload %s, seed %llu, %s\n\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseArgs(argc, argv);
  // A peer vanishing mid-reply must not kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);
  // End-to-end numbers are measured untraced, whatever FCHAIN_TRACE says.
  perfbench::setTracing(false);

  Report report;
  try {
    perfbench::freshDir(options.work_dir);
    if (options.workload == "ingest") {
      report = perfbench::runIngest(options);
    } else if (options.workload == "diagnose") {
      report = perfbench::runDiagnose(options);
    } else {
      report = perfbench::runRestart(options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ignored;
    std::filesystem::remove_all(options.work_dir, ignored);
    return 2;
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  printReport(options, report);
  return report.failed == 0 ? 0 : 1;
}
