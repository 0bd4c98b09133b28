#include "eval/frontier.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace fchain::eval {

namespace {

/// Shortest round-trippable decimal rendering, locale-independent. %g keeps
/// intensity knobs like 0.6 / 1.0 / 1.6 readable and stable.
std::string num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

void writeCounts(std::ostream& out, const OutcomeCounts& counts) {
  out << '{';
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    if (i > 0) out << ',';
    out << '"' << outcomeName(static_cast<Outcome>(i))
        << "\":" << counts.counts[i];
  }
  out << '}';
}

}  // namespace

std::string_view outcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::Localized: return "localized";
    case Outcome::Mislocalized: return "mislocalized";
    case Outcome::ExternalCauseCorrect: return "external_cause_correct";
    case Outcome::FalseAlarm: return "false_alarm";
    case Outcome::Missed: return "missed";
  }
  return "unknown";
}

void writeFrontierJson(std::ostream& out, const FrontierReport& report) {
  out << "{\n";
  out << "  \"seed\": " << report.seed << ",\n";
  out << "  \"episodes\": " << report.episode_count << ",\n";
  out << "  \"totals\": ";
  writeCounts(out, report.totals);
  out << ",\n";
  out << "  \"single_fault_resource_localized_rate\": "
      << num(report.single_fault_resource_localized_rate) << ",\n";
  if (report.mesh_episode_count > 0) {
    out << "  \"mesh_episodes\": " << report.mesh_episode_count << ",\n";
    out << "  \"mesh_localized_rate\": " << num(report.mesh_localized_rate)
        << ",\n";
  }
  out << "  \"frontier\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const FrontierCell& cell = report.cells[i];
    out << "    {\"fault\": \"" << jsonEscape(cell.fault)
        << "\", \"intensity\": " << num(cell.intensity)
        << ", \"correct_rate\": " << num(cell.outcomes.correctRate())
        << ", \"outcomes\": ";
    writeCounts(out, cell.outcomes);
    out << '}' << (i + 1 < report.cells.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"failure_clusters\": [\n";
  for (std::size_t i = 0; i < report.clusters.size(); ++i) {
    const FailureCluster& cluster = report.clusters[i];
    out << "    {\"signature\": \"" << jsonEscape(cluster.signature)
        << "\", \"count\": " << cluster.count << ", \"example\": \""
        << jsonEscape(cluster.example) << "\"}"
        << (i + 1 < report.clusters.size() ? "," : "") << '\n';
  }
  out << "  ]\n";
  out << "}\n";
}

void writeFrontierMarkdown(std::ostream& out, const FrontierReport& report) {
  out << "# Fault-campaign accuracy frontier\n\n";
  out << "Seed " << report.seed << ", " << report.episode_count
      << " episodes.\n\n";

  out << "## Outcome totals\n\n";
  out << "| outcome | episodes |\n|---|---|\n";
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    out << "| " << outcomeName(static_cast<Outcome>(i)) << " | "
        << report.totals.counts[i] << " |\n";
  }
  out << "\nSingle-fault resource-episode localized rate: "
      << num(report.single_fault_resource_localized_rate) << "\n\n";
  if (report.mesh_episode_count > 0) {
    out << "Mesh-episode correct rate: " << num(report.mesh_localized_rate)
        << " (" << report.mesh_episode_count << " episodes)\n\n";
  }

  out << "## Accuracy vs. intensity (per fault type)\n\n";
  out << "| fault | intensity | correct | localized | mislocalized | "
         "external-correct | false-alarm | missed |\n";
  out << "|---|---|---|---|---|---|---|---|\n";
  for (const FrontierCell& cell : report.cells) {
    out << "| " << cell.fault << " | " << num(cell.intensity) << " | "
        << num(cell.outcomes.correctRate());
    for (std::size_t i = 0; i < kOutcomeCount; ++i) {
      out << " | " << cell.outcomes.counts[i];
    }
    out << " |\n";
  }

  out << "\n## Failure-mode clusters\n\n";
  if (report.clusters.empty()) {
    out << "(none — every episode was classified correct)\n";
  } else {
    out << "| count | signature | example |\n|---|---|---|\n";
    for (const FailureCluster& cluster : report.clusters) {
      out << "| " << cluster.count << " | " << cluster.signature << " | "
          << cluster.example << " |\n";
    }
  }
}

namespace {

void writeFile(const std::string& path,
               void (*writer)(std::ostream&, const FrontierReport&),
               const FrontierReport& report) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  writer(out, report);
}

}  // namespace

void writeFrontierJson(const std::string& path, const FrontierReport& report) {
  writeFile(path, &writeFrontierJson, report);
}

void writeFrontierMarkdown(const std::string& path,
                           const FrontierReport& report) {
  writeFile(path, &writeFrontierMarkdown, report);
}

std::string frontierJson(const FrontierReport& report) {
  std::ostringstream out;
  writeFrontierJson(out, report);
  return out.str();
}

std::string frontierMarkdown(const FrontierReport& report) {
  std::ostringstream out;
  writeFrontierMarkdown(out, report);
  return out.str();
}

}  // namespace fchain::eval
