// Accuracy-frontier report for fault-injection campaigns.
//
// A campaign (src/campaign) sweeps the fault space and classifies every
// episode against its injected ground truth; this module holds the resulting
// report shape — per-fault-type accuracy-vs-intensity cells plus clustered
// failure modes — and renders it as JSON and markdown. The writers are
// deliberately free of wall-clock, locale, and pointer-derived content:
// byte-identical input data produces byte-identical files, which is what the
// campaign's same-seed determinism test pins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fchain::eval {

/// How one campaign episode's localization compares to its ground truth.
/// The taxonomy (docs/ARCHITECTURE.md has the full table):
///   Localized            pinpointed set == injected faulty set
///   Mislocalized         an incident fired but blamed the wrong set (or
///                        called a genuine component fault external)
///   ExternalCauseCorrect an injected external factor was diagnosed as such
///   FalseAlarm           an incident fired before any fault was active, or
///                        components were blamed for an external factor
///   Missed               the fault was active but no incident fired, or
///                        analysis produced an empty verdict
enum class Outcome : std::uint8_t {
  Localized,
  Mislocalized,
  ExternalCauseCorrect,
  FalseAlarm,
  Missed,
};

inline constexpr std::size_t kOutcomeCount = 5;

std::string_view outcomeName(Outcome outcome);

/// Episode tallies by outcome.
struct OutcomeCounts {
  std::size_t counts[kOutcomeCount] = {};

  void add(Outcome outcome) { ++counts[static_cast<std::size_t>(outcome)]; }
  std::size_t of(Outcome outcome) const {
    return counts[static_cast<std::size_t>(outcome)];
  }
  std::size_t total() const {
    std::size_t sum = 0;
    for (std::size_t c : counts) sum += c;
    return sum;
  }
  /// Fraction of episodes with the *correct* verdict (Localized for
  /// component faults, ExternalCauseCorrect for external factors).
  double correctRate() const {
    const std::size_t n = total();
    if (n == 0) return 0.0;
    return static_cast<double>(of(Outcome::Localized) +
                               of(Outcome::ExternalCauseCorrect)) /
           static_cast<double>(n);
  }
};

/// One point on a fault type's accuracy-vs-intensity curve.
struct FrontierCell {
  std::string fault;        ///< faults::faultTypeName
  double intensity = 1.0;   ///< the sweep's intensity knob
  OutcomeCounts outcomes;
};

/// One clustered failure mode: every episode sharing a deterministic
/// signature (app | fault | overlay | outcome | truth-vs-pinpointed set
/// relation), with one concrete episode kept as the exemplar.
struct FailureCluster {
  std::string signature;
  std::size_t count = 0;
  std::string example;  ///< human-readable description of one member
};

struct FrontierReport {
  std::uint64_t seed = 0;
  std::size_t episode_count = 0;
  OutcomeCounts totals;
  /// Localized rate over single-fault, resource-metric, overlay-free
  /// episodes — the CI smoke gate's guarded scalar. Mesh episodes are
  /// excluded (they have their own rate below) so enabling the mesh sweep
  /// never moves this gate.
  double single_fault_resource_localized_rate = 0.0;
  /// Mesh-sweep attribution. Zero when the campaign has no mesh episodes,
  /// in which case the renderings omit both fields — legacy report bytes
  /// are unchanged.
  std::size_t mesh_episode_count = 0;
  /// Correct-verdict rate (Localized + ExternalCauseCorrect) over mesh
  /// episodes — the mesh smoke job's guarded scalar.
  double mesh_localized_rate = 0.0;
  /// Sorted by fault name, then ascending intensity.
  std::vector<FrontierCell> cells;
  /// Non-Localized/-ExternalCauseCorrect modes, by count desc then signature.
  std::vector<FailureCluster> clusters;
};

/// JSON rendering (stable field order, no wall-clock content).
void writeFrontierJson(std::ostream& out, const FrontierReport& report);
void writeFrontierJson(const std::string& path, const FrontierReport& report);

/// Markdown rendering: outcome totals, per-fault-type accuracy-vs-intensity
/// table, and the failure-mode clusters ("known blind spots" feedstock).
void writeFrontierMarkdown(std::ostream& out, const FrontierReport& report);
void writeFrontierMarkdown(const std::string& path,
                           const FrontierReport& report);

/// Both renderings as strings (determinism tests compare these bytes).
std::string frontierJson(const FrontierReport& report);
std::string frontierMarkdown(const FrontierReport& report);

}  // namespace fchain::eval
