// Reproduces paper Fig. 11: online pinpointing validation effectiveness for
// the two most challenging System S faults — Bottleneck and concurrent
// CpuHog. "FChain+VAL" re-checks every pinpointed component by scaling its
// fault-related resource on a copy of the simulation snapshot taken at
// violation time and watching the SLO.
//
// Expected shape: validation removes most of the false alarms (precision
// jumps), but cannot recover missed components (recall unchanged or lower —
// the paper notes the same limitation).
//
// The run also prints the mean wall time of validation per validated
// component, the Table II "online validation" row (EXPERIMENTS.md).
#include <chrono>

#include "bench_util.h"
#include "fchain/validation.h"

using namespace fchain;

namespace {

void runValidationCase(const eval::FaultCase& fault_case,
                       const benchutil::Args& args) {
  eval::TrialOptions options;
  options.trials = args.trials;
  options.base_seed = args.seed;
  options.keep_snapshots = true;
  const auto set = eval::generateTrials(fault_case, options);
  if (set.trials.empty()) {
    std::printf("== %s: no trial produced an SLO violation ==\n\n",
                fault_case.label.c_str());
    return;
  }

  const core::FChainConfig& config = fault_case.fchain_config;
  core::IntegratedPinpointer pinpointer(config);
  core::AbnormalChangeSelector selector(config);
  core::OnlineValidator validator;

  eval::Counts plain_counts;
  eval::Counts validated_counts;
  double validate_ms = 0.0;
  std::size_t validated_components = 0;
  for (const auto& trial : set.trials) {
    const auto result = core::localizeRecord(
        trial.record, &trial.discovered, config);
    plain_counts.accumulate(result.pinpointed, trial.record.ground_truth);

    std::vector<ComponentId> validated = result.pinpointed;
    if (trial.snapshot.has_value() && !result.pinpointed.empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      validated = validator.validate(*trial.snapshot, result);
      validate_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      validated_components += result.pinpointed.size();
    }
    validated_counts.accumulate(validated, trial.record.ground_truth);
  }

  std::printf("== %s (%zu trials) ==\n", fault_case.label.c_str(),
              set.trials.size());
  std::printf("%-12s  P=%.3f  R=%.3f  (tp=%zu fp=%zu fn=%zu)\n", "FChain",
              plain_counts.precision(), plain_counts.recall(),
              plain_counts.tp, plain_counts.fp, plain_counts.fn);
  std::printf("%-12s  P=%.3f  R=%.3f  (tp=%zu fp=%zu fn=%zu)\n",
              "FChain+VAL", validated_counts.precision(),
              validated_counts.recall(), validated_counts.tp,
              validated_counts.fp, validated_counts.fn);
  std::printf("validation: %.3f ms wall per validated component (%zu "
              "components)\n\n",
              validated_components > 0
                  ? validate_ms / static_cast<double>(validated_components)
                  : 0.0,
              validated_components);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parseArgs(argc, argv);
  std::printf(
      "Figure 11: online validation effectiveness (two hard System S "
      "faults)\n(%zu trials per fault, base seed %llu)\n\n",
      args.trials, static_cast<unsigned long long>(args.seed));
  runValidationCase(eval::systemsBottleneck(), args);
  runValidationCase(eval::systemsConcCpuHog(), args);
  return 0;
}
