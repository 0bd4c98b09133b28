// Online discrete-time Markov-chain transition model (the PRESS [12] core).
//
// The model counts observed state-to-state transitions and predicts the next
// value as the expectation over the next-state distribution. Counts decay
// with a configurable factor so the model tracks slowly evolving workloads
// ("the prediction model must have seen and learned the change before",
// paper §II-A) without being dominated by stale history.
#pragma once

#include <cstddef>
#include <vector>

namespace fchain::persist {
struct StateAccess;
}

namespace fchain::markov {

class MarkovModel {
 public:
  /// `states`: number of discrete states.
  /// `decay`: multiplicative decay applied to a row's counts on update
  ///          (1.0 = never forget).
  /// `laplace`: add-k smoothing mass per cell when forming probabilities.
  explicit MarkovModel(std::size_t states, double decay = 0.999,
                       double laplace = 0.05);

  std::size_t states() const { return states_; }

  /// Records the transition from -> to.
  void recordTransition(std::size_t from, std::size_t to);

  /// P(next == to | current == from), Laplace-smoothed.
  double transitionProbability(std::size_t from, std::size_t to) const;

  /// True when state `from` has enough observed mass for a real prediction.
  bool seenState(std::size_t from) const;

  /// Expected next state (fractional) given the current state; when the
  /// current state was never seen, returns the current state itself
  /// (persistence prediction).
  double expectedNextState(std::size_t from) const;

  /// Most probable next state.
  std::size_t likeliestNextState(std::size_t from) const;

 private:
  /// Snapshot/restore bridge (persist/state_access.h). row_mass_ must be
  /// persisted, not recomputed: it is maintained incrementally under decay,
  /// so a recomputed sum can differ in the last bits.
  friend struct ::fchain::persist::StateAccess;

  double cell(std::size_t from, std::size_t to) const {
    return counts_[from * states_ + to];
  }

  std::size_t states_;
  double decay_;
  double laplace_;
  std::vector<double> counts_;    // row-major [from][to]
  std::vector<double> row_mass_;  // cached per-row totals
};

}  // namespace fchain::markov
