#include "markov/markov_model.h"

#include <algorithm>
#include <stdexcept>

namespace fchain::markov {

MarkovModel::MarkovModel(std::size_t states, double decay, double laplace)
    : states_(states), decay_(decay), laplace_(laplace),
      counts_(states * states, 0.0), row_mass_(states, 0.0) {
  if (states_ == 0) throw std::invalid_argument("MarkovModel needs >= 1 state");
  if (decay_ <= 0.0 || decay_ > 1.0) {
    throw std::invalid_argument("MarkovModel decay must be in (0, 1]");
  }
}

void MarkovModel::recordTransition(std::size_t from, std::size_t to) {
  if (from >= states_ || to >= states_) {
    throw std::out_of_range("MarkovModel::recordTransition state");
  }
  if (decay_ < 1.0) {
    double mass = 0.0;
    for (std::size_t j = 0; j < states_; ++j) {
      counts_[from * states_ + j] *= decay_;
      mass += counts_[from * states_ + j];
    }
    row_mass_[from] = mass;
  }
  counts_[from * states_ + to] += 1.0;
  row_mass_[from] += 1.0;
}

double MarkovModel::transitionProbability(std::size_t from,
                                          std::size_t to) const {
  const double denom =
      row_mass_[from] + laplace_ * static_cast<double>(states_);
  return (cell(from, to) + laplace_) / denom;
}

bool MarkovModel::seenState(std::size_t from) const {
  return row_mass_[from] >= 1.0;
}

double MarkovModel::expectedNextState(std::size_t from) const {
  if (!seenState(from)) return static_cast<double>(from);
  // Expectation over the *observed* (unsmoothed) distribution: smoothing
  // toward uniform would bias every prediction toward mid-range.
  double expectation = 0.0;
  for (std::size_t to = 0; to < states_; ++to) {
    expectation += static_cast<double>(to) * cell(from, to);
  }
  return expectation / row_mass_[from];
}

std::size_t MarkovModel::likeliestNextState(std::size_t from) const {
  if (!seenState(from)) return from;
  const auto row = counts_.begin() + static_cast<std::ptrdiff_t>(from * states_);
  return static_cast<std::size_t>(
      std::distance(row, std::max_element(row, row + static_cast<std::ptrdiff_t>(states_))));
}

}  // namespace fchain::markov
