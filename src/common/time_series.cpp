#include "common/time_series.h"

#include <algorithm>

namespace fchain {

std::span<const double> TimeSeries::window(TimeSec from, TimeSec to) const {
  from = std::max(from, start_);
  to = std::min(to, endTime());
  if (from >= to) return {};
  const auto offset = static_cast<std::size_t>(from - start_);
  const auto count = static_cast<std::size_t>(to - from);
  return std::span<const double>(values_).subspan(offset, count);
}

void TimeSeries::trimFront(std::size_t keep) {
  if (values_.size() <= keep) return;
  const std::size_t drop = values_.size() - keep;
  values_.erase(values_.begin(),
                values_.begin() + static_cast<std::ptrdiff_t>(drop));
  start_ += static_cast<TimeSec>(drop);
}

}  // namespace fchain
