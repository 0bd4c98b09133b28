#include "signal/scratch.h"

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "obs/metrics.h"

namespace fchain::signal {

namespace {

/// Fisher-Yates over an index row.
void shuffleRow(std::uint32_t* row, std::size_t n, fchain::Rng& rng) {
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(row[i], row[rng.below(i + 1)]);
  }
}

/// Generates the canonical permutation block for (seed, rounds, n): round 0
/// shuffles the identity, each later round shuffles the previous round's
/// permutation (composing permutations), all from an RNG derived only from
/// (seed, n). This
/// definition is independent of caching: pooled and overflow paths produce
/// identical blocks.
void generateBlock(std::uint64_t seed, std::size_t rounds, std::size_t n,
                   std::vector<std::uint32_t>& out) {
  out.resize(rounds * n);
  if (rounds == 0 || n == 0) return;
  fchain::Rng rng(fchain::mixSeed(seed, 0xb0075ULL, n));
  std::iota(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(n), 0u);
  shuffleRow(out.data(), n, rng);
  for (std::size_t r = 1; r < rounds; ++r) {
    std::uint32_t* row = out.data() + r * n;
    std::copy_n(row - n, n, row);
    shuffleRow(row, n, rng);
  }
}

}  // namespace

std::span<const std::uint32_t> PermutationPool::permutations(
    std::uint64_t seed, std::size_t rounds, std::size_t n) {
  if (seed != seed_ || rounds != rounds_) {
    // A different bootstrap configuration invalidates every cached block.
    pool_.clear();
    seed_ = seed;
    rounds_ = rounds;
  }
  if (n > kMaxPooledLength) {
    generateBlock(seed, rounds, n, overflow_);
    return overflow_;
  }
  auto [it, inserted] = pool_.try_emplace(n);
  if (inserted) generateBlock(seed, rounds, n, it->second);
  return it->second;
}

std::size_t PermutationPool::retainedBytes() const {
  std::size_t bytes = overflow_.capacity() * sizeof(std::uint32_t);
  for (const auto& [n, block] : pool_) {
    bytes += block.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

SignalScratch::SignalScratch() = default;

const FftPlan& SignalScratch::plan(std::size_t n) {
  auto [it, inserted] = plans_.try_emplace(n);
  if (inserted) it->second = FftPlan::make(n);
  return it->second;
}

std::uint64_t SignalScratch::retainedBytes() const {
  std::size_t bytes = 0;
  for (const std::vector<double>* lane :
       {&smoothed_, &shuffle_, &burst_, &block_max_, &diffs_, &stats_a_,
        &stats_b_}) {
    bytes += lane->capacity() * sizeof(double);
  }
  bytes += spectrum_.capacity() * sizeof(std::complex<double>);
  bytes += points_.capacity() * sizeof(ChangePoint);
  bytes += outliers_.capacity() * sizeof(ChangePoint);
  bytes += pool_.retainedBytes();
  for (const auto& [n, plan] : plans_) {
    bytes += plan.bitrev.capacity() * sizeof(std::uint32_t) +
             (plan.forward.capacity() + plan.inverse.capacity()) *
                 sizeof(std::complex<double>);
  }
  return bytes;
}

ScratchStats SignalScratch::stats() const {
  return ScratchStats{grow_events_, retainedBytes()};
}

void SignalScratch::accountGrowth() {
  const std::uint64_t bytes = retainedBytes();
  if (bytes <= published_bytes_ && grow_events_ == published_grow_events_) {
    return;
  }
  if (bytes > published_bytes_) ++grow_events_;
  // Registration is mutex-protected inside the registry but only the deltas
  // below run per call, and only when something actually grew.
  static obs::Counter& grow_counter =
      obs::metrics().counter("signal.scratch.grow_events");
  static obs::Gauge& bytes_gauge =
      obs::metrics().gauge("signal.scratch.bytes");
  grow_counter.add(grow_events_ - published_grow_events_);
  if (bytes >= published_bytes_) {
    bytes_gauge.add(static_cast<double>(bytes - published_bytes_));
  } else {
    bytes_gauge.add(-static_cast<double>(published_bytes_ - bytes));
  }
  published_grow_events_ = grow_events_;
  published_bytes_ = bytes;
}

SignalScratch& threadScratch() {
  static thread_local SignalScratch scratch;
  return scratch;
}

}  // namespace fchain::signal
