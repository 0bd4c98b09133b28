// Sliding block maximum for the selector's history error floor.
//
// The floor compares each candidate's observed prediction error — a max over
// a probe neighbourhood of half-width r — with the typical error of the same
// shape in the history, so the history is first turned into its width-2r+1
// block maxima (paper §II-B's predictability test, DESIGN.md §6). A direct
// scan costs 2r + 1 comparisons per sample; this kernel builds the same
// values with log-step doubling passes instead.
#pragma once

#include <span>
#include <vector>

namespace fchain::signal {

/// Writes, for every i in [0, xs.size()), the maximum of +0.0 and the
/// non-NaN values of xs[i - r, i + r] (clipped to the series) — exactly the
/// doubles of the direct scan `peak = 0.0; peak = std::max(peak, x)`:
/// NaN and negative values never win, and -0.0 reads as +0.0.
///
/// `lane` is resized to xs.size() + 2r (no allocation once its capacity is
/// reached) and used as the padded work buffer; the result is its first
/// xs.size() entries, returned as a span. `lane` must not alias `xs`.
std::span<double> slidingMaxInto(std::span<const double> xs,
                                 std::size_t radius,
                                 std::vector<double>& lane);

}  // namespace fchain::signal
