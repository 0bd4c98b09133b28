// Scoped switch for the process-global tracer.
//
// The global tracer starts on when FCHAIN_TRACE is set, and a test may need
// it the other way for one region: off around an allocation count (a
// recorded span allocates), on to observe which spans a call opens. The
// guard sets the requested state and restores the previous one on scope
// exit, so the rest of the binary runs with tracing as the environment set
// it.
#pragma once

#include "obs/trace.h"

namespace fchain::obs {

class ScopedGlobalTrace {
 public:
  explicit ScopedGlobalTrace(bool enabled)
      : was_enabled_(tracer().enabled()) {
    tracer().setEnabled(enabled);
  }
  ~ScopedGlobalTrace() { tracer().setEnabled(was_enabled_); }

  ScopedGlobalTrace(const ScopedGlobalTrace&) = delete;
  ScopedGlobalTrace& operator=(const ScopedGlobalTrace&) = delete;

 private:
  bool was_enabled_;
};

}  // namespace fchain::obs
