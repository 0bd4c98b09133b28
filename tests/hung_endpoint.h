// Test/chaos decorator: an endpoint that hangs instead of failing.
//
// FlakyEndpoint (flaky_endpoint.h) models a transport that *answers* badly;
// this models a call that does not return until the test lets it go. An
// endpoint built with start_hung parks every request on a condition variable
// until release() (or releaseWithTornReply()); the caller is stuck for
// exactly that long, so a test can hold several calls in flight at once and
// observe them through inFlight(). The count covers the *whole* decorated
// call — a released thread is still in flight while it executes the inner
// endpoint's work, so after release() and inFlight() == 0 the inner slave
// is safe to destroy.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "runtime/endpoint.h"

namespace fchain::runtime {

class HungEndpoint final : public SlaveEndpoint {
 public:
  explicit HungEndpoint(std::shared_ptr<SlaveEndpoint> inner,
                        bool start_hung = false)
      : inner_(std::move(inner)), hung_(start_hung) {}

  /// Unblocks every parked call; new calls pass straight through.
  void release() {
    {
      std::lock_guard<std::mutex> g(m_);
      hung_ = false;
    }
    cv_.notify_all();
  }

  /// Unblocks every parked call as if the peer died mid-send: each one
  /// returns a Dropped reply (the torn half-frame a real socket reports)
  /// instead of reaching the inner endpoint — the partial-frame-delivery
  /// failure mode, same retryable taxonomy as SocketEndpoint's torn-frame
  /// handling. Calls arriving *after* this pass straight through: only the
  /// in-flight replies were cut off.
  void releaseWithTornReply() {
    {
      std::lock_guard<std::mutex> g(m_);
      hung_ = false;
      if (parked_ > 0) torn_release_ = true;
    }
    cv_.notify_all();
  }

  /// Calls abandoned by releaseWithTornReply().
  std::size_t tornReplies() const {
    std::lock_guard<std::mutex> g(m_);
    return torn_replies_;
  }

  /// Calls currently inside the endpoint — parked in the hang or executing
  /// the inner call (teardown drain for tests, see the header comment).
  int inFlight() const {
    std::lock_guard<std::mutex> g(m_);
    return in_flight_;
  }

  HostId host() const override { return inner_->host(); }

  ComponentListReply listComponents() override {
    const InFlightGuard guard(*this);
    if (guard.torn()) return {EndpointStatus::Dropped, {}};
    return inner_->listComponents();
  }

  AnalyzeBatchReply analyzeBatch(const AnalyzeBatchRequest& request) override {
    const InFlightGuard guard(*this);
    if (guard.torn()) return {EndpointStatus::Dropped, {}, 0.0};
    return inner_->analyzeBatch(request);
  }

  IngestReply ingest(const IngestRequest& request) override {
    const InFlightGuard guard(*this);
    if (guard.torn()) return {EndpointStatus::Dropped, 0.0};
    return inner_->ingest(request);
  }

 private:
  /// Scopes in_flight_ over the whole decorated call, inner work included,
  /// and parks the call while hung. Counting and parking share one lock
  /// hold, so a call inFlight() reports during a hang is already parked.
  struct InFlightGuard {
    explicit InFlightGuard(HungEndpoint& endpoint) : endpoint_(endpoint) {
      std::unique_lock<std::mutex> g(endpoint_.m_);
      ++endpoint_.in_flight_;
      torn_ = !endpoint_.maybeBlockLocked(g);
    }
    ~InFlightGuard() {
      std::lock_guard<std::mutex> g(endpoint_.m_);
      --endpoint_.in_flight_;
    }
    InFlightGuard(const InFlightGuard&) = delete;
    InFlightGuard& operator=(const InFlightGuard&) = delete;
    /// The call was parked and then abandoned with a torn reply — the
    /// caller must return Dropped without touching the inner endpoint.
    bool torn() const { return torn_; }
    HungEndpoint& endpoint_;
    bool torn_ = false;
  };

  /// Parks the call while hung (`g` holds m_); false when it was released
  /// with a torn reply.
  bool maybeBlockLocked(std::unique_lock<std::mutex>& g) {
    if (!hung_) return true;
    ++parked_;
    cv_.wait(g, [&] { return !hung_; });
    --parked_;
    if (torn_release_) {
      ++torn_replies_;
      if (parked_ == 0) torn_release_ = false;
      return false;
    }
    return true;
  }

  std::shared_ptr<SlaveEndpoint> inner_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  bool hung_ = false;
  bool torn_release_ = false;
  int in_flight_ = 0;
  int parked_ = 0;  ///< calls currently waiting in the hang window
  std::size_t torn_replies_ = 0;
};

}  // namespace fchain::runtime
