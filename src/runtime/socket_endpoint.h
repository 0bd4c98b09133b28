// SlaveEndpoint over a real TCP / Unix-domain socket.
//
// The client half of the wire protocol (runtime/wire.h): connects lazily,
// performs the versioned handshake, and maps every transport event into the
// EndpointStatus taxonomy the master already handles —
//
//   connect refused / retries exhausted          -> Unavailable
//   version-mismatch / identity-mismatch reject  -> Unavailable
//   deadline expired (connect, send, or recv)    -> Timeout
//   torn frame (peer died mid-reply), CRC damage,
//   peer closed mid-RPC                          -> Dropped (retryable)
//
// so the PR-4 retry / health / watchdog / circuit-breaker paths drive real
// I/O errors without modification. Reconnects are bounded per call and
// paced by the existing deterministic backoff (runtime/health.h,
// retryDelayMs — here the delay is actually slept, since a real transport
// has real time). After any non-Ok event the connection is closed: a byte
// stream that lost framing cannot resync mid-flight.
//
// The handshake pins slave identity: the first successful HelloReply fixes
// the expected identity hash, and a later reconnect reaching a *different*
// slave (host or component claims changed) is refused — the master's
// routing table must never silently migrate to a stranger. A restarted or
// checkpoint-recovered slave serving the same manifest hashes identically
// and re-registers transparently.
//
// Metrics (registered in the configured obs registry):
//   runtime.socket.connects      successful connects + handshakes
//   runtime.socket.reconnects    successful connects after the first
//   runtime.socket.frames_tx     frames written (handshake included)
//   runtime.socket.frames_rx     complete frames read
//   runtime.socket.crc_errors    frames rejected by CRC / header / decode
//   runtime.socket.torn_frames   connections lost mid-frame
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "runtime/endpoint.h"
#include "runtime/health.h"
#include "runtime/socket.h"
#include "runtime/wire.h"

namespace fchain::runtime {

struct SocketEndpointConfig {
  SocketAddress address;
  /// Deadline for one connect attempt.
  double connect_timeout_ms = 2000.0;
  /// Per-operation I/O deadline used when the request carries none.
  double io_timeout_ms = 5000.0;
  /// Bounded reconnect: attempts per call, paced by the deterministic
  /// backoff schedule (only max_attempts / base_backoff_ms / multiplier /
  /// max_backoff_ms / jitter_fraction are read here).
  RetryPolicy reconnect{.max_attempts = 3,
                        .request_deadline_ms = 0.0,
                        .base_backoff_ms = 10.0,
                        .backoff_multiplier = 2.0,
                        .max_backoff_ms = 200.0,
                        .jitter_fraction = 0.2};
  /// Salt for the backoff jitter stream (per-endpoint, reproducible).
  std::uint64_t backoff_seed = 0;
  /// Metric registry; nullptr uses the process-global obs::metrics().
  obs::MetricRegistry* registry = nullptr;
};

class SocketEndpoint final : public SlaveEndpoint {
 public:
  explicit SocketEndpoint(SocketEndpointConfig config);

  /// Slave id from the last successful handshake (0 before the first).
  HostId host() const override;
  ComponentListReply listComponents() override;
  AnalyzeBatchReply analyzeBatch(const AnalyzeBatchRequest& request) override;
  IngestReply ingest(const IngestRequest& request) override;

  /// Identity hash from the last successful handshake (0 before the first).
  std::uint64_t identity() const;
  bool connected() const;
  /// Closes the connection; the next request reconnects and re-handshakes.
  void disconnect();

  const SocketAddress& address() const { return config_.address; }

 private:
  /// Connects + handshakes if needed; false leaves status() = Unavailable.
  bool ensureConnectedLocked();
  /// One frame out, one frame in. On success `reply` holds the decoded
  /// message; on failure the connection is closed and the status says why.
  EndpointStatus roundTripLocked(const std::vector<std::uint8_t>& frame,
                                 double deadline_ms, wire::Message& reply);

  SocketEndpointConfig config_;
  mutable std::mutex mutex_;
  Socket conn_;
  bool ever_connected_ = false;
  /// Set on a version-mismatch rejection: the peer will never speak our
  /// protocol, so further calls fail fast instead of reconnect-storming.
  bool version_rejected_ = false;
  HostId host_ = 0;
  std::uint64_t identity_ = 0;
  std::uint64_t request_counter_ = 0;

  obs::Counter& metric_connects_;
  obs::Counter& metric_reconnects_;
  obs::Counter& metric_frames_tx_;
  obs::Counter& metric_frames_rx_;
  obs::Counter& metric_crc_errors_;
  obs::Counter& metric_torn_frames_;
};

}  // namespace fchain::runtime
