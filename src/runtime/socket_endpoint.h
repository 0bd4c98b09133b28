// SlaveEndpoint over a real TCP / Unix-domain socket.
//
// The client half of the wire protocol (runtime/wire.h): connects lazily,
// performs the versioned handshake, and maps every transport event into the
// EndpointStatus taxonomy the master already handles —
//
//   connect refused or timed out, handshake
//   failed or unanswered                         -> Unavailable
//   version-mismatch / identity-mismatch reject  -> Unavailable
//   deadline expired awaiting the reply          -> Timeout
//   torn frame (peer died mid-reply), CRC damage,
//   peer closed mid-RPC                          -> Dropped (retryable)
//
// so the master's retry and health paths drive real I/O errors without
// modification. A call without a live connection makes one connect and one
// handshake; if either fails the call reports Unavailable, and the caller's
// next attempt is the retry. FChainMaster::runBatchJob is the only retry
// loop between the master and a slave. A request's send and receive are
// bounded by its deadline_ms (io_timeout_ms when it carries none), and so
// are the send and receive of the handshake the call makes. A slave that
// never answers therefore costs the caller a bounded wait, never a hang:
// Timeout when it is wedged after its handshake, Unavailable when it never
// answers the handshake (a stopped process whose connects the kernel still
// queues). After any non-Ok event the connection is closed: a byte stream
// that lost framing cannot resync mid-flight.
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
#include "runtime/socket.h"
#include "runtime/wire.h"

namespace fchain::runtime {

struct SocketEndpointConfig {
  SocketAddress address;
  /// Deadline for one connect attempt.
  double connect_timeout_ms = 2000.0;
  /// Per-operation I/O deadline used when the request carries none.
  double io_timeout_ms = 5000.0;
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
  /// Without a live connection, makes one connect and one handshake, the
  /// handshake's send and receive bounded by `io_ms`; false means the call
  /// reports Unavailable.
  bool ensureConnectedLocked(double io_ms);
  /// One frame out, one frame in. On success `reply` holds the decoded
  /// message; on failure the connection is closed and the status says why.
  EndpointStatus roundTripLocked(const std::vector<std::uint8_t>& frame,
                                 double deadline_ms, wire::Message& reply);

  SocketEndpointConfig config_;
  mutable std::mutex mutex_;
  Socket conn_;
  bool ever_connected_ = false;
  /// Set on a version-mismatch rejection: the peer will never speak our
  /// protocol, so further calls fail fast instead of reconnecting.
  bool version_rejected_ = false;
  HostId host_ = 0;
  std::uint64_t identity_ = 0;

  obs::Counter& metric_connects_;
  obs::Counter& metric_reconnects_;
  obs::Counter& metric_frames_tx_;
  obs::Counter& metric_frames_rx_;
  obs::Counter& metric_crc_errors_;
  obs::Counter& metric_torn_frames_;
};

}  // namespace fchain::runtime
