// Server half of the wire protocol: serves one FChainSlave over a socket.
//
// SlaveService owns the listener and a single live connection (the master;
// a newer connection simply replaces the old one — the master reconnects,
// it never fans multiple sockets at one slave) and dispatches decoded
// frames:
//
//   Hello                -> version check, then HelloReply{host,
//                           identity hash, component claims}
//   AnalyzeBatchRequest  -> FChainSlave::analyzeBatch (after the optional
//                           crash-drill delay, see analyze_delay_ms)
//   IngestRequest        -> the whole batch, in order: through
//                           SlaveCheckpointer::ingestBatch when
//                           checkpointing (journal-then-ingest: one journal
//                           write and flush makes the batch durable before
//                           the reply goes out), else into the raw slave
//   ListComponentsRequest-> the slave's component list
//   Shutdown             -> stops the serve loop
//
// A frame that fails CRC/decode gets an Error{BadRequest} reply (carrying
// the byte-offset message) and the connection is closed — a stream that
// delivered damage cannot be trusted to frame the next message. A torn
// frame or peer death just closes the connection; the master's next
// attempt reconnects (a SocketEndpoint call makes one connect and one
// handshake).
//
// connectSlave() is the master-side registration glue: handshake, claim the
// slave id in the SlaveRegistry (rejecting split-brain), then register the
// endpoint with the master under the handshake's component claims.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "fchain/master.h"
#include "fchain/recovery.h"
#include "fchain/slave.h"
#include "obs/metrics.h"
#include "runtime/slave_registry.h"
#include "runtime/socket.h"
#include "runtime/socket_endpoint.h"

namespace fchain::core {

struct SlaveServiceConfig {
  runtime::SocketAddress listen;
  /// Deadline for completing one frame read / reply write once the poll
  /// loop saw the connection readable.
  double io_timeout_ms = 10'000.0;
  /// Crash-drill hook: sleep this long before serving each analyze batch,
  /// so a drill can kill -9 the process deterministically mid-localization.
  /// 0 (the default) disables it.
  double analyze_delay_ms = 0.0;
  /// Metric registry for the server-side runtime.socket.* counters;
  /// nullptr uses the process-global obs::metrics().
  obs::MetricRegistry* registry = nullptr;
};

class SlaveService {
 public:
  /// The slave (and checkpointer, when given) must outlive the service.
  /// When `checkpointer` is non-null every ingest RPC goes through it, so
  /// a kill -9 at any moment loses at most the in-flight batch, which was
  /// never acknowledged. Throws
  /// std::runtime_error when the listen address cannot be bound.
  SlaveService(FChainSlave& slave, SlaveServiceConfig config,
               SlaveCheckpointer* checkpointer = nullptr);
  ~SlaveService();
  SlaveService(const SlaveService&) = delete;
  SlaveService& operator=(const SlaveService&) = delete;

  /// Serves on a background thread.
  void start();
  /// Blocking serve loop (the daemon's main thread) — returns after stop()
  /// or a Shutdown frame.
  void run();
  /// Wakes the serve loop at once and joins start()'s thread.
  void stop();

  /// Bound address (tcp port 0 resolved to the kernel-assigned port).
  const runtime::SocketAddress& address() const {
    return listener_.address();
  }
  std::uint64_t identityHash() const;

 private:
  void serveConnection();
  /// Decodes and dispatches one frame; false closes the connection.
  bool handleFrame(const std::vector<std::uint8_t>& frame);
  bool reply(const std::vector<std::uint8_t>& frame);

  FChainSlave& slave_;
  SlaveServiceConfig config_;
  SlaveCheckpointer* checkpointer_;
  runtime::Listener listener_;
  runtime::Socket conn_;
  /// eventfd in the serve loop's poll set; stop() writes it.
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;

  obs::Counter& metric_connects_;
  obs::Counter& metric_frames_tx_;
  obs::Counter& metric_frames_rx_;
  obs::Counter& metric_crc_errors_;
  obs::Counter& metric_torn_frames_;
};

/// Master-side registration over the wire: forces a connect + handshake,
/// claims (slave id, identity hash) in `registry` — throwing
/// std::invalid_argument when a different live identity already holds the
/// id (split-brain guard) — and registers the endpoint with the master
/// under the handshake's component claims. Throws std::runtime_error when
/// the slave is unreachable. Returns the handshake identity hash.
std::uint64_t connectSlave(FChainMaster& master,
                           runtime::SlaveRegistry& registry,
                           std::shared_ptr<runtime::SocketEndpoint> endpoint);

}  // namespace fchain::core
