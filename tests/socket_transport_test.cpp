// Socket transport tests: SocketEndpoint <-> SlaveService over real
// sockets, in one process.
//
// The multiprocess identity suite proves the end-to-end story across real
// process boundaries; this suite pins the transport *taxonomy* — which
// EndpointStatus each failure maps to — with surgical fault injection that
// needs server-side control a separate process can't give:
//   - round-trips (handshake, analyze, ingest, discovery) over unix + tcp;
//   - a raw fake server delivering torn frames, corrupt frames, and
//     future-version frames;
//   - a silent slave that handshakes and never replies, and a mute one
//     that never answers the handshake: the request deadline bounds the
//     localization and health sheds the slave;
//   - reconnect-with-identity-pinning and the split-brain guard over the
//     wire (two live services claiming one slave id);
//   - the runtime.socket.* metrics the identity suite asserts on;
//   - the FlakyEndpoint/HungEndpoint torn-reply modeling that lets the
//     in-process robustness suites rehearse the same failure mode;
//   - batched ingest: every in-tree leaf, over sockets and in-process,
//     applies and journals a per-tick batch exactly like per-sample
//     requests;
//   - a pooled master over sockets: every per-slave batch is in flight at
//     once, and the verdict is the in-process inline verdict.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpointed_endpoint.h"
#include "common/rng.h"
#include "fchain/master.h"
#include "fchain/recovery.h"
#include "fchain/slave.h"
#include "fchain/slave_service.h"
#include "hung_endpoint.h"
#include "obs/metrics.h"
#include "persist/codec.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "pinpoint_equal.h"
#include "pinpoint_render.h"
#include "runtime/flaky_endpoint.h"
#include "runtime/slave_registry.h"
#include "runtime/socket.h"
#include "runtime/socket_endpoint.h"
#include "runtime/wire.h"

namespace fchain::runtime {
namespace {

core::FChainSlave makeSlave(HostId host, std::vector<ComponentId> ids) {
  core::FChainSlave slave(host);
  for (ComponentId id : ids) slave.addComponent(id, 0);
  for (TimeSec t = 0; t < 120; ++t) {
    for (ComponentId id : ids) {
      std::array<double, kMetricCount> sample{};
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        sample[m] = 10.0 * static_cast<double>(m + 1) +
                    ((t * 7 + m * 13 + id * 29) % 17) * 0.25;
      }
      slave.ingestAt(id, t, sample);
    }
  }
  return slave;
}

std::string unixSpec(const std::string& name) {
  return ::testing::TempDir() + "/" + name + ".sock";
}

SocketEndpointConfig endpointConfig(const SocketAddress& address,
                                    obs::MetricRegistry* registry = nullptr) {
  SocketEndpointConfig config;
  config.address = address;
  config.connect_timeout_ms = 2000.0;
  config.io_timeout_ms = 5000.0;
  config.registry = registry;
  return config;
}

// --- Round trips over both address families --------------------------------

TEST(SocketTransport, RoundTripsOverUnixSocket) {
  core::FChainSlave slave = makeSlave(0, {0, 1});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("rt_unix"));
  core::SlaveService service(slave, service_config);
  service.start();

  SocketEndpoint endpoint(endpointConfig(service.address()));
  const ComponentListReply listed = endpoint.listComponents();
  ASSERT_EQ(listed.status, EndpointStatus::Ok);
  EXPECT_EQ(listed.components, (std::vector<ComponentId>{0, 1}));
  EXPECT_EQ(endpoint.host(), 0u);
  EXPECT_EQ(endpoint.identity(), wire::slaveIdentityHash(0, {0, 1}));
  EXPECT_TRUE(endpoint.connected());

  // Streaming ingest lands in the live slave.
  IngestRequest ingest;
  ingest.component = 0;
  ingest.t = 120;
  ingest.sample.fill(42.0);
  EXPECT_EQ(endpoint.ingest(ingest).status, EndpointStatus::Ok);
  EXPECT_EQ(slave.seriesOf(0)->endTime(), 121);  // one past the new sample

  // Batched analysis round-trips, nullopt slots included, and matches the
  // local call bit-for-bit.
  AnalyzeBatchRequest batch;
  batch.components = {0, 1, 9};
  batch.violation_time = 110;
  const AnalyzeBatchReply reply = endpoint.analyzeBatch(batch);
  ASSERT_EQ(reply.status, EndpointStatus::Ok);
  ASSERT_EQ(reply.findings.size(), 3u);
  EXPECT_FALSE(reply.findings[2].has_value());  // unknown component
  const auto local = slave.analyzeBatch({0, 1, 9}, 110);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(reply.findings[i].has_value(), local[i].has_value());
    if (!local[i].has_value()) continue;
    EXPECT_EQ(reply.findings[i]->onset, local[i]->onset);
    ASSERT_EQ(reply.findings[i]->metrics.size(), local[i]->metrics.size());
    for (std::size_t m = 0; m < local[i]->metrics.size(); ++m) {
      EXPECT_EQ(reply.findings[i]->metrics[m].prediction_error,
                local[i]->metrics[m].prediction_error);  // bit-exact f64
    }
  }

  // The single-component adapter goes through the same batch RPC.
  AnalyzeRequest single;
  single.component = 0;
  single.violation_time = 110;
  const AnalyzeReply one = endpoint.analyze(single);
  EXPECT_EQ(one.status, EndpointStatus::Ok);
  EXPECT_EQ(one.finding.has_value(), local[0].has_value());

  service.stop();
}

TEST(SocketTransport, RoundTripsOverTcpLoopback) {
  core::FChainSlave slave = makeSlave(3, {7});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::tcp("127.0.0.1", 0);
  core::SlaveService service(slave, service_config);
  service.start();
  // Port 0 resolved to the kernel-assigned port.
  ASSERT_NE(service.address().port, 0);

  SocketEndpoint endpoint(endpointConfig(service.address()));
  const ComponentListReply listed = endpoint.listComponents();
  ASSERT_EQ(listed.status, EndpointStatus::Ok);
  EXPECT_EQ(listed.components, (std::vector<ComponentId>{7}));
  EXPECT_EQ(endpoint.host(), 3u);
  service.stop();
}

// --- Connection failures ----------------------------------------------------

TEST(SocketTransport, StopWakesTheServeLoopAtOnce) {
  core::FChainSlave slave = makeSlave(0, {0});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("stop_wakes"));
  core::SlaveService service(slave, service_config);
  service.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto begin = std::chrono::steady_clock::now();
  service.stop();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  EXPECT_LT(stop_ms, 100.0);
}

TEST(SocketTransport, UnreachableServerIsUnavailableAfterOneConnect) {
  SocketEndpoint endpoint(
      endpointConfig(SocketAddress::unixPath(unixSpec("nobody_home"))));
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  EXPECT_FALSE(endpoint.connected());
}

TEST(SocketTransport, ReconnectsAfterServerRestartWithSameIdentity) {
  const std::string path = unixSpec("restart_same");
  core::FChainSlave slave = makeSlave(0, {0, 1});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(path);

  SocketEndpoint endpoint(endpointConfig(service_config.listen));
  {
    core::SlaveService service(slave, service_config);
    service.start();
    ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
    service.stop();
  }
  // Server gone: the next call fails...
  EXPECT_NE(endpoint.listComponents().status, EndpointStatus::Ok);
  // ...and a restarted slave with the same manifest re-registers
  // idempotently (same identity hash, pinned connection heals).
  core::SlaveService service(slave, service_config);
  service.start();
  const ComponentListReply listed = endpoint.listComponents();
  ASSERT_EQ(listed.status, EndpointStatus::Ok);
  EXPECT_EQ(endpoint.identity(), wire::slaveIdentityHash(0, {0, 1}));
  service.stop();
}

TEST(SocketTransport, ReconnectToAStrangerIsRefused) {
  const std::string path = unixSpec("stranger");
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(path);

  SocketEndpoint endpoint(endpointConfig(service_config.listen));
  {
    core::FChainSlave slave = makeSlave(0, {0, 1});
    core::SlaveService service(slave, service_config);
    service.start();
    ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
    service.stop();
  }
  // A *different* slave (other component claims) now squats on the address:
  // the pinned identity refuses to migrate.
  core::FChainSlave imposter = makeSlave(0, {5, 6});
  core::SlaveService service(imposter, service_config);
  service.start();
  // The first call still holds the dead server's stream and consumes the
  // teardown (Dropped); the reconnect that follows reaches the imposter and
  // is refused by the identity pin — sticky for every later call.
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Dropped);
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  service.stop();
}

// --- Raw fake servers: torn / corrupt / version-mismatch frames -------------

/// Accepts one connection, performs a valid handshake, then answers the
/// next frame with `reply_bytes` sent verbatim (possibly truncated) and
/// closes. Lets the client-side taxonomy be tested byte-by-byte.
class FakeServer {
 public:
  explicit FakeServer(std::vector<std::uint8_t> reply_bytes,
                      bool close_mid_handshake = false)
      : reply_bytes_(std::move(reply_bytes)) {
    listener_ = Listener::listenOn(
        SocketAddress::unixPath(unixSpec("fake_" + std::to_string(next_++))));
    thread_ = std::thread([this, close_mid_handshake] {
      Socket conn = listener_.accept(5000.0);
      if (!conn.valid()) return;
      std::vector<std::uint8_t> frame;
      if (conn.recvFrame(frame, 5000.0) != RecvStatus::Ok) return;  // Hello
      if (close_mid_handshake) {
        // Send half the HelloReply, then die: torn handshake.
        wire::HelloReply hello;
        hello.host = 0;
        hello.components = {0};
        hello.identity_hash = wire::slaveIdentityHash(0, {0});
        const std::vector<std::uint8_t> full = encodeHelloReply(hello);
        const std::vector<std::uint8_t> half(full.begin(),
                                             full.begin() + full.size() / 2);
        conn.sendAll(half, 5000.0);
        return;
      }
      wire::HelloReply hello;
      hello.host = 0;
      hello.components = {0};
      hello.identity_hash = wire::slaveIdentityHash(0, {0});
      if (!conn.sendAll(encodeHelloReply(hello), 5000.0)) return;
      if (conn.recvFrame(frame, 5000.0) != RecvStatus::Ok) return;
      conn.sendAll(reply_bytes_, 5000.0);
      // Closing here turns a truncated reply into a torn frame client-side.
    });
  }
  ~FakeServer() {
    if (thread_.joinable()) thread_.join();
  }
  const SocketAddress& address() const { return listener_.address(); }

 private:
  static inline int next_ = 0;
  std::vector<std::uint8_t> reply_bytes_;
  Listener listener_;
  std::thread thread_;
};

/// Accepts every connection and answers its handshake as slave 1 owning
/// components {2, 3}, then never replies: a slave process that is alive but
/// wedged. Every connection stays open until the server is destroyed, so
/// the client sees silence (Timeout), never a close (Dropped).
class SilentServer {
 public:
  SilentServer()
      : listener_(Listener::listenOn(SocketAddress::unixPath(
            unixSpec("silent_" + std::to_string(next_++))))) {
    thread_ = std::thread([this] {
      std::vector<Socket> held;
      while (!stop_.load()) {
        Socket conn = listener_.accept(10.0);
        if (!conn.valid()) continue;
        std::vector<std::uint8_t> frame;
        if (conn.recvFrame(frame, 5000.0) != RecvStatus::Ok) continue;
        wire::HelloReply hello;
        hello.host = 1;
        hello.components = {2, 3};
        hello.identity_hash = wire::slaveIdentityHash(1, {2, 3});
        if (conn.sendAll(encodeHelloReply(hello), 5000.0)) {
          held.push_back(std::move(conn));
        }
      }
    });
  }
  ~SilentServer() {
    stop_.store(true);
    thread_.join();
  }
  const SocketAddress& address() const { return listener_.address(); }

 private:
  static inline int next_ = 0;
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Accepts every connection and never reads from it: a stopped slave
/// process, whose connects the kernel still completes. The client's Hello
/// lands in the socket buffer and no HelloReply ever comes. Connections stay
/// open until the server is destroyed, and the server counts them.
class MuteServer {
 public:
  MuteServer()
      : listener_(Listener::listenOn(SocketAddress::unixPath(
            unixSpec("mute_" + std::to_string(next_++))))) {
    thread_ = std::thread([this] {
      std::vector<Socket> held;
      while (!stop_.load()) {
        Socket conn = listener_.accept(10.0);
        if (!conn.valid()) continue;
        held.push_back(std::move(conn));
        accepted_.fetch_add(1);
      }
    });
  }
  ~MuteServer() {
    stop_.store(true);
    thread_.join();
  }
  const SocketAddress& address() const { return listener_.address(); }

  /// The number of connections accepted so far, read once `expected` have
  /// been accepted or after 2 s: the kernel completes a connect before this
  /// server's thread accepts it.
  std::size_t awaitAccepted(std::size_t expected) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (accepted_.load() < expected &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return accepted_.load();
  }

 private:
  static inline int next_ = 0;
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> accepted_{0};
  std::thread thread_;
};

TEST(SocketTransport, TornReplyFrameIsDropped) {
  // A valid IngestReply cut in half: the peer died mid-send.
  const std::vector<std::uint8_t> full =
      wire::encodeIngestReply({EndpointStatus::Ok, 0.0});
  obs::MetricRegistry registry;
  FakeServer server({full.begin(), full.begin() + full.size() / 2});
  SocketEndpoint endpoint(endpointConfig(server.address(), &registry));
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  EXPECT_FALSE(endpoint.connected());  // torn stream cannot resync
  EXPECT_EQ(registry.counter("runtime.socket.torn_frames").value(), 1u);
}

TEST(SocketTransport, TornHandshakeIsUnavailable) {
  obs::MetricRegistry registry;
  FakeServer server({}, /*close_mid_handshake=*/true);
  SocketEndpoint endpoint(endpointConfig(server.address(), &registry));
  EXPECT_EQ(endpoint.listComponents().status, EndpointStatus::Unavailable);
  EXPECT_EQ(registry.counter("runtime.socket.torn_frames").value(), 1u);
}

TEST(SocketTransport, CorruptReplyFrameIsDroppedAndCounted) {
  std::vector<std::uint8_t> damaged =
      wire::encodeIngestReply({EndpointStatus::Ok, 0.0});
  damaged[damaged.size() - 1] ^= 0x40;  // payload bit flip: CRC mismatch
  obs::MetricRegistry registry;
  FakeServer server(damaged);
  SocketEndpoint endpoint(endpointConfig(server.address(), &registry));
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  EXPECT_EQ(registry.counter("runtime.socket.crc_errors").value(), 1u);
}

TEST(SocketTransport, FutureVersionReplyFailsFastAndSticks) {
  // A frame stamped with a future protocol version: Unavailable, and the
  // endpoint must not reconnect-storm a peer that will never speak v1.
  persist::Encoder payload;
  payload.u8(static_cast<std::uint8_t>(wire::MsgType::IngestReply));
  payload.u8(0);
  payload.f64(0.0);
  const std::vector<std::uint8_t> future =
      persist::frame(wire::kWireMagic, wire::kWireVersion + 1,
                     payload.buffer());
  obs::MetricRegistry registry;
  FakeServer server(future);
  SocketEndpoint endpoint(endpointConfig(server.address(), &registry));
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Unavailable);
  // Sticky: the next call fails fast without a fresh connect attempt.
  const std::uint64_t connects_before =
      registry.counter("runtime.socket.connects").value();
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Unavailable);
  EXPECT_EQ(registry.counter("runtime.socket.connects").value(),
            connects_before);
}

TEST(SocketTransport, OversizedFrameHeaderIsRejectedBeforeAllocation) {
  // Header declares a payload far past kMaxFramePayload; the reader must
  // refuse at the header, never allocate, never hang waiting for 2^40 bytes.
  persist::Encoder e;
  e.u32(wire::kWireMagic);
  e.u32(wire::kWireVersion);
  e.u64(1ull << 40);
  e.u32(0);  // crc (never reached)
  obs::MetricRegistry registry;
  FakeServer server(e.buffer());
  SocketEndpoint endpoint(endpointConfig(server.address(), &registry));
  IngestRequest request;
  request.component = 0;
  request.t = 0;
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  EXPECT_EQ(registry.counter("runtime.socket.crc_errors").value(), 1u);
}

// --- A slave that never answers ----------------------------------------------

// A socket slave that handshakes and then stays silent is the one transport
// that can really hang. Each attempt's receive gives up at the request
// deadline with Timeout, retry and health shed the slave's components into
// unanalyzed, and once the slave is Down a localization spends one request
// on it.
TEST(SocketTransport, SilentSlaveIsBoundedByTheRequestDeadline) {
  core::FChainSlave slave = makeSlave(0, {0, 1});
  SilentServer silent;
  RetryPolicy retry;
  retry.request_deadline_ms = 100.0;
  core::FChainMaster master({}, retry);
  master.registerSlave(&slave);
  SocketEndpointConfig config = endpointConfig(silent.address());
  config.io_timeout_ms = 100.0;
  master.registerEndpoint(std::make_shared<SocketEndpoint>(config), {2, 3});

  const auto start = std::chrono::steady_clock::now();
  const core::PinpointResult result = master.localize({0, 1, 2, 3}, 110);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_EQ(result.unanalyzed, (std::vector<ComponentId>{2, 3}));
  EXPECT_DOUBLE_EQ(result.coverage, 0.5);
  // Three attempts of one 100 ms receive deadline each, with room for
  // sanitizers and a loaded machine.
  EXPECT_LT(elapsed_ms, 3000.0);
  EXPECT_EQ(master.endpointHealth(),
            (std::vector<HealthState>{HealthState::Healthy,
                                      HealthState::Down}));

  const auto requests = [&master] {
    return master.metrics().snapshot().counters.at("master.requests");
  };
  const std::uint64_t before = requests();
  const core::PinpointResult again = master.localize({0, 1, 2, 3}, 110);
  EXPECT_EQ(again.unanalyzed, (std::vector<ComponentId>{2, 3}));
  EXPECT_EQ(requests() - before, 2u);
}

// A slave that accepts connections but never answers the handshake. Each
// call makes one connect and one handshake, and the handshake gives up at
// the request deadline, not at the endpoint's io_timeout_ms (5 s by
// default). The master's attempts are the only retries, so the slave sees
// one connection per master attempt: three for the first localization, one
// once the slave is Down.
TEST(SocketTransport, UnansweredHandshakeIsBoundedByTheRequestDeadline) {
  core::FChainSlave slave = makeSlave(0, {0, 1});
  MuteServer mute;
  RetryPolicy retry;
  retry.request_deadline_ms = 100.0;
  core::FChainMaster master({}, retry);
  master.registerSlave(&slave);
  SocketEndpointConfig config;
  config.address = mute.address();
  master.registerEndpoint(std::make_shared<SocketEndpoint>(config), {2, 3});

  const auto timedLocalize = [&master](core::PinpointResult& result) {
    const auto start = std::chrono::steady_clock::now();
    result = master.localize({0, 1, 2, 3}, 110);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  core::PinpointResult result;
  // Three master attempts of one 100 ms handshake each, with room for
  // sanitizers and a loaded machine.
  EXPECT_LT(timedLocalize(result), 3000.0);
  EXPECT_EQ(result.unanalyzed, (std::vector<ComponentId>{2, 3}));
  EXPECT_DOUBLE_EQ(result.coverage, 0.5);
  EXPECT_EQ(master.endpointHealth(),
            (std::vector<HealthState>{HealthState::Healthy,
                                      HealthState::Down}));
  EXPECT_EQ(mute.awaitAccepted(3), 3u);

  // Once the slave is Down, a localization spends one request on it.
  const auto requests = [&master] {
    return master.metrics().snapshot().counters.at("master.requests");
  };
  const std::uint64_t before = requests();
  EXPECT_LT(timedLocalize(result), 3000.0);
  EXPECT_EQ(result.unanalyzed, (std::vector<ComponentId>{2, 3}));
  EXPECT_EQ(requests() - before, 2u);
  EXPECT_EQ(mute.awaitAccepted(4), 4u);

  // An ingest through a fresh endpoint, which nothing retries, also makes
  // one connect.
  SocketEndpoint fresh(config);
  IngestRequest request;
  request.component = 2;
  request.t = 110;
  request.deadline_ms = 100.0;
  EXPECT_EQ(fresh.ingest(request).status, EndpointStatus::Unavailable);
  EXPECT_EQ(mute.awaitAccepted(5), 5u);
}

// --- Server-side damage handling -------------------------------------------

TEST(SocketTransport, ServerRejectsCorruptFrameWithErrorAndCloses) {
  core::FChainSlave slave = makeSlave(0, {0});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("srv_corrupt"));
  obs::MetricRegistry registry;
  service_config.registry = &registry;
  core::SlaveService service(slave, service_config);
  service.start();

  Socket conn = Socket::connectTo(service.address(), 2000.0);
  ASSERT_TRUE(conn.valid());
  std::vector<std::uint8_t> damaged = wire::encodeHello(wire::Hello{});
  damaged.back() ^= 0x01;
  ASSERT_TRUE(conn.sendAll(damaged, 2000.0));
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(conn.recvFrame(frame, 5000.0), RecvStatus::Ok);
  const wire::Message message = wire::decodeMessage(frame);
  const auto& error = std::get<wire::WireError>(message);
  EXPECT_EQ(error.code, wire::ErrorCode::BadRequest);
  EXPECT_NE(error.message.find("byte offset"), std::string::npos);
  // Connection is closed after damage: the next read sees EOF.
  EXPECT_EQ(conn.recvFrame(frame, 2000.0), RecvStatus::Closed);
  EXPECT_GE(registry.counter("runtime.socket.crc_errors").value(), 1u);
  service.stop();
}

TEST(SocketTransport, ServerRejectsFutureVersionHello) {
  core::FChainSlave slave = makeSlave(0, {0});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("srv_version"));
  core::SlaveService service(slave, service_config);
  service.start();

  Socket conn = Socket::connectTo(service.address(), 2000.0);
  ASSERT_TRUE(conn.valid());
  // A Hello *frame* stamped v1 but whose body claims a future client.
  wire::Hello hello;
  hello.protocol_version = wire::kWireVersion + 7;
  ASSERT_TRUE(conn.sendAll(wire::encodeHello(hello), 2000.0));
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(conn.recvFrame(frame, 5000.0), RecvStatus::Ok);
  const wire::Message message = wire::decodeMessage(frame);
  const auto& error = std::get<wire::WireError>(message);
  EXPECT_EQ(error.code, wire::ErrorCode::VersionMismatch);
  service.stop();
}

// --- Split-brain guard over the wire ----------------------------------------

TEST(SocketTransport, SplitBrainSecondClaimantIsRejected) {
  // Two live processes both claim slave id 0 — with different component
  // sets, so different identity hashes. The second registration must throw,
  // and the registry must keep the first claim.
  core::FChainSlave real = makeSlave(0, {0, 1});
  core::FChainSlave rogue = makeSlave(0, {0, 1, 2});
  core::SlaveServiceConfig real_config;
  real_config.listen = SocketAddress::unixPath(unixSpec("split_real"));
  core::SlaveServiceConfig rogue_config;
  rogue_config.listen = SocketAddress::unixPath(unixSpec("split_rogue"));
  core::SlaveService real_service(real, real_config);
  core::SlaveService rogue_service(rogue, rogue_config);
  real_service.start();
  rogue_service.start();

  core::FChainMaster master;
  SlaveRegistry registry;
  const std::uint64_t identity = core::connectSlave(
      master, registry,
      std::make_shared<SocketEndpoint>(endpointConfig(real_service.address())));
  EXPECT_EQ(identity, wire::slaveIdentityHash(0, {0, 1}));
  EXPECT_THROW(
      core::connectSlave(master, registry,
                         std::make_shared<SocketEndpoint>(
                             endpointConfig(rogue_service.address()))),
      std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);

  // A *restarted* copy of the real slave (same claim, new process) is not
  // split-brain: the identical identity hash re-registers idempotently.
  core::FChainSlave restarted = makeSlave(0, {0, 1});
  core::SlaveServiceConfig restarted_config;
  restarted_config.listen = SocketAddress::unixPath(unixSpec("split_restart"));
  core::SlaveService restarted_service(restarted, restarted_config);
  restarted_service.start();
  core::FChainMaster master2;
  EXPECT_EQ(core::connectSlave(master2, registry,
                               std::make_shared<SocketEndpoint>(endpointConfig(
                                   restarted_service.address()))),
            identity);
  EXPECT_EQ(registry.size(), 1u);

  real_service.stop();
  rogue_service.stop();
  restarted_service.stop();
}

TEST(SocketTransport, RegistryClaimTaxonomy) {
  SlaveRegistry registry;
  EXPECT_EQ(registry.claim(0, 111), SlaveRegistry::Claim::Registered);
  EXPECT_EQ(registry.claim(0, 111), SlaveRegistry::Claim::Reregistered);
  EXPECT_EQ(registry.claim(0, 222), SlaveRegistry::Claim::Rejected);
  EXPECT_EQ(registry.claim(1, 222), SlaveRegistry::Claim::Registered);
  EXPECT_EQ(registry.size(), 2u);
  registry.release(0);
  EXPECT_EQ(registry.claim(0, 222), SlaveRegistry::Claim::Registered);
}

// --- Torn-reply modeling in the in-process chaos decorators ------------------

TEST(SocketTransport, FlakyEndpointModelsTornReplies) {
  core::FChainSlave slave = makeSlave(0, {0});
  FlakyConfig config;
  config.torn_reply_probability = 1.0;
  config.seed = 7;
  FlakyEndpoint endpoint(std::make_shared<LocalEndpoint>(&slave), config);
  IngestRequest request;
  request.component = 0;
  request.t = 500;
  // Torn delivery is Dropped — the retryable taxonomy, same as a real
  // socket's torn frame — and separately countable.
  EXPECT_EQ(endpoint.ingest(request).status, EndpointStatus::Dropped);
  AnalyzeBatchRequest batch;
  batch.components = {0};
  batch.violation_time = 100;
  EXPECT_EQ(endpoint.analyzeBatch(batch).status, EndpointStatus::Dropped);
  EXPECT_EQ(endpoint.tornReplies(), 2u);
}

TEST(SocketTransport, FlakyTornKnobOffPreservesSeededStreams) {
  // The torn-reply roll must not consume an RNG draw when disabled, or
  // every seeded FlakyEndpoint test in the repo would shift behavior.
  core::FChainSlave slave = makeSlave(0, {0});
  FlakyConfig with_knob;
  with_knob.drop_probability = 0.3;
  with_knob.latency_jitter_ms = 2.0;
  with_knob.seed = 99;
  FlakyConfig no_knob = with_knob;
  no_knob.torn_reply_probability = 0.0;  // explicit default
  FlakyEndpoint a(std::make_shared<LocalEndpoint>(&slave), with_knob);
  FlakyEndpoint b(std::make_shared<LocalEndpoint>(&slave), no_knob);
  for (int i = 0; i < 64; ++i) {
    IngestRequest request;
    request.component = 0;
    request.t = 200 + i;
    const IngestReply ra = a.ingest(request);
    const IngestReply rb = b.ingest(request);
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(ra.latency_ms, rb.latency_ms);
  }
  EXPECT_EQ(a.tornReplies(), 0u);
}

TEST(SocketTransport, HungEndpointTornReleaseAbandonsParkedCalls) {
  core::FChainSlave slave = makeSlave(0, {0});
  auto endpoint = std::make_shared<HungEndpoint>(
      std::make_shared<LocalEndpoint>(&slave), /*start_hung=*/true);
  EndpointStatus parked_status = EndpointStatus::Ok;
  std::thread caller([&] {
    AnalyzeBatchRequest batch;
    batch.components = {0};
    batch.violation_time = 100;
    parked_status = endpoint->analyzeBatch(batch).status;
  });
  while (endpoint->inFlight() == 0) std::this_thread::yield();
  // The peer dies mid-send: the parked call comes back Dropped, having
  // never reached the slave.
  endpoint->releaseWithTornReply();
  caller.join();
  EXPECT_EQ(parked_status, EndpointStatus::Dropped);
  EXPECT_EQ(endpoint->tornReplies(), 1u);
  // Calls after the torn release pass straight through.
  AnalyzeBatchRequest batch;
  batch.components = {0};
  batch.violation_time = 100;
  EXPECT_EQ(endpoint->analyzeBatch(batch).status, EndpointStatus::Ok);
  EXPECT_EQ(endpoint->tornReplies(), 1u);
}

// --- Pooled fan-out over sockets -------------------------------------------

/// Slave `host` with `ids`, each streaming 700 s of seeded six-metric noise;
/// `faulty` takes a CPU step at t = 600, so the verdict has a chain.
core::FChainSlave stepSlave(HostId host, const std::vector<ComponentId>& ids,
                            ComponentId faulty) {
  core::FChainSlave slave(host);
  for (ComponentId id : ids) slave.addComponent(id, 0);
  for (ComponentId id : ids) {
    Rng rng(mixSeed(0x50c7, id));
    for (TimeSec t = 0; t < 700; ++t) {
      std::array<double, kMetricCount> sample{};
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        sample[m] = 20.0 * static_cast<double>(m + 1) + rng.uniform(-1.5, 1.5);
      }
      if (id == faulty && t >= 600) sample[0] += 30.0;
      slave.ingestAt(id, t, sample);
    }
  }
  return slave;
}

// Four slaves behind real sockets, each endpoint parked in a HungEndpoint:
// a 4-thread master must have all four per-slave batches in flight at once.
// A serial fan-out parks on its first batch and fails the bounded wait
// instead of hanging. Released, the pooled verdict over the wire renders to
// the bytes of, and equals field for field, the same slaves localized
// in-process at 0 threads.
TEST(SocketTransport, PooledFanOutHasEveryBatchInFlightAtOnce) {
  constexpr HostId kSlaves = 4;
  constexpr ComponentId kFaulty = 7;
  constexpr TimeSec kViolation = 699;
  std::vector<core::FChainSlave> slaves;
  for (HostId h = 0; h < kSlaves; ++h) {
    slaves.push_back(stepSlave(h, {h, h + kSlaves}, kFaulty));
  }
  std::vector<ComponentId> components;
  for (ComponentId id = 0; id < 2 * kSlaves; ++id) components.push_back(id);

  core::FChainMaster inline_master;
  for (core::FChainSlave& slave : slaves) inline_master.registerSlave(&slave);
  const core::PinpointResult reference =
      inline_master.localize(components, kViolation);
  EXPECT_EQ(reference.pinpointed, (std::vector<ComponentId>{kFaulty}));

  // No per-request deadline: the endpoint's own I/O timeout bounds each
  // call, so a slow (sanitized) analysis cannot turn into a retry.
  RetryPolicy retry;
  retry.request_deadline_ms = 0.0;
  core::FChainMaster master({}, retry);
  master.setWorkerThreads(kSlaves);
  std::vector<std::unique_ptr<core::SlaveService>> services;
  std::vector<std::shared_ptr<HungEndpoint>> parked;
  for (HostId h = 0; h < kSlaves; ++h) {
    core::SlaveServiceConfig config;
    config.listen =
        SocketAddress::unixPath(unixSpec("pooled_" + std::to_string(h)));
    services.push_back(std::make_unique<core::SlaveService>(slaves[h], config));
    services.back()->start();
    parked.push_back(std::make_shared<HungEndpoint>(
        std::make_shared<SocketEndpoint>(
            endpointConfig(services.back()->address())),
        /*start_hung=*/true));
    master.registerEndpoint(parked.back(), slaves[h].components());
  }

  core::PinpointResult pooled;
  std::thread caller([&] { pooled = master.localize(components, kViolation); });
  const auto all_in_flight = [&] {
    return std::all_of(parked.begin(), parked.end(),
                       [](const auto& ep) { return ep->inFlight() == 1; });
  };
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool overlapped = all_in_flight();
  while (!overlapped && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    overlapped = all_in_flight();
  }
  for (const auto& ep : parked) ep->release();
  caller.join();
  for (auto& service : services) service->stop();

  EXPECT_TRUE(overlapped)
      << "the four per-slave batches were never in flight at once";
  EXPECT_EQ(core::renderPinpoint(pooled, kViolation),
            core::renderPinpoint(reference, kViolation));
  EXPECT_TRUE(core::samePinpoint(pooled, reference));
}

// --- Metrics ----------------------------------------------------------------

TEST(SocketTransport, MetricsCountConnectsAndFrames) {
  core::FChainSlave slave = makeSlave(0, {0});
  core::SlaveServiceConfig service_config;
  service_config.listen = SocketAddress::unixPath(unixSpec("metrics"));
  core::SlaveService service(slave, service_config);
  service.start();

  obs::MetricRegistry registry;
  SocketEndpoint endpoint(endpointConfig(service.address(), &registry));
  ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
  EXPECT_EQ(registry.counter("runtime.socket.connects").value(), 1u);
  EXPECT_EQ(registry.counter("runtime.socket.reconnects").value(), 0u);
  // Handshake (Hello + ListComponents) = 2 frames each way.
  EXPECT_EQ(registry.counter("runtime.socket.frames_tx").value(), 2u);
  EXPECT_EQ(registry.counter("runtime.socket.frames_rx").value(), 2u);

  // Force a reconnect: disconnect client-side, call again.
  endpoint.disconnect();
  ASSERT_EQ(endpoint.listComponents().status, EndpointStatus::Ok);
  EXPECT_EQ(registry.counter("runtime.socket.connects").value(), 2u);
  EXPECT_EQ(registry.counter("runtime.socket.reconnects").value(), 1u);
  EXPECT_EQ(registry.counter("runtime.socket.crc_errors").value(), 0u);
  EXPECT_EQ(registry.counter("runtime.socket.torn_frames").value(), 0u);
  service.stop();
}

// --- Batched ingest: every in-tree leaf applies the whole batch --------------

/// The stream both request shapes carry: 400 ticks of four components, with
/// a five-second gap on component 1, a non-finite value on component 2 and
/// a stale re-send on component 3, so the repair paths run too. Each tick
/// is one slave's samples in arrival order.
std::vector<std::vector<persist::SampleRecord>> batchStream() {
  std::vector<std::vector<persist::SampleRecord>> ticks(400);
  for (TimeSec t = 0; t < static_cast<TimeSec>(ticks.size()); ++t) {
    for (ComponentId id = 0; id < 4; ++id) {
      if (id == 1 && t >= 100 && t < 105) continue;
      persist::SampleRecord record;
      record.component = id;
      record.t = t;
      for (std::size_t m = 0; m < kMetricCount; ++m) {
        record.sample[m] = 10.0 * static_cast<double>(m + 1) +
                           static_cast<double>((t * 7 + m * 13 + id * 29) % 17) *
                               0.25;
      }
      if (id == 2 && t == 200) {
        record.sample[0] = std::numeric_limits<double>::quiet_NaN();
      }
      ticks[t].push_back(record);
    }
    if (t == 151) {
      persist::SampleRecord stale = ticks[t].back();
      stale.t = 150;
      stale.sample.fill(3.0);
      ticks[t].push_back(stale);
    }
  }
  return ticks;
}

/// Streams batchStream() through `endpoint`: one request per sample, or one
/// request per tick with the first sample in the request's own fields.
void streamBatches(SlaveEndpoint& endpoint, bool batched) {
  for (const std::vector<persist::SampleRecord>& tick : batchStream()) {
    for (std::size_t i = 0; i < tick.size(); ++i) {
      const persist::SampleRecord& record = tick[i];
      if (batched && i > 0) continue;
      IngestRequest request;
      request.component = record.component;
      request.t = record.t;
      request.sample = record.sample;
      if (batched) request.more.assign(tick.begin() + 1, tick.end());
      ASSERT_EQ(endpoint.ingest(request).status, EndpointStatus::Ok);
    }
  }
}

enum class IngestRoute { Local, Checkpointed, Flaky, Hung, Socket, SocketCheckpointed };

struct RouteResult {
  std::vector<std::uint8_t> state;  ///< encodeSlaveSnapshot of the live slave
  std::vector<persist::SampleRecord> journal;  ///< checkpointed routes only
  std::vector<std::uint8_t> recovered;  ///< recover()'s slave, encoded
};

RouteResult runRoute(IngestRoute route, bool batched, const std::string& tag) {
  core::FChainSlave slave(0);
  for (ComponentId id = 0; id < 4; ++id) slave.addComponent(id, 0);
  const std::string dir = ::testing::TempDir() + "/ingest_route_" + tag +
                          (batched ? "_batch" : "_single");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::optional<core::SlaveCheckpointer> checkpointer;
  if (route == IngestRoute::Checkpointed ||
      route == IngestRoute::SocketCheckpointed) {
    checkpointer.emplace(slave, dir);
  }
  core::SlaveCheckpointer* durable =
      checkpointer.has_value() ? &*checkpointer : nullptr;

  std::unique_ptr<core::SlaveService> service;
  std::shared_ptr<SlaveEndpoint> endpoint;
  switch (route) {
    case IngestRoute::Local:
      endpoint = std::make_shared<LocalEndpoint>(&slave);
      break;
    case IngestRoute::Checkpointed:
      endpoint = std::make_shared<online::CheckpointedEndpoint>(&slave, durable);
      break;
    case IngestRoute::Flaky:
      endpoint = std::make_shared<FlakyEndpoint>(
          std::make_shared<LocalEndpoint>(&slave), FlakyConfig{});
      break;
    case IngestRoute::Hung:
      endpoint =
          std::make_shared<HungEndpoint>(std::make_shared<LocalEndpoint>(&slave));
      break;
    case IngestRoute::Socket:
    case IngestRoute::SocketCheckpointed: {
      core::SlaveServiceConfig config;
      config.listen = SocketAddress::unixPath(unixSpec("batch_" + tag));
      service = std::make_unique<core::SlaveService>(slave, config, durable);
      service->start();
      endpoint = std::make_shared<SocketEndpoint>(
          endpointConfig(service->address()));
      break;
    }
  }
  streamBatches(*endpoint, batched);
  if (service) service->stop();  // joins the serve thread before the reads

  RouteResult result;
  result.state = persist::encodeSlaveSnapshot(slave.snapshot(0));
  if (durable != nullptr) {
    result.journal = persist::readSampleJournal(durable->journalPath()).records;
    result.recovered = persist::encodeSlaveSnapshot(
        core::SlaveCheckpointer::recover(dir, 0).slave.snapshot(0));
  }
  std::filesystem::remove_all(dir);
  return result;
}

void expectSameRecords(const std::vector<persist::SampleRecord>& a,
                       const std::vector<persist::SampleRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].component, b[i].component) << "record " << i;
    EXPECT_EQ(a[i].t, b[i].t) << "record " << i;
    EXPECT_EQ(std::memcmp(a[i].sample.data(), b[i].sample.data(),
                          sizeof(double) * kMetricCount),
              0)
        << "record " << i;
  }
}

// Per-sample requests and per-tick batches leave every route's slave in
// byte-identical state, and the checkpointed routes journal the identical
// records. A leaf that applied only a batch's first sample would lose three
// of every four samples here.
TEST(IngestBatch, EveryEndpointAppliesTheWholeBatch) {
  const std::vector<std::pair<IngestRoute, std::string>> routes = {
      {IngestRoute::Local, "local"},
      {IngestRoute::Checkpointed, "checkpointed"},
      {IngestRoute::Flaky, "flaky"},
      {IngestRoute::Hung, "hung"},
      {IngestRoute::Socket, "socket"},
      {IngestRoute::SocketCheckpointed, "socket_checkpointed"}};
  const std::vector<std::uint8_t> reference =
      runRoute(IngestRoute::Local, /*batched=*/false, "reference").state;
  for (const auto& [route, name] : routes) {
    SCOPED_TRACE(name);
    const RouteResult single = runRoute(route, /*batched=*/false, name);
    const RouteResult batch = runRoute(route, /*batched=*/true, name);
    EXPECT_TRUE(single.state == reference);
    EXPECT_TRUE(batch.state == reference);
    expectSameRecords(batch.journal, single.journal);
    if (route == IngestRoute::Checkpointed ||
        route == IngestRoute::SocketCheckpointed) {
      EXPECT_EQ(single.journal.size(), 400u * 4 - 5 + 1);
      EXPECT_TRUE(batch.recovered == reference);
    }
  }
}

// The auto-checkpoint rule runs once per batch, after the batch is applied:
// checkpoints land on the same sample-time cadence as with per-sample
// ingest, and the journal they truncate never holds a sample the snapshot
// lacks, so recover() rebuilds the live slave.
TEST(IngestBatch, AutoCheckpointWaitsForTheWholeBatch) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "per-sample");
    core::FChainSlave slave(0);
    for (ComponentId id = 0; id < 4; ++id) slave.addComponent(id, 0);
    const std::string dir = ::testing::TempDir() + "/ingest_batch_checkpoint";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    core::CheckpointPolicy policy;
    policy.snapshot_interval_sec = 150;
    core::SlaveCheckpointer checkpointer(slave, dir, policy);
    online::CheckpointedEndpoint endpoint(&slave, &checkpointer);
    streamBatches(endpoint, batched);
    // The constructor's epoch 1, then checkpoints at ticks 150 and 301 (the
    // first snapshot ends at 151).
    EXPECT_EQ(checkpointer.epoch(), 3u);
    const std::vector<persist::SampleRecord> journal =
        persist::readSampleJournal(checkpointer.journalPath()).records;
    ASSERT_FALSE(journal.empty());
    if (batched) {
      // Whole ticks: tick 301 is inside the snapshot.
      EXPECT_EQ(journal.front().t, 302);
      EXPECT_EQ(journal.size(), 98u * 4);
    }
    const std::vector<std::uint8_t> live =
        persist::encodeSlaveSnapshot(slave.snapshot(0));
    EXPECT_TRUE(persist::encodeSlaveSnapshot(
                    core::SlaveCheckpointer::recover(dir, 0).slave.snapshot(
                        0)) == live);
    std::filesystem::remove_all(dir);
  }
}

// --- Address parsing ---------------------------------------------------------

TEST(SocketTransport, AddressSpecsParseAndRoundTrip) {
  const SocketAddress tcp = SocketAddress::parse("tcp:127.0.0.1:8431");
  EXPECT_EQ(tcp.kind, SocketAddress::Kind::Tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8431);
  EXPECT_EQ(tcp.str(), "tcp:127.0.0.1:8431");
  const SocketAddress unix_addr = SocketAddress::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_addr.kind, SocketAddress::Kind::Unix);
  EXPECT_EQ(unix_addr.path, "/tmp/x.sock");
  EXPECT_EQ(unix_addr.str(), "unix:/tmp/x.sock");
  EXPECT_THROW(SocketAddress::parse("smoke:signals"), std::invalid_argument);
  EXPECT_THROW(SocketAddress::parse("tcp:localhost:notaport"),
               std::invalid_argument);
  // The whole port must be decimal digits in 0-65535: no suffix, blank or
  // sign, and no value that overflows.
  for (const char* spec :
       {"tcp:localhost:80abc", "tcp:localhost: 80", "tcp:localhost:+80",
        "tcp:localhost:99999999999"}) {
    EXPECT_THROW(SocketAddress::parse(spec), std::invalid_argument) << spec;
  }
}

}  // namespace
}  // namespace fchain::runtime
