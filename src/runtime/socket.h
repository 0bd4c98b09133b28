// POSIX socket primitives for the framed wire transport.
//
// Thin RAII wrappers over TCP / Unix-domain stream sockets with explicit
// deadlines on every operation (non-blocking fds + poll, no SO_*TIMEO
// surprises) and a frame-aware receive path: recvFrame() reads exactly one
// persist-codec frame (runtime/wire.h) and classifies what actually
// happened on the wire —
//
//   Ok          a complete frame arrived (CRC still checked by the caller's
//               wire::decodeMessage, which distinguishes bit-rot)
//   Timeout     the deadline expired mid-read
//   Closed      the peer closed cleanly *between* frames
//   Torn        the connection died mid-frame: the half-delivered reply a
//               kill -9'd peer leaves behind (a retryable transport error,
//               not a protocol failure)
//   Corrupt     the frame header itself is unparseable (bad magic, an
//               oversized length) — nothing after it can be trusted
//   BadVersion  the peer speaks a newer protocol version
//
// That taxonomy is what the chaos decorators (FlakyEndpoint torn replies,
// the tests' HungEndpoint abandoned calls) emulate in-process, so the
// emulated and real transports exercise the same master-side handling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fchain::runtime {

/// A listen/connect address: "tcp:<host>:<port>" or "unix:<path>".
struct SocketAddress {
  enum class Kind { Tcp, Unix };
  Kind kind = Kind::Unix;
  std::string host;         ///< tcp only
  std::uint16_t port = 0;   ///< tcp only (0 = auto-assign when listening)
  std::string path;         ///< unix only

  static SocketAddress tcp(std::string host, std::uint16_t port);
  static SocketAddress unixPath(std::string path);
  /// Parses the "tcp:host:port" (port: decimal digits, 0-65535) /
  /// "unix:path" spec; throws std::invalid_argument on anything else.
  static SocketAddress parse(const std::string& spec);
  std::string str() const;
};

enum class RecvStatus : std::uint8_t {
  Ok,
  Timeout,
  Closed,
  Torn,
  Corrupt,
  BadVersion,
};

/// One connected stream socket (move-only, closes on destruction). All
/// deadlines are wall-clock milliseconds; <= 0 means no deadline.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Connects within the deadline; returns an invalid Socket on failure
  /// (refused, unreachable, timeout).
  static Socket connectTo(const SocketAddress& address, double timeout_ms);

  /// Writes the whole buffer within the deadline.
  bool sendAll(const std::vector<std::uint8_t>& bytes, double timeout_ms);

  /// Reads exactly one frame (header + declared payload) into `frame`.
  /// On anything but Ok the buffer contents are unspecified and the
  /// connection should be closed: a stream that lost framing cannot resync.
  RecvStatus recvFrame(std::vector<std::uint8_t>& frame, double timeout_ms);

 private:
  int fd_ = -1;
};

/// A bound, listening socket. For unix addresses any stale socket file is
/// unlinked first (daemon restart reuses its path); for tcp port 0 the
/// kernel-assigned port is reflected in address().
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Throws std::runtime_error when binding fails.
  static Listener listenOn(const SocketAddress& address);

  /// Accepts one connection within the deadline; invalid Socket on timeout.
  Socket accept(double timeout_ms);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const SocketAddress& address() const { return address_; }
  void close();

 private:
  int fd_ = -1;
  SocketAddress address_;
};

}  // namespace fchain::runtime
