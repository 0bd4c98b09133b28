#include "runtime/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "persist/codec.h"
#include "runtime/wire.h"

namespace fchain::runtime {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadlineFrom(double timeout_ms) {
  if (timeout_ms <= 0.0) return Clock::time_point::max();
  return Clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(timeout_ms * 1e3));
}

/// Remaining milliseconds for poll(); -1 = infinite, 0 = expired.
int remainingMs(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  // Round up so a sub-millisecond remainder still polls once.
  return static_cast<int>(std::min<std::int64_t>(left.count() + 1, 60'000));
}

bool setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Waits for the fd to become readable/writable before the deadline.
bool waitFor(int fd, short events, Clock::time_point deadline) {
  while (true) {
    const int wait = remainingMs(deadline);
    if (wait == 0) return false;
    struct pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, wait);
    if (rc > 0) return true;
    if (rc == 0) return false;  // poll's own timeout
    if (errno != EINTR) return false;
  }
}

}  // namespace

// --- SocketAddress ---------------------------------------------------------

SocketAddress SocketAddress::tcp(std::string host, std::uint16_t port) {
  SocketAddress a;
  a.kind = Kind::Tcp;
  a.host = std::move(host);
  a.port = port;
  return a;
}

SocketAddress SocketAddress::unixPath(std::string path) {
  SocketAddress a;
  a.kind = Kind::Unix;
  a.path = std::move(path);
  return a;
}

SocketAddress SocketAddress::parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.empty()) {
      throw std::invalid_argument("empty unix socket path: " + spec);
    }
    return unixPath(path);
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument("expected tcp:host:port, got " + spec);
    }
    const std::string host = rest.substr(0, colon);
    // Digits only, over the whole remainder: from_chars into an unsigned
    // 16-bit value takes no sign or blank and refuses anything above 65535.
    const char* last = rest.data() + rest.size();
    std::uint16_t port = 0;
    const auto [end, error] =
        std::from_chars(rest.data() + colon + 1, last, port);
    if (error != std::errc() || end != last) {
      throw std::invalid_argument("expected a port in 0-65535, got " + spec);
    }
    return tcp(host, port);
  }
  throw std::invalid_argument("expected tcp:host:port or unix:path, got " +
                              spec);
}

std::string SocketAddress::str() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

// --- Socket ----------------------------------------------------------------

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::connectTo(const SocketAddress& address, double timeout_ms) {
  const Clock::time_point deadline = deadlineFrom(timeout_ms);
  int fd = -1;
  union {
    struct sockaddr sa;
    struct sockaddr_in in;
    struct sockaddr_un un;
  } addr{};
  socklen_t addr_len = 0;
  if (address.kind == SocketAddress::Kind::Unix) {
    if (address.path.size() >= sizeof(addr.un.sun_path)) return Socket{};
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    addr.un.sun_family = AF_UNIX;
    std::strncpy(addr.un.sun_path, address.path.c_str(),
                 sizeof(addr.un.sun_path) - 1);
    addr_len = sizeof(addr.un);
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    addr.in.sin_family = AF_INET;
    addr.in.sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &addr.in.sin_addr) != 1) {
      if (fd >= 0) ::close(fd);
      return Socket{};
    }
    addr_len = sizeof(addr.in);
  }
  if (fd < 0) return Socket{};
  if (!setNonBlocking(fd)) {
    ::close(fd);
    return Socket{};
  }
  if (::connect(fd, &addr.sa, addr_len) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      ::close(fd);
      return Socket{};
    }
    if (!waitFor(fd, POLLOUT, deadline)) {
      ::close(fd);
      return Socket{};
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return Socket{};
    }
  }
  if (address.kind == SocketAddress::Kind::Tcp) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return Socket{fd};
}

bool Socket::sendAll(const std::vector<std::uint8_t>& bytes,
                     double timeout_ms) {
  if (fd_ < 0) return false;
  const Clock::time_point deadline = deadlineFrom(timeout_ms);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!waitFor(fd_, POLLOUT, deadline)) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer reset / closed
  }
  return true;
}

RecvStatus Socket::recvFrame(std::vector<std::uint8_t>& frame,
                             double timeout_ms) {
  frame.clear();
  if (fd_ < 0) return RecvStatus::Closed;
  const Clock::time_point deadline = deadlineFrom(timeout_ms);

  const auto readExact = [&](std::size_t target) -> RecvStatus {
    while (frame.size() < target) {
      std::uint8_t chunk[4096];
      const std::size_t want =
          std::min(sizeof(chunk), target - frame.size());
      const ssize_t n = ::recv(fd_, chunk, want, 0);
      if (n > 0) {
        frame.insert(frame.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) {
        // EOF between frames is a clean close; EOF inside one is the
        // half-delivered frame a dying peer leaves behind.
        return frame.empty() ? RecvStatus::Closed : RecvStatus::Torn;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!waitFor(fd_, POLLIN, deadline)) return RecvStatus::Timeout;
        continue;
      }
      if (errno == EINTR) continue;
      // ECONNRESET & friends: the mid-stream equivalent of a torn frame.
      return frame.empty() ? RecvStatus::Closed : RecvStatus::Torn;
    }
    return RecvStatus::Ok;
  };

  const RecvStatus header = readExact(persist::kFrameHeaderSize);
  if (header != RecvStatus::Ok) return header;

  // Parse the header before trusting the declared length.
  persist::Decoder d(frame);
  const std::uint32_t magic = d.u32();
  if (magic != wire::kWireMagic) return RecvStatus::Corrupt;
  const std::uint32_t version = d.u32();
  if (version == 0) return RecvStatus::Corrupt;
  if (version > wire::kWireVersion) return RecvStatus::BadVersion;
  const std::uint64_t length = d.u64();
  if (length > wire::kMaxFramePayload) return RecvStatus::Corrupt;

  return readExact(persist::kFrameHeaderSize +
                   static_cast<std::size_t>(length));
}

// --- Listener --------------------------------------------------------------

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), address_(std::move(other.address_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    address_ = std::move(other.address_);
    other.fd_ = -1;
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (address_.kind == SocketAddress::Kind::Unix) {
      ::unlink(address_.path.c_str());
    }
  }
}

Listener Listener::listenOn(const SocketAddress& address) {
  Listener listener;
  listener.address_ = address;
  int fd = -1;
  if (address.kind == SocketAddress::Kind::Unix) {
    struct sockaddr_un un{};
    if (address.path.size() >= sizeof(un.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + address.path);
    }
    ::unlink(address.path.c_str());
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed for " + address.str());
    un.sun_family = AF_UNIX;
    std::strncpy(un.sun_path, address.path.c_str(), sizeof(un.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&un), sizeof(un)) != 0) {
      ::close(fd);
      throw std::runtime_error("bind() failed for " + address.str() + ": " +
                               std::strerror(errno));
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed for " + address.str());
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in in{};
    in.sin_family = AF_INET;
    in.sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &in.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("bad tcp host: " + address.host);
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&in), sizeof(in)) != 0) {
      ::close(fd);
      throw std::runtime_error("bind() failed for " + address.str() + ": " +
                               std::strerror(errno));
    }
    // Reflect a kernel-assigned port back into the address.
    struct sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) ==
        0) {
      listener.address_.port = ntohs(bound.sin_port);
    }
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    throw std::runtime_error("listen() failed for " + address.str() + ": " +
                             std::strerror(errno));
  }
  if (!setNonBlocking(fd)) {
    ::close(fd);
    throw std::runtime_error("fcntl() failed for " + address.str());
  }
  listener.fd_ = fd;
  return listener;
}

Socket Listener::accept(double timeout_ms) {
  if (fd_ < 0) return Socket{};
  const Clock::time_point deadline = deadlineFrom(timeout_ms);
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      if (!setNonBlocking(fd)) {
        ::close(fd);
        return Socket{};
      }
      if (address_.kind == SocketAddress::Kind::Tcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      return Socket{fd};
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!waitFor(fd_, POLLIN, deadline)) return Socket{};
      continue;
    }
    if (errno == EINTR) continue;
    return Socket{};
  }
}

}  // namespace fchain::runtime
