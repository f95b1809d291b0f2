#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "net/errors.hpp"
#include "trace/trace.hpp"

namespace pdc::net {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// sockaddr for an endpoint; returns the length actually used.
socklen_t fill_sockaddr(const Endpoint& endpoint, sockaddr_storage* storage) {
  std::memset(storage, 0, sizeof(*storage));
  if (endpoint.kind == Endpoint::Kind::Unix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(storage);
    sun->sun_family = AF_UNIX;
    if (endpoint.path.size() >= sizeof(sun->sun_path)) {
      throw ConnectionError("socket: unix path too long: " + endpoint.path);
    }
    std::memcpy(sun->sun_path, endpoint.path.c_str(), endpoint.path.size() + 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  endpoint.path.size() + 1);
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(storage);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(static_cast<std::uint16_t>(endpoint.port));
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &sin->sin_addr) != 1) {
    throw ConnectionError("socket: bad IPv4 address: " + endpoint.host);
  }
  return sizeof(sockaddr_in);
}

int family_of(const Endpoint& endpoint) {
  return endpoint.kind == Endpoint::Kind::Unix ? AF_UNIX : AF_INET;
}

/// Wait for the socket to become readable/writable; true when it did.
bool poll_one(int fd, short events, std::chrono::milliseconds timeout) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int n = ::poll(&p, 1, static_cast<int>(timeout.count()));
    if (n > 0) return true;
    if (n == 0) return false;
    if (errno != EINTR) return false;
  }
}

}  // namespace

std::string Endpoint::to_string() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Endpoint Endpoint::parse(const std::string& text) {
  Endpoint e;
  if (text.rfind("unix:", 0) == 0) {
    e.kind = Kind::Unix;
    e.path = text.substr(5);
    if (e.path.empty()) throw ProtocolError("endpoint: empty unix path");
    return e;
  }
  if (text.rfind("tcp:", 0) == 0) {
    e.kind = Kind::Tcp;
    const std::string rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw ProtocolError("endpoint: expected tcp:<host>:<port>, got " + text);
    }
    e.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    char* end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
      throw ProtocolError("endpoint: bad port in " + text);
    }
    e.port = static_cast<int>(port);
    return e;
  }
  throw ProtocolError("endpoint: unknown scheme in \"" + text +
                      "\" (expected unix:<path> or tcp:<host>:<port>)");
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_at(const Endpoint& endpoint, int backlog) {
  Socket sock(::socket(family_of(endpoint), SOCK_STREAM, 0));
  if (!sock.valid()) {
    throw ConnectionError("socket: cannot create listener: " + errno_text());
  }
  if (endpoint.kind == Endpoint::Kind::Unix) {
    // A stale path from a crashed previous job would make bind fail.
    ::unlink(endpoint.path.c_str());
  } else {
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  sockaddr_storage storage;
  const socklen_t len = fill_sockaddr(endpoint, &storage);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&storage), len) != 0) {
    throw ConnectionError("socket: cannot bind " + endpoint.to_string() + ": " +
                          errno_text());
  }
  if (::listen(sock.fd(), backlog) != 0) {
    throw ConnectionError("socket: cannot listen at " + endpoint.to_string() +
                          ": " + errno_text());
  }
  return sock;
}

Endpoint local_endpoint(const Socket& listener, const Endpoint& requested) {
  if (requested.kind == Endpoint::Kind::Unix) return requested;
  sockaddr_in sin{};
  socklen_t len = sizeof sin;
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&sin), &len) !=
      0) {
    throw ConnectionError("socket: getsockname failed: " + errno_text());
  }
  Endpoint actual = requested;
  actual.port = ntohs(sin.sin_port);
  return actual;
}

Socket accept_for(Socket& listener, std::chrono::milliseconds timeout,
                  const char* who) {
  if (!poll_one(listener.fd(), POLLIN, timeout)) {
    throw ConnectionError(std::string(who) + ": no peer dialed in within " +
                          std::to_string(timeout.count()) + "ms");
  }
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    throw ConnectionError(std::string(who) + ": accept failed: " +
                          errno_text());
  }
  Socket sock(fd);
  // Disable Nagle on accepted TCP connections too (the dial side already
  // does): a ping-pong over an accepted socket otherwise serializes behind
  // delayed ACKs — ~40ms per small reply instead of microseconds.
  // setsockopt fails harmlessly (ENOTSUP/EOPNOTSUPP) on unix sockets.
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return sock;
}

Socket accept_now(Socket& listener, Endpoint::Kind kind) {
  Socket sock(::accept4(listener.fd(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC));
  if (sock.valid() && kind == Endpoint::Kind::Tcp) {
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return sock;
}

namespace {

/// splitmix64 — the standard 64-bit finalizer; a pure, high-quality hash of
/// its input, used to derive deterministic dial jitter.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::chrono::milliseconds dial_backoff_delay(int attempt,
                                             std::chrono::milliseconds initial,
                                             std::chrono::milliseconds cap,
                                             std::uint64_t jitter_key) {
  if (attempt < 1) attempt = 1;
  // The old schedule slept `initial` then doubled afterwards, so initial=0
  // busy-dialed forever; treat non-positive as the smallest real sleep.
  std::uint64_t base_ms =
      initial.count() > 0 ? static_cast<std::uint64_t>(initial.count()) : 1;
  std::uint64_t cap_ms = cap.count() > 0 ? static_cast<std::uint64_t>(cap.count())
                                         : base_ms;
  if (cap_ms < base_ms) cap_ms = base_ms;
  for (int i = 1; i < attempt && base_ms < cap_ms; ++i) {
    base_ms = base_ms > cap_ms / 2 ? cap_ms : base_ms * 2;  // overflow-safe
  }
  base_ms = std::min(base_ms, cap_ms);
  const std::uint64_t jitter =
      splitmix64(jitter_key ^ (0x9e3779b97f4a7c15ULL *
                               static_cast<std::uint64_t>(attempt))) %
      (base_ms / 4 + 1);
  return std::chrono::milliseconds(std::min(base_ms + jitter, cap_ms));
}

Socket dial(const Endpoint& endpoint, int attempts,
            std::chrono::milliseconds timeout_per_attempt,
            std::chrono::milliseconds backoff_initial, const char* who,
            std::chrono::milliseconds backoff_cap, std::uint64_t jitter_key) {
  std::string last_error = "no attempts made";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      if (trace::enabled()) trace::Counter("net.dial_retries").add(1.0);
      std::this_thread::sleep_for(
          dial_backoff_delay(attempt, backoff_initial, backoff_cap, jitter_key));
    }
    Socket sock(::socket(family_of(endpoint), SOCK_STREAM, 0));
    if (!sock.valid()) {
      last_error = "cannot create socket: " + errno_text();
      continue;
    }
    // Non-blocking connect so a dead address honours the timeout instead of
    // the kernel's (much longer) default.
    const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
    ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK);
    sockaddr_storage storage;
    const socklen_t len = fill_sockaddr(endpoint, &storage);
    const int rc =
        ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&storage), len);
    if (rc != 0 && errno != EINPROGRESS) {
      last_error = errno_text();
      continue;
    }
    if (rc != 0) {
      if (!poll_one(sock.fd(), POLLOUT, timeout_per_attempt)) {
        last_error = "connect timed out after " +
                     std::to_string(timeout_per_attempt.count()) + "ms";
        continue;
      }
      int so_error = 0;
      socklen_t so_len = sizeof so_error;
      ::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &so_len);
      if (so_error != 0) {
        last_error = std::strerror(so_error);
        continue;
      }
    }
    ::fcntl(sock.fd(), F_SETFL, flags);
    if (endpoint.kind == Endpoint::Kind::Tcp) {
      const int one = 1;
      ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return sock;
  }
  throw ConnectionError(std::string(who) + ": dialing " +
                        endpoint.to_string() + " failed after " +
                        std::to_string(attempts) + " attempts: " + last_error);
}

namespace {

void send_buffer(Socket& socket, const std::byte* data, std::size_t n,
                 std::chrono::milliseconds stall_budget, const char* who) {
  std::size_t sent = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < n) {
    const ssize_t rc =
        ::send(socket.fd(), data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Full send buffer. The transport's peer sockets carry a SO_SNDTIMEO,
      // so a slow-but-alive peer surfaces here rather than blocking forever
      // in send(); that used to be declared PeerLost immediately. Wait for
      // writability and keep going — only a peer that makes *no* progress
      // for the whole stall budget is lost.
      const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - last_progress);
      if (stalled >= stall_budget) {
        throw PeerLost(std::string(who) + ": peer stopped draining (" +
                       std::to_string(sent) + " of " + std::to_string(n) +
                       " bytes sent, no progress in " +
                       std::to_string(stalled.count()) + "ms)");
      }
      poll_one(socket.fd(), POLLOUT,
               std::min(stall_budget - stalled, std::chrono::milliseconds(100)));
      continue;
    }
    throw PeerLost(std::string(who) + ": send failed: " + errno_text());
  }
}

}  // namespace

void send_all(Socket& socket, const mp::Bytes& data,
              const mp::SharedPayload& payload, bool bye_ok, const char* who,
              std::chrono::milliseconds stall_budget) {
  try {
    send_buffer(socket, data.data(), data.size(), stall_budget, who);
    if (payload && !payload->empty()) {
      send_buffer(socket, payload->data(), payload->size(), stall_budget, who);
    }
  } catch (const PeerLost&) {
    // During teardown a peer that finished first has every right to be
    // gone; its missed goodbye is not an error.
    if (!bye_ok) throw;
  }
}

bool recv_exact(Socket& socket, void* out, std::size_t n, const char* who) {
  auto* dst = static_cast<std::byte*>(out);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(socket.fd(), dst + got, n - got, 0);
    if (rc == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      throw PeerLost(std::string(who) + ": peer disconnected mid-message (" +
                     std::to_string(got) + " of " + std::to_string(n) +
                     " bytes read)");
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw PeerLost(std::string(who) + ": recv failed: " + errno_text());
    }
    got += static_cast<std::size_t>(rc);
  }
  return true;
}

bool recv_exact_for(Socket& socket, void* out, std::size_t n,
                    std::chrono::milliseconds timeout, const char* who) {
  auto* dst = static_cast<std::byte*>(out);
  std::size_t got = 0;
  while (got < n) {
    if (!poll_one(socket.fd(), POLLIN, timeout)) {
      throw ConnectionError(std::string(who) + ": handshake read timed out (" +
                            std::to_string(got) + " of " + std::to_string(n) +
                            " bytes after " + std::to_string(timeout.count()) +
                            "ms)");
    }
    const ssize_t rc = ::recv(socket.fd(), dst + got, n - got, 0);
    if (rc == 0) {
      if (got == 0) return false;
      throw PeerLost(std::string(who) + ": peer disconnected mid-message (" +
                     std::to_string(got) + " of " + std::to_string(n) +
                     " bytes read)");
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw PeerLost(std::string(who) + ": recv failed: " + errno_text());
    }
    got += static_cast<std::size_t>(rc);
  }
  return true;
}

namespace {

template <typename RecvFn>
bool recv_frame_impl(wire::Header* header, mp::Bytes* body, RecvFn&& read,
                     const char* who) {
  std::byte raw[wire::kHeaderBytes];
  if (!read(raw, sizeof raw, /*allow_eof=*/true)) return false;
  *header = wire::decode_header(raw);  // validates magic/version/clamps
  body->assign(header->body_len, std::byte{0});
  if (header->body_len > 0) {
    if (!read(body->data(), body->size(), /*allow_eof=*/false)) {
      throw PeerLost(std::string(who) +
                     ": peer disconnected between header and body");
    }
  }
  return true;
}

}  // namespace

bool recv_frame(Socket& socket, wire::Header* header, mp::Bytes* body,
                const char* who) {
  return recv_frame_impl(
      header, body,
      [&](void* out, std::size_t n, bool) {
        return recv_exact(socket, out, n, who);
      },
      who);
}

bool recv_frame_for(Socket& socket, wire::Header* header, mp::Bytes* body,
                    std::chrono::milliseconds timeout, const char* who) {
  return recv_frame_impl(
      header, body,
      [&](void* out, std::size_t n, bool) {
        return recv_exact_for(socket, out, n, timeout, who);
      },
      who);
}

namespace {
/// The least room a fill() offers a recv: enough for a burst of small lab
/// frames, small enough that an idle connection holds little.
constexpr std::size_t kReadChunk = 4096;
/// A buffer grown past this for one large frame is released once drained.
constexpr std::size_t kKeepBytes = 64 * 1024;
}  // namespace

bool FrameReader::fill(Socket& socket, const char* who) {
  if (begin_ == end_) {
    begin_ = end_ = 0;
    if (capacity_ > kKeepBytes) {
      buffer_.reset();
      capacity_ = 0;
    }
  }
  // Room for the rest of the frame at begin_ (its header, already
  // clamp-checked by next(), gives the size), or at least one chunk.
  const std::size_t buffered = end_ - begin_;
  const std::size_t need = std::max<std::size_t>(
      pending_ ? wire::kHeaderBytes + pending_->body_len : 0, kReadChunk);
  if (capacity_ - begin_ < need || end_ == capacity_) {
    if (capacity_ < need) {
      auto grown = std::make_unique_for_overwrite<std::byte[]>(need);
      if (buffered > 0) {
        std::memcpy(grown.get(), buffer_.get() + begin_, buffered);
      }
      buffer_ = std::move(grown);
      capacity_ = need;
    } else if (buffered > 0) {
      std::memmove(buffer_.get(), buffer_.get() + begin_, buffered);
    }
    begin_ = 0;
    end_ = buffered;
  }
  for (;;) {
    const ssize_t rc = ::recv(socket.fd(), buffer_.get() + end_,
                              capacity_ - end_, MSG_DONTWAIT);
    if (rc > 0) {
      end_ += static_cast<std::size_t>(rc);
      return true;
    }
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    throw PeerLost(std::string(who) + ": recv failed: " + errno_text());
  }
}

bool FrameReader::next(wire::Header* header, mp::Bytes* body) {
  const std::size_t buffered = end_ - begin_;
  if (!pending_) {
    if (buffered < wire::kHeaderBytes) return false;
    std::byte raw[wire::kHeaderBytes];
    std::memcpy(raw, buffer_.get() + begin_, wire::kHeaderBytes);
    pending_ = wire::decode_header(raw);  // validates magic/version/clamps
  }
  const std::size_t frame = wire::kHeaderBytes + pending_->body_len;
  if (buffered < frame) return false;
  const std::byte* first = buffer_.get() + begin_ + wire::kHeaderBytes;
  body->assign(first, first + pending_->body_len);
  *header = *pending_;
  begin_ += frame;
  pending_.reset();
  return true;
}

bool FrameReader::next_for(Socket& socket, wire::Header* header,
                           mp::Bytes* body, std::chrono::milliseconds timeout,
                           const char* who) {
  while (!next(header, body)) {
    if (!poll_one(socket.fd(), POLLIN, timeout)) {
      throw ConnectionError(std::string(who) + ": read timed out (" +
                            std::to_string(end_ - begin_) +
                            " bytes of a frame after " +
                            std::to_string(timeout.count()) + "ms)");
    }
    if (fill(socket, who)) continue;
    if (!mid_frame()) return false;  // clean EOF at a frame boundary
    throw PeerLost(std::string(who) + ": peer disconnected mid-message (" +
                   std::to_string(end_ - begin_) + " bytes of a frame read)");
  }
  return true;
}

}  // namespace pdc::net
