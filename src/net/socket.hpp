#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "mp/message.hpp"
#include "net/wire.hpp"

namespace pdc::net {

/// Where a rank can be reached: a Unix-domain socket path or a TCP
/// host:port. Serialized as "unix:<path>" / "tcp:<host>:<port>" in the
/// wireup frames.
struct Endpoint {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;                 ///< Unix socket path
  std::string host = "127.0.0.1";   ///< TCP host
  int port = 0;                     ///< TCP port (0 = ephemeral when listening)

  [[nodiscard]] std::string to_string() const;
  /// Parse "unix:<path>" or "tcp:<host>:<port>"; throws ProtocolError.
  static Endpoint parse(const std::string& text);
};

/// RAII file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// ::shutdown(SHUT_RDWR): unblocks any thread parked in recv/send on this
  /// socket (they observe EOF/error), without racing the close of the fd.
  void shutdown_both() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Bind + listen at `endpoint`. For TCP with port 0 the kernel picks an
/// ephemeral port — read it back with local_endpoint(). For Unix the path
/// must not exist yet (stale paths from a previous crashed job are
/// unlinked first). Throws ConnectionError.
Socket listen_at(const Endpoint& endpoint, int backlog);

/// The listener's actual address (resolves TCP port 0). Throws
/// ConnectionError.
Endpoint local_endpoint(const Socket& listener, const Endpoint& requested);

/// Wait up to `timeout` for a connection and accept it. Throws
/// ConnectionError on timeout or error.
Socket accept_for(Socket& listener, std::chrono::milliseconds timeout,
                  const char* who);

/// Accept one pending connection without waiting, from a non-blocking
/// listener. The socket it returns is non-blocking, with Nagle off for TCP;
/// an invalid Socket means none was pending (or the listener is shut).
Socket accept_now(Socket& listener, Endpoint::Kind kind);

/// The sleep before dial attempt `attempt` (1-based: attempt 1 is the first
/// retry). True exponential backoff with a cap plus deterministic jitter:
///
///   base   = min(initial * 2^(attempt-1), cap)     (overflow-guarded)
///   jitter = splitmix64(jitter_key, attempt) % (base/4 + 1)
///   delay  = min(base + jitter, cap)
///
/// A non-positive `initial` is treated as 1ms — the old code slept
/// `initial` then doubled it, so initial=0 busy-dialed forever and any
/// initial never actually grew between attempts. The jitter is a pure
/// function of (jitter_key, attempt), so a rank's schedule is replayable
/// while distinct ranks (distinct keys) still decorrelate their retries.
std::chrono::milliseconds dial_backoff_delay(int attempt,
                                             std::chrono::milliseconds initial,
                                             std::chrono::milliseconds cap,
                                             std::uint64_t jitter_key);

/// Connect to `endpoint` with bounded retry: up to `attempts` tries, each
/// with `timeout_per_attempt`, sleeping dial_backoff_delay(attempt, ...)
/// between tries. Dial retries are counted on the net.dial_retries trace
/// counter. Throws ConnectionError once the budget is spent.
Socket dial(const Endpoint& endpoint, int attempts,
            std::chrono::milliseconds timeout_per_attempt,
            std::chrono::milliseconds backoff_initial, const char* who,
            std::chrono::milliseconds backoff_cap = std::chrono::milliseconds(200),
            std::uint64_t jitter_key = 0);

/// Write all of `data` (and then `payload`, if non-null) to the socket.
/// Uses MSG_NOSIGNAL so a dead peer surfaces as PeerLost, not SIGPIPE.
/// `bye_ok`: failures while writing a Bye during teardown are benign (the
/// peer may already be gone) and are swallowed instead of thrown.
/// A full send buffer (EAGAIN — the transport's peer sockets carry a
/// SO_SNDTIMEO) waits for writability instead of failing; only a peer that
/// makes no progress for `stall_budget` is declared lost.
void send_all(Socket& socket, const mp::Bytes& data,
              const mp::SharedPayload& payload, bool bye_ok, const char* who,
              std::chrono::milliseconds stall_budget =
                  std::chrono::milliseconds(5000));

/// Read exactly `n` bytes. Returns false on a clean EOF at offset 0 (the
/// peer closed between frames); throws PeerLost on an error or an EOF in
/// the middle of the buffer (a mid-message disconnect).
bool recv_exact(Socket& socket, void* out, std::size_t n, const char* who);

/// recv_exact with a poll() deadline (wireup handshakes). Throws
/// ConnectionError on timeout.
bool recv_exact_for(Socket& socket, void* out, std::size_t n,
                    std::chrono::milliseconds timeout, const char* who);

/// Read one whole frame (header + body). Returns false on clean EOF before
/// a header. Applies the header clamps before allocating the body.
bool recv_frame(Socket& socket, wire::Header* header, mp::Bytes* body,
                const char* who);

/// recv_frame with a per-read poll() deadline (wireup). Throws
/// ConnectionError on timeout.
bool recv_frame_for(Socket& socket, wire::Header* header, mp::Bytes* body,
                    std::chrono::milliseconds timeout, const char* who);

/// Incremental frame reader over one connection: fill() makes one
/// non-blocking recv of whatever bytes are there, next() cuts the complete
/// frames out of them. A peer that coalesces frames costs one read, and a
/// partial frame stays buffered until the rest arrives. The header clamps
/// (wire::decode_header) apply as soon as a header is complete, before the
/// buffer grows to hold its body.
class FrameReader {
 public:
  /// One recv (MSG_DONTWAIT) into the buffer of whatever bytes are ready,
  /// perhaps none. False on an orderly close; throws PeerLost on a socket
  /// error.
  bool fill(Socket& socket, const char* who);

  /// Take the next complete frame out of the buffer; false when none is
  /// buffered whole. Throws ProtocolError on a bad header.
  bool next(wire::Header* header, mp::Bytes* body);

  /// The next frame, waiting up to `timeout` per poll() for its bytes: one
  /// poll and one recv per batch the peer sent. Returns false on a clean EOF
  /// between frames; throws PeerLost on an EOF mid-frame, ConnectionError
  /// on the deadline, ProtocolError on a bad header.
  bool next_for(Socket& socket, wire::Header* header, mp::Bytes* body,
                std::chrono::milliseconds timeout, const char* who);

  /// True while part of a frame is buffered (an EOF now is mid-message).
  [[nodiscard]] bool mid_frame() const noexcept { return end_ > begin_; }

 private:
  std::unique_ptr<std::byte[]> buffer_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;    ///< one past the last received byte
  /// The decoded header of the frame at begin_ once it is complete.
  std::optional<wire::Header> pending_;
};

}  // namespace pdc::net
