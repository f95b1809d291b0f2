#include "net/transport.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "chaos/chaos.hpp"
#include "mp/universe.hpp"
#include "net/errors.hpp"
#include "net/shm.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::net {

namespace {

/// The well-known endpoint of `rank` under this config (unix mode), or the
/// rendezvous endpoint (tcp, rank 0 only — other tcp ranks are ephemeral).
Endpoint endpoint_for(const SocketConfig& config, int rank) {
  Endpoint e;
  e.kind = config.kind;
  if (config.kind == Endpoint::Kind::Unix) {
    e.path = config.dir + "/rank" + std::to_string(rank) + ".sock";
  } else {
    e.host = config.host;
    e.port = rank == 0 ? config.port : 0;
  }
  return e;
}

void set_send_timeout(const Socket& socket, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

SocketTransport::SocketTransport(const SocketConfig& config)
    : config_(config) {
  if (config.np < 1) {
    throw InvalidArgument("SocketTransport: np must be >= 1");
  }
  if (config.rank < 0 || config.rank >= config.np) {
    throw InvalidArgument("SocketTransport: rank " +
                          std::to_string(config.rank) +
                          " out of range for np=" + std::to_string(config.np));
  }
  if (config.kind == Endpoint::Kind::Unix && config.dir.empty()) {
    throw InvalidArgument("SocketTransport: unix transport needs a socket dir");
  }
  if (config.kind == Endpoint::Kind::Tcp && config.rank != 0 &&
      config.port <= 0) {
    throw InvalidArgument(
        "SocketTransport: tcp transport needs the rendezvous port");
  }
  if (!config.topology.empty()) {
    if (config.topology.size() != static_cast<std::size_t>(config.np)) {
      throw InvalidArgument(
          "SocketTransport: topology must list one node id per rank");
    }
    for (const int id : config.topology) {
      if (id < 0) {
        throw InvalidArgument("SocketTransport: node ids must be >= 0");
      }
    }
  }
  peers_.resize(static_cast<std::size_t>(config.np));
  hostnames_.assign(static_cast<std::size_t>(config.np), std::string{});
  hostnames_[static_cast<std::size_t>(config.rank)] = config.hostname;
  try {
    wireup(config);
    if (config.use_shm) {
      // The socket mesh is the rendezvous barrier: every peer is alive and
      // inside (or past) its own shm wireup by now, so the create/attach
      // retries below only have to cover scheduling skew.
      shm::Options options;
      options.job = config.job;
      options.np = config.np;
      options.rank = config.rank;
      options.node_ids = node_ids();
      options.ring_bytes = config.shm_ring_bytes;
      options.handshake_timeout_ms = config.handshake_timeout_ms;
      options.linger_ms = config.linger_ms;
      shm_ = std::make_unique<shm::ShmState>(options);
      shm_->connect();
    }
  } catch (...) {
    // A rank that fails during wireup must not leak its listening socket or
    // any half-open peer connection; no thread has been started yet, so
    // closing descriptors (and unmapping/unlinking any shm) is the whole
    // cleanup.
    shm_.reset();
    for (auto& peer : peers_) {
      if (peer) peer->socket.close();
    }
    listener_.close();
    if (config.kind == Endpoint::Kind::Unix && !listen_endpoint_.path.empty()) {
      ::unlink(listen_endpoint_.path.c_str());
    }
    throw;
  }
}

SocketTransport::~SocketTransport() { shutdown(); }

const char* SocketTransport::name() const noexcept {
  if (config_.use_shm) return "shm";
  return config_.kind == Endpoint::Kind::Unix ? "unix" : "tcp";
}

std::vector<int> SocketTransport::node_ids() const {
  if (!config_.topology.empty()) return config_.topology;
  std::vector<int> ids(hostnames_.size(), 0);
  if (config_.use_shm) return ids;  // shm without a map ⇔ one local node
  std::vector<std::string> seen;
  for (std::size_t r = 0; r < hostnames_.size(); ++r) {
    const auto it = std::find(seen.begin(), seen.end(), hostnames_[r]);
    if (it == seen.end()) {
      ids[r] = static_cast<int>(seen.size());
      seen.push_back(hostnames_[r]);
    } else {
      ids[r] = static_cast<int>(it - seen.begin());
    }
  }
  return ids;
}

void SocketTransport::wireup(const SocketConfig& config) {
  trace::Span span("net.wireup", "net");
  // Every rank — including rank 0, whose listener doubles as the
  // rendezvous point — opens its own listener first, so a dialing peer's
  // bounded retries only have to outlast process startup skew.
  Endpoint requested = endpoint_for(config, config.rank);
  listener_ = listen_at(requested, std::max(8, config.np));
  listen_endpoint_ = local_endpoint(listener_, requested);

  if (config.rank == 0) {
    wireup_rank0(config, listen_endpoint_);
  } else {
    wireup_peer(config, listen_endpoint_);
  }
  // Wireup is complete; nobody new should be dialing in. Closing the
  // listener now (not at shutdown) means a stray connection attempt fails
  // fast at the OS level instead of sitting in our backlog forever.
  listener_.close();
  if (config.kind == Endpoint::Kind::Unix) {
    ::unlink(listen_endpoint_.path.c_str());
  }
}

void SocketTransport::wireup_rank0(const SocketConfig& config,
                                   const Endpoint& self) {
  const auto handshake = std::chrono::milliseconds(config.handshake_timeout_ms);
  std::vector<std::string> endpoints(static_cast<std::size_t>(config.np));
  endpoints[0] = self.to_string();

  // Collect one Hello per peer; the rendezvous connection becomes the
  // (0, r) data connection.
  for (int i = 1; i < config.np; ++i) {
    Socket conn = accept_for(listener_, handshake, "rank 0 rendezvous");
    wire::Header header;
    mp::Bytes body;
    if (!recv_frame_for(conn, &header, &body, handshake, "rank 0 rendezvous")) {
      throw ConnectionError(
          "rank 0 rendezvous: peer closed before sending its hello");
    }
    if (header.kind != wire::FrameKind::Hello) {
      throw ProtocolError("rank 0 rendezvous: expected a hello frame, got kind " +
                          std::to_string(static_cast<int>(header.kind)));
    }
    const wire::Hello hello = wire::decode_hello(body);
    if (hello.job != config.job) {
      throw ProtocolError("rank 0 rendezvous: hello from job \"" + hello.job +
                          "\" (this job is \"" + config.job + "\")");
    }
    if (hello.np != config.np) {
      throw ProtocolError("rank 0 rendezvous: peer believes np=" +
                          std::to_string(hello.np) + ", this job has np=" +
                          std::to_string(config.np));
    }
    if (hello.rank < 1 || hello.rank >= config.np) {
      throw ProtocolError("rank 0 rendezvous: hello claims world rank " +
                          std::to_string(hello.rank));
    }
    auto& slot = peers_[static_cast<std::size_t>(hello.rank)];
    if (slot != nullptr) {
      throw ProtocolError("rank 0 rendezvous: duplicate hello for rank " +
                          std::to_string(hello.rank));
    }
    slot = std::make_unique<Peer>();
    slot->rank = hello.rank;
    slot->socket = std::move(conn);
    slot->hostname = hello.hostname;
    endpoints[static_cast<std::size_t>(hello.rank)] = hello.endpoint;
    hostnames_[static_cast<std::size_t>(hello.rank)] = hello.hostname;
  }

  // Everyone registered: publish the map.
  wire::Welcome welcome;
  welcome.peers.reserve(static_cast<std::size_t>(config.np));
  for (int r = 0; r < config.np; ++r) {
    welcome.peers.emplace_back(endpoints[static_cast<std::size_t>(r)],
                               hostnames_[static_cast<std::size_t>(r)]);
  }
  const mp::Bytes frame = wire::encode_welcome(welcome);
  for (int r = 1; r < config.np; ++r) {
    send_all(peers_[static_cast<std::size_t>(r)]->socket, frame, nullptr,
             /*bye_ok=*/false, "rank 0 rendezvous");
  }
}

void SocketTransport::wireup_peer(const SocketConfig& config,
                                  const Endpoint& self) {
  const auto handshake = std::chrono::milliseconds(config.handshake_timeout_ms);
  const auto per_attempt = std::chrono::milliseconds(config.connect_timeout_ms);
  const auto backoff = std::chrono::milliseconds(config.dial_backoff_initial_ms);
  const auto backoff_cap = std::chrono::milliseconds(config.dial_backoff_cap_ms);
  // Jitter is a pure function of the rank, so one rank's retry schedule is
  // replayable while a thundering herd of dialers still decorrelates.
  const auto jitter_key = static_cast<std::uint64_t>(config.rank);

  const auto say_hello = [&](Socket& conn, const char* who) {
    wire::Hello hello;
    hello.job = config.job;
    hello.np = config.np;
    hello.rank = config.rank;
    hello.endpoint = self.to_string();
    hello.hostname = config.hostname;
    send_all(conn, wire::encode_hello(hello), nullptr, /*bye_ok=*/false, who);
  };

  // 1. Rendezvous with rank 0 and learn the address map.
  trace::Span dial_span("net.connect", "net");
  Socket to_zero = dial(endpoint_for(config, 0), config.dial_attempts,
                        per_attempt, backoff, "rendezvous dial", backoff_cap,
                        jitter_key);
  say_hello(to_zero, "rendezvous dial");
  wire::Header header;
  mp::Bytes body;
  if (!recv_frame_for(to_zero, &header, &body, handshake, "rendezvous dial")) {
    throw ConnectionError("rendezvous: rank 0 closed before the welcome");
  }
  if (header.kind != wire::FrameKind::Welcome) {
    throw ProtocolError("rendezvous: expected a welcome frame, got kind " +
                        std::to_string(static_cast<int>(header.kind)));
  }
  const wire::Welcome welcome = wire::decode_welcome(body);
  if (welcome.peers.size() != static_cast<std::size_t>(config.np)) {
    throw ProtocolError("rendezvous: welcome lists " +
                        std::to_string(welcome.peers.size()) +
                        " ranks, this job has np=" + std::to_string(config.np));
  }
  for (int r = 0; r < config.np; ++r) {
    if (r != config.rank) {
      hostnames_[static_cast<std::size_t>(r)] =
          welcome.peers[static_cast<std::size_t>(r)].second;
    }
  }
  auto& zero = peers_[0];
  zero = std::make_unique<Peer>();
  zero->rank = 0;
  zero->socket = std::move(to_zero);
  zero->hostname = hostnames_[0];

  // 2. Mesh: dial every rank below us (they are already listening — their
  // hello reached rank 0 before our welcome was sent) ...
  for (int j = 1; j < config.rank; ++j) {
    const Endpoint where =
        Endpoint::parse(welcome.peers[static_cast<std::size_t>(j)].first);
    Socket conn = dial(where, config.dial_attempts, per_attempt, backoff,
                       "mesh dial", backoff_cap, jitter_key);
    say_hello(conn, "mesh dial");
    auto& slot = peers_[static_cast<std::size_t>(j)];
    slot = std::make_unique<Peer>();
    slot->rank = j;
    slot->socket = std::move(conn);
    slot->hostname = hostnames_[static_cast<std::size_t>(j)];
  }

  // 3. ... and accept one connection from every rank above us.
  for (int n = config.rank + 1; n < config.np; ++n) {
    Socket conn = accept_for(listener_, handshake, "mesh accept");
    wire::Header h;
    mp::Bytes b;
    if (!recv_frame_for(conn, &h, &b, handshake, "mesh accept")) {
      throw ConnectionError("mesh accept: peer closed before its hello");
    }
    if (h.kind != wire::FrameKind::Hello) {
      throw ProtocolError("mesh accept: expected a hello frame, got kind " +
                          std::to_string(static_cast<int>(h.kind)));
    }
    const wire::Hello hello = wire::decode_hello(b);
    if (hello.job != config.job || hello.np != config.np) {
      throw ProtocolError("mesh accept: hello from a different job");
    }
    if (hello.rank <= config.rank || hello.rank >= config.np) {
      throw ProtocolError("mesh accept: unexpected world rank " +
                          std::to_string(hello.rank));
    }
    auto& slot = peers_[static_cast<std::size_t>(hello.rank)];
    if (slot != nullptr) {
      throw ProtocolError("mesh accept: duplicate connection from rank " +
                          std::to_string(hello.rank));
    }
    slot = std::make_unique<Peer>();
    slot->rank = hello.rank;
    slot->socket = std::move(conn);
    slot->hostname = hello.hostname;
  }
}

SocketTransport::Peer& SocketTransport::peer_for(int world_rank) {
  if (world_rank < 0 || world_rank >= config_.np) {
    throw InvalidArgument("SocketTransport: rank " +
                          std::to_string(world_rank) + " out of range");
  }
  Peer* peer = peers_[static_cast<std::size_t>(world_rank)].get();
  if (peer == nullptr) {
    throw InvalidArgument("SocketTransport: rank " +
                          std::to_string(world_rank) +
                          " is the local rank, not a peer");
  }
  return *peer;
}

void SocketTransport::bind(mp::Universe& universe) {
  universe_ = &universe;
  for (auto& peer : peers_) {
    if (!peer) continue;
    // Bound sends: if a peer stops draining for this long it is treated as
    // lost, so no writer (and therefore no shutdown) can hang forever.
    set_send_timeout(peer->socket, std::max(config_.linger_ms, 1000));
    peer->writer = std::thread([this, p = peer.get()] { writer_loop(*p); });
    peer->reader = std::thread([this, p = peer.get()] { reader_loop(*p); });
  }
  threads_started_ = true;
  // Install the shm progress engine and start its backstop pump only once
  // the mailbox exists; the socket readers above may already be delivering,
  // which is fine — deliver kicks the engine once it is installed.
  if (shm_) shm_->bind(universe);
}

void SocketTransport::deliver(int dest_world_rank, mp::Envelope envelope) {
  // The socket boundary is a chaos checkpoint: a hostile plan can kill the
  // sending rank right here, mid-collective, the way a real node dies.
  chaos::on_op("net.send");
  Peer& peer = peer_for(dest_world_rank);
  if (peer.dead.load(std::memory_order_acquire)) {
    throw PeerLost("net: rank " + std::to_string(dest_world_rank) +
                   " is gone: " + postmortem());
  }
  wire::DataFrame frame = wire::encode_data(envelope, dest_world_rank);
  if (trace::enabled()) {
    trace::Counter("net.bytes_sent")
        .add(static_cast<double>(frame.head.size() + envelope.size_bytes()));
    trace::Counter("net.frames_sent").add(1.0);
  }
  if (shm_ && shm_->has_peer(dest_world_rank)) {
    // Co-located peer: the whole Data frame goes through the shm ring — one
    // staging copy into shared memory, written by this (the program's) own
    // thread. Every Data frame for this peer takes this path, so the
    // per-source FIFO guarantee is carried by the ring's byte order exactly
    // as the socket's stream order used to carry it.
    shm_->send_data(dest_world_rank, frame);
    return;
  }
  {
    std::lock_guard lock(peer.mutex);
    peer.outbox.push_back(std::move(frame));
  }
  peer.cv.notify_one();
}

void SocketTransport::enqueue_control(Peer& peer, wire::FrameKind kind) {
  wire::DataFrame frame;
  frame.head = wire::encode_header(kind, 0);
  {
    std::lock_guard lock(peer.mutex);
    // Control frames (Abort) overtake queued data: waking a blocked peer
    // must not wait behind a fat payload.
    peer.outbox.push_front(std::move(frame));
  }
  peer.cv.notify_one();
}

void SocketTransport::writer_loop(Peer& peer) {
  trace::Span span("net.writer", "net");
  for (;;) {
    wire::DataFrame frame;
    bool closing = false;
    {
      std::unique_lock lock(peer.mutex);
      peer.cv.wait(lock, [&] { return !peer.outbox.empty() || peer.closing; });
      if (peer.outbox.empty()) {
        closing = true;
      } else {
        frame = std::move(peer.outbox.front());
        peer.outbox.pop_front();
      }
    }
    if (closing) break;
    if (peer.dead.load(std::memory_order_acquire)) continue;  // drain & drop
    try {
      trace::Span send_span("net.send", "net");
      send_span.set_bytes(static_cast<std::int64_t>(
          frame.head.size() + (frame.payload ? frame.payload->size() : 0)));
      send_all(peer.socket, frame.head, frame.payload, /*bye_ok=*/false,
               "net writer");
    } catch (const Error& error) {
      on_peer_lost(peer, error.what());
    }
  }
  // Clean goodbye, then half-close: bytes already written (including the
  // Bye) still reach the peer, and its reader sees an orderly end.
  if (!peer.dead.load(std::memory_order_acquire)) {
    mp::Bytes bye = wire::encode_header(wire::FrameKind::Bye, 0);
    send_all(peer.socket, bye, nullptr, /*bye_ok=*/true, "net writer");
  }
  if (peer.socket.valid()) ::shutdown(peer.socket.fd(), SHUT_WR);
}

void SocketTransport::reader_loop(Peer& peer) {
  // Faults a chaos plan injects at this boundary (delays, reorders, bounded
  // drops inside Mailbox::deliver) must key off the receiving rank's
  // deterministic stream, whichever thread carries them.
  chaos::ActorScope actor(config_.rank);
  const int local = config_.rank;
  try {
    for (;;) {
      wire::Header header;
      mp::Bytes body;
      if (!recv_frame(peer.socket, &header, &body, "net reader")) {
        // Clean EOF. After a Bye (or during our own teardown) this is the
        // normal end of the connection; otherwise the peer vanished.
        if (!peer.saw_bye.load(std::memory_order_acquire) &&
            !shutting_down_.load(std::memory_order_acquire)) {
          on_peer_lost(peer, "net: rank " + std::to_string(peer.rank) +
                                 " closed without a goodbye (crashed?)");
        }
        return;
      }
      switch (header.kind) {
        case wire::FrameKind::Data: {
          mp::Envelope envelope = wire::decode_data(body, local);
          if (trace::enabled()) {
            trace::Counter("net.bytes_recv")
                .add(static_cast<double>(wire::kHeaderBytes + body.size()));
            trace::Counter("net.frames_recv").add(1.0);
          }
          universe_->mailbox(local).deliver(std::move(envelope));
          break;
        }
        case wire::FrameKind::Abort:
          // A peer's job died; wake our blocked receivers. universe_
          // suppresses infinite re-propagation.
          trace::instant("net.remote_abort", "net");
          universe_->abort();
          break;
        case wire::FrameKind::Bye:
          peer.saw_bye.store(true, std::memory_order_release);
          // A clean goodbye also retires the peer's shm channel: later
          // sends to it are silently dropped (the socket writer's
          // drain-and-drop teardown semantics). The peer stopped its ring
          // pump *before* sending this Bye, so no torn record can be left
          // behind by an abandoned producer.
          if (shm_) shm_->mark_peer_closed(peer.rank);
          // Nothing follows a Bye by protocol; exit without waiting for
          // the EOF so two ranks tearing down simultaneously never wait on
          // each other's close.
          return;
        default:
          throw ProtocolError("net reader: unexpected frame kind " +
                              std::to_string(static_cast<int>(header.kind)) +
                              " mid-job");
      }
    }
  } catch (const Error& error) {
    on_peer_lost(peer, error.what());
  }
}

void SocketTransport::on_peer_lost(Peer& peer, const std::string& why) {
  peer.dead.store(true, std::memory_order_release);
  // The socket EOF-without-Bye is the shm backend's death detector too:
  // poison the rings so blocked shm producers/pumps wake and see it.
  if (shm_) shm_->mark_peer_dead(peer.rank);
  {
    std::lock_guard lock(postmortem_mutex_);
    if (postmortem_.empty()) postmortem_ = why;
  }
  if (shutting_down_.load(std::memory_order_acquire)) return;
  trace::instant("net.peer_lost", "net");
  // Turn the loss into a job abort so blocked receives throw instead of
  // waiting for a message that can never arrive.
  if (universe_ != nullptr) universe_->abort();
}

void SocketTransport::propagate_abort() noexcept {
  if (abort_sent_.exchange(true)) return;
  // Poison the shm segments first: a peer blocked inside a ring wait wakes
  // on the doorbell immediately, possibly before its socket reader even
  // sees our Abort frame.
  if (shm_) shm_->local_abort();
  try {
    for (auto& peer : peers_) {
      if (peer && !peer->dead.load(std::memory_order_acquire)) {
        enqueue_control(*peer, wire::FrameKind::Abort);
      }
    }
  } catch (...) {
    // Waking peers is best-effort; the launcher's heartbeat is the backstop.
  }
}

void SocketTransport::shutdown() noexcept {
  if (shutting_down_.exchange(true)) {
    // Second call (e.g. ~SocketTransport after ~Universe already shut us
    // down): everything below already ran to completion.
    return;
  }
  // Stop the shm pump *before* any socket Bye goes out. Order matters: a
  // peer that reads our Bye may abandon a send into our ring mid-record
  // (drain-and-drop), and that is only safe because nothing on our side
  // will ever try to parse the ring again. The segments stay mapped until
  // destruction — the reader threads below still flip channel flags.
  if (shm_) shm_->shutdown();
  // Ask every writer to drain its outbox and say goodbye.
  for (auto& peer : peers_) {
    if (!peer) continue;
    {
      std::lock_guard lock(peer->mutex);
      peer->closing = true;
    }
    peer->cv.notify_all();
  }
  if (threads_started_) {
    // Writers finish within the send-timeout bound; readers exit on the
    // peers' Bye/EOF. A peer that never says goodbye is cut off after the
    // linger budget by shutting the socket down under its reader.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(config_.linger_ms);
    for (auto& peer : peers_) {
      if (!peer) continue;
      if (peer->writer.joinable()) peer->writer.join();
    }
    for (auto& peer : peers_) {
      if (!peer) continue;
      while (peer->reader.joinable() &&
             std::chrono::steady_clock::now() < deadline) {
        // The reader exits on Bye, EOF, or error; poke it once per tick so
        // a straggler is bounded by the deadline, not by the peer.
        if (peer->saw_bye.load(std::memory_order_acquire) ||
            peer->dead.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      peer->socket.shutdown_both();  // unblocks a reader still in recv()
      if (peer->reader.joinable()) peer->reader.join();
    }
  }
  for (auto& peer : peers_) {
    if (peer) peer->socket.close();
  }
  listener_.close();
  if (config_.kind == Endpoint::Kind::Unix && !listen_endpoint_.path.empty()) {
    ::unlink(listen_endpoint_.path.c_str());
  }
}

std::string SocketTransport::postmortem() const {
  {
    std::lock_guard lock(postmortem_mutex_);
    if (!postmortem_.empty()) return postmortem_;
  }
  return shm_ ? shm_->postmortem() : std::string{};
}

void SocketTransport::debug_sever_peer(int peer_rank) {
  peer_for(peer_rank).socket.shutdown_both();
}

}  // namespace pdc::net
