// Hostile-input and failure-path tests at the socket layer: garbage bytes,
// truncated frames, mid-message disconnects, absent peers, strangers at the
// rendezvous. Every case must produce a typed pdc error within a bounded
// time — never a hang, never an unchecked allocation. The abort watchdog
// from the chaos suite enforces "bounded".

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "../chaos/chaos_test_util.hpp"
#include "net/errors.hpp"
#include "net/harness.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace pdc::net {
namespace {

using chaos_test::kWatchdogBudget;
using chaos_test::run_with_watchdog;

/// A connected AF_UNIX stream pair: `ours` uses the pdc::net receive path,
/// `theirs` is the raw fd a hostile peer writes garbage into.
struct Pair {
  Socket ours;
  int theirs = -1;

  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ours = Socket(fds[0]);
    theirs = fds[1];
  }
  ~Pair() {
    if (theirs >= 0) ::close(theirs);
  }
  void write_raw(const void* data, std::size_t n) const {
    ASSERT_EQ(::send(theirs, data, n, 0), static_cast<ssize_t>(n));
  }
  void close_theirs() {
    ::close(theirs);
    theirs = -1;
  }
};

TEST(SocketHostile, GarbageBytesAreProtocolError) {
  Pair pair;
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";  // not a pdc::net peer
  pair.write_raw(garbage, sizeof garbage);
  wire::Header header;
  mp::Bytes body;
  EXPECT_THROW(recv_frame(pair.ours, &header, &body, "test"), ProtocolError);
}

TEST(SocketHostile, CleanEofBetweenFramesReturnsFalse) {
  Pair pair;
  pair.close_theirs();
  wire::Header header;
  mp::Bytes body;
  EXPECT_FALSE(recv_frame(pair.ours, &header, &body, "test"));
}

TEST(SocketHostile, TruncatedHeaderIsPeerLost) {
  Pair pair;
  const mp::Bytes good = wire::encode_header(wire::FrameKind::Bye, 0);
  pair.write_raw(good.data(), 5);  // 5 of 12 header bytes, then EOF
  pair.close_theirs();
  wire::Header header;
  mp::Bytes body;
  EXPECT_THROW(recv_frame(pair.ours, &header, &body, "test"), PeerLost);
}

TEST(SocketHostile, MidMessageDisconnectIsPeerLost) {
  Pair pair;
  // A frame promising 100 body bytes, delivering 10, then vanishing.
  const mp::Bytes header = wire::encode_header(wire::FrameKind::Data, 100);
  pair.write_raw(header.data(), header.size());
  const char partial[10] = {};
  pair.write_raw(partial, sizeof partial);
  pair.close_theirs();
  wire::Header h;
  mp::Bytes body;
  EXPECT_THROW(recv_frame(pair.ours, &h, &body, "test"), PeerLost);
}

TEST(SocketHostile, OversizedLengthPrefixRejectedBeforeAllocation) {
  Pair pair;
  // Hand-build a header claiming a ~4 GiB Data body. decode_header must
  // throw on the clamp; the body allocation must never happen.
  mp::Bytes raw;
  wire::put_u32(raw, wire::kMagic);
  wire::put_u16(raw, wire::kVersion);
  wire::put_u16(raw, 3);  // Data
  wire::put_u32(raw, 0xfffffff0u);
  pair.write_raw(raw.data(), raw.size());
  wire::Header header;
  mp::Bytes body;
  EXPECT_THROW(recv_frame(pair.ours, &header, &body, "test"), ProtocolError);
}

TEST(SocketHostile, HandshakeReadTimesOutAsConnectionError) {
  Pair pair;  // nothing ever arrives
  wire::Header header;
  mp::Bytes body;
  EXPECT_THROW(recv_frame_for(pair.ours, &header, &body,
                              std::chrono::milliseconds(50), "test"),
               ConnectionError);
}

// ---- the incremental frame reader ------------------------------------------

TEST(FrameReader, PartialHeaderStaysBufferedUntilTheRestArrives) {
  Pair pair;
  const mp::Bytes frame = wire::encode_header(wire::FrameKind::Bye, 0);
  FrameReader reader;
  wire::Header header;
  mp::Bytes body;
  pair.write_raw(frame.data(), 5);
  ASSERT_TRUE(reader.fill(pair.ours, "test"));
  EXPECT_FALSE(reader.next(&header, &body));
  EXPECT_TRUE(reader.mid_frame());
  ASSERT_TRUE(reader.fill(pair.ours, "test"));  // nothing ready: no block
  EXPECT_FALSE(reader.next(&header, &body));
  pair.write_raw(frame.data() + 5, frame.size() - 5);
  ASSERT_TRUE(reader.fill(pair.ours, "test"));
  ASSERT_TRUE(reader.next(&header, &body));
  EXPECT_EQ(header.kind, wire::FrameKind::Bye);
  EXPECT_FALSE(reader.mid_frame());
}

TEST(FrameReader, CoalescedFramesComeOutOfOneRead) {
  Pair pair;
  mp::Bytes burst;
  for (std::uint32_t len : {0u, 3u, 9000u}) {  // the last outgrows a chunk
    const mp::Bytes head = wire::encode_header(wire::FrameKind::Status, len);
    burst.insert(burst.end(), head.begin(), head.end());
    burst.insert(burst.end(), len, std::byte{static_cast<unsigned char>(len)});
  }
  pair.write_raw(burst.data(), burst.size());
  FrameReader reader;
  wire::Header header;
  mp::Bytes body;
  std::vector<std::size_t> sizes;
  while (sizes.size() < 3) {
    while (reader.next(&header, &body)) sizes.push_back(body.size());
    if (sizes.size() < 3) {
      ASSERT_TRUE(reader.fill(pair.ours, "test"));
    }
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{0, 3, 9000}));
  EXPECT_EQ(body.back(), std::byte{static_cast<unsigned char>(9000u)});
}

TEST(FrameReader, OversizedLengthIsRejectedAtTheHeader) {
  Pair pair;
  mp::Bytes raw;
  wire::put_u32(raw, wire::kMagic);
  wire::put_u16(raw, wire::kVersion);
  wire::put_u16(raw, 6);  // Submit: a control frame, 1 MiB clamp
  wire::put_u32(raw, 2u << 20);
  pair.write_raw(raw.data(), raw.size());
  FrameReader reader;
  wire::Header header;
  mp::Bytes body;
  ASSERT_TRUE(reader.fill(pair.ours, "test"));
  EXPECT_THROW(reader.next(&header, &body), ProtocolError);
}

TEST(FrameReader, NextForKeepsTheBlockingReadersErrors) {
  {
    Pair pair;  // clean EOF between frames
    pair.close_theirs();
    FrameReader reader;
    wire::Header header;
    mp::Bytes body;
    EXPECT_FALSE(reader.next_for(pair.ours, &header, &body,
                                 std::chrono::milliseconds(1000), "test"));
  }
  {
    Pair pair;  // a frame promising 100 body bytes, delivering 10
    const mp::Bytes head = wire::encode_header(wire::FrameKind::Data, 100);
    pair.write_raw(head.data(), head.size());
    const char partial[10] = {};
    pair.write_raw(partial, sizeof partial);
    pair.close_theirs();
    FrameReader reader;
    wire::Header header;
    mp::Bytes body;
    EXPECT_THROW(reader.next_for(pair.ours, &header, &body,
                                 std::chrono::milliseconds(1000), "test"),
                 PeerLost);
  }
  {
    Pair pair;  // silence
    FrameReader reader;
    wire::Header header;
    mp::Bytes body;
    EXPECT_THROW(reader.next_for(pair.ours, &header, &body,
                                 std::chrono::milliseconds(50), "test"),
                 ConnectionError);
  }
}

TEST(SocketHostile, EndpointParseRejectsGarbage) {
  EXPECT_THROW(Endpoint::parse("carrier-pigeon:/nest"), ProtocolError);
  EXPECT_THROW(Endpoint::parse("tcp:no-port-here"), ProtocolError);
  EXPECT_THROW(Endpoint::parse(""), ProtocolError);
  const Endpoint unix_ep = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::Unix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  const Endpoint tcp_ep = Endpoint::parse("tcp:127.0.0.1:9000");
  EXPECT_EQ(tcp_ep.kind, Endpoint::Kind::Tcp);
  EXPECT_EQ(tcp_ep.port, 9000);
}

// ---- wireup failure paths ------------------------------------------------

SocketConfig quick_config(const std::string& dir, int np, int rank) {
  SocketConfig cfg;
  cfg.kind = Endpoint::Kind::Unix;
  cfg.dir = dir;
  cfg.np = np;
  cfg.rank = rank;
  cfg.job = "hostile-test";
  cfg.dial_attempts = 3;
  cfg.connect_timeout_ms = 100;
  cfg.handshake_timeout_ms = 300;
  cfg.linger_ms = 300;
  return cfg;
}

TEST(SocketWireup, AbsentRendezvousIsBoundedConnectionError) {
  const std::string dir = make_scratch_dir("pdcnet-test");
  // Rank 1 dials a rank 0 that never existed: bounded retries, typed error.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    EXPECT_THROW(SocketTransport transport(quick_config(dir, 2, 1)),
                 ConnectionError);
  }));
  remove_scratch_dir(dir);
}

TEST(SocketWireup, FailedWireupUnlinksOwnListenerSocket) {
  // The shutdown-ordering regression (satellite): a rank that throws
  // during wireup must not leak its listening socket.
  const std::string dir = make_scratch_dir("pdcnet-test");
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    EXPECT_THROW(SocketTransport transport(quick_config(dir, 2, 1)),
                 ConnectionError);
  }));
  struct stat st{};
  EXPECT_NE(::stat((dir + "/rank1.sock").c_str(), &st), 0)
      << "rank 1's listener socket leaked past the wireup failure";
  remove_scratch_dir(dir);
}

TEST(SocketWireup, StrangerJobIsRejectedByRankZero) {
  const std::string dir = make_scratch_dir("pdcnet-test");
  // Rank 0 of job A meets rank 1 of job B: rank 0 must reject the hello
  // (ProtocolError), and rank 1's read of the welcome must fail rather
  // than hang.
  std::thread zero([&] {
    SocketConfig cfg = quick_config(dir, 2, 0);
    cfg.job = "job-A";
    EXPECT_THROW(SocketTransport transport(cfg), ProtocolError);
  });
  std::thread one([&] {
    SocketConfig cfg = quick_config(dir, 2, 1);
    cfg.job = "job-B";
    cfg.dial_attempts = 20;
    EXPECT_THROW(SocketTransport transport(cfg), Error);
  });
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    zero.join();
    one.join();
  }));
  remove_scratch_dir(dir);
}

TEST(SocketWireup, GarbageSpeakerAtRendezvousIsRejected) {
  const std::string dir = make_scratch_dir("pdcnet-test");
  std::thread zero([&] {
    EXPECT_THROW(SocketTransport transport(quick_config(dir, 2, 0)),
                 Error);  // ProtocolError (garbage) or ConnectionError (EOF)
  });
  std::thread stranger([&] {
    Endpoint zero_ep;
    zero_ep.kind = Endpoint::Kind::Unix;
    zero_ep.path = dir + "/rank0.sock";
    Socket conn = dial(zero_ep, 30, std::chrono::milliseconds(100),
                       std::chrono::milliseconds(1), "stranger");
    const char noise[] = "\xde\xad\xbe\xef not a frame";
    (void)::send(conn.fd(), noise, sizeof noise, MSG_NOSIGNAL);
  });
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [&] {
    zero.join();
    stranger.join();
  }));
  remove_scratch_dir(dir);
}

// ---- mid-job death -------------------------------------------------------

TEST(SocketDeath, SeveredPeerUnblocksReceiverWithTypedError) {
  // np=2 over real sockets; rank 0 severs the connection (as if SIGKILLed)
  // while rank 1 is blocked in recv. Rank 1 must observe mp::Aborted via
  // the peer-lost path — not hang — and the whole job must tear down.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [] {
    ClusterOptions options;
    options.np = 2;
    options.linger_ms = 500;
    options.on_wired = [](int rank, SocketTransport& transport) {
      if (rank == 0) transport.debug_sever_peer(1);
    };
    const ClusterResult result =
        run_socket_cluster(options, [](mp::Communicator& comm) {
          if (comm.rank() == 1) {
            (void)comm.recv<int>(0);  // blocks until the severed socket kills it
          } else {
            // Rank 0 just leaves; its half of the job is already severed.
          }
        });
    EXPECT_FALSE(result.errors[1].empty())
        << "rank 1's blocked recv survived a dead peer";
  }));
}

TEST(SocketDeath, SenderIntoDeadPeerGetsTypedError) {
  // The flip side: once the peer is known dead, a *send* must also fail
  // with a typed error instead of queuing into the void forever.
  ASSERT_TRUE(run_with_watchdog(kWatchdogBudget, [] {
    ClusterOptions options;
    options.np = 2;
    options.linger_ms = 500;
    options.on_wired = [](int rank, SocketTransport& transport) {
      if (rank == 0) transport.debug_sever_peer(1);
    };
    const ClusterResult result =
        run_socket_cluster(options, [](mp::Communicator& comm) {
          if (comm.rank() == 1) {
            // Keep sending until the loss is observed; bounded by the
            // watchdog, typed by the transport.
            for (int i = 0; i < 100000; ++i) comm.send(i, 0);
          }
        });
    EXPECT_FALSE(result.errors[1].empty())
        << "rank 1 kept sending into a dead peer without an error";
  }));
}

}  // namespace
}  // namespace pdc::net
