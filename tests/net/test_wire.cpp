// Wire-protocol unit tests, hostile inputs foremost: truncated frames,
// oversized length prefixes, wrong magic/version/kind — every one must be a
// typed pdc::net error thrown *before* the bad length can drive an
// allocation, never a hang or an OOM.

#include <gtest/gtest.h>

#include <cstring>

#include "mp/codec.hpp"
#include "net/errors.hpp"
#include "net/wire.hpp"

namespace pdc::net::wire {
namespace {

std::byte raw_header[kHeaderBytes];

/// Build a 12-byte header image from scratch (so tests can corrupt any
/// field independently of encode_header's own validation).
const std::byte (&header_image(std::uint32_t magic, std::uint16_t version,
                               std::uint16_t kind,
                               std::uint32_t body_len))[kHeaderBytes] {
  mp::Bytes bytes;
  put_u32(bytes, magic);
  put_u16(bytes, version);
  put_u16(bytes, kind);
  put_u32(bytes, body_len);
  std::memcpy(raw_header, bytes.data(), kHeaderBytes);
  return raw_header;
}

/// The body of a whole handshake frame (what decode_hello/decode_welcome
/// consume), after checking its header.
mp::Bytes body_of(const mp::Bytes& frame, FrameKind kind) {
  const mp::Bytes body(frame.begin() + kHeaderBytes, frame.end());
  EXPECT_EQ(mp::Bytes(frame.begin(), frame.begin() + kHeaderBytes),
            encode_header(kind, body.size()));
  return body;
}

TEST(WireHeader, RoundTrips) {
  const mp::Bytes encoded = encode_header(FrameKind::Data, 123);
  ASSERT_EQ(encoded.size(), kHeaderBytes);
  std::memcpy(raw_header, encoded.data(), kHeaderBytes);
  const Header header = decode_header(raw_header);
  EXPECT_EQ(header.kind, FrameKind::Data);
  EXPECT_EQ(header.body_len, 123u);
}

TEST(WireHeader, RejectsBadMagic) {
  EXPECT_THROW(decode_header(header_image(0xdeadbeef, kVersion, 3, 0)),
               ProtocolError);
}

TEST(WireHeader, RejectsWrongVersion) {
  EXPECT_THROW(
      decode_header(header_image(kMagic, kVersion + 1, 3, 0)),
      ProtocolError);
}

TEST(WireHeader, RejectsUnknownKind) {
  EXPECT_THROW(decode_header(header_image(kMagic, kVersion, 0, 0)),
               ProtocolError);
  // 14 is the first kind past the lab service frames (Report = 13).
  EXPECT_THROW(decode_header(header_image(kMagic, kVersion, 14, 0)),
               ProtocolError);
}

TEST(WireHeader, LabFrameKindsParseAsControlFrames) {
  // The lab service frames (Submit..Report) are control frames: the
  // tight 1 MiB clamp applies, not the 256 MiB Data clamp.
  for (std::uint16_t kind = 6; kind <= 13; ++kind) {
    const Header ok = decode_header(header_image(kMagic, kVersion, kind, 64));
    EXPECT_EQ(static_cast<std::uint16_t>(ok.kind), kind);
    EXPECT_THROW(decode_header(header_image(kMagic, kVersion, kind,
                                            kMaxControlBodyBytes + 1)),
                 ProtocolError);
  }
}

TEST(WireHeader, RejectsOversizedDataBody) {
  // 4 GiB - 1 claimed: must throw, must not allocate.
  EXPECT_THROW(
      decode_header(header_image(kMagic, kVersion, 3, 0xffffffffu)),
      ProtocolError);
  EXPECT_THROW(
      decode_header(header_image(kMagic, kVersion, 3, kMaxBodyBytes + 1)),
      ProtocolError);
}

TEST(WireHeader, ControlFramesHaveTighterClamp) {
  // A Hello claiming a Data-sized body is hostile even though the length
  // itself would be legal for Data.
  EXPECT_THROW(
      decode_header(header_image(kMagic, kVersion, 1, kMaxControlBodyBytes + 1)),
      ProtocolError);
  // At the clamp it parses.
  const Header ok =
      decode_header(header_image(kMagic, kVersion, 1, kMaxControlBodyBytes));
  EXPECT_EQ(ok.body_len, kMaxControlBodyBytes);
}

TEST(WireHeader, RefusesToEmitOversizedFrames) {
  EXPECT_THROW(encode_header(FrameKind::Data,
                             static_cast<std::size_t>(kMaxBodyBytes) + 1),
               ProtocolError);
}

TEST(WireHello, RoundTrips) {
  Hello hello;
  hello.job = "job-42";
  hello.np = 4;
  hello.rank = 2;
  hello.endpoint = "unix:/tmp/x/rank2.sock";
  hello.hostname = "node1";
  const Hello back =
      decode_hello(body_of(encode_hello(hello), FrameKind::Hello));
  EXPECT_EQ(back.job, hello.job);
  EXPECT_EQ(back.np, 4);
  EXPECT_EQ(back.rank, 2);
  EXPECT_EQ(back.endpoint, hello.endpoint);
  EXPECT_EQ(back.hostname, hello.hostname);
}

TEST(WireHello, RejectsTruncatedBody) {
  mp::Bytes body =
      body_of(encode_hello({"job", 4, 1, "unix:/s", "h"}), FrameKind::Hello);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                body.size() / 2, body.size() - 1}) {
    mp::Bytes truncated(body.begin(),
                        body.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_hello(truncated), ProtocolError) << "cut=" << cut;
  }
}

TEST(WireHello, RejectsTrailingGarbage) {
  mp::Bytes body =
      body_of(encode_hello({"job", 4, 1, "unix:/s", "h"}), FrameKind::Hello);
  body.push_back(std::byte{0x5a});
  EXPECT_THROW(decode_hello(body), ProtocolError);
}

TEST(WireHello, RejectsHostileStringLength) {
  // A length prefix far beyond the bytes present (and the clamp).
  mp::Bytes body;
  put_u32(body, 0x7fffffffu);  // job "length"
  body.push_back(std::byte{'x'});
  EXPECT_THROW(decode_hello(body), ProtocolError);
}

TEST(WireWelcome, RoundTrips) {
  Welcome welcome;
  welcome.peers = {{"unix:/a", "h0"}, {"unix:/b", "h1"}, {"tcp:1.2.3.4:5", "h2"}};
  const Welcome back =
      decode_welcome(body_of(encode_welcome(welcome), FrameKind::Welcome));
  ASSERT_EQ(back.peers.size(), 3u);
  EXPECT_EQ(back.peers[2].first, "tcp:1.2.3.4:5");
  EXPECT_EQ(back.peers[1].second, "h1");
}

TEST(WireWelcome, RejectsHostilePeerCount) {
  // Claims a billion peers with four bytes of body: the count must be
  // rejected against remaining bytes before reserve() can act on it.
  mp::Bytes body;
  put_u32(body, 1000000000u);
  EXPECT_THROW(decode_welcome(body), ProtocolError);
}

mp::Envelope sample_envelope() {
  mp::Envelope e;
  e.comm_id = 7;
  e.source = 1;
  e.tag = 42;
  e.type_hash = 0xabcdef;
  e.type_name = "int";
  e.payload = mp::make_payload(mp::Codec<int>::encode(12345));
  return e;
}

TEST(WireData, RoundTrips) {
  const mp::Envelope original = sample_envelope();
  const DataFrame frame = encode_data(original, /*dest=*/3);
  // Reassemble the wire bytes the way the reader sees them: body only.
  mp::Bytes body(frame.head.begin() + kHeaderBytes, frame.head.end());
  body.insert(body.end(), original.payload->begin(), original.payload->end());

  const mp::Envelope back = decode_data(body, /*expect_dest=*/3);
  EXPECT_EQ(back.comm_id, 7u);
  EXPECT_EQ(back.source, 1);
  EXPECT_EQ(back.tag, 42);
  EXPECT_EQ(back.type_hash, 0xabcdefu);
  EXPECT_STREQ(back.type_name, "int");
  ASSERT_NE(back.payload, nullptr);
  EXPECT_EQ(mp::Codec<int>::decode(*back.payload), 12345);
}

TEST(WireData, RoundTripsZeroBytePayload) {
  mp::Envelope original = sample_envelope();
  original.payload = nullptr;
  const DataFrame frame = encode_data(original, 0);
  const mp::Bytes body(frame.head.begin() + kHeaderBytes, frame.head.end());
  const mp::Envelope back = decode_data(body, 0);
  EXPECT_EQ(back.payload, nullptr);
}

TEST(WireData, RejectsMisroutedFrame) {
  const mp::Envelope original = sample_envelope();
  const DataFrame frame = encode_data(original, /*dest=*/3);
  mp::Bytes body(frame.head.begin() + kHeaderBytes, frame.head.end());
  body.insert(body.end(), original.payload->begin(),
              original.payload->end());
  EXPECT_THROW(decode_data(body, /*expect_dest=*/1), ProtocolError);
}

TEST(WireData, RejectsPayloadLengthMismatch) {
  const mp::Envelope original = sample_envelope();
  const DataFrame frame = encode_data(original, 0);
  mp::Bytes body(frame.head.begin() + kHeaderBytes, frame.head.end());
  // Append one byte fewer than the prefix promises.
  body.insert(body.end(), original.payload->begin(),
              original.payload->end() - 1);
  EXPECT_THROW(decode_data(body, 0), ProtocolError);
  // And one byte more.
  mp::Bytes body2(frame.head.begin() + kHeaderBytes, frame.head.end());
  body2.insert(body2.end(), original.payload->begin(),
               original.payload->end());
  body2.push_back(std::byte{0});
  EXPECT_THROW(decode_data(body2, 0), ProtocolError);
}

TEST(WireData, RejectsOversizedTypeName) {
  mp::Bytes body;
  put_i32(body, 0);   // dest
  put_u64(body, 1);   // comm
  put_i32(body, 0);   // source
  put_i32(body, 0);   // tag
  put_u64(body, 0);   // hash
  put_u32(body, kMaxTypeNameBytes + 1);  // hostile type-name length
  EXPECT_THROW(decode_data(body, 0), ProtocolError);
}

TEST(WireIntern, StableAndBounded) {
  const char* a = intern_type_name("net_test::UniqueTypeA");
  const char* b = intern_type_name("net_test::UniqueTypeA");
  EXPECT_EQ(a, b);  // pointer-stable: Envelope::type_name contract
  EXPECT_STREQ(a, "net_test::UniqueTypeA");
  // Flood with distinct names: the pool must stop growing at the cap and
  // collapse the tail instead of letting a hostile peer exhaust memory.
  const char* last = nullptr;
  for (std::size_t i = 0; i < kInternPoolCap + 10; ++i) {
    last = intern_type_name("net_test::Flood" + std::to_string(i));
  }
  EXPECT_STREQ(last, "<remote type>");
}

}  // namespace
}  // namespace pdc::net::wire
