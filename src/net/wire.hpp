#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/message.hpp"

namespace pdc::net::wire {

/// "PDCN", little-endian, first on every frame. A connection that opens
/// with anything else is not speaking this protocol.
inline constexpr std::uint32_t kMagic = 0x4E434450;

/// Bumped on any incompatible layout change; both sides must agree.
inline constexpr std::uint16_t kVersion = 1;

/// Hard clamp on a Data frame body. A length prefix above this is hostile
/// or corrupt and is rejected before it can drive an allocation.
inline constexpr std::uint32_t kMaxBodyBytes = 256u << 20;  // 256 MiB

/// Tighter clamp for every non-Data frame (handshakes carry a few strings,
/// Abort/Bye carry nothing): a hostile rendezvous connection cannot make
/// rank 0 allocate more than this per frame.
inline constexpr std::uint32_t kMaxControlBodyBytes = 1u << 20;  // 1 MiB

/// Clamp on a type name carried in a Data frame.
inline constexpr std::uint32_t kMaxTypeNameBytes = 4096;

/// Clamp on endpoint/hostname/job strings in handshake frames.
inline constexpr std::uint32_t kMaxHandshakeString = 4096;

/// Every frame: | magic u32 | version u16 | kind u16 | body_len u32 | body |.
inline constexpr std::size_t kHeaderBytes = 12;

enum class FrameKind : std::uint16_t {
  Hello = 1,    ///< dialer → acceptor: who am I (wireup)
  Welcome = 2,  ///< rank 0 → peer: the full address/hostname map (wireup)
  Data = 3,     ///< one mp::Envelope
  Abort = 4,    ///< the sending rank's job aborted; wake your receivers
  Bye = 5,      ///< clean goodbye; EOF after this is normal teardown

  // ---- lab service frames (src/lab) — client ↔ pdc::lab::Server --------
  Submit = 6,  ///< client → server: run this patternlet/exemplar/notebook
  Accept = 7,  ///< server → client: admitted; job id + queue position
  Status = 8,  ///< either direction: job-state query (client) / reply;
               ///< server pushes may carry incremental output lines
  Result = 9,  ///< server → client: terminal outcome + captured output
  Reject = 10, ///< server → client: refused (auth, quota, lockout, bad req)
  Cancel = 11, ///< client → server: dequeue or kill an admitted job
  Dispatch = 12, ///< lab server → worker process: execute this job
  Report = 13, ///< client → server: cohort-aggregate query; server → client:
               ///< one streamed per-cohort aggregate (or the end marker)
};

struct Header {
  FrameKind kind = FrameKind::Data;
  std::uint32_t body_len = 0;
};

/// Identity a dialer presents when it connects (and, dialing rank 0 during
/// rendezvous, registers with).
struct Hello {
  std::string job;       ///< launcher-chosen token; all ranks must agree
  int np = 0;            ///< world size the dialer believes in
  int rank = -1;         ///< the dialer's world rank
  std::string endpoint;  ///< where the dialer's own listener accepts
  std::string hostname;  ///< processor name the dialer reports
};

/// Rank 0's reply to a rendezvous Hello: endpoint + hostname per world rank.
struct Welcome {
  std::vector<std::pair<std::string, std::string>> peers;
};

/// A Data frame ready to write: the header + metadata head, then the
/// payload bytes. Kept separate so a fan-out's shared encoded payload is
/// never copied per destination — the writer thread sends head then
/// payload back to back.
struct DataFrame {
  mp::Bytes head;
  mp::SharedPayload payload;  ///< null ⇔ zero-byte message
};

// ---- primitives (append to / read from byte vectors) ---------------------

void put_u16(mp::Bytes& out, std::uint16_t v);
void put_u32(mp::Bytes& out, std::uint32_t v);
void put_u64(mp::Bytes& out, std::uint64_t v);
void put_i32(mp::Bytes& out, std::int32_t v);
void put_string(mp::Bytes& out, std::string_view s);

/// Cursor over a received body; every read validates against the bytes
/// actually present and throws ProtocolError when the frame lies.
class Reader {
 public:
  explicit Reader(const mp::Bytes& bytes) : bytes_(&bytes) {}

  /// A little-endian unsigned integer.
  template <class U>
  U le() {
    need(sizeof(U));
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(static_cast<U>((*bytes_)[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(U);
    return v;
  }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  /// Length-prefixed string, clamped to `max_len`: a view into the body,
  /// valid only while the body outlives the Reader.
  std::string_view string_view(std::uint32_t max_len);
  /// A list's u32 count, checked against `max_count` and against what the
  /// remaining bytes hold at `min_element_bytes` each, before any reserve.
  std::uint32_t count(std::uint32_t max_count, std::size_t min_element_bytes);
  /// The next `n` raw bytes, in place: valid only while the body outlives
  /// the Reader.
  const std::byte* take(std::size_t n);
  /// All remaining bytes (the Data payload tail).
  mp::Bytes rest();
  /// Throws ProtocolError unless the cursor consumed the body exactly.
  void expect_end() const;
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_->size() - pos_;
  }

 private:
  void need(std::size_t n) const;
  const mp::Bytes* bytes_;
  std::size_t pos_ = 0;
};

// ---- frames --------------------------------------------------------------

/// Largest body a frame of `kind` may carry: kMaxBodyBytes for Data,
/// kMaxControlBodyBytes for everything else. Both directions enforce it.
[[nodiscard]] constexpr std::uint32_t body_clamp(FrameKind kind) noexcept {
  return kind == FrameKind::Data ? kMaxBodyBytes : kMaxControlBodyBytes;
}

/// The 12-byte header for a frame with `body_len` body bytes. Throws
/// ProtocolError past body_clamp(kind): a frame we must never emit.
mp::Bytes encode_header(FrameKind kind, std::size_t body_len);

/// Parse and validate a received header: magic, version, kind range and the
/// body-length clamp. Throws ProtocolError with a message naming what was
/// wrong — the error a hostile or mismatched peer produces.
Header decode_header(const std::byte (&raw)[kHeaderBytes]);

// ---- declarative codec ---------------------------------------------------
// Every control body (handshakes, lab frames, store records) is declared
// once, as a Fields<...> list of its members in wire order, each with the
// codec that carries it and so its clamp:
//
//   using AcceptFields = Fields<Field<&Accept::job_id>,
//                               Field<&Accept::queue_position>>;
//
// The templates unroll to straight-line reads and writes. A codec has
// min_size, size(v) (exact bytes; throws ProtocolError for a value its
// decoder would reject), put(w, v) and get(r, v) (reads and validates).
// Encoding sizes first, so no encoder emits what its decoder rejects.

/// Cursor over an encode buffer already sized by size().
class Writer {
 public:
  explicit Writer(std::byte* at) noexcept : at_(at) {}
  template <class U>
  void le(U v) noexcept {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      at_[i] = static_cast<std::byte>(v >> (8 * i));
    }
    at_ += sizeof(U);
  }
  void bytes(std::string_view s) noexcept {
    std::memcpy(at_, s.data(), s.size());
    at_ += s.size();
  }

 private:
  std::byte* at_;
};

/// A `what` of `value` outside [lo, hi]: the decoder's error, or the
/// encoder's refusal when `encoding`.
[[noreturn]] void throw_out_of_range(const char* what, std::uint64_t value,
                                     std::uint64_t lo, std::uint64_t hi,
                                     bool encoding);

/// Writes the 12-byte header; throws if body_len passes body_clamp(kind).
void put_header(Writer& w, FrameKind kind, std::size_t body_len);

/// An integer in 2, 4 or 8 little-endian bytes, or a double as its bits.
template <class V>
struct Fixed {
  static_assert(std::is_arithmetic_v<V> && !std::is_same_v<V, bool> &&
                    (sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8),
                "a bool travels as Enum<false, true>");
  static constexpr std::size_t min_size = sizeof(V);
  using Wire = std::conditional_t<
      sizeof(V) == 2, std::uint16_t,
      std::conditional_t<sizeof(V) == 4, std::uint32_t, std::uint64_t>>;

  static std::size_t size(V) noexcept { return min_size; }
  static void put(Writer& w, V v) noexcept { w.le(std::bit_cast<Wire>(v)); }
  static void get(Reader& r, V& v) { v = std::bit_cast<V>(r.le<Wire>()); }
};

/// A u16-backed enum (or a bool) whose legal values are [Lo, Hi].
template <auto Lo, auto Hi>
struct Enum {
  static constexpr std::size_t min_size = 2;
  static std::size_t size(decltype(Lo) v) {
    return check(static_cast<std::uint16_t>(v), /*encoding=*/true);
  }
  static void put(Writer& w, decltype(Lo) v) noexcept {
    w.le(static_cast<std::uint16_t>(v));
  }
  static void get(Reader& r, decltype(Lo)& v) {
    const std::uint16_t raw = r.u16();
    check(raw, /*encoding=*/false);
    v = static_cast<decltype(Lo)>(raw);
  }
  static std::size_t check(std::uint16_t raw, bool encoding) {
    constexpr auto lo = static_cast<std::uint16_t>(Lo);
    constexpr auto hi = static_cast<std::uint16_t>(Hi);
    if (raw < lo || raw > hi) {
      throw_out_of_range("enum value", raw, lo, hi, encoding);
    }
    return min_size;
  }
};

/// A u32-length-prefixed string of at most Max bytes.
template <std::uint32_t Max>
struct Str {
  static constexpr std::size_t min_size = 4;
  static std::size_t size(const std::string& s) {
    if (s.size() > Max) {
      throw_out_of_range("string length", s.size(), 0, Max, /*encoding=*/true);
    }
    return 4 + s.size();
  }
  static void put(Writer& w, const std::string& s) noexcept {
    w.le(static_cast<std::uint32_t>(s.size()));
    w.bytes(s);
  }
  static void get(Reader& r, std::string& s) { s = r.string_view(Max); }
};

/// A u32-counted list of at most Max elements, each carried by Elem.
template <class Elem, std::uint32_t Max = UINT32_MAX>
struct List {
  static constexpr std::size_t min_size = 4;
  template <class V>
  static std::size_t size(const std::vector<V>& list) {
    if (list.size() > Max) {
      throw_out_of_range("list count", list.size(), 0, Max,
                         /*encoding=*/true);
    }
    std::size_t n = 4;
    for (const V& element : list) n += Elem::size(element);
    return n;
  }
  template <class V>
  static void put(Writer& w, const std::vector<V>& list) noexcept {
    w.le(static_cast<std::uint32_t>(list.size()));
    for (const V& element : list) Elem::put(w, element);
  }
  template <class V>
  static void get(Reader& r, std::vector<V>& list) {
    const std::uint32_t count = r.count(Max, Elem::min_size);
    list.clear();
    list.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Elem::get(r, list.emplace_back());
    }
  }
};

template <class V, class O>
V value_of(V O::*);
template <class V, class O>
O owner_of(V O::*);

/// One member, carried by Codec. Only a scalar may omit its codec: strings,
/// lists and enums name theirs, which is where the clamp is declared.
template <auto Member, class Codec = Fixed<decltype(value_of(Member))>>
struct Field {
  using Owner = decltype(owner_of(Member));
  static constexpr std::size_t min_size = Codec::min_size;
  static std::size_t size(const Owner& o) { return Codec::size(o.*Member); }
  static void put(Writer& w, const Owner& o) noexcept {
    Codec::put(w, o.*Member);
  }
  static void get(Reader& r, Owner& o) { Codec::get(r, o.*Member); }
};

/// A message's field list, in wire order. Itself a codec, so a member (or
/// a list element, a std::pair too) can be carried by its own list.
template <class First, class... Rest>
struct Fields {
  using Owner = typename First::Owner;
  static constexpr std::size_t min_size =
      (First::min_size + ... + Rest::min_size);
  static std::size_t size(const Owner& o) {
    return (First::size(o) + ... + Rest::size(o));
  }
  static void put(Writer& w, const Owner& o) noexcept {
    (First::put(w, o), ..., Rest::put(w, o));
  }
  static void get(Reader& r, Owner& o) {
    (First::get(r, o), ..., Rest::get(r, o));
  }
};

/// The body alone (a store record), in one exact-size buffer.
template <class Schema>
mp::Bytes encode_body(const typename Schema::Owner& value) {
  mp::Bytes out(Schema::size(value));
  Writer w(out.data());
  Schema::put(w, value);
  return out;
}

/// Header and body in one exact-size buffer, ready for send_all.
template <class Schema>
mp::Bytes encode_frame(FrameKind kind, const typename Schema::Owner& value) {
  const std::size_t body_len = Schema::size(value);
  mp::Bytes out(kHeaderBytes + body_len);
  Writer w(out.data());
  put_header(w, kind, body_len);
  Schema::put(w, value);
  return out;
}

/// Decodes a whole body; trailing bytes are a ProtocolError.
template <class Schema>
typename Schema::Owner decode_body(const mp::Bytes& body) {
  Reader r(body);
  typename Schema::Owner value;
  Schema::get(r, value);
  r.expect_end();
  return value;
}

// ---- handshake and data frames --------------------------------------------
// encode_hello/encode_welcome return a whole frame; decode_* take its body.

mp::Bytes encode_hello(const Hello& hello);
Hello decode_hello(const mp::Bytes& body);

mp::Bytes encode_welcome(const Welcome& welcome);
Welcome decode_welcome(const mp::Bytes& body);

/// Frame an envelope for the peer hosting world rank `dest_world_rank`.
/// `envelope.source` stays communicator-local, exactly as Mailbox expects.
DataFrame encode_data(const mp::Envelope& envelope, int dest_world_rank);

/// Rebuild the envelope from a Data body. Validates every length, checks
/// the frame was addressed to `expect_dest_world_rank` (a routing bug
/// otherwise), and interns the type name so Envelope::type_name keeps its
/// static-storage contract.
mp::Envelope decode_data(const mp::Bytes& body, int expect_dest_world_rank);

/// Process-wide intern pool for type names received off the wire. Bounded:
/// after `kInternPoolCap` distinct names, further names collapse to a
/// shared "<remote type>" constant instead of growing without limit under
/// a hostile peer.
inline constexpr std::size_t kInternPoolCap = 1024;
const char* intern_type_name(std::string_view name);

}  // namespace pdc::net::wire
