#include "net/wire.hpp"

#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "net/errors.hpp"

namespace pdc::net::wire {

namespace {

template <class U>
void put_le(mp::Bytes& out, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    out.push_back(static_cast<std::byte>(v >> (8 * i)));
  }
}

}  // namespace

void put_u16(mp::Bytes& out, std::uint16_t v) { put_le(out, v); }
void put_u32(mp::Bytes& out, std::uint32_t v) { put_le(out, v); }
void put_u64(mp::Bytes& out, std::uint64_t v) { put_le(out, v); }

void put_i32(mp::Bytes& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_string(mp::Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  for (char c : s) out.push_back(static_cast<std::byte>(c));
}

void Reader::need(std::size_t n) const {
  if (bytes_->size() - pos_ < n) {
    throw ProtocolError("wire: truncated frame body (needed " +
                        std::to_string(n) + " more bytes, " +
                        std::to_string(bytes_->size() - pos_) + " present)");
  }
}

std::string_view Reader::string_view(std::uint32_t max_len) {
  const std::uint32_t len = u32();
  if (len > max_len) {
    throw_out_of_range("string length", len, 0, max_len, /*encoding=*/false);
  }
  // The length is validated against the bytes actually present before it
  // can size anything — a hostile prefix cannot drive an allocation.
  return {reinterpret_cast<const char*>(take(len)), len};
}

const std::byte* Reader::take(std::size_t n) {
  need(n);
  const std::byte* at = bytes_->data() + pos_;
  pos_ += n;
  return at;
}

std::uint32_t Reader::count(std::uint32_t max_count,
                            std::size_t min_element_bytes) {
  const std::uint32_t n = u32();
  if (n > max_count) {
    throw_out_of_range("list count", n, 0, max_count, /*encoding=*/false);
  }
  // Each element costs at least min_element_bytes: a count the remaining
  // bytes cannot hold is a hostile prefix, rejected before any reserve().
  if (n > remaining() / min_element_bytes) {
    throw ProtocolError("wire: list count " + std::to_string(n) +
                        " exceeds what " + std::to_string(remaining()) +
                        " body bytes could hold");
  }
  return n;
}

mp::Bytes Reader::rest() {
  mp::Bytes out(bytes_->begin() + static_cast<std::ptrdiff_t>(pos_),
                bytes_->end());
  pos_ = bytes_->size();
  return out;
}

void Reader::expect_end() const {
  if (pos_ != bytes_->size()) {
    throw ProtocolError("wire: frame body has " +
                        std::to_string(bytes_->size() - pos_) +
                        " trailing bytes");
  }
}

void throw_out_of_range(const char* what, std::uint64_t value,
                        std::uint64_t lo, std::uint64_t hi, bool encoding) {
  throw ProtocolError(std::string("wire: ") +
                      (encoding ? "refusing to encode " : "") + what + " " +
                      std::to_string(value) + " outside its legal range " +
                      std::to_string(lo) + ".." + std::to_string(hi));
}

void put_header(Writer& w, FrameKind kind, std::size_t body_len) {
  if (body_len > body_clamp(kind)) {
    throw_out_of_range("frame body length", body_len, 0, body_clamp(kind),
                       /*encoding=*/true);
  }
  w.le(kMagic);
  w.le(kVersion);
  w.le(static_cast<std::uint16_t>(kind));
  w.le(static_cast<std::uint32_t>(body_len));
}

mp::Bytes encode_header(FrameKind kind, std::size_t body_len) {
  mp::Bytes out(kHeaderBytes);
  Writer w(out.data());
  put_header(w, kind, body_len);
  return out;
}

Header decode_header(const std::byte (&raw)[kHeaderBytes]) {
  mp::Bytes bytes(raw, raw + kHeaderBytes);
  Reader r(bytes);
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) {
    throw ProtocolError("wire: bad magic 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08x", magic);
      return std::string(buf);
    }() + " (peer is not a pdc::net endpoint)");
  }
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    throw ProtocolError("wire: protocol version " + std::to_string(version) +
                        " (this build speaks " + std::to_string(kVersion) +
                        ")");
  }
  Header header;
  Enum<FrameKind::Hello, FrameKind::Report>::get(r, header.kind);
  header.body_len = r.u32();
  if (header.body_len > body_clamp(header.kind)) {
    throw_out_of_range("frame body length", header.body_len, 0,
                       body_clamp(header.kind), /*encoding=*/false);
  }
  return header;
}

namespace {

using Handshake = Str<kMaxHandshakeString>;
using Peer = std::pair<std::string, std::string>;

using HelloFields = Fields<Field<&Hello::job, Handshake>, Field<&Hello::np>,
                           Field<&Hello::rank>,
                           Field<&Hello::endpoint, Handshake>,
                           Field<&Hello::hostname, Handshake>>;

using PeerFields =
    Fields<Field<&Peer::first, Handshake>, Field<&Peer::second, Handshake>>;
using WelcomeFields = Fields<Field<&Welcome::peers, List<PeerFields>>>;

}  // namespace

mp::Bytes encode_hello(const Hello& hello) {
  return encode_frame<HelloFields>(FrameKind::Hello, hello);
}

Hello decode_hello(const mp::Bytes& body) {
  return decode_body<HelloFields>(body);
}

mp::Bytes encode_welcome(const Welcome& welcome) {
  return encode_frame<WelcomeFields>(FrameKind::Welcome, welcome);
}

Welcome decode_welcome(const mp::Bytes& body) {
  return decode_body<WelcomeFields>(body);
}

DataFrame encode_data(const mp::Envelope& envelope, int dest_world_rank) {
  const std::size_t payload_len = envelope.size_bytes();
  const std::string_view name =
      envelope.type_name != nullptr ? envelope.type_name : "";
  // head = header + metadata + payload length prefix; the payload bytes
  // follow on the wire but stay in their shared buffer here. The metadata
  // layout is fixed-width apart from the name — dest(4) comm_id(8)
  // source(4) tag(4) type_hash(8) name(4+len) payload_len(4) — so the head
  // is sized once and filled in place: one allocation per frame, on the
  // per-message hot path of every transport.
  const std::size_t meta_len = 4 + 8 + 4 + 4 + 8 + (4 + name.size()) + 4;
  DataFrame frame;
  frame.head.reserve(kHeaderBytes + meta_len);
  frame.head.resize(kHeaderBytes);
  Writer header(frame.head.data());
  put_header(header, FrameKind::Data, meta_len + payload_len);
  put_i32(frame.head, dest_world_rank);
  put_u64(frame.head, envelope.comm_id);
  put_i32(frame.head, envelope.source);
  put_i32(frame.head, envelope.tag);
  put_u64(frame.head, static_cast<std::uint64_t>(envelope.type_hash));
  put_string(frame.head, name);
  put_u32(frame.head, static_cast<std::uint32_t>(payload_len));
  frame.payload = envelope.payload;
  return frame;
}

mp::Envelope decode_data(const mp::Bytes& body, int expect_dest_world_rank) {
  Reader r(body);
  const std::int32_t dest = r.i32();
  if (dest != expect_dest_world_rank) {
    throw ProtocolError("wire: data frame addressed to world rank " +
                        std::to_string(dest) + " arrived at rank " +
                        std::to_string(expect_dest_world_rank));
  }
  mp::Envelope envelope;
  envelope.comm_id = r.u64();
  envelope.source = r.i32();
  envelope.tag = r.i32();
  envelope.type_hash = static_cast<std::size_t>(r.u64());
  envelope.type_name = intern_type_name(r.string_view(kMaxTypeNameBytes));
  const std::uint32_t payload_len = r.u32();
  if (payload_len != r.remaining()) {
    throw ProtocolError("wire: data payload length " +
                        std::to_string(payload_len) + " disagrees with the " +
                        std::to_string(r.remaining()) +
                        " bytes present in the frame");
  }
  if (payload_len > 0) {
    envelope.payload = mp::make_payload(r.rest());
  }
  return envelope;
}

const char* intern_type_name(std::string_view name) {
  if (name.empty()) return "";
  // A receiver overwhelmingly sees the same few type names back to back, so
  // a small thread-local cache answers the steady state without the global
  // mutex, the temporary std::string, or the hash probe. Interned pointers
  // are stable (node-based set, never erased), so cached entries stay valid.
  struct CachedName {
    std::string name;
    const char* interned = nullptr;
  };
  thread_local CachedName cache[4];
  CachedName& hit = cache[name.size() & 3u];
  if (hit.interned != nullptr && hit.name == name) return hit.interned;

  static std::mutex mutex;
  static std::unordered_set<std::string> pool;
  static const char* const kOverflow = "<remote type>";
  const char* interned = nullptr;
  {
    std::lock_guard lock(mutex);
    if (const auto it = pool.find(std::string(name)); it != pool.end()) {
      interned = it->c_str();
    } else if (pool.size() >= kInternPoolCap) {
      interned = kOverflow;
    } else {
      interned = pool.emplace(name).first->c_str();
    }
  }
  hit.name.assign(name);
  hit.interned = interned;
  return interned;
}

}  // namespace pdc::net::wire
