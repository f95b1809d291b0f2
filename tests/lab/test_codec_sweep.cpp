// Codec sweep over every control message: the eight lab frames, the PDCN
// Hello/Welcome handshakes and the store's two record bodies. One typed
// suite walks the type list below and holds each type to the same
// properties:
//   - the pinned golden bytes decode, and re-encoding gives the same bytes
//     (the sample value also encodes to them);
//   - every proper prefix of the body throws net::ProtocolError, and so
//     does one trailing byte;
//   - each length or count field inflated to 0xFFFFFFFF throws before
//     anything is sized from it (a counting operator new watches);
//   - a value one past any of its clamps is refused by the encoder.
// The golden bytes are the protocol: they must never change by accident.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "lab/protocol.hpp"
#include "net/errors.hpp"
#include "net/wire.hpp"
#include "store/store.hpp"

// ---- allocation watch ----------------------------------------------------
// The largest single operator-new request made while armed. A decoder that
// sizes anything from a hostile prefix asks for gigabytes here.

namespace {
bool g_watch_armed = false;
std::size_t g_largest_request = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_watch_armed && size > g_largest_request) g_largest_request = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, a delete's free() meets the pointer
// from a new-expression, and GCC reports the pair as mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pdc::lab::protocol {
namespace {

using net::ProtocolError;
using wire::FrameKind;

mp::Bytes from_hex(const std::string& hex) {
  mp::Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::byte>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string to_hex(const mp::Bytes& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out += kDigits[static_cast<unsigned>(b) >> 4];
    out += kDigits[static_cast<unsigned>(b) & 0xf];
  }
  return out;
}

/// The body of a frame the lab encoders return whole, after checking its
/// header names `kind` and the body's exact length.
mp::Bytes body_of(const mp::Bytes& frame, FrameKind kind) {
  EXPECT_GE(frame.size(), wire::kHeaderBytes);
  const mp::Bytes body(frame.begin() + wire::kHeaderBytes, frame.end());
  EXPECT_EQ(mp::Bytes(frame.begin(), frame.begin() + wire::kHeaderBytes),
            wire::encode_header(kind, body.size()));
  return body;
}

template <class T>
using Mutators = std::vector<std::function<void(T&)>>;

std::string over(std::uint32_t clamp) { return std::string(clamp + 1, 'x'); }

Submit sample_submit() {
  return {"tok", "ada", JobKind::Exemplar, "pi", 2, 7, "s"};
}

// ---- one traits struct per message type ----------------------------------
// golden: the body bytes, pinned; lengths: the offsets of every length or
// count field in them; past_clamp: one mutation per clamp or enum bound.

template <class T>
struct Codec;

template <>
struct Codec<Submit> {
  static constexpr const char* golden =
      "03000000746f6b030000006164610200020000007069020000000700000000000000"
      "0100000073";
  static std::vector<std::size_t> lengths() { return {0, 7, 16, 34}; }
  static Submit sample() { return sample_submit(); }
  static mp::Bytes encode(const Submit& v) {
    return body_of(encode_submit(v), FrameKind::Submit);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_submit(b));
  }
  static Mutators<Submit> past_clamp() {
    return {[](Submit& s) { s.token = over(kMaxIdentityBytes); },
            [](Submit& s) { s.tenant = over(kMaxIdentityBytes); },
            [](Submit& s) { s.name = over(kMaxNameBytes); },
            [](Submit& s) { s.source = over(kMaxSourceBytes); },
            [](Submit& s) { s.kind = JobKind{0}; },
            [](Submit& s) { s.kind = JobKind{5}; }};
  }
};

template <>
struct Codec<Accept> {
  static constexpr const char* golden = "2a0000000000000003000000";
  static std::vector<std::size_t> lengths() { return {}; }
  static Accept sample() { return {42, 3}; }
  static mp::Bytes encode(const Accept& v) {
    return body_of(encode_accept(v), FrameKind::Accept);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_accept(b));
  }
  static Mutators<Accept> past_clamp() { return {}; }
};

template <>
struct Codec<Status> {
  static constexpr const char* golden =
      "2a00000000000000020002000000020000000100000061020000006263";
  static std::vector<std::size_t> lengths() { return {14, 18, 23}; }
  static Status sample() { return {42, JobState::Running, 2, {"a", "bc"}}; }
  static mp::Bytes encode(const Status& v) {
    return body_of(encode_status(v), FrameKind::Status);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_status(b));
  }
  static Mutators<Status> past_clamp() {
    return {[](Status& s) { s.state = JobState{4}; },
            [](Status& s) { s.output.assign(kMaxOutputLines + 1, "a"); },
            [](Status& s) { s.output = {over(kMaxLineBytes)}; }};
  }
};

template <>
struct Codec<Result> {
  static constexpr const char* golden =
      "2a000000000000000000000001001a02000000000000040000007761726e02000000"
      "020000007069020000006f6b";
  static std::vector<std::size_t> lengths() { return {22, 30, 34, 40}; }
  static Result sample() { return {42, 0, true, 538, {"pi", "ok"}, "warn"}; }
  static mp::Bytes encode(const Result& v) {
    return body_of(encode_result(v), FrameKind::Result);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_result(b));
  }
  static Mutators<Result> past_clamp() {
    return {[](Result& r) { r.error = over(kMaxReasonBytes); },
            [](Result& r) { r.output.assign(kMaxOutputLines + 1, "a"); },
            [](Result& r) { r.output = {over(kMaxLineBytes)}; },
            // Every line within its clamps, but the frame past 1 MiB.
            [](Result& r) {
              r.output.assign(300, std::string(kMaxLineBytes, 'x'));
            }};
  }
};

template <>
struct Codec<Reject> {
  static constexpr const char* golden = "03000500000071756f7461";
  static std::vector<std::size_t> lengths() { return {2}; }
  static Reject sample() { return {RejectCode::QuotaFull, "quota"}; }
  static mp::Bytes encode(const Reject& v) {
    return body_of(encode_reject(v), FrameKind::Reject);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_reject(b));
  }
  static Mutators<Reject> past_clamp() {
    return {[](Reject& r) { r.code = RejectCode{0}; },
            [](Reject& r) { r.code = RejectCode{7}; },
            [](Reject& r) { r.reason = over(kMaxReasonBytes); }};
  }
};

template <>
struct Codec<Cancel> {
  static constexpr const char* golden =
      "03000000746f6b030000006164612a00000000000000";
  static std::vector<std::size_t> lengths() { return {0, 7}; }
  static Cancel sample() { return {"tok", "ada", 42}; }
  static mp::Bytes encode(const Cancel& v) {
    return body_of(encode_cancel(v), FrameKind::Cancel);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_cancel(b));
  }
  static Mutators<Cancel> past_clamp() {
    return {[](Cancel& c) { c.token = over(kMaxIdentityBytes); },
            [](Cancel& c) { c.tenant = over(kMaxIdentityBytes); }};
  }
};

template <>
struct Codec<Dispatch> {
  static constexpr const char* golden =
      "2a0000000000000003000000746f6b03000000616461020002000000706902000000"
      "07000000000000000100000073";
  static std::vector<std::size_t> lengths() { return {8, 15, 24, 42}; }
  static Dispatch sample() { return {42, sample_submit()}; }
  static mp::Bytes encode(const Dispatch& v) {
    return body_of(encode_dispatch(v), FrameKind::Dispatch);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_dispatch(b));
  }
  static Mutators<Dispatch> past_clamp() {
    return {[](Dispatch& d) { d.submit.token = over(kMaxIdentityBytes); },
            [](Dispatch& d) { d.submit.kind = JobKind{5}; },
            [](Dispatch& d) { d.submit.source = over(kMaxSourceBytes); }};
  }
};

template <>
struct Codec<Report> {
  static constexpr const char* golden =
      "01000000000000000000030000006164610500000000000000010000000000000002"
      "00000000000000010000000400000070617373020000000000000003000000000000"
      "0008000000000000000200000000000000000000000000e03f000000000000d03f00"
      "00000000000000000000000000f03f02000000010000000000000001000000000000"
      "00";
  static std::vector<std::size_t> lengths() { return {2, 6, 10, 41, 45, 117}; }
  static Report sample() {
    Report report;
    report.role = ReportRole::Cohort;
    store::CohortReport& a = report.aggregate;
    a.cohort = "ada";
    a.results = 5;
    a.failures = 1;
    a.grades = 2;
    a.verdicts = {{"pass", 2}};
    a.matched = 3;
    a.explored = 8;
    a.divergence_count = 2;
    a.divergence_mean = 0.5;
    a.divergence_stddev = 0.25;
    a.divergence_min = 0.0;
    a.divergence_max = 1.0;
    a.histogram = {1, 1};
    return report;
  }
  static mp::Bytes encode(const Report& v) {
    return body_of(encode_report(v), FrameKind::Report);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(decode_report(b));
  }
  static Mutators<Report> past_clamp() {
    return {[](Report& r) { r.role = ReportRole{3}; },
            [](Report& r) { r.token = over(kMaxIdentityBytes); },
            [](Report& r) { r.tenant = over(kMaxIdentityBytes); },
            [](Report& r) { r.aggregate.cohort = over(kMaxIdentityBytes); },
            [](Report& r) {
              r.aggregate.verdicts.assign(kMaxReportVerdicts + 1, {"v", 1});
            },
            [](Report& r) {
              r.aggregate.verdicts = {{over(kMaxNameBytes), 1}};
            },
            [](Report& r) {
              r.aggregate.histogram.assign(kMaxReportBins + 1, 0);
            }};
  }
};

using net::wire::Hello;
using net::wire::kMaxHandshakeString;
using net::wire::Welcome;

template <>
struct Codec<Hello> {
  static constexpr const char* golden =
      "010000006a030000000100000001000000650100000068";
  static std::vector<std::size_t> lengths() { return {0, 13, 18}; }
  static Hello sample() { return {"j", 3, 1, "e", "h"}; }
  static mp::Bytes encode(const Hello& v) {
    return body_of(wire::encode_hello(v), FrameKind::Hello);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(wire::decode_hello(b));
  }
  static Mutators<Hello> past_clamp() {
    return {[](Hello& h) { h.job = over(kMaxHandshakeString); },
            [](Hello& h) { h.endpoint = over(kMaxHandshakeString); },
            [](Hello& h) { h.hostname = over(kMaxHandshakeString); }};
  }
};

template <>
struct Codec<Welcome> {
  static constexpr const char* golden =
      "02000000020000006530020000006830020000006531020000006831";
  static std::vector<std::size_t> lengths() { return {0, 4, 10, 16, 22}; }
  static Welcome sample() { return {{{"e0", "h0"}, {"e1", "h1"}}}; }
  static mp::Bytes encode(const Welcome& v) {
    return body_of(wire::encode_welcome(v), FrameKind::Welcome);
  }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(wire::decode_welcome(b));
  }
  static Mutators<Welcome> past_clamp() {
    return {[](Welcome& w) { w.peers[0].first = over(kMaxHandshakeString); },
            [](Welcome& w) { w.peers[1].second = over(kMaxHandshakeString); }};
  }
};

template <>
struct Codec<store::ResultRecord> {
  using R = store::ResultRecord;
  static constexpr const char* golden =
      "efcdab89674523010200020000000700000000000000000000001a02000000000000"
      "0300000061646102000000706900000000010000000100000078";
  static std::vector<std::size_t> lengths() { return {34, 41, 47, 51, 55}; }
  static R sample() {
    R record;
    record.digest = 0x0123456789abcdefull;
    record.tenant = "ada";
    record.kind = 2;
    record.name = "pi";
    record.np = 2;
    record.seed = 7;
    record.exit_code = 0;
    record.exec_us = 538;
    record.output = {"x"};
    return record;
  }
  static mp::Bytes encode(const R& v) { return store::encode_result_record(v); }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(store::decode_result_record(b));
  }
  static Mutators<R> past_clamp() {
    return {[](R& r) { r.tenant = over(kMaxIdentityBytes); },
            [](R& r) { r.name = over(kMaxNameBytes); },
            [](R& r) { r.error = over(store::kMaxFieldBytes); },
            [](R& r) { r.output.assign(kMaxOutputLines + 1, "a"); },
            [](R& r) { r.output = {over(kMaxLineBytes)}; }};
  }
};

template <>
struct Codec<store::GradeRecord> {
  using G = store::GradeRecord;
  static constexpr const char* golden =
      "0100000063010000006d010000007306000000436175676874030000000800000000"
      "0000000000f83f0100000064";
  static std::vector<std::size_t> lengths() { return {0, 5, 10, 15, 41}; }
  static G sample() { return {"c", "m", "s", "Caught", 3, 8, 1.5, "d"}; }
  static mp::Bytes encode(const G& v) { return store::encode_grade_record(v); }
  static mp::Bytes round_trip(const mp::Bytes& b) {
    return encode(store::decode_grade_record(b));
  }
  static Mutators<G> past_clamp() {
    const std::string big = over(store::kMaxFieldBytes);
    return {[big](G& g) { g.cohort = big; },
            [big](G& g) { g.mutant = big; },
            [big](G& g) { g.submission = big; },
            [big](G& g) { g.verdict = big; },
            [big](G& g) { g.detail = big; }};
  }
};

// ---- the sweep -----------------------------------------------------------

template <class T>
class CodecSweep : public ::testing::Test {
 protected:
  static mp::Bytes golden() { return from_hex(Codec<T>::golden); }
};

using Messages =
    ::testing::Types<Submit, Accept, Status, Result, Reject, Cancel, Dispatch,
                     Report, Hello, Welcome, store::ResultRecord,
                     store::GradeRecord>;

struct MessageName {
  template <class T>
  static std::string GetName(int index) {
    static const char* const kNames[] = {
        "Submit", "Accept",  "Status", "Result",       "Reject",
        "Cancel", "Dispatch", "Report", "Hello",       "Welcome",
        "ResultRecord", "GradeRecord"};
    return kNames[index];
  }
};

TYPED_TEST_SUITE(CodecSweep, Messages, MessageName);

TYPED_TEST(CodecSweep, GoldenBytesDecodeAndReencodeIdentically) {
  using C = Codec<TypeParam>;
  const mp::Bytes golden = this->golden();
  EXPECT_EQ(to_hex(C::encode(C::sample())), C::golden);
  EXPECT_EQ(to_hex(C::round_trip(golden)), C::golden);
}

TYPED_TEST(CodecSweep, EveryProperPrefixThrows) {
  const mp::Bytes golden = this->golden();
  for (std::size_t keep = 0; keep < golden.size(); ++keep) {
    const mp::Bytes prefix(golden.begin(),
                           golden.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(Codec<TypeParam>::round_trip(prefix), ProtocolError)
        << keep << " of " << golden.size() << " bytes kept";
  }
}

TYPED_TEST(CodecSweep, OneTrailingByteThrows) {
  mp::Bytes body = this->golden();
  body.push_back(std::byte{0});
  EXPECT_THROW(Codec<TypeParam>::round_trip(body), ProtocolError);
}

TYPED_TEST(CodecSweep, InflatedLengthThrowsBeforeAllocating) {
  const mp::Bytes golden = this->golden();
  for (const std::size_t at : Codec<TypeParam>::lengths()) {
    ASSERT_LE(at + 4, golden.size());
    mp::Bytes body = golden;
    for (std::size_t i = 0; i < 4; ++i) body[at + i] = std::byte{0xff};
    g_largest_request = 0;
    g_watch_armed = true;
    bool threw = false;
    try {
      (void)Codec<TypeParam>::round_trip(body);
    } catch (const ProtocolError&) {
      threw = true;
    }
    g_watch_armed = false;
    EXPECT_TRUE(threw) << "length field at offset " << at;
    // The fields before the inflated one are a few bytes each; anything
    // sized from 0xFFFFFFFF would ask for gigabytes.
    EXPECT_LT(g_largest_request, 4096u) << "length field at offset " << at;
  }
}

TYPED_TEST(CodecSweep, OnePastAnyClampIsRefusedByTheEncoder) {
  for (const auto& mutate : Codec<TypeParam>::past_clamp()) {
    TypeParam value = Codec<TypeParam>::sample();
    mutate(value);
    EXPECT_THROW((void)Codec<TypeParam>::encode(value), ProtocolError);
  }
}

}  // namespace
}  // namespace pdc::lab::protocol
