// Lab frame encode/decode round-trips, digest semantics, and the hostile-
// input wall: every malformed body must surface as a typed ProtocolError
// before any length prefix can drive an allocation — the same contract
// tests/net/test_wire.cpp pins for the transport frames.

#include <gtest/gtest.h>

#include "lab/protocol.hpp"
#include "net/errors.hpp"

namespace pdc::lab::protocol {
namespace {

using net::ProtocolError;

/// Strip the 12-byte PDCN header off an encoded frame, returning the body
/// (what the matching decode_* consumes).
mp::Bytes body_of(const mp::Bytes& frame) {
  return mp::Bytes(frame.begin() + static_cast<std::ptrdiff_t>(wire::kHeaderBytes),
                   frame.end());
}

Submit example_submit() {
  Submit submit;
  submit.token = "hands-on";
  submit.tenant = "ada";
  submit.kind = JobKind::Exemplar;
  submit.name = "pi";
  submit.np = 4;
  submit.seed = 7;
  submit.source = "";
  return submit;
}

TEST(LabProtocol, SubmitRoundTrips) {
  const Submit submit = example_submit();
  const Submit decoded = decode_submit(body_of(encode_submit(submit)));
  EXPECT_EQ(decoded, submit);
}

TEST(LabProtocol, GradeSubmitRoundTrips) {
  Submit submit = example_submit();
  submit.kind = JobKind::Grade;
  submit.name = "spmd~race#0@np4";  // MutantSpec id travels in `name`
  submit.np = 4;
  submit.seed = 1;                     // the schedule seed base
  submit.source = "k=8 watchdog_ms=500";  // grader options ride in `source`
  const Submit decoded = decode_submit(body_of(encode_submit(submit)));
  EXPECT_EQ(decoded, submit);
  EXPECT_STREQ(job_kind_name(JobKind::Grade), "grade");
}

TEST(LabProtocol, SubmitFrameHeaderIsSubmitKind) {
  const mp::Bytes frame = encode_submit(example_submit());
  ASSERT_GE(frame.size(), wire::kHeaderBytes);
  std::byte raw[wire::kHeaderBytes];
  std::copy(frame.begin(), frame.begin() + wire::kHeaderBytes, raw);
  const wire::Header header = wire::decode_header(raw);
  EXPECT_EQ(header.kind, wire::FrameKind::Submit);
  EXPECT_EQ(header.body_len, frame.size() - wire::kHeaderBytes);
}

TEST(LabProtocol, AcceptRoundTrips) {
  Accept accept;
  accept.job_id = 99;
  accept.queue_position = 3;
  const Accept decoded = decode_accept(body_of(encode_accept(accept)));
  EXPECT_EQ(decoded.job_id, 99u);
  EXPECT_EQ(decoded.queue_position, 3u);
}

TEST(LabProtocol, StatusRoundTrips) {
  Status status;
  status.job_id = 5;
  status.state = JobState::Running;
  status.queue_depth = 17;
  const Status decoded = decode_status(body_of(encode_status(status)));
  EXPECT_EQ(decoded.job_id, 5u);
  EXPECT_EQ(decoded.state, JobState::Running);
  EXPECT_EQ(decoded.queue_depth, 17u);
}

TEST(LabProtocol, ResultRoundTrips) {
  Result result;
  result.job_id = 12;
  result.exit_code = 0;
  result.cached = true;
  result.exec_us = 1234;
  result.output = {"line one", "", "line three"};
  result.error = "";
  const Result decoded = decode_result(body_of(encode_result(result)));
  EXPECT_EQ(decoded, result);
}

TEST(LabProtocol, RejectRoundTrips) {
  Reject reject;
  reject.code = RejectCode::LockedOut;
  reject.reason = "too many bad tokens";
  const Reject decoded = decode_reject(body_of(encode_reject(reject)));
  EXPECT_EQ(decoded.code, RejectCode::LockedOut);
  EXPECT_EQ(decoded.reason, "too many bad tokens");
}

TEST(LabProtocol, StreamingStatusRoundTripsWithOutputLines) {
  Status status;
  status.job_id = 41;
  status.state = JobState::Running;
  status.queue_depth = 2;
  status.output = {"rank 0: pi ~ 3.14", "", "rank 1: done"};
  const Status decoded = decode_status(body_of(encode_status(status)));
  EXPECT_EQ(decoded, status);
}

TEST(LabProtocol, CancelRoundTripsAndCarriesTheCancelKind) {
  Cancel cancel;
  cancel.token = "hands-on";
  cancel.tenant = "ada";
  cancel.job_id = 77;
  const mp::Bytes frame = encode_cancel(cancel);
  std::byte raw[wire::kHeaderBytes];
  std::copy(frame.begin(), frame.begin() + wire::kHeaderBytes, raw);
  EXPECT_EQ(wire::decode_header(raw).kind, wire::FrameKind::Cancel);
  EXPECT_EQ(decode_cancel(body_of(frame)), cancel);
}

TEST(LabProtocol, DispatchRoundTripsTheFullSubmit) {
  Dispatch dispatch;
  dispatch.job_id = 500;
  dispatch.submit = example_submit();
  dispatch.submit.kind = JobKind::Notebook;
  dispatch.submit.source = "print('hello')";
  const mp::Bytes frame = encode_dispatch(dispatch);
  std::byte raw[wire::kHeaderBytes];
  std::copy(frame.begin(), frame.begin() + wire::kHeaderBytes, raw);
  EXPECT_EQ(wire::decode_header(raw).kind, wire::FrameKind::Dispatch);
  EXPECT_EQ(decode_dispatch(body_of(frame)), dispatch);
}

// ---- digest --------------------------------------------------------------

// ---- fit_result ----------------------------------------------------------

TEST(LabProtocol, LinesThatFitStopsAtEitherBudget) {
  const std::vector<std::string> lines = {"ab", "cde", "f"};
  EXPECT_EQ(lines_that_fit(lines, 10, 100), 3u);
  EXPECT_EQ(lines_that_fit(lines, 2, 100), 2u);           // the line budget
  EXPECT_EQ(lines_that_fit(lines, 10, (4 + 2) + (4 + 3)), 2u);  // bytes
  EXPECT_EQ(lines_that_fit(lines, 10, 5), 0u);
}

TEST(LabProtocol, FitResultLeavesAResultThatFitsUntouched) {
  Result result;
  result.output = {"pi ~= 3.14", std::string(kMaxLineBytes, 'x')};
  result.error = std::string(kMaxReasonBytes, 'e');
  const Result before = result;
  fit_result(result);
  EXPECT_EQ(result, before);
}

TEST(LabProtocol, FitResultKeepsTheFrameWithinTheControlClamp) {
  // Every line within its clamp, but 300 of them pass the byte budget;
  // and an error past its clamp.
  Result result;
  result.output.assign(300, std::string(kMaxLineBytes, 'x'));
  result.error = std::string(kMaxReasonBytes + 10, 'e');
  fit_result(result);

  EXPECT_EQ(result.error.size(), kMaxReasonBytes);
  std::size_t bytes = 0;
  for (const std::string& line : result.output) bytes += 4 + line.size();
  EXPECT_LE(bytes, kMaxOutputBytes);
  const std::size_t kept = result.output.size() - 1;
  EXPECT_EQ(result.output.back(),
            "[output truncated: kept " + std::to_string(kept) +
                " of 300 lines, 0 cut to 4096 bytes]");
  // The longest prefix: one more line would leave no room for a marker of
  // up to 128 bytes.
  const std::size_t kept_bytes = kept * (4 + kMaxLineBytes);
  EXPECT_GT(kept_bytes + (4 + kMaxLineBytes) + (4 + 128), kMaxOutputBytes);
  EXPECT_EQ(decode_result(body_of(encode_result(result))), result);
}

TEST(LabDigest, IdenticalSubmissionsShareADigest) {
  EXPECT_EQ(digest(example_submit()), digest(example_submit()));
}

TEST(LabDigest, TokenAndTenantAreExcluded) {
  // Two students running the same patternlet must share one cache entry.
  Submit a = example_submit();
  Submit b = example_submit();
  b.token = "different-token";
  b.tenant = "grace";
  EXPECT_EQ(digest(a), digest(b));
}

TEST(LabDigest, EveryContentFieldIsIncluded) {
  const Submit base = example_submit();
  Submit changed = base;
  changed.kind = JobKind::Patternlet;
  EXPECT_NE(digest(base), digest(changed));
  changed = base;
  changed.name = "drug-design";
  EXPECT_NE(digest(base), digest(changed));
  changed = base;
  changed.np = 8;
  EXPECT_NE(digest(base), digest(changed));
  changed = base;
  changed.seed = 8;
  EXPECT_NE(digest(base), digest(changed));
  changed = base;
  changed.source = "x";
  EXPECT_NE(digest(base), digest(changed));
}

TEST(LabDigest, FieldBoundariesAreLengthPrefixed) {
  // ("ab", "") and ("a", "b") must not collapse to one digest.
  Submit a = example_submit();
  a.name = "ab";
  a.source = "";
  Submit b = example_submit();
  b.name = "a";
  b.source = "b";
  EXPECT_NE(digest(a), digest(b));
}

// ---- hostile bodies ------------------------------------------------------

TEST(LabHostile, TruncatedSubmitBodyThrows) {
  const mp::Bytes body = body_of(encode_submit(example_submit()));
  for (const std::size_t keep : {0u, 1u, 4u, 9u}) {
    const mp::Bytes cut(body.begin(),
                        body.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode_submit(cut), ProtocolError) << keep << " bytes kept";
  }
}

TEST(LabHostile, OversizedSourcePrefixRejectedBeforeAllocation) {
  // A Submit whose source length prefix claims ~1 GiB against a tiny body:
  // the clamp (kMaxSourceBytes) must reject it before any string is sized.
  mp::Bytes body;
  wire::put_string(body, "hands-on");
  wire::put_string(body, "ada");
  wire::put_u16(body, static_cast<std::uint16_t>(JobKind::Notebook));
  wire::put_string(body, "");
  wire::put_i32(body, 1);
  wire::put_u64(body, 0);
  wire::put_u32(body, 1u << 30);  // hostile source length prefix, no bytes
  EXPECT_THROW(decode_submit(body), ProtocolError);
}

TEST(LabHostile, OversizedTokenPrefixRejected) {
  mp::Bytes body;
  wire::put_u32(body, kMaxIdentityBytes + 1);  // token longer than the clamp
  EXPECT_THROW(decode_submit(body), ProtocolError);
}

TEST(LabHostile, UnknownJobKindRejected) {
  // 5 pins the range check to exactly one past JobKind::Grade — a new kind
  // must widen the decoder deliberately, not by accident.
  for (const std::uint16_t raw : {std::uint16_t{5}, std::uint16_t{99}}) {
    mp::Bytes body;
    wire::put_string(body, "hands-on");
    wire::put_string(body, "ada");
    wire::put_u16(body, raw);  // not a JobKind
    EXPECT_THROW(decode_submit(body), ProtocolError) << raw;
  }
}

TEST(LabHostile, TrailingBytesRejected) {
  mp::Bytes body = body_of(encode_submit(example_submit()));
  body.push_back(std::byte{0});
  EXPECT_THROW(decode_submit(body), ProtocolError);
}

TEST(LabHostile, ResultLineCountBeyondClampRejected) {
  mp::Bytes body;
  wire::put_u64(body, 1);   // job id
  wire::put_i32(body, 0);   // exit code
  wire::put_u16(body, 0);   // cached
  wire::put_u64(body, 0);   // exec_us
  wire::put_string(body, "");  // error
  wire::put_u32(body, kMaxOutputLines + 1);
  EXPECT_THROW(decode_result(body), ProtocolError);
}

TEST(LabHostile, ResultLineCountBeyondBodyRejectedBeforeReserve) {
  mp::Bytes body;
  wire::put_u64(body, 1);
  wire::put_i32(body, 0);
  wire::put_u16(body, 0);
  wire::put_u64(body, 0);
  wire::put_string(body, "");
  wire::put_u32(body, 4000);  // within the line clamp, not within the body
  EXPECT_THROW(decode_result(body), ProtocolError);
}

TEST(LabHostile, ResultCachedFlagOtherThanZeroOrOneRejected) {
  Result result;
  result.cached = true;
  mp::Bytes body = body_of(encode_result(result));
  body[12] = std::byte{2};  // the u16 flag after job_id and exit_code
  EXPECT_THROW(decode_result(body), ProtocolError);
}

TEST(LabHostile, UnknownJobStateRejected) {
  mp::Bytes body;
  wire::put_u64(body, 1);
  wire::put_u16(body, 42);  // not a JobState
  wire::put_u32(body, 0);
  EXPECT_THROW(decode_status(body), ProtocolError);
}

TEST(LabHostile, UnknownRejectCodeRejected) {
  mp::Bytes body;
  wire::put_u16(body, 0);  // below BadToken
  wire::put_string(body, "");
  EXPECT_THROW(decode_reject(body), ProtocolError);
}

TEST(LabHostile, StatusLineCountBeyondClampRejected) {
  mp::Bytes body;
  wire::put_u64(body, 1);   // job id
  wire::put_u16(body, 2);   // Running
  wire::put_u32(body, 0);   // queue depth
  wire::put_u32(body, kMaxOutputLines + 1);
  EXPECT_THROW(decode_status(body), ProtocolError);
}

TEST(LabHostile, StatusLineCountBeyondBodyRejectedBeforeReserve) {
  mp::Bytes body;
  wire::put_u64(body, 1);
  wire::put_u16(body, 2);
  wire::put_u32(body, 0);
  wire::put_u32(body, 4000);  // within the line clamp, not within the body
  EXPECT_THROW(decode_status(body), ProtocolError);
}

TEST(LabHostile, OversizedCancelTenantPrefixRejected) {
  mp::Bytes body;
  wire::put_string(body, "tok");
  wire::put_u32(body, kMaxIdentityBytes + 1);  // hostile tenant prefix
  EXPECT_THROW(decode_cancel(body), ProtocolError);
}

TEST(LabHostile, TruncatedCancelBodyThrows) {
  mp::Bytes body = body_of(encode_cancel({"tok", "ada", 9}));
  body.resize(body.size() - 3);
  EXPECT_THROW(decode_cancel(body), ProtocolError);
}

TEST(LabHostile, DispatchWithUnknownJobKindRejected) {
  mp::Bytes body;
  wire::put_u64(body, 1);  // job id
  wire::put_string(body, "tok");
  wire::put_string(body, "ada");
  wire::put_u16(body, 9);  // not a JobKind
  EXPECT_THROW(decode_dispatch(body), ProtocolError);
}

// ---- Report frames -------------------------------------------------------

Report example_cohort_report() {
  Report report;
  report.role = ReportRole::Cohort;
  store::CohortReport& a = report.aggregate;
  a.cohort = "ada";
  a.results = 12;
  a.failures = 2;
  a.grades = 5;
  a.verdicts = {{"flaky", 3}, {"pass", 2}};
  a.matched = 15;
  a.explored = 40;
  a.divergence_count = 5;
  a.divergence_mean = 1.25;
  a.divergence_stddev = 0.5;
  a.divergence_min = 0.0;
  a.divergence_max = 2.0;
  a.histogram.assign(store::kReportBins, 0);
  a.histogram[0] = 2;
  a.histogram[1] = 2;
  a.histogram[2] = 1;
  return report;
}

TEST(LabProtocol, ReportQueryRoundTrips) {
  Report query;
  query.role = ReportRole::Query;
  query.token = "hands-on";
  query.tenant = "ada";
  query.aggregate.cohort = "";  // every cohort
  EXPECT_EQ(decode_report(body_of(encode_report(query))), query);
}

TEST(LabProtocol, ReportCohortRoundTripsTheFullAggregate) {
  const Report report = example_cohort_report();
  const Report decoded = decode_report(body_of(encode_report(report)));
  EXPECT_EQ(decoded, report);
  // The doubles travel bit-exact (bit_cast, not text), so the receiving
  // side renders byte-identically to the store that produced them.
  EXPECT_EQ(store::render_report(decoded.aggregate),
            store::render_report(report.aggregate));
}

TEST(LabProtocol, ReportEndRoundTrips) {
  Report end;
  end.role = ReportRole::End;
  EXPECT_EQ(decode_report(body_of(encode_report(end))), end);
}

TEST(LabHostile, ReportWithUnknownRoleRejected) {
  mp::Bytes body = body_of(encode_report(example_cohort_report()));
  body[0] = std::byte{3};  // one past End
  body[1] = std::byte{0};
  EXPECT_THROW(decode_report(body), ProtocolError);
}

TEST(LabHostile, ReportVerdictCountBeyondClampRejected) {
  Report report = example_cohort_report();
  report.aggregate.verdicts.assign(kMaxReportVerdicts + 1, {"v", 1});
  EXPECT_THROW(decode_report(body_of(encode_report(report))), ProtocolError);
}

TEST(LabHostile, ReportBinCountBeyondClampRejected) {
  Report report = example_cohort_report();
  report.aggregate.histogram.assign(kMaxReportBins + 1, 0);
  EXPECT_THROW(decode_report(body_of(encode_report(report))), ProtocolError);
}

TEST(LabHostile, ReportBinCountBeyondBodyRejectedBeforeReserve) {
  // The body ends with the u32 bin count; claim 100 bins (within the
  // clamp) backed by zero bytes of bins.
  Report report = example_cohort_report();
  report.aggregate.histogram.clear();
  mp::Bytes body = body_of(encode_report(report));
  body[body.size() - 4] = std::byte{100};
  body[body.size() - 3] = std::byte{0};
  body[body.size() - 2] = std::byte{0};
  body[body.size() - 1] = std::byte{0};
  EXPECT_THROW(decode_report(body), ProtocolError);
}

TEST(LabHostile, TruncatedReportBodyThrows) {
  mp::Bytes body = body_of(encode_report(example_cohort_report()));
  body.resize(body.size() - 3);
  EXPECT_THROW(decode_report(body), ProtocolError);
}

TEST(LabHostile, ReportTrailingBytesRejected) {
  mp::Bytes body = body_of(encode_report(example_cohort_report()));
  body.push_back(std::byte{0});
  EXPECT_THROW(decode_report(body), ProtocolError);
}

}  // namespace
}  // namespace pdc::lab::protocol
