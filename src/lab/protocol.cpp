#include "lab/protocol.hpp"

#include <algorithm>

namespace pdc::lab::protocol {

using wire::FrameKind;

const char* job_kind_name(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::Patternlet: return "patternlet";
    case JobKind::Exemplar: return "exemplar";
    case JobKind::Notebook: return "notebook";
    case JobKind::Grade: return "grade";
  }
  return "?";
}

const char* reject_code_name(RejectCode code) noexcept {
  switch (code) {
    case RejectCode::BadToken: return "bad-token";
    case RejectCode::LockedOut: return "locked-out";
    case RejectCode::QuotaFull: return "quota-full";
    case RejectCode::BadRequest: return "bad-request";
    case RejectCode::Overloaded: return "overloaded";
    case RejectCode::Shutdown: return "shutdown";
  }
  return "?";
}

namespace {

using wire::Enum;
using wire::Field;
using wire::Fields;
using wire::Fixed;
using wire::List;
using wire::Str;

// One field list per frame body, in wire order. The bytes are the
// protocol: reordering a field or changing a codec breaks every peer.

using SubmitFields =
    Fields<Field<&Submit::token, Identity>, Field<&Submit::tenant, Identity>,
           Field<&Submit::kind, Enum<JobKind::Patternlet, JobKind::Grade>>,
           Field<&Submit::name, Name>, Field<&Submit::np>,
           Field<&Submit::seed>,
           Field<&Submit::source, Str<kMaxSourceBytes>>>;

using AcceptFields =
    Fields<Field<&Accept::job_id>, Field<&Accept::queue_position>>;

using StatusFields =
    Fields<Field<&Status::job_id>,
           Field<&Status::state, Enum<JobState::Unknown, JobState::Done>>,
           Field<&Status::queue_depth>, Field<&Status::output, OutputLines>>;

using ResultFields =
    Fields<Field<&Result::job_id>, Field<&Result::exit_code>,
           Field<&Result::cached, Enum<false, true>>, Field<&Result::exec_us>,
           Field<&Result::error, Reason>, Field<&Result::output, OutputLines>>;

using RejectFields = Fields<
    Field<&Reject::code, Enum<RejectCode::BadToken, RejectCode::Shutdown>>,
    Field<&Reject::reason, Reason>>;

using CancelFields =
    Fields<Field<&Cancel::token, Identity>, Field<&Cancel::tenant, Identity>,
           Field<&Cancel::job_id>>;

using DispatchFields =
    Fields<Field<&Dispatch::job_id>, Field<&Dispatch::submit, SubmitFields>>;

using store::CohortReport;
using VerdictCount = std::pair<std::string, std::uint64_t>;
using VerdictCountFields = Fields<Field<&VerdictCount::first, Name>,
                                  Field<&VerdictCount::second>>;
using CohortReportFields = Fields<
    Field<&CohortReport::cohort, Identity>, Field<&CohortReport::results>,
    Field<&CohortReport::failures>, Field<&CohortReport::grades>,
    Field<&CohortReport::verdicts,
          List<VerdictCountFields, kMaxReportVerdicts>>,
    Field<&CohortReport::matched>, Field<&CohortReport::explored>,
    Field<&CohortReport::divergence_count>,
    Field<&CohortReport::divergence_mean>,
    Field<&CohortReport::divergence_stddev>,
    Field<&CohortReport::divergence_min>, Field<&CohortReport::divergence_max>,
    Field<&CohortReport::histogram,
          List<Fixed<std::uint64_t>, kMaxReportBins>>>;

using ReportFields = Fields<
    Field<&Report::role, Enum<ReportRole::Query, ReportRole::End>>,
    Field<&Report::token, Identity>, Field<&Report::tenant, Identity>,
    Field<&Report::aggregate, CohortReportFields>>;

}  // namespace

// encode_<name>/decode_<name> of the frame kind, struct and list Type.
#define PDC_LAB_FRAME_CODEC(name, Type)                               \
  mp::Bytes encode_##name(const Type& value) {                        \
    return wire::encode_frame<Type##Fields>(FrameKind::Type, value);  \
  }                                                                   \
  Type decode_##name(const mp::Bytes& body) {                         \
    return wire::decode_body<Type##Fields>(body);                     \
  }

PDC_LAB_FRAME_CODEC(submit, Submit)
PDC_LAB_FRAME_CODEC(accept, Accept)
PDC_LAB_FRAME_CODEC(status, Status)
PDC_LAB_FRAME_CODEC(result, Result)
PDC_LAB_FRAME_CODEC(reject, Reject)
PDC_LAB_FRAME_CODEC(cancel, Cancel)
PDC_LAB_FRAME_CODEC(dispatch, Dispatch)
PDC_LAB_FRAME_CODEC(report, Report)

#undef PDC_LAB_FRAME_CODEC

std::size_t lines_that_fit(std::span<const std::string> lines,
                           std::size_t max_lines, std::size_t max_bytes) {
  std::size_t n = 0;
  for (std::size_t bytes = 0; n < lines.size() && n < max_lines; ++n) {
    bytes += 4 + lines[n].size();
    if (bytes > max_bytes) break;
  }
  return n;
}

void fit_result(Result& result) {
  result.error.resize(std::min<std::size_t>(result.error.size(),
                                            kMaxReasonBytes));
  std::vector<std::string>& lines = result.output;
  std::size_t cut = 0;
  for (std::string& line : lines) {
    if (line.size() > kMaxLineBytes) {
      line.resize(kMaxLineBytes);
      ++cut;
    }
  }
  const std::size_t total = lines.size();
  if (cut == 0 &&
      lines_that_fit(lines, kMaxOutputLines, kMaxOutputBytes) == total) {
    return;  // the common case: nothing to cut
  }
  // Leave one line of up to 128 bytes for the marker.
  lines.resize(lines_that_fit(lines, kMaxOutputLines - 1,
                              kMaxOutputBytes - (4 + 128)));
  lines.push_back("[output truncated: kept " + std::to_string(lines.size()) +
                  " of " + std::to_string(total) + " lines, " +
                  std::to_string(cut) + " cut to " +
                  std::to_string(kMaxLineBytes) + " bytes]");
}

Result cancelled_result(std::uint64_t job_id) {
  Result result;
  result.job_id = job_id;
  result.exit_code = 130;
  result.error = "cancelled by tenant";
  return result;
}

Result shutdown_result(std::uint64_t job_id) {
  Result result;
  result.job_id = job_id;
  result.exit_code = 3;
  result.error = "lab server shutting down";
  return result;
}

std::uint64_t digest(const Submit& submit) noexcept {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](const void* data, std::size_t n) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  const auto mix_string = [&](const std::string& s) noexcept {
    const std::uint64_t len = s.size();
    mix(&len, sizeof len);  // length-prefixed so "ab","c" != "a","bc"
    mix(s.data(), s.size());
  };
  const std::uint16_t kind = static_cast<std::uint16_t>(submit.kind);
  mix(&kind, sizeof kind);
  mix_string(submit.name);
  const std::int32_t np = submit.np;
  mix(&np, sizeof np);
  mix(&submit.seed, sizeof submit.seed);
  mix_string(submit.source);
  return h;
}

}  // namespace pdc::lab::protocol
