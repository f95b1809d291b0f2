#include "lab/client.hpp"

#include <chrono>

#include "net/errors.hpp"

namespace pdc::lab {

using protocol::Result;
using protocol::Status;

Client::Client(ClientConfig config) : config_(std::move(config)) {
  socket_ = net::dial(config_.endpoint, config_.dial_attempts,
                      std::chrono::milliseconds(config_.connect_timeout_ms),
                      std::chrono::milliseconds(config_.dial_backoff_initial_ms),
                      "lab client");
  open_ = true;
}

Client::~Client() { close(); }

void Client::close() noexcept {
  if (!open_) return;
  open_ = false;
  try {
    const mp::Bytes bye = wire::encode_header(wire::FrameKind::Bye, 0);
    net::send_all(socket_, bye, nullptr, /*bye_ok=*/true, "lab client");
  } catch (...) {
    // Best effort; the server treats a bare EOF as a silent leaver.
  }
  socket_.shutdown_both();
  socket_.close();
}

namespace {

[[noreturn]] void unexpected(const wire::Header& header,
                             const char* waiting_for) {
  throw net::ProtocolError("lab client: unexpected frame kind " +
                           std::to_string(static_cast<int>(header.kind)) +
                           " while waiting for " + waiting_for);
}

}  // namespace

void Client::park_result(const mp::Bytes& body) {
  Result result = protocol::decode_result(body);
  parked_results_[result.job_id] = std::move(result);
}

wire::Header Client::read_frame(mp::Bytes* body) {
  wire::Header header;
  if (!inbox_.next_for(socket_, &header, body,
                       std::chrono::milliseconds(config_.reply_timeout_ms),
                       "lab client")) {
    throw net::PeerLost("lab client: server closed the connection");
  }
  return header;
}

Client::Outcome Client::submit(const protocol::Submit& submit) {
  net::send_all(socket_, protocol::encode_submit(submit), nullptr,
                /*bye_ok=*/false, "lab client");
  // The Accept/Reject for this submit is the next non-Result frame: Results
  // of earlier jobs may land first (a worker beat the admission reply), so
  // park those for wait_result().
  for (;;) {
    mp::Bytes body;
    const wire::Header header = read_frame(&body);
    switch (header.kind) {
      case wire::FrameKind::Accept: {
        Outcome outcome;
        outcome.accept = protocol::decode_accept(body);
        return outcome;
      }
      case wire::FrameKind::Reject: {
        Outcome outcome;
        outcome.reject = protocol::decode_reject(body);
        return outcome;
      }
      case wire::FrameKind::Result:
        park_result(body);
        break;
      case wire::FrameKind::Status: {
        // A fast worker's first streamed batch can beat the Accept onto
        // the wire (the job is queued before the Accept is sent); park it
        // for wait_result()'s sink.
        parked_statuses_.push_back(protocol::decode_status(body));
        break;
      }
      default:
        unexpected(header, "Accept/Reject");
    }
  }
}

Result Client::wait_result(std::uint64_t job_id, const StatusSink& on_status) {
  // Replay (and drop) pushes for this job that landed before the caller
  // asked — they arrived while submit()/cancel() was demultiplexing.
  std::erase_if(parked_statuses_, [&](const Status& status) {
    if (status.job_id != job_id) return false;
    if (on_status && !status.output.empty()) on_status(status);
    return true;
  });
  for (;;) {
    if (const auto it = parked_results_.find(job_id);
        it != parked_results_.end()) {
      Result result = std::move(it->second);
      parked_results_.erase(it);
      return result;
    }
    mp::Bytes body;
    const wire::Header header = read_frame(&body);
    switch (header.kind) {
      case wire::FrameKind::Result:
        park_result(body);
        break;
      case wire::FrameKind::Status: {
        // A pushed output batch for our job goes to the sink; anything else
        // (stale query reply, another job's push) is harmless noise — the
        // terminal Result always carries the complete output.
        if (!on_status) break;
        const Status status = protocol::decode_status(body);
        if (status.job_id == job_id && !status.output.empty()) {
          on_status(status);
        }
        break;
      }
      default:
        unexpected(header, "a Result");
    }
  }
}

Client::CancelOutcome Client::cancel(std::uint64_t job_id,
                                     const std::string& token,
                                     const std::string& tenant) {
  protocol::Cancel frame;
  frame.token = token;
  frame.tenant = tenant;
  frame.job_id = job_id;
  net::send_all(socket_, protocol::encode_cancel(frame), nullptr,
                /*bye_ok=*/false, "lab client");
  // The answer is the first Reject, or the Status ack for this job: an ack
  // is Done with no output lines, which no streamed push ever is.
  for (;;) {
    mp::Bytes body;
    const wire::Header header = read_frame(&body);
    switch (header.kind) {
      case wire::FrameKind::Status: {
        Status status = protocol::decode_status(body);
        if (status.job_id == job_id &&
            status.state == protocol::JobState::Done &&
            status.output.empty()) {
          CancelOutcome outcome;
          outcome.ack = std::move(status);
          return outcome;
        }
        break;  // a streamed push racing the cancel; drop it
      }
      case wire::FrameKind::Reject: {
        CancelOutcome outcome;
        outcome.reject = protocol::decode_reject(body);
        return outcome;
      }
      case wire::FrameKind::Result:
        park_result(body);
        break;
      default:
        unexpected(header, "a Cancel answer");
    }
  }
}

Client::ReportOutcome Client::report(const std::string& token,
                                     const std::string& tenant,
                                     const std::string& cohort) {
  protocol::Report query;
  query.role = protocol::ReportRole::Query;
  query.token = token;
  query.tenant = tenant;
  query.aggregate.cohort = cohort;
  net::send_all(socket_, protocol::encode_report(query), nullptr,
                /*bye_ok=*/false, "lab client");
  ReportOutcome outcome;
  for (;;) {
    mp::Bytes body;
    const wire::Header header = read_frame(&body);
    switch (header.kind) {
      case wire::FrameKind::Report: {
        protocol::Report reply = protocol::decode_report(body);
        if (reply.role == protocol::ReportRole::End) return outcome;
        if (reply.role != protocol::ReportRole::Cohort) {
          throw net::ProtocolError(
              "lab client: server echoed a Report query back");
        }
        outcome.cohorts.push_back(std::move(reply));
        break;
      }
      case wire::FrameKind::Reject: {
        outcome.reject = protocol::decode_reject(body);
        return outcome;
      }
      case wire::FrameKind::Result:
        park_result(body);
        break;
      case wire::FrameKind::Status: {
        parked_statuses_.push_back(protocol::decode_status(body));
        break;
      }
      default:
        unexpected(header, "a Report stream");
    }
  }
}

Status Client::query_status(std::uint64_t job_id) {
  Status query;
  query.job_id = job_id;
  query.state = protocol::JobState::Unknown;
  net::send_all(socket_, protocol::encode_status(query), nullptr,
                /*bye_ok=*/false, "lab client");
  for (;;) {
    mp::Bytes body;
    const wire::Header header = read_frame(&body);
    switch (header.kind) {
      case wire::FrameKind::Status:
        return protocol::decode_status(body);
      case wire::FrameKind::Result:
        park_result(body);
        break;
      default:
        unexpected(header, "a Status reply");
    }
  }
}

}  // namespace pdc::lab
