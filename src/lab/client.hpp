#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lab/protocol.hpp"
#include "net/socket.hpp"

namespace pdc::lab {

struct ClientConfig {
  net::Endpoint endpoint;
  /// Dial budget (bounded retry + exponential backoff, like the transport).
  int dial_attempts = 50;
  int connect_timeout_ms = 2000;
  int dial_backoff_initial_ms = 1;
  /// Per-frame receive deadline. A server that stops answering is a typed
  /// ConnectionError, never a hang — the same posture as wireup.
  int reply_timeout_ms = 60000;
};

/// One student's connection to a lab server. Sends Submit/Status frames and
/// demultiplexes the replies: Results may arrive before the Accept of a
/// later submit (or out of submission order across jobs), so frames for
/// jobs the caller has not asked about yet are parked until wait_result().
///
/// Not thread-safe: one Client per session thread, which is how both the
/// load driver and a student terminal use it.
class Client {
 public:
  /// Dial the server. Throws net::ConnectionError when it cannot connect.
  explicit Client(ClientConfig config);

  /// Says Bye (best effort) and closes.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One of the two answers a Submit can get.
  struct Outcome {
    std::optional<protocol::Accept> accept;
    std::optional<protocol::Reject> reject;

    [[nodiscard]] bool accepted() const noexcept { return accept.has_value(); }
  };

  /// Send a Submit and read frames until its Accept or Reject arrives.
  Outcome submit(const protocol::Submit& submit);

  /// Read frames until the Result for `job_id` arrives (instant when it was
  /// already parked). Throws ConnectionError on the reply deadline.
  protocol::Result wait_result(std::uint64_t job_id) {
    return wait_result(job_id, StatusSink{});
  }

  /// Incremental Status frames the server pushes while a job runs.
  using StatusSink = std::function<void(const protocol::Status&)>;

  /// wait_result, forwarding every pushed Status for `job_id` that carries
  /// output lines to `on_status` as it arrives — live output streaming.
  protocol::Result wait_result(std::uint64_t job_id,
                               const StatusSink& on_status);

  /// What a Cancel can get back: the server's Status ack (the cancel took)
  /// or a Reject (unknown/foreign/finished job, bad token, running inline).
  struct CancelOutcome {
    std::optional<protocol::Status> ack;
    std::optional<protocol::Reject> reject;

    [[nodiscard]] bool cancelled() const noexcept { return ack.has_value(); }
  };

  /// Withdraw job `job_id`: dequeue it if still queued, kill its worker
  /// process if running on a shard pool. The terminal exit-130 Result still
  /// arrives (collect it with wait_result).
  CancelOutcome cancel(std::uint64_t job_id, const std::string& token,
                       const std::string& tenant);

  /// Ask the server about `job_id` and wait for its Status reply.
  protocol::Status query_status(std::uint64_t job_id);

  /// What a Report query gets back: the streamed cohort aggregates (empty
  /// when the named cohort has no records... the server answers anyway) or
  /// a Reject (bad token, no store behind the server).
  struct ReportOutcome {
    std::vector<protocol::Report> cohorts;
    std::optional<protocol::Reject> reject;

    [[nodiscard]] bool ok() const noexcept { return !reject.has_value(); }
  };

  /// Query per-cohort aggregates: `cohort` = "" streams every cohort the
  /// store knows, a name streams just that one. Collects Cohort frames
  /// until the End marker.
  ReportOutcome report(const std::string& token, const std::string& tenant,
                       const std::string& cohort);

  /// Send a Bye and shut the connection down. Idempotent.
  void close() noexcept;

 private:
  /// The next frame: parsed out of what the last read already buffered,
  /// else one poll (within the reply deadline) and one recv of whatever the
  /// server has sent. Throws on EOF, deadline, or garbage.
  wire::Header read_frame(mp::Bytes* body);
  /// Park a Result that arrived while waiting for something else.
  void park_result(const mp::Bytes& body);

  ClientConfig config_;
  net::Socket socket_;
  net::FrameReader inbox_;
  bool open_ = false;
  std::map<std::uint64_t, protocol::Result> parked_results_;
  /// Streamed Status pushes that arrived while waiting for something else
  /// (a fast worker's first output batch can beat the Accept onto the
  /// wire); wait_result() replays them to its sink in arrival order.
  std::vector<protocol::Status> parked_statuses_;
};

}  // namespace pdc::lab
