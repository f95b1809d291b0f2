#include "net/harness.hpp"

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

#include "chaos/chaos.hpp"
#include "mp/universe.hpp"
#include "net/errors.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace pdc::net {

std::string make_scratch_dir(const std::string& prefix) {
  const char* base = std::getenv("TMPDIR");
  std::string templ = (base != nullptr && *base != '\0' ? base : "/tmp");
  if (templ.back() != '/') templ += '/';
  templ += prefix + "XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw ConnectionError("mkdtemp failed for " + templ);
  }
  return std::string(buf.data());
}

void remove_scratch_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

int pick_free_port() {
  Endpoint ephemeral;
  ephemeral.kind = Endpoint::Kind::Tcp;
  ephemeral.host = "127.0.0.1";
  ephemeral.port = 0;
  Socket probe = listen_at(ephemeral, 1);
  return local_endpoint(probe, ephemeral).port;
}

std::vector<std::string> ClusterResult::merged() const {
  std::vector<std::string> all;
  for (const auto& rank_lines : output) {
    all.insert(all.end(), rank_lines.begin(), rank_lines.end());
  }
  return all;
}

ClusterResult run_socket_cluster(
    const ClusterOptions& options,
    const std::function<void(mp::Communicator&)>& program) {
  if (options.np < 1) {
    throw InvalidArgument("run_socket_cluster: np must be >= 1");
  }
  const std::size_t np = static_cast<std::size_t>(options.np);

  const bool unix_mode = options.kind == Endpoint::Kind::Unix;
  const std::string dir = unix_mode ? make_scratch_dir("pdcnet") : "";
  const int port = unix_mode ? 0 : pick_free_port();

  // Shm segment names are derived from the job token and global to the
  // machine; uniquify per cluster so concurrent test binaries (or repeated
  // clusters in one binary) never collide on a leftover segment.
  std::string job = options.job;
  if (options.use_shm) {
    static std::atomic<unsigned> cluster_seq{0};
    job += '-' + std::to_string(static_cast<long>(::getpid())) + '-' +
           std::to_string(cluster_seq.fetch_add(1));
  }

  ClusterResult result;
  result.output.resize(np);
  result.errors.assign(np, "");

  const auto rank_body = [&](int rank) {
    // Same lanes a real pdcrun rank gets: trace events per rank, chaos
    // decisions keyed by world rank.
    trace::PidScope lane(rank, "rank " + std::to_string(rank));
    chaos::ActorScope actor(rank);
    try {
      SocketConfig cfg;
      cfg.kind = options.kind;
      cfg.dir = dir;
      cfg.port = port;
      cfg.np = options.np;
      cfg.rank = rank;
      cfg.job = job;
      cfg.connect_timeout_ms = options.connect_timeout_ms;
      cfg.handshake_timeout_ms = options.handshake_timeout_ms;
      cfg.linger_ms = options.linger_ms;
      cfg.use_shm = options.use_shm;
      cfg.shm_ring_bytes = options.shm_ring_bytes;
      cfg.topology = options.nodes;

      auto transport = std::make_unique<SocketTransport>(cfg);
      mp::Universe universe(options.np, transport->hostnames(), rank);
      SocketTransport* net = transport.get();
      universe.attach_transport(std::move(transport));
      universe.set_topology(net->node_ids());
      if (options.on_output) universe.set_output_sink(options.on_output);
      if (options.on_wired) options.on_wired(rank, *net);

      mp::Communicator comm = mp::Communicator::world(universe, rank);
      try {
        program(comm);
      } catch (const std::exception& error) {
        // Wake the other ranks (and, through the transport, the other
        // universes) exactly as a failing pdcrun rank would.
        result.errors[static_cast<std::size_t>(rank)] = error.what();
        universe.abort();
      }
      result.output[static_cast<std::size_t>(rank)] = universe.log();
    } catch (const std::exception& error) {
      result.errors[static_cast<std::size_t>(rank)] = error.what();
    }
    // ~Universe → transport shutdown → Bye/join before the thread exits.
  };

  std::vector<std::thread> ranks;
  ranks.reserve(np);
  for (int r = 0; r < options.np; ++r) ranks.emplace_back(rank_body, r);
  for (auto& t : ranks) t.join();

  if (unix_mode) remove_scratch_dir(dir);
  return result;
}

}  // namespace pdc::net
