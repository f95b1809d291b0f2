#include "mp/mailbox.hpp"

#include <algorithm>

#include "chaos/chaos.hpp"
#include "support/wait.hpp"
#include "trace/trace.hpp"

namespace pdc::mp {

void Mailbox::deliver(Envelope envelope) {
  // An active chaos plan may hold the delivery back (delays, drop-retries)
  // on the sender's thread, and may ask for the envelope to jump the queue.
  const bool reorder = chaos::on_deliver("mp.deliver");
  if (trace::enabled()) {
    envelope.delivered_at = std::chrono::steady_clock::now();
  }
  {
    std::lock_guard lock(mutex_);
    CommQueue& comm = comms_[envelope.comm_id];
    const int source = envelope.source;
    std::uint64_t seq = comm.next_seq;
    if (reorder && comm.pending > 0) {
      // Overtake other senders' queued traffic but never a message from the
      // same source: MPI's non-overtaking guarantee orders successive sends
      // of one sender (wildcard-tag receives can observe cross-tag order, so
      // the whole per-source stream must stay FIFO), while messages from
      // different senders carry no relative-order promise at all. In
      // sequence-number terms: slot the new envelope just before the
      // earliest other-source item that it is allowed to overtake, i.e. the
      // smallest other-source seq greater than every queued same-source seq.
      std::uint64_t barrier_seq = 0;  // must stay after seqs below this
      if (const auto it = comm.by_source.find(source);
          it != comm.by_source.end() && !it->second.empty()) {
        barrier_seq = it->second.back().seq + 1;
      }
      std::uint64_t target = comm.next_seq;
      bool found = false;
      for (const auto& [src, fifo] : comm.by_source) {
        if (src == source) continue;
        // FIFOs are seq-ascending, so the first qualifying item is the
        // earliest overtakable one in this source's stream.
        const auto jt = std::lower_bound(
            fifo.begin(), fifo.end(), barrier_seq,
            [](const Item& item, std::uint64_t s) { return item.seq < s; });
        if (jt != fifo.end() && jt->seq < target) {
          target = jt->seq;
          found = true;
        }
      }
      if (found) {
        // Shift every queued item at or after the target one slot later.
        // Only other-source items qualify (all same-source seqs are below
        // barrier_seq <= target), so per-source FIFO order is untouched and
        // the new envelope still appends to the tail of its own stream.
        for (auto& [src, fifo] : comm.by_source) {
          for (auto rit = fifo.rbegin();
               rit != fifo.rend() && rit->seq >= target; ++rit) {
            ++rit->seq;
          }
        }
        seq = target;
        ++comm.next_seq;  // bumped items may now reach the old next_seq
      }
    }
    if (seq == comm.next_seq) ++comm.next_seq;
    comm.by_source[source].push_back(Item{std::move(envelope), seq});
    ++comm.pending;
    ++queued_;
    arrivals_.fetch_add(1, std::memory_order_release);
  }
  arrived_.notify_all();
  // Receivers blocked through a transport progress engine sleep on its
  // doorbell, not on arrived_; every delivery must ring it too (this covers
  // socket-reader deliveries and self-sends in mixed shm+socket mode).
  if (ProgressEngine* engine = progress_.load(std::memory_order_acquire)) {
    engine->kick();
  }
}

Mailbox::CommQueue* Mailbox::comm_for(std::uint64_t comm_id) {
  const auto it = comms_.find(comm_id);
  return it == comms_.end() ? nullptr : &it->second;
}

std::optional<Mailbox::Hit> Mailbox::find_match(CommQueue& comm, int source,
                                                int tag, std::size_t* scanned) {
  if (scanned) *scanned = 0;
  if (source != kAnySource) {
    const auto it = comm.by_source.find(source);
    if (it == comm.by_source.end()) return std::nullopt;
    SourceFifo& fifo = it->second;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      if (scanned) ++*scanned;
      if (tag == kAnyTag || fifo[i].envelope.tag == tag) return Hit{&fifo, i};
    }
    return std::nullopt;
  }
  // Wildcard source: the overall arrival-order match is the smallest-seq
  // candidate among each source's earliest tag match.
  std::optional<Hit> best;
  std::uint64_t best_seq = 0;
  for (auto& [src, fifo] : comm.by_source) {
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      if (scanned) ++*scanned;
      if (tag != kAnyTag && fifo[i].envelope.tag != tag) continue;
      if (!best || fifo[i].seq < best_seq) {
        best = Hit{&fifo, i};
        best_seq = fifo[i].seq;
      }
      break;  // later items in this FIFO have larger seqs
    }
  }
  return best;
}

Envelope Mailbox::take(std::uint64_t comm_id, CommQueue& comm, const Hit& hit) {
  SourceFifo& fifo = *hit.fifo;
  Envelope out = std::move(fifo[hit.index].envelope);
  fifo.erase(fifo.begin() + static_cast<std::ptrdiff_t>(hit.index));
  if (fifo.empty()) comm.by_source.erase(out.source);
  --comm.pending;
  if (comm.pending == 0) comms_.erase(comm_id);
  --queued_;
  return out;
}

void Mailbox::record_match(const Envelope& envelope, std::size_t scanned) {
  trace::TraceSession* session = trace::TraceSession::active();
  if (!session) return;
  session->add_counter("mailbox.matched", 1.0);
  session->add_counter("mailbox.scanned", static_cast<double>(scanned));
  // The latency event needs a delivery stamp, which is only taken while a
  // session is active; a message delivered before tracing began has none.
  if (envelope.delivered_at == std::chrono::steady_clock::time_point{}) return;
  trace::TraceEvent event;
  event.name = "mailbox.match_wait";
  event.category = "mp.mailbox";
  event.type = trace::EventType::Complete;
  event.start_us = session->since_start_us(envelope.delivered_at);
  event.duration_us = session->now_us() - event.start_us;
  event.bytes = static_cast<std::int64_t>(envelope.size_bytes());
  session->record(std::move(event));
}

std::optional<Envelope> Mailbox::await_match(
    std::uint64_t comm_id, int source, int tag, Claim claim,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  // With a progress engine installed the blocked receiver must keep pumping
  // the transport, so the wait is a scan → engine->wait loop instead of a
  // spin on arrivals_ and a sleep on arrived_. Lost-wakeup safety: the
  // epoch is sampled while still holding the lock (deliver needs the same
  // lock, so nothing can slip between the failed scan and the sample), and
  // every deliver kicks the engine after enqueueing — engine->wait(seen)
  // returns as soon as the epoch moves past `seen`.
  std::unique_lock lock(mutex_);
  for (;;) {
    if (aborted_) throw Aborted{};
    if (CommQueue* comm = comm_for(comm_id)) {
      std::size_t scanned = 0;
      if (const auto hit = find_match(*comm, source, tag, &scanned)) {
        const Envelope& matched = (*hit->fifo)[hit->index].envelope;
        if (claim == Claim::Peek) return matched;  // shares the payload
        record_match(matched, scanned);
        return take(comm_id, *comm, *hit);
      }
    }
    auto engine_wait = std::chrono::milliseconds(100);
    if (deadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= *deadline) return std::nullopt;
      engine_wait = std::min(
          engine_wait,
          std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - now));
    }
    ProgressEngine* engine = progress_.load(std::memory_order_acquire);
    if (!engine) {
      // Sampled under the lock, like the engine's epoch: whatever could
      // satisfy this scan bumps the word under the same lock, so it moves
      // after this read. Neither the spin nor the sleep on arrived_ (whose
      // predicate is checked under the lock) can miss it.
      const std::uint32_t seen = arrivals_.load(std::memory_order_relaxed);
      const auto moved = [&] {
        return arrivals_.load(std::memory_order_acquire) != seen;
      };
      lock.unlock();
      const bool early = spin_then_yield(moved);
      lock.lock();
      if (!early) {
        if (deadline) {
          arrived_.wait_until(lock, *deadline, moved);
        } else {
          arrived_.wait(lock, moved);
        }
      }
      continue;
    }
    const std::uint64_t seen = engine->epoch();
    lock.unlock();
    engine->wait(seen, engine_wait);
    lock.lock();
  }
}

Envelope Mailbox::receive(std::uint64_t comm_id, int source, int tag) {
  return *await_match(comm_id, source, tag, Claim::Take, std::nullopt);
}

std::optional<Envelope> Mailbox::try_receive(std::uint64_t comm_id, int source,
                                             int tag) {
  // A non-blocking receive never enters engine->wait, so pump once first —
  // otherwise a try_receive spin loop would only see ring traffic at the
  // backstop thread's cadence.
  if (ProgressEngine* engine = progress_.load(std::memory_order_acquire)) {
    engine->poll();
  }
  std::lock_guard lock(mutex_);
  if (aborted_) throw Aborted{};
  CommQueue* comm = comm_for(comm_id);
  if (!comm) return std::nullopt;
  std::size_t scanned = 0;
  const std::optional<Hit> hit = find_match(*comm, source, tag, &scanned);
  if (!hit) return std::nullopt;
  record_match((*hit->fifo)[hit->index].envelope, scanned);
  return take(comm_id, *comm, *hit);
}

std::optional<Envelope> Mailbox::receive_for(std::uint64_t comm_id, int source,
                                             int tag,
                                             std::chrono::milliseconds timeout) {
  return await_match(comm_id, source, tag, Claim::Take,
                     std::chrono::steady_clock::now() + timeout);
}

Status Mailbox::probe(std::uint64_t comm_id, int source, int tag) {
  const Envelope e =
      *await_match(comm_id, source, tag, Claim::Peek, std::nullopt);
  return Status{e.source, e.tag, e.size_bytes()};
}

std::optional<Status> Mailbox::try_probe(std::uint64_t comm_id, int source,
                                         int tag) {
  if (ProgressEngine* engine = progress_.load(std::memory_order_acquire)) {
    engine->poll();
  }
  std::lock_guard lock(mutex_);
  if (aborted_) throw Aborted{};
  CommQueue* comm = comm_for(comm_id);
  if (!comm) return std::nullopt;
  const std::optional<Hit> hit = find_match(*comm, source, tag);
  if (!hit) return std::nullopt;
  const Envelope& e = (*hit->fifo)[hit->index].envelope;
  return Status{e.source, e.tag, e.size_bytes()};
}

std::size_t Mailbox::queued() const {
  std::lock_guard lock(mutex_);
  return queued_;
}

void Mailbox::abort() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
    arrivals_.fetch_add(1, std::memory_order_release);
  }
  arrived_.notify_all();
  if (ProgressEngine* engine = progress_.load(std::memory_order_acquire)) {
    engine->kick();
  }
}

void Mailbox::set_progress(ProgressEngine* engine) noexcept {
  progress_.store(engine, std::memory_order_release);
  // Anyone waiting across the transition sees arrivals_ move, re-evaluates
  // and picks up the new wait protocol.
  {
    std::lock_guard lock(mutex_);
    arrivals_.fetch_add(1, std::memory_order_release);
  }
  arrived_.notify_all();
}

}  // namespace pdc::mp
