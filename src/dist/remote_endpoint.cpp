#include "dist/remote_endpoint.hpp"

#include <string>

#include "common/error.hpp"

namespace pac::dist {

RemoteEndpointBase::RemoteEndpointBase(int world_size, int rank,
                                       LinkModel link, FaultPlan faults)
    : Transport(world_size, link, std::move(faults)), rank_(rank) {
  check_rank(rank, "endpoint");
  for (int i = 0; i < world_size; ++i) {
    dead_.push_back(std::make_unique<std::atomic<bool>>(false));
    drained_.push_back(std::make_unique<std::atomic<bool>>(false));
    send_mutex_.push_back(std::make_unique<std::mutex>());
  }
}

void RemoteEndpointBase::flush_deferred(Mailbox& box,
                                        const std::pair<int, int>* key) {
  if (box.deferred.empty()) return;
  if (key != nullptr) {
    auto it = box.deferred.find(*key);
    if (it == box.deferred.end()) return;
    auto& queue = box.queues[*key];
    for (auto& msg : it->second) queue.push_back(std::move(msg));
    box.deferred.erase(it);
    return;
  }
  for (auto& [k, parked] : box.deferred) {
    auto& queue = box.queues[k];
    for (auto& msg : parked) queue.push_back(std::move(msg));
  }
  box.deferred.clear();
}

void RemoteEndpointBase::deposit(Message msg) {
  const int from = msg.source;
  const int tag = msg.tag;
  const bool park = faults_.active() && faults_.defer(from, rank_, tag);
  const auto key = std::make_pair(from, tag);
  {
    std::lock_guard<std::mutex> guard(box_.mutex);
    if (park) {
      box_.deferred[key].push_back(std::move(msg));
    } else {
      flush_deferred(box_, &key);
      box_.queues[key].push_back(std::move(msg));
      flush_deferred(box_, nullptr);
    }
  }
  faults_.message_delivered(from, rank_, tag);
  box_.arrived.notify_all();
}

void RemoteEndpointBase::send(int from, int to, int tag,
                              const quant::QTensor& payload) {
  check_rank(from, "send source");
  check_rank(to, "send destination");
  PAC_CHECK(from == rank_, "endpoint of rank " << rank_
                               << " cannot send as rank " << from);
  if (closed_.load()) {
    throw ChannelClosedError("send on closed transport");
  }
  maybe_inject_death(from);
  if (dead_[static_cast<std::size_t>(from)]->load()) {
    throw PeerDeadError(from, "send from dead rank " + std::to_string(from));
  }
  if (dead_[static_cast<std::size_t>(to)]->load()) {
    throw PeerDeadError(to, "send to dead rank " + std::to_string(to));
  }
  const std::uint64_t bytes = payload.byte_size();
  run_send_faults(from, to, tag, bytes);
  record_send(from, to, bytes);
  if (to == rank_) {
    // Self-send: deposit locally; the deposit advances the fault sequence.
    deposit(Message{from, tag, payload});
    return;
  }
  const auto frame = wire::encode_data(from, tag, payload);
  {
    std::lock_guard<std::mutex> guard(
        *send_mutex_[static_cast<std::size_t>(to)]);
    wire_send(to, frame);
  }
  faults_.message_delivered(from, to, tag);
}

std::optional<Message> RemoteEndpointBase::recv_impl(
    int to, int from, int tag,
    const std::optional<std::chrono::milliseconds>& timeout) {
  check_rank(to, "recv destination");
  check_rank(from, "recv source");
  PAC_CHECK(to == rank_, "endpoint of rank " << rank_
                             << " cannot recv as rank " << to);
  maybe_inject_death(to);
  std::unique_lock<std::mutex> lock(box_.mutex);
  const auto key = std::make_pair(from, tag);
  const auto ready = [&] {
    if (closed_.load()) return true;
    flush_deferred(box_, &key);
    auto it = box_.queues.find(key);
    if (it != box_.queues.end() && !it->second.empty()) return true;
    // A dead peer unblocks the receiver only once the inbound wire has
    // quiesced, so messages already on the wire keep drain semantics.
    return dead_[static_cast<std::size_t>(from)]->load() &&
           drained_[static_cast<std::size_t>(from)]->load();
  };
  if (timeout.has_value()) {
    if (!box_.arrived.wait_for(lock, *timeout, ready)) {
      return std::nullopt;
    }
  } else {
    box_.arrived.wait(lock, ready);
  }
  if (closed_.load()) {
    throw ChannelClosedError("recv aborted: transport closed");
  }
  auto it = box_.queues.find(key);
  if (it != box_.queues.end() && !it->second.empty()) {
    Message msg = std::move(it->second.front());
    it->second.pop_front();
    record_recv(from, to, msg.payload.byte_size());
    return msg;
  }
  throw PeerDeadError(from, "recv aborted: rank " + std::to_string(from) +
                                " is dead");
}

void RemoteEndpointBase::handle_frame(wire::Frame frame) {
  switch (frame.type) {
    case wire::FrameType::kData: {
      deposit(Message{frame.src, frame.tag, std::move(frame.payload)});
      break;
    }
    case wire::FrameType::kRankDead:
      mark_dead_local(frame.src);
      break;
    case wire::FrameType::kClose:
      mark_closed_local();
      break;
    case wire::FrameType::kRootDead:
      // Backends that gossip root-death in-band (TCP) intercept this before
      // handle_frame; any other route still lands on the shared recorder so
      // a valid frame is never silently dropped.
      report_root_death(frame.src);
      break;
    case wire::FrameType::kHello:
      throw TransportError("unexpected HELLO frame past the handshake");
    case wire::FrameType::kResync:
      // Resync/ack frames are connection-scoped (TCP intercepts them in its
      // rx loop); one reaching the shared dispatcher is a protocol bug.
      throw TransportError("unexpected RESYNC frame past the handshake");
    default:
      throw TransportError("unhandled frame type " +
                           std::to_string(static_cast<int>(frame.type)));
  }
}

void RemoteEndpointBase::mark_dead_local(int rank) {
  check_rank(rank, "mark_dead_local");
  if (dead_[static_cast<std::size_t>(rank)]->exchange(true)) return;
  wake_all();
}

void RemoteEndpointBase::set_drained(int rank) {
  check_rank(rank, "set_drained");
  if (drained_[static_cast<std::size_t>(rank)]->exchange(true)) return;
  wake_all();
}

bool RemoteEndpointBase::drained(int rank) const {
  return drained_[static_cast<std::size_t>(rank)]->load();
}

void RemoteEndpointBase::mark_closed_local() {
  if (closed_.exchange(true)) return;
  wake_all();
}

void RemoteEndpointBase::wake_all() {
  { std::lock_guard<std::mutex> guard(box_.mutex); }
  box_.arrived.notify_all();
}

void RemoteEndpointBase::close() {
  if (closed_.exchange(true)) {
    return;
  }
  on_close();
  wake_all();
}

void RemoteEndpointBase::close_rank(int rank) {
  check_rank(rank, "close_rank");
  if (dead_[static_cast<std::size_t>(rank)]->exchange(true)) {
    return;
  }
  on_close_rank(rank);
  wake_all();
}

bool RemoteEndpointBase::rank_dead(int rank) const {
  check_rank(rank, "rank_dead");
  return dead_[static_cast<std::size_t>(rank)]->load();
}

}  // namespace pac::dist
