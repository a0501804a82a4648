#include "net/tcp_transport.h"

#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <random>
#include <utility>

#include "common/error.h"
#include "wire/codec.h"

namespace ugc::net {

namespace {

// Engine tokens: peer ids live below 2^32, so the listener gets the space
// above.
constexpr std::uint64_t kListenerToken = std::uint64_t{1} << 32;

// Timer-wheel granularity; also the accept-retry delay after the process
// runs out of descriptors.
constexpr std::uint64_t kTickMs = 10;

// Listen backlog: a thousand workers racing one gridd must queue, not
// bounce (the kernel clamps to somaxconn).
constexpr int kListenBacklog = 1024;

// Per-peer write-queue backpressure cap: a peer that stops draining its
// socket is disconnected once this much is queued for it, instead of
// buffering without bound. Generous — the largest protocol burst is one
// batched proof response per in-flight task. Frames themselves are capped
// at kDefaultMaxFrameSize on both sides (see net/frame.h).
constexpr std::size_t kMaxWriteBuffer = 32u << 20;

// Vectored-write fan-in: at most this many queued frames join one sendmsg.
// Comfortably under IOV_MAX everywhere, and past ~64 frames per syscall the
// batching win has long flattened out.
constexpr std::size_t kMaxWriteIov = 64;

// Frame-pool retention caps: buffers above the capacity cap are freed
// rather than recycled (one giant proof batch must not pin its footprint
// forever), and the pool itself stays bounded.
constexpr std::size_t kFramePoolKeepCapacity = 64 * 1024;
constexpr std::size_t kFramePoolMaxBuffers = 256;

// frames-completed-per-write histogram buckets: 0, 1, 2, 3, 4–7, 8–15, 16+.
std::size_t frames_per_write_bucket(std::size_t frames) {
  if (frames <= 3) {
    return frames;
  }
  if (frames <= 7) {
    return 4;
  }
  return frames <= 15 ? 5 : 6;
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(options),
      engine_(make_event_engine(options.engine)),
      wheel_(kTickMs),
      epoch_(std::chrono::steady_clock::now()),
      read_scratch_(64 * 1024),
      quiescence_estimator_(options.quiescence) {
  io_.engine = engine_->name();
}

TcpTransport::~TcpTransport() = default;

std::uint64_t TcpTransport::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

GridNodeId TcpTransport::add_local(GridNode& node) {
  check(local_ == nullptr,
        "TcpTransport::add_local: one local protocol node per transport "
        "(run a second transport for a second node)");
  const GridNodeId id{next_id_++};
  assign_id(node, id);
  local_ = &node;
  return id;
}

void TcpTransport::listen(const std::string& host, std::uint16_t port) {
  check(!listener_.valid(), "TcpTransport::listen: already listening");
  listener_ = tcp_listen(host, port, kListenBacklog);
  engine_->add(listener_.fd(), kListenerToken, Interest::kRead);
}

std::uint16_t TcpTransport::port() const {
  check(listener_.valid(), "TcpTransport::port: not listening");
  return local_port(listener_);
}

void TcpTransport::require_auth(AuthOptions options) {
  check(!auth_.has_value(), "TcpTransport::require_auth: already required");
  std::uint64_t seed = options.nonce_seed;
  if (seed == 0) {
    // Entropy for the challenge stream: nonces must be unpredictable or the
    // anti-replay property is theater. random_device is the OS pool; the
    // clock xor guards against a degenerate random_device.
    std::random_device device;
    seed = (static_cast<std::uint64_t>(device()) << 32) ^ device() ^
           static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count());
    if (seed == 0) {
      seed = 1;
    }
  }
  nonce_rng_.emplace(seed);
  auth_ = std::move(options);
}

void TcpTransport::use_identity(const auth::WorkerIdentity& identity,
                                std::string agent) {
  identity_ = identity;
  agent_ = std::move(agent);
}

GridNodeId TcpTransport::connect(const std::string& host, std::uint16_t port) {
  Socket socket = tcp_connect(host, port);
  const GridNodeId id{next_id_++};
  adopt_connection(id.value, std::move(socket), false);
  return id;
}

void TcpTransport::accept_pending() {
  for (;;) {
    bool exhausted = false;
    Socket socket = tcp_accept(listener_, &exhausted);
    if (exhausted) {
      // Out of descriptors: the connection stays in the backlog. Park the
      // listener (a level-triggered engine would report it ready on every
      // wait) and try again on the next tick, by when a peer may be gone.
      ++io_.accepts_deferred;
      engine_->modify(listener_.fd(), kListenerToken, Interest::kNone);
      accept_retry_ = wheel_.schedule(now_ms(), kTickMs);
      return;
    }
    if (!socket.valid()) {
      return;
    }
    adopt_connection(next_id_++, std::move(socket), true);
  }
}

void TcpTransport::adopt_connection(std::uint32_t id, Socket socket,
                                    bool accepted) {
  Peer incoming;
  incoming.socket = std::move(socket);
  incoming.accepted = accepted;
  Peer& peer = peers_.emplace(id, std::move(incoming)).first->second;
  engine_->add(peer.socket.fd(), id, Interest::kRead);
  peer.armed = Interest::kRead;
  if (options_.chaos.has_value() && options_.chaos->any()) {
    // One deterministic sampler per connection: the plan seed plus the
    // peer id fully determine every draw this link will ever make.
    peer.chaos = std::make_unique<ChaosLink>(*options_.chaos, id);
    if (accepted && peer.chaos->sample_accept_reset()) {
      ++io_.chaos_accept_resets;
      drop_peer(GridNodeId{id});
      return;
    }
  }
  if (accepted && auth_.has_value()) {
    // Open the handshake: one fresh nonce per connection, burned when the
    // proof arrives — the replay barrier.
    peer.nonce = auth::handshake_nonce(*nonce_rng_);
    HelloChallenge challenge;
    challenge.protocol = kGridProtocol;
    challenge.nonce = peer.nonce;
    queue_control_frame(GridNodeId{id}, peer, Message(std::move(challenge)));
  }
}

Bytes TcpTransport::acquire_frame() {
  if (frame_pool_.empty()) {
    return Bytes();
  }
  Bytes frame = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  return frame;
}

void TcpTransport::release_frame(Bytes frame) {
  if (frame.capacity() == 0 || frame.capacity() > kFramePoolKeepCapacity) {
    return;  // nothing worth keeping, or too big to pin
  }
  frame.clear();
  if (frame_pool_.size() < kFramePoolMaxBuffers) {
    frame_pool_.push_back(std::move(frame));
  }
}

void TcpTransport::finish_enqueue(GridNodeId to, Peer& peer) {
  io_.write_queue_hwm = std::max(io_.write_queue_hwm, peer.write_pending);
  if (peer.write_pending > kMaxWriteBuffer) {
    // The peer stopped draining its socket; cutting it loose beats
    // buffering without bound. Its tasks time out through on_quiescent.
    drop_peer(to);
    return;
  }
  // No immediate write: the peer joins the flush list and the whole burst
  // it is part of goes out in one vectored write just before the next
  // engine wait (flush_pending) — that deferral is where frames-per-write
  // comes from.
  if (!peer.flush_queued) {
    peer.flush_queued = true;
    flush_list_.push_back(to.value);
  }
}

bool TcpTransport::flush_pending() {
  bool progressed = false;
  while (!flush_list_.empty()) {
    flush_scratch_.clear();
    flush_scratch_.swap(flush_list_);
    for (const std::uint32_t raw : flush_scratch_) {
      const auto it = peers_.find(raw);
      if (it == peers_.end()) {
        continue;  // reaped while dirty
      }
      Peer& peer = it->second;
      peer.flush_queued = false;
      if (peer.failed) {
        continue;
      }
      const GridNodeId id{raw};
      progressed |= service_write(id, peer);
      if (!peer.failed) {
        sync_interest(id, peer);
      }
    }
  }
  return progressed;
}

void TcpTransport::enqueue_framed(GridNodeId to, Peer& peer, Bytes framed,
                                  bool control) {
  if (!control && options_.shed_watermark > 0 &&
      peer.write_pending > options_.shed_watermark) {
    // Overload policy: drop whole protocol frames for a backlogged peer
    // rather than queue toward the kill cap — its tasks retry or abort
    // through on_quiescent while the connection (and every other peer's
    // latency) survives. Handshake frames are never shed.
    ++io_.frames_shed;
    release_frame(std::move(framed));
    return;
  }
  if (peer.chaos != nullptr && peer.chaos->delays()) {
    const std::uint64_t now = now_ms();
    const std::uint64_t release = peer.chaos->release_ms(framed.size(), now);
    if (release > now || !peer.delayed.empty()) {
      // Held in flight until its sampled release (FIFO: releases are
      // monotone per link, and nothing may overtake an earlier frame).
      ++io_.chaos_frames_delayed;
      peer.delayed.emplace_back(release, std::move(framed));
      schedule_peer_wakeup(to, peer, release);
      return;
    }
  }
  if (peer.chaos != nullptr && peer.chaos->sample_disconnect()) {
    ++io_.chaos_disconnects;
    drop_peer(to);
    release_frame(std::move(framed));
    return;
  }
  peer.write_pending += framed.size();
  peer.write_queue.push_back(std::move(framed));
  finish_enqueue(to, peer);
}

void TcpTransport::schedule_peer_wakeup(GridNodeId id, Peer& peer,
                                        std::uint64_t at_ms) {
  if (peer.failed) {
    return;
  }
  if (peer.wakeup.has_value()) {
    if (peer.wakeup_at_ms <= at_ms) {
      return;  // already waking at least as early
    }
    if (wheel_.cancel(*peer.wakeup)) {
      peer_timers_.erase(*peer.wakeup);
    }
    peer.wakeup.reset();
  }
  const std::uint64_t now = now_ms();
  const TimerWheel::TimerId timer =
      wheel_.schedule(now, at_ms > now ? at_ms - now : 0);
  peer_timers_.emplace(timer, id.value);
  peer.wakeup = timer;
  peer.wakeup_at_ms = at_ms;
}

bool TcpTransport::service_peer_wakeup(GridNodeId id, Peer& peer) {
  if (peer.failed) {
    return false;
  }
  const std::uint64_t now = now_ms();
  if (options_.evict_stalled_after_ms > 0 && peer.write_stuck_since_ms > 0 &&
      now - peer.write_stuck_since_ms >= options_.evict_stalled_after_ms) {
    // The peer has taken nothing off its socket for the whole window:
    // evict it now instead of waiting for the byte cap — one slow
    // consumer must not hold queue memory and retry budget hostage.
    ++io_.peers_evicted;
    drop_peer(id);
    return true;
  }
  if (peer.stalled_until_ms > 0 && now >= peer.stalled_until_ms) {
    peer.stalled_until_ms = 0;  // stall episode over: resume reading
    sync_interest(id, peer);
  }
  bool appended = false;
  while (!peer.failed && !peer.delayed.empty() &&
         peer.delayed.front().first <= now) {
    Bytes frame = std::move(peer.delayed.front().second);
    peer.delayed.pop_front();
    if (peer.chaos->sample_disconnect()) {
      // The connection dies under a frame in flight.
      ++io_.chaos_disconnects;
      drop_peer(id);
      release_frame(std::move(frame));
      break;
    }
    peer.write_pending += frame.size();
    peer.write_queue.push_back(std::move(frame));
    appended = true;
  }
  if (appended && !peer.failed) {
    finish_enqueue(id, peer);
  }
  if (!peer.failed) {
    std::uint64_t next = 0;
    if (!peer.delayed.empty()) {
      next = peer.delayed.front().first;
    }
    if (peer.stalled_until_ms > now &&
        (next == 0 || peer.stalled_until_ms < next)) {
      next = peer.stalled_until_ms;
    }
    if (options_.evict_stalled_after_ms > 0 && peer.write_stuck_since_ms > 0) {
      const std::uint64_t evict_at =
          peer.write_stuck_since_ms + options_.evict_stalled_after_ms;
      if (next == 0 || evict_at < next) {
        next = evict_at;
      }
    }
    if (next > 0) {
      schedule_peer_wakeup(id, peer, next);
    }
  }
  return appended;
}

bool TcpTransport::chaos_stall_read(GridNodeId id, Peer& peer) {
  if (peer.chaos == nullptr || peer.failed) {
    return false;
  }
  const std::uint64_t now = now_ms();
  if (peer.stalled_until_ms > now) {
    return true;  // still deaf from an earlier draw
  }
  const auto stall = peer.chaos->sample_stall_ms();
  if (!stall.has_value()) {
    return false;
  }
  // Go deaf: park read interest (level-triggered engines would otherwise
  // busy-wake on the buffered bytes) and let the wakeup timer resume.
  ++io_.chaos_read_stalls;
  peer.stalled_until_ms = now + *stall;
  sync_interest(id, peer);
  schedule_peer_wakeup(id, peer, peer.stalled_until_ms);
  return true;
}

std::uint64_t TcpTransport::effective_quiescence_ms() const {
  return quiescence_estimator_.timeout_ms(options_.quiescence_timeout_ms);
}

void TcpTransport::queue_control_frame(GridNodeId to, Peer& peer,
                                       const Message& message) {
  encode_message_into(message, encode_scratch_);
  check(encode_scratch_.size() <= kDefaultMaxFrameSize, "TcpTransport: ",
        encode_scratch_.size(), "-byte handshake frame exceeds the ",
        kDefaultMaxFrameSize, "-byte frame cap");
  Bytes framed = acquire_frame();
  append_frame(encode_scratch_, framed);
  enqueue_framed(to, peer, std::move(framed), true);
}

void TcpTransport::refuse_handshake(GridNodeId from,
                                    auth::HandshakeStatus status,
                                    const auth::AuthInfo& info) {
  ++io_.handshakes_refused;
  if (on_auth_refused) {
    on_auth_refused(from, status, info);
  }
  throw FrameError(concat("handshake refused: ", auth::to_string(status)));
}

void TcpTransport::send(GridNodeId from, GridNodeId to,
                        const Message& message) {
  check(to.value < next_id_, "TcpTransport::send: unknown recipient ",
        to.value);
  const auto it = peers_.find(to.value);
  if (it == peers_.end() || it->second.failed) {
    return;  // peer is gone; the frame is lost, like any in-flight traffic
  }
  encode_message_into(message, encode_scratch_);
  // A message the local stack cannot frame is a local bug, never the
  // recipient's fault: fail loudly instead of letting a FrameError
  // masquerade as a peer violation.
  check(encode_scratch_.size() <= kDefaultMaxFrameSize,
        "TcpTransport::send: ", encode_scratch_.size(),
        "-byte message exceeds the ", kDefaultMaxFrameSize,
        "-byte frame cap");
  stats_.record(from, to, encode_scratch_.size());
  Bytes framed = acquire_frame();
  append_frame(encode_scratch_, framed);
  enqueue_framed(to, it->second, std::move(framed), false);
}

bool TcpTransport::offline(GridNodeId node) const {
  if (local_ != nullptr && node == local_->id()) {
    return false;
  }
  const auto it = peers_.find(node.value);
  return it == peers_.end() || it->second.failed;
}

const NetworkStats& TcpTransport::stats() const { return stats_; }

std::vector<GridNodeId> TcpTransport::connected_peers() const {
  std::vector<GridNodeId> out;
  out.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) {
    if (!peer.failed) {
      out.push_back(GridNodeId{id});
    }
  }
  return out;
}

std::optional<auth::AuthInfo> TcpTransport::auth_of(GridNodeId peer) const {
  const auto it = peers_.find(peer.value);
  return it == peers_.end() ? std::nullopt : it->second.auth;
}

TcpIoStats TcpTransport::io_stats() const {
  TcpIoStats out = io_;
  out.frames_per_write_mean =
      out.write_calls > 0 ? static_cast<double>(out.frames_sent) /
                                static_cast<double>(out.write_calls)
                          : 0.0;
  out.quiescence_timeout_ms = effective_quiescence_ms();
  return out;
}

void TcpTransport::drop_peer(GridNodeId id) {
  const auto it = peers_.find(id.value);
  if (it == peers_.end() || it->second.failed) {
    return;
  }
  // Deferred teardown: drop_peer can fire while a caller still holds this
  // Peer& (mid-dispatch, mid-send), so only mark and close here; reap()
  // erases at the top of the next loop round.
  Peer& peer = it->second;
  peer.failed = true;
  if (peer.wakeup.has_value()) {
    wheel_.cancel(*peer.wakeup);
    peer_timers_.erase(*peer.wakeup);
    peer.wakeup.reset();
  }
  if (peer.decoder.bytes_pending() > 0 && !peer.decoder.poisoned()) {
    // The stream died mid-frame: in-flight traffic was genuinely lost.
    // (Poisoned streams also leave bytes behind, but those are a framing
    // violation, not truncation — keep the counters distinct.)
    ++io_.streams_truncated;
  }
  engine_->remove(peer.socket.fd());
  peer.socket.close();
  // Recycle the frames it never drained (and the chaos-delayed ones).
  while (!peer.write_queue.empty()) {
    release_frame(std::move(peer.write_queue.front()));
    peer.write_queue.pop_front();
  }
  peer.write_pending = 0;
  peer.write_front_offset = 0;
  while (!peer.delayed.empty()) {
    release_frame(std::move(peer.delayed.front().second));
    peer.delayed.pop_front();
  }
  doomed_.push_back(id.value);
}

void TcpTransport::reap() {
  while (!doomed_.empty()) {
    // Swapped out first: a disconnect callback may send, and a send may
    // doom another peer.
    std::vector<std::uint32_t> doomed;
    doomed.swap(doomed_);
    for (const std::uint32_t raw : doomed) {
      if (peers_.erase(raw) > 0) {
        last_message_ms_.erase(raw);
        if (on_peer_disconnected) {
          on_peer_disconnected(GridNodeId{raw});
        }
      }
    }
  }
}

void TcpTransport::dispatch(GridNodeId from, Peer& peer, BytesView payload) {
  Message message;
  try {
    message = decode_message(payload);
  } catch (const WireError&) {
    // Hostile or corrupt bytes reject cleanly and cost only this frame.
    ++io_.frames_undecodable;
    return;
  }

  if (const auto* challenge = std::get_if<HelloChallenge>(&message)) {
    if (peer.accepted) {
      // Acceptors challenge; a client challenging the server is hostile.
      throw FrameError("HelloChallenge from a connecting peer");
    }
    if (challenge->protocol != kGridProtocol) {
      throw FrameError(concat("peer speaks grid protocol ",
                              challenge->protocol, ", this build speaks ",
                              kGridProtocol));
    }
    if (challenge->nonce.size() != auth::kHandshakeNonceSize) {
      throw FrameError("malformed handshake nonce");
    }
    if (identity_.has_value()) {
      queue_control_frame(
          from, peer,
          Message(auth::make_hello_proof(*identity_, challenge->nonce,
                                         kGridProtocol, agent_)));
    }
    // No identity armed: ignore; the server will refuse our plain Hello.
    return;
  }
  if (const auto* proof = std::get_if<HelloProof>(&message)) {
    if (!peer.accepted) {
      return;  // servers don't prove themselves to clients; ignore
    }
    if (!auth_.has_value()) {
      throw FrameError("HelloProof on an unauthenticated grid");
    }
    if (peer.greeted) {
      return;  // one connection is one identity, same rule as plain Hello
    }
    auth::AuthInfo info;
    const auth::HandshakeStatus status = auth::verify_hello_proof(
        *proof, peer.nonce, kGridProtocol, auth_->is_banned, info);
    // Burn the nonce either way: each challenge verifies at most one proof.
    peer.nonce.clear();
    if (status != auth::HandshakeStatus::kOk) {
      refuse_handshake(from, status, info);
    }
    peer.greeted = true;
    peer.auth = info;
    if (on_peer_authenticated) {
      on_peer_authenticated(from, info);
    }
    // Synthesize the Hello so hello-driven callers see the same shape on
    // both handshake flavors.
    if (on_peer_hello) {
      on_peer_hello(from, Hello{kGridProtocol, info.agent});
    }
    return;
  }
  if (const auto* hello = std::get_if<Hello>(&message)) {
    if (!peer.accepted) {
      return;  // connectors don't get greeted; ignore stray Hellos
    }
    if (peer.greeted) {
      // One connection is one identity: a repeated Hello must not re-fire
      // registration (a cheater could otherwise fill every worker slot of
      // a gridd from a single connection).
      return;
    }
    if (auth_.has_value()) {
      // This grid requires a proof; an anonymous Hello is a refusal, not a
      // registration.
      refuse_handshake(from, auth::HandshakeStatus::kUnauthenticated, {});
    }
    if (hello->protocol != kGridProtocol) {
      throw FrameError(concat("peer speaks grid protocol ", hello->protocol,
                              ", this build speaks ", kGridProtocol));
    }
    peer.greeted = true;
    if (on_peer_hello) {
      on_peer_hello(from, *hello);
    }
    return;
  }
  if (peer.accepted && !peer.greeted) {
    // Protocol traffic before the handshake: not a grid client.
    if (auth_.has_value()) {
      refuse_handshake(from, auth::HandshakeStatus::kUnauthenticated, {});
    }
    throw FrameError("protocol frame before Hello");
  }

  if (local_ == nullptr) {
    return;  // no node to deliver to yet
  }
  // Feed the adaptive-quiescence estimator with this peer's inter-message
  // gap — the real WAN cadence, jitter included.
  const std::uint64_t now = now_ms();
  const auto last = last_message_ms_.find(from.value);
  if (last != last_message_ms_.end() && now >= last->second) {
    quiescence_estimator_.record_gap(now - last->second);
  }
  last_message_ms_[from.value] = now;
  stats_.record(from, local_->id(), payload.size());
  local_->on_message(from, message, *this);
}

bool TcpTransport::service_read(GridNodeId id, Peer& peer) {
  bool progressed = false;
  // Fairness bound: one peer gets at most this many recv() rounds before
  // control returns to the engine, so a flooding (or simply bulk-uploading)
  // peer cannot starve the other connections, the accept queue, or the
  // timer wheel. Whatever remains buffered re-arms readiness immediately
  // (both backends are level-triggered for exactly this reason).
  for (int round = 0; !peer.failed && round < 16; ++round) {
    ++io_.read_calls;
    const IoResult result =
        read_some(peer.socket, std::span<std::uint8_t>(read_scratch_));
    if (result.status == IoStatus::kOk) {
      progressed = true;
      try {
        peer.decoder.feed(BytesView(read_scratch_.data(), result.bytes));
        while (const auto frame = peer.decoder.next()) {
          dispatch(id, peer, *frame);
          if (peer.failed) {
            break;  // a dispatch side effect (backpressure) doomed it
          }
        }
      } catch (const FrameError&) {
        // Oversized length, pre-Hello traffic, or a protocol mismatch: the
        // stream is unusable.
        drop_peer(id);
        return true;
      }
      continue;
    }
    if (result.status == IoStatus::kWouldBlock) {
      return progressed;
    }
    // Orderly EOF or a connection error.
    drop_peer(id);
    return true;
  }
  return progressed;
}

std::size_t TcpTransport::advance_write_queue(Peer& peer,
                                              std::size_t written) {
  peer.write_pending -= written;
  std::size_t frames = 0;
  while (written > 0) {
    Bytes& front = peer.write_queue.front();
    const std::size_t left = front.size() - peer.write_front_offset;
    if (written < left) {
      peer.write_front_offset += written;  // resume mid-frame next time
      break;
    }
    written -= left;
    peer.write_front_offset = 0;
    release_frame(std::move(front));
    peer.write_queue.pop_front();
    ++frames;
  }
  return frames;
}

bool TcpTransport::service_write(GridNodeId id, Peer& peer) {
  bool progressed = false;
  while (!peer.failed && peer.write_pending > 0) {
    // Gather the queue front into one vectored write: every queued frame
    // (up to the fan-in cap) goes out in a single sendmsg.
    iovec iov[kMaxWriteIov];
    std::size_t iov_count = 0;
    std::size_t want = 0;
    std::size_t skip = peer.write_front_offset;
    for (const Bytes& frame : peer.write_queue) {
      if (iov_count == kMaxWriteIov) {
        break;
      }
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(frame.data() + skip);
      iov[iov_count].iov_len = frame.size() - skip;
      want += iov[iov_count].iov_len;
      ++iov_count;
      skip = 0;
    }
    std::size_t clamped = want;
    if (peer.chaos != nullptr) {
      // The chaos short-write model composes with batching: trim the iovec
      // tail to the clamped byte count, and resumption picks up mid-frame.
      clamped = peer.chaos->clamp_write(want);
      std::size_t budget = clamped;
      std::size_t used = 0;
      while (used < iov_count && budget > 0) {
        if (iov[used].iov_len > budget) {
          iov[used].iov_len = budget;
        }
        budget -= iov[used].iov_len;
        ++used;
      }
      iov_count = used;
    }
    ++io_.write_calls;
    const IoResult result = write_vec(peer.socket, iov, iov_count);
    if (result.status == IoStatus::kOk) {
      if (result.bytes == 0) {
        break;  // kernel took nothing; try again next round
      }
      const std::size_t frames = advance_write_queue(peer, result.bytes);
      io_.frames_sent += frames;
      ++io_.frames_per_write[frames_per_write_bucket(frames)];
      progressed = true;
      if (clamped < want) {
        break;  // chaos short write: yield; level-trigger re-wakes us
      }
      continue;
    }
    if (result.status == IoStatus::kWouldBlock) {
      break;
    }
    // EPIPE/ECONNRESET and friends: the connection is dead — drop it here
    // rather than waiting for the read path to notice (close_all only
    // services writes, so it depends on this branch to stop draining).
    drop_peer(id);
    return true;
  }
  if (!peer.failed) {
    // Eviction bookkeeping: mark when a backlog first appeared, clear it
    // the moment the queue fully drains.
    if (peer.write_pending == 0) {
      peer.write_stuck_since_ms = 0;
    } else if (peer.write_stuck_since_ms == 0) {
      peer.write_stuck_since_ms = now_ms();
      if (options_.evict_stalled_after_ms > 0) {
        schedule_peer_wakeup(
            id, peer,
            peer.write_stuck_since_ms + options_.evict_stalled_after_ms);
      }
    }
  }
  return progressed;
}

void TcpTransport::sync_interest(GridNodeId id, Peer& peer) {
  if (peer.failed || !peer.socket.valid()) {
    return;
  }
  const bool want_write = peer.write_pending > 0;
  const bool want_read = peer.stalled_until_ms == 0;  // deaf while stalled
  Interest desired = Interest::kNone;
  if (want_read && want_write) {
    desired = Interest::kReadWrite;
  } else if (want_read) {
    desired = Interest::kRead;
  } else if (want_write) {
    desired = Interest::kWrite;
  }
  if (desired == peer.armed) {
    return;
  }
  engine_->modify(peer.socket.fd(), id.value, desired);
  peer.armed = desired;
}

void TcpTransport::arm_quiescence(std::uint64_t now) {
  if (quiescence_timer_.has_value()) {
    wheel_.cancel(*quiescence_timer_);
  }
  quiescence_timer_ = wheel_.schedule(now, effective_quiescence_ms());
}

void TcpTransport::run(const std::function<bool()>& done) {
  arm_quiescence(now_ms());
  for (;;) {
    // Reap first so a disconnect observed last round is visible to the
    // predicate now — a gridworker waiting on its supervisor's EOF must
    // not sleep one extra wait timeout.
    reap();
    if (done()) {
      break;
    }

    // Everything this round enqueued goes out now, one vectored write per
    // dirty peer, so the wait below starts with the kernel already fed.
    flush_pending();

    // Sleep until I/O or the next timer; the wheel's earliest deadline caps
    // the wait so quiescence can't be missed.
    const std::uint64_t now_before = now_ms();
    std::uint64_t timeout = kTickMs * 10;
    if (const auto deadline = wheel_.next_deadline_ms()) {
      timeout = *deadline > now_before ? *deadline - now_before : 0;
    }
    engine_->wait(static_cast<int>(std::min<std::uint64_t>(timeout, 1000)),
                  ready_scratch_);

    bool progressed = false;
    for (const ReadyEvent& event : ready_scratch_) {
      if (event.token == kListenerToken) {
        accept_pending();
        progressed = true;
        continue;
      }
      const GridNodeId id{static_cast<std::uint32_t>(event.token)};
      const auto it = peers_.find(id.value);
      if (it == peers_.end() || it->second.failed) {
        continue;  // dropped earlier in this round
      }
      if ((event.readable && !chaos_stall_read(id, it->second)) ||
          event.error) {
        progressed |= service_read(id, it->second);
      }
      if (!it->second.failed && event.writable) {
        progressed |= service_write(id, it->second);
        sync_interest(id, it->second);
      }
    }

    if (progressed) {
      // Re-arm before advancing, so the quiescence timer can never fire
      // out of a round that saw traffic.
      arm_quiescence(now_ms());
    }
    // Always advance the wheel — peer-service timers (chaos releases,
    // stall ends, eviction deadlines) must fire on time even while the
    // grid is busy, not only on idle rounds.
    fired_scratch_.clear();
    wheel_.advance(now_ms(), fired_scratch_);
    bool released = false;
    for (const TimerWheel::TimerId timer : fired_scratch_) {
      if (quiescence_timer_ == timer) {
        quiescence_timer_.reset();
        // The grid went quiet for a full timeout: same contract as
        // SimTransport's quiescence.
        if (local_ != nullptr) {
          local_->on_quiescent(*this);
        }
        arm_quiescence(now_ms());
        continue;
      }
      if (accept_retry_ == timer) {
        accept_retry_.reset();
        engine_->modify(listener_.fd(), kListenerToken, Interest::kRead);
        continue;
      }
      const auto owner = peer_timers_.find(timer);
      if (owner == peer_timers_.end()) {
        continue;  // canceled peer timer that still fired this round
      }
      const GridNodeId id{owner->second};
      peer_timers_.erase(owner);
      const auto it = peers_.find(id.value);
      if (it == peers_.end() || it->second.failed) {
        continue;
      }
      it->second.wakeup.reset();
      released |= service_peer_wakeup(id, it->second);
    }
    if (released) {
      // Chaos frames reaching the wire count as traffic for quiescence.
      arm_quiescence(now_ms());
    }
  }
}

void TcpTransport::close_all(std::uint64_t drain_timeout_ms) {
  const std::uint64_t deadline_ms = now_ms() + drain_timeout_ms;
  reap();
  // Frames enqueued since the last round haven't been written yet
  // (batched-flush discipline): give them one pass before deciding who
  // still owes the kernel bytes.
  flush_pending();
  reap();
  // Stop accepting, and demote every peer to write-only interest so the
  // wait below wakes exactly when the kernel can take more bytes — readable
  // peers must not busy-wake a loop that is only draining.
  if (listener_.valid()) {
    engine_->remove(listener_.fd());
  }
  for (auto& [id, peer] : peers_) {
    if (peer.failed || !peer.socket.valid()) {
      continue;
    }
    if (peer.write_pending > 0) {
      engine_->modify(peer.socket.fd(), id, Interest::kWrite);
      peer.armed = Interest::kWrite;
    } else {
      engine_->remove(peer.socket.fd());
      peer.armed = Interest::kNone;
    }
  }
  for (;;) {
    reap();
    // Funeral drain still honors the chaos latency model: frames whose
    // release time has come move into the write queue (a verdict sampled
    // with WAN delay must not be dropped just because the grid finished
    // first). No disconnect sampling here — chaos had its chance while
    // the session was live; the funeral's only job is delivery.
    const std::uint64_t release_now = now_ms();
    for (auto& [id, peer] : peers_) {
      if (peer.failed || !peer.socket.valid()) {
        continue;
      }
      bool appended = false;
      while (!peer.delayed.empty() &&
             peer.delayed.front().first <= release_now) {
        Bytes frame = std::move(peer.delayed.front().second);
        peer.delayed.pop_front();
        peer.write_pending += frame.size();
        peer.write_queue.push_back(std::move(frame));
        appended = true;
      }
      if (appended) {
        service_write(GridNodeId{id}, peer);
        if (peer.failed || !peer.socket.valid()) {
          continue;
        }
        if (peer.write_pending > 0) {
          if (peer.armed == Interest::kNone) {
            engine_->add(peer.socket.fd(), id, Interest::kWrite);
          } else {
            engine_->modify(peer.socket.fd(), id, Interest::kWrite);
          }
          peer.armed = Interest::kWrite;
        } else if (peer.armed != Interest::kNone) {
          engine_->remove(peer.socket.fd());
          peer.armed = Interest::kNone;
        }
      }
    }
    bool pending = false;
    for (const auto& [id, peer] : peers_) {
      if (!peer.failed && (peer.write_pending > 0 || !peer.delayed.empty())) {
        pending = true;
        break;
      }
    }
    const std::uint64_t now = now_ms();
    if (!pending || now >= deadline_ms) {
      break;
    }
    // The sleep is bounded by the real drain deadline (and any armed
    // timer), not a constant interval: an idle drain sleeps until a socket
    // turns writable, a near-due deadline is honored on time.
    std::uint64_t timeout = deadline_ms - now;
    if (const auto wheel_deadline = wheel_.next_deadline_ms()) {
      timeout =
          std::min(timeout, *wheel_deadline > now ? *wheel_deadline - now : 0);
    }
    engine_->wait(
        static_cast<int>(std::min<std::uint64_t>(
            timeout,
            static_cast<std::uint64_t>(std::numeric_limits<int>::max()))),
        ready_scratch_);
    for (const ReadyEvent& event : ready_scratch_) {
      if (event.token == kListenerToken) {
        continue;  // already deregistered; stale report
      }
      const GridNodeId id{static_cast<std::uint32_t>(event.token)};
      const auto it = peers_.find(id.value);
      if (it == peers_.end() || it->second.failed) {
        continue;
      }
      if (event.writable || event.error) {
        service_write(id, it->second);
        if (!it->second.failed && it->second.write_pending == 0) {
          engine_->remove(it->second.socket.fd());
          it->second.armed = Interest::kNone;
        }
      }
    }
  }
  // Teardown: whatever didn't drain is abandoned, silently (close_all is
  // the transport's funeral, not a disconnect).
  for (auto& [id, peer] : peers_) {
    if (!peer.failed && peer.socket.valid()) {
      engine_->remove(peer.socket.fd());
    }
  }
  peers_.clear();
  doomed_.clear();
  flush_list_.clear();
  peer_timers_.clear();  // any still-armed timers fire into nothing
  accept_retry_.reset();
  listener_.close();
}

}  // namespace ugc::net
