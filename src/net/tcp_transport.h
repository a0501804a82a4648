#pragma once

// Asynchronous TCP implementation of the Transport interface (see
// net/frame.h for the src/net layering note): one readiness-driven event
// loop (net/event_engine.h — epoll on Linux, poll() elsewhere) over
// non-blocking sockets, shipping each wire-v2 encoded Message as one 4-byte
// length-prefixed frame. This is the substrate the real executables
// (apps/gridd, apps/gridworker, apps/gridload) run the unchanged
// supervisor/participant protocol over.
//
// The write side is batched: each peer queues whole framed messages and
// flushes them once per loop round through one vectored write (writev
// semantics via sendmsg), so a protocol burst of N frames to one peer costs
// one syscall, not N. Frame buffers are pooled and recycled once the kernel
// has the bytes. TcpIoStats reports the syscall counts and the
// frames-per-write distribution the batching is judged by.
//
// Threading: run() drives the loop on the caller's thread. Accepts, reads,
// writes, timers and every callback happen there, and send() is called
// from inside those callbacks or from the same thread between runs. The
// transport takes no locks.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "auth/handshake.h"
#include "common/rng.h"
#include "grid/chaos.h"
#include "grid/transport.h"
#include "net/event_engine.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/timer_wheel.h"

namespace ugc::net {

struct TcpTransportOptions {
  // Idle period after which GridNode::on_quiescent fires — the real-clock
  // stand-in for SimTransport's exact quiescence, driving the same
  // retry/abort path. Raise it for slow workers or WAN links.
  std::uint64_t quiescence_timeout_ms = 1000;
  // Readiness backend (kAuto = epoll on Linux, poll elsewhere).
  EngineBackend engine = EngineBackend::kAuto;
  // Seeded fault injection (grid/chaos.h): when set, every peer of this
  // transport gets a deterministic ChaosLink sampled from the plan —
  // outbound frames pay WAN latency/bandwidth before reaching the socket,
  // reads stall, writes shorten, connections reset at accept time and die
  // mid-stream. Reproducible from plan.seed; nullopt = the real network,
  // zero overhead on the hot path.
  std::optional<ChaosPlan> chaos;
  // Adaptive quiescence (grid/chaos.h): when quiescence.adaptive is true
  // the timeout tracks observed inter-message gaps (SRTT + 4·RTTVAR,
  // clamped to [floor_ms, ceiling_ms]) instead of staying pinned at
  // quiescence_timeout_ms — WAN jitter stretches the timeout instead of
  // tripping retries.
  QuiescencePolicy quiescence;
  // Load shedding: above this many queued-but-unsent bytes for one peer,
  // new protocol frames for it are dropped (counted in frames_shed)
  // instead of queued — the connection survives and control/handshake
  // frames are exempt. 0 = off. Distinct from the 32 MiB write-queue cap,
  // which kills the connection outright.
  std::size_t shed_watermark = 0;
  // Slow-peer eviction: a peer whose write queue has not fully drained
  // for this long is disconnected (counted in peers_evicted). 0 = off.
  std::uint64_t evict_stalled_after_ms = 0;
};

// Acceptor-side handshake policy for require_auth().
struct AuthOptions {
  // Reputation hook consulted after a proof verifies, from inside run(); a
  // null function bans nobody.
  auth::BanCheck is_banned;
  // Challenge-nonce RNG seed; 0 (the default) seeds from entropy. Fixing it
  // makes handshakes reproducible — for tests only, since predictable
  // nonces surrender the anti-replay property.
  std::uint64_t nonce_seed = 0;
};

// I/O-layer counters (distinct from Transport::stats(), which meters
// protocol traffic identically across transports). Everything a load run
// needs to attribute a disconnect or a stall: how deep write queues got
// before draining, and what was refused, undecodable or put off.
struct TcpIoStats {
  std::string engine;                       // backend actually in use
  std::size_t write_queue_hwm = 0;          // bytes, max over all peers
  std::uint64_t frames_undecodable = 0;
  std::uint64_t streams_truncated = 0;
  std::uint64_t handshakes_refused = 0;
  // Accepts put off because the process was out of file descriptors or the
  // kernel out of socket memory (EMFILE, ENFILE, ENOBUFS, ENOMEM). The
  // connection waits in the listen backlog; the listener re-arms on the
  // next timer tick.
  std::uint64_t accepts_deferred = 0;
  // Syscall accounting (the batching scoreboard): every recv and every
  // sendmsg the loop issues, the frames fully delivered, and how many whole
  // frames each sendmsg completed — buckets 0, 1, 2, 3, 4–7, 8–15, 16+.
  // A mean above 1 is the vectored write path coalescing a burst.
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t frames_sent = 0;
  std::vector<std::uint64_t> frames_per_write = std::vector<std::uint64_t>(7);
  double frames_per_write_mean = 0.0;
  // Degradation policies (see TcpTransportOptions):
  std::uint64_t frames_shed = 0;    // dropped above shed_watermark
  std::uint64_t peers_evicted = 0;  // cut for a stalled write queue
  // Chaos injection (options.chaos only; all zero on a real network):
  std::uint64_t chaos_accept_resets = 0;
  std::uint64_t chaos_disconnects = 0;
  std::uint64_t chaos_frames_delayed = 0;
  std::uint64_t chaos_read_stalls = 0;
  // The quiescence timeout currently in force (tracks the adaptive
  // estimate when quiescence.adaptive is set).
  std::uint64_t quiescence_timeout_ms = 0;
};

// One TcpTransport hosts exactly one local protocol node (gridd's
// SupervisorNode, gridworker's ParticipantNode) and any number of remote
// peers, each a framed TCP connection addressed by its GridNodeId — a star,
// which is exactly the supervisor/participant topology (a broker would run
// its own transport).
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options = {});
  ~TcpTransport() override;

  // Registers the one local protocol node; all inbound protocol frames are
  // delivered to it. Must be called before those frames arrive (gridd
  // registers its supervisor after the workers' Hellos, which the transport
  // itself consumes).
  GridNodeId add_local(GridNode& node);

  // Server side: bind + listen; every accepted connection becomes a peer.
  // An accepted peer must introduce itself with a Hello frame (protocol ==
  // kGridProtocol) before any protocol traffic, or it is dropped. Call
  // before run().
  void listen(const std::string& host, std::uint16_t port);

  // Upgrades the acceptor to the authenticated handshake (auth/handshake.h):
  // every accepted connection is sent a fresh HelloChallenge and must answer
  // with a verifying HelloProof before any scheme traffic. Bad proofs,
  // replayed stale nonces, banned identities, plain Hellos, and pre-proof
  // scheme frames are all refused (counted in io_stats().handshakes_refused,
  // reported through on_auth_refused, connection dropped). Call before
  // run().
  void require_auth(AuthOptions options);

  // Arms the connector side: when a server challenges, answer with a proof
  // minted from this identity under this agent name. Without it a challenge
  // is ignored and an auth-requiring server will refuse us.
  void use_identity(const auth::WorkerIdentity& identity, std::string agent);
  std::uint16_t port() const;

  // Client side: connect out; the remote end becomes a peer (no Hello is
  // expected back — the acceptor authenticates, the connector trusts).
  // Blocks until the TCP handshake completes.
  GridNodeId connect(const std::string& host, std::uint16_t port);

  // Transport: encodes, meters, frames, and queues for the peer `to`.
  // Sending to a vanished peer is a quiet no-op (the message is lost, as it
  // would be on the wire); sending to an id that was never a peer throws.
  void send(GridNodeId from, GridNodeId to, const Message& message) override;

  bool offline(GridNodeId node) const override;
  const NetworkStats& stats() const override;

  // Fired from inside run(). on_peer_hello only for accepted peers (on an
  // authenticated grid it fires right after on_peer_authenticated, with a
  // Hello synthesized from the proof, so hello-driven callers are
  // indifferent to the handshake flavor).
  std::function<void(GridNodeId, const Hello&)> on_peer_hello;
  std::function<void(GridNodeId)> on_peer_disconnected;
  // Authenticated-handshake outcomes (require_auth grids only). On refusal,
  // `info` carries the proven identity for kBanned and is empty otherwise —
  // an unverified claim is not worth reporting as an identity.
  std::function<void(GridNodeId, const auth::AuthInfo&)> on_peer_authenticated;
  std::function<void(GridNodeId, auth::HandshakeStatus,
                     const auth::AuthInfo& info)>
      on_auth_refused;

  // Drives the protocol until `done()` returns true: accepts, reads frames
  // and dispatches them to the local node, drains write queues, and fires
  // GridNode::on_quiescent after quiescence_timeout_ms of silence.
  // Re-enterable: call again with a new predicate to continue.
  void run(const std::function<bool()>& done);

  // Drains pending writes (bounded by `drain_timeout_ms`), then closes
  // every peer and the listener. The drain waits on writability alone, so
  // the deadline caps the sleep — no constant-interval spinning.
  void close_all(std::uint64_t drain_timeout_ms = 2000);

  // Peers that are still connected, in id order.
  std::vector<GridNodeId> connected_peers() const;
  // The identity a peer proved at handshake (require_auth grids only).
  std::optional<auth::AuthInfo> auth_of(GridNodeId peer) const;

  // Snapshot of the I/O-layer counters (see TcpIoStats).
  TcpIoStats io_stats() const;

 private:
  struct Peer {
    Socket socket;
    FrameDecoder decoder;
    // Write queue: whole framed messages awaiting the kernel, flushed as
    // one vectored write per loop round (pooled buffers, returned to the
    // frame pool once fully written).
    std::deque<Bytes> write_queue;
    std::size_t write_front_offset = 0;  // bytes of front() already written
    std::size_t write_pending = 0;       // unsent bytes across the queue
    bool flush_queued = false;     // already on the flush list
    bool accepted = false;         // true: inbound (must Hello first)
    bool greeted = false;          // Hello seen (accepted peers)
    bool failed = false;           // doomed; erased at the next reap()
    Interest armed = Interest::kNone;  // current engine registration
    Bytes nonce;                   // outstanding challenge (auth acceptor)
    std::optional<auth::AuthInfo> auth;  // proven identity, once greeted
    // Chaos state (options.chaos only; null link = clean connection):
    std::unique_ptr<ChaosLink> chaos;
    // Frames held until their sampled release time (framed bytes ready to
    // join write_queue), FIFO by construction (releases are monotone).
    std::deque<std::pair<std::uint64_t, Bytes>> delayed;
    std::uint64_t stalled_until_ms = 0;  // read interest parked until then
    // Degradation bookkeeping (always on): when the current write backlog
    // started, 0 = drained. Drives evict_stalled_after_ms.
    std::uint64_t write_stuck_since_ms = 0;
    // One wheel timer services this peer's chaos releases, stall ends,
    // and eviction deadline; re-armed to the earliest of them.
    std::optional<TimerWheel::TimerId> wakeup;
    std::uint64_t wakeup_at_ms = 0;
  };

  std::uint64_t now_ms() const;
  void arm_quiescence(std::uint64_t now);
  // Accepts until the backlog is empty. Out of descriptors, it parks the
  // listener and leaves the rest queued for the accept-retry timer.
  void accept_pending();
  // Installs a connection (engine registration, auth challenge).
  void adopt_connection(std::uint32_t id, Socket socket, bool accepted);
  // Reads until would-block or the per-round fairness bound; decodes and
  // dispatches every complete frame. Returns true on any progress.
  bool service_read(GridNodeId id, Peer& peer);
  // Flushes the peer's write queue until would-block: up to kMaxWriteIov
  // queued frames per vectored write, partial writes resumed from the exact
  // byte the kernel (or the chaos clamp) stopped at. Returns true on any
  // progress.
  bool service_write(GridNodeId id, Peer& peer);
  // Advances the queue past `written` bytes, recycling fully-written frames
  // into the pool. Returns how many frames completed (for the histogram).
  std::size_t advance_write_queue(Peer& peer, std::size_t written);
  // Re-arms the engine registration to match the peer's pending writes.
  void sync_interest(GridNodeId id, Peer& peer);
  void dispatch(GridNodeId from, Peer& peer, BytesView payload);
  // After frames joined a peer's write queue: tracks the high-water mark,
  // enforces the backpressure cap, and puts the peer on the flush list —
  // the actual write happens once per round (flush_pending), so a burst of
  // sends coalesces into one vectored write.
  void finish_enqueue(GridNodeId to, Peer& peer);
  // Drains the flush list: one service_write + interest re-arm per dirty
  // peer. Called just before every engine wait. Returns true on any write
  // progress.
  bool flush_pending();
  // The enqueue front door: sheds above the watermark (protocol frames
  // only), detours through the chaos delay queue when the peer's link has
  // latency, otherwise moves the frame onto write_queue and finishes.
  // `framed` carries the 4-byte length prefix already and is consumed
  // (queued, delayed, or recycled).
  void enqueue_framed(GridNodeId to, Peer& peer, Bytes framed, bool control);
  // Frame-buffer pool shared by every enqueue path: acquire an empty Bytes
  // (recycled capacity where available), release it once the kernel has the
  // bytes. Keeps the per-message hot path allocation-free at steady state.
  Bytes acquire_frame();
  void release_frame(Bytes frame);
  // Moves due delayed frames onto the wire, ends read stalls, enforces
  // eviction, and re-arms the peer's wakeup timer. Returns true if frames
  // hit the write path (progress, for quiescence purposes).
  bool service_peer_wakeup(GridNodeId id, Peer& peer);
  // Arms (or pulls earlier) the peer's single service timer.
  void schedule_peer_wakeup(GridNodeId id, Peer& peer, std::uint64_t at_ms);
  // The quiescence timeout currently in force (adaptive or fixed).
  std::uint64_t effective_quiescence_ms() const;
  // Chaos read-stall entry: true when the read must be skipped this round.
  bool chaos_stall_read(GridNodeId id, Peer& peer);
  // Encodes, frames, and queues a handshake control frame for `peer`,
  // bypassing NetworkStats (the meter counts scheme traffic, comparable
  // across transports; the handshake is TcpTransport plumbing).
  void queue_control_frame(GridNodeId to, Peer& peer, const Message& message);
  // Counts the refusal, reports it, and poisons the stream.
  [[noreturn]] void refuse_handshake(GridNodeId from,
                                     auth::HandshakeStatus status,
                                     const auth::AuthInfo& info);
  // Marks the peer dead and closes its socket; safe mid-iteration (the map
  // entry survives until reap()).
  void drop_peer(GridNodeId id);
  // Erases doomed peers and reports their disconnects.
  void reap();

  TcpTransportOptions options_;
  std::unique_ptr<EventEngine> engine_;
  TimerWheel wheel_;
  Socket listener_;
  // Armed while the listener is parked after running out of descriptors.
  std::optional<TimerWheel::TimerId> accept_retry_;
  std::map<std::uint32_t, Peer> peers_;
  std::vector<std::uint32_t> doomed_;
  GridNode* local_ = nullptr;
  std::uint32_t next_id_ = 0;
  NetworkStats stats_;
  TcpIoStats io_;
  std::chrono::steady_clock::time_point epoch_;

  Bytes encode_scratch_;
  Bytes read_scratch_;  // recv target, sized once, reused for every read
  // Peers with frames enqueued this round, flushed in one vectored write
  // each just before the next engine wait (flush_scratch_ is the swap
  // target, so a flush can enqueue more without invalidating iteration).
  std::vector<std::uint32_t> flush_list_;
  std::vector<std::uint32_t> flush_scratch_;
  std::vector<ReadyEvent> ready_scratch_;
  std::vector<TimerWheel::TimerId> fired_scratch_;
  std::vector<Bytes> frame_pool_;
  std::optional<TimerWheel::TimerId> quiescence_timer_;
  // Peer-service timers (chaos releases / stall ends / eviction): fired
  // id -> owning peer.
  std::map<TimerWheel::TimerId, std::uint32_t> peer_timers_;

  // Adaptive quiescence: observed inter-message gaps per peer feed the
  // estimator; the effective timeout is read when (re-)arming quiescence.
  AdaptiveTimeout quiescence_estimator_;
  std::map<std::uint32_t, std::uint64_t> last_message_ms_;

  std::optional<AuthOptions> auth_;  // acceptor: challenge + verify
  std::optional<Rng> nonce_rng_;     // challenge-nonce stream
  std::optional<auth::WorkerIdentity> identity_;  // connector: answer
  std::string agent_;
};

}  // namespace ugc::net
