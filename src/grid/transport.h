#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "common/types.h"
#include "wire/messages.h"

namespace ugc {

class Transport;

// Per-link / per-node traffic counters.
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

struct NetworkStats {
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  // Directed link (from, to) -> stats.
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkStats> links;
  std::map<std::uint32_t, LinkStats> sent_by;
  std::map<std::uint32_t, LinkStats> received_by;

  std::uint64_t bytes_sent(GridNodeId node) const {
    const auto it = sent_by.find(node.value);
    return it == sent_by.end() ? 0 : it->second.bytes;
  }
  std::uint64_t bytes_received(GridNodeId node) const {
    const auto it = received_by.find(node.value);
    return it == received_by.end() ? 0 : it->second.bytes;
  }

  // Folds one sent frame into every counter (helper shared by transports,
  // which must meter identically so cost studies carry over).
  void record(GridNodeId from, GridNodeId to, std::uint64_t bytes);
};

// A node in the grid (supervisor, participant, or broker). Implementations
// react to decoded messages and may send further messages through the
// transport they were handed. Protocol logic is written once against this
// interface and runs unchanged over the deterministic in-process transport
// (SimTransport) or real TCP sockets (TcpTransport in src/net/).
class GridNode {
 public:
  virtual ~GridNode() = default;

  GridNode() = default;
  GridNode(const GridNode&) = delete;
  GridNode& operator=(const GridNode&) = delete;

  virtual void on_message(GridNodeId from, const Message& message,
                          Transport& transport) = 0;

  // Called when this node crashes (fault injection, or a real process
  // restart): all in-progress protocol state must be discarded.
  virtual void on_crash() {}

  // The transport's timeout signal: deliveries and any delayed frames are
  // all exhausted (SimTransport), or the link has been idle past
  // the quiescence timeout (TcpTransport). Nodes with unresolved work (the
  // supervisor's retry/re-assignment logic) act here and return true to
  // keep the run going; returning false everywhere ends the run.
  virtual bool on_quiescent(Transport& transport) {
    (void)transport;
    return false;
  }

  GridNodeId id() const { return id_; }

 private:
  friend class Transport;
  GridNodeId id_{};
};

// The message-passing substrate the grid runs on. A transport owns the node
// id space, serializes every message through the wire codec (so byte
// metering reflects real traffic), and delivers decoded messages to
// GridNode::on_message. Two implementations ship:
//
//   SimTransport (grid/network.h) — deterministic, single-threaded,
//     in-process, with fault injection; the simulation/testing substrate.
//   TcpTransport (net/tcp_transport.h) — asynchronous non-blocking TCP with
//     length-prefixed frames; the production substrate gridd/gridworker run.
//
// Threading contract (what protocol code may assume, what transports must
// guarantee):
//
//   1. Every GridNode callback — on_message, on_quiescent, on_crash — fires
//      on ONE thread, the protocol thread (the caller of SimTransport's
//      delivery loop, or of TcpTransport::run()). Nodes never need their own
//      locking; a node's state is only ever touched from that thread.
//   2. send() and stats() are protocol-thread-only. Calling send() from any
//      other thread is a contract violation, not a supported path: transports
//      are free to touch unsynchronized per-peer state (write queues, stats
//      maps) inside send(). Callbacks may call send() freely — they are
//      already on the protocol thread.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Encodes, meters, and queues a message from `from` to `to`. Delivery is
  // asynchronous: the message reaches the recipient's on_message later (or
  // never, on a faulty/disconnected link) — senders must not rely on
  // re-entrant delivery.
  virtual void send(GridNodeId from, GridNodeId to, const Message& message) = 0;

  // True when the transport knows `node` cannot currently receive (crashed
  // under a FaultPlan, or its connection is gone).
  virtual bool offline(GridNodeId node) const {
    (void)node;
    return false;
  }

  virtual const NetworkStats& stats() const = 0;

 protected:
  // Transports assign node ids (GridNode::id_ is private to keep protocol
  // code from forging sender identities).
  static void assign_id(GridNode& node, GridNodeId id) { node.id_ = id; }
};

// Routing helper: the task a protocol message belongs to (used by the
// broker, which routes purely on task ids without understanding payloads).
// Task-less control traffic (Hello) maps to the reserved TaskId 0, which no
// supervisor ever assigns.
TaskId task_of(const Message& message);

}  // namespace ugc
