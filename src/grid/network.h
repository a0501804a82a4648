#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "grid/transport.h"
#include "wire/messages.h"

namespace ugc {

// ---------------------------------------------------------------------------
// Fault injection. A FaultPlan turns the reliable FIFO transport into a
// hostile one: per-link message drop, duplication, reordering, single-bit
// corruption, latency spikes (stalls), and participant crash/rejoin. All
// faults are drawn from one seed-driven Rng in send order, so a scenario is
// exactly reproducible: the same plan and traffic always misbehave the same
// way.
// ---------------------------------------------------------------------------

// Per-link fault probabilities, each drawn independently per message.
struct LinkFaults {
  double drop = 0.0;       // message vanishes in transit
  double duplicate = 0.0;  // a second identical frame is delivered
  double reorder = 0.0;    // frame is inserted at a random queue position
  double corrupt = 0.0;    // one random payload bit is flipped
  double stall = 0.0;      // frame is parked until the grid goes quiet

  bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || corrupt > 0 ||
           stall > 0;
  }

  friend bool operator==(const LinkFaults&, const LinkFaults&) = default;
};

// A participant crash: after the node has received `after_messages`
// messages (0 = offline from the very start), it goes offline (inbound
// traffic is dropped) and loses all in-progress protocol state
// (GridNode::on_crash). It rejoins — state still lost — once `offline_for`
// further delivery attempts have elapsed, or never when `offline_for` is 0.
struct CrashSpec {
  std::uint32_t node = 0;
  std::uint64_t after_messages = 1;
  std::uint64_t offline_for = 0;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  // Default faults for every directed link; per-link overrides win.
  LinkFaults faults;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkFaults> link_overrides;
  std::vector<CrashSpec> crashes;
  // Corrupted frames are normally discarded at delivery, modeling a
  // transport with an integrity check (TCP/TLS): an application-level bit
  // flip is indistinguishable from cheating, so no verification scheme
  // could keep honest participants safe from it. Set this to deliver the
  // flipped bytes instead and exercise the wire decoders end to end
  // (undecodable frames are still counted and dropped, never thrown out of
  // the network).
  bool deliver_corrupt = false;

  bool any() const {
    return faults.any() || !link_overrides.empty() || !crashes.empty();
  }
};

struct FaultStats {
  std::uint64_t dropped = 0;             // vanished in transit
  std::uint64_t duplicated = 0;          // extra frames injected
  std::uint64_t reordered = 0;           // frames delivered out of order
  std::uint64_t corrupted = 0;           // frames with a flipped bit
  std::uint64_t corrupt_discarded = 0;   // discarded by the integrity check
  std::uint64_t corrupt_undecodable = 0; // delivered but rejected by decode
  std::uint64_t stalled = 0;             // frames parked until quiescence
  std::uint64_t dropped_offline = 0;     // frames to a crashed node
  std::uint64_t crashes = 0;
  std::uint64_t rejoins = 0;

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

// Deterministic in-process Transport with exact byte metering — the
// simulation/testing implementation of the Transport interface (the
// production one is net/tcp_transport.h).
//
// Every send() serializes the message through the wire codec, charges the
// directed link with the encoded size, and queues it FIFO; run() delivers
// until the grid goes quiet. Single-threaded and deterministic: the same
// seed-driven scenario always produces the same traffic — including every
// injected fault when a FaultPlan is set.
class SimTransport final : public Transport {
 public:
  // Registers a node and assigns its id. The node must outlive the
  // transport.
  GridNodeId add_node(GridNode& node);

  // Installs a fault plan. Must be called before any traffic flows.
  void set_fault_plan(const FaultPlan& plan);

  // Encodes, meters, and queues a message (subject to the fault plan).
  void send(GridNodeId from, GridNodeId to, const Message& message) override;

  // Delivers the next queued message (decoding it back through the codec).
  // Returns false when the queue is empty.
  bool deliver_one();

  // Delivers until idle; then releases stalled frames, then fires
  // GridNode::on_quiescent (the timeout hook) — the run ends only once none
  // of the three makes progress. Throws
  // ugc::Error after `max_deliveries` as a protocol-loop guard. Returns the
  // number of delivery attempts.
  std::size_t run(std::size_t max_deliveries = 1'000'000);

  const NetworkStats& stats() const override { return stats_; }
  const FaultStats& fault_stats() const { return fault_stats_; }
  std::size_t pending() const { return queue_.size() + parked_.size(); }

  bool offline(GridNodeId node) const override;

 private:
  struct Pending {
    GridNodeId from;
    GridNodeId to;
    Bytes payload;
    bool corrupted = false;
  };

  struct NodeFaultState {
    bool offline = false;
    std::uint64_t received = 0;
    std::uint64_t rejoin_at = 0;  // delivery tick; 0 = never
    std::size_t next_crash = 0;   // index into crashes (this node's specs)
    std::vector<CrashSpec> crashes;
  };

  const LinkFaults& faults_for(GridNodeId from, GridNodeId to) const;
  NodeFaultState* fault_state(std::uint32_t node);
  void enqueue(Pending pending, const LinkFaults& faults, Rng& rng);
  void recycle(Bytes payload);

  std::vector<GridNode*> nodes_;
  std::deque<Pending> queue_;
  std::vector<Pending> parked_;  // stalled frames, released at quiescence
  // Retired payload buffers, recycled through encode_message_into so
  // steady-state traffic stops allocating per message.
  std::vector<Bytes> buffer_pool_;
  NetworkStats stats_;

  FaultPlan plan_;
  bool faults_enabled_ = false;
  Rng fault_rng_{1};
  FaultStats fault_stats_;
  std::uint64_t delivery_ticks_ = 0;
  std::map<std::uint32_t, NodeFaultState> node_faults_;
};

// Historical name, kept so existing simulations/tests read naturally.
using SimNetwork = SimTransport;

}  // namespace ugc
