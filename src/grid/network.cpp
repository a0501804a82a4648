#include "grid/network.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "wire/codec.h"

namespace ugc {

GridNodeId SimTransport::add_node(GridNode& node) {
  const GridNodeId id{static_cast<std::uint32_t>(nodes_.size())};
  assign_id(node, id);
  nodes_.push_back(&node);
  return id;
}

namespace {

// Retired-buffer pool cap: enough to absorb any realistic in-flight burst
// while bounding idle memory.
constexpr std::size_t kMaxPooledBuffers = 256;

}  // namespace

void SimTransport::set_fault_plan(const FaultPlan& plan) {
  check(stats_.total_messages == 0,
        "SimTransport::set_fault_plan: must be installed before any traffic");
  plan_ = plan;
  faults_enabled_ = plan_.any();
  fault_rng_ = Rng(plan_.seed);
  node_faults_.clear();
  for (const CrashSpec& crash : plan_.crashes) {
    node_faults_[crash.node].crashes.push_back(crash);
  }
  // Specs fire in threshold order regardless of listing order, and
  // after_messages == 0 means the node is offline from the very start.
  for (auto& [node, state] : node_faults_) {
    std::stable_sort(state.crashes.begin(), state.crashes.end(),
                     [](const CrashSpec& a, const CrashSpec& b) {
                       return a.after_messages < b.after_messages;
                     });
    while (state.next_crash < state.crashes.size() &&
           state.crashes[state.next_crash].after_messages == 0) {
      const CrashSpec& crash = state.crashes[state.next_crash];
      ++state.next_crash;
      state.offline = true;
      state.rejoin_at = crash.offline_for == 0 ? 0 : crash.offline_for;
      ++fault_stats_.crashes;
      if (node < nodes_.size()) {
        nodes_[node]->on_crash();
      }
    }
  }
}

const LinkFaults& SimTransport::faults_for(GridNodeId from, GridNodeId to) const {
  const auto it = plan_.link_overrides.find({from.value, to.value});
  return it != plan_.link_overrides.end() ? it->second : plan_.faults;
}

SimTransport::NodeFaultState* SimTransport::fault_state(std::uint32_t node) {
  const auto it = node_faults_.find(node);
  return it == node_faults_.end() ? nullptr : &it->second;
}

bool SimTransport::offline(GridNodeId node) const {
  const auto it = node_faults_.find(node.value);
  return it != node_faults_.end() && it->second.offline;
}

void SimTransport::recycle(Bytes payload) {
  if (buffer_pool_.size() < kMaxPooledBuffers) {
    buffer_pool_.push_back(std::move(payload));
  }
}

void SimTransport::enqueue(Pending pending, const LinkFaults& faults, Rng& rng) {
  if (rng.unit_real() < faults.stall) {
    ++fault_stats_.stalled;
    parked_.push_back(std::move(pending));
    return;
  }
  if (rng.unit_real() < faults.reorder && !queue_.empty()) {
    ++fault_stats_.reordered;
    const std::size_t position = rng.uniform(queue_.size() + 1);
    queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(position),
                  std::move(pending));
    return;
  }
  queue_.push_back(std::move(pending));
}

void SimTransport::send(GridNodeId from, GridNodeId to, const Message& message) {
  check(from.value < nodes_.size(), "SimTransport::send: unknown sender ",
        from.value);
  check(to.value < nodes_.size(), "SimTransport::send: unknown recipient ",
        to.value);

  Bytes payload;
  if (!buffer_pool_.empty()) {
    payload = std::move(buffer_pool_.back());
    buffer_pool_.pop_back();
  }
  encode_message_into(message, payload);
  const std::uint64_t size = payload.size();

  stats_.record(from, to, size);

  Pending pending{from, to, std::move(payload), false};
  if (!faults_enabled_) {
    queue_.push_back(std::move(pending));
    return;
  }

  const LinkFaults& faults = faults_for(from, to);
  if (!faults.any()) {
    queue_.push_back(std::move(pending));
    return;
  }

  if (fault_rng_.unit_real() < faults.drop) {
    ++fault_stats_.dropped;
    recycle(std::move(pending.payload));
    return;
  }
  if (fault_rng_.unit_real() < faults.corrupt && !pending.payload.empty()) {
    const std::uint64_t bit =
        fault_rng_.uniform(pending.payload.size() * std::uint64_t{8});
    pending.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    pending.corrupted = true;
    ++fault_stats_.corrupted;
  }
  if (fault_rng_.unit_real() < faults.duplicate) {
    ++fault_stats_.duplicated;
    // The duplicate crosses the wire too: meter it like any other frame.
    stats_.record(from, to, size);
    Pending copy{from, to, pending.payload, pending.corrupted};
    enqueue(std::move(copy), faults, fault_rng_);
  }
  enqueue(std::move(pending), faults, fault_rng_);
}

bool SimTransport::deliver_one() {
  if (queue_.empty()) {
    return false;
  }
  ++delivery_ticks_;
  // Rejoins come first so a message can reach a node the very tick it
  // returns.
  for (auto& [node, state] : node_faults_) {
    if (state.offline && state.rejoin_at != 0 &&
        state.rejoin_at < delivery_ticks_) {
      state.offline = false;
      state.rejoin_at = 0;
      ++fault_stats_.rejoins;
    }
  }

  Pending pending = std::move(queue_.front());
  queue_.pop_front();

  NodeFaultState* receiver = fault_state(pending.to.value);
  if (receiver != nullptr && receiver->offline) {
    ++fault_stats_.dropped_offline;
    recycle(std::move(pending.payload));
    return true;
  }
  if (pending.corrupted && !plan_.deliver_corrupt) {
    // The transport's integrity check (every real grid runs over
    // TCP/TLS) rejects the frame; the sender never learns.
    ++fault_stats_.corrupt_discarded;
    recycle(std::move(pending.payload));
    return true;
  }

  Message message;
  try {
    message = decode_message(pending.payload);
  } catch (const WireError&) {
    // Only reachable with deliver_corrupt: hostile bytes must reject
    // cleanly, never crash or escape the network.
    ++fault_stats_.corrupt_undecodable;
    recycle(std::move(pending.payload));
    return true;
  }
  nodes_[pending.to.value]->on_message(pending.from, message, *this);
  if (receiver != nullptr) {
    ++receiver->received;
    while (receiver->next_crash < receiver->crashes.size() &&
           receiver->received >=
               receiver->crashes[receiver->next_crash].after_messages) {
      const CrashSpec& crash = receiver->crashes[receiver->next_crash];
      ++receiver->next_crash;
      receiver->offline = true;
      receiver->rejoin_at =
          crash.offline_for == 0 ? 0 : delivery_ticks_ + crash.offline_for;
      ++fault_stats_.crashes;
      nodes_[pending.to.value]->on_crash();
    }
  }
  recycle(std::move(pending.payload));
  return true;
}

std::size_t SimTransport::run(std::size_t max_deliveries) {
  std::size_t delivered = 0;
  for (;;) {
    while (deliver_one()) {
      ++delivered;
      check(delivered <= max_deliveries, "SimTransport::run: exceeded ",
            max_deliveries, " deliveries — protocol loop?");
    }
    if (!parked_.empty()) {
      // Stalled frames arrive late — after everything else went quiet, but
      // before any timeout fires.
      for (Pending& pending : parked_) {
        queue_.push_back(std::move(pending));
      }
      parked_.clear();
      continue;
    }
    bool timed_out = false;
    for (GridNode* node : nodes_) {
      timed_out |= node->on_quiescent(*this);
    }
    if (!timed_out) {
      break;
    }
  }
  return delivered;
}

}  // namespace ugc
