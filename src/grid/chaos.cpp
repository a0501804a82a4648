#include "grid/chaos.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "wire/codec.h"

namespace ugc {

namespace {

// Stream separation: each link's generator is seeded from the plan seed
// and the link index through distinct odd multipliers, so link 0 of seed
// S and link 1 of seed S share no prefix, and neither does link 0 of
// seed S+1.
std::uint64_t link_seed(std::uint64_t plan_seed, std::uint64_t link_index) {
  return (plan_seed * 0x9E3779B97F4A7C15ULL) ^
         ((link_index + 1) * 0xBF58476D1CE4E5B9ULL);
}

}  // namespace

ChaosPlan ChaosPlan::from_link_profile(const LinkProfile& profile,
                                       std::uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  plan.base_rtt_ms = profile.rtt_seconds * 1000.0;
  plan.bandwidth_bytes_per_s = profile.bandwidth_bytes_per_second;
  return plan;
}

ChaosPlan make_chaos_plan(const std::string& level, std::uint64_t seed) {
  ChaosPlan plan;
  plan.seed = seed;
  if (level == "off") {
    return ChaosPlan{};  // any() == false: no hooks armed at all
  }
  if (level == "light") {
    // A decent consumer link: tens of ms of latency, occasional hiccups.
    plan.base_rtt_ms = 30;
    plan.jitter_ms = 10;
    plan.bandwidth_bytes_per_s = 4e6;
    plan.partial_write_cap = 4096;
    plan.stall_rate = 0.02;
    plan.stall_ms = 80;
    plan.disconnect_rate = 0.002;
    plan.accept_reset_rate = 0.02;
    return plan;
  }
  if (level == "heavy") {
    // The paper's volunteer uplink (grid/latency.h defaults) plus
    // aggressive stalls and churn.
    plan.base_rtt_ms = 80;
    plan.jitter_ms = 40;
    plan.bandwidth_bytes_per_s = 1.25e6;
    plan.partial_write_cap = 512;
    plan.stall_rate = 0.1;
    plan.stall_ms = 250;
    plan.disconnect_rate = 0.01;
    plan.accept_reset_rate = 0.1;
    return plan;
  }
  check(false, "make_chaos_plan: unknown chaos level '", level,
        "' (want off|light|heavy)");
  return plan;  // unreachable
}

ChaosLink::ChaosLink(const ChaosPlan& plan, std::uint64_t link_index)
    : plan_(plan), rng_(link_seed(plan.seed, link_index)) {}

std::uint64_t ChaosLink::release_ms(std::size_t bytes, std::uint64_t now_ms) {
  // Serialization queues behind whatever this link is already moving.
  double start = std::max(static_cast<double>(now_ms), busy_until_ms_);
  if (plan_.bandwidth_bytes_per_s > 0) {
    busy_until_ms_ =
        start + 1000.0 * static_cast<double>(bytes) / plan_.bandwidth_bytes_per_s;
  } else {
    busy_until_ms_ = start;
  }
  double latency = plan_.base_rtt_ms / 2.0;
  if (plan_.jitter_ms > 0) {
    // Exponential tail: most frames near the base, a few much later —
    // the shape that actually trips fixed timeouts.
    latency += -plan_.jitter_ms * std::log(1.0 - rng_.unit_real());
  }
  const auto release =
      static_cast<std::uint64_t>(std::llround(busy_until_ms_ + latency));
  // A stream may be slowed, never reordered.
  last_release_ = std::max(release, last_release_);
  return last_release_;
}

bool ChaosLink::sample_disconnect() {
  return plan_.disconnect_rate > 0 && rng_.bernoulli(plan_.disconnect_rate);
}

bool ChaosLink::sample_accept_reset() {
  return plan_.accept_reset_rate > 0 && rng_.bernoulli(plan_.accept_reset_rate);
}

std::optional<std::uint64_t> ChaosLink::sample_stall_ms() {
  if (plan_.stall_rate <= 0 || plan_.stall_ms == 0 ||
      !rng_.bernoulli(plan_.stall_rate)) {
    return std::nullopt;
  }
  return rng_.uniform(plan_.stall_ms) + 1;
}

std::size_t ChaosLink::clamp_write(std::size_t n) const {
  if (plan_.partial_write_cap == 0) {
    return n;
  }
  return std::min(n, plan_.partial_write_cap);
}

void AdaptiveTimeout::record_gap(std::uint64_t gap_ms) {
  const double gap = static_cast<double>(gap_ms);
  if (samples_ == 0) {
    srtt_ms_ = gap;
    rttvar_ms_ = gap / 2.0;
  } else {
    // RFC 6298 weights (alpha = 1/8, beta = 1/4).
    rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - gap);
    srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * gap;
  }
  ++samples_;
}

std::uint64_t AdaptiveTimeout::timeout_ms(std::uint64_t fallback_ms) const {
  // Every path honors [floor_ms, ceiling_ms] — including the non-adaptive
  // one and the warm-up fallback. Previously the non-adaptive path returned
  // the configured fallback verbatim, so a fallback below the floor could
  // fire before a slow link's first frames landed (and one above the
  // ceiling could stall shutdown past the policy's own bound).
  double estimate = static_cast<double>(fallback_ms);
  if (policy_.adaptive && samples_ >= 4) {
    estimate = policy_.multiplier * (srtt_ms_ + 4.0 * rttvar_ms_);
  }
  estimate = std::max(estimate, static_cast<double>(policy_.floor_ms));
  estimate = std::min(estimate, static_cast<double>(policy_.ceiling_ms));
  return static_cast<std::uint64_t>(std::llround(estimate));
}

LatencyTransport::LatencyTransport(Options options)
    : options_(std::move(options)), estimator_(options_.quiescence) {}

GridNodeId LatencyTransport::add_node(GridNode& node) {
  const GridNodeId id{static_cast<std::uint32_t>(nodes_.size())};
  assign_id(node, id);
  nodes_.push_back(&node);
  return id;
}

ChaosLink& LatencyTransport::link(GridNodeId from, GridNodeId to) {
  const auto key = std::make_pair(from.value, to.value);
  auto it = links_.find(key);
  if (it == links_.end()) {
    // Directed-link index: stable under any send order.
    const std::uint64_t index =
        static_cast<std::uint64_t>(from.value) * 1000003ULL + to.value;
    it = links_.emplace(key, ChaosLink(options_.plan, index)).first;
  }
  return it->second;
}

void LatencyTransport::send(GridNodeId from, GridNodeId to,
                            const Message& message) {
  check(to.value < nodes_.size(), "LatencyTransport::send: unknown node ",
        to.value);
  encode_message_into(message, encode_scratch_);
  stats_.record(from, to, encode_scratch_.size());
  ChaosLink& l = link(from, to);
  if (l.sample_disconnect()) {
    // The connection died under this frame: in-flight traffic is lost.
    ++frames_dropped_;
    return;
  }
  const std::uint64_t release = l.release_ms(encode_scratch_.size(), vnow_ms_);
  if (release > vnow_ms_) {
    ++frames_delayed_;
  }
  queue_.emplace(std::make_pair(release, next_seq_++),
                 InFlight{from, to, encode_scratch_});
}

void LatencyTransport::deliver(const InFlight& frame) {
  if (delivered_any_) {
    estimator_.record_gap(vnow_ms_ - last_delivery_ms_);
  }
  delivered_any_ = true;
  last_delivery_ms_ = vnow_ms_;
  const Message message = decode_message(BytesView(frame.payload));
  nodes_[frame.to.value]->on_message(frame.from, message, *this);
}

std::size_t LatencyTransport::run(std::size_t max_steps) {
  std::size_t delivered = 0;
  std::size_t steps = 0;
  std::uint64_t last_activity = vnow_ms_;
  for (;;) {
    check(++steps <= max_steps,
          "LatencyTransport::run: exceeded ", max_steps,
          " steps (protocol livelock?)");
    bool progressed = false;
    while (!queue_.empty() && queue_.begin()->first.first <= vnow_ms_) {
      const InFlight frame = std::move(queue_.begin()->second);
      queue_.erase(queue_.begin());
      deliver(frame);
      ++delivered;
      progressed = true;
      last_activity = vnow_ms_;
    }
    if (progressed) {
      continue;  // replies sent at zero latency may already be due
    }
    const std::uint64_t timeout =
        estimator_.timeout_ms(options_.quiescence_timeout_ms);
    if (queue_.empty()) {
      // Dry and quiet: one quiescence cycle; stop when nobody reacts.
      vnow_ms_ = last_activity + timeout;
      ++quiescence_fires_;
      bool kept = false;
      for (GridNode* node : nodes_) {
        kept = node->on_quiescent(*this) || kept;
      }
      if (!kept && queue_.empty()) {
        return delivered;
      }
      last_activity = vnow_ms_;
      continue;
    }
    const std::uint64_t next = queue_.begin()->first.first;
    if (next > last_activity + timeout) {
      // The silence before the next frame lands outlasts the quiescence
      // timeout: the timeout wins the race, exactly as it would on the
      // real clock — the frame is still in flight when retries fire.
      vnow_ms_ = last_activity + timeout;
      ++quiescence_fires_;
      for (GridNode* node : nodes_) {
        node->on_quiescent(*this);
      }
      last_activity = vnow_ms_;
    } else {
      vnow_ms_ = next;
    }
  }
}

}  // namespace ugc
