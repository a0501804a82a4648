#pragma once

// Seeded, deterministic WAN chaos for the grid.
//
// The paper's guarantees only matter if honest workers are never
// misclassified, and the failure mode that converts latency into an
// accusation lives in the transport: a quiescence timeout tuned for
// loopback fires on real WAN jitter, the supervisor retries, and a slow
// but honest worker looks like a stalled one. This header is the fault
// model both transports share:
//
//   ChaosPlan — one seed plus parameterized WAN distributions (built on
//     the grid/latency.h cost model: serialization = bytes/bandwidth,
//     propagation = RTT/2, plus an exponential jitter tail) and fault
//     rates: partial writes, read stalls, mid-stream disconnects, and
//     accept-time connection resets.
//   ChaosLink — the per-connection sampler. Every draw is a pure function
//     of (plan.seed, link index, call sequence), so a whole chaotic run
//     replays from one seed. Release times are monotone per link: chaos
//     delays frames but never reorders a TCP stream.
//   AdaptiveTimeout / QuiescencePolicy — the RTO-style estimator
//     (SRTT + 4·RTTVAR over observed inter-message gaps, clamped to a
//     floor/ceiling) that turns the fixed quiescence timeout into one
//     calibrated by the traffic actually seen.
//   LatencyTransport — a deterministic Transport that delivers every
//     frame after a ChaosLink-sampled delay on a virtual clock, racing
//     delivery against the same quiescence policy the TCP stack runs.
//     SimTransport injects faults at zero delay; this is the sim-side
//     counterpart that replays the latency traces the net layer injects,
//     so property tests cover the timeout/latency race without sockets.
//
// Layering: this lives in src/grid so src/net (which may include grid/)
// can consume the same plan the simulator tests replay.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "grid/latency.h"
#include "grid/transport.h"

namespace ugc {

// One seed, one network's worth of misbehavior. Everything defaults off;
// a default-constructed plan is a no-op.
struct ChaosPlan {
  std::uint64_t seed = 1;

  // WAN latency distribution (grid/latency.h semantics): every frame pays
  // bytes/bandwidth serialization queued behind the link's earlier frames,
  // plus base_rtt_ms/2 propagation, plus an exponential jitter tail with
  // mean jitter_ms.
  double base_rtt_ms = 0.0;
  double jitter_ms = 0.0;
  double bandwidth_bytes_per_s = 0.0;  // 0 = unthrottled

  // Largest byte count a single socket write may move (0 = unlimited):
  // forces the short-write paths a fast loopback never exercises.
  std::size_t partial_write_cap = 0;

  // Read stalls: with probability stall_rate per readiness event the link
  // goes deaf for 1..stall_ms milliseconds (uniform).
  double stall_rate = 0.0;
  std::uint64_t stall_ms = 0;

  // Mid-stream disconnects, sampled per outbound frame released.
  double disconnect_rate = 0.0;

  // Accept-time connection resets, sampled once per accepted connection.
  double accept_reset_rate = 0.0;

  bool delays() const {
    return base_rtt_ms > 0 || jitter_ms > 0 || bandwidth_bytes_per_s > 0;
  }
  bool any() const {
    return delays() || partial_write_cap > 0 || stall_rate > 0 ||
           disconnect_rate > 0 || accept_reset_rate > 0;
  }

  // Latency-only plan matching the grid/latency.h cost model.
  static ChaosPlan from_link_profile(const LinkProfile& profile,
                                     std::uint64_t seed);
};

// Named profiles for the CLI surface (gridd --chaos, gridload --chaos):
// "off", "light" (mild WAN: tens of ms, rare faults), "heavy" (volunteer
// uplink with aggressive stalls/resets). Throws on anything else.
ChaosPlan make_chaos_plan(const std::string& level, std::uint64_t seed);

// Per-connection sampler over a ChaosPlan. Deterministic: two links built
// from the same (plan, link_index) produce identical draw sequences.
class ChaosLink {
 public:
  ChaosLink(const ChaosPlan& plan, std::uint64_t link_index);

  // Wall-clock (or virtual-clock) time at which a `bytes`-byte frame
  // enqueued at `now_ms` comes out the far end: serialization queued
  // behind the link's earlier frames, plus propagation and jitter,
  // clamped monotone so a stream never reorders.
  std::uint64_t release_ms(std::size_t bytes, std::uint64_t now_ms);

  // Per released frame: does the connection die under this one?
  bool sample_disconnect();
  // Once per accepted connection: reset before the handshake?
  bool sample_accept_reset();
  // Per read-readiness event: nullopt = read normally, else go deaf for
  // the returned number of milliseconds.
  std::optional<std::uint64_t> sample_stall_ms();
  // Caps one socket write (identity when partial_write_cap is 0).
  std::size_t clamp_write(std::size_t n) const;

  bool delays() const { return plan_.delays(); }
  const ChaosPlan& plan() const { return plan_; }

 private:
  ChaosPlan plan_;
  Rng rng_;
  double busy_until_ms_ = 0.0;     // serialization queue horizon
  std::uint64_t last_release_ = 0;  // monotonicity clamp
};

// How the quiescence timeout is chosen. `adaptive == false` keeps the
// configured fixed timeout; adaptive mode tracks the traffic's own gap
// distribution. Either way the result is clamped to [floor_ms,
// ceiling_ms] — the bounds are policy, not an adaptive-only detail.
struct QuiescencePolicy {
  bool adaptive = false;
  std::uint64_t floor_ms = 100;
  std::uint64_t ceiling_ms = 10000;
  double multiplier = 3.0;  // safety margin over the estimated gap
};

// TCP-RTO-shaped estimator (RFC 6298 weights) over inter-message gaps:
// timeout = clamp(multiplier * (SRTT + 4 * RTTVAR), floor, ceiling). The
// fallback timeout applies until enough samples accumulate, and always
// when the policy is not adaptive — clamped to [floor_ms, ceiling_ms] in
// every case.
class AdaptiveTimeout {
 public:
  AdaptiveTimeout() = default;
  explicit AdaptiveTimeout(QuiescencePolicy policy) : policy_(policy) {}

  void record_gap(std::uint64_t gap_ms);
  std::uint64_t timeout_ms(std::uint64_t fallback_ms) const;

  std::uint64_t samples() const { return samples_; }
  const QuiescencePolicy& policy() const { return policy_; }

 private:
  QuiescencePolicy policy_;
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  std::uint64_t samples_ = 0;
};

// Deterministic latency-replaying Transport: frames encode through the
// wire codec (byte metering matches the other transports), wait in a
// virtual-clock queue until their ChaosLink release time, and race the
// same quiescence policy TcpTransport runs. Single-threaded; run() is the
// protocol thread. Mid-stream disconnects drop the sampled frame — the
// sim-side image of a connection dying with traffic in flight.
class LatencyTransport final : public Transport {
 public:
  struct Options {
    ChaosPlan plan;
    QuiescencePolicy quiescence;
    std::uint64_t quiescence_timeout_ms = 1000;  // fixed/base timeout
  };

  explicit LatencyTransport(Options options);

  GridNodeId add_node(GridNode& node);

  void send(GridNodeId from, GridNodeId to, const Message& message) override;
  const NetworkStats& stats() const override { return stats_; }

  // Runs deliveries and quiescence cycles until every node is
  // done reacting and the queue is dry. Returns delivered-frame count;
  // throws past `max_steps` (a protocol livelock, not a chaos effect).
  std::size_t run(std::size_t max_steps = 1000000);

  std::uint64_t now_ms() const { return vnow_ms_; }
  std::uint64_t quiescence_fires() const { return quiescence_fires_; }
  std::uint64_t frames_delayed() const { return frames_delayed_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t current_timeout_ms() const {
    return estimator_.timeout_ms(options_.quiescence_timeout_ms);
  }

 private:
  struct InFlight {
    GridNodeId from;
    GridNodeId to;
    Bytes payload;
  };

  ChaosLink& link(GridNodeId from, GridNodeId to);
  void deliver(const InFlight& frame);

  Options options_;
  AdaptiveTimeout estimator_;
  std::vector<GridNode*> nodes_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, ChaosLink> links_;
  // (release_ms, sequence) -> frame: release order, FIFO within a tick.
  std::map<std::pair<std::uint64_t, std::uint64_t>, InFlight> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t vnow_ms_ = 0;
  std::uint64_t last_delivery_ms_ = 0;
  bool delivered_any_ = false;
  NetworkStats stats_;
  Bytes encode_scratch_;
  std::uint64_t quiescence_fires_ = 0;
  std::uint64_t frames_delayed_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace ugc
