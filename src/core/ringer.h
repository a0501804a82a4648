#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "core/cheating.h"
#include "core/task.h"

namespace ugc {

// The Golle–Mironov ringer scheme [8], implemented as the paper's related-
// work baseline.
//
// The supervisor secretly picks d inputs ("ringers") from the participant's
// domain, precomputes their images f(x), and hands the participant the
// *images only* alongside the task. Because f is one-way, the participant
// can locate the ringers only by actually evaluating f across the domain; a
// cheater that skipped a fraction (1-r) of D misses each ringer with
// probability (1-r) and survives with probability r^d.
//
// Unlike CBS this works only for one-way f — the restriction that motivates
// the paper's generic scheme.
struct RingerConfig {
  std::size_t ringer_count = 10;  // d
  std::uint64_t seed = 0;

  friend bool operator==(const RingerConfig&, const RingerConfig&) = default;
};

struct RingerReport {
  TaskId task;
  // Inputs whose image matched a planted ringer image.
  std::vector<std::uint64_t> found_inputs;

  friend bool operator==(const RingerReport&, const RingerReport&) = default;
};

struct RingerVerdict {
  bool accepted = false;
  std::size_t ringers_found = 0;
  std::size_t ringers_expected = 0;
};

class RingerSupervisor {
 public:
  RingerSupervisor(Task task, RingerConfig config);

  // The planted images shipped with the task assignment (inputs stay secret).
  const std::vector<Bytes>& planted_images() const { return images_; }

  // Accepts iff every planted ringer input was reported.
  RingerVerdict verify(const RingerReport& report) const;

  // Supervisor-side precomputation cost (d evaluations of f).
  std::uint64_t precompute_evaluations() const { return inputs_.size(); }

 private:
  Task task_;
  std::vector<std::uint64_t> inputs_;  // secret ringer inputs
  std::vector<Bytes> images_;          // f of each, in matching order
};

class RingerParticipant {
 public:
  RingerParticipant(Task task, std::vector<Bytes> planted_images,
                    std::shared_ptr<const HonestyPolicy> policy);

  // Sweeps the domain per the honesty policy and reports every input whose
  // (claimed) value matches a planted image.
  RingerReport scan();

  // f evaluations genuinely performed (= r·n in expectation for a cheater).
  std::uint64_t honest_evaluations() const { return honest_evaluations_; }

  // Screener hits gathered in the sweep (populated by scan()).
  const std::vector<ScreenerHit>& hits() const { return hits_; }

 private:
  Task task_;
  std::vector<Bytes> images_;
  std::shared_ptr<const HonestyPolicy> policy_;
  std::uint64_t honest_evaluations_ = 0;
  std::vector<ScreenerHit> hits_;
};

}  // namespace ugc
