#pragma once

#include <cstdint>
#include <string>

#include "core/ringer.h"
#include "core/settings.h"

namespace ugc {

// The verification schemes the grid can run. kDoubleCheck and
// kNaiveSampling are the paper's strawman baselines (§1), kRinger is the
// related-work baseline [8], kCbs / kNiCbs are the paper's contribution.
enum class SchemeKind : std::uint8_t {
  kDoubleCheck = 0,
  kNaiveSampling = 1,
  kCbs = 2,
  kNiCbs = 3,
  kRinger = 4,
};

const char* to_string(SchemeKind kind);

// Double-check: the supervisor assigns each subdomain to `replicas`
// participants and compares their full uploads.
struct DoubleCheckConfig {
  std::size_t replicas = 2;

  friend bool operator==(const DoubleCheckConfig&, const DoubleCheckConfig&) =
      default;
};

// Naive sampling (§1's "improved solution"): the participant uploads all n
// results; the supervisor recomputes m random ones.
struct NaiveSamplingConfig {
  std::size_t sample_count = 33;

  friend bool operator==(const NaiveSamplingConfig&,
                         const NaiveSamplingConfig&) = default;
};

// Union of per-scheme parameters; `kind` selects which members apply.
struct SchemeConfig {
  SchemeKind kind = SchemeKind::kCbs;
  // Optional SchemeRegistry name. When non-empty it overrides `kind` in
  // resolution — the hook that lets custom (registered) schemes ride through
  // TaskAssignment without a reserved enum value.
  std::string name;
  DoubleCheckConfig double_check;
  NaiveSamplingConfig naive;
  CbsConfig cbs;
  NiCbsConfig nicbs;
  RingerConfig ringer;
  // Epoched verification (scheme "pipelined-cbs"); epochs <= 1 = one-shot.
  PipelineConfig pipeline;

  friend bool operator==(const SchemeConfig&, const SchemeConfig&) = default;
};

}  // namespace ugc
