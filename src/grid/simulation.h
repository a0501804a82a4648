#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cheating.h"
#include "core/scheme_config.h"
#include "grid/network.h"
#include "scheme/registry.h"

namespace ugc {

// A participant that cheats in a simulated run.
struct CheaterSpec {
  std::size_t participant_index = 0;  // position among the participants
  double honesty_ratio = 0.5;         // r
  double guess_accuracy = 0.0;        // q
  std::uint64_t seed = 0;             // 0 = derived from the run seed
};

// A participant driven by an arbitrary HonestyPolicy — the hook that runs
// custom attackers (AdaptiveCheater, ColludingCheater, hand-written
// policies) through the full grid. Counted as a cheater in the outcome
// accounting.
struct PolicyCheaterSpec {
  std::size_t participant_index = 0;
  std::shared_ptr<const HonestyPolicy> policy;
};

// A participant exercising §2.2's malicious model: the f-work may be fully
// honest, but the screener channel is corrupted.
struct MaliciousSpec {
  std::size_t participant_index = 0;
  ScreenerConduct conduct = ScreenerConduct::kSuppress;
};

// A participant crash mid-run (see CrashSpec for the mechanics; here the
// target is named by participant index rather than node id).
struct ParticipantCrash {
  std::size_t participant_index = 0;
  std::uint64_t after_messages = 1;  // messages before crashing; 0 = at start
  std::uint64_t offline_for = 0;     // delivery ticks offline; 0 = forever
};

// One end-to-end grid scenario: a domain, a workload, a verification
// scheme, a set of participants (some possibly cheating), optionally a
// broker hiding the participants from the supervisor — and, for hostile
// grids, a fault model layered onto every link.
struct GridConfig {
  std::uint64_t domain_begin = 0;
  std::uint64_t domain_end = 1 << 10;
  std::string workload = "test";
  std::uint64_t workload_seed = 1;
  std::size_t participant_count = 4;
  SchemeConfig scheme;
  bool use_broker = false;
  std::uint64_t seed = 1;
  std::vector<CheaterSpec> cheaters;
  std::vector<PolicyCheaterSpec> policy_cheaters;
  std::vector<MaliciousSpec> malicious;
  // Hostile-grid knobs: per-link fault probabilities applied to every link,
  // plus participant crash/rejoin churn. All faults derive from fault_seed
  // (0 = derived from `seed`), so hostile runs stay bit-reproducible.
  LinkFaults faults;
  std::vector<ParticipantCrash> crashes;
  std::uint64_t fault_seed = 0;
  // Re-assignments per stalled group before its tasks abort (see
  // SupervisorNode::Plan::max_task_retries).
  std::size_t max_task_retries = 2;
  // Scheme resolution for every node in the run (null = global()); inject a
  // local registry to run custom schemes end-to-end.
  const SchemeRegistry* schemes = nullptr;
  // Supervisor-side hit validation (see SupervisorNode::Plan).
  bool validate_reported_hits = true;
};

struct ParticipantOutcome {
  TaskId task;
  std::size_t participant_index = 0;
  bool was_cheater = false;
  bool accepted = false;
  VerdictStatus status = VerdictStatus::kMalformed;
};

struct GridRunResult {
  std::vector<ParticipantOutcome> outcomes;
  // Confusion-matrix style counters over *tasks*. Aborted tasks (protocol
  // never completed — churn, loss) are counted separately: an abort is not
  // an accusation.
  std::size_t cheater_tasks_rejected = 0;  // true positives
  std::size_t cheater_tasks_accepted = 0;  // missed cheaters
  std::size_t honest_tasks_accepted = 0;
  std::size_t honest_tasks_rejected = 0;   // false accusations (must be 0)
  std::size_t tasks_aborted = 0;           // kAborted outcomes, either kind
  // Hostile-grid accounting.
  std::uint64_t tasks_reassigned = 0;
  FaultStats faults;
  // Screener hits from accepted tasks only.
  std::vector<ScreenerHit> hits;
  // Work accounting.
  std::uint64_t participant_evaluations = 0;  // genuine f evals, all nodes
  std::uint64_t supervisor_evaluations = 0;   // verification f evals
  std::uint64_t results_verified = 0;         // verifier invocations
  // Traffic.
  NetworkStats network;
  std::uint64_t messages_delivered = 0;
};

// Builds the scenario, runs the network to quiescence, and gathers results.
// Deterministic in `config.seed` (and `fault_seed` for hostile runs): two
// invocations of the same config produce byte-identical verdicts, metrics,
// traffic, and fault counters.
GridRunResult run_grid_simulation(const GridConfig& config);

}  // namespace ugc
