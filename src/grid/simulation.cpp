#include "grid/simulation.h"

#include <map>
#include <memory>

#include "common/error.h"
#include "grid/broker.h"
#include "grid/participant_node.h"
#include "grid/supervisor_node.h"

namespace ugc {

GridRunResult run_grid_simulation(const GridConfig& config) {
  check(config.participant_count >= 1,
        "run_grid_simulation: need at least one participant");
  check(config.domain_begin < config.domain_end,
        "run_grid_simulation: empty domain");
  for (const CheaterSpec& cheater : config.cheaters) {
    check(cheater.participant_index < config.participant_count,
          "run_grid_simulation: cheater index ", cheater.participant_index,
          " out of range");
  }
  for (const PolicyCheaterSpec& spec : config.policy_cheaters) {
    check(spec.participant_index < config.participant_count,
          "run_grid_simulation: policy cheater index ",
          spec.participant_index, " out of range");
    check(spec.policy != nullptr,
          "run_grid_simulation: policy cheater needs a policy");
  }
  for (const MaliciousSpec& spec : config.malicious) {
    check(spec.participant_index < config.participant_count,
          "run_grid_simulation: malicious index ", spec.participant_index,
          " out of range");
  }
  for (const ParticipantCrash& crash : config.crashes) {
    check(crash.participant_index < config.participant_count,
          "run_grid_simulation: crash index ", crash.participant_index,
          " out of range");
  }

  SimNetwork network;

  // Participants (honest unless named in `cheaters` / `policy_cheaters`).
  std::vector<std::unique_ptr<ParticipantNode>> participants;
  std::vector<bool> is_cheater(config.participant_count, false);
  participants.reserve(config.participant_count);
  for (std::size_t i = 0; i < config.participant_count; ++i) {
    ParticipantNode::Options options;
    options.schemes = config.schemes;
    for (const CheaterSpec& cheater : config.cheaters) {
      if (cheater.participant_index == i) {
        const std::uint64_t seed =
            cheater.seed != 0 ? cheater.seed
                              : config.seed ^ (0xc0ffee + i * 0x9e3779b9);
        options.policy = make_semi_honest_cheater(
            {cheater.honesty_ratio, cheater.guess_accuracy, seed});
        is_cheater[i] = true;
      }
    }
    for (const PolicyCheaterSpec& spec : config.policy_cheaters) {
      if (spec.participant_index == i) {
        options.policy = spec.policy;
        is_cheater[i] = true;
      }
    }
    for (const MaliciousSpec& spec : config.malicious) {
      if (spec.participant_index == i) {
        options.screener_conduct = spec.conduct;
        options.conduct_seed = config.seed ^ (0xbad + i);
      }
    }
    participants.push_back(std::make_unique<ParticipantNode>(std::move(options)));
  }

  std::vector<GridNodeId> worker_ids;
  worker_ids.reserve(participants.size());
  for (const auto& participant : participants) {
    worker_ids.push_back(network.add_node(*participant));
  }

  // Hostile-grid wiring: link faults plus participant churn, all seeded.
  if (config.faults.any() || !config.crashes.empty()) {
    FaultPlan plan;
    plan.seed = config.fault_seed != 0 ? config.fault_seed
                                       : config.seed ^ 0xfa017ed5eedULL;
    plan.faults = config.faults;
    for (const ParticipantCrash& crash : config.crashes) {
      plan.crashes.push_back(
          CrashSpec{worker_ids[crash.participant_index].value,
                    crash.after_messages, crash.offline_for});
    }
    network.set_fault_plan(plan);
  }

  // Optional GRACE-style broker in the middle.
  std::unique_ptr<BrokerNode> broker;
  std::vector<GridNodeId> slots;
  if (config.use_broker) {
    broker = std::make_unique<BrokerNode>(worker_ids);
    const GridNodeId broker_id = network.add_node(*broker);
    slots.assign(config.participant_count, broker_id);
  } else {
    slots = worker_ids;
  }

  SupervisorNode::Plan plan;
  plan.domain = Domain(config.domain_begin, config.domain_end);
  plan.workload = config.workload;
  plan.workload_seed = config.workload_seed;
  plan.scheme = config.scheme;
  plan.seed = config.seed;
  plan.schemes = config.schemes;
  plan.validate_reported_hits = config.validate_reported_hits;
  plan.max_task_retries = config.max_task_retries;
  SupervisorNode supervisor(plan, slots);
  network.add_node(supervisor);

  supervisor.start(network);
  const std::size_t delivered = network.run();
  check(supervisor.done(),
        "run_grid_simulation: network went quiet before all verdicts");

  GridRunResult result;
  result.messages_delivered = delivered;
  result.network = network.stats();
  result.faults = network.fault_stats();
  result.tasks_reassigned = supervisor.tasks_reassigned();
  result.hits = supervisor.accepted_hits();
  result.supervisor_evaluations = supervisor.verification_evaluations();
  result.results_verified = supervisor.results_verified();
  for (const auto& participant : participants) {
    result.participant_evaluations += participant->honest_evaluations();
  }

  // Attribute each final outcome to the participant that actually held the
  // task: directly via the peer node, or through the broker's routing table
  // when one hides the workers. (Re-assignment means task ids alone no
  // longer identify a participant.)
  std::map<std::uint32_t, std::size_t> index_of_node;
  for (std::size_t i = 0; i < worker_ids.size(); ++i) {
    index_of_node.emplace(worker_ids[i].value, i);
  }
  for (const SupervisorNode::TaskOutcome& outcome : supervisor.outcomes()) {
    GridNodeId worker = outcome.peer;
    if (broker != nullptr) {
      if (const auto routed = broker->worker_of(outcome.task)) {
        worker = *routed;
      }
    }
    const auto indexed = index_of_node.find(worker.value);

    ParticipantOutcome po;
    po.task = outcome.task;
    // A task aborted before its assignment ever cleared the broker has no
    // route; fall back to the slot the supervisor actually targeted (valid
    // for retried ids too, unlike anything derived from the task number).
    po.participant_index = indexed != index_of_node.end()
                               ? indexed->second
                               : outcome.slot % config.participant_count;
    po.was_cheater = is_cheater[po.participant_index];
    po.accepted = outcome.verdict.accepted();
    po.status = outcome.verdict.status;
    result.outcomes.push_back(po);

    if (po.status == VerdictStatus::kAborted) {
      ++result.tasks_aborted;  // no protocol outcome — not an accusation
    } else if (po.was_cheater) {
      po.accepted ? ++result.cheater_tasks_accepted
                  : ++result.cheater_tasks_rejected;
    } else {
      po.accepted ? ++result.honest_tasks_accepted
                  : ++result.honest_tasks_rejected;
    }
  }
  return result;
}

}  // namespace ugc
