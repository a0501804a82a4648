#include "scheme/exchange.h"

#include <map>
#include <utility>

#include "common/error.h"

namespace ugc {

SchemeExchangeResult run_scheme_exchange(
    const VerificationScheme& scheme, const std::vector<Task>& tasks,
    const SchemeConfig& config, std::shared_ptr<const HonestyPolicy> policy,
    std::shared_ptr<const ResultVerifier> verifier, std::uint64_t seed) {
  check(!tasks.empty(), "run_scheme_exchange: at least one task required");
  if (verifier == nullptr) {
    verifier = std::make_shared<RecomputeVerifier>(tasks.front().f);
  }

  SupervisorContext supervisor_context;
  supervisor_context.tasks = tasks;
  supervisor_context.config = config;
  supervisor_context.verifier = std::move(verifier);
  supervisor_context.seed = seed;
  const std::unique_ptr<SupervisorSession> supervisor =
      scheme.open_supervisor(std::move(supervisor_context));

  std::map<TaskId, std::unique_ptr<ParticipantSession>> participants;
  for (const Task& task : tasks) {
    ParticipantContext context{task, config,
                               supervisor->planted_images(task.id), policy};
    participants.emplace(task.id,
                         scheme.open_participant(std::move(context)));
  }

  SchemeExchangeResult result;
  std::map<TaskId, Verdict> verdicts;

  // Relay until every task is settled. Each round moves every pending
  // message one hop; a round that moves nothing while verdicts are missing
  // means the scheme stalled.
  const std::size_t max_rounds = 1'000'000;
  for (std::size_t round = 0; verdicts.size() < tasks.size(); ++round) {
    check(round < max_rounds, "run_scheme_exchange: relay cap exceeded");
    bool moved = false;

    for (auto& [task_id, participant] : participants) {
      while (auto message = participant->next_message()) {
        supervisor->on_message(task_of(*message), *message);
        moved = true;
      }
    }
    while (auto out = supervisor->next_message()) {
      const auto it = participants.find(out->task);
      check(it != participants.end(),
            "run_scheme_exchange: supervisor addressed unknown task ",
            out->task.value);
      it->second->on_message(out->message);
      moved = true;
    }
    while (auto verdict = supervisor->next_verdict()) {
      verdicts.emplace(verdict->task, std::move(*verdict));
      moved = true;
    }
    while (auto hits = supervisor->next_hits()) {
      result.supervisor_hits.push_back(std::move(*hits));
      moved = true;
    }

    check(moved || verdicts.size() >= tasks.size(),
          "run_scheme_exchange: exchange stalled with ", verdicts.size(),
          " of ", tasks.size(), " verdicts");
  }

  for (const Task& task : tasks) {
    const auto verdict_it = verdicts.find(task.id);
    check(verdict_it != verdicts.end(),
          "run_scheme_exchange: no verdict for task ", task.id.value);
    result.verdicts.push_back(verdict_it->second);
    const auto& participant = participants.at(task.id);
    result.reports.push_back(participant->screener_report());
    result.participant_evaluations += participant->honest_evaluations();
  }
  result.results_verified = supervisor->results_verified();
  return result;
}

SchemeExchangeResult run_scheme_exchange(
    const VerificationScheme& scheme, const Task& task,
    const SchemeConfig& config, std::shared_ptr<const HonestyPolicy> policy,
    std::shared_ptr<const ResultVerifier> verifier, std::uint64_t seed) {
  return run_scheme_exchange(scheme, std::vector<Task>{task}, config,
                             std::move(policy), std::move(verifier), seed);
}

}  // namespace ugc
