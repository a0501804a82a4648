#include "grid/supervisor_node.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.h"

namespace ugc {

SupervisorNode::SupervisorNode(Plan plan, std::vector<GridNodeId> slots)
    : plan_(std::move(plan)), slots_(std::move(slots)), rng_(plan_.seed) {
  check(!slots_.empty(), "SupervisorNode: at least one assignment slot");
  const WorkloadRegistry& registry =
      plan_.registry != nullptr ? *plan_.registry : WorkloadRegistry::global();
  bundle_ = registry.make(plan_.workload, plan_.workload_seed);

  const SchemeRegistry& schemes =
      plan_.schemes != nullptr ? *plan_.schemes : SchemeRegistry::global();
  scheme_ = &schemes.resolve(plan_.scheme);

  // Route all verification work through a counting wrapper so the
  // supervisor's compute cost is measurable.
  counting_f_ = std::make_shared<CountingComputeFunction>(bundle_.f);
  if (bundle_.verifier != nullptr) {
    verifier_ = bundle_.verifier;  // cheap workload-specific verifier
  } else {
    verifier_ = std::make_shared<RecomputeVerifier>(counting_f_);
  }

  const std::size_t replicas = scheme_->replicas(plan_.scheme);
  check(replicas >= 1, "SupervisorNode: scheme reports zero replicas");
  check(slots_.size() % replicas == 0, "SupervisorNode: slot count ",
        slots_.size(), " not divisible by replica count ", replicas);
}

Task SupervisorNode::task_for(TaskId id, const Domain& domain) const {
  return Task::make(id, domain, counting_f_, bundle_.screener);
}

void SupervisorNode::assign_group(GroupState& group, Transport& transport) {
  const std::size_t replicas = group.slots.size();

  SupervisorContext context;
  context.config = plan_.scheme;
  context.verifier = verifier_;
  // Fresh sampling randomness per attempt: a re-assigned task must never
  // reuse challenge positions a previous (possibly colluding) holder saw.
  context.seed = rng_.next();
  group.tasks.clear();
  for (std::size_t replica = 0; replica < replicas; ++replica) {
    const TaskId id{next_task_++};
    group.tasks.push_back(id);
    context.tasks.push_back(task_for(id, group.domain));
  }

  auto session = scheme_->open_supervisor(std::move(context));
  const std::size_t session_index = sessions_.size();
  for (std::size_t replica = 0; replica < replicas; ++replica) {
    const TaskId id = group.tasks[replica];

    TaskState state;
    state.domain = group.domain;
    state.peer = slots_[group.slots[replica]];
    state.slot_index = group.slots[replica];
    state.session_index = session_index;
    tasks_.emplace(id, std::move(state));

    TaskAssignment assignment;
    assignment.task = id;
    assignment.domain_begin = group.domain.begin();
    assignment.domain_end = group.domain.end();
    assignment.workload = plan_.workload;
    assignment.workload_seed = plan_.workload_seed;
    assignment.scheme = plan_.scheme;
    assignment.ringer_images = session->planted_images(id);
    transport.send(this->id(), slots_[group.slots[replica]], assignment);
  }
  sessions_.push_back(std::move(session));
  // Some schemes speak first from the supervisor side; flush any opening
  // messages right behind the assignments.
  drain(*sessions_.back(), transport);
}

void SupervisorNode::start(Transport& transport) {
  check(!started_, "SupervisorNode::start: already started");
  started_ = true;

  const std::size_t replicas = scheme_->replicas(plan_.scheme);
  const std::size_t group_count = slots_.size() / replicas;
  const std::vector<Domain> parts = plan_.domain.split(group_count);

  groups_.reserve(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    GroupState group;
    group.domain = parts[g];
    for (std::size_t replica = 0; replica < replicas; ++replica) {
      group.slots.push_back(g * replicas + replica);
    }
    groups_.push_back(std::move(group));
  }
  for (GroupState& group : groups_) {
    assign_group(group, transport);
  }
}

void SupervisorNode::replace_slot(std::size_t slot_index, GridNodeId peer,
                                  Transport* transport) {
  check(slot_index < slots_.size(),
        "SupervisorNode::replace_slot: slot ", slot_index, " of ",
        slots_.size());
  slots_[slot_index] = peer;
  for (auto& [id, state] : tasks_) {
    if (state.superseded || state.verdict.has_value()) {
      continue;
    }
    if (state.slot_index != slot_index) {
      continue;
    }
    state.peer = peer;
    if (transport == nullptr) {
      continue;
    }
    // Pipelined re-entry: ship the resume point ahead of the re-built
    // assignment so the replacement attempt starts computing at the first
    // unverified epoch instead of redoing acknowledged work (or idling
    // until the quiescence retry re-assigns the whole group).
    const SupervisorSession& session = *sessions_[state.session_index];
    const auto epoch = session.resume_epoch(id);
    if (!epoch.has_value()) {
      continue;  // one-shot scheme: nothing to resume mid-protocol
    }
    transport->send(this->id(), peer, EpochResume{id, *epoch});
    TaskAssignment assignment;
    assignment.task = id;
    assignment.domain_begin = state.domain.begin();
    assignment.domain_end = state.domain.end();
    assignment.workload = plan_.workload;
    assignment.workload_seed = plan_.workload_seed;
    assignment.scheme = plan_.scheme;
    assignment.ringer_images = session.planted_images(id);
    transport->send(this->id(), peer, assignment);
  }
}

void SupervisorNode::settle(TaskState& state, Verdict verdict,
                            Transport& transport) {
  if (state.verdict.has_value()) {
    return;  // first verdict wins; late duplicates are dropped
  }
  state.verdict = verdict;
  transport.send(this->id(), state.peer, verdict);
}

void SupervisorNode::drain(SupervisorSession& session, Transport& transport) {
  while (auto out = session.next_message()) {
    const auto it = tasks_.find(out->task);
    if (it == tasks_.end() || it->second.superseded) {
      continue;  // session addressed a task this node no longer runs
    }
    transport.send(this->id(), it->second.peer, to_message(out->message));
  }
  while (auto verdict = session.next_verdict()) {
    const auto it = tasks_.find(verdict->task);
    if (it == tasks_.end() || it->second.superseded) {
      continue;
    }
    settle(it->second, std::move(*verdict), transport);
  }
  while (auto hits = session.next_hits()) {
    const auto it = tasks_.find(hits->task);
    if (it == tasks_.end() || it->second.superseded) {
      continue;
    }
    std::vector<ScreenerHit>& sink = it->second.hits;
    sink.insert(sink.end(), std::make_move_iterator(hits->hits.begin()),
                std::make_move_iterator(hits->hits.end()));
  }
}

void SupervisorNode::handle_report(TaskState& state,
                                   const ScreenerReport& report) {
  if (!scheme_->trusts_screener_reports()) {
    return;  // the scheme's session screens results itself
  }
  if (!plan_.validate_reported_hits) {
    state.hits.insert(state.hits.end(), report.hits.begin(),
                      report.hits.end());
    return;
  }
  for (const ScreenerHit& hit : report.hits) {
    if (!state.domain.contains(hit.x)) {
      continue;
    }
    // One f evaluation per reported hit: cheap, since hits are rare by
    // construction, and it reduces the screener channel to the same
    // trust level as a sampled result.
    const Bytes value = counting_f_->evaluate(hit.x);
    if (auto canonical = bundle_.screener->screen(hit.x, value)) {
      state.hits.push_back(ScreenerHit{hit.x, std::move(*canonical)});
    }
  }
}

void SupervisorNode::on_message(GridNodeId from, const Message& message,
                                Transport& transport) {
  const TaskId id = task_of(message);
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    ++stale_frames_dropped_;  // stale or misrouted traffic
    return;
  }
  TaskState& state = it->second;
  if (state.superseded || from != state.peer) {
    // A superseded attempt's peer (or anyone spoofing one) cannot reach the
    // replacement session: duplicated or stalled frames from a pre-retry
    // attempt die here — counted, no longer silent.
    ++stale_frames_dropped_;
    return;
  }

  if (const auto* report = std::get_if<ScreenerReport>(&message)) {
    handle_report(state, *report);
    return;
  }
  auto scheme_message = to_scheme_message(message);
  if (!scheme_message.has_value()) {
    return;  // grid-only traffic a supervisor never consumes
  }
  SupervisorSession& session = *sessions_[state.session_index];
  session.on_message(id, *scheme_message);
  drain(session, transport);
}

bool SupervisorNode::on_quiescent(Transport& transport) {
  if (!started_) {
    return false;
  }
  bool progressed = false;
  for (GroupState& group : groups_) {
    std::size_t unsettled = 0;
    for (const TaskId id : group.tasks) {
      if (!tasks_.at(id).verdict.has_value()) {
        ++unsettled;
      }
    }
    if (unsettled == 0) {
      continue;
    }

    // A partially settled group cannot be retried wholesale (its settled
    // verdicts are final); and a group out of retry budget stops here.
    // Either way the remainder aborts: no accusation, just a clean end.
    if (unsettled < group.tasks.size() ||
        group.retries >= plan_.max_task_retries) {
      for (const TaskId id : group.tasks) {
        TaskState& state = tasks_.at(id);
        if (!state.verdict.has_value()) {
          settle(state,
                 Verdict{id, VerdictStatus::kAborted, std::nullopt,
                         concat("aborted after ", group.retries, " retries")},
                 transport);
        }
      }
      progressed = true;
      continue;
    }

    // Full retry: retire this attempt, rotate every replica to the next
    // slot, and re-assign under fresh task ids and fresh sampling
    // randomness.
    ++group.retries;
    tasks_reassigned_ += group.tasks.size();
    for (const TaskId id : group.tasks) {
      TaskState& state = tasks_.at(id);
      state.superseded = true;
      state.verdict = Verdict{id, VerdictStatus::kAborted, std::nullopt,
                              concat("superseded by retry ", group.retries)};
      // Tell the (possibly slow-but-honest) old peer to drop the task.
      transport.send(this->id(), state.peer, *state.verdict);
    }
    for (std::size_t& slot : group.slots) {
      slot = (slot + 1) % slots_.size();
    }
    assign_group(group, transport);
    progressed = true;
  }
  return progressed;
}

bool SupervisorNode::done() const {
  return std::all_of(tasks_.begin(), tasks_.end(), [](const auto& entry) {
    return entry.second.superseded || entry.second.verdict.has_value();
  });
}

std::uint64_t SupervisorNode::results_verified() const {
  std::uint64_t total = 0;
  for (const auto& session : sessions_) {
    total += session->results_verified();
  }
  return total;
}

std::vector<SupervisorNode::TaskOutcome> SupervisorNode::outcomes() const {
  std::vector<TaskOutcome> out;
  out.reserve(tasks_.size());
  for (const auto& [id, state] : tasks_) {
    if (state.superseded) {
      continue;
    }
    TaskOutcome outcome;
    outcome.task = id;
    outcome.domain = state.domain;
    outcome.peer = state.peer;
    outcome.slot = state.slot_index;
    outcome.verdict = state.verdict.value_or(
        Verdict{id, VerdictStatus::kMalformed, std::nullopt, "no verdict"});
    out.push_back(std::move(outcome));
  }
  return out;
}

std::vector<ScreenerHit> SupervisorNode::accepted_hits() const {
  std::set<std::pair<std::uint64_t, std::string>> seen;
  std::vector<ScreenerHit> hits;
  for (const auto& [id, state] : tasks_) {
    if (state.superseded || !state.verdict.has_value() ||
        !state.verdict->accepted()) {
      continue;
    }
    for (const ScreenerHit& hit : state.hits) {
      if (seen.insert({hit.x, hit.report}).second) {
        hits.push_back(hit);
      }
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const ScreenerHit& a, const ScreenerHit& b) {
              return a.x < b.x;
            });
  return hits;
}

}  // namespace ugc
