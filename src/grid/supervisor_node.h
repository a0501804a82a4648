#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scheme_config.h"
#include "grid/transport.h"
#include "scheme/registry.h"
#include "workloads/registry.h"

namespace ugc {

// The grid supervisor: partitions the domain, assigns tasks (directly to
// participants or through a broker), and drives one SupervisorSession per
// assignment group — the node routes messages and collects verdicts/hits,
// while everything scheme-specific lives behind the session interface.
//
// On a hostile grid (FaultPlan: loss, churn, crashes) a session can stall;
// the node's on_quiescent hook is the timeout signal. A stalled group is
// re-assigned — fresh task ids, the next participant slots, a fresh session
// with fresh sampling randomness — up to `max_task_retries` times, after
// which its tasks settle as kAborted (no accusation is ever made for a
// protocol that merely failed to complete). Stale traffic from a superseded
// attempt cannot reach the new session: attempts have distinct task ids and
// every message must arrive from the task's current peer.
class SupervisorNode final : public GridNode {
 public:
  struct Plan {
    Domain domain{0, 1};
    std::string workload = "test";
    std::uint64_t workload_seed = 1;
    SchemeConfig scheme;
    std::uint64_t seed = 1;  // drives sample selection / ringer planting
    const WorkloadRegistry* registry = nullptr;  // null = global()
    const SchemeRegistry* schemes = nullptr;     // null = global()
    // Countermeasure to §2.2's malicious screener conduct: re-derive each
    // reported hit (one f evaluation per hit) and drop fabrications.
    // Upload-based schemes never trust reports at all — the supervisor
    // screens the uploaded results itself. Suppressed discoveries remain
    // unrecoverable under commitment schemes (the documented CBS gap).
    bool validate_reported_hits = true;
    // Re-assignments per group before its unsettled tasks abort. Only
    // reachable when traffic is actually lost (faults/churn); fault-free
    // runs never time out.
    std::size_t max_task_retries = 2;
  };

  // One task per entry in `slots`; with a broker every slot is the broker's
  // id and the broker fans out to its workers. Schemes with replicas() > 1
  // (double-check) give consecutive groups of that many slots the same
  // subdomain.
  SupervisorNode(Plan plan, std::vector<GridNodeId> slots);

  // Sends out all assignments. Call once, before the network runs.
  void start(Transport& transport);

  // Verifies each message inline, as it arrives.
  void on_message(GridNodeId from, const Message& message,
                  Transport& transport) override;

  // Timeout/retry: re-assigns or aborts groups stuck without verdicts.
  bool on_quiescent(Transport& transport) override;

  // True once every live (non-superseded) task has a verdict.
  bool done() const;

  struct TaskOutcome {
    TaskId task;
    Domain domain{0, 1};
    GridNodeId peer;        // immediate counterparty (participant or broker)
    std::size_t slot = 0;   // assignment slot the supervisor targeted
    Verdict verdict;
  };

  // Final outcomes only: superseded attempts are excluded, so there is
  // exactly one outcome per original assignment slot.
  std::vector<TaskOutcome> outcomes() const;

  // Screener hits from tasks whose verdict accepted, de-duplicated by
  // (x, report).
  std::vector<ScreenerHit> accepted_hits() const;

  // f evaluations the supervisor spent on verification (recompute verifier
  // calls, double-check arbitration, ringer precomputation).
  std::uint64_t verification_evaluations() const {
    return counting_f_->calls();
  }

  // ResultVerifier invocations across all sessions (cheap-verifier
  // workloads make this differ from verification_evaluations()).
  std::uint64_t results_verified() const;

  // Tasks re-assigned to a different peer after a timeout.
  std::uint64_t tasks_reassigned() const { return tasks_reassigned_; }

  // Frames the stale-traffic guard dropped: unknown/retired task ids, plus
  // anything arriving from other than the task's current peer (late frames
  // from a superseded pre-retry attempt, spoofed senders). Observability
  // for what was previously a silent drop — a rising counter in a
  // fault-free run means misrouted or forged traffic.
  std::uint64_t stale_frames_dropped() const { return stale_frames_dropped_; }

  // Reconnect support: points assignment slot `slot_index` at a new peer
  // (a worker that dropped and came back on a fresh connection gets a
  // fresh GridNodeId). Unsettled, non-superseded tasks targeting the slot
  // re-aim at the new peer, so the stale-peer guard admits its traffic
  // and the next timeout retry reaches the reconnected worker instead of
  // the dead connection. Messages lost in flight are not replayed — the
  // quiescence retry path re-assigns the group as usual.
  //
  // With a transport, additionally re-enters pipelined tasks in place: for
  // each re-aimed task whose session exposes a resume epoch, sends
  // EpochResume (the verified frontier) followed by the re-built
  // TaskAssignment, so the replacement attempt resumes computing at the
  // first unverified epoch instead of waiting out a timeout retry.
  void replace_slot(std::size_t slot_index, GridNodeId peer,
                    Transport* transport = nullptr);

 private:
  struct TaskState {
    Domain domain{0, 1};
    GridNodeId peer;
    std::size_t slot_index = 0;     // into slots_ (this attempt's target)
    std::size_t session_index = 0;  // into sessions_
    bool superseded = false;        // retired by a retry; not an outcome
    std::optional<Verdict> verdict;
    std::vector<ScreenerHit> hits;
  };

  // A replica group across retries: current attempt's task ids and slot
  // assignments. Sessions of superseded attempts stay in sessions_ (their
  // task states drop all traffic) so session indices remain stable.
  struct GroupState {
    Domain domain{0, 1};
    std::vector<TaskId> tasks;       // current attempt
    std::vector<std::size_t> slots;  // index into slots_ per replica
    std::size_t retries = 0;
  };

  Task task_for(TaskId id, const Domain& domain) const;
  void settle(TaskState& state, Verdict verdict, Transport& transport);
  // Opens a fresh session for the group's current slots, creates task
  // states, and sends the assignments (start and every retry).
  void assign_group(GroupState& group, Transport& transport);
  // Routes a session's queued messages / verdicts / hits into the grid.
  void drain(SupervisorSession& session, Transport& transport);
  // Generic screener-report handling (validation against the domain plus a
  // recompute check), applied only when the scheme trusts reports.
  void handle_report(TaskState& state, const ScreenerReport& report);

  Plan plan_;
  std::vector<GridNodeId> slots_;
  const VerificationScheme* scheme_ = nullptr;
  WorkloadBundle bundle_;
  std::shared_ptr<CountingComputeFunction> counting_f_;
  std::shared_ptr<const ResultVerifier> verifier_;
  Rng rng_;
  // One session per assignment group and attempt.
  std::vector<std::unique_ptr<SupervisorSession>> sessions_;
  std::vector<GroupState> groups_;
  std::map<TaskId, TaskState> tasks_;
  std::uint64_t next_task_ = 1;
  std::uint64_t tasks_reassigned_ = 0;
  std::uint64_t stale_frames_dropped_ = 0;
  bool started_ = false;
};

}  // namespace ugc
