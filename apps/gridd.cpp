// gridd — the uncheatable-grid supervisor daemon.
//
// Listens for gridworker connections, authenticates each with the
// challenge–response handshake (auth/handshake.h), registers it as an
// assignment slot under its durable worker id — refusing identities whose
// persistent reputation bans them — partitions the domain, and drives the
// full verification protocol — commit, sample, verify, accuse — over real
// TCP through the same SupervisorNode the simulated grid runs. When every
// task has settled it prints a per-task verdict log, a per-worker
// reputation summary, and exits with a status reflecting the outcome:
//
//   0  every task accepted
//   2  at least one task rejected (a cheater was caught)
//   3  at least one task aborted / never settled
//   1  runtime failure, 64 usage error
//
// Quickstart (three honest workers, one cheater — see README "Running a
// real grid"):
//
//   gridd --port 7001 --workers 3 --workload keysearch --scheme cbs &
//   gridworker --connect 127.0.0.1:7001 &
//   gridworker --connect 127.0.0.1:7001 &
//   gridworker --connect 127.0.0.1:7001 --cheat semi-honest:0.5 &
//   wait

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/cli.h"
#include "grid/chaos.h"
#include "grid/supervisor_node.h"
#include "net/tcp_transport.h"
#include "store/durable_ledger.h"

namespace {

using namespace ugc;

int run_gridd(const cli::Flags& flags) {
  // Every worker holds a connection, so the default soft descriptor limit
  // (often 1024) would cap the grid well below what the kernel allows.
  // Raise it to the hard limit; running out anyway only defers accepts.
  rlimit files{};
  if (::getrlimit(RLIMIT_NOFILE, &files) == 0 &&
      files.rlim_cur < files.rlim_max) {
    files.rlim_cur = files.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &files);
  }

  // Reputation outlives the process when --state-dir is set: the ledger's
  // Beta posteriors are keyed by durable worker id and loaded back on the
  // next start, so a ban sticks across restarts.
  store::ReputationParams reputation_params;
  reputation_params.ban_threshold = flags.f64("ban-threshold");
  reputation_params.min_observations = flags.u64("min-observations");
  const std::string state_dir = flags.str("state-dir");
  store::DurableReputationLedger ledger(
      reputation_params, state_dir.empty()
                             ? store::make_memory_reputation_store()
                             : store::make_file_reputation_store(state_dir));
  std::printf("gridd: reputation %s records=%zu banned=%zu\n",
              state_dir.empty() ? "in-memory" : state_dir.c_str(),
              ledger.size(), ledger.banned_count());

  net::TcpTransportOptions options;
  options.quiescence_timeout_ms = flags.u64("idle-timeout-ms");
  options.quiescence.adaptive = flags.u64("adaptive-idle") != 0;
  options.quiescence.floor_ms = flags.u64("idle-floor-ms");
  options.quiescence.ceiling_ms = flags.u64("idle-ceiling-ms");
  options.shed_watermark = flags.u64("shed-watermark");
  options.evict_stalled_after_ms = flags.u64("evict-after-ms");
  const std::string chaos_level = flags.str("chaos");
  if (chaos_level != "off") {
    options.chaos = make_chaos_plan(chaos_level, flags.u64("chaos-seed"));
    std::printf("gridd: chaos level=%s seed=%" PRIu64 "\n",
                chaos_level.c_str(), options.chaos->seed);
  }
  net::TcpTransport transport(options);
  net::AuthOptions auth_options;
  auth_options.is_banned = [&ledger](const auth::WorkerId& id) {
    return ledger.banned(id);
  };
  transport.require_auth(std::move(auth_options));
  const std::uint64_t port = flags.u64("port");
  check(port <= 65535, "--port ", flags.str("port"),
        " out of range (0 = ephemeral, else 1-65535)");
  transport.listen(flags.str("host"), static_cast<std::uint16_t>(port));
  std::printf("gridd: listening on %s:%u engine=%s\n",
              flags.str("host").c_str(), transport.port(),
              transport.io_stats().engine.c_str());
  std::fflush(stdout);

  // Registration: a connection becomes an assignment slot once its proof
  // verifies (the transport refuses bad proofs, banned identities, and
  // anything pre-proof before this fires). After the grid starts, a proof
  // from an already-registered durable identity is a reconnect: the slot
  // re-aims at the fresh connection (SupervisorNode::replace_slot) so retry
  // traffic reaches the surviving worker instead of the dead socket.
  const std::size_t worker_count = flags.u64("workers");
  std::vector<GridNodeId> slots;
  std::map<std::uint32_t, auth::AuthInfo> identities;
  std::map<auth::WorkerId, std::size_t> slot_of;
  SupervisorNode* supervisor_ptr = nullptr;
  transport.on_peer_authenticated = [&](GridNodeId peer,
                                        const auth::AuthInfo& info) {
    if (supervisor_ptr != nullptr) {
      const auto it = slot_of.find(info.worker_id);
      if (it == slot_of.end()) {
        std::printf("gridd: peer %u agent=%s id=%s arrived mid-run with no "
                    "slot, ignoring\n",
                    peer.value, info.agent.c_str(),
                    info.worker_id.prefix().c_str());
        std::fflush(stdout);
        return;
      }
      // With the transport the node also replays an EpochResume + fresh
      // assignment, so a pipelined worker restarts at the verified frontier
      // instead of epoch 0.
      supervisor_ptr->replace_slot(it->second, peer, &transport);
      identities[peer.value] = info;
      std::printf("gridd: worker %u reconnected agent=%s id=%s slot=%zu\n",
                  peer.value, info.agent.c_str(),
                  info.worker_id.prefix().c_str(), it->second);
      std::fflush(stdout);
      return;
    }
    slot_of[info.worker_id] = slots.size();
    slots.push_back(peer);
    identities[peer.value] = info;
    std::printf("gridd: worker %u registered agent=%s id=%s trust=%.2f "
                "(%zu/%zu)\n",
                peer.value, info.agent.c_str(), info.worker_id.prefix().c_str(),
                ledger.trust(info.worker_id), slots.size(), worker_count);
    std::fflush(stdout);
  };
  transport.on_auth_refused = [&](GridNodeId peer,
                                  auth::HandshakeStatus status,
                                  const auth::AuthInfo& info) {
    if (status == auth::HandshakeStatus::kBanned) {
      std::printf("gridd: refused peer %u status=%s agent=%s id=%s "
                  "trust=%.2f\n",
                  peer.value, auth::to_string(status), info.agent.c_str(),
                  info.worker_id.prefix().c_str(),
                  ledger.trust(info.worker_id));
    } else {
      std::printf("gridd: refused peer %u status=%s\n", peer.value,
                  auth::to_string(status));
    }
    std::fflush(stdout);
  };
  transport.on_peer_disconnected = [&](GridNodeId peer) {
    std::printf("gridd: peer %u disconnected\n", peer.value);
    std::fflush(stdout);
  };
  transport.run([&] { return slots.size() >= worker_count; });

  SupervisorNode::Plan plan;
  plan.domain = Domain(flags.u64("domain-begin"), flags.u64("domain-end"));
  plan.workload = flags.str("workload");
  plan.workload_seed = flags.u64("workload-seed");
  plan.scheme.name = flags.str("scheme");
  if (const std::uint64_t samples = flags.u64("samples"); samples > 0) {
    plan.scheme.cbs.sample_count = samples;
    plan.scheme.nicbs.sample_count = samples;
    plan.scheme.naive.sample_count = samples;
  }
  plan.scheme.pipeline.epochs = flags.u64("epochs");
  plan.scheme.pipeline.samples_per_epoch = flags.u64("epoch-samples");
  plan.scheme.pipeline.window_epochs = flags.u64("epoch-window");
  plan.scheme.pipeline.max_inflight =
      std::max<std::size_t>(1, flags.u64("epoch-inflight"));
  plan.seed = flags.u64("seed");
  plan.max_task_retries = flags.u64("max-retries");

  SupervisorNode supervisor(plan, slots);
  supervisor_ptr = &supervisor;
  transport.add_local(supervisor);
  supervisor.start(transport);
  transport.run([&] { return supervisor.done(); });
  transport.close_all();  // drains the final verdict frames

  // Per-task log, then per-worker reputation — folded into the durable
  // ledger under each worker's proven identity, so standing (and bans)
  // carry to the next run.
  struct WorkerTally {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::size_t aborted = 0;
  };
  std::map<std::uint32_t, WorkerTally> tallies;
  std::size_t accepted = 0, rejected = 0, aborted = 0;
  const auto identity_of = [&](std::uint32_t peer) -> const auth::AuthInfo& {
    static const auth::AuthInfo unknown{auth::WorkerId{}, "?"};
    const auto it = identities.find(peer);
    return it != identities.end() ? it->second : unknown;
  };
  for (const SupervisorNode::TaskOutcome& outcome : supervisor.outcomes()) {
    const auth::AuthInfo& who = identity_of(outcome.peer.value);
    std::printf("gridd: verdict task=%" PRIu64
                " peer=%u agent=%s id=%s status=%s detail=\"%s\"\n",
                outcome.task.value, outcome.peer.value, who.agent.c_str(),
                who.worker_id.prefix().c_str(),
                to_string(outcome.verdict.status),
                outcome.verdict.detail.c_str());
    WorkerTally& tally = tallies[outcome.peer.value];
    if (outcome.verdict.status == VerdictStatus::kAborted) {
      ++aborted;
      ++tally.aborted;
      continue;  // an abort is not an accusation: reputation unchanged
    }
    const bool ok = outcome.verdict.accepted();
    ok ? ++accepted : ++rejected;
    ok ? ++tally.accepted : ++tally.rejected;
    ledger.record(identity_of(outcome.peer.value).worker_id, ok);
  }
  for (const auto& [peer, tally] : tallies) {
    const auth::AuthInfo& who = identity_of(peer);
    std::printf("gridd: worker %u agent=%s id=%s accepted=%zu rejected=%zu "
                "aborted=%zu trust=%.2f observations=%" PRIu64
                " flagged=%s banned=%s\n",
                peer, who.agent.c_str(), who.worker_id.prefix().c_str(),
                tally.accepted, tally.rejected, tally.aborted,
                ledger.trust(who.worker_id),
                ledger.observations(who.worker_id),
                tally.rejected > 0 ? "yes" : "no",
                ledger.banned(who.worker_id) ? "yes" : "no");
  }
  const net::TcpIoStats io = transport.io_stats();
  std::printf("gridd: summary scheme=%s workload=%s tasks=%zu accepted=%zu "
              "rejected=%zu aborted=%zu reassigned=%" PRIu64
              " verification_evals=%" PRIu64 " stale_frames=%" PRIu64
              " bytes=%" PRIu64
              " refused=%" PRIu64 " accepts_deferred=%" PRIu64
              " engine=%s read_calls=%" PRIu64 " write_calls=%" PRIu64
              " frames_per_write=%.2f "
              "write_queue_hwm=%zu undecodable=%" PRIu64 " truncated=%" PRIu64
              " shed=%" PRIu64 " evicted=%" PRIu64 " idle_timeout_ms=%" PRIu64
              "\n",
              flags.str("scheme").c_str(), flags.str("workload").c_str(),
              accepted + rejected + aborted, accepted, rejected, aborted,
              supervisor.tasks_reassigned(),
              supervisor.verification_evaluations(),
              supervisor.stale_frames_dropped(),
              transport.stats().total_bytes, io.handshakes_refused,
              io.accepts_deferred, io.engine.c_str(), io.read_calls,
              io.write_calls,
              io.frames_per_write_mean, io.write_queue_hwm,
              io.frames_undecodable, io.streams_truncated, io.frames_shed,
              io.peers_evicted, io.quiescence_timeout_ms);
  if (options.chaos.has_value()) {
    std::printf("gridd: chaos accept_resets=%" PRIu64 " disconnects=%" PRIu64
                " frames_delayed=%" PRIu64 " read_stalls=%" PRIu64 "\n",
                io.chaos_accept_resets, io.chaos_disconnects,
                io.chaos_frames_delayed, io.chaos_read_stalls);
  }
  std::fflush(stdout);

  if (rejected > 0) {
    return cli::kExitRejected;
  }
  if (aborted > 0) {
    return cli::kExitIncomplete;
  }
  return cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  // A worker vanishing mid-write must surface as EPIPE on the send path
  // (counted, peer dropped), never as a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  const std::map<std::string, std::string> spec{
      {"host", "127.0.0.1"},
      {"port", "0"},
      {"workers", "3"},
      {"workload", "test"},
      {"workload-seed", "1"},
      {"scheme", "cbs"},
      {"samples", "0"},
      {"epochs", "1"},
      {"epoch-samples", "8"},
      {"epoch-window", "4"},
      {"epoch-inflight", "1"},
      {"domain-begin", "0"},
      {"domain-end", "3072"},
      {"seed", "1"},
      {"max-retries", "2"},
      {"idle-timeout-ms", "1000"},
      {"adaptive-idle", "0"},
      {"idle-floor-ms", "100"},
      {"idle-ceiling-ms", "10000"},
      {"shed-watermark", "0"},
      {"evict-after-ms", "0"},
      {"chaos", "off"},
      {"chaos-seed", "1"},
      {"state-dir", ""},
      {"ban-threshold", "0.5"},
      {"min-observations", "2"},
  };
  std::optional<cli::Flags> flags;
  try {
    flags.emplace(argc, argv, spec);
  } catch (const ugc::Error& error) {
    std::fprintf(stderr, "gridd: %s (try --help)\n", error.what());
    return cli::kExitUsage;
  }
  if (flags->help()) {
    flags->print_usage(
        "gridd",
        "Supervisor daemon: authenticates and registers --workers "
        "gridworkers, assigns --workload over [--domain-begin, "
        "--domain-end) under --scheme, verifies over TCP, prints verdicts, "
        "persists reputation in --state-dir, and exits 0/2/3.");
    return cli::kExitOk;
  }
  try {
    return run_gridd(*flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gridd: %s\n", error.what());
    return cli::kExitError;
  }
}
