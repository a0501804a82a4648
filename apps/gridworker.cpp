// gridworker — the uncheatable-grid participant client.
//
// Connects to a gridd supervisor (retrying with backoff while it comes
// up), proves its durable identity in the challenge–response handshake
// (auth/handshake.h; --identity-file persists the key so reputation
// accumulates across runs), and serves task assignments through the same
// ParticipantNode the simulated grid runs: resolve the workload, compute
// (honestly or per --cheat), commit, answer challenges, report screener
// hits, collect the verdict. If the connection drops mid-exchange it
// reconnects under the same identity (up to --reconnects attempts with
// exponential backoff) and resumes; it exits when the supervisor closes
// the connection with no work left unresolved.
//
//   --cheat none                      honest (default)
//   --cheat semi-honest[:r[,q]]       compute only an r-fraction, guess the
//                                     rest (each guess right with prob. q)
//   --cheat adaptive[:k[,r[,q]]]      honest for k accepted rounds, then
//                                     semi-honest — the sleeper agent
//   --cheat defector:x[,q]            honest below input x, guess from x on
//                                     — the mid-computation defector that
//                                     pipelined verification exists to catch
//   --screener faithful|suppress|fabricate   §2.2 malicious screener conduct
//
// Exit status: 0 clean run (even when caught cheating — the *supervisor*
// judges), 3 when the connection ended with a task still unresolved, 1 on
// runtime failure, 64 on usage errors.

#include <cinttypes>
#include <cstdio>
#include <chrono>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/cli.h"
#include "auth/identity.h"
#include "core/cheating.h"
#include "grid/participant_node.h"
#include "net/tcp_transport.h"

namespace {

using namespace ugc;

// Parses a --cheat spec ("semi-honest:0.5,0.2") into an HonestyPolicy.
std::shared_ptr<const HonestyPolicy> parse_cheat(const std::string& spec,
                                                 std::uint64_t seed) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  std::vector<double> args;
  if (colon != std::string::npos) {
    std::string rest = spec.substr(colon + 1);
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string part = rest.substr(0, comma);
      char* end = nullptr;
      const double value = std::strtod(part.c_str(), &end);
      check(end != nullptr && *end == '\0' && !part.empty(),
            "--cheat: '", part, "' is not a number");
      args.push_back(value);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
  }
  const auto arg = [&args](std::size_t i, double fallback) {
    return i < args.size() ? args[i] : fallback;
  };

  if (kind.empty() || kind == "none" || kind == "honest") {
    return make_honest_policy();
  }
  if (kind == "semi-honest") {
    return make_semi_honest_cheater(
        {arg(0, 0.5), arg(1, 0.0), seed});
  }
  if (kind == "adaptive") {
    return make_adaptive_cheater(
        {static_cast<std::size_t>(arg(0, 3)), arg(1, 0.5), arg(2, 0.0),
         seed});
  }
  if (kind == "defector") {
    check(!args.empty(), "--cheat: defector needs the defection input, "
          "e.g. defector:2048[,q]");
    return make_defector_cheater(
        {static_cast<std::uint64_t>(args[0]), arg(1, 0.0), seed});
  }
  throw Error(concat("--cheat: unknown policy '", kind,
                     "' (none | semi-honest[:r[,q]] | adaptive[:k[,r[,q]]] | "
                     "defector:x[,q])"));
}

ScreenerConduct parse_conduct(const std::string& name) {
  if (name == "faithful") {
    return ScreenerConduct::kFaithful;
  }
  if (name == "suppress") {
    return ScreenerConduct::kSuppress;
  }
  if (name == "fabricate") {
    return ScreenerConduct::kFabricate;
  }
  throw Error(concat("--screener: unknown conduct '", name,
                     "' (faithful | suppress | fabricate)"));
}

// Fresh entropy for key generation (the identity must be unique per
// worker, so the deterministic --seed stream is exactly wrong for it).
auth::WorkerIdentity make_identity(const std::string& identity_file) {
  std::random_device device;
  Rng rng((static_cast<std::uint64_t>(device()) << 32) ^ device() ^
          static_cast<std::uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()));
  if (identity_file.empty()) {
    return auth::WorkerIdentity::generate(rng);  // ephemeral: one run only
  }
  return auth::load_or_create_identity(identity_file, rng);
}

int run_gridworker(const cli::Flags& flags) {
  const std::uint64_t seed = flags.u64("seed");
  ParticipantNode::Options options;
  options.policy = parse_cheat(flags.str("cheat"), seed);
  options.screener_conduct = parse_conduct(flags.str("screener"));
  options.conduct_seed = seed;
  ParticipantNode node(options);

  const auth::WorkerIdentity identity =
      make_identity(flags.str("identity-file"));

  net::TcpTransportOptions transport_options;
  transport_options.quiescence_timeout_ms = flags.u64("idle-timeout-ms");
  net::TcpTransport transport(transport_options);
  transport.use_identity(identity, flags.str("agent"));
  const GridNodeId self = transport.add_local(node);

  // Bounded connect retry: a worker is typically launched alongside its
  // supervisor, so losing the race to gridd's listen() must not be fatal.
  const auto [host, port] = cli::parse_endpoint(flags.str("connect"));
  const std::uint64_t retries = flags.u64("connect-retries");
  std::uint64_t backoff_ms = flags.u64("connect-backoff-ms");
  std::optional<GridNodeId> connected;
  for (std::uint64_t attempt = 0; !connected.has_value(); ++attempt) {
    try {
      connected = transport.connect(host, port);
    } catch (const net::SocketError& error) {
      if (attempt >= retries) {
        throw;
      }
      std::fprintf(stderr,
                   "gridworker %s: connect to %s:%u failed (%s); retry %"
                   PRIu64 "/%" PRIu64 " in %" PRIu64 " ms\n",
                   flags.str("agent").c_str(), host.c_str(), port,
                   error.what(), attempt + 1, retries, backoff_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min<std::uint64_t>(backoff_ms * 2, 2000);
    }
  }
  std::printf("gridworker %s: connected to %s:%u id=%s policy=%s\n",
              flags.str("agent").c_str(), host.c_str(), port,
              identity.id().prefix().c_str(), node.policy().name().c_str());
  std::fflush(stdout);

  // Serve until the supervisor hangs up: the protocol has no "grid over"
  // message — a real volunteer just loses the connection. If the link died
  // with a task still mid-exchange, the drop was a fault, not the grid
  // ending: reconnect with bounded backoff and resume under the same
  // durable identity (gridd re-aims our slot; the quiescence retry re-sends
  // the work, so in-flight session state is written off with on_crash()).
  bool supervisor_gone = false;
  transport.on_peer_disconnected = [&](GridNodeId) {
    supervisor_gone = true;
  };
  const std::uint64_t reconnects = flags.u64("reconnects");
  std::uint64_t reconnects_used = 0;
  for (;;) {
    transport.run([&] { return supervisor_gone; });
    // Settled = the supervisor hung up with nothing mid-exchange and at
    // least one verdict in hand: the grid ended, not the link. A cut
    // before ANY verdict is indistinguishable from a refusal, so it
    // retries too — a refused (banned) worker just burns its bounded
    // budget and exits incomplete as before.
    const bool settled =
        node.active_tasks() == 0 && !node.verdicts().empty();
    if (settled || reconnects_used >= reconnects) {
      break;
    }
    std::uint64_t reconnect_backoff_ms = flags.u64("connect-backoff-ms");
    std::optional<GridNodeId> again;
    while (!again.has_value() && reconnects_used < reconnects) {
      ++reconnects_used;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(reconnect_backoff_ms));
      reconnect_backoff_ms = std::min<std::uint64_t>(
          reconnect_backoff_ms * 2, 5000);
      try {
        again = transport.connect(host, port);
      } catch (const net::SocketError& error) {
        std::fprintf(stderr,
                     "gridworker %s: reconnect %" PRIu64 "/%" PRIu64
                     " failed (%s)\n",
                     flags.str("agent").c_str(), reconnects_used, reconnects,
                     error.what());
      }
    }
    if (!again.has_value()) {
      break;  // budget exhausted: exit below with the work unresolved
    }
    node.on_crash();  // in-flight sessions died with the old connection
    supervisor_gone = false;
    std::printf("gridworker %s: reconnected to %s:%u (attempt %" PRIu64
                "/%" PRIu64 ")\n",
                flags.str("agent").c_str(), host.c_str(), port,
                reconnects_used, reconnects);
    std::fflush(stdout);
  }

  if (node.verdicts().empty() && node.active_tasks() == 0) {
    // Disconnected before any task: the supervisor refused the handshake
    // (banned or failed proof) or shut down early.
    std::printf("gridworker %s: disconnected before any assignment "
                "(refused or supervisor gone)\n",
                flags.str("agent").c_str());
  }
  for (const auto& [task, verdict] : node.verdicts()) {
    std::printf("gridworker %s: task=%" PRIu64 " status=%s\n",
                flags.str("agent").c_str(), task.value,
                to_string(verdict.status));
  }
  const net::TcpIoStats io = transport.io_stats();
  std::printf("gridworker %s: done tasks=%zu unresolved=%zu "
              "evaluations=%" PRIu64 " bytes_sent=%" PRIu64
              " undecodable=%" PRIu64 " truncated=%" PRIu64 "\n",
              flags.str("agent").c_str(), node.verdicts().size(),
              node.active_tasks(), node.honest_evaluations(),
              transport.stats().bytes_sent(self), io.frames_undecodable,
              io.streams_truncated);
  std::fflush(stdout);
  // Incomplete = the connection ended with work unresolved: no verdict ever
  // arrived, or a task was still mid-exchange.
  return node.verdicts().empty() || node.active_tasks() > 0
             ? cli::kExitIncomplete
             : cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, std::string> spec{
      {"connect", "127.0.0.1:7001"},
      {"agent", "gridworker"},
      {"cheat", "none"},
      {"screener", "faithful"},
      {"seed", "1"},
      {"idle-timeout-ms", "1000"},
      {"identity-file", ""},
      {"connect-retries", "10"},
      {"connect-backoff-ms", "100"},
      {"reconnects", "5"},
  };
  std::optional<cli::Flags> flags;
  try {
    flags.emplace(argc, argv, spec);
  } catch (const ugc::Error& error) {
    std::fprintf(stderr, "gridworker: %s (try --help)\n", error.what());
    return cli::kExitUsage;
  }
  if (flags->help()) {
    flags->print_usage(
        "gridworker",
        "Participant client: connects to a gridd supervisor and serves "
        "verification-scheme exchanges, honestly or per --cheat.");
    return cli::kExitOk;
  }
  try {
    return run_gridworker(*flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gridworker: %s\n", error.what());
    return cli::kExitError;
  }
}
