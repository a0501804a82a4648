// gridload — the grid load-test harness: thousands of scripted workers
// against one supervisor, measured.
//
// The worker army runs in-process: every worker is a real authenticated
// protocol client (its own identity, its own ParticipantNode, honest or
// cheating per --cheaters), but all of them are driven by ONE event engine
// on one thread — a flat socket/FrameDecoder loop, not a thousand
// TcpTransports — so the harness can hold thousands of concurrent
// connections cheaply and the machine's capacity goes to the system under
// test.
//
// Two modes:
//
//   chaos curve (default) — hosts the supervisor side itself and runs the
//     same population over a clean wire and then under light and heavy
//     seeded WAN fault injection (grid/chaos.h), with adaptive quiescence
//     on. Writes a JSON file (--out) with each level's connect rate,
//     exchanges/s, verdicts/s and p50/p99 verdict latency, plus the
//     heavy-vs-clean p99 ratio: how far a hostile network stretches the
//     tail while the verdicts stay correct.
//   --connect host:port — drives the army against an external gridd (the
//     CI load-smoke path). Asserts the run completed.
//
// --smoke shrinks the population to a few hundred workers and enforces the
// CI gates: zero honest-worker accusations, a cheater caught somewhere on
// the curve, and a minimum exchanges/s floor on the clean wire.
// Throughput and latency of gridd itself are measured by perfbench/.
//
// Exit status: 0 clean; 2 an honest worker was accused (the one outcome a
// load test must never produce); 3 incomplete (deadline, missing verdicts,
// or below the --min-exchanges floor); 1 runtime failure, 64 usage.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/cli.h"
#include "auth/handshake.h"
#include "auth/identity.h"
#include "common/stopwatch.h"
#include "core/cheating.h"
#include "grid/chaos.h"
#include "grid/participant_node.h"
#include "grid/supervisor_node.h"
#include "net/event_engine.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "wire/codec.h"
#include "wire/messages.h"

namespace {

using namespace ugc;

// Transport façade for one army connection: ParticipantNode sends through
// it, and the bytes land framed on that connection's write queue. Node ids
// are per-link fictions (the army's loop routes by socket, not id). The
// encode scratch is pooled: every link on the (single-threaded) army loop
// shares ONE buffer, so a 5000-worker army holds one encode-sized
// allocation instead of 5000 that each grow to the largest message ever
// sent on that link.
class WorkerLink final : public Transport {
 public:
  WorkerLink(Bytes& write_buffer, Bytes& encode_scratch)
      : write_buffer_(&write_buffer), scratch_(&encode_scratch) {}

  void send(GridNodeId, GridNodeId, const Message& message) override {
    encode_message_into(message, *scratch_);
    net::append_frame(*scratch_, *write_buffer_);
  }

  const NetworkStats& stats() const override { return stats_; }

  // Transport::assign_id is protected; the army borrows it here.
  static void bind(GridNode& node, GridNodeId id) { assign_id(node, id); }

 private:
  Bytes* write_buffer_;
  Bytes* scratch_;  // shared by all links; valid only on the army thread
  NetworkStats stats_;
};

// The scripted worker population: N concurrent authenticated protocol
// clients multiplexed over one event engine. run() blocks until the
// supervisor hangs up every connection (or the deadline passes), so when
// gridload hosts the supervisor itself the army lives on its own thread.
class WorkerArmy {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t workers = 0;
    std::size_t cheaters = 0;  // the first `cheaters` workers cheat
    // Pipelined runs use mid-computation defectors instead of semi-honest
    // cheaters: each defects halfway through its own assignment, which is
    // the adversary epoch streaming exists to catch early.
    bool defectors = false;
    std::uint64_t seed = 1;
    // New connections opened per army loop round. Real volunteers arrive
    // independently — one accept wakeup each — so the default of 1 keeps
    // the supervisor-side arrival process realistic; large batches let a
    // poll() supervisor amortize its O(watched) scan over many accepts at
    // once, which no real population would grant it.
    std::size_t connect_batch = 1;
    std::uint64_t deadline_ms = 180000;
  };

  explicit WorkerArmy(Config config) : config_(std::move(config)) {}

  void run() {
    auto engine = net::make_event_engine();
    Rng rng(config_.seed ^ 0x9e3779b97f4a7c15ull);
    Bytes read_scratch(64 * 1024);
    std::vector<net::ReadyEvent> ready;
    Stopwatch clock;
    const double deadline_s =
        static_cast<double>(config_.deadline_ms) / 1000.0;
    std::size_t created = 0;

    conns_.reserve(config_.workers);
    for (;;) {
      // Open the next batch; pacing the connects keeps the army responsive
      // to challenges already in flight instead of dumping one giant SYN
      // burst and going deaf.
      for (std::size_t i = 0;
           i < config_.connect_batch && created < config_.workers;
           ++i, ++created) {
        open_connection(*engine, created, rng);
        // Hand the core over after each connect: real volunteers are
        // independent processes, so the supervisor sees one arrival per
        // wakeup — a single hot army loop would instead queue a burst the
        // supervisor drains in one amortized scan, a pattern no real
        // population produces.
        std::this_thread::yield();
      }
      if (created == config_.workers && connect_seconds_ == 0.0) {
        connect_seconds_ = clock.elapsed_seconds();
      }
      if (created == config_.workers && live_ == 0) {
        break;
      }
      if (clock.elapsed_seconds() > deadline_s) {
        deadline_hit_ = true;
        break;
      }
      {
        std::lock_guard<std::mutex> lock(progress_mutex_);
        progress_.created = created;
        progress_.live = live_;
        progress_.verdict_latencies = latencies_ms_.size();
        progress_.elapsed_s = clock.elapsed_seconds();
        progress_.states.resize(conns_.size());
        for (std::size_t i = 0; i < conns_.size(); ++i) {
          const Conn& conn = *conns_[i];
          progress_.states[i] = conn.done            ? 'd'
                                : conn.node == nullptr ? 'c'
                                : conn.verdicts_seen > 0 ? 'v'
                                                         : 'l';
        }
      }
      engine->wait(created < config_.workers ? 0 : 200, ready);
      const double now_ms = clock.elapsed_seconds() * 1000.0;
      for (const net::ReadyEvent& event : ready) {
        Conn& conn = *conns_[static_cast<std::size_t>(event.token)];
        if (conn.done) {
          continue;
        }
        if (event.readable || event.error) {
          service_read(*engine, event.token, conn, read_scratch, now_ms);
        }
        if (!conn.done && event.writable) {
          service_write(*engine, event.token, conn);
        }
        if (!conn.done) {
          sync_interest(*engine, event.token, conn);
        }
        // One worker serviced, one timeslice yielded — same reasoning as
        // the per-connect yield above: each worker's reply should reach
        // the supervisor as its own event, not as part of an army-sized
        // batch.
        std::this_thread::yield();
      }
    }
    // Whatever is still open at the deadline is abandoned.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!conns_[i]->done) {
        close_conn(*engine, static_cast<std::uint64_t>(i), *conns_[i],
                   /*allow_retry=*/false);
      }
    }
  }

  // Results — read after run() returns (join the thread first).
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  std::size_t completed() const { return completed_; }
  std::size_t connect_failures() const { return connect_failures_; }
  bool deadline_hit() const { return deadline_hit_; }
  double connect_seconds() const { return connect_seconds_; }

  // Thread-safe mid-run snapshot for the runtime watchdog: the army loop
  // refreshes it once per round, so a hung run still shows its last known
  // per-worker state. `states` is one byte per worker: 'c' connecting /
  // failed, 'l' live without a verdict yet, 'v' live with >=1 verdict,
  // 'd' done (connection closed).
  struct Progress {
    std::size_t created = 0;
    std::size_t live = 0;
    std::size_t verdict_latencies = 0;
    double elapsed_s = 0.0;
    std::string states;
  };
  Progress progress() const {
    std::lock_guard<std::mutex> lock(progress_mutex_);
    return progress_;
  }
  void dump_progress(FILE* out) const {
    const Progress p = progress();
    std::size_t live_idle = 0, live_verdict = 0, done = 0;
    std::string stuck;
    for (std::size_t i = 0; i < p.states.size(); ++i) {
      switch (p.states[i]) {
        case 'l':
          ++live_idle;
          if (stuck.size() < 120) {
            stuck += concat(stuck.empty() ? "" : ",", i);
          }
          break;
        case 'v': ++live_verdict; break;
        case 'd': ++done; break;
        default: break;
      }
    }
    std::fprintf(out,
                 "gridload: army created=%zu live=%zu done=%zu "
                 "awaiting_first_verdict=%zu live_with_verdict=%zu "
                 "latencies_recorded=%zu elapsed=%.1fs stuck_workers=[%s]\n",
                 p.created, p.live, done, live_idle, live_verdict,
                 p.verdict_latencies, p.elapsed_s, stuck.c_str());
  }

 private:
  struct Conn {
    net::Socket socket;
    net::FrameDecoder decoder;
    Bytes write_buffer;
    std::size_t write_offset = 0;
    net::Interest armed = net::Interest::kNone;
    std::optional<auth::WorkerIdentity> identity;
    std::string agent;
    std::unique_ptr<ParticipantNode> node;
    std::unique_ptr<WorkerLink> link;
    std::map<std::uint64_t, double> assign_ms;  // task -> assignment time
    std::size_t verdicts_seen = 0;
    int reconnects_left = 3;
    std::uint64_t seed = 0;
    // Defector cheaters pick their defection input from the assignment's
    // domain (its midpoint), so the policy is installed on first sight of
    // a TaskAssignment rather than at connect time.
    bool defect_pending = false;
    bool done = false;
  };

  void open_connection(net::EventEngine& engine, std::size_t index,
                       Rng& rng) {
    auto conn = std::make_unique<Conn>();
    const bool cheater = index < config_.cheaters;
    conn->agent = concat(cheater ? "cheater-" : "honest-", index);
    conn->identity = auth::WorkerIdentity::generate(rng);
    conn->seed = config_.seed + index;
    ParticipantNode::Options options;
    if (cheater && config_.defectors) {
      conn->defect_pending = true;  // policy installed on first assignment
    } else if (cheater) {
      options.policy =
          make_semi_honest_cheater({0.5, 0.0, config_.seed + index});
    }
    options.conduct_seed = config_.seed + index;
    conn->node = std::make_unique<ParticipantNode>(std::move(options));
    conn->link =
        std::make_unique<WorkerLink>(conn->write_buffer, encode_scratch_);
    WorkerLink::bind(*conn->node, GridNodeId{1});
    try {
      conn->socket = net::tcp_connect(config_.host, config_.port);
    } catch (const net::SocketError&) {
      ++connect_failures_;
      conn->done = true;
      conns_.push_back(std::move(conn));
      return;
    }
    engine.add(conn->socket.fd(), static_cast<std::uint64_t>(index),
               net::Interest::kRead);
    conn->armed = net::Interest::kRead;
    ++live_;
    conns_.push_back(std::move(conn));
  }

  void close_conn(net::EventEngine& engine, std::uint64_t token,
                  Conn& conn, bool allow_retry = true) {
    if (conn.done) {
      return;
    }
    engine.remove(conn.socket.fd());
    conn.socket.close();
    // A cut before the work resolved is a fault (chaos accept reset or
    // mid-stream disconnect), not the grid ending: come back under the
    // same identity, like gridworker does. The supervisor side re-aims
    // the slot at the fresh connection.
    if (allow_retry && conn.reconnects_left > 0 &&
        (conn.verdicts_seen == 0 || conn.node->active_tasks() > 0)) {
      --conn.reconnects_left;
      conn.node->on_crash();  // in-flight sessions died with the socket
      conn.decoder = net::FrameDecoder();
      conn.write_buffer.clear();
      conn.write_offset = 0;
      try {
        conn.socket = net::tcp_connect(config_.host, config_.port);
        engine.add(conn.socket.fd(), token, net::Interest::kRead);
        conn.armed = net::Interest::kRead;
        return;  // still live
      } catch (const net::SocketError&) {
        // Listener really is gone: fall through and finish the worker.
      }
    }
    conn.done = true;
    --live_;
    if (conn.verdicts_seen > 0) {
      ++completed_;
    }
  }

  void handle_frame(Conn& conn, BytesView payload, double now_ms) {
    Message message;
    try {
      message = decode_message(payload);
    } catch (const WireError&) {
      return;  // a load harness shrugs at undecodable frames
    }
    if (const auto* challenge = std::get_if<HelloChallenge>(&message)) {
      conn.link->send(
          GridNodeId{1}, GridNodeId{0},
          Message(auth::make_hello_proof(*conn.identity, challenge->nonce,
                                         kGridProtocol, conn.agent)));
      return;
    }
    if (const auto* assignment = std::get_if<TaskAssignment>(&message)) {
      conn.assign_ms.emplace(assignment->task.value, now_ms);
      if (conn.defect_pending) {
        // Rebuild the (still stateless) node around a defector that turns
        // dishonest at the midpoint of the domain it was just handed.
        ParticipantNode::Options options;
        options.policy = make_defector_cheater(
            {(assignment->domain_begin + assignment->domain_end) / 2, 0.0,
             conn.seed});
        options.conduct_seed = conn.seed;
        conn.node = std::make_unique<ParticipantNode>(std::move(options));
        WorkerLink::bind(*conn.node, GridNodeId{1});
        conn.defect_pending = false;
      }
    }
    conn.node->on_message(GridNodeId{0}, message, *conn.link);
    if (conn.node->verdicts().size() > conn.verdicts_seen) {
      for (const auto& [task, verdict] : conn.node->verdicts()) {
        const auto it = conn.assign_ms.find(task.value);
        if (it != conn.assign_ms.end()) {
          latencies_ms_.push_back(now_ms - it->second);
          conn.assign_ms.erase(it);  // each task's latency records once
        }
      }
      conn.verdicts_seen = conn.node->verdicts().size();
    }
  }

  void service_read(net::EventEngine& engine, std::uint64_t token,
                    Conn& conn, Bytes& scratch, double now_ms) {
    for (int round = 0; !conn.done && round < 16; ++round) {
      const net::IoResult result =
          net::read_some(conn.socket, std::span<std::uint8_t>(scratch));
      if (result.status == net::IoStatus::kOk) {
        try {
          conn.decoder.feed(BytesView(scratch.data(), result.bytes));
          while (const auto frame = conn.decoder.next()) {
            handle_frame(conn, *frame, now_ms);
          }
        } catch (const net::FrameError&) {
          close_conn(engine, token, conn);
          return;
        }
        continue;
      }
      if (result.status == net::IoStatus::kWouldBlock) {
        return;
      }
      close_conn(engine, token, conn);  // EOF: the supervisor hung up
      return;
    }
  }

  void service_write(net::EventEngine& engine, std::uint64_t token,
                     Conn& conn) {
    while (!conn.done && conn.write_offset < conn.write_buffer.size()) {
      const net::IoResult result = net::write_some(
          conn.socket,
          BytesView(conn.write_buffer).subspan(conn.write_offset));
      if (result.status == net::IoStatus::kOk) {
        if (result.bytes == 0) {
          return;
        }
        conn.write_offset += result.bytes;
        continue;
      }
      if (result.status == net::IoStatus::kWouldBlock) {
        return;
      }
      close_conn(engine, token, conn);
      return;
    }
    if (conn.write_offset > 0) {
      conn.write_buffer.erase(
          conn.write_buffer.begin(),
          conn.write_buffer.begin() +
              static_cast<std::ptrdiff_t>(conn.write_offset));
      conn.write_offset = 0;
    }
  }

  void sync_interest(net::EventEngine& engine, std::uint64_t token,
                     Conn& conn) {
    // Opportunistic flush first: most responses fit the socket buffer.
    service_write(engine, token, conn);
    if (conn.done) {
      return;
    }
    const net::Interest desired =
        conn.write_offset < conn.write_buffer.size()
            ? net::Interest::kReadWrite
            : net::Interest::kRead;
    if (desired != conn.armed) {
      engine.modify(conn.socket.fd(), token, desired);
      conn.armed = desired;
    }
  }

  Config config_;
  Bytes encode_scratch_;  // pooled encode buffer, shared by every WorkerLink
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t live_ = 0;
  std::size_t completed_ = 0;
  std::size_t connect_failures_ = 0;
  std::vector<double> latencies_ms_;
  double connect_seconds_ = 0.0;
  bool deadline_hit_ = false;
  mutable std::mutex progress_mutex_;
  Progress progress_;
};

// CI hang guard: a detached timer that waits out --max-runtime-s, dumps the
// current army's last-known per-worker state, and hard-exits non-zero.
// _Exit (not abort/exception) because the point is a *bounded* failure: no
// destructor or join can deadlock on whatever wedged the run.
class RuntimeWatchdog {
 public:
  void start(std::uint64_t limit_s) {
    if (limit_s == 0 || thread_.joinable()) {
      return;
    }
    thread_ = std::thread([this, limit_s] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, std::chrono::seconds(limit_s),
                       [this] { return done_; })) {
        return;
      }
      std::fprintf(stderr,
                   "gridload: WATCHDOG — still running after %" PRIu64
                   " s (%s); dumping state and exiting\n",
                   limit_s, context_.c_str());
      if (army_ != nullptr) {
        army_->dump_progress(stderr);
      }
      std::fflush(nullptr);
      std::_Exit(cli::kExitIncomplete);
    });
  }

  // Points the watchdog at the run currently in flight.
  void observe(const WorkerArmy* army, std::string context) {
    std::lock_guard<std::mutex> lock(mutex_);
    army_ = army;
    context_ = std::move(context);
  }

  ~RuntimeWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  const WorkerArmy* army_ = nullptr;
  std::string context_;
  std::thread thread_;
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct RunResult {
  std::string engine;
  double connect_s = 0, protocol_s = 0, total_s = 0;
  double connects_per_s = 0, exchanges_per_s = 0, verdicts_per_s = 0;
  std::uint64_t messages = 0;
  std::size_t verdicts = 0, accepted = 0, rejected = 0, aborted = 0;
  std::size_t honest_accusations = 0;
  double p50_ms = 0, p99_ms = 0;
  std::size_t write_queue_hwm = 0;
  // Syscall economy of the supervisor's write side: how many frames each
  // vectored write carried on average (the batching headline).
  std::uint64_t read_calls = 0, write_calls = 0;
  double frames_per_write_mean = 0.0;
  std::uint64_t refused = 0, undecodable = 0, truncated = 0;
  std::string chaos = "off";
  std::uint64_t frames_shed = 0, peers_evicted = 0;
  std::uint64_t chaos_disconnects = 0, chaos_resets = 0;
  std::uint64_t idle_timeout_ms = 0;
  std::size_t connect_failures = 0;
  bool deadline_hit = false;
  // Pipelined verification: epochs elapsed before each cheater was caught
  // (catch epoch + 1, summed over rejected tasks with a failed sample) vs
  // the one-shot cost of running every task's full epoch count first.
  std::uint64_t pipeline_epochs = 1;
  std::uint64_t wasted_epochs = 0;
  std::uint64_t one_shot_epochs = 0;
};

// One full grid run: hosts the supervisor transport under the chaos level
// `chaos_level` (make_chaos_plan), throws the army at it, and scores the
// outcome. All `workers` connect and
// authenticate; tasks are assigned to the first `active` of them — a
// standing volunteer population keeps far more connections open than it
// has work in flight at any moment, and that watched-but-idle majority is
// the regime readiness-driven dispatch exists for.
RunResult run_grid(const cli::Flags& flags, std::size_t workers,
                   std::size_t active, std::size_t cheaters,
                   const std::string& chaos_level,
                   RuntimeWatchdog* watchdog = nullptr) {
  net::TcpTransportOptions options;
  options.quiescence_timeout_ms = flags.u64("idle-timeout-ms");
  options.shed_watermark = flags.u64("shed-watermark");
  options.evict_stalled_after_ms = flags.u64("evict-after-ms");
  options.quiescence.adaptive = true;
  if (chaos_level != "off") {
    const std::uint64_t chaos_seed = flags.u64("chaos-seed");
    options.chaos = make_chaos_plan(
        chaos_level, chaos_seed != 0 ? chaos_seed : flags.u64("seed"));
  }
  net::TcpTransport transport(options);
  transport.require_auth({});  // no ban list: a load test bans nobody
  transport.listen("127.0.0.1", 0);

  // Identity-keyed registration: an army worker that was cut (chaos accept
  // reset / mid-stream disconnect) reconnects under the same durable id,
  // and its slot must re-aim at the fresh connection instead of counting
  // twice — exactly the gridd reconnect path.
  std::vector<GridNodeId> slots;
  std::map<auth::WorkerId, std::size_t> slot_of;
  std::map<std::uint32_t, std::string> agents;
  SupervisorNode* supervisor_ptr = nullptr;
  transport.on_peer_authenticated = [&](GridNodeId peer,
                                        const auth::AuthInfo& info) {
    agents[peer.value] = info.agent;
    if (const auto it = slot_of.find(info.worker_id); it != slot_of.end()) {
      slots[it->second] = peer;
      // Idle workers (slot >= active) hold no supervisor assignment slot.
      if (supervisor_ptr != nullptr && it->second < active) {
        supervisor_ptr->replace_slot(it->second, peer);
      }
      return;
    }
    slot_of[info.worker_id] = slots.size();
    slots.push_back(peer);
  };

  WorkerArmy::Config army_config;
  army_config.port = transport.port();
  army_config.workers = workers;
  army_config.cheaters = cheaters;
  army_config.defectors = flags.u64("epochs") > 1;
  army_config.seed = flags.u64("seed");
  army_config.deadline_ms = flags.u64("deadline-ms");
  WorkerArmy army(army_config);
  if (watchdog != nullptr) {
    watchdog->observe(&army, concat("chaos=", chaos_level));
  }
  std::thread army_thread([&army] { army.run(); });

  RunResult result;
  result.chaos = chaos_level;
  try {
    Stopwatch clock;
    const double registration_deadline_s =
        static_cast<double>(flags.u64("deadline-ms")) / 1000.0;
    transport.run([&] {
      return slots.size() >= workers ||
             clock.elapsed_seconds() > registration_deadline_s;
    });
    check(slots.size() >= workers, "gridload: only ", slots.size(), "/",
          workers, " workers registered before the deadline");
    result.connect_s = clock.elapsed_seconds();

    std::vector<GridNodeId> active_slots(
        slots.begin(),
        slots.begin() + static_cast<std::ptrdiff_t>(active));

    SupervisorNode::Plan plan;
    plan.domain = Domain(0, active * flags.u64("points"));
    plan.workload = flags.str("workload");
    plan.workload_seed = flags.u64("seed");
    plan.scheme.name = flags.str("scheme");
    if (const std::uint64_t samples = flags.u64("samples"); samples > 0) {
      plan.scheme.cbs.sample_count = samples;
      plan.scheme.nicbs.sample_count = samples;
      plan.scheme.naive.sample_count = samples;
    }
    const std::uint64_t epochs = flags.u64("epochs");
    plan.scheme.pipeline.epochs = epochs;
    if (const std::uint64_t samples = flags.u64("samples"); samples > 0) {
      plan.scheme.pipeline.samples_per_epoch = samples;
    }
    // Epochs in flight before the participant must see an ack. 1 is strict
    // lock-step (one frame per write, nothing to coalesce); >1 lets workers
    // stream commitment bursts, which is what the supervisor's vectored
    // write path batches — the frames_per_write column only moves off 1.0
    // with inflight headroom.
    plan.scheme.pipeline.max_inflight =
        std::max<std::size_t>(1, flags.u64("epoch-inflight"));
    plan.seed = flags.u64("seed");
    plan.max_task_retries = flags.u64("max-retries");

    SupervisorNode supervisor(plan, active_slots);
    supervisor_ptr = &supervisor;
    transport.add_local(supervisor);
    Stopwatch protocol_clock;
    supervisor.start(transport);
    transport.run([&] { return supervisor.done(); });
    result.protocol_s = protocol_clock.elapsed_seconds();
    result.messages = transport.stats().total_messages;

    const net::TcpIoStats io = transport.io_stats();
    result.engine = io.engine;
    result.write_queue_hwm = io.write_queue_hwm;
    result.read_calls = io.read_calls;
    result.write_calls = io.write_calls;
    result.frames_per_write_mean = io.frames_per_write_mean;
    result.refused = io.handshakes_refused;
    result.undecodable = io.frames_undecodable;
    result.truncated = io.streams_truncated;
    result.frames_shed = io.frames_shed;
    result.peers_evicted = io.peers_evicted;
    result.chaos_disconnects = io.chaos_disconnects;
    result.chaos_resets = io.chaos_accept_resets;
    result.idle_timeout_ms = io.quiescence_timeout_ms;
    transport.close_all();

    result.pipeline_epochs = std::max<std::uint64_t>(epochs, 1);
    // Every task's domain is `points` wide; replicate the scheme's epoch
    // split so a rejected task's failed sample maps back to a catch epoch.
    const std::vector<Domain> epoch_chunks =
        Domain(0, flags.u64("points")).split(std::min<std::uint64_t>(
            result.pipeline_epochs, flags.u64("points")));
    for (const SupervisorNode::TaskOutcome& outcome : supervisor.outcomes()) {
      ++result.verdicts;
      if (outcome.verdict.status == VerdictStatus::kAborted) {
        ++result.aborted;
        continue;
      }
      if (outcome.verdict.accepted()) {
        ++result.accepted;
      } else {
        ++result.rejected;
        const auto it = agents.find(outcome.peer.value);
        if (it != agents.end() && it->second.starts_with("honest")) {
          ++result.honest_accusations;
        }
        // One-shot verification only accuses after all epochs are computed;
        // pipelined accuses at the epoch holding the failed sample.
        result.one_shot_epochs += epoch_chunks.size();
        if (outcome.verdict.failed_sample.has_value()) {
          const std::uint64_t sample = outcome.verdict.failed_sample->value;
          for (std::size_t e = 0; e < epoch_chunks.size(); ++e) {
            if (sample < epoch_chunks[e].end()) {  // chunks start at 0
              result.wasted_epochs += e + 1;
              break;
            }
          }
        } else {
          result.wasted_epochs += epoch_chunks.size();
        }
      }
    }
  } catch (...) {
    transport.close_all(0);
    army_thread.join();
    throw;
  }
  army_thread.join();

  result.connect_failures = army.connect_failures();
  result.deadline_hit = army.deadline_hit();
  std::vector<double> latencies = army.latencies_ms();
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = percentile(latencies, 0.50);
  result.p99_ms = percentile(latencies, 0.99);
  result.connects_per_s =
      result.connect_s > 0 ? static_cast<double>(workers) / result.connect_s
                           : 0.0;
  // Sustained throughput over the whole session: registering a worker is
  // an exchange too (challenge + proof), and the accept/handshake storm is
  // exactly where readiness-driven dispatch earns its keep — a poll()
  // supervisor rescans every watched fd per accept, O(n^2) across a
  // population ramp. connect_s and protocol_s stay reported separately so
  // the phases can be compared on their own.
  result.total_s = result.connect_s + result.protocol_s;
  const double exchanges =
      static_cast<double>(result.messages) + 2.0 * static_cast<double>(workers);
  result.exchanges_per_s =
      result.total_s > 0 ? exchanges / result.total_s : 0.0;
  result.verdicts_per_s =
      result.total_s > 0 ? static_cast<double>(result.verdicts) / result.total_s
                         : 0.0;
  return result;
}

void print_result(const RunResult& result) {
  std::printf("gridload: engine=%s chaos=%s "
              "connect=%.2fs (%.0f/s) "
              "protocol=%.2fs total=%.2fs exchanges/s=%.0f verdicts=%zu (%.0f/s) "
              "accepted=%zu rejected=%zu aborted=%zu honest_accusations=%zu "
              "p50=%.1fms p99=%.1fms hwm=%zu shed=%" PRIu64 " evicted=%" PRIu64
              " idle_timeout_ms=%" PRIu64 "\n",
              result.engine.c_str(), result.chaos.c_str(),
              result.connect_s,
              result.connects_per_s, result.protocol_s, result.total_s,
              result.exchanges_per_s, result.verdicts, result.verdicts_per_s,
              result.accepted, result.rejected, result.aborted,
              result.honest_accusations, result.p50_ms, result.p99_ms,
              result.write_queue_hwm, result.frames_shed, result.peers_evicted,
              result.idle_timeout_ms);
  std::printf("gridload:   read_calls=%" PRIu64 " write_calls=%" PRIu64
              " frames_per_write=%.2f refused=%" PRIu64 " undecodable=%" PRIu64
              " truncated=%" PRIu64 " connect_failures=%zu%s\n",
              result.read_calls, result.write_calls,
              result.frames_per_write_mean, result.refused, result.undecodable,
              result.truncated, result.connect_failures,
              result.deadline_hit ? " DEADLINE-HIT" : "");
  if (result.pipeline_epochs > 1) {
    std::printf("gridload:   pipelined epochs=%" PRIu64
                " wasted_epochs=%" PRIu64 " one_shot_epochs=%" PRIu64 "\n",
                result.pipeline_epochs, result.wasted_epochs,
                result.one_shot_epochs);
  }
  std::fflush(stdout);
}

void emit_json_run(FILE* json, const RunResult& result, bool first) {
  std::fprintf(
      json,
      "%s    {\"engine\": \"%s\", \"connect_s\": %.3f, "
      "\"connects_per_sec\": %.1f, \"protocol_s\": %.3f, \"total_s\": %.3f, "
      "\"exchanges_per_sec\": %.1f, \"messages\": %" PRIu64 ", "
      "\"verdicts\": %zu, \"verdicts_per_sec\": %.1f, \"accepted\": %zu, "
      "\"rejected\": %zu, \"aborted\": %zu, \"honest_accusations\": %zu, "
      "\"p50_verdict_ms\": %.2f, \"p99_verdict_ms\": %.2f, ",
      first ? "" : ",\n", result.engine.c_str(), result.connect_s, result.connects_per_s, result.protocol_s,
      result.total_s, result.exchanges_per_s, result.messages, result.verdicts,
      result.verdicts_per_s, result.accepted, result.rejected, result.aborted,
      result.honest_accusations, result.p50_ms, result.p99_ms);
  std::fprintf(json,
               "\"write_queue_hwm\": %zu, \"read_calls\": %" PRIu64
               ", \"write_calls\": %" PRIu64
               ", \"frames_per_write_mean\": %.3f"
               ", \"handshakes_refused\": %" PRIu64
               ", \"frames_undecodable\": %" PRIu64
               ", \"streams_truncated\": %" PRIu64
               ", \"chaos\": \"%s\", \"frames_shed\": %" PRIu64
               ", \"peers_evicted\": %" PRIu64
               ", \"chaos_disconnects\": %" PRIu64
               ", \"chaos_accept_resets\": %" PRIu64
               ", \"idle_timeout_ms\": %" PRIu64
               ", \"pipeline_epochs\": %" PRIu64
               ", \"wasted_epochs\": %" PRIu64
               ", \"one_shot_epochs\": %" PRIu64 "}",
               result.write_queue_hwm, result.read_calls, result.write_calls,
               result.frames_per_write_mean,
               result.refused, result.undecodable,
               result.truncated, result.chaos.c_str(), result.frames_shed,
               result.peers_evicted, result.chaos_disconnects,
               result.chaos_resets, result.idle_timeout_ms,
               result.pipeline_epochs, result.wasted_epochs,
               result.one_shot_epochs);
}

int run_gridload(const cli::Flags& flags, bool smoke) {
  std::size_t workers = flags.u64("workers");
  if (smoke) {
    workers = std::min<std::size_t>(workers, 300);
  }
  // --active 0 means "everyone works" — otherwise only the first --active
  // registered workers get tasks and the rest hold idle connections open,
  // like any standing volunteer population.
  std::size_t active = flags.u64("active");
  active = active == 0 ? workers : std::min(active, workers);
  std::size_t cheaters;
  if (flags.str("cheaters") == "auto") {
    cheaters = active / 20;
  } else {
    cheaters = flags.u64("cheaters");
  }
  check(cheaters <= active, "gridload: --cheaters ", cheaters,
        " exceeds the active worker count ", active);
  double min_exchanges = flags.f64("min-exchanges-per-s");
  if (smoke && min_exchanges == 0.0) {
    min_exchanges = 50.0;  // the CI floor: catastrophic regressions only
  }

  // A load test that hangs is worse than one that fails: the watchdog
  // bounds the whole process and dumps the army's last-known per-worker
  // state instead of letting CI time the job out with nothing to show.
  RuntimeWatchdog watchdog;
  watchdog.start(flags.u64("max-runtime-s"));

  // External mode: army only, against a running gridd.
  if (!flags.str("connect").empty()) {
    const auto [host, port] = cli::parse_endpoint(flags.str("connect"));
    WorkerArmy::Config config;
    config.host = host;
    config.port = port;
    config.workers = workers;
    config.cheaters = cheaters;
    config.seed = flags.u64("seed");
    config.deadline_ms = flags.u64("deadline-ms");
    WorkerArmy army(config);
    watchdog.observe(&army, concat("external ", host, ":", port));
    Stopwatch clock;
    army.run();
    const double total_s = clock.elapsed_seconds();
    std::vector<double> latencies = army.latencies_ms();
    std::sort(latencies.begin(), latencies.end());
    std::printf("gridload: external %s:%u workers=%zu cheaters=%zu "
                "completed=%zu connect_failures=%zu total=%.2fs "
                "verdict_latencies=%zu p50=%.1fms p99=%.1fms%s\n",
                host.c_str(), port, workers, cheaters, army.completed(),
                army.connect_failures(), total_s, latencies.size(),
                percentile(latencies, 0.50), percentile(latencies, 0.99),
                army.deadline_hit() ? " DEADLINE-HIT" : "");
    std::fflush(stdout);
    if (army.deadline_hit() || army.connect_failures() > 0 ||
        army.completed() + cheaters < workers) {
      // Cheater connections may be cut early (accused); honest ones must
      // all complete with a verdict.
      return cli::kExitIncomplete;
    }
    return cli::kExitOk;
  }

  // The chaos curve: the same population over a clean wire, then light and
  // heavy WAN fault injection.
  const std::vector<std::string> levels{"off", "light", "heavy"};
  std::printf("gridload: chaos curve workers=%zu active=%zu cheaters=%zu "
              "points=%" PRIu64 " samples=%" PRIu64 " scheme=%s workload=%s%s\n",
              workers, active, cheaters, flags.u64("points"),
              flags.u64("samples"), flags.str("scheme").c_str(),
              flags.str("workload").c_str(), smoke ? "  [smoke]" : "");
  std::fflush(stdout);

  // Unrecorded warm-up: the first grid of the process pays page faults and
  // allocator growth that would otherwise bias the first level.
  const std::size_t warm = std::min<std::size_t>(workers, 100);
  run_grid(flags, warm, warm, 0, levels.front(), &watchdog);

  std::vector<RunResult> results;
  for (const std::string& level : levels) {
    results.push_back(
        run_grid(flags, workers, active, cheaters, level, &watchdog));
    print_result(results.back());
  }
  const RunResult& clean = results.front();
  const double ratio =
      clean.p99_ms > 0 ? results.back().p99_ms / clean.p99_ms : 0.0;

  const std::string out_path = flags.str("out");
  FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "gridload: cannot open %s for writing\n",
                 out_path.c_str());
    return cli::kExitError;
  }
  std::fprintf(json,
               "{\n  \"smoke\": %s,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"workers\": %zu,\n  \"active_workers\": %zu,\n"
               "  \"cheaters\": %zu,\n"
               "  \"points_per_worker\": %" PRIu64 ",\n"
               "  \"samples\": %" PRIu64 ",\n  \"epochs\": %" PRIu64 ",\n"
               "  \"scheme\": \"%s\",\n"
               "  \"workload\": \"%s\",\n  \"runs\": [\n",
               smoke ? "true" : "false", std::thread::hardware_concurrency(), workers, active, cheaters,
               flags.u64("points"), flags.u64("samples"), flags.u64("epochs"),
               flags.str("scheme").c_str(), flags.str("workload").c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    emit_json_run(json, results[i], i == 0);
  }
  std::fprintf(json, "\n  ],\n  \"chaos_heavy_vs_off_p99\": %.3f\n}\n",
               ratio);
  std::fclose(json);
  std::printf("gridload: heavy chaos vs clean wire p99 = %.2fx\n", ratio);
  std::printf("gridload: wrote %s\n", out_path.c_str());
  std::fflush(stdout);

  std::size_t honest_accusations = 0;
  std::size_t rejected = 0;
  bool incomplete = false;
  for (const RunResult& result : results) {
    honest_accusations += result.honest_accusations;
    rejected += result.rejected;
    incomplete = incomplete || result.deadline_hit ||
                 result.connect_failures > 0 || result.verdicts < active;
  }
  if (honest_accusations > 0) {
    std::fprintf(stderr,
                 "gridload: FAIL — %zu honest worker(s) accused\n",
                 honest_accusations);
    return cli::kExitRejected;
  }
  if (incomplete) {
    std::fprintf(stderr, "gridload: FAIL — run incomplete\n");
    return cli::kExitIncomplete;
  }
  if (cheaters > 0 && rejected == 0) {
    // Chaos must degrade latency, never detection: a hostile wire that
    // lets every cheater walk means the protocol drowned, not the network.
    std::fprintf(stderr,
                 "gridload: FAIL — no cheater caught across the chaos "
                 "curve (cheaters=%zu)\n",
                 cheaters);
    return cli::kExitIncomplete;
  }
  if (min_exchanges > 0 && clean.exchanges_per_s < min_exchanges) {
    // The throughput floor is a clean-wire gate: heavy chaos is *supposed*
    // to be slow.
    std::fprintf(stderr,
                 "gridload: FAIL — %.1f exchanges/s below the %.1f floor\n",
                 clean.exchanges_per_s, min_exchanges);
    return cli::kExitIncomplete;
  }
  return cli::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  // Thousands of sockets churning means writes into freshly-closed peers
  // are routine; they must come back as EPIPE, not kill the harness.
  std::signal(SIGPIPE, SIG_IGN);
  // --smoke is a bare switch (CI muscle memory from the bench binaries);
  // peel it off before the "--flag value" parser sees it.
  bool smoke = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }

  const std::map<std::string, std::string> spec{
      {"connect", ""},
      {"workers", "2000"},
      {"active", "0"},
      {"cheaters", "auto"},
      {"points", "4"},
      {"samples", "1"},
      {"epochs", "1"},
      {"epoch-inflight", "1"},
      {"scheme", "cbs"},
      {"workload", "test"},
      {"seed", "1"},
      {"idle-timeout-ms", "1000"},
      {"max-retries", "2"},
      {"deadline-ms", "180000"},
      {"min-exchanges-per-s", "0"},
      {"chaos-seed", "0"},
      {"shed-watermark", "0"},
      {"evict-after-ms", "0"},
      {"max-runtime-s", "900"},
      {"out", "BENCH_grid.chaos.json"},
  };
  std::optional<cli::Flags> flags;
  try {
    flags.emplace(static_cast<int>(args.size()), args.data(), spec);
  } catch (const ugc::Error& error) {
    std::fprintf(stderr, "gridload: %s (try --help)\n", error.what());
    return cli::kExitUsage;
  }
  if (flags->help()) {
    flags->print_usage(
        "gridload [--smoke]",
        "Load-test harness: drives --workers in-process scripted workers "
        "(honest + --cheaters) against a supervisor — self-hosted over a "
        "clean wire and under light and heavy WAN chaos (the latency "
        "degradation curve, written to --out), or an external gridd via "
        "--connect. --smoke shrinks the population and enforces the CI "
        "gates; --epochs N with --scheme pipelined-cbs streams per-epoch "
        "commitments (cheaters become mid-run defectors; the JSON gains "
        "wasted-epoch columns); --max-runtime-s bounds the whole process "
        "with a state-dumping watchdog.");
    return cli::kExitOk;
  }
  try {
    return run_gridload(*flags, smoke);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gridload: %s\n", error.what());
    return cli::kExitError;
  }
}
