// The job runner: spawns the real gridd as a child process, drives it with a
// worker army, reaps it with wait4 and parses its output.
//
// The army is N authenticated grid participants in this one process: each
// has its own WorkerIdentity, socket, FrameDecoder and ParticipantNode, and
// all of them are multiplexed on one epoll event loop. Participant work runs
// on that loop thread through the library's own entry points (whose domain
// sweep may fan out to hardware-concurrency threads); main.cpp pins the army
// to one CPU per job, so at most one of its threads is busy at a time. The
// engine is pinned to epoll so a change of gridd's default backend never
// changes the load.
//
// The load is a closed loop: every worker sends its next frame only after
// gridd's reply, and new connections open only while fewer than
// kHandshakeWindow handshakes are outstanding.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "auth/handshake.h"
#include "auth/identity.h"
#include "common/rng.h"
#include "core/cheating.h"
#include "gridbench.h"
#include "grid/participant_node.h"
#include "net/event_engine.h"
#include "net/frame.h"
#include "net/socket.h"
#include "wire/codec.h"
#include "wire/messages.h"

extern char** environ;

namespace gridbench {
namespace {

using namespace ugc;
using Clock = std::chrono::steady_clock;

// At most this many connections wait for their HelloChallenge at once. It
// is far below gridd's listen backlog, so the kernel never drops a SYN: a
// dropped SYN costs a 1 s retransmit that would read as supervisor delay.
constexpr std::size_t kHandshakeWindow = 64;
constexpr double kJobTimeoutS = 60.0;
constexpr double kListenTimeoutS = 20.0;

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double cpu_seconds(const rusage& usage) {
  return seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
}

double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return cpu_seconds(usage);
}

// Value of ` key=` in a gridd log line, up to the next space ("" if absent).
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  const std::size_t begin = at + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

std::uint64_t field_u64(const std::string& line, const std::string& key) {
  return std::strtoull(field(line, key).c_str(), nullptr, 10);
}

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, bytes, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// The launcher process's loop: one request is out_path, err_path and the
// command line, NUL-separated; it answers with the pid (or -errno), then,
// once that child exits, with its wait status and rusage.
[[noreturn]] void serve_launches(int requests, int replies) {
  for (;;) {
    std::uint32_t size = 0;
    std::string request;
    if (!read_all(requests, &size, sizeof size)) {
      ::_exit(0);  // the benchmark closed its end: done
    }
    request.resize(size);
    if (!read_all(requests, request.data(), size)) {
      ::_exit(0);
    }
    std::vector<char*> parts = {request.data()};
    for (std::size_t at = 0; at < request.size(); ++at) {
      if (request[at] == '\0') {
        parts.push_back(request.data() + at + 1);
      }
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, parts[0],
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, parts[1],
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> argv(parts.begin() + 2, parts.end());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    const std::int32_t answer = rc == 0 ? pid : -rc;
    write_all(replies, &answer, sizeof answer);
    if (rc != 0) {
      continue;
    }
    // Wait for the child, but kill it if the benchmark goes away first
    // (its end of the request pipe then reads as EOF).
    const int child = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    pollfd watch[2] = {{child, POLLIN, 0}, {requests, POLLIN, 0}};
    while (child >= 0 && ::poll(watch, 2, -1) >= 0 &&
           (watch[0].revents & POLLIN) == 0) {
      if (watch[1].revents != 0) {
        ::kill(pid, SIGKILL);
        break;
      }
    }
    if (child >= 0) {
      ::close(child);
    }
    int status = 0;
    rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    write_all(replies, &status, sizeof status);
    write_all(replies, &usage, sizeof usage);
  }
}

// One gridd, spawned and reaped through the launcher. The destructor kills
// a gridd that is still running, so no error path leaves one behind.
class GriddProcess {
 public:
  GriddProcess(Launcher& launcher, const std::string& binary,
               const std::vector<std::string>& args,
               const std::string& out_path, const std::string& err_path)
      : launcher_(launcher) {
    std::string request = out_path + '\0' + err_path + '\0' + binary;
    for (const std::string& arg : args) {
      request += '\0' + arg;
    }
    pid_ = launcher_.spawn(request);
    check(pid_ > 0, "cannot spawn ", binary, ": ", std::strerror(-pid_));
  }
  ~GriddProcess() {
    if (!reaped_) {
      rusage usage{};
      reap(0.0, usage);
    }
  }
  GriddProcess(const GriddProcess&) = delete;
  GriddProcess& operator=(const GriddProcess&) = delete;

  bool running() const { return !launcher_.exited(0.0); }

  // Waits for gridd to exit, killing it after `timeout_s`. Returns the exit
  // code (-signal when killed) and fills `usage` from gridd's wait4.
  int reap(double timeout_s, rusage& usage) {
    if (!launcher_.exited(timeout_s)) {
      ::kill(pid_, SIGKILL);
    }
    int status = 0;
    launcher_.collect(status, usage);
    reaped_ = true;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

 private:
  Launcher& launcher_;
  pid_t pid_ = -1;
  bool reaped_ = false;
};

// Follows gridd's stdout file until the `listening` line appears.
bool wait_listening(const std::string& path, const GriddProcess& gridd,
                    std::uint16_t& port, std::string& engine) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(kListenTimeoutS);
  std::string text;
  int fd = -1;
  char buffer[4096];
  bool found = false;
  while (!found && Clock::now() < deadline) {
    if (fd < 0) {
      fd = ::open(path.c_str(), O_RDONLY);
    }
    if (fd >= 0) {
      ssize_t n = 0;
      while ((n = ::read(fd, buffer, sizeof buffer)) > 0) {
        text.append(buffer, static_cast<std::size_t>(n));
      }
    }
    const std::size_t at = text.find("gridd: listening on ");
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const std::string line = text.substr(at, eol - at);
      const std::string endpoint =
          line.substr(20, line.find(' ', 20) - 20);
      port = static_cast<std::uint16_t>(
          std::strtoul(endpoint.substr(endpoint.rfind(':') + 1).c_str(),
                       nullptr, 10));
      engine = field(line, "engine");
      found = port != 0;
    } else if (!gridd.running()) {
      break;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  if (fd >= 0) {
    ::close(fd);
  }
  return found;
}

// Who the army's workers are: identities come from the seed, and so does
// the choice of which workers cheat.
struct Roster {
  std::vector<auth::WorkerIdentity> identities;
  std::vector<bool> cheater;
  std::size_t cheaters = 0;
};

Roster make_roster(const JobShape& shape, std::uint64_t seed) {
  Roster roster;
  Rng identity_rng(seed * 0x9e3779b97f4a7c15ull + 1);
  roster.identities.reserve(shape.workers);
  for (std::size_t i = 0; i < shape.workers; ++i) {
    roster.identities.push_back(auth::WorkerIdentity::generate(identity_rng));
  }
  roster.cheater.assign(shape.workers, false);
  if (shape.cheat != "none") {
    roster.cheaters = static_cast<std::size_t>(std::llround(
        shape.cheat_fraction * static_cast<double>(shape.workers)));
    std::vector<std::size_t> order(shape.workers);
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    Rng pick(seed ^ 0xc3a5c85c97cb3127ull);
    for (std::size_t i = 0; i < roster.cheaters; ++i) {  // partial shuffle
      std::swap(order[i], order[i + pick.uniform(order.size() - i)]);
      roster.cheater[order[i]] = true;
    }
  }
  return roster;
}

std::vector<std::string> gridd_args(const JobShape& shape, std::uint64_t seed) {
  std::vector<std::string> args = {
      "--workers", std::to_string(shape.workers),
      "--domain-end", std::to_string(shape.workers * shape.points),
      "--workload", "test",
      "--scheme", shape.scheme,
      "--seed", std::to_string(seed),
      "--workload-seed", std::to_string(seed)};
  if (shape.samples > 0) {
    args.insert(args.end(), {"--samples", std::to_string(shape.samples)});
  }
  if (shape.pipelined()) {
    args.insert(args.end(),
                {"--epochs", std::to_string(shape.epochs), "--epoch-samples",
                 std::to_string(shape.epoch_samples), "--epoch-inflight",
                 std::to_string(shape.epoch_inflight)});
  }
  return args;
}

class Army;

// Transport façade for one worker: ParticipantNode sends through it, and
// the army frames the message onto that worker's socket.
class WorkerLink final : public Transport {
 public:
  WorkerLink(Army& army, std::size_t worker) : army_(army), worker_(worker) {}
  void send(GridNodeId, GridNodeId, const Message& message) override;
  const NetworkStats& stats() const override { return stats_; }
  static void bind(GridNode& node) { assign_id(node, GridNodeId{1}); }

 private:
  Army& army_;
  std::size_t worker_;
  NetworkStats stats_;
};

class Army {
 public:
  Army(const JobShape& shape, std::uint64_t seed, const Roster& roster,
       bool traced, JobResult& result)
      : shape_(shape), seed_(seed), roster_(roster), traced_(traced),
        result_(result) {}

  // Connects every worker to gridd on `port` and runs the loop until every
  // task has a verdict, the job times out, or gridd hangs up on everyone.
  void run(std::uint16_t port) {
    port_ = port;
    engine_ = net::make_event_engine(net::EngineBackend::kEpoll);
    workers_.resize(shape_.workers);
    std::vector<net::ReadyEvent> ready;
    Bytes scratch(64 * 1024);
    t0_ = Clock::now();
    const double cpu0 = self_cpu_seconds();
    while (verdicts_ < shape_.workers) {
      while (created_ < shape_.workers && handshaking_ < kHandshakeWindow) {
        open(created_++);
      }
      if (now_ns() > static_cast<std::int64_t>(kJobTimeoutS * 1e9)) {
        result_.error = concat("job timed out with ", verdicts_, "/",
                               shape_.workers, " verdicts");
        break;
      }
      if (created_ == shape_.workers && live_ == 0) {
        result_.error = concat("gridd closed every connection after ",
                               verdicts_, "/", shape_.workers, " verdicts");
        break;
      }
      engine_->wait(100, ready);
      for (const net::ReadyEvent& event : ready) {
        Worker& worker = *workers_[static_cast<std::size_t>(event.token)];
        if (!worker.socket.valid()) {
          continue;
        }
        if (event.readable || event.error) {
          read(worker, scratch);
        }
        if (worker.socket.valid() && event.writable) {
          flush(worker);
        }
      }
    }
    const std::int64_t end_ns =
        last_verdict_ns_ > 0 ? last_verdict_ns_ : now_ns();
    result_.army_cpu_s = self_cpu_seconds() - cpu0;
    result_.army_wall_s = static_cast<double>(end_ns) * 1e-9;
    result_.register_s = static_cast<double>(first_assign_ns_) * 1e-9;
    result_.protocol_s =
        static_cast<double>(last_verdict_ns_ - first_assign_ns_) * 1e-9;
    result_.army_verdicts = verdicts_;
    for (auto& worker : workers_) {
      if (worker != nullptr && worker->socket.valid()) {
        engine_->remove(worker->socket.fd());
        worker->socket.close();
      }
    }
  }

  Clock::time_point t0() const { return t0_; }

  // Spans as JSON lines, times in ns since the first connect.
  void write_spans(std::FILE* out) const {
    for (const SpanRecord& s : spans_) {
      std::fprintf(out,
                   "{\"trace\": %" PRIu64 ", \"span\": \"%s\", \"parent\": "
                   "\"%s\", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64
                   "}\n",
                   s.task, s.name,
                   std::strcmp(s.name, "task") == 0 ? "" : "task", s.start,
                   s.end);
    }
  }

  // Called by WorkerLink: frames `message` onto the worker's output buffer
  // and stamps the participant's outgoing protocol steps.
  void send(std::size_t index, const Message& message) {
    Worker& worker = *workers_[index];
    encode_message_into(message, encode_scratch_);
    net::append_frame(encode_scratch_, worker.out);
    const std::int64_t now = now_ns();
    if (const auto* c = std::get_if<Commitment>(&message)) {
      committed(c->task.value, 0, now);
    } else if (const auto* e = std::get_if<EpochCommitment>(&message)) {
      committed(e->task.value, e->epoch, now);
    } else if (const auto* p = std::get_if<ProofResponse>(&message)) {
      proved(p->task.value, 0, now);
    } else if (const auto* ep = std::get_if<EpochProofResponse>(&message)) {
      proved(ep->task.value, ep->epoch, now);
    }
  }

 private:
  struct Worker {
    std::size_t index = 0;
    net::Socket socket;
    net::FrameDecoder decoder;
    Bytes out;
    std::size_t out_offset = 0;
    net::Interest armed = net::Interest::kRead;
    bool challenged = false;
    bool defect_pending = false;
    std::unique_ptr<ParticipantNode> node;
    std::unique_ptr<WorkerLink> link;
  };

  // One task's timeline at the worker (ns since the first connect).
  struct TaskState {
    std::int64_t assigned = -1;
    std::int64_t trigger = -1;     // read of the frame that unblocked compute
    std::int64_t last_proof = -1;
    std::uint64_t commitments = 0;
    std::uint64_t acks = 0;
    bool settled = false;
    std::map<std::uint64_t, std::int64_t> committed, challenged;
  };

  struct SpanRecord {
    std::uint64_t task;
    const char* name;
    std::int64_t start, end;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  // Records one span of task `task` (the trace id); every span's parent is
  // the task's own "task" span, assignment read -> verdict read.
  void span(const char* name, std::uint64_t task, std::int64_t start,
            std::int64_t end) {
    if (traced_ && start >= 0) {
      result_.spans_ms[name].push_back(static_cast<double>(end - start) * 1e-6);
      spans_.push_back({task, name, start, end});
    }
  }

  void committed(std::uint64_t task, std::uint64_t epoch, std::int64_t now) {
    TaskState& state = tasks_[task];
    ++state.commitments;
    if (traced_) {
      span("commit", task, state.trigger, now);
      state.committed[epoch] = now;
      state.trigger = now;  // the next epoch's sweep starts here
    }
  }

  void proved(std::uint64_t task, std::uint64_t epoch, std::int64_t now) {
    if (traced_) {
      TaskState& state = tasks_[task];
      const auto it = state.challenged.find(epoch);
      span("prove", task, it == state.challenged.end() ? -1 : it->second, now);
      state.last_proof = now;
    }
  }

  void open(std::size_t index) {
    auto worker = std::make_unique<Worker>();
    worker->index = index;
    ParticipantNode::Options options;
    options.conduct_seed = seed_ + index;
    if (roster_.cheater[index] && shape_.cheat == "semi-honest") {
      options.policy = make_semi_honest_cheater({0.5, 0.0, seed_ + index});
    }
    worker->defect_pending =
        roster_.cheater[index] && shape_.cheat == "defector";
    worker->node = std::make_unique<ParticipantNode>(std::move(options));
    worker->link = std::make_unique<WorkerLink>(*this, index);
    WorkerLink::bind(*worker->node);
    worker->socket = net::tcp_connect("127.0.0.1", port_);
    engine_->add(worker->socket.fd(), index, net::Interest::kRead);
    workers_[index] = std::move(worker);
    ++handshaking_;
    ++live_;
  }

  void close(Worker& worker) {
    engine_->remove(worker.socket.fd());
    worker.socket.close();
    if (!worker.challenged) {
      --handshaking_;
    }
    --live_;
  }

  void read(Worker& worker, Bytes& scratch) {
    for (int round = 0; round < 16 && worker.socket.valid(); ++round) {
      const net::IoResult io =
          net::read_some(worker.socket, std::span<std::uint8_t>(scratch));
      if (io.status == net::IoStatus::kWouldBlock) {
        break;
      }
      if (io.status != net::IoStatus::kOk || io.bytes == 0) {
        close(worker);  // gridd hung up (or the socket failed)
        return;
      }
      try {
        worker.decoder.feed(BytesView(scratch.data(), io.bytes));
        while (const auto frame = worker.decoder.next()) {
          on_frame(worker, *frame, now_ns());  // stamped per frame
        }
      } catch (const Error& error) {
        result_.error = concat("army: bad frame from gridd: ", error.what());
        close(worker);
        return;
      }
    }
    if (worker.socket.valid()) {
      flush(worker);
    }
  }

  void on_frame(Worker& worker, BytesView payload, std::int64_t now) {
    const Message message = decode_message(payload);
    if (const auto* challenge = std::get_if<HelloChallenge>(&message)) {
      const std::size_t self = worker.index;
      worker.challenged = true;
      --handshaking_;
      worker.link->send(
          GridNodeId{1}, GridNodeId{0},
          Message(auth::make_hello_proof(
              roster_.identities[self], challenge->nonce, kGridProtocol,
              concat(roster_.cheater[self] ? "cheater-" : "honest-", self))));
      return;
    }
    const std::uint64_t task = task_of(message).value;
    if (const auto* assignment = std::get_if<TaskAssignment>(&message)) {
      if (first_assign_ns_ < 0) {
        first_assign_ns_ = now;
      }
      TaskState& state = tasks_[task];
      if (state.assigned < 0) {
        state.assigned = now;
      }
      state.trigger = now;
      if (worker.defect_pending) {
        // A defector turns dishonest at the midpoint of the domain it was
        // just handed, so the node is rebuilt around that policy.
        ParticipantNode::Options options;
        options.policy = make_defector_cheater(
            {(assignment->domain_begin + assignment->domain_end) / 2, 0.0,
             seed_ + worker.index});
        options.conduct_seed = seed_ + worker.index;
        worker.node = std::make_unique<ParticipantNode>(std::move(options));
        WorkerLink::bind(*worker.node);
        worker.defect_pending = false;
      }
    } else if (traced_) {
      TaskState& state = tasks_[task];
      if (std::holds_alternative<SampleChallenge>(message)) {
        on_challenge(task, state, 0, now);
      } else if (const auto* ec = std::get_if<EpochChallenge>(&message)) {
        on_challenge(task, state, ec->epoch, now);
      } else if (const auto* ack = std::get_if<EpochAck>(&message)) {
        span("epoch_wait", task, committed_at(state, ack->epoch), now);
        state.trigger = now;
        ++state.acks;
      }
    }
    if (const auto* verdict = std::get_if<Verdict>(&message)) {
      on_verdict(worker, *verdict, now);
    }
    worker.node->on_message(GridNodeId{0}, message, *worker.link);
  }

  static std::int64_t committed_at(const TaskState& state,
                                   std::uint64_t epoch) {
    const auto it = state.committed.find(epoch);
    return it == state.committed.end() ? -1 : it->second;
  }

  void on_challenge(std::uint64_t task, TaskState& state, std::uint64_t epoch,
                    std::int64_t now) {
    state.challenged[epoch] = now;
    span("challenge_wait", task, committed_at(state, epoch), now);
  }

  void on_verdict(Worker& worker, const Verdict& verdict, std::int64_t now) {
    TaskState& state = tasks_[verdict.task.value];
    if (state.settled || state.assigned < 0) {
      return;
    }
    state.settled = true;
    ++verdicts_;
    last_verdict_ns_ = now;
    result_.latency_ms.push_back(static_cast<double>(now - state.assigned) *
                                 1e-6);
    if (roster_.cheater[worker.index] && !verdict.accepted()) {
      result_.wasted_epochs += state.commitments;
      ++result_.cheaters_caught;
    }
    if (traced_) {
      const std::uint64_t task = verdict.task.value;
      span("task", task, state.assigned, now);
      span("verdict_wait", task, state.last_proof, now);
      if (verdict.accepted() && state.acks == 0 && !state.committed.empty()) {
        // One-shot CBS has a single epoch, settled by the verdict instead
        // of an EpochAck.
        span("epoch_wait", task, state.committed.begin()->second, now);
      }
    }
  }

  void flush(Worker& worker) {
    while (worker.out_offset < worker.out.size()) {
      const net::IoResult io = net::write_some(
          worker.socket, BytesView(worker.out).subspan(worker.out_offset));
      if (io.status == net::IoStatus::kWouldBlock) {
        break;
      }
      if (io.status != net::IoStatus::kOk) {
        close(worker);
        return;
      }
      worker.out_offset += io.bytes;
    }
    if (worker.out_offset == worker.out.size()) {
      worker.out.clear();
      worker.out_offset = 0;
    }
    const net::Interest want = worker.out.empty() ? net::Interest::kRead
                                                  : net::Interest::kReadWrite;
    if (want != worker.armed) {
      engine_->modify(worker.socket.fd(), worker.index, want);
      worker.armed = want;
    }
  }

  const JobShape& shape_;
  std::uint64_t seed_;
  const Roster& roster_;
  bool traced_;
  JobResult& result_;
  std::uint16_t port_ = 0;
  std::unique_ptr<net::EventEngine> engine_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unordered_map<std::uint64_t, TaskState> tasks_;
  Bytes encode_scratch_;
  std::vector<SpanRecord> spans_;
  Clock::time_point t0_;
  std::size_t created_ = 0, handshaking_ = 0, live_ = 0, verdicts_ = 0;
  std::int64_t first_assign_ns_ = -1, last_verdict_ns_ = -1;
};

void WorkerLink::send(GridNodeId, GridNodeId, const Message& message) {
  army_.send(worker_, message);
}

// Folds gridd's verdict and summary lines into the result.
void parse_gridd_output(const std::string& path, JobResult& result) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  check(file != nullptr, "cannot read gridd output ", path);
  char buffer[1024];
  while (std::fgets(buffer, sizeof buffer, file) != nullptr) {
    const std::string line(buffer);
    if (line.starts_with("gridd: verdict ")) {
      const std::string agent = field(line, "agent");
      const std::string status = field(line, "status");
      if (agent.starts_with("honest") && status != "accepted" &&
          status != "aborted") {
        ++result.honest_accused;
      }
      if (agent.starts_with("cheater") && status == "accepted") {
        ++result.cheaters_escaped;
      }
    } else if (line.starts_with("gridd: summary ")) {
      result.accepted = field_u64(line, "accepted");
      result.rejected = field_u64(line, "rejected");
      result.aborted = field_u64(line, "aborted");
      result.bytes = field_u64(line, "bytes");
      result.read_calls = field_u64(line, "read_calls");
      result.write_calls = field_u64(line, "write_calls");
      result.frames_per_write =
          std::strtod(field(line, "frames_per_write").c_str(), nullptr);
    }
  }
  std::fclose(file);
}

}  // namespace

Launcher::Launcher() {
  int requests[2];
  int replies[2];
  check(::pipe2(requests, O_CLOEXEC) == 0 && ::pipe2(replies, O_CLOEXEC) == 0,
        "launcher pipes: ", std::strerror(errno));
  pid_ = ::fork();
  check(pid_ >= 0, "fork: ", std::strerror(errno));
  if (pid_ == 0) {
    ::close(requests[1]);
    ::close(replies[0]);
    serve_launches(requests[0], replies[1]);
  }
  ::close(requests[0]);
  ::close(replies[1]);
  requests_ = requests[1];
  replies_ = replies[0];
}

Launcher::~Launcher() {
  ::close(requests_);  // the launcher sees EOF and exits
  ::close(replies_);
  ::waitpid(pid_, nullptr, 0);
}

pid_t Launcher::spawn(const std::string& request) {
  const auto size = static_cast<std::uint32_t>(request.size());
  std::int32_t answer = -EPIPE;
  if (write_all(requests_, &size, sizeof size) &&
      write_all(requests_, request.data(), size)) {
    read_all(replies_, &answer, sizeof answer);
  }
  return answer;
}

bool Launcher::exited(double timeout_s) const {
  pollfd ready{replies_, POLLIN, 0};
  return ::poll(&ready, 1, static_cast<int>(timeout_s * 1000.0)) > 0;
}

void Launcher::collect(int& status, rusage& usage) {
  check(read_all(replies_, &status, sizeof status) &&
            read_all(replies_, &usage, sizeof usage),
        "launcher died");
}

JobResult run_job(const JobConfig& config, bool traced, std::FILE* spans_out) {
  JobResult result;
  result.traced = traced;
  result.tasks = config.shape.workers;
  const std::string out_path = config.work_dir + "/gridd.out";
  const std::string err_path = config.work_dir + "/gridd.err";

  const auto setup_start = Clock::now();
  const Roster roster = make_roster(config.shape, config.seed);
  result.cheaters = roster.cheaters;
  GriddProcess gridd(*config.launcher, config.gridd,
                     gridd_args(config.shape, config.seed), out_path, err_path);
  std::uint16_t port = 0;
  if (!wait_listening(out_path, gridd, port, result.engine)) {
    result.error = concat("gridd printed no listening line (see ", err_path,
                          ")");
    return result;
  }
  result.setup_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();

  Army army(config.shape, config.seed, roster, traced, result);
  try {
    army.run(port);
  } catch (const std::exception& error) {
    result.error = concat("army: ", error.what());
  }
  rusage usage{};
  result.gridd_exit = gridd.reap(result.error.empty() ? 30.0 : 0.0, usage);
  result.load_wall_s =
      std::chrono::duration<double>(Clock::now() - army.t0()).count();
  result.gridd_cpu_s = cpu_seconds(usage);
  result.gridd_max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  parse_gridd_output(out_path, result);
  if (traced && spans_out != nullptr) {
    army.write_spans(spans_out);
  }
  return result;
}

}  // namespace gridbench
