// gridbench — the grid benchmark's measuring binary. run.py builds and
// drives it; it is not meant to be run by hand (see README.md).
//
//   gridbench --gridd PATH --work-dir DIR --seed N --seconds S --trace 0|1
//             --workers N --points P [--samples M] [--scheme NAME]
//             [--epochs E --epoch-samples K --epoch-inflight I]
//             [--cheat none|semi-honest|defector --cheat-fraction F]
//
// Runs gridd jobs back to back for S seconds (after one small unrecorded
// warm-up job) and prints one JSON document with every job's raw figures.
// With --trace 1 it first runs the in-process layer probes, and then
// alternates untraced and traced jobs so the tracing overhead can be read
// off their difference.

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>

#include "apps/cli.h"
#include "gridbench.h"

namespace {

using namespace gridbench;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_array(const std::vector<double>& values) {
  std::printf("[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
}

void print_job(const JobResult& r, bool first) {
  std::printf(
      "%s\n    {\"traced\": %s, \"engine\": %s, \"error\": %s, "
      "\"setup_s\": %.9g, \"register_s\": %.9g, \"protocol_s\": %.9g, "
      "\"load_wall_s\": %.9g, \"army_cpu_s\": %.9g, \"army_wall_s\": %.9g, "
      "\"gridd_cpu_s\": %.9g, \"gridd_max_rss_mb\": %.9g, \"gridd_exit\": %d, "
      "\"tasks\": %zu, \"army_verdicts\": %zu, \"accepted\": %zu, "
      "\"rejected\": %zu, \"aborted\": %zu, "
      "\"honest_accused\": %zu, \"cheaters_escaped\": %zu, \"cheaters\": %zu, "
      "\"bytes\": %" PRIu64 ", \"read_calls\": %" PRIu64
      ", \"write_calls\": %" PRIu64 ", \"frames_per_write\": %.9g, "
      "\"wasted_epochs\": %" PRIu64 ", \"cheaters_caught\": %zu, "
      "\"latency_ms\": ",
      first ? "" : ",", r.traced ? "true" : "false",
      json_string(r.engine).c_str(), json_string(r.error).c_str(), r.setup_s,
      r.register_s, r.protocol_s, r.load_wall_s, r.army_cpu_s, r.army_wall_s,
      r.gridd_cpu_s, r.gridd_max_rss_mb, r.gridd_exit, r.tasks,
      r.army_verdicts, r.accepted, r.rejected, r.aborted,
      r.honest_accused, r.cheaters_escaped, r.cheaters, r.bytes, r.read_calls,
      r.write_calls, r.frames_per_write, r.wasted_epochs, r.cheaters_caught);
  print_array(r.latency_ms);
  std::printf(", \"spans_ms\": {");
  bool first_span = true;
  for (const auto& [name, values] : r.spans_ms) {
    std::printf("%s\"%s\": ", first_span ? "" : ", ", name.c_str());
    print_array(values);
    first_span = false;
  }
  std::printf("}}");
}

// Pins the army, and every thread it starts, to one CPU per job, taking
// the CPUs it may use in turn. The library's domain sweep fans out to
// hardware-concurrency threads and joins them per window, so on a host whose
// CPUs are shared such a sweep runs at the pace of the slowest CPU. On one
// CPU a job runs at that CPU's pace; taking the CPUs in turn lets the median
// over jobs pass over a CPU that a neighbour keeps busy. gridd, spawned by
// the launcher forked earlier, is not pinned.
class ArmyPin {
 public:
  ArmyPin() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  void pin(std::size_t job) const {
    if (cpus_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[job % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
};

int run(const ugc::cli::Flags& flags, Launcher& launcher,
        const ArmyPin& pin) {
  JobConfig config;
  config.launcher = &launcher;
  config.gridd = flags.str("gridd");
  config.work_dir = flags.str("work-dir");
  config.seed = flags.u64("seed");
  JobShape& shape = config.shape;
  shape.workers = flags.u64("workers");
  shape.points = flags.u64("points");
  shape.samples = flags.u64("samples");
  shape.scheme = flags.str("scheme");
  shape.epochs = flags.u64("epochs");
  shape.epoch_samples = flags.u64("epoch-samples");
  shape.epoch_inflight = flags.u64("epoch-inflight");
  shape.cheat = flags.str("cheat");
  shape.cheat_fraction = flags.f64("cheat-fraction");
  const bool trace = flags.u64("trace") != 0;
  const std::string spans_path = flags.str("spans-out");

  std::printf("{");
  pin.pin(0);  // the layer probes and the warm-up share job 0's CPU
  if (trace) {
    std::FILE* spans = std::fopen((spans_path + ".layers.jsonl").c_str(), "w");
    std::map<std::string, Metric> metrics;
    double model_us = 0;
    probe_layers(shape, config.seed, metrics, model_us, spans);
    if (spans != nullptr) {
      std::fclose(spans);
    }
    std::printf("\n  \"layers\": {");
    bool first = true;
    for (const auto& [name, metric] : metrics) {
      std::printf("%s\n    \"%s\": [%.9g, \"%s\"]", first ? "" : ",",
                  name.c_str(), metric.value, metric.unit.c_str());
      first = false;
    }
    std::printf("},\n  \"model_us_per_task\": %.9g,", model_us);
  }

  // Warm-up: page in gridd and the army's code paths, unrecorded.
  JobConfig warm = config;
  warm.shape.workers = std::min<std::size_t>(shape.workers, 32);
  run_job(warm, false, nullptr);

  const auto start = std::chrono::steady_clock::now();
  const double seconds = static_cast<double>(flags.u64("seconds"));
  std::printf("\n  \"jobs\": [");
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (i >= (trace ? 2u : 1u) && elapsed >= seconds) {
      break;
    }
    const bool traced = trace && i % 2 == 1;
    // Each traced job overwrites the task spans: the file keeps the last.
    const std::string tasks_path = spans_path + ".tasks.jsonl";
    std::FILE* spans = traced ? std::fopen(tasks_path.c_str(), "w") : nullptr;
    pin.pin(i);
    const JobResult result = run_job(config, traced, spans);
    if (spans != nullptr) {
      std::fclose(spans);
    }
    print_job(result, i == 0);
    std::fflush(stdout);
    if (!result.error.empty()) {
      break;  // a broken job would only repeat; run.py reports it
    }
  }
  std::printf("\n  ]\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Launcher launcher;  // first, while this process is small
  const ArmyPin pin;
  std::fprintf(stderr, "gridbench: army pinned to one of %zu cpus per job\n",
               pin.cpus());
  // Thousands of sockets on each side of the loopback: lift the soft
  // descriptor limit to the hard one (gridd inherits it).
  rlimit files{};
  if (getrlimit(RLIMIT_NOFILE, &files) == 0) {
    files.rlim_cur = files.rlim_max;
    setrlimit(RLIMIT_NOFILE, &files);
  }
  const std::map<std::string, std::string> spec{
      {"gridd", ""},          {"work-dir", "."},      {"seed", "1"},
      {"seconds", "10"},      {"trace", "0"},         {"spans-out", ""},
      {"workers", "16"},      {"points", "4"},        {"samples", "0"},
      {"scheme", "cbs"},      {"epochs", "1"},        {"epoch-samples", "0"},
      {"epoch-inflight", "1"}, {"cheat", "none"},     {"cheat-fraction", "0"},
  };
  try {
    const ugc::cli::Flags flags(argc, argv, spec);
    return run(flags, launcher, pin);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gridbench: %s\n", error.what());
    return 1;
  }
}
