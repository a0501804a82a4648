#pragma once

// Shared declarations of the grid benchmark binary (see README.md in this
// directory): the job runner that drives a real gridd child with a worker
// army (army.cpp), and the in-process layer probes (layers.cpp).

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace gridbench {

// One gridd job: the population and the task shape every worker gets.
struct JobShape {
  std::size_t workers = 0;
  std::uint64_t points = 0;    // domain points per worker (one task each)
  std::size_t samples = 0;     // CBS samples m (0 = scheme default)
  std::string scheme = "cbs";
  std::uint64_t epochs = 1;    // pipelined-cbs only
  std::size_t epoch_samples = 0;
  std::size_t epoch_inflight = 1;
  std::string cheat = "none";  // none | semi-honest | defector
  double cheat_fraction = 0.0;

  bool pipelined() const { return epochs > 1; }
};

// Everything measured about one job. Times are seconds unless named _ms.
struct JobResult {
  bool traced = false;
  std::string engine;  // gridd's resolved event engine (listening line)
  double setup_s = 0;      // identities + gridd spawn until `listening`
  double register_s = 0;   // first connect -> first TaskAssignment read
  double protocol_s = 0;   // first assignment -> last verdict read
  double load_wall_s = 0;  // first connect -> gridd reaped
  double army_cpu_s = 0;   // army process CPU, first connect -> last verdict
  double army_wall_s = 0;  // first connect -> last verdict
  double gridd_cpu_s = 0;  // gridd user+sys from wait4
  double gridd_max_rss_mb = 0;
  int gridd_exit = -1;
  std::size_t tasks = 0;  // tasks the job should settle (= workers)
  std::size_t army_verdicts = 0;
  // From gridd's summary and verdict lines.
  std::size_t accepted = 0, rejected = 0, aborted = 0;
  std::size_t honest_accused = 0, cheaters_escaped = 0, cheaters = 0;
  std::uint64_t bytes = 0, read_calls = 0, write_calls = 0;
  double frames_per_write = 0;
  // Epoch commitments each caught cheater had sent when its verdict arrived.
  std::uint64_t wasted_epochs = 0;
  std::size_t cheaters_caught = 0;
  std::vector<double> latency_ms;  // assignment read -> verdict read, per task
  // Traced jobs only: per-span-kind durations (ms).
  std::map<std::string, std::vector<double>> spans_ms;
  std::string error;  // non-empty when the job could not complete
};

// Spawns and reaps gridd from a helper process forked while this process
// is still small. Linux carries a parent's peak RSS into the child's wait4
// ru_maxrss across exec, so a gridd spawned straight from the grown army
// would report the army's memory as its own.
class Launcher {
 public:
  Launcher();   // forks the helper; construct before the army allocates
  ~Launcher();  // closes the helper's pipe and waits for it to exit
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  // `request` is stdout path, stderr path, binary and arguments, each
  // NUL-terminated but the last. Returns the pid, or -errno.
  pid_t spawn(const std::string& request);
  // True once the spawned process has exited (waits up to `timeout_s`).
  bool exited(double timeout_s) const;
  // Its wait status and rusage; blocks until it has exited.
  void collect(int& status, rusage& usage);

 private:
  int requests_ = -1;
  int replies_ = -1;
  pid_t pid_ = -1;
};

struct JobConfig {
  Launcher* launcher = nullptr;
  std::string gridd;     // path of the gridd binary
  std::string work_dir;  // gridd's stdout/stderr files live here
  std::uint64_t seed = 1;
  JobShape shape;
};

// Spawns gridd, runs the army against it until every task settles, reaps
// gridd and parses its output. With `traced`, per-frame spans are recorded
// into the result and (when `spans_out` is open) written there as JSON lines.
JobResult run_job(const JobConfig& config, bool traced, std::FILE* spans_out);

// Times each layer's public entry points in-process. Named metrics go to
// `metrics` (name -> {value, unit}); `model_us` is the supervisor's modelled
// CPU per task for `shape`: the sum of layer costs times how often gridd
// pays each per task.
struct Metric {
  double value = 0;
  std::string unit;
};
void probe_layers(const JobShape& shape, std::uint64_t seed,
                  std::map<std::string, Metric>& metrics, double& model_us,
                  std::FILE* spans_out);

}  // namespace gridbench
