#!/usr/bin/env python3
"""Grid benchmark: the real gridd under a worker army (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds gridd and the benchmark binary from the sources of the checkout it
sits in, runs gridd jobs for S seconds, checks every verdict, prints what it
saw and, as its last line, one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
the per-layer ones plus the tracing overhead. Exits 1 when any task failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Job shapes. Every worker gets one task of `points` points of the `test`
# workload; the seed picks identities, cheaters, gridd's sampling and f.
WORKLOADS = {
    # Per-connection cost: accept, handshake, tiny frames, a log line per
    # worker. Merkle and core see only 4-leaf trees.
    "register-storm": dict(workers=2000, points=4, samples=1, scheme="cbs"),
    # The paper's Steps 1-4 at a realistic size; participant commitment
    # sets the wall time, crypto/merkle/core dominate gridd's CPU.
    "deep-verify": dict(workers=64, points=1 << 14, samples=32, scheme="cbs",
                        cheat="semi-honest", cheat_fraction=0.05),
    # Long-lived connections streaming dozens of coalesced frames each,
    # per-epoch verification and the rolling SPRT.
    "epoch-stream": dict(workers=500, points=1024, scheme="pipelined-cbs",
                         epochs=16, epoch_samples=4, epoch_inflight=4,
                         cheat="defector", cheat_fraction=0.05),
}
# Smoke-size shapes for --selftest: same schemes, a handful of workers.
TINY = {
    "register-storm": dict(workers=16),
    "deep-verify": dict(workers=16, points=1024),
    "epoch-stream": dict(workers=16, points=256),
}

E2E_UNITS = {
    "setup_s": "s",
    "registrations_per_s": "workers/s",
    "verdicts_per_s": "tasks/s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "gridd_cpu_us_per_task": "us",
    "gridd_max_rss_mb": "MB",
    "wasted_epochs_per_defector": "epochs",
}
SPAN_KINDS = ["commit", "challenge_wait", "prove", "verdict_wait", "epoch_wait"]
LOAD_BOUND = 0.95


def log(line):
    print("perfbench: " + line, flush=True)


def percentile(values, p):
    """Linear interpolation between closest ranks, p in [0, 100]."""
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures once, then builds gridd and gridbench incrementally."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "gridbench", "-j",
                  str(os.cpu_count() or 1)])
    with open(logfile, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sink.flush()
                with open(logfile) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise SystemExit("perfbench: build failed (see %s)" % logfile)
    return os.path.join(out, "gridbench"), os.path.join(out, "ugc", "gridd")


def run_binary(binary, gridd, name, shape, seed, seconds, trace):
    work = os.path.join(build_dir(), "work", name)
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    args = [binary, "--gridd", gridd, "--work-dir", work, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--spans-out", os.path.join(traces, "%s-seed%d" % (name, seed))]
    for key, value in shape.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=seconds + 120)
        sys.stderr.write(done.stderr)
        if done.returncode == 0:
            return json.loads(done.stdout)
        log("gridbench exited %d" % done.returncode)
    except (subprocess.TimeoutExpired, ValueError) as error:
        log("gridbench failed: %s" % error)
    return None


def job_failures(job, expected_cheaters):
    """Failed tasks of one job: unsettled, honest accused, cheater escaped."""
    settled = job["accepted"] + job["rejected"]
    unsettled = max(job["tasks"] - settled, job["tasks"] - job["army_verdicts"])
    escaped = job["cheaters_escaped"] if expected_cheaters else 0
    return unsettled + job["honest_accused"] + escaped


def end_to_end(jobs, shape):
    median = lambda f: statistics.median(f(j) for j in jobs)
    latencies = [x for j in jobs for x in j["latency_ms"]]
    caught = sum(j["cheaters_caught"] for j in jobs)
    return {
        "setup_s": median(lambda j: j["setup_s"]),
        "registrations_per_s": median(lambda j: j["tasks"] / j["register_s"]),
        "verdicts_per_s": median(lambda j: j["army_verdicts"] / j["protocol_s"]),
        # Per job, then the median over jobs: one slow job moves neither.
        "verdict_p50_ms": median(lambda j: percentile(j["latency_ms"], 50)),
        "verdict_p99_ms": median(lambda j: percentile(j["latency_ms"], 99)),
        "gridd_cpu_us_per_task": median(
            lambda j: 1e6 * j["gridd_cpu_s"] / (j["accepted"] + j["rejected"])),
        "gridd_max_rss_mb": median(lambda j: j["gridd_max_rss_mb"]),
        # Without a caught cheater this is the one-shot figure: a cheater
        # computes all of its epochs before any verdict.
        "wasted_epochs_per_defector":
            sum(j["wasted_epochs"] for j in jobs) / caught if caught
            else float(shape.get("epochs", 1)),
    }, len(latencies)


def busy_ratios(jobs):
    """gridd's and the army's CPU over their job wall time, job medians."""
    return (statistics.median(j["gridd_cpu_s"] / j["load_wall_s"] for j in jobs),
            statistics.median(j["army_cpu_s"] / j["army_wall_s"] for j in jobs))


def per_layer(data, untraced, traced, e2e_plain):
    median = lambda jobs, f: statistics.median(f(j) for j in jobs)
    everyone = untraced + traced
    metrics = {name: tuple(metric) for name, metric in data["layers"].items()}
    for kind in SPAN_KINDS:
        values = [x for j in traced for x in j["spans_ms"].get(kind, [])]
        for p in (50, 99):
            metrics["grid.%s_ms.p%d" % (kind, p)] = (percentile(values, p), "ms")
        log("grid.%s_ms p50/p99 from n=%d spans" % (kind, len(values)))
    gridd_busy, army_busy = busy_ratios(everyone)
    metrics["grid.gridd_busy_ratio"] = (gridd_busy, "ratio")
    metrics["grid.army_busy_ratio"] = (army_busy, "ratio")
    for key, unit in (("read_calls", "calls/task"), ("write_calls", "calls/task"),
                      ("bytes", "B/task")):
        metrics["net.%s_per_task" % key] = (
            median(everyone, lambda j: j[key] / j["tasks"]), unit)
    metrics["net.frames_per_write"] = (
        median(everyone, lambda j: j["frames_per_write"]), "frames/write")
    # The probes' model plus gridd's read and write calls, each charged half
    # of a measured write+read pair.
    syscalls = (metrics["net.read_calls_per_task"][0] +
                metrics["net.write_calls_per_task"][0])
    syscall_us = syscalls * metrics["net.write_read_pair_ns"][0] / 2e3
    modelled = data["model_us_per_task"] + syscall_us
    metrics["model.gridd_cpu_coverage"] = (
        modelled / e2e_plain["gridd_cpu_us_per_task"], "ratio")
    log("model.gridd_cpu_coverage=%.3f: layers %.1f + syscalls %.1f of %.1f "
        "us/task" % (metrics["model.gridd_cpu_coverage"][0],
                     data["model_us_per_task"], syscall_us,
                     e2e_plain["gridd_cpu_us_per_task"]))
    return metrics


def host_line():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "host nproc=%d kernel=%s cpu=%r" % (os.cpu_count() or 0,
                                                platform.release(), cpu)


def run_workload(name, seed, seconds, trace, tiny=False):
    """Runs one workload; returns the result object the last line prints."""
    shape = dict(WORKLOADS[name])
    if tiny:
        shape.update(TINY[name])
    binary, gridd = build()
    data = run_binary(binary, gridd, name, shape, seed, seconds, trace)
    if data is None:
        return {"correct": False, "attempted": shape["workers"],
                "failed": shape["workers"], "metrics": {}}
    jobs = data["jobs"]
    log(host_line())
    expected_cheaters = round(shape.get("cheat_fraction", 0) * shape["workers"])
    failed = 0
    correct = bool(jobs)
    counts = set()
    for job in jobs:
        failed += job_failures(job, expected_cheaters)
        counts.add((job["accepted"], job["rejected"], job["aborted"]))
        ok = (not job["error"] and job["cheaters"] == expected_cheaters and
              job["gridd_exit"] == (2 if expected_cheaters else 0))
        if not ok:
            log("job failed: error=%r gridd_exit=%d cheaters=%d" %
                (job["error"], job["gridd_exit"], job["cheaters"]))
        correct = correct and ok
    expected = (shape["workers"] - expected_cheaters, expected_cheaters, 0)
    log("workload=%s seed=%d jobs=%d gridd_engine=%s army_engine=epoll "
        "counts accepted/rejected/aborted=%s expected %s" %
        (name, seed, len(jobs), ",".join(sorted({j["engine"] for j in jobs})),
         sorted(counts), expected))
    if counts != {expected}:
        log("counts differ between jobs of one seed, or from the roster")
        correct = False
    correct = correct and failed == 0
    attempted = sum(j["tasks"] for j in jobs)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {}}
    if not correct:
        return result

    untraced = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    e2e, samples = end_to_end(untraced, shape)
    log("verdict_p50_ms=%.3f verdict_p99_ms=%.3f from n=%d tasks over %d jobs" %
        (e2e["verdict_p50_ms"], e2e["verdict_p99_ms"], samples, len(untraced)))
    gridd_busy, army_busy = busy_ratios(jobs)
    log("grid.army_busy_ratio=%.3f grid.gridd_busy_ratio=%.3f%s" %
        (army_busy, gridd_busy,
         "  LOAD-BOUND: the army, not gridd, limits this workload"
         if army_busy >= LOAD_BOUND else ""))
    if trace:
        metrics = per_layer(data, untraced, traced, e2e)
        overhead, _ = end_to_end(traced, shape)
        for key in E2E_UNITS:
            metrics["trace_overhead." + key] = (overhead[key] / e2e[key], "x")
        log("core.verify_model_ratio=%.3f" % metrics["core.verify_model_ratio"][0])
    else:
        metrics = {key: (value, E2E_UNITS[key]) for key, value in e2e.items()}
    result["metrics"] = {key: {"value": value, "unit": unit}
                         for key, (value, unit) in sorted(metrics.items())}
    return result


def selftest():
    """Runs every workload at smoke size in both modes and checks that every
    metric BENCHMARK.json names is printed, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    ok = True
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            result = run_workload(workload["name"], 1, 1, trace, tiny=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            passed = result["correct"] and got == want
            ok = ok and passed
            print("selftest %s trace=%d: %s%s" % (
                workload["name"], trace, "PASS" if passed else "FAIL",
                "" if passed else " missing=%s extra=%s" % (
                    sorted(set(want.items()) - set(got.items())),
                    sorted(set(got.items()) - set(want.items())))))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not all(os.path.exists(os.path.join(ROOT, p))
               for p in ("CMakeLists.txt", "src", "apps/gridd.cpp")):
        sys.exit("perfbench: no repository sources next to %s" % HERE)
    if args.selftest:
        sys.exit(selftest())
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
