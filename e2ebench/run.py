#!/usr/bin/env python3
"""End-to-end benchmark of ecrint_serve, with a layer-by-layer traced run.

    python3 e2ebench/run.py --workload dda_edit|ingest_durable
                            --seed N --seconds T --trace 0|1
    python3 e2ebench/run.py --workload all --seed N --seconds T
    python3 e2ebench/run.py --smoke

Run from the root of an ecrint checkout. The first run builds the Release
server (ecrint_serve, from ../src and ../tools) and the load generator
(e2e_loadgen, from src/ here) into .bench_build/e2ebench. Every run then:

  1. seeds ecrint_serve with the workload's starting state, five times on
     fresh data directories; setup_s is the median time from the server's
     exec (on the first half of the cores, --fsync always, --data-dir under
     .bench_build, --net-threads = its cores) to seeded and ready. The load
     generator has its inputs ready before the server starts;
  2. runs the workload for T seconds from e2e_loadgen, a single process on
     the other half of the cores with at most 4 connections, speaking binary
     protocol v2 over loopback; every response is checked;
  3. reconciles the client's per-verb counts with the server's `metrics`,
     and checks every project's `export` against an in-process engine fed
     the acknowledged writes;
  4. with --trace 0: for ingest_durable, kills the server with SIGKILL,
     restarts it on the same data directory and checks that every
     acknowledged write survived. Before step 1, the workload's fixed crash
     state (set by the seed alone) was written to a fresh server that was
     then killed with SIGKILL; it is restarted four times before step 1 and
     four times here: recovery_s is the median time from a restart's exec
     until every project answers `outline`, reported only once every
     durability check passed;
     with --trace 1: runs the in-process traced replay (src/traced.cc) and
     reports the per-layer metrics instead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. A provenance line (nproc, core split, data-directory
filesystem, commit, seed) precedes it and is saved with the full details
under .bench_build/e2ebench/results/. What each workload loads and
bypasses, how each end-to-end metric is defined, and what each per-layer
metric should move are in layers.json next to this file.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("dda_edit", "ingest_durable")
SETUP_REPEATS = 5
RECOVERY_REPEATS = 8
TRACE_SECONDS = 8  # cap on the traced replay's own stream
STEP_TIMEOUT_S = 150

class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (Release only) and builds the server and load generator."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.h")):
        raise BenchError("not an ecrint checkout: %s/src is missing" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(build_log, "a") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "ecrint_serve", "e2e_loadgen"],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            raise BenchError("refusing to measure a non-Release build")
    return (os.path.join(BUILD, "ecrint_serve"),
            os.path.join(BUILD, "e2e_loadgen"))


def core_split():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


def spawn(argv, cpus, **kwargs):
    """Popen with the child pinned to `cpus`. The child inherits the
    affinity from this process rather than setting it in a preexec_fn, so
    Python can vfork and exec instead of forking."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return subprocess.Popen(argv, **kwargs)
    finally:
        os.sched_setaffinity(0, own)


class Server:
    """One ecrint_serve process on its own cores."""

    def __init__(self, binary, data_dir, cpus):
        self.exec_time = time.monotonic()
        self.proc = spawn(
            [binary, "--port", "0", "--data-dir", data_dir,
             "--net-threads", str(len(cpus)), "--fsync", "always"],
            cpus, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.kill()
            raise BenchError("ecrint_serve did not start: %r" % line)
        self.port = int(line.split()[2])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def parse_result(mode, returncode, stdout, stderr):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("e2e_loadgen %s printed nothing (exit %d): %s" %
                         (mode, returncode, stderr.strip()[-500:]))
    result = json.loads(lines[-1])
    result["exit"] = returncode
    return result


def loadgen(binary, cpus, mode, args):
    """Runs e2e_loadgen against a running server."""
    gen = spawn([binary, mode] + args, cpus, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
    try:
        out, err = gen.communicate(timeout=STEP_TIMEOUT_S)
    finally:
        stop(gen)
    return parse_result(mode, gen.returncode, out, err)


def start_server(binaries, cpus, data_dir, mode, args):
    """Starts e2e_loadgen in `mode`, lets it generate its inputs, then
    starts ecrint_serve on `data_dir` and hands the load generator its
    port. Returns the running server and the load generator's result."""
    serve_bin, loadgen_bin = binaries
    server_cpus, gen_cpus = cpus
    gen = spawn([loadgen_bin, mode] + args, gen_cpus, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    server = None
    try:
        line = gen.stdout.readline()
        if line != "ready\n":
            raise BenchError("e2e_loadgen %s did not get ready: %r" %
                             (mode, line))
        server = Server(serve_bin, data_dir, server_cpus)
        gen.stdin.write("%d\n" % server.port)
        gen.stdin.flush()
        out, err = gen.communicate(timeout=STEP_TIMEOUT_S)
        return server, parse_result(mode, gen.returncode, out, err)
    except BaseException:
        if server is not None:
            server.kill()
        raise
    finally:
        stop(gen)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def dir_bytes(path):
    total = 0
    for parent, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(parent, name))
    return total


def filesystem_type(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def source_identity():
    commit = None
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for top in ("src", "tools", "e2ebench"):
        for parent, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(parent, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as data:
                    digest.update(data.read())
    return commit, digest.hexdigest()[:16]


def benchmark_metrics(kind):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return {m["name"]: m["unit"] for m in json.load(spec)[kind]}


def run_workload(workload, seed, seconds, trace, smoke):
    binaries = build()
    loadgen_bin = binaries[1]
    cpus = core_split()
    gen_cpus = cpus[1]
    state = os.path.join(BUILD, "runs", "%s-%d-%d" % (workload, seed, trace))
    subprocess.run(["rm", "-rf", state], check=True)
    os.makedirs(state)
    # Start from a clean page cache: writeback left by an earlier run must
    # not compete with this run's fsyncs.
    os.sync()
    common = ["--workload", workload, "--seed", str(seed), "--state", state]
    if smoke:
        common.append("--smoke")

    attempted, failed, ok = 0, 0, True
    failures = []

    def account(step, result):
        nonlocal attempted, failed, ok
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        if not result.get("ok") or result["exit"] != 0:
            ok = False
            failures.append({step: result.get("failures", result)})
        return result.get("ok") and result["exit"] == 0

    def fresh_dir(name):
        path = os.path.join(state, name)
        os.makedirs(path)
        return path

    setups = []
    recoveries = []
    window_recovery_s = None
    server = None

    def restart(data_dir, step, logs):
        """Restarts a killed server on `data_dir`. Returns the seconds from
        its exec until every project answered `outline`, or None when the
        durability check of the writes in `logs` failed."""
        nonlocal server
        server, recovered = start_server(binaries, cpus, data_dir, "recover",
                                         common + ["--logs", logs])
        restart_exec = server.exec_time
        server.kill()
        server = None
        if not account(step, recovered):
            return None
        return recovered["outlined_ns"] / 1e9 - restart_exec

    def recover_crash_state(count):
        for _ in range(count):
            seconds = restart(crash_dir, "recover", "crash.log")
            if seconds is None:
                return False
            recoveries.append(seconds)
        return True

    try:
        crash_ok = False
        if not trace:
            # recovery_s: the seed-fixed crash state, restarted half before
            # and half after the timed window, so that its median spans the
            # run. Recovery does not checkpoint, so every restart repeats
            # the same work.
            crash_dir = fresh_dir("crash")
            server, crashed = start_server(binaries, cpus, crash_dir, "crash",
                                           common)
            server.kill()
            server = None
            crash_ok = (account("crash", crashed) and
                        recover_crash_state(RECOVERY_REPEATS // 2))
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.kill()
            data_dir = fresh_dir("data%d" % repeat)
            server, seeded = start_server(binaries, cpus, data_dir, "seed",
                                          common)
            account("seed", seeded)
            setups.append(seeded["done_ns"] / 1e9 - server.exec_time)
        ran = loadgen(loadgen_bin, gen_cpus, "run",
                      common + ["--port", str(server.port),
                                "--seconds", str(seconds)])
        account("run", ran)
        rss_mb = server.peak_rss_mb()
        disk = dir_bytes(data_dir)
        server.kill()
        server = None
        metrics = dict(ran["e2e"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["server_rss_mb"] = rss_mb
        metrics["disk_bytes_per_user_byte"] = disk / max(1, ran["user_bytes"])
        traced = None
        if trace:
            traced = loadgen(loadgen_bin, gen_cpus, "trace",
                             common + ["--seconds",
                                       str(min(seconds, TRACE_SECONDS))])
            account("trace", traced)
        else:
            if workload == "ingest_durable":
                # The window's writes must survive its SIGKILL too. How long
                # that takes depends on how much the window wrote, so it is
                # a detail, not recovery_s.
                window_recovery_s = restart(data_dir, "recover_window",
                                            "seed.log,run.log")
            # Reported only once every durability check passed.
            if crash_ok and recover_crash_state(
                    RECOVERY_REPEATS - RECOVERY_REPEATS // 2):
                metrics["recovery_s"] = statistics.median(recoveries)
    finally:
        if server is not None:
            server.kill()

    metrics["ok_ratio"] = (attempted - failed) / max(1, attempted)
    commit, source_digest = source_identity()
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "nproc": os.cpu_count(),
        "server_cpus": cpus[0], "loadgen_cpus": cpus[1],
        "data_dir_fs": filesystem_type(state), "git_commit": commit,
        "source_sha256": source_digest, "build_type": "Release",
        "setup_s_samples": setups, "recovery_s_samples": recoveries,
        "window_recovery_s": window_recovery_s,
    }
    if trace:
        metrics = dict(ran["layer"])
        metrics.update(traced["layer"])
    units = benchmark_metrics("per_layer" if trace else "end_to_end")
    missing = [n for n in units if n not in metrics]
    if missing:
        ok = False
        failures.append({"missing": missing})
    reported = {n: {"value": metrics[n], "unit": u}
                for n, u in units.items() if n in metrics}
    details = {"provenance": provenance, "failures": failures,
               "run": ran, "trace": traced}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (workload, seed, trace)), "w") as out:
        json.dump(details, out, indent=1)
    return {"correct": ok and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": reported}, provenance, failures


def check_layers():
    """layers.json annotates exactly BENCHMARK.json's workloads and
    per-layer metrics, and defines every end-to-end metric it gates."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        bench = json.load(spec)
    with open(os.path.join(HERE, "layers.json")) as notes:
        layers = json.load(notes)
    problems = []
    for kind in ("workloads", "per_layer"):
        names = {entry["name"] for entry in bench[kind]}
        if set(layers[kind]) != names:
            problems.append("layers.json %s differ from BENCHMARK.json: %s" %
                            (kind, sorted(set(layers[kind]) ^ names)))
    undefined = {m["name"] for m in bench["end_to_end"]} - set(
        layers["end_to_end"])
    if undefined:
        problems.append("layers.json defines no %s" % sorted(undefined))
    if tuple(w["name"] for w in bench["workloads"]) != WORKLOADS:
        problems.append("BENCHMARK.json workloads are not %s" % (WORKLOADS,))
    for problem in problems:
        log("smoke: " + problem)
    return not problems


def smoke():
    """The benchmark's own test: layers.json agrees with BENCHMARK.json, and
    every workload at its smoke size, traced and untraced, on two seeds,
    passes every check and reports every metric of BENCHMARK.json."""
    all_ok = check_layers()
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in (0, 1):
                result, _, failures = run_workload(workload, seed, 2, trace,
                                                   True)
                expected = benchmark_metrics("per_layer" if trace
                                             else "end_to_end")
                missing = [n for n in expected if n not in result["metrics"]]
                good = result["correct"] and not missing
                all_ok = all_ok and good
                log("smoke %-15s seed %d trace %d: %s%s" % (
                    workload, seed, trace, "ok" if good else "FAILED",
                    "" if good else " %s missing=%s" % (failures, missing)))
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own test and exit")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            result, provenance, failures = run_workload(
                workload, args.seed, args.seconds, args.trace, False)
            if failures:
                log("failures: %s" % json.dumps(failures)[:2000])
            print("provenance " + json.dumps(provenance), flush=True)
            if args.workload == "all":
                for name, metric in result["metrics"].items():
                    print("%-16s %-36s %14.6g %s" % (
                        workload, name, metric["value"], metric["unit"]))
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as error:
        log("e2ebench: %s" % error)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
