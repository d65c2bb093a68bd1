#!/usr/bin/env python3
"""Tempograph benchmark runner.

Run from the root of a tempograph checkout:

    python3 perfbench/run.py --workload road-tdsp --seed 1 --seconds 20 --trace 0

It builds the `tempograph` CLI (whose `worker` subcommand serves the
process-cluster jobs) and the `perfbench` measuring binary in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then:

  --trace 0  generates the seeded input and sets it up three times in one
             process (`setup_s` is the median), then times the job on every
             transport in a fresh process and prints the end-to-end metrics;
  --trace 1  does everything in one traced process and prints the
             per-layer metrics, the Fig 7-style split and the span table.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Scratch data lives under
`.perfbench/` in the checkout and is removed at exit, except the span
files and the exact-count records.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORKLOADS = ("road-tdsp", "tweets-hash", "barrier-meme")
# A run must end within 180 s (900 s when it builds from scratch); leave
# room for start-up and clean-up.
RUN_DEADLINE_S = 165.0
BUILD_DEADLINE_S = 700.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# The child process group running now, so a signal can stop it too.
RUNNING = None


def stop_running():
    if RUNNING is not None and RUNNING.poll() is None:
        os.killpg(RUNNING.pid, signal.SIGKILL)
        RUNNING.wait()


def on_signal(signum, _frame):
    stop_running()
    fail(f"stopped by signal {signum}")


def run_child(cmd, deadline, capture):
    """Run `cmd` in its own process group; kill the whole group (process
    workers included) if it outlives `deadline`. Returns (rc, stdout)."""
    global RUNNING
    timeout = max(1.0, deadline - time.monotonic())
    RUNNING = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = RUNNING.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_running()
        fail(f"`{' '.join(cmd[:2])}` timed out after {timeout:.0f} s")
    return RUNNING.returncode, out or ""


def build(target):
    deadline = time.monotonic() + BUILD_DEADLINE_S
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "tempograph"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        rc, _ = run_child(cmd, deadline, capture=False)
        if rc != 0:
            fail(f"build failed: {' '.join(cmd)}")
    bins = {n: os.path.join(target, "release", n) for n in ("tempograph", "perfbench")}
    for path in bins.values():
        if not os.path.isfile(path):
            fail(f"build produced no {path}")
    return bins


def last_json(stdout, what):
    lines = [l for l in stdout.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} printed no JSON result: {lines[-1]!r}")


def git_commit():
    """The checkout's git commit, or None outside git."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_hash():
    """A hash of every source file the benchmark builds, the benchmark's
    own included. Unlike the commit it also tells uncommitted edits apart."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": rustc,
        "profile": "release (lto = thin)",
        "commit": git_commit() or "none (not a git checkout)",
        "source_sha256": source_hash(),
        "os": platform.platform(),
    }


def check_counts(counts, source, workload, seed, mode):
    """Exact counts must repeat in every run of the same seed and the same
    sources. A change of the sources may change them (a partitioner change
    moves the cut, a rendezvous change the barrier waits), so each source
    hash keeps its own record. (Within a run, every job's output digest
    and counts must equal those of the run's first in-process job.)"""
    path = os.path.join(ROOT, ".perfbench", "counts", source, f"{workload}-{seed}-{mode}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != counts:
            print(f"exact counts changed for seed {seed}: {before} -> {counts}", file=sys.stderr)
            return False
    else:
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for need in ("Cargo.toml", "src/bin/tempograph.rs", "crates/engine", "perfbench/Cargo.toml", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"run from the root of a tempograph checkout: {need} is missing")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    bins = build(target)
    # Write the build's output to disk now, not while jobs are timed.
    os.sync()

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    fp = fingerprint()
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    common = ["--workload", args.workload, "--work", work]
    seeded = common + ["--seed", str(args.seed)]
    timed = ["--seconds", str(args.seconds), "--worker-bin", bins["tempograph"]]
    try:
        if args.trace:
            rc, out = run_child([bins["perfbench"], "trace"] + seeded + timed, deadline, True)
            res = last_json(out, "perfbench trace")
            if rc != 0:
                fail(f"perfbench trace exited with {rc}")
            raw = res["metrics"]
            spans_dir = os.path.join(ROOT, ".perfbench", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            kept = os.path.join(spans_dir, f"{args.workload}-{args.seed}-{os.getpid()}.json")
            with open(res["spans"]) as f:
                spans = json.load(f)
            spans["fingerprint"] = fp
            with open(kept, "w") as f:
                json.dump(spans, f)
            print(f"spans written to {os.path.relpath(kept, ROOT)}")
            exact = {k: raw[k] for k in (
                "engine.supersteps", "engine.barrier_waits", "engine.emitted",
                "batch.msgs_remote", "gofs.slice_loads", "partition.cut_edges",
                "partition.subgraphs", "pregel.supersteps")}
        else:
            rc, out = run_child([bins["perfbench"], "setup"] + seeded, deadline, True)
            setup = last_json(out, "perfbench setup")
            if rc != 0:
                fail(f"perfbench setup exited with {rc}")
            rc, out = run_child([bins["perfbench"], "jobs"] + common + timed, deadline, True)
            res = last_json(out, "perfbench jobs")
            if rc != 0:
                fail(f"perfbench jobs exited with {rc}")
            raw = dict(res)
            raw["setup_s"] = statistics.median(setup["setup_s"])
            print(f"setup_s samples: {setup['setup_s']}  (gen_s {setup['gen_s']:.3f}, not counted)")
            for name, xs in res["samples"].items():
                print(f"{name} samples: " + " ".join(f"{x:.4f}" for x in xs))
            if "warm_up_s" in res:
                print(f"warm-up in-process job (not counted): {res['warm_up_s']:.4f} s")
            exact = res["counts"]
        print(f"output digest {res['digest']}, exact counts {json.dumps(exact, sort_keys=True)}")
        counts_ok = check_counts(exact, fp["source_sha256"], args.workload, args.seed, "trace" if args.trace else "timed")
        # The result line has a fixed set of keys, so whether the host
        # disturbed the kept samples is said on the line before it. A
        # comparison of runs should discard those marked unsteady.
        steady = "steady" if res["steady"] else "UNSTEADY"
        print(f"host: {steady}, largest CPU steal share among kept samples {res['steal_max']:.4f}")
        metrics = {}
        for m in wanted:
            v = raw.get(m["name"])
            if not isinstance(v, (int, float)) or v != v:
                fail(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        failed = int(res["failed"])
        if failed:
            print(f"first failure: {res.get('first_error')}", file=sys.stderr)
        result = {
            "correct": failed == 0 and counts_ok,
            "attempted": int(res["attempted"]),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
