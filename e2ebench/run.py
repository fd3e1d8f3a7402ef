#!/usr/bin/env python3
"""Runs the end-to-end benchmark of the adaptive VM.

Run from the repository root:

    python3 e2ebench/run.py --workload q1_steady --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload q1_steady --seed 1 --seconds 20 --trace 1
    python3 e2ebench/run.py --smoke

Builds the engine library and the e2ebench binary from source into
.bench_build/e2ebench (Release), runs one workload in a clean environment
(no inherited AVM_* variables, TMPDIR = a fresh per-run directory under
.bench_build/tmp that is removed at exit, so JIT scratch files and spill
files stay inside the checkout), and prints two lines: a full record with
provenance, then the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); set-up time is the median over three cold processes. With
--trace 1 they are the per-layer ones, and the spans are written as a
Chrome trace to .bench_build/traces/<workload>-seed<seed>.json.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ["q1_steady", "join_orderby_spill", "adhoc_shapes"]
SETUP_PROCESSES = 3  # cold set-ups per run; setup_s is their median
DEADLINE_S = 175  # a run must end within 180 s of starting


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def clean_env(tmp):
    env = {k: v for k, v in os.environ.items() if not k.startswith("AVM_")}
    env["TMPDIR"] = tmp
    return env


def run_binary(argv, env, deadline):
    """Run the benchmark binary in its own process group, killing the group
    at `deadline` (time.monotonic()); return the JSON object on its last
    stdout line."""
    proc = subprocess.Popen([BINARY] + argv, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(argv)}: timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{' '.join(argv)}: no output")
    return json.loads(lines[-1])


def git_provenance():
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return "unknown", None  # a parent directory's repository
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def run_workload(workload, seed, seconds, trace, smoke, deadline):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(OUT, "tmp"))
    try:
        env = clean_env(tmp)
        setups = []
        if not trace and not smoke:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(run_binary(common + ["--setup-only"], env,
                                         deadline)["setup_s"])
        argv = common + ["--trace", "1" if trace else "0"]
        if trace:
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            argv += ["--trace-out", os.path.join(
                OUT, "traces", f"{workload}-seed{seed}.json")]
        rec = run_binary(argv, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if "setup_s" in rec["metrics"]:
        setups.append(rec["metrics"]["setup_s"]["value"])
        rec["metrics"]["setup_s"]["value"] = statistics.median(setups)
        rec["metrics"]["setup_s"]["samples"] = len(setups)
        rec["provenance"]["setup_s_all"] = setups
    sha, dirty = git_provenance()
    rec["provenance"]["git_sha"] = sha
    rec["provenance"]["git_dirty"] = dirty
    return rec


def contract_line(rec):
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in rec["metrics"].items()}
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def smoke():
    """Every workload at tiny sizes with all checks on, untraced and
    traced; exit code 0 only if all of them are correct."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            rec = run_workload(workload, 1, 2, trace, smoke=True,
                               deadline=time.monotonic() + DEADLINE_S)
            status = "ok" if rec["correct"] else "FAILED"
            ok = ok and rec["correct"]
            print(f"{workload:20s} trace={int(trace)} {status:6s} "
                  f"attempted={rec['attempted']} failed={rec['failed']} "
                  f"metrics={len(rec['metrics'])}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads at tiny sizes, checks on")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        build()  # may take minutes in a fresh checkout; not on the clock
        if args.smoke:
            return smoke()
        rec = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), smoke=False,
                           deadline=time.monotonic() + DEADLINE_S)
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            ValueError, KeyError) as e:
        log(f"failed: {e}")
        return 1
    print(json.dumps({"record": rec}))
    print(json.dumps(contract_line(rec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
