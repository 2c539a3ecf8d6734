"""qkron benchmark: one workload, measured for a fixed time, outputs checked.

Usage:
    python3 bench/run.py --workload {recursion,expansion,oracle,session}
        --seed N --seconds S --trace {0,1} [--tiny]

Runs from any directory against the checkout this file belongs to, with
``src/`` first on PYTHONPATH; it refuses to run (exit 2, no result line)
when ``qkron`` resolves anywhere else.  Every repetition starts cold in a
fresh process (see workloads.py).  Outputs are compared with
references.json after each process has exited, outside the timed region.

--trace 0 prints the end-to-end metrics.  Their times are brought to a
reference CPU speed: the run and its children are pinned to one CPU, a
thread times a fixed probe loop on it while each child runs, and the
child's seconds are scaled by PROBE_S over the probe's median time (see
Speedometer).  --trace 1 runs every repetition twice, untraced and then with
the wrappers of spans.py installed, and prints the per-layer metrics in
plain seconds.  The environment stamp is printed as an ``env`` line and,
with everything else measured, written to .bench_out/.  The last stdout line
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import spans
from workloads import WORKLOADS, Reps, job_key

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(BENCH, "references.json")
SETUP_SAMPLES = 11
PROBE_S = 0.002  # probe() at the reference speed (see README.md)
PROBE_PERIOD_S = 0.04
CHILD_DEADLINE_S = 170.0  # every run must end within 180 s
IMPORT_PROBE = "import sys, qkron; sys.stdout.write(qkron.__file__)"

SPAN_METRICS = {  # span name -> stats emitted besides calls and self_s
    "qlaurent.mul": ("pairs", "in_bytes"),
    "qlaurent.q_binomial": (),
    "torus.mul": ("pairs", "in_bytes"),
    "torus.mul_large": (),
    "torus.pow": (),
    "torus.left_divide": ("quotient_terms",),
    "cluster.xvar_recursive": (),
    "cluster.gr_table": (),
    "dyck.build_dyck": (),
    "dyck.classify": (),
    "families.xvar_enum": ("out_terms",),
    "families.count_families": (),
    "fforacle.build_module": (),
    "fforacle.count_gr": (),
    "fforacle.count_strata": (),
    "strata.strata_from_gr": (),
    "strata.closed_gr_m6": (),
    "strata.closed_zbar_m6": (),
    "verify.run_suite": (),
    "cli.main": (),
}
UNITS = {"pairs": "count", "in_bytes": "B", "quotient_terms": "count", "out_terms": "count"}


class Refused(Exception):
    """The checkout under test cannot be benchmarked."""


def probe() -> float:
    """Seconds for a small fixed loop of dict updates and big-integer
    products, the two kinds of work qkron's time goes to.  It uses no qkron
    code: a change to qkron leaves it alone, a change of CPU speed moves it."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(2400):
        key = (i * 7919) % 5003
        acc[key] = acc.get(key, 0) + i
    x = 3 ** 6000
    for i in range(12):
        acc[i] = (x + i) * (x - i)
    return time.perf_counter() - t0


class Speedometer:
    """Times probe() every PROBE_PERIOD_S on a thread of this process.  The
    benchmark and its children are pinned to one CPU, so the probes see the
    speed the child being measured runs at: on a shared host, one CPU's
    speed flips between states 1.6x apart every few seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            secs = probe()
            self.samples.append((time.perf_counter(), secs))

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_S over the median probe time between t0 and t1, or over the
        last few probes before t1 when the span held fewer than three."""
        during = [secs for end, secs in self.samples if t0 <= end <= t1]
        if len(during) < 3:
            during = [secs for end, secs in self.samples if end <= t1][-5:]
        return PROBE_S / statistics.median(during) if during else 1.0

    def close(self):
        self._stop.set()
        self._thread.join()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Spawns the cold processes of one run and keeps its tallies."""

    def __init__(self, refs: dict, calibrated: bool):
        self.refs = refs
        self.env = child_env()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.scales: list[float] = []
        self.speed = None
        if calibrated:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
            self.speed = Speedometer()

    def close(self):
        if self.speed is not None:
            self.speed.close()

    def spawn(self, argv):
        """Run argv to completion: (seconds, exit code, stdout, stderr,
        scale).  When calibrated, seconds are multiplied by scale, which
        brings them to the reference speed (Speedometer.scale)."""
        budget = max(1.0, CHILD_DEADLINE_S - (time.perf_counter() - self.started))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=budget)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code, err = None, b"timed out"
        t1 = time.perf_counter()
        scale = 1.0 if self.speed is None else self.speed.scale(t0, t1)
        secs = t1 - t0
        self.scales.append(scale)
        return secs * scale, code, out, err, scale

    def fail(self, what: str, ops: int = 1):
        self.failed += ops
        self.failures.append(what)

    def worker(self, jobs, run_id, spans_path):
        """One cold worker process: (compute seconds, or None if it died;
        process seconds)."""
        spec = json.dumps({"jobs": jobs, "run": run_id, "spans": spans_path})
        argv = [sys.executable, os.path.join(BENCH, "worker.py"), spec]
        secs, code, out, err, scale = self.spawn(argv)
        self.attempted += len(jobs)
        if code != 0:
            self.fail(f"worker exit {code}: {err.decode(errors='replace')[-400:]}", len(jobs))
            return None, secs
        compute = 0.0
        for res in json.loads(out.decode().splitlines()[-1])["results"]:
            key = job_key(res["job"])
            if "error" in res:
                self.fail(f"{key}: {res['error']}")
            elif self.refs.get(key) != res["digest"]:
                self.fail(f"{key}: digest {res['digest']} differs from the reference")
            compute += res.get("seconds", 0.0)
        return compute * scale, secs

    def command(self, argv, run_id, spans_path):
        """One cold CLI process, timed whole: (seconds, stdout bytes)."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "qkron", *argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH, "launch.py"), spans_path, str(run_id), *argv]
        secs, code, out, _, _ = self.spawn(cmd)
        self.attempted += 1
        key = " ".join(argv)
        got = {"rc": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
        if self.refs.get(key) != got:
            self.fail(f"qkron {key}: exit {code}, {len(out)} bytes, not the reference")
        return secs, len(out)

    def rep(self, workload, procs, run_id, spans_dir):
        """One repetition, its processes in order: (wall seconds, or None if
        a worker died; per-process seconds; stdout bytes)."""
        wall, latencies, out_bytes = 0.0, [], 0
        for i, proc in enumerate(procs):
            path = None if spans_dir is None else os.path.join(spans_dir, f"{run_id}-{i}.pkl")
            if workload == "session":
                secs, nbytes = self.command(proc, run_id, path)
                latencies.append(secs)
                out_bytes += nbytes
            else:
                secs, proc_secs = self.worker(proc, run_id, path)
                latencies.append(proc_secs)
            if secs is None:
                return None, latencies, out_bytes
            wall += secs
        return wall, latencies, out_bytes


def measure_setup(runner: Runner) -> list:
    """Fresh-interpreter `import qkron` wall times; refuses a foreign qkron."""
    argv = [sys.executable, "-c", IMPORT_PROBE]
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one compiles bytecode
        secs, code, out, err, _ = runner.spawn(argv)
        where = os.path.realpath(out.decode(errors="replace")) if code == 0 else ""
        if not where.startswith(os.path.realpath(SRC) + os.sep):
            raise Refused(f"qkron does not import from {SRC}: "
                          f"{where or err.decode(errors='replace').strip()[-300:]}")
        if i:
            samples.append(secs)
    return samples


def nearest_rank(values, pct: int):
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]  # rank ceil(pct% of n)


def measure(runner: Runner, workload: str, seed: int, seconds: float, tiny: bool,
            spans_dir=None):
    """Repetitions until the next one would overrun ``seconds``.  With
    ``spans_dir`` every repetition runs twice, untraced then traced, so that
    the two sides see the same inputs and the same machine load."""
    reps = Reps(workload, seed, tiny)
    sides = [None] if spans_dir is None else [None, spans_dir]
    runs = [{"walls": [], "latencies": [], "out_bytes": 0} for _ in sides]
    t0 = time.perf_counter()
    while True:
        procs = reps.next()
        for run, where in zip(runs, sides):
            wall, lats, nbytes = runner.rep(workload, procs, len(run["walls"]), where)
            run["latencies"].append(lats)
            run["out_bytes"] += nbytes
            if wall is None:
                return runs
            run["walls"].append(wall)
        rep_secs = sum(statistics.median(run["walls"]) for run in runs)
        if time.perf_counter() - t0 + rep_secs > seconds:
            return runs


def end_to_end(setup: list, run: dict) -> dict:
    walls = run["walls"]
    return {
        "wall_s": (statistics.median(walls) if walls else 0.0, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
        "cmd_p50_s": (statistics.median(nearest_rank(l, 50) for l in run["latencies"]), "s"),
        "cmd_p90_s": (statistics.median(nearest_rank(l, 90) for l in run["latencies"]), "s"),
    }


def per_layer(plain: dict, traced: dict, agg: dict) -> dict:
    nreps = max(1, len(traced["walls"]))
    spans_, ctr = agg["spans"], agg["counters"]
    out = {}
    for name, extra in SPAN_METRICS.items():
        calls, _total, self_s = spans_.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / nreps, "count")
        out[f"{name}.self_s"] = (self_s / nreps, "s")
        for stat in extra:
            out[f"{name}.{stat}"] = (ctr.get(f"{name}.{stat}", 0) / nreps, UNITS[stat])
    end_calls = spans_.get("fforacle.end_dim", (0, 0.0, 0.0))[0]
    out["fforacle.end_dim.calls"] = (end_calls / nreps, "count")
    certified = ctr.get("fforacle.certified", 0)
    out["fforacle.certify_yield"] = (certified / end_calls if end_calls else 0.0, "ratio")
    out["cli.out_bytes"] = (traced["out_bytes"] / nreps if spans_.get("cli.main") else 0.0, "B")
    pairs = list(zip(traced["walls"], plain["walls"]))
    out["trace.wall_s"] = (statistics.fmean(traced["walls"]) if traced["walls"] else 0.0, "s")
    out["trace.overhead_s"] = (statistics.fmean(t - p for t, p in pairs) if pairs else 0.0, "s")
    out["trace.stats_s"] = (spans_.get(spans.STATS, (0, 0.0, 0.0))[2] / nreps, "s")
    return out


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qkron")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(args) -> dict:
    sha = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src_digest(),
        "trace": bool(args.trace),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    try:
        if not os.path.isdir(os.path.join(SRC, "qkron")):
            raise Refused(f"no qkron package under {SRC}")
        stamp = environment(args)
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    except (Refused, OSError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    runner = Runner(refs, calibrated=not args.trace)
    try:
        return run_workload(runner, args, stamp)
    except (Refused, OSError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()


def run_workload(runner: Runner, args, stamp: dict) -> int:
    setup = measure_setup(runner)
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        spans_dir = os.path.join(OUT, "spans", args.workload)
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        plain, traced = measure(runner, args.workload, args.seed, args.seconds, args.tiny,
                                spans_dir)
        files = [os.path.join(spans_dir, f) for f in sorted(os.listdir(spans_dir))]
        agg = spans.aggregate(files)
        metrics = per_layer(plain, traced, agg)
        detail = {"plain": plain, "traced": traced, "spans": agg["spans"],
                  "counters": agg["counters"], "span_files": len(files)}
    else:
        (run,) = measure(runner, args.workload, args.seed, args.seconds, args.tiny)
        metrics = end_to_end(setup, run)
        detail = {"run": run}
        ok = runner.attempted - runner.failed
        metrics["ok_frac"] = (ok / max(1, runner.attempted), "ratio")

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"env": stamp, "setup_samples": setup, "scales": runner.scales,
                   "failures": runner.failures,
                   "result": result, **detail}, fh, indent=1)
    for line in runner.failures[:20]:
        print("FAIL", line)
    print("env", json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
