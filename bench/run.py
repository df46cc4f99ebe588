#!/usr/bin/env python3
"""Benchmark of the iasi library and CLI: three closed-loop workloads.

    python3 bench/run.py --workload {search,build_verify,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it uses the ``src/iasi`` next to this directory and
exits non-zero without a result when that is missing.  Each workload runs in
this one process with one caller and no threads: a job starts when the
previous one returns.  The job list is repeated (in passes) for
``--seconds``.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: launch of a fresh process to its first job (interpreter,
  ``import iasi``, input generation, input files); the median of two
  launches after each pass (at least five), after one warm-up launch.
* ``wall_s``: one pass over the job list, as the sum over jobs of each
  job's median latency over the passes; per-job medians drop a slow pass of
  one job without discarding the rest of that pass.
* ``job_p50_s``: the median over jobs of each job's median latency, so a
  change that helps the heavy jobs but taxes the many small ones shows.
* ``peak_rss_mib``: peak RSS of this process at the end of the first
  pass's jobs, before the oracle checks their outputs (the checks build
  their own copies of every labeling); for ``cli``, of the largest child
  process.

The host's speed drifts by tens of percent over seconds to minutes while
CPU time stays equal to wall time.  The three times are therefore scaled to
a reference host speed with ``yardstick.py``: a fixed loop timed after every
job, in this process for ``search`` and ``build_verify`` and in a fresh
interpreter for ``cli`` (whose jobs are fresh interpreters), divides each
pass, and one fresh-interpreter sample after each set-up launch divides that
launch.  A time reads as seconds on a host where the yardstick takes its
reference time; the unscaled medians are printed as ``raw.*`` and kept in
the result file.  Yardstick time is outside every measured interval.

``fail_ratio`` (jobs that raised or failed the oracle over jobs attempted)
is printed, and is ``failed``/``attempted`` in the result line.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py`` plus ``trace.overhead_s``, the traced
``wall_s`` minus the untraced one; for ``cli`` both run ``iasi.cli.main``
in-process, and ``cli.startup_s`` times ``--version`` in a subprocess.

Every run also prints its provenance: Python version, git revision (when
run in a git checkout), a hash and line count of ``src/iasi``, and
``host.calib_s``, the median in-process yardstick sample (one after every
pass), to tell host speed drift from a regression.  Details go to
``bench/results/``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
import tracing as T
import workloads as W
import yardstick as Y

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 5
INFO_ONLY = ("raw.setup_s", "raw.wall_s", "raw.job_p50_s")  # printed, not in the result line
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_iasi() -> SimpleNamespace:
    """Import the ``iasi`` layers from this checkout's ``src``, never from
    elsewhere.  Returns the modules by layer name (the package attribute
    ``iasi.verify`` is the function, not the module)."""
    if not (SRC / "iasi" / "__init__.py").is_file():
        raise SystemExit(f"error: no iasi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import iasi

    if Path(iasi.__file__).resolve().parent != SRC / "iasi":
        raise SystemExit(f"error: imported iasi from {iasi.__file__}, not {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"iasi.{layer}") for layer in T.LAYERS})


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# -------------------------------------------------------------- measurement


def setup_launch(args, probe_dir: str) -> float:
    """Seconds from launching a fresh benchmark process to its first job."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    proc = subprocess.Popen(argv + ["--setup-probe", probe_dir], stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def spawn_cli(argv: list[str], err_path: str) -> tuple[str, int]:
    """Run ``python -m iasi.cli argv`` to completion; return its stdout and
    its peak RSS in KiB.  ``os.wait4`` gives the RSS of this child alone,
    where ``RUSAGE_CHILDREN`` would mix in the set-up launches."""
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "iasi.cli", *argv], stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            message = err.read().decode(errors="replace").strip()
            raise RuntimeError(f"iasi {argv[0]} exited {proc.returncode}: {message}")
    return out.decode("utf-8"), usage.ru_maxrss


def make_jobs(workload: str, inputs: dict, iasi, paths: dict, spawn=None):
    """The workload's jobs; ``cli`` jobs run through ``spawn`` when given,
    else in-process."""
    if workload == "search":
        return W.search_jobs(inputs, iasi, oracle)
    if workload == "build_verify":
        return W.build_verify_jobs(inputs, iasi, oracle)
    return W.cli_jobs(inputs, iasi, oracle, paths, spawn)


class Ledger:
    """Checks outputs: the oracle on a job's first output, equality of the
    digest on every later one.  Counts attempts and failures."""

    def __init__(self):
        self.digests: dict[str, object] = {}
        self.sizes: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job, out, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                if job.name not in self.digests:
                    problems = job.check(out)
                    self.digests[job.name] = job.digest(out)
                    if isinstance(out, str):
                        self.sizes[job.name] = len(out.encode())
                elif job.digest(out) != self.digests[job.name]:
                    problems = ["output differs from the first pass of this run"]
                else:
                    problems = []
            except Exception as exc:  # a crashing check is a failed job, not a crashed run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error:
            self.failures.append(f"{job.name}: {error}")


def run_pass(jobs, ledger: Ledger, tracer=None, yard=None):
    """One closed-loop pass; returns (wall seconds, {job: seconds}, peak RSS
    in KiB of this process before the outputs are checked, yardstick
    samples).  ``yard``, when given, is timed after every job, outside the
    job's time; the wall time is the sum of the jobs' times.

    Every pass starts from the same collector state: what is alive before it
    (the inputs, the first pass's outputs) is collected and frozen, so the
    collections a pass triggers scan only what its jobs allocate, at the same
    points in every pass, as in a process that holds only the program's data.
    """
    gc.collect()
    gc.freeze()
    state: dict = {}
    latency, outputs, yards = {}, [], []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        start = perf_counter()
        try:
            out = tracer.call(f"bench.{job.name}", job.run, state) if tracer else job.run(state)
            error = None
        except Exception as exc:  # a failing job is counted, and the run goes on
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        latency[job.name] = perf_counter() - start
        outputs.append((job, out, error))
        if yard is not None:
            yards.append(yard())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for job, out, error in outputs:
        ledger.record(job, out, error)
    return sum(latency.values()), latency, peak_kib, yards


def keep_going(started: float, seconds: float, pass_times: list[float]) -> bool:
    """Another pass fits in the budget (there is always a first one)."""
    if not pass_times:
        return True
    return perf_counter() - started + statistics.median(pass_times) <= seconds


def measure_end_to_end(args, iasi, inputs, paths, ledger, calib, workdir):
    """Passes for ``--seconds``, with two set-up launches and a calibration
    sample after each pass, so that all are spread over the same stretch of
    host time.  Times are scaled by the yardstick (see the module doc)."""
    child_rss: list[int] = []
    err_path = os.path.join(workdir, "stderr.txt")

    def spawn(argv):
        out, rss = spawn_cli(argv, err_path)
        child_rss.append(rss)
        return out

    jobs = make_jobs(args.workload, inputs, iasi, paths, spawn)
    yard, ref = (Y.spawn, Y.REF_SPAWN_S) if args.workload == "cli" else (Y.sample, Y.REF_SAMPLE_S)
    probe_dir = os.path.join(workdir, "probe")
    os.mkdir(probe_dir)
    setup_launch(args, probe_dir)  # warm-up: fills the bytecode caches
    Y.spawn()
    walls, latencies, yards, setup, setup_yards, own_kib = [], [], [], [], [], []

    def launch():
        setup.append(setup_launch(args, probe_dir))
        setup_yards.append(Y.spawn())

    started = perf_counter()
    while keep_going(started, args.seconds, walls):
        wall, latency, peak_kib, pass_yards = run_pass(jobs, ledger, yard=yard)
        walls.append(wall)
        own_kib.append(peak_kib)
        latencies.append(latency)
        yards.append(pass_yards)
        launch()
        launch()
        calib.append(Y.sample())
    while len(setup) < SETUP_LAUNCHES:
        launch()
    # Passes do the same work, so the first pass's peak is the program's;
    # later readings include the first pass's checks.
    peak_kib = max(child_rss) if child_rss else own_kib[0]
    scales = [ref / statistics.median(pass_yards) for pass_yards in yards]

    def job_medians(scales):
        return [statistics.median(lat[name] * k for lat, k in zip(latencies, scales)) for name in latencies[0]]

    scaled, raw = job_medians(scales), job_medians([1.0] * len(walls))
    metrics = {
        "setup_s": (statistics.median(t * Y.REF_SPAWN_S / y for t, y in zip(setup, setup_yards)), "s"),
        "wall_s": (sum(scaled), "s"),
        "job_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
        "raw.setup_s": (statistics.median(setup), "s"),
        "raw.wall_s": (sum(raw), "s"),
        "raw.job_p50_s": (statistics.median(raw), "s"),
    }
    detail = {
        "pass_wall_s": walls,
        "pass_yardstick_s": yards,
        "setup_launch_s": setup,
        "setup_yardstick_s": setup_yards,
        "pass_job_s": latencies,
    }
    return metrics, detail


def measure_traced(args, iasi, inputs, paths, ledger, calib, workdir):
    """Untraced and traced passes, alternating which goes first, for
    ``--seconds``; per-layer metrics are (low) medians over the traced
    passes, so counts stay whole numbers."""
    jobs = make_jobs(args.workload, inputs, iasi, paths)
    subcommand_of = {job.name: job.name.split("-")[0] for job in jobs}
    walls = {"untraced": [], "traced": []}
    pair_walls, per_pass, startup = [], [], []
    first = None
    started = perf_counter()
    while keep_going(started, args.seconds, pair_walls):
        pair_start = perf_counter()
        for mode in ("untraced", "traced") if len(pair_walls) % 2 == 0 else ("traced", "untraced"):
            if mode == "untraced":
                walls[mode].append(run_pass(jobs, ledger)[0])
                continue
            tracer = T.Tracer()
            with T.installed(tracer):
                walls[mode].append(run_pass(jobs, ledger, tracer)[0])
            per_pass.append(T.layer_metrics(tracer, subcommand_of))
            first = first or tracer
        pair_walls.append(perf_counter() - pair_start)
        if args.workload == "cli":
            start = perf_counter()
            spawn_cli(["--version"], os.path.join(workdir, "stderr.txt"))
            startup.append(perf_counter() - start)
        calib.append(Y.sample())
    values = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    values["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    values["cli.stdout_bytes"] = sum(ledger.sizes.values())
    values["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    metrics = {name: (values[name], unit) for name, unit in T.PER_LAYER}
    detail = {"pass_wall_s": walls, "spans_per_pass": len(first.spans)}
    return metrics, detail, first


# --------------------------------------------------------------- provenance


def provenance(calib: list[float]) -> dict:
    files = sorted((SRC / "iasi").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {
        "python": platform.python_version(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "code.src_lines": lines,
        "host.calib_s": statistics.median(calib),
        "host.calib_samples_s": calib,
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    iasi = import_iasi()
    inputs = W.build_inputs(args.workload, args.seed)
    if args.setup_probe:
        if args.workload == "cli":
            W.write_cli_files(inputs, args.setup_probe)
        print("ready", flush=True)
        return 0

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        paths = W.write_cli_files(inputs, workdir) if args.workload == "cli" else {}
        calib = [Y.sample()]
        ledger = Ledger()
        if args.trace:
            metrics, detail, tracer = measure_traced(args, iasi, inputs, paths, ledger, calib, workdir)
        else:
            metrics, detail = measure_end_to_end(args, iasi, inputs, paths, ledger, calib, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(calib)
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl.gz")
    fail_ratio = len(ledger.failures) / ledger.attempted
    outputs = {name: {"bytes": ledger.sizes[name], "sha256": ledger.digests[name]} for name in ledger.sizes}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "fail_ratio": fail_ratio,
        "failures": ledger.failures,
        "cli_outputs": outputs,
        **detail,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"# iasi benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'fail_ratio':32s} {fail_ratio:.6g} 1 ({len(ledger.failures)}/{ledger.attempted} jobs)")
    for name, info in outputs.items():
        print(f"stdout {name:25s} {info['bytes']} bytes sha256={info['sha256'][:16]}")
    for failure in ledger.failures[:10]:
        print(f"FAILED {failure}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items() if name not in INFO_ONLY},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
