"""radrank benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  One job starts only after the previous one returns, on one
thread, the way a CLI user waits for each answer.

`--trace 0` times the workload untraced and reports the end-to-end metrics.
`--trace 1` runs the workload untraced for half of `--seconds`, then runs the
same jobs again with the span tracer installed (`tracing.py`) and reports the
per-layer metrics, including the tracing overhead against the untraced half.

Every job's output is checked (`checks.py`); a wrong or failed job counts
toward `failed`, and the command then exits 1.  Human-readable lines go to
stdout first; the last line is the JSON result.  Result files (and, when
tracing, the spans) are written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = tracing.PACKAGE

# Set-up is repeated and its median reported: at least SETUP_REPS times and
# until SETUP_SECONDS have gone into it, so a set-up of a few ms is measured
# as often as its noise needs (at most SETUP_MAX_REPS times).
SETUP_REPS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPS = 25
# Set and dict iteration order over frozensets of ids follows the string hash
# seed, and the program's searches stop at the first witness they meet, so a
# random hash seed per process would change the work done by the same jobs.
HASH_SEED = "0"
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END = (
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The workload could not be prepared or its set-up output was wrong."""


# --- environment --------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref).strip()
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        head = sha
    return head or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _nproc() -> int:
    for line in _read(Path("/proc/self/status")).splitlines():
        if line.startswith("Cpus_allowed_list:"):
            count = 0
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                count += int(hi or lo) - int(lo) + 1
            return count
    return 0


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _loadavg() -> float:
    text = _read(Path("/proc/loadavg")).split()
    return float(text[0]) if text else -1.0


def environment() -> dict:
    """Where and on what the numbers were taken; read from /proc only."""
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "loadavg_1m_before": _loadavg(),
    }


# --- the program under test ---------------------------------------------------

def import_program():
    """Import the package afresh from src/, dropping any earlier import."""
    for name in tracing.package_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}")
    return package


def run_cli(cli, argv) -> tuple[int, str]:
    """radrank.cli.main in-process; returns the exit code and captured stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class CliSession:
    """CLI jobs run in-process through radrank.cli.main with stdout captured.

    Each job loads its model file fresh, so the model cache starts empty."""

    def __init__(self, package, workload: str, seed: int, workdir: Path, golden: dict):
        self.cli = package.cli
        jobs = workloads.cli_jobs(workload, golden, workdir)
        self.round_size = len(jobs)
        self.job = workloads.rounds(jobs, seed)
        self.report_bytes = 0  # bytes of the reports of checked jobs
        warm = workdir / "warm-up.json"
        if workload == "reay":
            doc = {"labels": ["a", "b", "c"], "vectors": [["1"], ["-1"], ["2"]]}
            argv = ["reay", str(warm), "--json"]
        else:
            doc = workloads.d_type(random.Random(0), "d1", 4)
            argv = ["rank", str(warm), "--json"]
        warm.write_text(workloads.doc_text(doc), encoding="utf-8")
        code, _ = run_cli(self.cli, argv)
        if code != 0:
            raise SetupError(f"warm-up job {argv[0]} exited {code}")

    def run(self, j: int):
        return run_cli(self.cli, self.job(j).argv)

    def check(self, j: int, outcome) -> str | None:
        code, stdout = outcome
        self.report_bytes += len(stdout.encode("utf-8"))
        return checks.check_cli(self.job(j), code, stdout)


def set_up(workload: str, seed: int, workdir: Path):
    """Import, input generation and writing, and warm-up."""
    package = import_program()
    importlib.import_module(PACKAGE + ".cli")
    golden = workloads.load_golden()
    return CliSession(package, workload, seed, workdir, golden)


# --- measuring ----------------------------------------------------------------

def timed_loop(session, seconds: float | None = None, count: int | None = None,
               tracer: tracing.Tracer | None = None):
    """Run jobs 0, 1, ... back to back, in whole rounds of the session's
    `round_size` jobs: as many rounds as fit in `seconds` at the pace of the
    rounds already run (at least one), or exactly `count` jobs.

    Whole rounds make every run do the same work whatever the order the seed
    gives; a partial last round would change the job mix, and with it the
    median and the rate, from seed to seed.  Each job is checked as soon as
    it returns, outside its timing, so no output is kept.  Returns per-job
    wall times in ms and the failures as (job, reason) pairs; a job that
    raises is a failure."""
    times = array("d")
    failed = []
    clock = time.perf_counter
    size = session.round_size
    start = clock()

    def more(j: int) -> bool:
        if count is not None:
            return j < count
        if j == 0 or j % size:
            return True
        return (clock() - start) * (j + size) / j <= seconds

    j = 0
    while more(j):
        if tracer is not None:
            tracer.job = j
        t0 = clock()
        try:
            outcome = session.run(j)
        except Exception:
            times.append((clock() - t0) * 1e3)
            failed.append((j, traceback.format_exc().strip().splitlines()[-1]))
        else:
            times.append((clock() - t0) * 1e3)
            reason = session.check(j, outcome)
            if reason is not None:
                failed.append((j, reason))
        j += 1
    if tracer is not None:
        tracer.job = -1
    return times, failed


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With n samples that is the (n - 10)-th
    smallest, percentile 100 * (n - 10) / n; with 10 or fewer samples no
    percentile qualifies and the maximum is returned as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the two kinds of run -----------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    setup_times = []
    while len(setup_times) < SETUP_REPS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPS
    ):
        session = None  # drop the previous session and its imports first
        gc.collect()
        started = time.perf_counter()
        session = set_up(workload, seed, workdir)
        setup_times.append(time.perf_counter() - started)
    times, failed = timed_loop(session, seconds=seconds)
    n = len(times)
    busy = sum(times) / 1e3
    tail_ms, tail_pct = tail(times)
    metrics = {
        "job_ms.p50": statistics.median(times),
        "job_ms.tail": tail_ms,
        "jobs_per_s": n / busy,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "job_ms.p50": f"median of {n} jobs",
        "job_ms.tail": f"p{tail_pct:.3f} of {n} jobs",
        "jobs_per_s": f"{n} jobs in {busy:.3f} s spent in jobs",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    units = dict(END_TO_END)
    lines = [
        f"{workload} {name} = {metrics[name]:.6g} {units[name]} ({notes[name]})"
        for name, _ in END_TO_END
    ]
    lines.append(
        f"{workload} failed_frac = {len(failed) / n:.6g} fraction "
        f"({len(failed)} of {n} jobs)"
    )
    return metrics, n, failed, lines, {"tail_percentile": tail_pct}


def traced(workload: str, seed: int, seconds: float, workdir: Path):
    session = set_up(workload, seed, workdir)
    base_times, base_failed = timed_loop(session, seconds=seconds / 2)
    n = len(base_times)
    # Fresh imports and caches, so the traced pass repeats the same jobs from
    # the same state.
    session = None
    session = set_up(workload, seed, workdir)
    tracer = tracing.Tracer()
    with tracer.installed():
        times, traced_failed = timed_loop(session, count=n, tracer=tracer)
    failed = base_failed + [(n + j, reason) for j, reason in traced_failed]
    metrics = tracing.layer_metrics(tracer.spans, n)
    metrics["cli.report_bytes"] = session.report_bytes
    # traced jobs_per_s against the untraced pass over the same jobs
    metrics["trace_overhead_frac"] = 1.0 - sum(base_times) / sum(times)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.csv.gz")
    job_ms = sum(times) / n
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    lines = [
        f"{workload} {name} = {metrics[name]:.6g} {units[name]}"
        for name, _, _ in tracing.metric_specs()
    ]
    lines.append(
        f"{workload} traced {n} jobs, {job_ms:.4g} ms per job; "
        "per-layer wait time is 0 by construction (one thread, no queue)"
    )
    shares = sorted(
        ((metrics[f"{name}.self_ms"] / job_ms, name) for name in tracing.NAMES),
        reverse=True,
    )
    lines += [
        f"{workload} self-time share {name} = {share:.3f}"
        for share, name in shares
        if share >= 0.01
    ]
    extra = {"self_time_share": {name: share for share, name in shares}}
    return metrics, 2 * n, failed, lines, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: the program's source is missing: {SRC / PACKAGE}", file=sys.stderr)
        return 2
    env = environment()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        metrics, attempted, failed, lines, extra = run(
            args.workload, args.seed, args.seconds, workdir
        )
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_after"] = _loadavg()

    for line in lines:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    for j, reason in failed[:10]:
        print(f"error: job {j}: {reason}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {},
    }
    if args.trace:
        specs = [(name, unit) for name, unit, _ in tracing.metric_specs()]
    else:
        specs = END_TO_END
    for name, unit in specs:
        result["metrics"][name] = {"value": metrics[name], "unit": unit}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env, **extra)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process by one with the fixed hash seed (no child).
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.exit(main())
