"""gradsurf benchmark: closed-loop CLI workloads, checked outputs, traced layers.

Run from the root of a source checkout:

    python3 bench/run.py --workload exact-region --seed 0 --seconds 30 --trace 0
    for w in exact-region torus-swap surface-tension; do
        python3 bench/run.py --workload $w --seed 0 --seconds 30 --trace 0 | tail -1
    done

One client runs the workload's ops in-process through ``gradsurf.cli.main``,
one after another, in whole rounds until ``--seconds`` have passed and at
least 100 ops have run (or half as long again has passed).  The timer
covers only the ``main`` call; output checks, digests and probes run
afterwards.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report, which is also written to ``.bench_work/``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the first rounds are replayed with every layer wrapped (see tracer.py) and
the metrics are the per-layer ones.

Speed scaling.  On a shared two-core machine the speed of pure Python code
drifts by a fifth or more over minutes, which swamps run-to-run changes.
So a fixed pure-Python reference kernel, which does not touch gradsurf, is
timed before every op, and each op time (and each setup time) is scaled by
REFERENCE_S over the median reference time around it: the end-to-end times
are seconds at the speed where the kernel takes REFERENCE_S.  A change to
gradsurf moves them; a change in machine speed mostly does not.  The
report keeps the unscaled figures next to them.

``attempted`` and ``failed`` count the timed ops.  Probes (known defects,
see plan.py) count in ``ok_frac`` and in the report, not there, and a
failing probe never makes ``correct`` false.  ``correct`` is false when a
timed op's output fails its check, when cross-checks between sigma methods
fail, or when tracing changed an output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import oracles
from plan import PLANS, WORKLOADS, Op, Plan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

MIN_TIMED_OPS = 100  # so that ten ops lie beyond the 90th percentile
REFERENCE_S = 0.0075  # reference kernel time at nominal machine speed
SPEED_WINDOW = 5  # reference timings on each side of an op
SETUP_REPEATS = 5  # fresh interpreters timed for setup_s
TRACE_ROUNDS = 2  # rounds replayed under tracing
CHILD_TIMEOUT_S = 60

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Result:
    op: Op
    round: int
    index: int
    out: Path
    rc: int | None
    error: str | None
    latency: float
    stdout: str
    problems: list
    digest: str = ""

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.error is None and not self.problems


# ---------------------------------------------------------------------------
# Running ops


def run_op(cli, op: Op, out: Path, seed: int, r: int, i: int) -> Result:
    """One timed call of gradsurf.cli.main with stdout and stderr captured."""
    argv = [op.cmd, "--config", op.config_path, "--seed", str(seed), "--out", str(out)]
    captured = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an exception leaving main is an op failure
            error = f"{type(exc).__name__}: {str(exc)[:160]}"
        latency = time.perf_counter() - t0
    return Result(op, r, i, out, rc, error, latency, captured.getvalue(), [])


def setup(workload: str, seed: int, run_dir: Path):
    """Imports, config generation and the warm-up op: the work before timing."""
    cli = importlib.import_module("gradsurf.cli")
    plan = PLANS[workload](seed)
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for k, op in enumerate([plan.warmup, *plan.bag, *plan.probes]):
        op.config_path = str(cfg_dir / f"op{k:02d}.json")
        Path(op.config_path).write_text(json.dumps(op.cfg, sort_keys=True))
    warm = run_op(cli, plan.warmup, run_dir / "warmup", plan.op_seed(-1, 0), -1, 0)
    if not (warm.rc == 0 and warm.error is None):
        raise RuntimeError(f"warm-up op failed: rc={warm.rc} {warm.error}")
    return cli, plan


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that do the setup and exit.

    Returns the times and the speed factors of the moments they ran at.
    """
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(time_reference())
        cmd = [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    refs.append(time_reference())
    return times, machine_speed(refs)


def reference_kernel() -> int:
    """Fixed pure-Python work, independent of gradsurf: grid relaxation on a dict."""
    n = 24
    dist = {(i, j): n * n for i in range(n) for j in range(n)}
    dist[(0, 0)] = 0
    for _ in range(10):
        for (i, j), d in list(dist.items()):
            for w in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if w in dist and d + 1 < dist[w]:
                    dist[w] = d + 1
    return sum(dist.values())


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def timed_phase(cli, plan: Plan, run_dir: Path, seconds: float):
    """Whole rounds of the bag; the reference kernel is timed before every op."""
    results: list[Result] = []
    refs: list[float] = []
    start = time.perf_counter()
    r = 0
    while True:
        for i in plan.round_order(r):
            refs.append(time_reference())
            out = run_dir / f"r{r:02d}-{i:02d}"
            results.append(run_op(cli, plan.bag[i], out, plan.op_seed(r, i), r, i))
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(results) >= MIN_TIMED_OPS or elapsed >= 1.5 * seconds):
            refs.append(time_reference())
            return results, refs, elapsed, r


def machine_speed(refs: list[float]) -> list[float]:
    """Per op, REFERENCE_S over the median reference time around it.

    The machine's speed drifts by a fifth over minutes; the reference
    kernel, timed between ops, tracks that drift without touching gradsurf.
    """
    k = SPEED_WINDOW
    return [
        REFERENCE_S / statistics.median(refs[max(0, i - k) : i + k + 2])
        for i in range(len(refs) - 1)
    ]


def run_probes(cli, plan: Plan, run_dir: Path, rounds: int, prefix: str = "p") -> list[Result]:
    """Each probe once per round, untimed, so probes keep a fixed share of ops."""
    out = []
    for r in range(rounds):
        for i, op in enumerate(plan.probes):
            path = run_dir / f"{prefix}{r:02d}-{i:02d}"
            out.append(run_op(cli, op, path, plan.op_seed(r, 100 + i), r, i))
    return out


# ---------------------------------------------------------------------------
# Checks and digests


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(path)).encode() + b"\0")
            h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def check_result(res: Result, count_cache: dict) -> None:
    if res.rc != 0 or res.error is not None:
        return
    op, out = res.op, res.out
    try:
        if op.cmd == "tile":
            res.problems = oracles.check_tile(out, op.spec, res.stdout, count_cache)
        elif op.cmd == "cftp":
            res.problems = oracles.check_cftp(out, op.spec)
        elif op.cmd == "sample":
            res.problems = oracles.check_sample(out, op.spec)
        elif op.cmd == "feasibility":
            res.problems = oracles.check_feasibility(out, op.spec)
        elif op.cmd == "swap":
            res.problems = oracles.check_swap(out, op.spec)
        elif op.cmd == "sigma":
            res.problems = oracles.check_sigma(out, op.spec)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        res.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_all(results: list[Result]) -> tuple[list[str], list[dict]]:
    """Check every op's files and digest them; returns cross-op problems and TI errors."""
    cache: dict = {}
    pairs: dict = {}
    for res in results:
        check_result(res, cache)
        res.digest = dir_digest(res.out)
        if res.op.pair and res.ok:
            pairs.setdefault(res.op.pair, []).append(
                (res.op.cfg["method"], oracles.sigma_values(res.out))
            )
    return oracles.check_sigma_pairs(pairs)


def combined_digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for res in sorted(results, key=lambda r: (r.round, r.index)):
        h.update(res.digest.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Metrics


def percentile(sorted_xs: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (pos - lo) * (sorted_xs[hi] - sorted_xs[lo])


def op_timings(results, speeds, wall) -> dict:
    """Throughput and latency percentiles, from raw or speed-scaled op times.

    Throughput divides by the time spent inside ``main``.  A failed op
    counts as slower than every success: it takes the phase's wall time.
    """
    times = [r.latency * f for r, f in zip(results, speeds)]
    latencies = sorted(t if r.ok else wall for r, t in zip(results, times))
    return {
        "ops_per_s": sum(r.ok for r in results) / sum(times),
        "op_s.p50": percentile(latencies, 0.5),
        "op_s.p90": percentile(latencies, 0.9),
    }


def end_to_end(results, probes, speeds, wall, setup_runs) -> dict:
    attempted = len(results) + len(probes)
    failed = sum(not r.ok for r in results) + sum(not p.ok for p in probes)
    values = op_timings(results, speeds, wall)
    setup_times, setup_speeds = setup_runs
    values.update(
        {
            "ok_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_speeds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    samples = {"ok_frac": attempted, "setup_s": len(setup_times), "peak_rss_mb": 1}
    return {
        name: {"value": values[name], "unit": unit, "samples": samples.get(name, len(results))}
        for name, unit in END_TO_END
    }


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "gradsurf").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def kind_counts(results) -> dict:
    counts: dict = {}
    for r in results:
        counts[r.op.kind] = counts.get(r.op.kind, 0) + 1
    return dict(sorted(counts.items()))


def kind_latencies(results) -> dict:
    """Median latency per op kind, to see which kind a percentile falls on."""
    by_kind: dict = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(r.latency)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def baseline_digest(workload: str, seed: int):
    if not BASELINE.is_file():
        return None
    return json.loads(BASELINE.read_text()).get("round0_digest", {}).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "gradsurf" / "cli.py").is_file():
        print(f"bench: no gradsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, run_dir)
            return 0
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir: Path) -> int:
    setup_runs = None if args.trace else measure_setup(args.workload, args.seed)
    cli, plan = setup(args.workload, args.seed, run_dir)
    results, refs, wall, rounds = timed_phase(cli, plan, run_dir, args.seconds)
    speeds = machine_speed(refs)
    probes = run_probes(cli, plan, run_dir, rounds)
    problems, ti_errors = check_all(results + probes)
    problems += [f"{r.out.name} ({r.op.kind}): {p}" for r in results for p in r.problems]
    round0 = combined_digest([r for r in results if r.round == 0])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": rounds,
        "timed_wall_s": wall,
        "reference_s": {"median": statistics.median(refs), "min": min(refs), "max": max(refs)},
        "round_op_s": [sum(r.latency for r in results if r.round == k) for k in range(rounds)],
        "ops_per_kind": kind_counts(results),
        "median_latency_per_kind_s": kind_latencies(results),
        "probes_per_kind": kind_counts(probes),
        "probe_outcomes": sorted({f"{p.op.kind}: {p.error or p.problems or ('rc=%s' % p.rc)}" for p in probes}),
        "failed_timed": sum(not r.ok for r in results),
        "failed_frac": sum(not r.ok for r in results + probes) / len(results + probes),
        "ti_errors": ti_errors,
        "round0_digest": round0,
        "round0_matches_baseline": None,
    }
    expected = baseline_digest(args.workload, args.seed)
    if expected is not None:
        report["round0_matches_baseline"] = expected == round0
    if args.trace:
        metrics, trace_problems = traced_replay(cli, plan, results, speeds, run_dir, args)
        problems += trace_problems
        report["per_layer"] = metrics
    else:
        metrics = end_to_end(results, probes, speeds, wall, setup_runs)
        report["end_to_end"] = metrics
        report["unscaled"] = op_timings(results, [1.0] * len(results), wall)
        report["unscaled"]["setup_s"] = statistics.median(setup_runs[0])
    report["problems"] = problems[:50]
    correct = not problems
    report["correct"] = correct
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    last = {
        "correct": correct,
        "attempted": len(results),
        "failed": report["failed_timed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(last))
    return 0


def traced_replay(cli, plan: Plan, results: list[Result], speeds, run_dir: Path, args):
    """Replay the first rounds with every layer wrapped; outputs must not change."""
    from tracer import PER_LAYER, Tracer

    tracer = Tracer()
    tracer.install()
    rounds = min(TRACE_ROUNDS, max(r.round for r in results) + 1)
    untraced = [r for r in results if r.round < rounds]
    traced, refs = [], []
    for k, res in enumerate(untraced):
        tracer.op_id = k
        refs.append(time_reference())
        out = run_dir / f"t{res.round:02d}-{res.index:02d}"
        traced.append(run_op(cli, res.op, out, plan.op_seed(res.round, res.index), res.round, res.index))
    refs.append(time_reference())
    # both sides scaled to nominal speed, so drift between them is not overhead
    scaled_traced = sum(r.latency * f for r, f in zip(traced, machine_speed(refs)))
    scaled_untraced = sum(r.latency * f for r, f in zip(untraced, speeds))
    values = tracer.metrics(sum(r.latency for r in traced), scaled_traced / scaled_untraced - 1.0)
    tracer.op_id = -1  # probe spans; they add to <layer>.errors only
    run_probes(cli, plan, run_dir, rounds, prefix="tp")
    values.update(tracer.layer_errors())
    problems = []
    for before, after in zip(untraced, traced):
        after.digest = dir_digest(after.out)
        if after.digest != before.digest:
            problems.append(f"{after.out.name}: traced output differs from the untraced run")
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{args.workload}-s{args.seed}-{os.getpid()}.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
