"""Benchmark of the pnpmmse command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-low --seed 1 --seconds 30 --trace 0

Each run is one process.  A workload is one ``pnpmmse`` CLI command run
to completion, repeated in a closed loop with one client: at least
``SNR_REPS`` commands, and more until ``--seconds`` have passed.  Command
``k`` of a run gets the program seed ``1000 * seed + k``, so one run
averages over several problem draws and the same ``--seed`` always gives
the same inputs.  The program receives only the generated config, as a
JSON file through ``--config``.  Each command runs one trial per rate with
``workers=1``, and BLAS keeps at most ``nproc`` threads: two trial threads
with two BLAS threads each would oversubscribe a two-core machine.

Workloads:

- ``sweep-low``: ``pnpmmse sweep`` at n=1024, alpha=0.05, rates 0.3 and
  0.4, solvers pnp, lasso and gamp.  Every cell has m < n/2,
  so the fidelity gradient is cheap and the cost sits in ``denoise``,
  GAMP's n-by-n ``eigh`` and ``posterior_moments``, SNR recording and
  per-iteration interpreter overhead; ``invert`` never runs.  Rates 0.1
  and 0.2 are left out because every solver's SNR there sits at a few dB,
  where a share-of-median bound means nothing.
- ``converge-high``: ``pnpmmse converge`` at n=1024, rate 0.8, alpha=0.2,
  all three solvers.  m=819 > n/2, so the grid search is bound
  by matrix-vector products on the 6.7 MB operator, and the fully traced
  re-run of the winning PnP puts ``invert``, the induced regularizer and
  ``neg_log_marginal`` on the critical path.
- ``validate``: ``pnpmmse validate``, thousands of scalar and tiny-array
  calls into the same layers.  It is runnable here but not listed in
  BENCHMARK.json: on about one seed in six its 8-component test problem
  draws an all-zero signal and the ``fidelity_gradient_fd`` check fails.

End-to-end metrics (``--trace 0``): ``wall_s`` is the median time of one
command, from the CLI entry to the CSVs being written; ``setup_s`` is the
median over several fresh interpreters of importing numpy, scipy and
pnpmmse, parsing the arguments and validating the config; ``peak_rss_mb``
is this process's peak resident set; ``success_frac`` is one minus the
failed share of operations, where an operation is one (rate, trial) cell
or one validation check.  The SNR metrics are the mean final SNR over the
cells of the first ``SNR_REPS`` commands, leaving out the highest and the
lowest cell; each cell's value is read from ``rate_sweep.csv`` or
``convergence_snr.csv`` (zero on ``validate``, which has none).  The
trimming is for GAMP: in about one rate-0.3 cell in fifteen it diverges
at its first iteration and ends near -42 dB, which would swing a plain mean
by tens of dB between seeds; ``solvers.gamp.diverged`` counts those runs.

``--trace 1`` runs each seed untraced and then traced, and reports the
per-layer metrics of the first traced command (see ``tracing.py``), the
tracing overhead and ``failed_frac``.

Every command's outputs are checked: ``f_norm`` starts at exactly 1 and
never increases, every enabled solver has a finite SNR row, every
validation check is PASS and, for a seed in ``reference.json`` at full
scale, the CSVs match the reference within ``REFERENCE_TOLERANCE``.  A
traceback, a non-zero exit or a mismatch marks the command's operations
failed; none of them stops the benchmark.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
TUNED_SOLVERS = ("pnp", "lasso")
SNR_SOLVERS = ("pnp", "lasso", "gamp")
# Absolute tolerance per output file against the reference; parameter
# values and rates compare to 1e-9 relative.  Loose enough for reordered
# floating-point sums, far below any quality trade (a shortened iteration
# budget or a coarser grid moves final SNR by tenths of a dB).
REFERENCE_TOLERANCE = {
    "selections.csv": 0.0,
    "rate_sweep.csv": 1e-4,
    "convergence_snr.csv": 1e-4,
    "convergence_cost.csv": 1e-6,
}
# Output files each command is checked on, in reference.json order.
CHECKED_FILES = {
    "sweep": ("selections.csv", "rate_sweep.csv"),
    "converge": ("selections.csv", "convergence_cost.csv", "convergence_snr.csv"),
}
# pnp_ista's own per-step slack on the objective, relative to f(x0) = 1.
F_NORM_SLACK = 1e-9
# Iterations of the convergence CSVs kept in the reference.
CHECKPOINTS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500)

WORKLOADS = {
    "sweep-low": (
        "sweep",
        dict(n=1024, alpha=0.05, measurement_rates=[0.3, 0.4], trials=1, solvers=list(SNR_SOLVERS)),
        dict(n=128, max_iter=40),
    ),
    "converge-high": (
        "converge",
        dict(n=1024, alpha=0.2, measurement_rates=[0.8], trials=1, solvers=list(SNR_SOLVERS)),
        dict(n=128, max_iter=40),
    ),
    "validate": ("validate", dict(), dict()),
}
SETUP_PROBES = {"full": 5, "tiny": 3}
# The SNR metrics come from the cells of the first SNR_REPS commands, so
# they do not depend on how many commands fit in a run.
SNR_REPS = 4

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "fraction",
    "pnp_snr_db": "dB",
    "lasso_snr_db": "dB",
    "gamp_snr_db": "dB",
}

# Runs in a fresh interpreter: the set-up a CLI user pays before the first trial.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import numpy, scipy
from pnpmmse import cli
from pnpmmse.experiment import ExperimentConfig
import_s = time.perf_counter() - t0
args = cli.build_parser().parse_args(sys.argv[1:])
with open(args.config) as fh:
    ExperimentConfig.from_dict(json.load(fh)).validate()
print(json.dumps({"import_s": import_s}))
"""


def workload_config(name: str, scale: str = "full") -> tuple[str, dict]:
    """The CLI subcommand and the ExperimentConfig values of a workload, bar the seed."""
    command, values, tiny = WORKLOADS[name]
    config = dict(values, workers=1)
    if scale == "tiny":
        config.update(tiny)
    return command, config


def limit_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the cores this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= ncpu:
            os.environ[var] = str(ncpu)
    return ncpu


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@dataclass
class Outcome:
    """One command: what ran, how long, and what its outputs say."""

    code: int | None
    wall_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cells: dict[str, list[float]] = field(default_factory=dict)  # final SNR per cell
    selections: list[tuple] = field(default_factory=list)
    traced: bool = False
    seed: int | None = None
    checked: bool = False  # compared against reference.json


def _rows_match(name: str, got: list[list[str]], want: list[list[str]]) -> str | None:
    if len(got) != len(want):
        return f"{name}: {len(got)} rows, reference has {len(want)}"
    tol = REFERENCE_TOLERANCE[name]
    for got_row, want_row in zip(got, want):
        if len(got_row) != len(want_row):
            return f"{name}: row {got_row} differs from reference {want_row}"
        for a, b in zip(got_row, want_row):
            try:
                same = math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=tol)
            except ValueError:
                same = a == b
            if not same:
                return f"{name}: row {got_row} differs from reference {want_row} (tolerance {tol})"
    return None


def reference_rows(name: str, rows: list[list[str]]) -> list[list[str]]:
    """The rows of an output file that the reference keeps."""
    if rows and rows[0][0] == "iter":
        return [rows[0]] + [r for r in rows[1:] if int(r[0]) in CHECKPOINTS]
    return rows


def check_grid_outputs(command: str, config: dict, out: Path, reference: dict | None, outcome: Outcome) -> None:
    """Checks of a sweep or converge command that exited 0."""
    rates = [float(r) for r in config["measurement_rates"]]
    tuned = [s for s in TUNED_SOLVERS if s in config["solvers"]]
    chosen: dict[tuple, set] = {}
    for rate, trial, solver, _, value in read_csv(out / "selections.csv")[1:]:
        chosen.setdefault((float(rate), int(trial)), set()).add(solver)
        if solver in TUNED_SOLVERS:
            outcome.selections.append((float(rate), int(trial), solver, float(value)))
    ok_cells = {
        (rate, t)
        for rate in rates
        for t in range(config["trials"])
        if set(tuned) <= chosen.get((rate, t), set())
    }
    outcome.failed = outcome.attempted - len(ok_cells)

    # Workload commands run one trial per rate, so each SNR row is one cell.
    solvers = [s for s in SNR_SOLVERS if s in config["solvers"]]
    if command == "sweep":
        for rate, solver, mean, lo, hi in read_csv(out / "rate_sweep.csv")[1:]:
            mean, lo, hi = float(mean), float(lo), float(hi)
            if not (math.isfinite(mean) and lo <= mean <= hi):
                outcome.problems.append(f"rate_sweep.csv: bad row at rate {rate} for {solver}")
            outcome.cells.setdefault(solver, []).append(mean)
    else:
        cost = read_csv(out / "convergence_cost.csv")[1:]
        for col in (1, 2, 3):
            series = [float(r[col]) for r in cost]
            if series[0] != 1.0:
                outcome.problems.append(f"convergence_cost.csv: f_norm starts at {series[0]!r}, not 1")
            rises = [i for i in range(1, len(series)) if series[i] > series[i - 1] + F_NORM_SLACK]
            if rises:
                outcome.problems.append(f"convergence_cost.csv: f_norm increases at iteration {cost[rises[0]][0]}")
        snr_rows = read_csv(out / "convergence_snr.csv")[1:]
        last = max(int(r[0]) for r in snr_rows)
        for row in snr_rows:
            if int(row[0]) == last:
                outcome.cells.setdefault(row[1], []).append(float(row[2]))
    missing = [s for s in solvers if not all(map(math.isfinite, outcome.cells.get(s, [math.nan])))]
    if missing:
        outcome.problems.append(f"no finite final SNR for {missing}")

    if reference is not None:
        for name in CHECKED_FILES[command]:
            problem = _rows_match(name, reference_rows(name, read_csv(out / name)), reference[name])
            if problem:
                outcome.problems.append(problem)


def check_validation(out: Path, outcome: Outcome) -> None:
    rows = read_csv(out / "validation.csv")[1:]
    outcome.attempted = len(rows)
    bad = [f"{name}: {status} {detail}" for name, status, detail in rows if status != "PASS"]
    outcome.failed = len(bad)
    outcome.problems.extend(bad)


def run_command(cli, command: str, config: dict, out: Path, reference: dict | None, tracer=None) -> Outcome:
    """Run one CLI command in this process and check what it wrote."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config))
    if command == "validate":
        from pnpmmse.experiment import DEFAULT_VALIDATION_TOLERANCES

        attempted = len(DEFAULT_VALIDATION_TOLERANCES)
    else:
        attempted = len(config["measurement_rates"]) * config["trials"]

    error = None
    root = tracer.open("cli.main") if tracer is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(config_path), "--out", str(out)])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a traceback is a recorded failure, not a crash
        code, error = None, traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    if root is not None:
        tracer.close(root)

    outcome = Outcome(code, wall, attempted, traced=tracer is not None)
    try:
        if command == "validate" and code in (0, 1):
            check_validation(out, outcome)
        elif code == 0:
            check_grid_outputs(command, config, out, reference, outcome)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        outcome.problems.append(f"unreadable output: {exc!r}")
        outcome.failed = outcome.attempted
    if code != 0 and not (command == "validate" and code == 1):
        outcome.problems.append(error or f"exit code {code}")
        outcome.failed = outcome.attempted
    elif outcome.problems and command != "validate":
        outcome.failed = outcome.attempted
    return outcome


def measure_setup(command: str, config: dict, out: Path, probes: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters reaching a validated config."""
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "setup-config.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup, imports = [], []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, command, "--config", str(config_path), "--out", str(out)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        setup.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return setup, imports


def _cache_sizes() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
        sizes[f"L{level}_bytes"] = int(text.rstrip("KMG")) * scale
    return sizes


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(workload: str, seed: int, command: str, config: dict, ncpu: int) -> dict:
    """Environment and working-set facts that go with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = _cache_sizes()
    facts = {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "config": config,
        "nproc": os.cpu_count(),
        "usable_cpus": ncpu,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
    }
    if command != "validate":
        n = config["n"]
        operators = {str(r): 8 * max(1, round(r * n)) * n for r in config["measurement_rates"]}
        gamp = 2 * 8 * n * n if "gamp" in config["solvers"] else 0
        llc = max(caches.values()) if caches else None
        facts["working_set"] = {
            "operator_bytes_by_rate": operators,
            "gamp_gram_and_basis_bytes": gamp,
            "largest_over_llc": max(*operators.values(), gamp) / llc if llc else None,
            "note": "below 4x the last-level cache: grad flops and bytes are computed counts, no bandwidth is claimed",
        }
    return facts


def program_seed(seed: int, rep: int) -> int:
    """Seed of the ``rep``-th command of a run; runs of distinct seeds share none."""
    return 1000 * seed + rep


def measure(
    workload: str, command: str, config: dict, seconds: float, trace: bool, probes: int, seed: int, ncpu: int
) -> tuple[dict, list[str]]:
    """Run the closed loop and return the JSON result plus report lines.

    Untraced, the loop runs at least ``SNR_REPS`` commands and goes on
    until ``seconds`` have passed; command ``k`` uses ``program_seed(seed, k)``.
    Traced, each seed runs untraced and traced, in alternating order, and
    at least one seed runs.
    """
    sys.path.insert(0, str(SRC))
    from pnpmmse import cli

    references = {}
    if REFERENCE.is_file():
        saved = json.loads(REFERENCE.read_text()).get(workload, {})
        if saved.get("config") == config:
            references = saved.get("seeds", {})

    out_root = WORK / f"{workload}-{seed}-{os.getpid()}"
    lines: list[str] = []
    outcomes: list[Outcome] = []
    tracer = None
    missing: list[str] = []
    try:
        setup, imports = measure_setup(command, dict(config, seed=program_seed(seed, 0)), out_root / "setup", probes)
        if trace:
            from tracing import Tracer, instrument

            tracer = Tracer()
        start = time.perf_counter()
        rep = 0
        while rep < (1 if trace else SNR_REPS) or time.perf_counter() - start < seconds:
            rep_config = dict(config, seed=program_seed(seed, rep))
            reference = references.get(str(rep_config["seed"]))
            # Traced and untraced alternate in order, so warm-up favours neither.
            for traced in ((False, True) if rep % 2 == 0 else (True, False)) if trace else (False,):
                if traced:
                    tracer.run_id = len(outcomes)
                    missing = instrument(tracer)
                try:
                    outcome = run_command(
                        cli, command, rep_config, out_root / f"rep{len(outcomes)}", reference, tracer if traced else None
                    )
                finally:
                    if traced:
                        tracer.restore()
                outcome.seed = rep_config["seed"]
                outcome.checked = reference is not None
                outcomes.append(outcome)
            rep += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not any(o.problems for o in outcomes)
    for o in outcomes:
        lines.extend(f"problem (seed {o.seed}): {p.strip()}" for p in o.problems)

    facts = manifest(workload, seed, command, config, ncpu)
    facts.update(
        commands=[
            {"seed": o.seed, "wall_s": round(o.wall_s, 4), "traced": o.traced, "reference_checked": o.checked}
            for o in outcomes
        ],
        setup_s=[round(s, 4) for s in setup],
    )
    lines.insert(0, "manifest " + json.dumps(facts, sort_keys=True))

    if not trace:
        metrics = {
            "wall_s": statistics.median(o.wall_s for o in outcomes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "success_frac": (attempted - failed) / attempted,
        }
        for solver in SNR_SOLVERS:
            cells = sorted(v for o in outcomes[:SNR_REPS] for v in o.cells.get(solver, []))
            kept = cells[1:-1] if len(cells) > 2 else cells
            metrics[f"{solver}_snr_db"] = statistics.mean(kept) if kept else 0.0
        units = END_TO_END
    else:
        from tracing import LAYER_METRICS, layer_metrics, layer_table, run_spans, self_times

        first = next(o for o in outcomes if o.traced)
        spans = run_spans(tracer, outcomes.index(first))
        metrics = layer_metrics(spans, first.selections)
        pairs = [sorted(pair, key=lambda o: o.traced) for pair in zip(outcomes[::2], outcomes[1::2])]
        ratios = [traced.wall_s / plain.wall_s for plain, traced in pairs]
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["failed_frac"] = failed / attempted
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units.update({"trace.overhead_frac": "fraction", "cli.import_s": "s", "failed_frac": "fraction"})

        root = spans[0].duration
        total_self = sum(self_times(spans))
        lines.extend(layer_table(spans, metrics))
        lines.append(
            f"trace.overhead_frac = {metrics['trace.overhead_frac']:.4f}: median over {len(ratios)} seeds of "
            f"traced wall_s over untraced wall_s, minus 1 (first seed: {pairs[0][1].wall_s:.3f} s over "
            f"{pairs[0][0].wall_s:.3f} s)"
        )
        lines.append(
            f"self times sum to {total_self:.6f} s against the root span's {root:.6f} s "
            f"({'consistent' if math.isclose(total_self, root, rel_tol=1e-9) else 'INCONSISTENT'})"
        )
        lines.append(
            f"experiment.grid.useful_ratio = {metrics['experiment.grid.useful_ratio']:.4f} "
            f"({len(first.selections)} selections over {metrics['experiment.grid.runs']} grid runs); "
            f"edge_frac = {metrics['experiment.grid.edge_frac']:.4f} (share of those selections)"
        )
        lines.append(f"failed_frac = {metrics['failed_frac']:.4f} ({failed} of {attempted} operations)")
        if missing:
            lines.append("layers not found, reading zero: " + ", ".join(missing))
        spans_path = WORK / f"spans-{workload}-{seed}.json"
        spans_path.write_text(json.dumps([[s.name, s.start, s.end, s.parent, s.run_id] for s in spans]))
        lines.append(f"spans of the first traced command (name, start, end, parent, run id): {spans_path.relative_to(ROOT)}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: n=128 and 40 iterations, for smoke tests"
    )
    args = parser.parse_args(argv)

    if not (SRC / "pnpmmse" / "__init__.py").is_file():
        print(f"pnpmmse sources not found under {SRC}", file=sys.stderr)
        return 2
    ncpu = limit_blas_threads()
    command, config = workload_config(args.workload, args.scale)
    result, lines = measure(
        args.workload, command, config, args.seconds, bool(args.trace), SETUP_PROBES[args.scale], args.seed, ncpu
    )
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
