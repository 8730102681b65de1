"""Tests of the benchmark harness itself, at a tiny size.

Run from the repository root (kept out of the default test run, which
collects only ``test_*.py``):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SEED = 4  # any seed but run.DEFAULT_SEED
WORKLOADS = sorted(bench.WORKLOADS)
# Layer metrics that must repeat exactly for one seed: all but times.
COUNT_METRICS = [name for name, (unit, _) in LAYER_METRICS.items() if unit != "s"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny(workload: str, trace: int, seed: int = SEED) -> tuple[dict, str]:
    proc = run_bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: tiny(w, 1) for w in ("sweep-low", "converge-high")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, declared):
    result, stdout = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    section = declared["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    manifest = json.loads(stdout.splitlines()[0].removeprefix("manifest "))
    assert {"nproc", "blas", "python", "numpy", "scipy", "caches", "git_commit", "seed"} <= set(manifest)
    if workload != "validate":
        assert result["correct"] and result["failed"] == 0


def test_declared_workloads_run_here(declared):
    assert {w["name"] for w in declared["workloads"]} <= set(bench.WORKLOADS)


def test_traced_counts_repeat_exactly(traced):
    again, _ = tiny("converge-high", 1)
    first = traced["converge-high"][0]["metrics"]
    assert {k: first[k]["value"] for k in COUNT_METRICS} == {k: again["metrics"][k]["value"] for k in COUNT_METRICS}


def test_traced_layers_follow_the_workload(traced):
    sweep = traced["sweep-low"][0]["metrics"]
    converge = traced["converge-high"][0]["metrics"]
    assert sweep["denoiser.invert.calls"]["value"] == 0
    assert converge["denoiser.invert.calls"]["value"] > 0

    def grad_bytes_per_trial(m):
        return m["linear_model.grad.bytes"]["value"] / m["experiment.trial.count"]["value"]

    assert grad_bytes_per_trial(converge) > grad_bytes_per_trial(sweep)
    for _, stdout in traced.values():
        assert "(consistent)" in stdout


@pytest.fixture
def in_process():
    bench.limit_blas_threads()
    sys.path.insert(0, str(bench.SRC))
    from pnpmmse import cli

    return cli


FORCED_FAILURE = dict(
    n=64, trials=2, measurement_rates=[0.5, 0.8], gamma_policy=50.0, solvers=list(bench.SNR_SOLVERS), workers=1
)


@pytest.mark.parametrize("trace", [False, True])
def test_forced_failure_is_counted_not_fatal(trace, in_process):
    # pnpmmse sweep --n 64 --trials 2 --rates 0.5,0.8 --gamma 50: exit 3, 4/4 trials failed.
    result, lines = bench.measure("forced-failure", "sweep", FORCED_FAILURE, 0, trace, 1, 1009, 2)
    commands = 2 if trace else bench.SNR_REPS
    assert result["attempted"] == result["failed"] == 4 * commands
    assert not result["correct"]
    assert any("exit code 3" in line for line in lines)
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 1.0
    else:
        assert result["metrics"]["success_frac"]["value"] == 0.0


def test_traceback_is_counted_not_fatal(in_process, monkeypatch, tmp_path):
    def broken(config):
        raise RuntimeError("injected")

    monkeypatch.setattr(in_process, "run_rate_sweep", broken)
    command, config = bench.workload_config("sweep-low", "tiny")
    outcome = bench.run_command(in_process, command, config, tmp_path / "out", None)
    assert outcome.code is None
    assert outcome.failed == outcome.attempted == 2
    assert "RuntimeError: injected" in outcome.problems[-1]


def test_reference_mismatch_is_counted(in_process, tmp_path):
    command, config = bench.workload_config("converge-high", "tiny")
    config["seed"] = SEED
    out = tmp_path / "out"
    clean = bench.run_command(in_process, command, config, out, None)
    assert clean.code == 0 and not clean.problems
    reference = {name: bench.reference_rows(name, bench.read_csv(out / name)) for name in bench.CHECKED_FILES[command]}
    assert not bench.run_command(in_process, command, config, out, reference).problems

    reference["convergence_snr.csv"][-1][2] = str(float(reference["convergence_snr.csv"][-1][2]) + 1e-3)
    shifted = bench.run_command(in_process, command, config, out, reference)
    assert shifted.failed == shifted.attempted
    assert any("convergence_snr.csv" in p for p in shifted.problems)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep-low", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
