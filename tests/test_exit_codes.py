"""The command line's exit-code contract over small random configs, run in-process.

Every ``sweep`` or ``converge`` command ends in exit 0, 2 (configuration
error) or 3 (numerical failure); no exception escapes ``cli.main``, no
numpy ``RuntimeWarning`` is raised (the suite's conftest turns one into
an error), and a command that exits 0 writes only finite numbers, one
``rate_sweep.csv`` row per rate and solver.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnpmmse.cli import main
from pnpmmse.experiment import KNOWN_SOLVERS


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def configs(draw):
    """A small config: n <= 32, one trial, at most 20 iterations, wide log-uniform values."""
    command = draw(st.sampled_from(["sweep", "converge"]))
    # the rate count each command needs; a wrong count is checked by the CLI tests
    count = 2 if command == "sweep" else 1
    return {
        "command": command,
        "n": draw(st.integers(1, 32)),
        "trials": 1,
        "measurement_rates": sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))),
        "max_iter": draw(st.integers(1, 20)),
        "solvers": draw(st.lists(st.sampled_from(KNOWN_SOLVERS), min_size=1, max_size=3, unique=True)),
        "alpha": draw(log_uniform(-12.0, 0.0)),
        # uniform in dB is log-uniform in power; the wide branch crosses the admitted range's ends
        "input_snr_db": draw(st.one_of(st.floats(-40.0, 80.0), st.floats(-3200.0, 3200.0))),
        "sigma_grid": draw(st.lists(log_uniform(-160.0, 160.0), min_size=1, max_size=3)),
        "lambda_grid": draw(st.lists(log_uniform(-300.0, 300.0), min_size=1, max_size=3)),
        "gamma_policy": draw(st.one_of(st.just("auto"), log_uniform(-10.0, 10.0))),
        "gamp_damping": draw(log_uniform(-6.0, 0.0)),
    }


# the rows of `pnpmmse sweep --n 16 --trials 1 --rates 0.5,0.6 --max-iter 3` that once broke the contract
SMALL_SWEEP = {"command": "sweep", "n": 16, "trials": 1, "measurement_rates": [0.5, 0.6], "max_iter": 3}


def numeric_cells(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        for cell in row:
            try:
                yield float(cell)
            except ValueError:
                continue  # a solver or parameter name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(config=configs())
# every denoiser level grows to about 1e242 and used to end its sweep row at -inf dB
@example(config={"command": "sweep", "n": 64, "trials": 1, "measurement_rates": [0.5, 0.6],
                 "gamma_policy": 0.7, "solvers": ["pnp", "gamp"]})
# message passing's error energy used to overflow to a -inf row and a RuntimeWarning
@example(config=dict(SMALL_SWEEP, input_snr_db=3000.0))
# the noise calibration's power used to raise OverflowError
@example(config=dict(SMALL_SWEEP, input_snr_db=4000.0))
# a level whose square underflows used to divide by zero in the log odds
@example(config=dict(SMALL_SWEEP, sigma_grid=[1e-300]))
# |y|^2 overflows: the measurement terms used to be formed outside the ISTA loop's guard
@example(config=dict(SMALL_SWEEP, alpha=1.0, input_snr_db=-3076.0))
# a repeated rate used to pass the sweep's two-rate check and write two rows for one rate
@example(config=dict(SMALL_SWEEP, n=32, measurement_rates=[0.5, 0.5], max_iter=5))
def test_every_command_keeps_the_exit_code_contract(config):
    values = dict(config)
    command = values.pop("command")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(values))
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code != 0:
            return
        written = sorted(out.glob("*.csv"))
        assert written
        for path in written:
            assert all(math.isfinite(v) for v in numeric_cells(path)), path.name
        if command == "sweep":
            with open(out / "rate_sweep.csv", newline="") as fh:
                keys = [(float(row[0]), row[1]) for row in list(csv.reader(fh))[1:]]
            assert len(keys) == len(set(keys))
            assert sorted({rate for rate, _ in keys}) == values["measurement_rates"]
