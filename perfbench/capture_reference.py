"""Capture the reference outputs that run.py checks full-scale commands against.

Run from the repository root, only at a commit whose outputs are trusted:

    python3 perfbench/capture_reference.py 0 1 2 3 4 5 6 7 8 9 10

Runs the first ``SNR_REPS`` commands of ``sweep-low`` and ``converge-high``
at full scale for each benchmark seed and writes the checked CSV rows to
``perfbench/reference.json``, keyed by program seed.  A command that fails
is reported and left out.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [bench.DEFAULT_SEED]
    bench.limit_blas_threads()
    sys.path.insert(0, str(bench.SRC))
    from pnpmmse import cli

    data = {}
    for workload in ("sweep-low", "converge-high"):
        command, config = bench.workload_config(workload)
        entry = {"config": dict(config), "seeds": {}}
        for seed in (bench.program_seed(s, k) for s in seeds for k in range(bench.SNR_REPS)):
            config["seed"] = seed
            out = bench.WORK / f"reference-{workload}-{seed}"
            outcome = bench.run_command(cli, command, config, out, None)
            if outcome.code == 0 and not outcome.problems:
                files = bench.CHECKED_FILES[command]
                entry["seeds"][str(seed)] = {
                    name: bench.reference_rows(name, bench.read_csv(out / name)) for name in files
                }
            print(
                f"{workload} seed {seed}: exit {outcome.code}, {outcome.wall_s:.2f} s, snr {outcome.cells}, "
                f"problems {outcome.problems}",
                file=sys.stderr,
                flush=True,
            )
            shutil.rmtree(out, ignore_errors=True)
        data[workload] = entry
    bench.REFERENCE.write_text(json.dumps(data, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
