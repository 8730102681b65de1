"""In-memory span tracing around the pnpmmse layers, for the traced benchmark run.

Each wrapped function is replaced at the name its caller looks it up under:
modules import functions by name, so ``pnpmmse.solvers.grad_data_fidelity``
is wrapped, not ``pnpmmse.linear_model.grad_data_fidelity``; methods are
wrapped on their class.  A name that no longer exists is skipped, so the
harness keeps running when a later refactor moves a layer, and that
layer's counts read zero.  Spans stay in memory until :meth:`Tracer.restore`
and are turned into metrics after the run.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped functions; single-threaded (workers=1)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> bool:
        """Replace ``owner.attr`` by a recording wrapper.

        ``describe(args, kwargs, result)`` returns span attributes; it runs
        after the call, outside the span's timed interval.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            return False
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if describe is not None:
                try:
                    tracer.spans[index].attrs = describe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _arg(args, kwargs, position, keyword):
    if keyword in kwargs:
        return kwargs[keyword]
    return args[position]


def _problem_shape(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    return {"m": problem.m, "n": problem.n}


def _elements(args, kwargs, result):
    return {"elements": int(getattr(args[1], "size", 1))}


def _lipschitz(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _pnp(args, kwargs, result):
    trace = kwargs.get("trace", args[4] if len(args) > 4 else None)
    full = bool(trace is not None and (trace.objective or trace.gradient))
    denoiser = _arg(args, kwargs, 1, "denoiser")
    return {"iterations": int(result.iterations_run), "full": full, "param": float(denoiser.sigma)}


def _lasso(args, kwargs, result):
    lam = _arg(args, kwargs, 1, "lam")
    return {"iterations": int(result.iterations_run), "param": float(lam)}


def _gamp(args, kwargs, result):
    return {"iterations": int(result.iterations_run), "diverged": bool(result.diverged)}


def _trial(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    rate_index = _arg(args, kwargs, 1, "rate_index")
    return {
        "rate": float(config.measurement_rates[rate_index]),
        "trial": int(_arg(args, kwargs, 2, "trial")),
        "failed": getattr(result, "error", None) is not None,
    }


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every traced layer; returns the span names that found no target."""
    from pnpmmse import denoiser, experiment, solvers

    plan = [
        (experiment, "_run_trial", "experiment.trial", _trial),
        (experiment, "make_problem", "experiment.make_problem", None),
        (experiment, "lipschitz_constant", "linear_model.lipschitz", _lipschitz),
        (solvers, "lipschitz_constant", "linear_model.lipschitz", _lipschitz),
        (experiment, "pnp_ista", "solvers.pnp", _pnp),
        (experiment, "lasso_ista", "solvers.lasso", _lasso),
        (experiment, "gamp", "solvers.gamp", _gamp),
        (solvers, "grad_data_fidelity", "linear_model.grad", _problem_shape),
        (experiment, "grad_data_fidelity", "linear_model.grad", _problem_shape),
        (solvers, "data_fidelity", "linear_model.fidelity", None),
        (experiment, "data_fidelity", "linear_model.fidelity", None),
        (solvers, "snr_db", "linear_model.snr", None),
        (solvers, "posterior_moments", "denoiser.posterior_moments", None),
        (denoiser.MmseDenoiser, "denoise", "denoiser.denoise", _elements),
        (denoiser.MmseDenoiser, "invert", "denoiser.invert", _elements),
        (denoiser.InducedRegularizer, "value_and_gradient", "denoiser.regularizer", None),
        (denoiser, "neg_log_marginal", "prior.neg_log_marginal", None),
        (experiment, "neg_log_marginal", "prior.neg_log_marginal", None),
        (experiment, "marginal_density", "prior.marginal_density", None),
    ]
    missing = []
    for owner, attr, name, describe in plan:
        if not tracer.wrap(owner, attr, name, describe):
            missing.append(f"{name} ({getattr(owner, '__name__', owner)}.{attr})")
    return missing


# Layer metrics: name -> (unit, better).  Counts repeat exactly for a seed;
# ``flops`` and ``bytes`` are computed from operand shapes, not measured.
LAYER_METRICS = {
    "linear_model.grad.calls": ("count", "lower"),
    "linear_model.grad.self_s": ("s", "lower"),
    "linear_model.grad.flops": ("flop", "lower"),
    "linear_model.grad.bytes": ("B", "lower"),
    "linear_model.fidelity.calls": ("count", "lower"),
    "linear_model.fidelity.self_s": ("s", "lower"),
    "linear_model.lipschitz.calls": ("count", "lower"),
    "linear_model.lipschitz.self_s": ("s", "lower"),
    "linear_model.lipschitz.iterations": ("count", "lower"),
    "linear_model.lipschitz.unconverged": ("count", "lower"),
    "linear_model.snr.calls": ("count", "lower"),
    "linear_model.snr.self_s": ("s", "lower"),
    "denoiser.denoise.calls": ("count", "lower"),
    "denoiser.denoise.self_s": ("s", "lower"),
    "denoiser.denoise.elements": ("count", "lower"),
    "denoiser.invert.calls": ("count", "lower"),
    "denoiser.invert.self_s": ("s", "lower"),
    "denoiser.invert.elements": ("count", "lower"),
    "denoiser.regularizer.calls": ("count", "lower"),
    "denoiser.regularizer.self_s": ("s", "lower"),
    "denoiser.posterior_moments.calls": ("count", "lower"),
    "denoiser.posterior_moments.self_s": ("s", "lower"),
    "prior.neg_log_marginal.calls": ("count", "lower"),
    "prior.neg_log_marginal.self_s": ("s", "lower"),
    "prior.marginal_density.calls": ("count", "lower"),
    "prior.marginal_density.self_s": ("s", "lower"),
    "solvers.pnp.calls": ("count", "lower"),
    "solvers.pnp.self_s": ("s", "lower"),
    "solvers.pnp.iterations": ("count", "lower"),
    "solvers.lasso.calls": ("count", "lower"),
    "solvers.lasso.self_s": ("s", "lower"),
    "solvers.lasso.iterations": ("count", "lower"),
    "solvers.gamp.calls": ("count", "lower"),
    "solvers.gamp.self_s": ("s", "lower"),
    "solvers.gamp.iterations": ("count", "lower"),
    "solvers.gamp.diverged": ("count", "lower"),
    "experiment.trial.count": ("count", "lower"),
    "experiment.trial.p50_s": ("s", "lower"),
    "experiment.trial.p90_s": ("s", "lower"),
    "experiment.make_problem.self_s": ("s", "lower"),
    "experiment.grid.runs": ("count", "lower"),
    "experiment.grid.useful_ratio": ("fraction", "higher"),
    "experiment.grid.edge_frac": ("fraction", "lower"),
}


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; exact for the small samples a run yields."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _grid_summary(spans: list[Span], selections: list[tuple]) -> tuple[int, int, int]:
    """Grid runs attempted, selections made and selections on a grid edge.

    A grid run is an SNR-only PnP run or a LASSO run; the fully traced PnP
    re-run of the winner is not part of the search.  Each run is assigned
    to its enclosing trial span, whose grid extremes decide the edge test.
    """

    def enclosing_trial(index: int) -> int:
        while index >= 0 and spans[index].name != "experiment.trial":
            index = spans[index].parent
        return index

    grids: dict[tuple, list[float]] = {}
    runs = 0
    for span in spans:
        solver = {"solvers.pnp": "pnp", "solvers.lasso": "lasso"}.get(span.name)
        if solver is None or span.attrs.get("full") or "param" not in span.attrs:
            continue
        runs += 1
        trial = enclosing_trial(span.parent)
        if trial >= 0 and "rate" in spans[trial].attrs:
            key = (spans[trial].attrs["rate"], spans[trial].attrs["trial"], solver)
            grids.setdefault(key, []).append(span.attrs["param"])
    edges = 0
    for rate, trial, solver, value in selections:
        grid = grids.get((rate, trial, solver))
        if grid and any(math.isclose(value, v, rel_tol=1e-12) for v in (min(grid), max(grid))):
            edges += 1
    return runs, len(selections), edges


def run_spans(tracer: Tracer, run_id: int) -> list[Span]:
    """Spans of one traced command, with parents indexing the returned list."""
    indices = [i for i, s in enumerate(tracer.spans) if s.run_id == run_id]
    offset = indices[0] if indices else 0
    return [
        Span(s.name, s.start, s.end, s.parent - offset if s.parent >= 0 else -1, run_id, s.attrs)
        for s in tracer.spans[offset : offset + len(indices)]
    ]


def layer_metrics(spans: list[Span], selections: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced command, keyed as in LAYER_METRICS."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own

    def attr_sum(name, key):
        return sum(float(s.attrs.get(key, 0)) for s in spans if s.name == name)

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif kind in ("elements", "iterations"):
            out[metric] = int(attr_sum(layer, kind))
    out["linear_model.lipschitz.unconverged"] = sum(
        1 for s in spans if s.name == "linear_model.lipschitz" and s.attrs.get("converged") is False
    )
    out["solvers.gamp.diverged"] = sum(
        1 for s in spans if s.name == "solvers.gamp" and s.attrs.get("diverged")
    )
    grads = [s.attrs for s in spans if s.name == "linear_model.grad" and "m" in s.attrs]
    # H x, minus y, then H^T r: two m*n matrix-vector products over float64.
    out["linear_model.grad.flops"] = sum(4 * a["m"] * a["n"] + a["m"] for a in grads)
    out["linear_model.grad.bytes"] = sum(8 * (2 * a["m"] * a["n"] + 2 * a["n"] + 5 * a["m"]) for a in grads)

    trials = [s.duration for s in spans if s.name == "experiment.trial"]
    out["experiment.trial.count"] = len(trials)
    out["experiment.trial.p50_s"] = statistics.median(trials) if trials else 0.0
    out["experiment.trial.p90_s"] = _percentile(trials, 0.9) if trials else 0.0
    runs, selected, edges = _grid_summary(spans, selections)
    out["experiment.grid.runs"] = runs
    out["experiment.grid.useful_ratio"] = selected / runs if runs else 0.0
    out["experiment.grid.edge_frac"] = edges / selected if selected else 0.0
    return out


def layer_table(spans: list[Span], metrics: dict[str, float]) -> list[str]:
    """Per-layer timings in the layout of the ROADMAP baseline table."""

    def per_call(prefix):
        calls = metrics[f"{prefix}.calls"]
        total = metrics[f"{prefix}.self_s"]
        if not calls:
            return "not called", "0 calls"
        return f"{1e3 * total / calls:.3f} ms", f"{total:.3f} s self over {calls} calls"

    def per_500(name, predicate=lambda s: True):
        chosen = [s for s in spans if s.name == name and predicate(s) and s.attrs.get("iterations")]
        if not chosen:
            return "not run", "0 runs"
        scaled = [500.0 * s.duration / s.attrs["iterations"] for s in chosen]
        return f"{statistics.median(scaled):.3f} s", f"median of {len(chosen)} runs, inclusive"

    rows = [("layer", "time", "base")]
    rows.append(("fidelity gradient, per call", *per_call("linear_model.grad")))
    rows.append(("`denoise`, per call", *per_call("denoiser.denoise")))
    rows.append(("`invert`, per call", *per_call("denoiser.invert")))
    lip_calls = metrics["linear_model.lipschitz.calls"]
    if lip_calls:
        rows.append((
            "power-iteration Lipschitz",
            f"{metrics['linear_model.lipschitz.self_s'] / lip_calls:.3f} s",
            f"{metrics['linear_model.lipschitz.iterations'] / lip_calls:.0f} iterations mean over "
            f"{lip_calls} calls, {metrics['linear_model.lipschitz.unconverged']} unconverged",
        ))
    rows.append(("PnP 500 iterations, SNR-only", *per_500("solvers.pnp", lambda s: not s.attrs.get("full"))))
    rows.append(("PnP 500 iterations, fully traced", *per_500("solvers.pnp", lambda s: s.attrs.get("full"))))
    rows.append(("LASSO 500 iterations", *per_500("solvers.lasso")))
    rows.append(("GAMP 500 iterations", *per_500("solvers.gamp")))
    by_rate: dict[float, list[float]] = {}
    for s in spans:
        if s.name == "experiment.trial" and "rate" in s.attrs:
            by_rate.setdefault(s.attrs["rate"], []).append(s.duration)
    for rate in sorted(by_rate):
        times = by_rate[rate]
        rows.append((f"one trial at rate {rate:g}", f"{statistics.median(times):.3f} s", f"median of {len(times)} trials"))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |" for row in rows]
    lines.insert(1, "| " + " | ".join("-" * w for w in widths) + " |")
    return lines
