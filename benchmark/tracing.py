"""Timing wrappers for the traced run, and the per-layer metrics they give.

The traced run records a span around each call into a ``mlangevin`` layer.
The benchmark's own calls (set-up, the estimator, the probes) are spans
opened in ``workloads.py``; calls the library makes into its own layers are
caught by temporarily replacing the attribute the caller looks up at call
time (``TARGETS``).  A span's self time is its duration minus the time of
the spans it encloses.

Targets are found by name.  A target that no longer exists is skipped and
the metrics that need it are reported as absent, with the reason, rather
than crashing: a refactor that merges the level runners or drops
``LangevinModel.drift`` changes what can be measured, not whether the
benchmark runs.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

import workloads as wl

MAX_LEVELS = 8  # sde.level<r>_* metrics exist for r = 0..MAX_LEVELS-1


class _Stat:
    __slots__ = ("total", "self", "calls")

    def __init__(self):
        self.total = 0.0
        self.self = 0.0
        self.calls = 0


def _level_name(args, kwargs):
    streams = args[6] if len(args) > 6 else kwargs["streams"]
    return f"sde.level{streams[0].level_index}"


def _level_counts(counts, args, kwargs, result):
    streams = args[6] if len(args) > 6 else kwargs["streams"]
    level = streams[0].level_index
    counts[f"sde.level{level}_steps"] += int(result[1]) * len(streams)


def _drift_counts(counts, args, kwargs, result):
    x = args[1]
    counts["model.drift_rows"] += x.shape[0] if x.ndim > 1 else 1


def _noise_counts(counts, args, kwargs, result):
    counts["sde.noise_normals"] += int(result.size)


# (module, attribute path, span name or name function, counter or None)
TARGETS = (
    ("mlangevin.estimator", "_run_level0_batch", _level_name, _level_counts),
    ("mlangevin.estimator", "_run_coupled_batch", _level_name, _level_counts),
    ("mlangevin.model", "LangevinModel.drift", "model.drift", _drift_counts),
    ("mlangevin.sde", "NoiseStream.standard_normal", "sde.noise",
     _noise_counts),
    ("mlangevin.sde", "_eval_window", "sde.observable", None),
    ("mlangevin.sde", "_reduce_window", "sde.reduce", None),
    ("mlangevin.sde", "_CompensatedSum.add", "sde.reduce", None),
)


class Tracer:
    """Span recorder plus the attribute patches that feed it.

    ``install`` replaces every target in ``TARGETS`` that exists and
    records the missing ones in ``missing``; ``restore`` puts the originals
    back.  Use as ``with tracer: ...`` around the traced call.
    """

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self.missing = {}
        self._stack = []  # time enclosed in each open span, innermost last
        self._patches = []

    def _close(self, name: str, start: float, enclosed: list) -> None:
        dur = time.perf_counter() - start
        self._stack.pop()
        stat = self.stats[name]
        stat.total += dur
        stat.self += dur - enclosed[0]
        stat.calls += 1
        if self._stack:
            self._stack[-1][0] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        enclosed = [0.0]
        self._stack.append(enclosed)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, enclosed)

    def _wrap(self, original, name, count):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            enclosed = [0.0]
            tracer._stack.append(enclosed)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(label, start, enclosed)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, count in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing[path] = f"{module_name}.{path} not found"
                continue
            setattr(owner, attr, self._wrap(original, name, count))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _per_call_us(fn, calls: int = 2000, blocks: int = 5) -> float:
    """Median over ``blocks`` of the mean time of ``calls`` calls, in us."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def microbenchmarks(workload, state) -> dict:
    """Untraced per-call costs at the workload's shapes.

    ``model.grad_us``: ``Potential.grad`` on the rows one drift call sees.
    ``sde.euler_step_us``: one ``euler_step`` of a single chain.
    ``sde.noise_ns_per_normal``: 1e6 normals drawn from one ``NoiseStream``.
    """
    if isinstance(workload, wl.ProbeWorkload):
        model = state.contraction_model
        gamma = workload.contraction_gamma
        point = 0.5 * np.ones(workload.contraction_d)
        batch = point
    else:
        model = state.model
        gamma = state.plan.gamma[0]
        point = np.asarray(state.x0, dtype=float)
        batch = np.tile(point, (workload.n_runs, 1))
    potential = model.potential
    gaussian = np.ones_like(point)
    path = wl.ml.PathState(point, 0, gamma)
    stream = wl.ml.NoiseStream(0, 0)
    noise_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        stream.standard_normal(1_000_000)
        noise_s.append(time.perf_counter() - t0)
    return {
        "model.grad_us": _per_call_us(lambda: potential.grad(batch)),
        "sde.euler_step_us": _per_call_us(
            lambda: wl.ml.euler_step(model, path, gaussian)),
        "sde.noise_ns_per_normal": statistics.median(noise_s) * 1e3,
    }


# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = {
    "model.drift_self_s": ("s", "lower"),
    "model.drift_calls": ("count", "lower"),
    "model.drift_rows_per_call": ("rows/call", "higher"),
    "model.grad_us": ("us", "lower"),
    "model.build_s": ("s", "lower"),
    "sde.noise_self_s": ("s", "lower"),
    "sde.noise_calls": ("count", "lower"),
    "sde.noise_normals": ("count", "lower"),
    "sde.noise_ns_per_normal": ("ns", "lower"),
    "sde.loop_self_s": ("s", "lower"),
    "sde.observable_self_s": ("s", "lower"),
    "sde.reduce_self_s": ("s", "lower"),
    **{f"sde.level{r}_s": ("s", "lower") for r in range(MAX_LEVELS)},
    **{f"sde.level{r}_steps": ("count", "lower") for r in range(MAX_LEVELS)},
    "sde.euler_step_us": ("us", "lower"),
    "estimator.self_s": ("s", "lower"),
    "estimator.grad_evals": ("count", "lower"),
    "tuning.plan_s": ("s", "lower"),
    "tuning.R": ("count", "lower"),
    "tuning.predicted_complexity": ("count", "lower"),
    "warmstart.s": ("s", "lower"),
    "warmstart.iters": ("count", "lower"),
    "diagnostics.reference_s": ("s", "lower"),
    "diagnostics.contraction_s": ("s", "lower"),
    "diagnostics.confluence_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metric -> the wrapper targets it is computed from.
_NEEDS = {
    "model.drift_self_s": ("LangevinModel.drift",),
    "model.drift_calls": ("LangevinModel.drift",),
    "model.drift_rows_per_call": ("LangevinModel.drift",),
    "sde.noise_self_s": ("NoiseStream.standard_normal",),
    "sde.noise_calls": ("NoiseStream.standard_normal",),
    "sde.noise_normals": ("NoiseStream.standard_normal",),
    "sde.loop_self_s": ("_run_level0_batch", "_run_coupled_batch"),
    "sde.observable_self_s": ("_eval_window",),
    "sde.reduce_self_s": ("_reduce_window", "_CompensatedSum.add"),
    "sde.level0_s": ("_run_level0_batch",),
    "sde.level0_steps": ("_run_level0_batch",),
    **{f"sde.level{r}_{k}": ("_run_coupled_batch",)
       for r in range(1, MAX_LEVELS) for k in ("s", "steps")},
    "estimator.self_s": ("_run_level0_batch", "_run_coupled_batch"),
}


def layer_metrics(tracer: Tracer, workload, state, outputs,
                  traced_wall_s: float, untraced_wall_s: float,
                  micro: dict) -> tuple[dict, dict]:
    """Per-layer values and the reasons for the ones that are absent.

    A layer this workload does not run reads 0 (no calls, no time); a metric
    whose wrapper target is missing reads None and is listed in ``absent``.
    """
    st, cnt = tracer.stats, tracer.counts
    loop_self = sum(s.self for name, s in st.items()
                    if name.startswith("sde.level"))
    values = {
        "model.drift_self_s": st["model.drift"].self,
        "model.drift_calls": st["model.drift"].calls,
        "model.drift_rows_per_call": (
            cnt["model.drift_rows"] / st["model.drift"].calls
            if st["model.drift"].calls else 0),
        "model.build_s": st["model.build"].total,
        "sde.noise_self_s": st["sde.noise"].self,
        "sde.noise_calls": st["sde.noise"].calls,
        "sde.noise_normals": cnt["sde.noise_normals"],
        "sde.loop_self_s": loop_self,
        "sde.observable_self_s": st["sde.observable"].self,
        "sde.reduce_self_s": st["sde.reduce"].self,
        "estimator.self_s": st["estimator"].self,
        "tuning.plan_s": st["tuning.plan"].total,
        "warmstart.s": st["warmstart"].total,
        "diagnostics.reference_s": st["diagnostics.reference"].total,
        "diagnostics.contraction_s": st["diagnostics.contraction"].total,
        "diagnostics.confluence_s": st["diagnostics.confluence"].total,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        **micro,
    }
    for r in range(MAX_LEVELS):
        values[f"sde.level{r}_s"] = st[f"sde.level{r}"].total
        values[f"sde.level{r}_steps"] = cnt[f"sde.level{r}_steps"]
    if isinstance(workload, wl.EstimatorWorkload):
        values["estimator.grad_evals"] = sum(o.total_complexity
                                             for o in outputs)
        values["tuning.R"] = state.plan.R
        values["tuning.predicted_complexity"] = state.plan.predicted_complexity
        values["warmstart.iters"] = state.warm_iters or 0
    else:
        values.update({"estimator.grad_evals": 0, "tuning.R": 0,
                       "tuning.predicted_complexity": 0,
                       "warmstart.iters": 0})
    absent = {}
    for metric, needs in _NEEDS.items():
        gone = [tracer.missing[n] for n in needs if n in tracer.missing]
        if gone:
            values[metric] = None
            absent[metric] = "; ".join(gone)
    return values, absent
