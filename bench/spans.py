"""Span recording around the package's public entry points, for traced runs.

A ``Tracer`` rebinds every attribute of the ``deepesn`` modules (and numpy's
dense eigenvalue solvers) that refers to a traced function, so callers that
imported a name directly are traced too.  ``uninstall`` puts the originals
back, which is how a traced run alternates traced and untraced units.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import tracemalloc

import numpy as np

#: Stage name -> (module, attribute) of the public functions doing that
#: stage's work.  Attributes a later version no longer has are skipped, so
#: every simulator entry point that exists is measured under one stage name.
STAGES = {
    "reservoir.init": [("deepesn.reservoir", "init_reservoir")],
    "reservoir.eig": [("numpy.linalg", "eigvals"), ("numpy.linalg", "eig")],
    "reservoir.simulate": [("deepesn.reservoir", "run"),
                           ("deepesn.reservoir", "run_batch")],
    "readout.fit": [("deepesn.readout", "fit_ridge_sweep"),
                    ("deepesn.readout", "fit_ridge")],
    "readout.predict": [("deepesn.readout", "predict")],
    "readout.nrmse": [("deepesn.readout", "nrmse")],
    "mso.grid": [("deepesn.mso", "grid_search"),
                 ("deepesn.mso", "evaluate_config")],
    "spectral.layer_spectra": [("deepesn.spectral", "layer_spectra")],
    "spectral.spike_metrics": [("deepesn.spectral", "spike_metrics")],
    "cli.main": [("deepesn.cli", "main")],
}


def _simulate_shape(args) -> tuple[int, int, int, int, int]:
    """(guesses, steps, layers, units, input_dim) of a run / run_batch call."""
    first = args[0]
    reservoirs = list(first) if isinstance(first, (list, tuple)) else [first]
    p = reservoirs[0].params
    steps = np.shape(args[1])[0]
    return len(reservoirs), steps, p.num_layers, p.units_per_layer, p.input_dim


class Tracer:
    """In-memory span recorder.  Spans are dicts; ``parent`` is an index."""

    def __init__(self):
        self.spans: list[dict] = []
        self.unit = None            # label copied onto every span recorded
        self.probe_memory = False   # tracemalloc the first simulate call
        self._local = threading.local()
        self._probed = False
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "deepesn" or name.startswith("deepesn.")]
        for stage, targets in STAGES.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules.get(mod_name), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(stage, original)
                owners = modules + [sys.modules[mod_name]]
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            self._patched.append((owner, name, original))
                            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, stage, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(tracer.spans[i]["stage"] == stage for i in stack):
                return fn(*args, **kwargs)  # e.g. fit_ridge -> fit_ridge_sweep
            span = {"stage": stage, "fn": fn.__name__, "unit": tracer.unit,
                    "parent": stack[-1] if stack else None}
            if stage == "reservoir.simulate":
                span["shape"] = _simulate_shape(args)
            probe = (stage == "reservoir.simulate" and tracer.probe_memory
                     and not tracer._probed)
            if probe:
                tracer._probed = True
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if probe:
                    span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                    if started:
                        tracemalloc.stop()
            if stage == "readout.fit":
                first = result[0] if isinstance(result, list) else result
                span["rank"] = int(first.rank)
                span["cols"] = int(min(np.shape(args[0])))
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_seconds(spans: list[dict], select) -> float:
    """Time inside the selected spans not covered by their direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return sum(s["end"] - s["start"] - child_time[i]
               for i, s in enumerate(spans) if select(s))


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(all_spans, traced, untraced) -> dict:
    """Per-layer metrics from the spans of the traced units.

    ``traced`` maps unit index -> UnitResult, ``untraced`` lists the units
    run without tracing.  Totals are divided by the guesses the traced units
    processed, so they repeat across run lengths.
    """
    ids = set(traced)
    guesses = sum(u.guesses for u in traced.values())
    per = 1.0 / guesses

    def pick(stage, units=ids):
        return [s for s in all_spans if s["stage"] == stage and s["unit"] in units]

    def total(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def self_time(prefix):
        return self_seconds(
            all_spans, lambda s: s["stage"].startswith(prefix) and s["unit"] in ids)

    sim = pick("reservoir.simulate")
    shapes = [s["shape"] for s in sim]
    updates = sum(g * t * n_l * n for g, t, n_l, n, _ in shapes)
    # Nominal multiply-adds per step: W_in u and What_1 x_1 in layer 1,
    # W_i x_{i-1} and What_i x_i in every higher layer; 2 flop each.
    flop = sum(2 * g * t * (n * d + n * n + (n_l - 1) * 2 * n * n)
               for g, t, n_l, n, d in shapes)
    fits = pick("readout.fit")
    fit_ms = [(s["end"] - s["start"]) * 1e3 for s in fits]
    score = pick("readout.predict") + pick("readout.nrmse")
    traced_samples = [x for u in traced.values() for x in u.samples]
    untraced_samples = [x for u in untraced for x in u.samples]
    pair_samples = [x for u in traced.values() if u.records for x in u.samples]
    firsts = [u.first_record_s for u in traced.values() if u.first_record_s is not None]
    values = {
        "reservoir.simulate_s": (total(sim) * per, "s/guess"),
        "reservoir.unit_updates": (updates * per, "count/guess"),
        "reservoir.simulate_gflop_per_s": (flop / total(sim) / 1e9 if sim else 0.0, "GFLOP/s"),
        "reservoir.simulate_peak_mb": (max((s["peak_mb"] for s in all_spans if "peak_mb" in s),
                                           default=0.0), "MB"),
        "reservoir.init_s": (total(pick("reservoir.init")) * per, "s/guess"),
        "reservoir.init_calls": (len(pick("reservoir.init")) * per, "count/guess"),
        "reservoir.eig_solves": (len(pick("reservoir.eig")) * per, "count/guess"),
        "reservoir.eig_s": (total(pick("reservoir.eig")) * per, "s/guess"),
        "setup.init_s": (total(pick("reservoir.init", {"setup"})), "s"),
        "setup.eig_solves": (len(pick("reservoir.eig", {"setup"})), "count"),
        "setup.eig_s": (total(pick("reservoir.eig", {"setup"})), "s"),
        "readout.fit_s": (total(fits) * per, "s/guess"),
        "readout.fits": (len(fits) * per, "count/guess"),
        "readout.fit_ms_p50": (_percentile(fit_ms, 50), "ms"),
        "readout.fit_ms_p90": (_percentile(fit_ms, 90), "ms"),
        "readout.score_s": (total(score) * per, "s/guess"),
        "readout.predict_calls": (len(pick("readout.predict")) * per, "count/guess"),
        "readout.rank_fraction": (float(np.mean([s["rank"] / s["cols"] for s in fits]))
                                  if fits else 0.0, "ratio"),
        "mso.self_s": (self_time("mso.") * per, "s/guess"),
        "mso.pair_s_p50": (_percentile(pair_samples, 50), "s"),
        "mso.records": (sum(u.records for u in traced.values()) * per, "count/guess"),
        "mso.first_record_s": (_percentile(firsts, 50), "s"),
        "spectral.layer_spectra_s": (total(pick("spectral.layer_spectra")) * per, "s/guess"),
        "spectral.spike_metrics_s": (total(pick("spectral.spike_metrics")) * per, "s/guess"),
        "cli.write_s": (self_time("cli.") * per, "s/guess"),
        "cli.bytes_written": (sum(u.bytes_written for u in traced.values()) * per, "B/guess"),
        "trace.overhead_pct": ((_percentile(traced_samples, 50)
                                / _percentile(untraced_samples, 50) - 1.0) * 100.0, "%"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
