"""Experiment runner: grid searches, equivalence checks, spectra, signal dumps.

Subcommands
    run          benchmark protocol (grid search or a single configuration)
    spectrum     layer-wise FFT analysis of reservoir states
    verify-flat  layered-vs-flat trajectory equivalence check
    signal       dump an MSO input sequence

Artifacts are plain delimited text with documented headers and contain no
timestamps, so identical configurations and seeds reproduce byte-identical
files. ``run`` sweeps each grid point's guesses on one thread per usable core
(``taskset``/``sched_setaffinity`` set which), at most ``--guesses``, with
numpy's OpenBLAS at one thread, so its files are the same for any core count
and BLAS setting; peak memory grows with the thread count, and ``taskset -c 0``
gives the low-memory run. The analyses run their guesses serially: their cold weight
initialisation is bound by dense eigenvalue solves, which do not speed up
across threads.
Records are appended to ``results.partial.csv`` as they complete (crash-safe);
the final ``results.csv`` is written in canonical configuration order once the
sweep finishes. A single configuration is a one-point grid and takes the same path.

The analyses (``spectrum``, ``verify-flat`` and ``run``'s
``--spectral-analysis``/``--equivalence-check``) use a linear reservoir at
``ANALYSIS_POINT`` (input scale, leak rate, spectral radius). ``--scale-in``,
``--leak`` and ``--rho`` override it; ``run``'s analyses fall back to it for
any of the three the run leaves unset. ``run``'s ``config.echo`` holds the
resolved ``ExperimentConfig``, ``spectrum``'s its parsed arguments.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .flat import verify_equivalence
from .mso import (ConfigResult, ExperimentResult, GridSpec, MsoTask, SplitSpec, generate_mso,
                  grid_search)
from .reservoir import HyperParams, init_reservoir, run
from .spectral import layer_spectra, spike_metrics

_RESULT_COLUMNS = (
    "task", "model", "num_layers", "units_per_layer", "input_scale",
    "leak_rate", "spectral_radius", "ridge_lambda", "mean_val_nrmse",
    "std_val_nrmse", "mean_test_nrmse", "std_test_nrmse",
    "per_guess_val", "per_guess_test", "error",
)

#: Input scale, leak rate and spectral radius of the analyses (see above).
ANALYSIS_POINT = (1.0, 0.9, 0.7)
#: Largest layered-vs-flat gap the equivalence check accepts, relative to each
#: layer's state magnitude; rounding alone stays near 2e-15 at 10x100.
EQUIVALENCE_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one ``run`` invocation."""

    task_n: int
    out_dir: str
    length: int = 1000
    model: str = "deep"              # deep | shallow | both
    mode: str = "grid"               # grid | single
    num_layers: int = 10
    units_per_layer: int = 100
    input_scale: Optional[float] = None
    leak_rate: Optional[float] = None
    spectral_radius: Optional[float] = None
    ridge_lambda: Optional[float] = None
    guesses: int = 10
    base_seed: int = 0
    equivalence_check: bool = False
    spectral_analysis: bool = False
    washout: int = 100
    allow_custom: bool = False

    def __post_init__(self):
        if self.model not in ("deep", "shallow", "both"):
            raise ValueError(f"model must be deep, shallow or both, got {self.model!r}")
        if self.mode not in ("grid", "single"):
            raise ValueError(f"mode must be grid or single, got {self.mode!r}")
        if self.mode == "single":
            missing = [name for name, value in (
                ("input_scale", self.input_scale),
                ("leak_rate", self.leak_rate),
                ("spectral_radius", self.spectral_radius),
            ) if value is None]
            if missing:
                raise ValueError(f"single mode requires {', '.join(missing)}")
            if not self.allow_custom:
                _require_in_domain("input_scale", self.input_scale, GridSpec.input_scales)
                _require_in_domain("leak_rate", self.leak_rate, GridSpec.leak_rates)
                _require_in_domain("spectral_radius", self.spectral_radius,
                                   GridSpec.spectral_radii)
                if self.ridge_lambda is not None:
                    _require_in_domain("ridge_lambda", self.ridge_lambda,
                                       GridSpec.ridge_lambdas)
        if self.spectral_analysis:
            _require_analysis_window(self.washout, self.length)


def _require_analysis_window(washout: int, length: int) -> None:
    if not 0 <= washout <= length - 2:
        raise ValueError(f"spectral analysis needs 0 <= washout <= length - 2 (at least "
                         f"2 analysis steps), got washout={washout}")


def _require_in_domain(name: str, value: float, candidates: Sequence[float]) -> None:
    if not any(math.isclose(value, c, rel_tol=1e-12) for c in candidates):
        raise ValueError(
            f"{name}={value} is outside the benchmark candidate list "
            f"{tuple(candidates)}; pass --allow-custom to override"
        )


def _model_dims(config: ExperimentConfig, model: str) -> tuple[int, int]:
    """Shallow runs use one layer with the same total unit budget."""
    if model == "shallow":
        return 1, config.num_layers * config.units_per_layer
    return config.num_layers, config.units_per_layer


def _format_float(x: float) -> str:
    return repr(float(x))


def _result_row(task_n: int, model: str, layers: int, units: int,
                rec: ConfigResult) -> list[str]:
    return [
        f"mso{task_n}", model, str(layers), str(units),
        _format_float(rec.input_scale), _format_float(rec.leak_rate),
        _format_float(rec.spectral_radius), _format_float(rec.ridge_lambda),
        _format_float(rec.mean_val_nrmse), _format_float(rec.std_val_nrmse),
        _format_float(rec.mean_test_nrmse), _format_float(rec.std_test_nrmse),
        ";".join(_format_float(v) for v in rec.per_guess_val),
        ";".join(_format_float(v) for v in rec.per_guess_test),
        rec.error or "",
    ]


def _grid_spec(config: ExperimentConfig, layers: int, units: int) -> GridSpec:
    """The full candidate grid, or the one point that single mode names."""
    grid = GridSpec(num_layers=layers, units_per_layer=units,
                    guesses=config.guesses, base_seed=config.base_seed)
    if config.mode == "grid":
        return grid
    lambdas = grid.ridge_lambdas if config.ridge_lambda is None else (config.ridge_lambda,)
    return dataclasses.replace(grid, input_scales=(config.input_scale,),
                               leak_rates=(config.leak_rate,),
                               spectral_radii=(config.spectral_radius,),
                               ridge_lambdas=lambdas)


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the configured pipeline and persist all artifacts.

    The task, every model's grid and the analyses' reservoir are built, and so
    checked, before anything is written.
    """
    task = MsoTask(n=config.task_n, length=config.length)
    models = ("deep", "shallow") if config.model == "both" else (config.model,)
    dims = {model: _model_dims(config, model) for model in models}
    grids = {model: _grid_spec(config, *dims[model]) for model in models}
    if config.equivalence_check or config.spectral_analysis:
        params = _analysis_params(*dims[models[0]], config.base_seed, config.input_scale,
                                  config.leak_rate, config.spectral_radius)

    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "config.echo"), dataclasses.asdict(config))

    partial_path = os.path.join(out, "results.partial.csv")
    results: dict[str, ExperimentResult] = {}
    try:
        with open(partial_path, "w", newline="") as partial:
            writer = csv.writer(partial)
            writer.writerow(_RESULT_COLUMNS)
            for model, (layers, units) in dims.items():

                def stream(rec, model=model, layers=layers, units=units):
                    writer.writerow(_result_row(task.n, model, layers, units, rec))
                    partial.flush()

                results[model] = grid_search(task, grids[model], on_result=stream)
    except Exception as exc:
        with open(os.path.join(out, "failures.txt"), "w") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")
        print(f"error: experiment: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(out, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_COLUMNS)
        for model, (layers, units) in dims.items():
            for rec in results[model].records:
                writer.writerow(_result_row(task.n, model, layers, units, rec))
    os.remove(partial_path)

    failures = sum(r.failures for r in results.values())
    if failures:
        with open(os.path.join(out, "failures.txt"), "w") as fh:
            for model in models:
                for rec in results[model].records:
                    if rec.error is not None:
                        fh.write(f"{model} input_scale={rec.input_scale} "
                                 f"leak_rate={rec.leak_rate} "
                                 f"spectral_radius={rec.spectral_radius}: {rec.error}\n")

    _write_summary(os.path.join(out, "summary.txt"), task, config, models, results)

    if config.equivalence_check:
        _write_equivalence(os.path.join(out, "equivalence.txt"), task.n, params)
    if config.spectral_analysis:
        _write_spectra(out, task.n, config.length, params, config.guesses, config.washout)

    if any(results[m].selected is None for m in models):
        print("error: experiment: no configuration evaluated successfully",
              file=sys.stderr)
        return 1
    return 0


def _write_summary(path: str, task: MsoTask, config: ExperimentConfig,
                   models: Sequence[str], results: dict) -> None:
    lines = [f"task: mso{task.n}", f"mode: {config.mode}",
             f"guesses: {config.guesses}", f"base_seed: {config.base_seed}", ""]
    for model in models:
        res = results[model]
        lines.append(f"model {model} ({res.num_layers} layers x "
                     f"{res.units_per_layer} units):")
        if res.selected is None:
            lines.append("  no configuration evaluated successfully")
        else:
            sel = res.selected
            lines.append(
                f"  selected: input_scale={sel.input_scale} leak_rate={sel.leak_rate} "
                f"spectral_radius={sel.spectral_radius} ridge_lambda={sel.ridge_lambda:g}")
            lines.append(f"  mean validation NRMSE: {sel.mean_val_nrmse:.6e}"
                         f" (std {sel.std_val_nrmse:.3e})")
            lines.append(f"  mean test NRMSE:       {sel.mean_test_nrmse:.6e}"
                         f" (std {sel.std_test_nrmse:.3e})")
        if res.failures:
            lines.append(f"  failed configurations: {res.failures}")
        lines.append("")

    header = f"{'task':<8}" + "".join(f"{_column_title(m):>14}" for m in models)
    lines.append("test NRMSE (selected configuration)")
    lines.append(header)
    row = f"mso{task.n:<5}"
    for model in models:
        sel = results[model].selected
        row += f"{sel.mean_test_nrmse:>14.3e}" if sel else f"{'-':>14}"
    lines.append(row)
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _column_title(model: str) -> str:
    return "l-deepesn" if model == "deep" else "l-esn"


def _write_json(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _analysis_params(layers: int, units: int, seed: int, input_scale: Optional[float],
                     leak_rate: Optional[float], spectral_radius: Optional[float]) -> HyperParams:
    """The linear reservoir of the analyses; unset values come from ANALYSIS_POINT."""
    point = (input_scale, leak_rate, spectral_radius)
    return HyperParams(layers, units, 1,
                       *(d if v is None else v for v, d in zip(point, ANALYSIS_POINT)),
                       "linear", seed)


def _mso_signal(task_n: int, length: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """The first ``length`` steps of the MSO signal, and its frequencies.

    Only ``run`` uses the train/validation/test split, so shorter signals
    are cut from one of split length: every sample is computed on its own,
    so the cut equals the shorter signal bit for bit.
    """
    if length < 1:
        raise ValueError(f"signal length must be >= 1, got {length}")
    task = MsoTask(n=task_n, length=max(length, SplitSpec().required_length))
    return generate_mso(task)[:length], task.phis


def _write_equivalence(path: str, task_n: int, params: HyperParams, steps: int = 200,
                       rel_tol: float = EQUIVALENCE_REL_TOL) -> bool:
    inputs, _ = _mso_signal(task_n, steps)
    report = verify_equivalence(init_reservoir(params), inputs, rel_tol)
    _write_json(path, {
        "max_abs_diff": report.max_abs_diff,
        "max_rel_diff": report.max_rel_diff,
        "pass": report.passed,
        "rel_tol": report.rel_tol,
        "steps": report.num_steps,
        "config": dataclasses.asdict(params),
    })
    return report.passed


def _write_spectra(out: str, task_n: int, length: int, params: HyperParams, guesses: int,
                   washout: int) -> None:
    """``spectra.csv`` (layer, frequency, magnitude) and ``spikes.csv`` (per layer)."""
    u, phis = _mso_signal(task_n, length)
    trajectories = [run(init_reservoir(dataclasses.replace(params, seed=params.seed + g)), u)
                    for g in range(guesses)]
    report = layer_spectra(trajectories, washout, params=params)
    with open(os.path.join(out, "spectra.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "frequency", "magnitude"])
        for layer in range(report.num_layers):
            for freq, mag in zip(report.freq_bins, report.per_layer[layer]):
                writer.writerow([str(layer + 1), _format_float(freq), _format_float(mag)])
    metrics = spike_metrics(report, phis)
    with open(os.path.join(out, "spikes.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "filtering_ratio"]
                        + [f"spike_phi{k + 1}" for k in range(len(phis))])
        for layer in range(report.num_layers):
            writer.writerow([str(layer + 1), _format_float(metrics.filtering_ratio[layer])]
                            + [_format_float(v) for v in metrics.magnitudes[layer]])


def _parse_task(text: str) -> int:
    label = text.lower().lstrip()
    if label.startswith("mso"):
        label = label[3:]
    try:
        return int(label)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"task must look like mso5 or a plain integer, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", type=_parse_task, default=12,
                        help="MSO task, e.g. mso5 (default mso12)")
    parser.add_argument("--layers", type=int, default=10)
    parser.add_argument("--units", type=int, default=100,
                        help="units per layer")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output directory")


def _add_point(parser: argparse.ArgumentParser,
               defaults: Sequence[Optional[float]] = (None, None, None)) -> None:
    for flag, dest, default in zip(("--scale-in", "--leak", "--rho"),
                                   ("scale_in", "leak", "rho"), defaults):
        parser.add_argument(flag, type=float, dest=dest, default=default)


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(prog="deepesn",
                                     description="deep echo state network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="benchmark protocol (grid or single config)")
    run_p.add_argument("--config", help="JSON file providing defaults for any flag")
    _add_common(run_p)
    run_p.add_argument("--length", type=int, default=1000)
    run_p.add_argument("--model", choices=("deep", "shallow", "both"), default="deep")
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument("--grid", action="store_true", help="full candidate-grid sweep (default)")
    mode.add_argument("--single", action="store_true",
                      help="one configuration; requires --scale-in, --leak, --rho")
    _add_point(run_p)
    run_p.add_argument("--lambda", type=float, dest="ridge_lambda",
                       help="single ridge value (default: sweep the full grid)")
    run_p.add_argument("--guesses", type=int, default=10)
    run_p.add_argument("--equivalence-check", action="store_true")
    run_p.add_argument("--spectral-analysis", action="store_true")
    run_p.add_argument("--washout", type=int, default=100)
    run_p.add_argument("--allow-custom", action="store_true",
                       help="accept values outside the benchmark candidate lists")

    spec_p = sub.add_parser("spectrum", help="layer-wise FFT analysis")
    _add_common(spec_p)
    spec_p.add_argument("--length", type=int, default=1000)
    _add_point(spec_p, ANALYSIS_POINT)
    spec_p.add_argument("--guesses", type=int, default=100)
    spec_p.add_argument("--washout", type=int, default=100)

    ver_p = sub.add_parser("verify-flat", help="layered vs flat equivalence check")
    _add_common(ver_p)
    _add_point(ver_p, ANALYSIS_POINT)
    ver_p.add_argument("--steps", type=int, default=200, help="signal length checked")
    ver_p.add_argument("--tol", type=float, default=EQUIVALENCE_REL_TOL,
                       help="largest gap relative to each layer's state magnitude")

    sig_p = sub.add_parser("signal", help="dump the MSO input sequence")
    sig_p.add_argument("--task", type=_parse_task, default=12)
    sig_p.add_argument("--length", type=int, default=1000)
    sig_p.add_argument("--excerpt", type=int, default=None,
                       help="only the first N steps")
    sig_p.add_argument("--out", required=True)
    return parser, run_p


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    mode = "single" if args.single else "grid"
    return ExperimentConfig(
        task_n=args.task, out_dir=args.out, length=args.length,
        model=args.model, mode=mode, num_layers=args.layers,
        units_per_layer=args.units, input_scale=args.scale_in,
        leak_rate=args.leak, spectral_radius=args.rho,
        ridge_lambda=args.ridge_lambda, guesses=args.guesses,
        base_seed=args.seed,
        equivalence_check=args.equivalence_check,
        spectral_analysis=args.spectral_analysis, washout=args.washout,
        allow_custom=args.allow_custom,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, run_parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "run" and args.config:
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return 2
        unknown = set(defaults) - {a.dest for a in run_parser._actions}
        if unknown:
            print(f"error: config: unknown fields {sorted(unknown)}", file=sys.stderr)
            return 2
        run_parser.set_defaults(**defaults)
        args = parser.parse_args(argv)

    try:
        if args.command == "run":
            return run_experiment(_config_from_args(args))
        if args.command == "spectrum":
            _require_analysis_window(args.washout, args.length)
        if args.command in ("spectrum", "verify-flat"):
            os.makedirs(args.out, exist_ok=True)
            params = _analysis_params(args.layers, args.units, args.seed, args.scale_in,
                                      args.leak, args.rho)
        if args.command == "spectrum":
            _write_json(os.path.join(args.out, "config.echo"), vars(args))
            _write_spectra(args.out, args.task, args.length, params, args.guesses,
                           args.washout)
            return 0
        if args.command == "verify-flat":
            passed = _write_equivalence(os.path.join(args.out, "equivalence.txt"), args.task,
                                        params, steps=args.steps, rel_tol=args.tol)
            return 0 if passed else 1
        if args.command == "signal":
            if args.excerpt is not None and args.excerpt < 1:
                raise ValueError(f"excerpt must be >= 1, got {args.excerpt}")
            os.makedirs(args.out, exist_ok=True)
            signal, _ = _mso_signal(args.task, args.length)
            if args.excerpt is not None:
                signal = signal[: args.excerpt]
            with open(os.path.join(args.out, "signal.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["time", "value"])
                for t, value in enumerate(signal, start=1):
                    writer.writerow([str(t), _format_float(value)])
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
