"""Experiment runner: grid searches, equivalence checks, spectra, signal dumps.

Subcommands
    run          benchmark protocol (grid search or a single configuration)
    spectrum     layer-wise FFT analysis of reservoir states
    verify-flat  layered-vs-flat trajectory equivalence check
    signal       dump an MSO input sequence

Artifacts are plain delimited text with documented headers and contain no
timestamps, so identical configurations and seeds reproduce byte-identical
files for the same BLAS thread count. Records are appended to
``results.partial.csv`` as they complete (crash-safe); the final
``results.csv`` is written in canonical configuration order once the sweep
finishes. A single configuration is a one-point grid and takes the same path.
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
from .mso import ConfigResult, ExperimentResult, GridSpec, MsoTask, generate_mso, grid_search
from .reservoir import HyperParams, init_reservoir, run
from .spectral import SpectrumReport, layer_spectra, spike_metrics

_RESULT_COLUMNS = (
    "task", "model", "num_layers", "units_per_layer", "input_scale",
    "leak_rate", "spectral_radius", "ridge_lambda", "mean_val_nrmse",
    "std_val_nrmse", "mean_test_nrmse", "std_test_nrmse",
    "per_guess_val", "per_guess_test", "error",
)


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
    workers: int = 1
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
    """Execute the configured pipeline and persist all artifacts."""
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.echo"), "w") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")

    task = MsoTask(n=config.task_n, length=config.length)
    models = ("deep", "shallow") if config.model == "both" else (config.model,)

    partial_path = os.path.join(out, "results.partial.csv")
    results: dict[str, ExperimentResult] = {}
    try:
        with open(partial_path, "w", newline="") as partial:
            writer = csv.writer(partial)
            writer.writerow(_RESULT_COLUMNS)
            for model in models:
                layers, units = _model_dims(config, model)

                def stream(rec, model=model, layers=layers, units=units):
                    writer.writerow(_result_row(task.n, model, layers, units, rec))
                    partial.flush()

                results[model] = grid_search(task, _grid_spec(config, layers, units),
                                             workers=config.workers, on_result=stream)
    except Exception as exc:
        with open(os.path.join(out, "failures.txt"), "w") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")
        print(f"error: experiment: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(out, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_COLUMNS)
        for model in models:
            layers, units = _model_dims(config, model)
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
        layers, units = _model_dims(config, models[0])
        _write_equivalence(os.path.join(out, "equivalence.txt"), task, config,
                           layers, units)

    if config.spectral_analysis:
        layers, units = _model_dims(config, models[0])
        report = _compute_spectra(task, config, layers, units)
        emit_plot_data(report, os.path.join(out, "spectra.csv"))
        _write_spike_table(os.path.join(out, "spikes.csv"), report, task.phis)

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


def _write_equivalence(path: str, task: MsoTask, config: ExperimentConfig,
                       layers: int, units: int, steps: int = 200,
                       abs_tol: float = 1e-8) -> bool:
    params = HyperParams(layers, units, 1,
                         config.input_scale if config.input_scale is not None else 1.0,
                         config.leak_rate if config.leak_rate is not None else 0.9,
                         config.spectral_radius if config.spectral_radius is not None else 0.7,
                         "linear", config.base_seed)
    inputs = generate_mso(task)[:steps]
    report = verify_equivalence(init_reservoir(params), inputs, abs_tol)
    record = {
        "max_abs_diff": report.max_abs_diff,
        "pass": report.passed,
        "abs_tol": report.abs_tol,
        "steps": report.num_steps,
        "config": dataclasses.asdict(params),
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report.passed


def _compute_spectra(task: MsoTask, config: ExperimentConfig, layers: int,
                     units: int) -> SpectrumReport:
    params = HyperParams(layers, units, 1,
                         config.input_scale if config.input_scale is not None else 1.0,
                         config.leak_rate if config.leak_rate is not None else 0.9,
                         config.spectral_radius if config.spectral_radius is not None else 0.7,
                         "linear", 0)
    u = generate_mso(task)
    trajectories = [run(init_reservoir(dataclasses.replace(params, seed=config.base_seed + g)), u)
                    for g in range(config.guesses)]
    return layer_spectra(trajectories, config.washout, params=params)


def _write_spike_table(path: str, report: SpectrumReport,
                       phis: Sequence[float]) -> None:
    metrics = spike_metrics(report, phis)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "filtering_ratio"]
                        + [f"spike_phi{k + 1}" for k in range(len(phis))])
        for layer in range(report.num_layers):
            writer.writerow([str(layer + 1), _format_float(metrics.filtering_ratio[layer])]
                            + [_format_float(v) for v in metrics.magnitudes[layer]])


def emit_plot_data(artifact, path) -> None:
    """Write plot-ready delimited text for a spectrum report or a signal.

    Spectrum reports become (layer, frequency, magnitude) rows; 1-D arrays
    become (time, value) rows with time starting at 1.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(artifact, SpectrumReport):
            writer.writerow(["layer", "frequency", "magnitude"])
            for layer in range(artifact.per_layer.shape[0]):
                for freq, mag in zip(artifact.freq_bins, artifact.per_layer[layer]):
                    writer.writerow([str(layer + 1), _format_float(freq),
                                     _format_float(mag)])
        elif isinstance(artifact, np.ndarray) and artifact.ndim == 1:
            writer.writerow(["time", "value"])
            for t, value in enumerate(artifact, start=1):
                writer.writerow([str(t), _format_float(value)])
        else:
            raise TypeError(f"cannot emit plot data for {type(artifact).__name__}")


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
    parser.add_argument("--length", type=int, default=1000)
    parser.add_argument("--layers", type=int, default=10)
    parser.add_argument("--units", type=int, default=100,
                        help="units per layer")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output directory")


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    parser = argparse.ArgumentParser(prog="deepesn",
                                     description="deep echo state network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="benchmark protocol (grid or single config)")
    run_p.add_argument("--config", help="JSON file providing defaults for any flag")
    _add_common(run_p)
    run_p.add_argument("--model", choices=("deep", "shallow", "both"), default="deep")
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument("--grid", action="store_true", help="full candidate-grid sweep (default)")
    mode.add_argument("--single", action="store_true",
                      help="one configuration; requires --scale-in, --leak, --rho")
    run_p.add_argument("--scale-in", type=float, dest="scale_in")
    run_p.add_argument("--leak", type=float)
    run_p.add_argument("--rho", type=float)
    run_p.add_argument("--lambda", type=float, dest="ridge_lambda",
                       help="single ridge value (default: sweep the full grid)")
    run_p.add_argument("--guesses", type=int, default=10)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--equivalence-check", action="store_true")
    run_p.add_argument("--spectral-analysis", action="store_true")
    run_p.add_argument("--washout", type=int, default=100)
    run_p.add_argument("--allow-custom", action="store_true",
                       help="accept values outside the benchmark candidate lists")

    spec_p = sub.add_parser("spectrum", help="layer-wise FFT analysis")
    _add_common(spec_p)
    spec_p.add_argument("--scale-in", type=float, dest="scale_in", default=1.0)
    spec_p.add_argument("--leak", type=float, default=0.9)
    spec_p.add_argument("--rho", type=float, default=0.7)
    spec_p.add_argument("--guesses", type=int, default=100)
    spec_p.add_argument("--washout", type=int, default=100)

    ver_p = sub.add_parser("verify-flat", help="layered vs flat equivalence check")
    _add_common(ver_p)
    ver_p.add_argument("--scale-in", type=float, dest="scale_in", default=1.0)
    ver_p.add_argument("--leak", type=float, default=0.9)
    ver_p.add_argument("--rho", type=float, default=0.7)
    ver_p.add_argument("--steps", type=int, default=200)
    ver_p.add_argument("--tol", type=float, default=1e-8)

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
        base_seed=args.seed, workers=args.workers,
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
            os.makedirs(args.out, exist_ok=True)
            config = ExperimentConfig(
                task_n=args.task, out_dir=args.out, length=args.length,
                num_layers=args.layers, units_per_layer=args.units,
                input_scale=args.scale_in, leak_rate=args.leak,
                spectral_radius=args.rho, guesses=args.guesses,
                base_seed=args.seed, washout=args.washout, allow_custom=True,
            )
            task = MsoTask(n=config.task_n, length=config.length)
            with open(os.path.join(args.out, "config.echo"), "w") as fh:
                json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
                fh.write("\n")
            report = _compute_spectra(task, config, args.layers, args.units)
            emit_plot_data(report, os.path.join(args.out, "spectra.csv"))
            _write_spike_table(os.path.join(args.out, "spikes.csv"), report, task.phis)
            return 0
        if args.command == "verify-flat":
            os.makedirs(args.out, exist_ok=True)
            task = MsoTask(n=args.task, length=max(args.length, args.steps))
            config = ExperimentConfig(
                task_n=args.task, out_dir=args.out, num_layers=args.layers,
                units_per_layer=args.units, input_scale=args.scale_in,
                leak_rate=args.leak, spectral_radius=args.rho,
                base_seed=args.seed, allow_custom=True,
            )
            passed = _write_equivalence(os.path.join(args.out, "equivalence.txt"),
                                        task, config, args.layers, args.units,
                                        steps=args.steps, abs_tol=args.tol)
            return 0 if passed else 1
        if args.command == "signal":
            os.makedirs(args.out, exist_ok=True)
            signal = generate_mso(MsoTask(n=args.task, length=args.length))
            if args.excerpt is not None:
                signal = signal[: args.excerpt]
            emit_plot_data(signal, os.path.join(args.out, "signal.csv"))
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
