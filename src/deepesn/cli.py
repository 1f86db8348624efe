"""Experiment runner: grid searches, equivalence checks, spectra, signal dumps.

Subcommands
    run          benchmark protocol (grid search or a single configuration)
    spectrum     layer-wise FFT analysis of reservoir states
    verify-flat  layered-vs-flat trajectory equivalence check
    signal       dump an MSO input sequence

Artifacts are plain delimited text with documented headers and contain no
timestamps, so identical configurations and seeds reproduce byte-identical
files, on any core count and at any ``OPENBLAS_NUM_THREADS``: threads and
BLAS follow the one rule of ``deepesn._native``.
Records are appended to ``results.partial.csv`` as they complete (crash-safe);
the final ``results.csv`` is written in canonical configuration order once the
sweep finishes. A single configuration is a one-point grid and takes the same path.

The analyses (``spectrum`` and ``verify-flat``) use a linear reservoir at
``ANALYSIS_POINT`` (input scale, leak rate, spectral radius) unless
``--scale-in``, ``--leak`` or ``--rho`` says otherwise. ``run``'s and
``spectrum``'s ``config.echo`` hold their parsed arguments; ``run --config``
replays one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import _native
from .flat import verify_equivalence
from .mso import (ConfigResult, ExperimentResult, GridSpec, MsoTask, SplitSpec, generate_mso,
                  grid_search)
from .reservoir import HyperParams, _guess_bytes, init_reservoir
from .spectral import SpectrumReport, SpikeMetrics, layer_spectra, spike_metrics

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


def _check_run(args: argparse.Namespace) -> None:
    """The rules of ``run`` that its parser cannot express.

    A grid sweeps every candidate, so it refuses the flags of a single point.
    A single point's leak rate and spectral radius are checked by the
    ``HyperParams`` its guesses are built from; ``GridSpec`` checks its
    input scale and lambda.
    """
    point = (("--scale-in", args.scale_in, GridSpec.input_scales),
             ("--leak", args.leak, GridSpec.leak_rates),
             ("--rho", args.rho, GridSpec.spectral_radii),
             ("--lambda", args.ridge_lambda, GridSpec.ridge_lambdas))
    given = [entry for entry in point if entry[1] is not None]
    if not args.single:
        if given:
            raise ValueError(f"a grid run sweeps every candidate; "
                             f"{', '.join(flag for flag, _, _ in given)} needs --single")
        return
    missing = [flag for flag, value, _ in point[:3] if value is None]  # --lambda may sweep
    if missing:
        raise ValueError(f"single mode requires {', '.join(missing)}")
    HyperParams(args.layers, args.units, leak_rate=args.leak, spectral_radius_target=args.rho)
    if not args.allow_custom:
        for flag, value, candidates in given:
            _require_in_domain(flag, value, candidates)


def _require_driven(command: str, scale_in: float) -> None:
    """An analysis needs input: at ``--scale-in 0`` every state is zero."""
    if not scale_in > 0:
        raise ValueError(f"{command} needs --scale-in > 0, got {scale_in}")


def _require_in_domain(name: str, value: float, candidates: Sequence[float]) -> None:
    if not any(math.isclose(value, c, rel_tol=1e-12) for c in candidates):
        raise ValueError(
            f"{name}={value} is outside the benchmark candidate list "
            f"{tuple(candidates)}; pass --allow-custom to override"
        )


def _model_dims(args: argparse.Namespace, model: str) -> tuple[int, int]:
    """Shallow runs use one layer with the same total unit budget."""
    if model == "shallow":
        return 1, args.layers * args.units
    return args.layers, args.units


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


def _grid_spec(args: argparse.Namespace, layers: int, units: int) -> GridSpec:
    """The full candidate grid, or the one point that single mode names."""
    grid = GridSpec(num_layers=layers, units_per_layer=units,
                    guesses=args.guesses, base_seed=args.seed)
    if not args.single:
        return grid
    lambdas = grid.ridge_lambdas if args.ridge_lambda is None else (args.ridge_lambda,)
    return dataclasses.replace(grid, input_scales=(args.scale_in,), leak_rates=(args.leak,),
                               spectral_radii=(args.rho,), ridge_lambdas=lambdas)


def run_experiment(args: argparse.Namespace) -> int:
    """Execute ``run`` with its parsed arguments and persist all artifacts.

    The arguments are written to ``config.echo``, which ``--config`` replays.
    The task and every model's grid are built, and so checked, before anything
    is written, and so is the rule that one guess (``_guess_bytes``) fits in
    half the physical memory.
    """
    _check_run(args)
    task = MsoTask(n=args.task)
    models = ("deep", "shallow") if args.model == "both" else (args.model,)
    dims = {model: _model_dims(args, model) for model in models}
    grids = {model: _grid_spec(args, *dims[model]) for model in models}
    for model, (layers, units) in dims.items():
        _native.require_half_memory(f"one {layers}x{units} guess of the {model} model",
                                    _guess_bytes(layers, units, task.length))

    out = args.out
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "config.echo"), vars(args))

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

    _write_summary(os.path.join(out, "summary.txt"), task, args, models, results)

    if any(results[m].selected is None for m in models):
        print("error: experiment: no configuration evaluated successfully",
              file=sys.stderr)
        return 1
    return 0


def _write_summary(path: str, task: MsoTask, args: argparse.Namespace,
                   models: Sequence[str], results: dict) -> None:
    lines = [f"task: mso{task.n}", f"mode: {'single' if args.single else 'grid'}",
             f"guesses: {args.guesses}", f"base_seed: {args.seed}", ""]
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

    header = f"{'task':<8}" + "".join(f"{'l-deepesn' if m == 'deep' else 'l-esn':>14}"
                                      for m in models)
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


def _write_json(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _analysis_params(args: argparse.Namespace) -> HyperParams:
    """The linear reservoir of ``spectrum`` and ``verify-flat``."""
    return HyperParams(args.layers, args.units, 1, args.scale_in, args.leak, args.rho,
                       seed=args.seed)


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


def _equivalence(task_n: int, params: HyperParams, steps: int, rel_tol: float) -> dict:
    """The ``equivalence.txt`` record of the layered-vs-flat check."""
    inputs, _ = _mso_signal(task_n, steps)
    report = verify_equivalence(init_reservoir(params), inputs, rel_tol)
    return {
        "max_abs_diff": report.max_abs_diff,
        "max_rel_diff": report.max_rel_diff,
        "pass": report.passed,
        "rel_tol": report.rel_tol,
        "steps": report.num_steps,
        "config": dataclasses.asdict(params),
    }


def _write_spectra(out: str, report: SpectrumReport, metrics: SpikeMetrics) -> None:
    """``spectra.csv`` (layer, frequency, magnitude) and ``spikes.csv`` (per layer)."""
    with open(os.path.join(out, "spectra.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "frequency", "magnitude"])
        for layer in range(report.num_layers):
            for freq, mag in zip(report.freq_bins, report.per_layer[layer]):
                writer.writerow([str(layer + 1), _format_float(freq), _format_float(mag)])
    with open(os.path.join(out, "spikes.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "filtering_ratio"]
                        + [f"spike_phi{k + 1}" for k in range(metrics.magnitudes.shape[1])])
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
    run_p.add_argument("--config", help="JSON object of flag values keyed as config.echo "
                       "writes them (an echo replays); flags given here win")
    _add_common(run_p)
    run_p.add_argument("--model", choices=("deep", "shallow", "both"), default="deep")
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument("--grid", action="store_true", help="full candidate-grid sweep (default)")
    mode.add_argument("--single", action="store_true",
                      help="one configuration; requires --scale-in, --leak, --rho")
    _add_point(run_p)
    run_p.add_argument("--lambda", type=float, dest="ridge_lambda",
                       help="one ridge value for --single (default: every candidate)")
    run_p.add_argument("--guesses", type=int, default=10)
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
    sig_p.add_argument("--out", required=True)
    return parser, run_p


def _config_flags(run_parser: argparse.ArgumentParser, record: object) -> list[str]:
    """A ``--config`` record, keyed as ``config.echo`` writes it, as ``run`` flags.

    A null value leaves its flag unset; an echo's ``command`` and ``config`` are
    checked and skipped, so an echo replays.
    """
    if not isinstance(record, dict):
        raise ValueError("the config file must hold a JSON object")
    actions = {action.dest: action for action in run_parser._actions}
    unknown = set(record) - set(actions) - {"command"}
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    if record.get("command", "run") != "run":
        raise ValueError(f"the config file is a {record['command']!r} echo, not a run's")
    flags = []
    for dest, value in record.items():
        if dest in ("command", "config", "help") or value is None:
            continue
        flag = actions[dest].option_strings[-1]
        if actions[dest].nargs == 0 and isinstance(value, bool):
            flags += [flag] if value else []
        else:  # argparse rejects a switch given a value
            flags.append(f"{flag}={value}")
    return flags


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse the command line; ``run --config`` puts the file's flags first.

    The whole command is then parsed once more, so a flag on the command line
    wins over the file and both pass the same type, choice and exclusion checks.
    """
    parser, run_parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "run" or not args.config:
        return args
    with open(args.config) as fh:
        record = json.load(fh)
    at = argv.index("run") + 1
    return parser.parse_args(argv[:at] + _config_flags(run_parser, record) + argv[at:])


def _spectrum(args: argparse.Namespace) -> int:
    """``layer_spectra`` of ``--guesses`` seeds from ``--seed`` on the MSO signal.

    ``layer_spectra`` checks the washout, the seeds and the memory rule
    before it simulates; the spikes are those of the task's frequencies.
    """
    _require_driven("spectrum", args.scale_in)  # zero states: every filtering ratio 0/0
    params = _analysis_params(args)
    u, phis = _mso_signal(args.task, args.length)
    report = layer_spectra(params, u, args.guesses, args.washout)
    metrics = spike_metrics(report, phis)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "config.echo"), vars(args))
    _write_spectra(args.out, report, metrics)
    return 0


def _verify_flat(args: argparse.Namespace) -> int:
    _require_driven("verify-flat", args.scale_in)  # zero states: every gap is 0, a pass
    dim = args.layers * args.units
    _native.require_half_memory(f"verify-flat's dense {dim}x{dim} flat matrix", 8 * dim * dim)
    params = _analysis_params(args)
    record = _equivalence(args.task, params, steps=args.steps, rel_tol=args.tol)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "equivalence.txt"), record)
    return 0 if record["pass"] else 1


def _signal(args: argparse.Namespace) -> int:
    signal, _ = _mso_signal(args.task, args.length)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "signal.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "value"])
        for t, value in enumerate(signal, start=1):
            writer.writerow([str(t), _format_float(value)])
    return 0


_COMMANDS = {"run": run_experiment, "spectrum": _spectrum, "verify-flat": _verify_flat,
             "signal": _signal}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        except SystemExit as exc:  # argparse: 0 after --help, 2 for a bad flag or value
            return exc.code
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
