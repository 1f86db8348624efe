import contextlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import deepesn as de
from deepesn import cli as cli_mod
from deepesn import _native, spectral
from deepesn import reservoir as rc
from deepesn.cli import ANALYSIS_POINT, _build_parser, _result_row, main


def read_lines(path):
    return path.read_text().splitlines()


def refuse(*args, **kwargs):
    raise AssertionError("nothing may be simulated")


# -------------------------------------------------------------------- signal

def test_signal_excerpt_rows(tmp_path):
    out = tmp_path / "sig"
    assert main(["signal", "--task", "mso12", "--length", "400",
                 "--out", str(out)]) == 0
    lines = read_lines(out / "signal.csv")
    assert lines[0] == "time,value"
    assert len(lines) == 401
    t, value = lines[1].split(",")
    assert t == "1"
    assert float(value) == pytest.approx(de.generate_mso(de.MsoTask(12))[0])


def test_short_signals_accepted(tmp_path):
    # only run uses the train/validation/test split; shorter signals are
    # prefixes of the default one, bit for bit
    assert main(["signal", "--task", "mso12", "--out", str(tmp_path / "full")]) == 0
    assert main(["signal", "--task", "mso12", "--length", "400",
                 "--out", str(tmp_path / "short")]) == 0
    full = read_lines(tmp_path / "full" / "signal.csv")
    assert read_lines(tmp_path / "short" / "signal.csv") == full[:401]
    assert main(["spectrum", "--task", "mso5", "--length", "600", "--layers", "2",
                 "--units", "3", "--guesses", "1", "--out", str(tmp_path / "spec")]) == 0
    assert main(["verify-flat", "--steps", "300", "--layers", "2", "--units", "3",
                 "--out", str(tmp_path / "eq")]) == 0
    assert main(["signal", "--length", "0", "--out", str(tmp_path / "empty")]) == 2


def test_signal_task_parsing(tmp_path):
    assert main(["signal", "--task", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["signal", "--task", "fourier", "--out", str(tmp_path / "b")]) == 2


# --------------------------------------------------------------- verify-flat

def test_verify_flat_small_config(tmp_path):
    out = tmp_path / "eq"
    code = main(["verify-flat", "--task", "mso5", "--layers", "3", "--units", "5",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "equivalence.txt").read_text())
    assert record["pass"] is True
    assert record["max_rel_diff"] <= record["rel_tol"]
    assert record["steps"] == 200
    assert record["config"]["num_layers"] == 3


def test_verify_flat_defaults_pass_at_depth(tmp_path):
    # at 10x100 the layer-10 states reach ~1e9 and absolute gaps ~1e-6; the
    # check is relative to each layer's state magnitude
    for seed in ("0", "1", "2"):
        out = tmp_path / seed
        assert main(["verify-flat", "--seed", seed, "--out", str(out)]) == 0
        record = json.loads((out / "equivalence.txt").read_text())
        assert record["max_rel_diff"] <= 1e-12


def test_verify_flat_files_do_not_depend_on_blas_threads(tmp_path):
    # verify-flat computes with OpenBLAS at one thread, as run and spectrum
    # do; at 3x300 the layered and the flat products round otherwise on two
    # threads (max_abs_diff 3.64e-12 at one thread against 3.87e-12 at two)
    threads = _native.threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    get_threads, set_threads = threads
    before = get_threads()
    files = {}
    try:
        for count in (1, 2):
            set_threads(count)
            out = tmp_path / str(count)
            assert main(["verify-flat", "--layers", "3", "--units", "300",
                         "--out", str(out)]) == 0
            assert get_threads() == count
            files[count] = (out / "equivalence.txt").read_bytes()
    finally:
        set_threads(before)
    assert files[1] == files[2]


def test_verify_flat_has_no_length(tmp_path):
    # --steps is the length of the checked signal
    assert main(["verify-flat", "--length", "300", "--out", str(tmp_path / "eq")]) == 2


# ----------------------------------------------------------------- run single

def test_run_single_mode_artifacts(tmp_path):
    out = tmp_path / "exp"
    code = main(["run", "--task", "mso5", "--single", "--scale-in", "1",
                 "--leak", "0.9", "--rho", "0.7", "--layers", "2", "--units", "5",
                 "--guesses", "2", "--lambda", "1e-4", "--out", str(out)])
    assert code == 0
    assert (out / "config.echo").exists()
    assert (out / "summary.txt").exists()
    assert not (out / "results.partial.csv").exists()
    lines = read_lines(out / "results.csv")
    assert len(lines) == 2  # header + one lambda row
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["task"] == "mso5"
    assert row["model"] == "deep"
    assert row["ridge_lambda"] == "0.0001"
    assert float(row["mean_test_nrmse"]) > 0
    assert "selected:" in (out / "summary.txt").read_text()


def test_single_row_matches_grid_record(tmp_path):
    # single mode is a one-point grid: at a non-unit input scale it reuses the
    # grid's scale-shared states, so its row equals the grid's bit for bit
    out = tmp_path / "one"
    assert main(["run", "--task", "mso5", "--single", "--scale-in", "0.1",
                 "--leak", "0.9", "--rho", "0.7", "--layers", "2", "--units", "4",
                 "--guesses", "2", "--seed", "5", "--out", str(out)]) == 0
    single_rows = read_lines(out / "results.csv")[1:]
    grid = de.GridSpec(num_layers=2, units_per_layer=4, leak_rates=(0.7, 0.9),
                       spectral_radii=(0.7,), guesses=2, base_seed=5)
    records = [r for r in de.grid_search(de.MsoTask(5), grid).records
               if (r.input_scale, r.leak_rate) == (0.1, 0.9)]
    assert len(single_rows) == len(records) == 12
    for line, rec in zip(single_rows, records):
        assert line.split(",") == _result_row(5, "deep", 2, 4, rec)


def test_run_single_requires_config_values(tmp_path, capsys):
    code = main(["run", "--task", "mso5", "--single", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "single mode requires" in capsys.readouterr().err


def test_run_rejects_off_grid_values(tmp_path, capsys):
    code = main(["run", "--task", "mso5", "--single", "--scale-in", "1",
                 "--leak", "0.65", "--rho", "0.7", "--layers", "1", "--units", "4",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "candidate list" in capsys.readouterr().err


def test_run_allow_custom_accepts_off_grid(tmp_path):
    code = main(["run", "--task", "mso5", "--single", "--scale-in", "1",
                 "--leak", "0.65", "--rho", "0.7", "--layers", "1", "--units", "4",
                 "--guesses", "1", "--lambda", "1e-4", "--allow-custom",
                 "--out", str(tmp_path / "x")])
    assert code == 0


def test_run_determinism_byte_identical(tmp_path):
    args = ["run", "--task", "mso5", "--single", "--scale-in", "0.1",
            "--leak", "0.9", "--rho", "0.7", "--layers", "2", "--units", "4",
            "--guesses", "2", "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("results.csv", "summary.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # config echoes differ only in the output directory
    echo_a = json.loads((out_a / "config.echo").read_text())
    echo_b = json.loads((out_b / "config.echo").read_text())
    echo_a.pop("out"), echo_b.pop("out")
    assert echo_a == echo_b


def test_run_shallow_model_dims(tmp_path):
    out = tmp_path / "sh"
    code = main(["run", "--task", "mso5", "--single", "--scale-in", "1",
                 "--leak", "1.0", "--rho", "0.7", "--layers", "2", "--units", "3",
                 "--guesses", "1", "--lambda", "1e-6", "--model", "shallow",
                 "--out", str(out)])
    assert code == 0
    row = read_lines(out / "results.csv")[1].split(",")
    header = read_lines(out / "results.csv")[0].split(",")
    rec = dict(zip(header, row))
    assert rec["model"] == "shallow"
    assert rec["num_layers"] == "1"
    assert rec["units_per_layer"] == "6"


def test_run_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": 5, "single": True, "scale_in": 1.0, "leak": 0.9, "rho": 0.7,
        "layers": 2, "units": 4, "guesses": 1, "ridge_lambda": 1e-6,
    }))
    out = tmp_path / "fromfile"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "config.echo").read_text())
    assert echo["single"] is True
    assert echo["guesses"] == 1
    assert "workers" not in echo


#: Flags ``run`` no longer has: the analyses are ``spectrum`` and ``verify-flat``,
#: and the split scores steps 1-1000 only.
REMOVED_RUN_FLAGS = ("--length", "--spectral-analysis", "--equivalence-check", "--washout")


@pytest.mark.parametrize("bad", [["--guesses", "0"], ["--layers", "0"], ["--units", "0"],
                                 ["--length", "1000"], ["--task", "mso13"],
                                 ["--spectral-analysis"], ["--equivalence-check"],
                                 ["--washout", "100"],
                                 ["--scale-in", "1"], ["--leak", "0.5"], ["--rho", "0.7"],
                                 ["--lambda", "1e-6", "--leak", "0.5"],
                                 ["--guesses", "2", "--seed", str(2 ** 64 - 1)]])
def test_run_rejects_bad_sizes_before_writing(tmp_path, capsys, monkeypatch, bad):
    # a grid sweeps every candidate, so it refuses a point it would ignore
    monkeypatch.setattr(cli_mod, "grid_search", refuse)
    out = tmp_path / "sizes"
    code = main(["run", "--grid", "--task", "mso5", "--layers", "1", "--units", "2",
                 "--guesses", "1", "--out", str(out)] + bad)  # the later flag wins
    assert code == 2
    removed = bad[0] in REMOVED_RUN_FLAGS
    assert ("unrecognized arguments" if removed else "error: config") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["--lambda=nan", "--lambda=-1e-8", "--lambda=inf",
                                 "--scale-in=-0.1", "--scale-in=nan"])
def test_run_rejects_bad_scale_or_lambda_before_writing(tmp_path, capsys, monkeypatch, bad):
    # every guess is built at unit scale, so the grid itself checks the input
    # scale and lambda; a NaN lambda would otherwise score the shallow model
    # as a zero predictor and fail the deep one
    monkeypatch.setattr(cli_mod, "grid_search", refuse)
    out = tmp_path / "point"
    code = main(["run", "--single", "--task", "mso5", "--scale-in", "0.1", "--leak", "0.9",
                 "--rho", "0.7", "--lambda", "1e-8", "--allow-custom", "--model", "both",
                 "--layers", "2", "--units", "2", "--guesses", "1", "--out", str(out), bad])
    assert code == 2
    assert "finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [["--leak", "1.5"], ["--leak", "0"], ["--leak", "nan"],
                                 ["--rho", "-1"], ["--rho", "inf"]])
def test_run_single_rejects_a_point_hyperparams_refuses(tmp_path, capsys, monkeypatch, bad):
    # the point's guesses could not be built, so the run refuses it before
    # writing, as spectrum and verify-flat do, rather than record it failed
    monkeypatch.setattr(cli_mod, "grid_search", refuse)
    out = tmp_path / "point"
    code = main(["run", "--single", "--task", "mso5", "--scale-in", "1", "--leak", "0.9",
                 "--rho", "0.7", "--allow-custom", "--layers", "2", "--units", "2",
                 "--guesses", "1", "--out", str(out), *bad])  # the later flag wins
    assert code == 2
    assert "error: config" in capsys.readouterr().err
    assert not out.exists()


def test_flat_check_refused_beyond_half_the_memory(tmp_path, capsys, monkeypatch):
    # 2 layers x 10 units flatten to a 20x20 matrix of 3200 bytes
    monkeypatch.setattr(cli_mod, "verify_equivalence", refuse)
    monkeypatch.setattr(_native, "_physical_memory", lambda: 2 * 3200 - 1)
    out = tmp_path / "flat"
    assert main(["verify-flat", "--layers", "2", "--units", "10", "--out", str(out)]) == 2
    assert "dense 20x20 flat matrix" in capsys.readouterr().err
    assert not out.exists()


def test_flat_check_runs_within_half_the_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(_native, "_physical_memory", lambda: 2 * 3200)
    out = tmp_path / "flat"
    assert main(["verify-flat", "--layers", "2", "--units", "10", "--out", str(out)]) == 0
    assert json.loads((out / "equivalence.txt").read_text())["pass"] is True


GUESS_ARGV = {
    # one 2x5 guess over 1000 steps; spectrum counts two layers' states whatever the depth
    "run": (["run", "--single", "--task", "mso5", "--scale-in", "1", "--leak", "0.9",
             "--rho", "0.7", "--layers", "2", "--units", "5", "--guesses", "1"],
            rc._guess_bytes(2, 5, 1000)),
    "spectrum": (["spectrum", "--layers", "3", "--units", "5", "--guesses", "1"],
                 rc._guess_bytes(2, 5, 1000)),
}


@pytest.mark.parametrize("command", sorted(GUESS_ARGV))
def test_guess_refused_beyond_half_the_memory(tmp_path, capsys, monkeypatch, command):
    argv, need = GUESS_ARGV[command]
    monkeypatch.setattr(cli_mod, "grid_search", refuse)
    monkeypatch.setattr(rc, "_solve_layers", refuse)
    monkeypatch.setattr(_native, "_physical_memory", lambda: 2 * need - 1)
    out = tmp_path / command
    assert main([*argv, "--out", str(out)]) == 2
    assert "guess" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(GUESS_ARGV))
def test_guess_runs_within_half_the_memory(tmp_path, monkeypatch, command):
    argv, need = GUESS_ARGV[command]
    monkeypatch.setattr(_native, "_physical_memory", lambda: 2 * need)
    out = tmp_path / command
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "config.echo").exists()


def test_run_has_no_worker_count(tmp_path, capsys):
    # the sweep's thread count follows the usable cores (taskset), not a flag
    assert main(["run", "--task", "mso5", "--workers", "2",
                 "--out", str(tmp_path / "flag")]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 1}))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "file")])
    assert code == 2
    assert "unknown fields ['workers']" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()


def test_main_returns_parser_exit_codes(tmp_path, capsys):
    # argparse's own exits come back as main's status, not as SystemExit
    assert main(["run", "--bogus", "--out", str(tmp_path / "bogus")]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["run", "--layers", "two", "--out", str(tmp_path / "bogus")]) == 2
    assert main(["run", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--allow-custom" in usage
    assert [flag for flag in REMOVED_RUN_FLAGS if flag in usage] == []
    assert not (tmp_path / "bogus").exists()


def test_run_config_file_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tusk": 5}))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "y")])
    assert code == 2
    assert "unknown fields" in capsys.readouterr().err
    cfg.write_text(json.dumps([5]))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


# ------------------------------------------------------------------- run grid

def test_run_analyses_default_to_analysis_point(tmp_path):
    # spectrum and verify-flat run at ANALYSIS_POINT unless told otherwise:
    # naming it changes no byte
    common = ["--task", "mso5", "--layers", "2", "--units", "3", "--seed", "4"]
    scale, leak, rho = (str(v) for v in ANALYSIS_POINT)
    point = ["--scale-in", scale, "--leak", leak, "--rho", rho]
    for name, flags in (("default", common), ("named", common + point)):
        assert main(["spectrum", "--guesses", "1", "--out", str(tmp_path / name)] + flags) == 0
        assert main(["verify-flat", "--out", str(tmp_path / name / "eq")] + flags) == 0
    default, named = tmp_path / "default", tmp_path / "named"
    for name in ("spectra.csv", "spikes.csv", "eq/equivalence.txt"):
        assert (default / name).read_bytes() == (named / name).read_bytes()
    config = json.loads((default / "eq" / "equivalence.txt").read_text())["config"]
    assert (config["input_scale"], config["leak_rate"],
            config["spectral_radius_target"]) == ANALYSIS_POINT


def test_run_grid_small_shallow(tmp_path):
    out = tmp_path / "grid"
    code = main(["run", "--task", "mso5", "--grid", "--layers", "1",
                 "--units", "6", "--guesses", "1", "--out", str(out)])
    assert code == 0
    lines = read_lines(out / "results.csv")
    assert len(lines) == 1 + 3 * 6 * 6 * 12
    summary = (out / "summary.txt").read_text()
    assert "selected:" in summary
    assert "l-deepesn" in summary


# -------------------------------------------------------------------- spectrum

def test_emit_spectrum_report_rows(tmp_path):
    # one (layer, frequency, magnitude) row per layer and rfft bin of the
    # 900-step window after the washout
    out = tmp_path / "spec"
    assert main(["spectrum", "--layers", "10", "--units", "1", "--guesses", "1",
                 "--out", str(out)]) == 0
    lines = read_lines(out / "spectra.csv")
    assert lines[0] == "layer,frequency,magnitude"
    assert len(lines) == 1 + 4510

def test_spectrum_command(tmp_path):
    out = tmp_path / "spec"
    code = main(["spectrum", "--task", "mso12", "--layers", "3", "--units", "8",
                 "--guesses", "2", "--out", str(out)])
    assert code == 0
    lines = read_lines(out / "spectra.csv")
    assert len(lines) == 1 + 3 * 451
    spikes = read_lines(out / "spikes.csv")
    assert spikes[0].startswith("layer,filtering_ratio,spike_phi1")
    assert len(spikes) == 4
    echo = json.loads((out / "config.echo").read_text())
    assert echo["command"] == "spectrum"
    assert (echo["scale_in"], echo["leak"], echo["rho"]) == ANALYSIS_POINT
    assert "mode" not in echo and "workers" not in echo


@pytest.mark.parametrize("cores", [1, 2])
def test_spectrum_files_match_a_serial_hand_loop(tmp_path, monkeypatch, cores):
    # the guesses run on run's pool and are added in guess order, so every
    # thread count writes the files of a serial reference: layer_spectra over
    # the states run gives for init_reservoir's reservoirs, one guess after
    # another (at 20 units OpenBLAS splits no product, so its thread count is
    # moot)
    monkeypatch.setattr(_native, "_usable_cores", lambda: cores)
    out = tmp_path / "pooled"
    assert main(["spectrum", "--task", "mso12", "--layers", "3", "--units", "20",
                 "--length", "400", "--washout", "50", "--guesses", "5", "--seed", "4",
                 "--out", str(out)]) == 0
    params = de.HyperParams(3, 20, 1, *ANALYSIS_POINT, seed=4)
    u = de.generate_mso(de.MsoTask(12))[:400]
    monkeypatch.setattr(spectral, "_guess_layers", lambda guess, inputs: iter(
        np.moveaxis(de.run(de.init_reservoir(guess), inputs), 1, 0)))
    monkeypatch.setattr(_native, "guess_map", lambda guesses: contextlib.nullcontext(map))
    report = de.layer_spectra(params, u, guesses=5, washout=50)
    hand = tmp_path / "hand"
    hand.mkdir()
    cli_mod._write_spectra(str(hand), report, de.spike_metrics(report, de.MsoTask(12).phis))
    for name in ("spectra.csv", "spikes.csv"):
        assert (out / name).read_bytes() == (hand / name).read_bytes()


def test_spectrum_files_do_not_depend_on_blas_threads(tmp_path):
    # the guesses run with OpenBLAS at one thread, as run's do; at 3x100 the
    # simulation's products split over two BLAS threads and round otherwise
    threads = _native.threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread-count setter")
    get_threads, set_threads = threads
    before = get_threads()
    files = {}
    try:
        for count in (1, 2):
            set_threads(count)
            out = tmp_path / str(count)
            assert main(["spectrum", "--layers", "3", "--units", "100", "--guesses", "2",
                         "--out", str(out)]) == 0
            assert get_threads() == count
            files[count] = [(out / name).read_bytes() for name in ("spectra.csv", "spikes.csv")]
    finally:
        set_threads(before)
    assert files[1] == files[2]


def test_spectrum_rejects_washout_before_simulating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(rc, "_solve_layers", refuse)
    out = tmp_path / "spec"
    code = main(["spectrum", "--guesses", "20", "--washout", "5000", "--out", str(out)])
    assert code == 2
    assert "washout" in capsys.readouterr().err
    assert not (out / "spectra.csv").exists()
    assert not (out / "config.echo").exists()


# ----------------------------------------------------------- run_experiment API

def test_run_experiment_rejects_bad_model(tmp_path):
    out = tmp_path / "x"
    assert main(["run", "--task", "mso5", "--model", "wide", "--out", str(out)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "wide"}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_run_experiment_single_api(tmp_path):
    out = tmp_path / "api"
    assert main(["run", "--task", "mso5", "--single", "--scale-in", "1.0", "--leak", "0.9",
                 "--rho", "0.7", "--layers", "1", "--units", "4", "--guesses", "1",
                 "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


def test_run_experiment_crash_keeps_partial_and_manifest(tmp_path, monkeypatch):
    # a worker crash mid-sweep must leave the streamed records on disk as
    # valid rows plus a failure manifest, and exit nonzero
    import dataclasses

    def exploding_grid_search(task, grid, on_result=None):
        small = dataclasses.replace(grid, input_scales=(1.0,), leak_rates=(0.9,),
                                    spectral_radii=(0.7,), guesses=1)
        for rec in de.grid_search(task, small).records[:3]:
            on_result(rec)
        raise RuntimeError("worker lost")

    monkeypatch.setattr(cli_mod, "grid_search", exploding_grid_search)
    out = tmp_path / "crash"
    assert main(["run", "--task", "mso5", "--grid", "--layers", "1", "--units", "4",
                 "--guesses", "1", "--out", str(out)]) == 1
    partial = read_lines(out / "results.partial.csv")
    assert len(partial) == 4  # header + 3 completed records
    assert all(len(line.split(",")) == len(partial[0].split(","))
               for line in partial[1:])
    assert "worker lost" in (out / "failures.txt").read_text()
    assert not (out / "results.csv").exists()


def test_run_with_every_configuration_failed_writes_its_failures(tmp_path, capsys):
    # at rho 50 every guess diverges: the one configuration is an error
    # record, so the run exits 1 after writing its failures and summary
    out = tmp_path / "diverged"
    assert main(["run", "--task", "mso5", "--single", "--scale-in", "1", "--leak", "0.9",
                 "--rho", "50", "--allow-custom", "--layers", "2", "--units", "5",
                 "--guesses", "2", "--out", str(out)]) == 1
    assert "no configuration evaluated successfully" in capsys.readouterr().err
    failures = read_lines(out / "failures.txt")
    assert len(failures) == 1
    assert failures[0].startswith("deep input_scale=1.0 leak_rate=0.9 spectral_radius=50.0: "
                                  "RuntimeError: non-finite reservoir states")
    summary = (out / "summary.txt").read_text()
    assert "  no configuration evaluated successfully" in summary
    assert "  failed configurations: 1" in summary
    assert not (out / "results.partial.csv").exists()
    assert len(read_lines(out / "results.csv")) == 2  # header and the error record


# ------------------------------------------------------------ config.echo replay

REPLAYED_RUNS = [
    ["--task", "mso5", "--grid", "--model", "both", "--layers", "3", "--units", "20",
     "--guesses", "2", "--seed", "42"],
    ["--task", "mso5", "--single", "--scale-in", "1", "--leak", "0.9", "--rho", "0.7",
     "--layers", "4", "--units", "30", "--guesses", "3", "--seed", "7"],
]


@pytest.mark.parametrize("flags", REPLAYED_RUNS)
def test_run_echo_replays_to_identical_files(tmp_path, flags):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["run", *flags, "--out", str(first)]) == 0
    echo = json.loads((first / "config.echo").read_text())
    _, run_parser = _build_parser()
    assert {a.dest for a in run_parser._actions} - {"help"} <= set(echo)
    assert main(["run", "--config", str(first / "config.echo"), "--out", str(replay)]) == 0
    for name in ("results.csv", "summary.txt"):
        assert (first / name).read_bytes() == (replay / name).read_bytes()
    replayed = json.loads((replay / "config.echo").read_text())
    assert replayed == {**echo, "out": str(replay), "config": str(first / "config.echo")}


@pytest.mark.parametrize("record,flags", [
    ({"guesses": 2.5}, []),
    ({"layers": True}, []),
    ({"model": "wide"}, []),
    ({"single": True}, ["--grid"]),
    ({"single": "yes"}, []),
    ({"command": "spectrum"}, []),
])
def test_run_config_values_are_checked_like_flags(tmp_path, monkeypatch, record, flags):
    monkeypatch.setattr(cli_mod, "grid_search", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": 5, "layers": 1, "units": 2, "guesses": 1,
                               "scale_in": 1.0, "leak": 0.9, "rho": 0.7, **record}))
    out = tmp_path / "bad"
    assert main(["run", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert not out.exists()


def test_run_flags_win_over_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": 5, "single": True, "scale_in": 1.0, "leak": 0.9,
                               "rho": 0.7, "layers": 1, "units": 3, "guesses": 3,
                               "ridge_lambda": 1e-6}))
    out = tmp_path / "win"
    assert main(["run", "--config", str(cfg), "--guesses", "1", "--units", "2",
                 "--out", str(out)]) == 0
    echo = json.loads((out / "config.echo").read_text())
    assert (echo["guesses"], echo["units"], echo["layers"]) == (1, 2, 1)
    assert "guesses: 1" in (out / "summary.txt").read_text()


# ------------------------------------------------------------ analysis commands

@pytest.mark.parametrize("argv", [
    ["spectrum", "--guesses", "0"],
    ["spectrum", "--layers", "0"],
    ["spectrum", "--units", "0"],
    ["verify-flat", "--steps", "0"],
    ["verify-flat", "--tol", "0"],
    ["verify-flat", "--layers", "0"],
    ["spectrum", "--scale-in", "0"],  # all-zero states: every filtering ratio 0/0
    ["verify-flat", "--scale-in", "0"],  # all-zero states: every gap 0, a vacuous pass
    ["spectrum", "--guesses", "2", "--seed", str(2 ** 64 - 1)],  # guess 1 has no seed
    ["verify-flat", "--tol", "inf"],  # would pass any gap
])
def test_analyses_reject_bad_values_before_writing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(rc, "_solve_layers", refuse)
    out = tmp_path / "analysis"
    assert main([*argv, "--out", str(out)]) == 2
    assert "error: config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--task", "mso5", "--layers", "3", "--units", "20", "--rho", "50",
     "--guesses", "2"],
    ["spectrum", "--task", "mso12", "--layers", "2", "--units", "3", "--scale-in", "1e300",
     "--guesses", "2"],  # layer 1 stays finite, layer 2 does not
    ["verify-flat", "--layers", "3", "--units", "20", "--rho", "50", "--steps", "1000"],
    ["verify-flat", "--layers", "2", "--units", "3", "--scale-in", "1e300"],
])
def test_analyses_refuse_divergent_states(tmp_path, capsys, argv):
    # spectra or gaps of a diverged reservoir say nothing: the analyses exit 1
    # and write nothing, and the error reports it, not numpy's warnings from
    # the pool threads
    out = tmp_path / "analysis"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 1
    assert "error: runtime: non-finite reservoir states" in capsys.readouterr().err
    assert not out.exists()


def _spectrum_peak(out, *flags) -> int:
    """tracemalloc's peak over one ``spectrum`` call with ``flags``."""
    tracemalloc.start()
    try:
        assert main(["spectrum", *flags, "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_holds_one_guess_at_a_time(tmp_path, monkeypatch):
    # each pool thread holds one guess, a layer at a time, and keeps only its
    # curves: ten guesses on two threads cost one guess more than one does,
    # two layers' states and one layer's spectra (about 3.7 layers' states
    # here; whole guesses held 10)
    monkeypatch.setattr(_native, "_usable_cores", lambda: 2)
    layers, units, length = 8, 20, 1000
    layer_bytes = length * units * 8

    def peak(guesses):
        return _spectrum_peak(tmp_path / str(guesses), "--layers", str(layers),
                              "--units", str(units), "--length", str(length),
                              "--guesses", str(guesses))

    peak(1)  # warm the caches and imports
    assert peak(10) < peak(1) + 5 * layer_bytes


def test_spectrum_guess_memory_does_not_grow_with_depth(tmp_path, monkeypatch):
    # a guess holds one layer's weights and the states of the layer being
    # solved and the one driving it, so eight layers peak within one layer's
    # states of two (whole guesses grew by six)
    monkeypatch.setattr(_native, "_usable_cores", lambda: 1)
    units, length = 50, 1000
    layer_bytes = length * units * 8

    def peak(layers):
        return _spectrum_peak(tmp_path / str(layers), "--layers", str(layers),
                              "--units", str(units), "--length", str(length),
                              "--guesses", "1")

    peak(2)  # warm the caches and imports
    assert peak(8) < peak(2) + layer_bytes


def test_spectrum_fails_mid_guess_on_an_unscalable_layer(tmp_path, capsys, monkeypatch):
    # a guess builds each layer when the one below is done, so layer 3's
    # failure comes after two layers are solved; nothing is written
    real_base, real_solve, solved = rc._recurrent_base, rc._solve_layers, []

    def no_layer_3(seed, layer, n_units, attempt):
        return None if layer == 3 else real_base(seed, layer, n_units, attempt)

    def counted(*args):
        for states in real_solve(*args):
            solved.append(states.shape)
            yield states

    monkeypatch.setattr(rc, "_recurrent_base", no_layer_3)
    monkeypatch.setattr(rc, "_solve_layers", counted)
    out = tmp_path / "spec"
    assert main(["spectrum", "--layers", "4", "--units", "5", "--guesses", "1",
                 "--out", str(out)]) == 1
    assert "error: runtime: layer 3" in capsys.readouterr().err
    assert solved == [(1000, 5)] * 2
    assert not out.exists()
