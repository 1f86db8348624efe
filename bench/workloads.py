"""The three workloads, each driven through the package's public API.

A workload has three phases: ``setup`` (cold work that later units reuse),
``unit`` (one timed round of the same operations) and ``check`` (correctness,
outside every timed region).  A unit returns throughput samples: seconds per
sample and the guesses each sample stands for.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field

import deepesn as de
import deepesn.cli

import checks

#: (leak, rho) candidates of the grid workloads: two of the benchmark's 36,
#: including the pair the paper reports, (0.9, 0.7).
LEAK_RATES = (0.7, 0.9)
SPECTRAL_RADII = (0.7,)
#: Guesses per (leak, rho) pair, as in the acceptance suite.
GUESSES = 10
#: The oracle recomputes one guess of this configuration directly at a
#: non-unit input scale, so the package's scale-sharing shortcut is checked.
ORACLE_PAIR = (0.9, 0.7)
ORACLE_SCALE = 0.1
ORACLE_LAMBDA = 1.0
#: Reservoirs per ``deepesn spectrum`` call.  A short call gives a run many
#: throughput samples, and the median over them is what holds steady.
SPECTRUM_GUESSES = 5
#: Calls per run at least, so the depth check averages 40 guesses or more.
SPECTRUM_MIN_CALLS = 8


@dataclass
class UnitResult:
    guesses: int
    samples: list[float]          # seconds per throughput sample
    guesses_per_sample: int
    failed: int = 0
    records: int = 0
    first_record_s: float | None = None
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


class Grid:
    """``grid_search`` on MSO5 over the two-pair subset, all scales and lambdas."""

    min_units = 1

    def __init__(self, layers: int, units: int, seed: int):
        self.layers, self.units, self.seed = layers, units, seed
        self.result = None

    @property
    def pairs(self) -> int:
        return len(LEAK_RATES) * len(SPECTRAL_RADII)

    def setup(self) -> None:
        self.task = de.MsoTask(5)
        self.spec = de.GridSpec(self.layers, self.units, leak_rates=LEAK_RATES,
                                spectral_radii=SPECTRAL_RADII, guesses=GUESSES,
                                base_seed=self.seed)
        # Fills the weight caches: the recurrent draws and their eigenvalues
        # depend on the seed only, not on (leak, rho).
        for g in range(GUESSES):
            de.init_reservoir(de.HyperParams(self.layers, self.units, 1, 1.0,
                                             LEAK_RATES[0], SPECTRAL_RADII[0],
                                             "linear", self.seed + g))

    def unit(self, index: int) -> UnitResult:
        stamps = []

        def on_result(rec):
            stamps.append((time.perf_counter(), rec.leak_rate, rec.spectral_radius))

        start = time.perf_counter()
        result = de.grid_search(self.task, self.spec, on_result=on_result)
        self.result = result
        # Records arrive in one burst per pair, right after it is evaluated.
        samples, last, seen = [], start, None
        for t, leak, rho in stamps:
            if (leak, rho) != seen:
                samples.append(t - last)
                seen = (leak, rho)
            last = t
        bad_pairs = {(r.leak_rate, r.spectral_radius) for r in result.records
                     if r.error is not None}
        bound = checks.DEEP_SELECTED_BOUND if (self.layers, self.units) == (10, 100) else None
        return UnitResult(
            guesses=self.pairs * GUESSES, samples=samples,
            guesses_per_sample=GUESSES, failed=len(bad_pairs) * GUESSES,
            records=len(result.records),
            first_record_s=stamps[0][0] - start if stamps else None,
            problems=checks.check_grid_records(result.records, result.selected, bound))

    def check(self) -> list[str]:
        leak, rho = ORACLE_PAIR
        guess = self.seed % GUESSES
        reservoir = de.init_reservoir(de.HyperParams(
            self.layers, self.units, 1, ORACLE_SCALE, leak, rho, "linear",
            self.seed + guess))
        u = checks.mso_signal(self.task.phis, self.task.length + 1)
        states = checks.layered_states(reservoir, u[:-1])
        val, test = checks.ridge_oracle(states, u[1:], ORACLE_LAMBDA)
        record = next(r for r in self.result.records
                      if (r.input_scale, r.leak_rate, r.spectral_radius, r.ridge_lambda)
                      == (ORACLE_SCALE, leak, rho, ORACLE_LAMBDA))
        return checks.check_oracle(record, val, test, guess)


class Spectrum:
    """``deepesn spectrum`` on MSO12 at 10x100, called in-process.

    Every unit draws fresh seeds, so the weight caches are never reused, as
    in a 100-guess analysis whose 1000 layer draws exceed the cache.  Each
    call is checked on its own; the fall of the filtering ratio with depth
    is checked once, on the spike magnitudes averaged over all calls.
    """

    layers, units, window = 10, 100, 900
    min_units = SPECTRUM_MIN_CALLS

    def __init__(self, seed: int, out_dir: str):
        self.seed, self.out = seed, out_dir
        self.magnitudes = []

    def setup(self) -> None:
        self.phis = de.MsoTask(12).phis
        os.makedirs(self.out, exist_ok=True)

    def unit(self, index: int) -> UnitResult:
        argv = ["spectrum", "--task", "mso12", "--layers", str(self.layers),
                "--units", str(self.units), "--leak", "0.9", "--rho", "0.7",
                "--guesses", str(SPECTRUM_GUESSES),
                "--seed", str(self.seed + index * SPECTRUM_GUESSES), "--out", self.out]
        start = time.perf_counter()
        code = deepesn.cli.main(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            return UnitResult(SPECTRUM_GUESSES, [elapsed], SPECTRUM_GUESSES,
                              failed=SPECTRUM_GUESSES,
                              problems=[f"deepesn spectrum exited with {code}"])
        rows = {}
        for name in ("spectra.csv", "spikes.csv"):
            with open(os.path.join(self.out, name), newline="") as fh:
                rows[name] = list(csv.reader(fh))
        written = sum(os.path.getsize(os.path.join(self.out, n)) for n in os.listdir(self.out))
        problems = checks.check_spectrum(rows["spectra.csv"], rows["spikes.csv"],
                                         self.phis, self.window, self.layers)
        if not problems:
            self.magnitudes.append(checks.spike_table(rows["spikes.csv"])[:, 1:])
        return UnitResult(SPECTRUM_GUESSES, [elapsed], SPECTRUM_GUESSES,
                          bytes_written=written, problems=problems)

    def check(self) -> list[str]:
        if not self.magnitudes:
            return ["no spectrum call passed its checks"]
        return checks.check_filtering_depth(sum(self.magnitudes) / len(self.magnitudes),
                                            self.phis)


def make(name: str, seed: int, out_dir: str):
    if name == "grid-deep":
        return Grid(10, 100, seed)
    if name == "grid-shallow":
        return Grid(1, 1000, seed)
    if name == "spectrum":
        return Spectrum(seed, os.path.join(out_dir, "spectrum"))
    raise ValueError(f"unknown workload {name!r}")
