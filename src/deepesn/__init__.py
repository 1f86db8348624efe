"""Deep echo state networks with linear reservoirs.

Building blocks: spectral-radius-constrained layered reservoirs, the exact
single-layer rewrite of their linear dynamics, a closed-form ridge readout
with NRMSE scoring, the multiple-superimposed-oscillator benchmark protocol
with grid-search model selection, and layer-wise FFT analysis of reservoir
states. A command line entry point (``deepesn``) orchestrates experiments.
"""

from .exceptions import (DegenerateConfigurationError, UnscalableMatrixError,
                         UnsupportedConfigurationError)
from .flat import EquivalenceReport, FlatSystem, flatten, run_flat, verify_equivalence
from .mso import (CANONICAL_PHIS, DEFAULT_LAMBDAS, ConfigResult, ExperimentResult,
                  GridSpec, MsoTask, SplitSpec, generate_mso, grid_search)
from .readout import Readout, fit_ridge, fit_ridge_sweep, nrmse, predict
from .reservoir import (ACTIVATIONS, DeepReservoir, HyperParams, StateTrajectory,
                        effective_matrix, init_reservoir, run, spectral_radius,
                        step, zero_state)
from .spectral import (SpectrumReport, SpikeMetrics, layer_spectra,
                       magnitude_spectrum, spike_metrics)

__all__ = [
    "ACTIVATIONS", "CANONICAL_PHIS", "DEFAULT_LAMBDAS", "ConfigResult",
    "DeepReservoir", "DegenerateConfigurationError", "EquivalenceReport",
    "ExperimentResult", "FlatSystem", "GridSpec", "HyperParams", "MsoTask",
    "Readout", "SpectrumReport", "SpikeMetrics", "SplitSpec", "StateTrajectory",
    "UnscalableMatrixError", "UnsupportedConfigurationError",
    "effective_matrix", "fit_ridge", "fit_ridge_sweep", "flatten",
    "generate_mso", "grid_search", "init_reservoir", "layer_spectra",
    "magnitude_spectrum", "nrmse", "predict", "run", "run_flat",
    "spectral_radius", "spike_metrics", "step", "verify_equivalence",
    "zero_state",
]

__version__ = "0.1.0"
