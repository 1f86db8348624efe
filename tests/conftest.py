import numpy as np
import pytest

import deepesn as de


def gelfand_radius(m, squarings=60):
    """Independent spectral-radius oracle: Gelfand's formula by repeated squaring.

    rho(M) = lim ||M^k||^(1/k); with k = 2**squarings the defect factor
    ||M^k||^(1/k) / rho is exp(O(log(cond)/k)), far below 1e-12. Uses no
    eigenvalue computation at all, only matrix products and norms.
    """
    a = np.asarray(m, dtype=float)
    log_scale = 0.0
    for _ in range(squarings):
        a = a @ a
        norm = np.linalg.norm(a, 2)
        if norm == 0.0:
            return 0.0
        a = a / norm
        log_scale = 2.0 * log_scale + np.log(norm)
    # after the loop: M^(2^squarings) = a * exp(log_scale), ||a|| == 1
    return float(np.exp(log_scale / 2.0 ** squarings))


@pytest.fixture
def small_params():
    return de.HyperParams(num_layers=3, units_per_layer=6, input_dim=1,
                          input_scale=1.0, leak_rate=0.9,
                          spectral_radius_target=0.7, seed=12345)


@pytest.fixture
def small_reservoir(small_params):
    return de.init_reservoir(small_params)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
