import numpy as np
import pytest


@pytest.fixture()
def zero_draws(monkeypatch):
    """Make the package's noise samplers draw exact zeros.

    A release adds exactly what it draws, so under this fixture it adds
    nothing while its noise-scale record stays the calibrated one.
    """

    def zeros(dim, scale, seed=None):
        return np.zeros(dim)

    monkeypatch.setattr("dpknockoff.privacy.sample_gaussian_vector", zeros)
    monkeypatch.setattr("dpknockoff.privacy.sample_laplace_vector", zeros)
