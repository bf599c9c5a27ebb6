"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cells.commercial65 import build_commercial65_library
from repro.cells.nangate45 import build_nangate45_library
from repro.core.calibration import CalibratedSetup
from repro.core.count_model import PoissonCountModel
from repro.growth.pitch import ExponentialPitch
from repro.growth.types import CNTTypeModel
from repro.netlist.openrisc import openrisc_width_histogram


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for Monte Carlo tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def type_model() -> CNTTypeModel:
    """The paper's pessimistic processing corner (pm=33 %, pRs=30 %, pRm=1)."""
    return CNTTypeModel(
        metallic_fraction=1.0 / 3.0,
        removal_prob_metallic=1.0,
        removal_prob_semiconducting=0.30,
    )


@pytest.fixture
def poisson_counts() -> PoissonCountModel:
    """Poisson CNT count model at the paper's 4 nm mean pitch."""
    return PoissonCountModel(mean_pitch_nm=4.0)


@pytest.fixture
def exponential_pitch() -> ExponentialPitch:
    """Exponential pitch distribution at the 4 nm mean."""
    return ExponentialPitch(mean_pitch_nm=4.0)


@pytest.fixture
def setup() -> CalibratedSetup:
    """The calibrated 45 nm case-study setup."""
    return CalibratedSetup()


@pytest.fixture(scope="session")
def nangate45():
    """Synthetic Nangate-45-like library (built once per session)."""
    return build_nangate45_library()


@pytest.fixture(scope="session")
def commercial65():
    """Synthetic commercial-65-like library (built once per session)."""
    return build_commercial65_library()


@pytest.fixture
def openrisc_design():
    """Statistical OpenRISC width distribution at the 1e8-transistor scale."""
    return openrisc_width_histogram(1.0e8)


def _censored_normal_moments(mean: float, std: float, low: float):
    """``(E[Y], Var[Y])`` of ``Y = max(X, low)`` with ``X ~ N(mean, std²)``."""
    a = (low - mean) / std
    below = 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))
    density = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    first = low * below + mean * (1.0 - below) + std * density
    second = (
        low * low * below
        + (mean * mean + std * std) * (1.0 - below)
        + std * (mean + low) * density
    )
    return first, second - first * first


@pytest.fixture(scope="session")
def censored_normal_moments():
    """Closed-form mean and variance of a normal clipped from below."""
    return _censored_normal_moments
