"""Circuit-level CNT-count-limited yield — Eq. 2.3 and its approximations.

With M independent CNFETs of widths W_1 ... W_M, the chip survives only when
every device survives:

``Yield = Π_i (1 - pF(W_i)) ≈ 1 - Σ_i pF(W_i)``        (Eq. 2.3)

The approximation holds because individual pF values are tiny (1e-6 or
smaller) while M is huge (1e8), so the sum — not any single term — carries
the yield loss.  This module implements both the exact product (in log space
for numerical robustness) and the first-order approximation, plus the
"required device failure probability" helper used by the Wmin derivation
(Eq. 2.5): for Mmin minimum-size devices to jointly hit a yield target,

``pF(Wt) <= (1 - Yield_desired) / Mmin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from repro.core.failure import CNFETFailureModel
from repro.units import ensure_probability


def chip_yield_from_failure_probabilities(
    failure_probabilities: Iterable[float],
    counts: Optional[Iterable[float]] = None,
    exact: bool = True,
) -> float:
    """Chip yield given per-device failure probabilities (Eq. 2.3).

    Parameters
    ----------
    failure_probabilities:
        pF value per device, or per device *class* when ``counts`` is given.
    counts:
        Optional multiplicities: ``counts[i]`` devices share failure
        probability ``failure_probabilities[i]``.  This is how 1e8-transistor
        chips are evaluated without materialising 1e8 numbers.
    exact:
        If True use the exact product Π (1 - pF)^count computed in log space;
        otherwise the first-order approximation 1 - Σ count·pF (clamped at 0).
    """
    p = np.asarray(list(failure_probabilities), dtype=float)
    if p.size == 0:
        return 1.0
    if np.any((p < 0) | (p > 1)):
        raise ValueError("failure probabilities must lie in [0, 1]")
    if counts is None:
        c = np.ones_like(p)
    else:
        c = np.asarray(list(counts), dtype=float)
        if c.shape != p.shape:
            raise ValueError(
                f"counts shape {c.shape} does not match probabilities shape {p.shape}"
            )
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")

    if exact:
        if np.any((p == 1.0) & (c > 0)):
            return 0.0
        log_yield = float(np.sum(c * np.log1p(-p)))
        return math.exp(log_yield)
    expected_failures = float(np.sum(c * p))
    return max(0.0, 1.0 - expected_failures)


def chip_yield(
    widths_nm: Union[Iterable[float], np.ndarray],
    failure_model: CNFETFailureModel,
    counts: Optional[Iterable[float]] = None,
    exact: bool = True,
) -> float:
    """Chip yield for a width population under a device failure model.

    ``widths_nm`` may enumerate every device or, together with ``counts``,
    describe a histogram of widths (the natural form for a synthesized
    design's sizing distribution).
    """
    widths = np.asarray(list(widths_nm), dtype=float)
    probabilities = failure_model.failure_probabilities(widths)
    return chip_yield_from_failure_probabilities(probabilities, counts=counts, exact=exact)


def yield_loss(yield_value: float) -> float:
    """Convenience: 1 - Yield."""
    yield_value = ensure_probability(yield_value, "yield_value")
    return 1.0 - yield_value


def expected_failing_devices(
    failure_probabilities: Iterable[float],
    counts: Optional[Iterable[float]] = None,
) -> float:
    """Expected number of failing devices, Σ count·pF.

    When this expectation is much smaller than 1 the chip yield is high; the
    paper's yield budget of 10 % corresponds to ≈ 0.105 expected failures.
    """
    p = np.asarray(list(failure_probabilities), dtype=float)
    if counts is None:
        c = np.ones_like(p)
    else:
        c = np.asarray(list(counts), dtype=float)
    return float(np.sum(c * p))


def required_device_failure_probability(
    yield_target: float,
    device_count: float,
    exact: bool = False,
) -> float:
    """Device-level pF budget that lets ``device_count`` devices hit a yield.

    This is the horizontal line drawn on Fig. 2.1: for Mmin minimum-size
    devices sharing the same failure probability,

    * first-order (the paper's Eq. 2.5): ``pF <= (1 - Yield) / Mmin``;
    * exact: ``pF <= 1 - Yield^(1 / Mmin)``.

    The two agree to within a fraction of a percent at the paper's operating
    point (Yield = 0.9, Mmin = 3.3e7), but the exact form is available for
    aggressive yield targets.
    """
    yield_target = ensure_probability(yield_target, "yield_target")
    if device_count <= 0:
        raise ValueError(f"device_count must be positive, got {device_count}")
    if yield_target == 1.0:
        return 0.0
    if exact:
        return 1.0 - yield_target ** (1.0 / device_count)
    return (1.0 - yield_target) / device_count


def yield_from_uniform_failure_probability(
    device_failure_probability: float, device_count: float, exact: bool = True
) -> float:
    """Yield of ``device_count`` identical devices with the given pF.

    ``pF = 0`` is an empty product, yield 1, for any count, infinite
    included, as in :func:`yield_from_uniform_failure_probability_array`.
    """
    p = ensure_probability(device_failure_probability, "device_failure_probability")
    if not device_count >= 0:
        raise ValueError("device_count must be non-negative")
    if p == 0.0:
        return 1.0
    if exact:
        if p == 1.0:
            return 0.0 if device_count > 0 else 1.0
        return math.exp(device_count * math.log1p(-p))
    return max(0.0, 1.0 - device_count * p)


def yield_from_uniform_failure_probability_array(
    failure_probabilities: np.ndarray,
    device_count: Union[float, np.ndarray],
    exact: bool = True,
) -> np.ndarray:
    """Vectorised :func:`yield_from_uniform_failure_probability`.

    The batched query-serving layer pushes whole arrays of interpolated
    failure probabilities through Eq. 2.3 / 3.1 with this hook — a
    query's point value and both bounds as the rows of one ``(3, n)``
    array; the device count may be a scalar or broadcast elementwise.
    NaN in either input is rejected, as the scalar form rejects it.

    The exact form writes every step into one output array.  The only
    NaN the product ``m · log1p(-p)`` can then hold is ``0 · log 0``
    (``m = 0``, ``p = 1``) or ``∞ · 0``, both an empty product, so
    ``fmin`` maps it to log-yield 0; ``p = 1`` with ``m > 0`` gives
    ``-∞`` and hence yield 0 on its own.
    """
    p = np.asarray(failure_probabilities, dtype=float)
    m = np.asarray(device_count, dtype=float)
    # min/max propagate NaN, and every comparison with NaN is false.
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("failure probabilities must lie in [0, 1]")
    if m.size and not m.min() >= 0.0:
        raise ValueError("device_count must be non-negative")
    if exact:
        out = np.empty(np.broadcast(p, m).shape)
        np.negative(p, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log1p(out, out=out)
            np.multiply(out, m, out=out)
        np.fmin(out, 0.0, out=out)
        return np.exp(out, out=out)
    with np.errstate(invalid="ignore"):
        loss = m * p
    # ``∞ · 0`` is again the empty product: no loss.
    return np.maximum(0.0, 1.0 - np.nan_to_num(loss, nan=0.0))


@dataclass(frozen=True)
class YieldEstimate:
    """A chip yield derived from a *sampled* failure probability.

    Carries the delta-method standard error of the propagated Monte Carlo
    uncertainty, so rare-event tail estimates (pF ≈ 1e-9 from the
    importance sampler) can be compared against the Eq. 2.3 closed forms
    *within their reported error* instead of eyeballing absolute numbers.
    """

    yield_value: float
    standard_error: float
    device_count: float
    failure_probability: float
    failure_probability_se: float

    @property
    def yield_loss(self) -> float:
        """1 - yield."""
        return 1.0 - self.yield_value

    @property
    def loss_relative_error(self) -> float:
        """Standard error relative to the yield *loss* (the tail quantity)."""
        if self.yield_loss == 0:
            return float("nan")
        return self.standard_error / self.yield_loss

    def agrees_with(self, reference_yield: float, n_sigma: float = 4.0) -> bool:
        """True when ``reference_yield`` lies within ``n_sigma`` errors."""
        if self.standard_error == 0:
            return self.yield_value == reference_yield
        return (
            abs(self.yield_value - reference_yield)
            <= n_sigma * self.standard_error
        )


def chip_yield_from_failure_estimate(
    failure_probability: float,
    standard_error: float,
    device_count: float,
    exact: bool = False,
) -> YieldEstimate:
    """Chip yield (Eq. 2.3) from an *estimated* uniform device pF.

    ``exact=False`` (default) applies the paper's first-order form
    ``1 - M·pF`` whose propagated standard error is simply ``M·SE``;
    ``exact=True`` uses the product form ``(1 - pF)^M`` with the
    delta-method error ``M·(1-pF)^(M-1)·SE``.  The two coincide to within
    a fraction of a percent at the paper's operating point (M = 1e8,
    pF = 1e-9).
    """
    p = ensure_probability(failure_probability, "failure_probability")
    if standard_error < 0:
        raise ValueError("standard_error must be non-negative")
    if device_count < 0:
        raise ValueError("device_count must be non-negative")
    if exact:
        yield_value = yield_from_uniform_failure_probability(
            p, device_count, exact=True
        )
        if p < 1.0:
            slope = device_count * math.exp(
                (device_count - 1.0) * math.log1p(-p)
            )
        else:
            slope = 0.0
        se = slope * standard_error
    else:
        yield_value = max(0.0, 1.0 - device_count * p)
        se = device_count * standard_error
    return YieldEstimate(
        yield_value=yield_value,
        standard_error=se,
        device_count=float(device_count),
        failure_probability=p,
        failure_probability_se=float(standard_error),
    )
