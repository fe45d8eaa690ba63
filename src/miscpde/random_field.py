"""Log-uniform diffusion coefficient built from a trigonometric expansion.

The log-coefficient is kappa(x, y) = sum_j y_j * psi_j(x) with
psi_j(x) = A_k * prod_i cos(pi k_i x_i)^l_i sin(pi k_i x_i)^(1-l_i)
under a bijective, amplitude-ordered enumeration of the frequency/phase
pairs (k, l), and the diffusion coefficient is a = exp(kappa).  The
module also provides the derivative sup-norm sequences b_s and the
summability exponents p_s they admit, which drive the rate predictors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np

SQRT3 = math.sqrt(3.0)

# Frequency enumeration never needs to go beyond this; hitting it means
# the requested mode count is far outside desk scale.
FREQUENCY_CAP = 4096


class ModeEnumerationError(ValueError):
    """Requested more modes of nonzero amplitude than the frequency cap can supply."""


class SummabilityError(ValueError):
    """No admissible summability exponent exists at the requested order."""


@dataclass(frozen=True)
class FieldSpec:
    """Parameters of the expansion: spatial dimension, smoothness, mode count."""

    d: int
    nu: float
    max_modes: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"spatial dimension must be >= 1, got {self.d}")
        if not self.nu > 0:
            raise ValueError(f"smoothness parameter must be positive, got {self.nu}")
        if self.max_modes < 1:
            raise ValueError(f"need at least one mode, got {self.max_modes}")


@dataclass(frozen=True)
class Mode:
    """One expansion function: frequency vector, cos/sin selector, amplitude."""

    k: tuple[int, ...]
    ell: tuple[int, ...]
    amplitude: float


@dataclass(frozen=True)
class BSequence:
    """Sup-norms of derivatives up to order ``s`` of the first J expansion functions."""

    s: int
    values: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)


def coefficient_A(k: Sequence[int], nu: float) -> float:
    """Amplitude sqrt(3) * 2^(|k|_0/2) * (1 + |k|^2)^(-(nu + d/2)/2).

    |k| is the sum of the frequencies and |k|_0 the number of nonzero
    entries; d is the length of k.
    """
    if not nu > 0:
        raise ValueError("nu must be positive")
    k = tuple(int(v) for v in k)
    d = len(k)
    total = sum(k)
    nonzeros = sum(1 for v in k if v != 0)
    return SQRT3 * 2.0 ** (nonzeros / 2.0) * (1.0 + total * total) ** (-(nu + d / 2.0) / 2.0)


def _max_amplitude_at(total: int, d: int, nu: float) -> float:
    # Largest amplitude any frequency vector with |k| = total could have.
    return SQRT3 * 2.0 ** (d / 2.0) * (1.0 + total * total) ** (-(nu + d / 2.0) / 2.0)


def _enumerate_modes(d: int, nu: float, k_cap: int) -> list[Mode]:
    modes = []
    for k in itertools.product(range(k_cap + 1), repeat=d):
        if sum(k) > k_cap:
            continue
        amp = coefficient_A(k, nu)
        for ell in itertools.product((0, 1), repeat=d):
            # sin(0 * x) vanishes identically: drop degenerate selectors.
            if any(ki == 0 and li == 0 for ki, li in zip(k, ell)):
                continue
            modes.append(Mode(k, ell, amp))
    # Descending amplitude; ties by ascending |k|, then lexicographic k, then l.
    modes.sort(key=lambda m: (-m.amplitude, sum(m.k), m.k, m.ell))
    return modes


@lru_cache(maxsize=None)
def _ordered_modes(d: int, nu: float, count: int) -> tuple[Mode, ...]:
    k_cap = 4
    while True:
        modes = _enumerate_modes(d, nu, k_cap)
        beyond = _max_amplitude_at(k_cap + 1, d, nu)
        if len(modes) >= count and beyond < modes[count - 1].amplitude:
            return tuple(modes[:count])
        # Once every amplitude beyond the box is 0, no larger box adds a mode.
        if k_cap >= FREQUENCY_CAP or beyond == 0.0:
            raise ModeEnumerationError(f"cannot enumerate {count} modes of nonzero amplitude at "
                                       f"nu = {nu} within the frequency cap |k| <= {FREQUENCY_CAP}")
        k_cap = min(2 * k_cap, FREQUENCY_CAP)


def mode_ordering(spec: FieldSpec) -> tuple[Mode, ...]:
    """The first ``spec.max_modes`` expansion functions in deterministic order.

    Ordered by descending amplitude with a fully deterministic
    tie-break, after dropping selectors whose trigonometric factor
    vanishes identically.
    """
    return _ordered_modes(spec.d, spec.nu, spec.max_modes)


def _check_active(y: Mapping[int, float], modes: Sequence[Mode]) -> None:
    for j in y:
        if j < 1 or j > len(modes):
            raise IndexError(
                f"active variable {j} is outside the enumerated modes 1..{len(modes)}"
            )


def _trig_factor(k: int, ell: int, x):
    return np.cos(np.pi * k * x) if ell == 1 else np.sin(np.pi * k * x)


def kappa_on_axes(axes: Sequence[np.ndarray], y: Mapping[int, float], modes: Sequence[Mode]) -> np.ndarray:
    """kappa on the tensor grid spanned by per-dimension coordinate arrays.

    Separable trig factors are evaluated once per axis and combined by
    outer products, which keeps large solver grids cheap.
    """
    _check_active(y, modes)
    shape = tuple(len(ax) for ax in axes)
    total = np.zeros(shape)
    for j, yj in sorted(y.items()):
        if yj == 0.0:
            continue
        mode = modes[j - 1]
        factors = [_trig_factor(ki, li, np.asarray(ax, dtype=float))
                   for ki, li, ax in zip(mode.k, mode.ell, axes)]
        total += yj * mode.amplitude * reduce(np.multiply.outer, factors)
    return total


def a_on_axes(axes: Sequence[np.ndarray], y: Mapping[int, float], modes: Sequence[Mode]) -> np.ndarray:
    return np.exp(kappa_on_axes(axes, y, modes))


def b_sequence(s: int, spec: FieldSpec) -> BSequence:
    """Closed-form b_{s,j} = max_{|sigma| <= s} sup |D^sigma psi_j|.

    The trig product of every surviving mode attains 1 on the unit box,
    so the sup-norm is the amplitude times (pi * max_i k_i)^s when any
    frequency is nonzero (all derivative orders land on the largest
    frequency), and the bare amplitude for the constant mode.  This is
    exact, not an estimate.
    """
    if s < 0:
        raise ValueError("derivative order must be nonnegative")
    values = []
    for mode in mode_ordering(spec):
        kmax = max(mode.k)
        values.append(mode.amplitude * (math.pi * kmax) ** s if kmax > 0 else mode.amplitude)
    return BSequence(s, tuple(values))


def p_bound(s: int, spec: FieldSpec, variant: str, limit: float = 0.5) -> float:
    """Infimal admissible summability exponent of b_s for the chosen variant.

    ``variant`` selects the bound derived from plain amplitude decay
    ("theory") or from squared-amplitude decay ("square").  Exponents at
    or above ``limit`` (1/2 under the standard convergence assumption)
    are rejected.
    """
    if s < 0:
        raise ValueError("derivative order must be nonnegative")
    if variant == "theory":
        denom = spec.nu / spec.d + 0.5 - s / spec.d
    elif variant == "square":
        denom = 2.0 * spec.nu / spec.d + 1.0 - 2.0 * s / spec.d
    else:
        raise ValueError(f"unknown summability variant {variant!r}")
    if denom <= 0:
        raise SummabilityError(f"no summability at this s: s = {s} is too large for nu = {spec.nu}, d = {spec.d}")
    p = 1.0 / denom
    if p >= limit:
        raise SummabilityError(
            f"no summability at this s: p_{s} would reach {p:.6g} >= {limit:.6g}"
        )
    return p


def max_order(spec: FieldSpec, variant: str, limit: float = 0.5, cap: int | None = None) -> int:
    """Largest derivative order, at most ``cap``, with an admissible exponent below ``limit``."""
    s = 0
    try:
        p_bound(0, spec, variant, limit)
    except SummabilityError:
        raise SummabilityError(
            f"not even s = 0 is summable for nu = {spec.nu}, d = {spec.d} ({variant})"
        ) from None
    while cap is None or s < cap:
        try:
            p_bound(s + 1, spec, variant, limit)
        except SummabilityError:
            return s
        s += 1
    return s
