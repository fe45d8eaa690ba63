"""Tensor-product finite-difference solver for -div(a grad u) = 1 on the unit box.

Homogeneous Dirichlet data, conservative flux-form second-order centered
differences with the coefficient evaluated analytically at cell
midpoints, per-dimension mesh sizes h_i = (1/3) * 2^(-alpha_i).  The
quantity of interest is a Gaussian-window local average of the solution,
discretized with the tensor trapezoidal rule on the solution's own grid.

In 1-D the flux a u' is affine across the cells, so the system has an
exact O(n) solution, which ``solve_qoi_batch`` evaluates for many
parameter vectors at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import fft as sfft

from .random_field import FieldSpec, Mode, _check_active, a_on_axes, mode_ordering

H0 = 1.0 / 3.0

RESIDUAL_TOL = 1e-10

# Rows x midpoints held in one 1-D batch temporary (512 KiB of float64).
_BLOCK_ENTRIES = 1 << 16


class SolverError(RuntimeError):
    """Linear solve failed to reach the required residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def validate_alpha(alpha: Sequence[int]) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if not alpha or any(a < 1 for a in alpha):
        raise ValueError(f"refinement levels must be positive integers, got {alpha}")
    return alpha


def mesh_sizes(alpha: Sequence[int]) -> tuple[float, ...]:
    """Per-dimension mesh sizes h_i = h_0 * 2^(-alpha_i) with h_0 = 1/3."""
    return tuple(H0 * 2.0 ** (-a) for a in validate_alpha(alpha))


def interior_counts(alpha: Sequence[int]) -> tuple[int, ...]:
    """Interior nodes per dimension: 1/h_i - 1 = 3 * 2^alpha_i - 1."""
    return tuple(3 * 2**a - 1 for a in validate_alpha(alpha))


def unknowns(alpha: Sequence[int]) -> int:
    """Total number of interior unknowns; the work unit of all cost accounting."""
    return math.prod(interior_counts(alpha))


def interior_axes(alpha: Sequence[int]) -> tuple[np.ndarray, ...]:
    return tuple(h * np.arange(1, n + 1)
                 for h, n in zip(mesh_sizes(alpha), interior_counts(alpha)))


@dataclass(frozen=True)
class QoISpec:
    """Gaussian observation window: width, center, and the fixed 10/(sigma sqrt(2 pi))^d scale."""

    sigma: float = 0.2
    x0: tuple[float, ...] = (0.3,)

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("window width must be positive")
        if any(not 0.0 < c < 1.0 for c in self.x0):
            raise ValueError("window center must be interior to the unit box")

    @property
    def d(self) -> int:
        return len(self.x0)

    @property
    def scale(self) -> float:
        return 10.0 / (self.sigma * math.sqrt(2.0 * math.pi)) ** self.d


def default_qoi_spec(d: int) -> QoISpec:
    if d == 1:
        return QoISpec(0.2, (0.3,))
    if d == 3:
        return QoISpec(0.2, (0.3, 0.2, 0.6))
    raise ValueError(f"no default observation window for d = {d}")


@dataclass(frozen=True)
class DiscreteSolution:
    """Nodal values over the interior tensor grid at refinement ``alpha``."""

    alpha: tuple[int, ...]
    values: np.ndarray = field(repr=False)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return interior_axes(self.alpha)


def _staggered_coefficients(alpha, y, modes) -> list[np.ndarray]:
    """Coefficient a on the dim-i staggered grid (midpoints along i, nodes elsewhere)."""
    hs = mesh_sizes(alpha)
    counts = interior_counts(alpha)
    node_axes = interior_axes(alpha)
    staggered = []
    for i, (h, n) in enumerate(zip(hs, counts)):
        axes = list(node_axes)
        axes[i] = h * (np.arange(n + 1) + 0.5)
        staggered.append(a_on_axes(axes, y, modes))
    return staggered


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _midpoints(level: int) -> np.ndarray:
    """Cell midpoints x_m = (m + 1/2) h, m = 0..n, of the 1-D grid at ``level``."""
    (h,), (n,) = mesh_sizes((level,)), interior_counts((level,))
    return _frozen(h * (np.arange(n + 1) + 0.5))


@lru_cache(maxsize=1024)
def _mode_row(level: int, mode: Mode) -> np.ndarray:
    """amplitude * trig(x_m): one mode's contribution to kappa per unit y_j."""
    (k,), (ell,) = mode.k, mode.ell
    x = _midpoints(level)
    trig = np.cos(np.pi * k * x) if ell == 1 else np.sin(np.pi * k * x)
    return _frozen(mode.amplitude * trig)


@lru_cache(maxsize=64)
def _window_tails(level: int, spec: QoISpec) -> tuple[np.ndarray, np.ndarray]:
    """R_m = sum of the window over the nodes right of x_m (R_n = 0), and x_m R_m."""
    (node_axis,) = interior_axes((level,))
    window = np.exp(-((node_axis - spec.x0[0]) ** 2) / (2.0 * spec.sigma**2))
    tail = np.append(np.cumsum(window[::-1])[::-1], 0.0)
    return _frozen(tail), _frozen(_midpoints(level) * tail)


def _parameter_row(y: Mapping[int, float], modes) -> np.ndarray:
    """The sparse parameter map as a (1, J) row of y_1..y_J."""
    active = {j: v for j, v in y.items() if v != 0.0}
    _check_active(active, modes)
    row = np.zeros((1, max(active, default=0)))
    for j, v in active.items():
        row[0, j - 1] = v
    return row


def _flux_form_1d(level: int, Y: np.ndarray, modes) -> tuple[np.ndarray, np.ndarray]:
    """b = 1/a at the midpoints and the flux constant C, one row per parameter row.

    The discrete flux is a_m (u_{m+1} - u_m) / h = C - x_m, so
    u_i = sum_{m < i} h (C - x_m) b_m, and u_{n+1} = 0 fixes
    C = sum x_m b_m / sum b_m.  kappa is accumulated mode by mode and
    reduced row by row, so each row's result does not depend on the
    other rows of the batch.
    """
    x_m = _midpoints(level)
    active = np.flatnonzero(Y.any(axis=0))
    if active.size and active[-1] >= len(modes):
        raise IndexError(
            f"active variable {active[-1] + 1} is outside the enumerated modes 1..{len(modes)}"
        )
    kappa = np.zeros((len(Y), len(x_m)))
    for j in active:
        kappa += Y[:, j : j + 1] * _mode_row(level, modes[j])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b = np.exp(-kappa)
        sum_b = b.sum(axis=1)
        sum_xb = (x_m * b).sum(axis=1)
        flux = sum_xb / sum_b
        # u_{n+1} = 0 in floating point: fails on overflow, underflow to 0, or NaN.
        closure = np.abs(flux * sum_b - sum_xb) <= 1e-10 * (np.abs(flux) * sum_b + sum_xb)
    if not closure.all():
        bad = int(np.argmin(closure))
        raise SolverError(
            f"1-D closed-form solve at level {level} lost the boundary condition "
            f"(row {bad}: sum of 1/a = {sum_b[bad]!r})"
        )
    return b, flux


def _solve_constant_dst(alpha: Sequence[int]) -> np.ndarray:
    # a == 1 makes the operator separable; solve by sine-transform
    # diagonalization, a direct method.  The residual comes from one
    # matrix-free matvec (2u - u_+ - u_-) / h_i^2 per axis and is
    # measured as a normwise backward error, |1 - Au| / (|A| |u| + |1|)
    # with |A| = max(denom): rounding alone puts |1 - Au| / |1| above
    # 1e-10 on grids as anisotropic as alpha = (1, 1, 10).
    counts = interior_counts(alpha)
    hs = mesh_sizes(alpha)
    lams = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h**2
            for n, h in zip(counts, hs)]
    denom = reduce_outer_sum(lams)
    rhs = np.ones(counts)
    coeffs = sfft.dstn(rhs, type=1)
    u = sfft.idstn(coeffs / denom, type=1)
    au = np.zeros(counts)
    for i, h in enumerate(hs):
        pad = [(1, 1) if k == i else (0, 0) for k in range(len(counts))]
        au -= np.diff(np.pad(u, pad), n=2, axis=i) / h**2
    scale = denom.max() * np.linalg.norm(u) + np.linalg.norm(rhs)
    residual = float(np.linalg.norm(rhs - au) / scale)
    if not residual <= RESIDUAL_TOL:
        raise SolverError(
            f"sine-transform solve at alpha = {tuple(alpha)} has backward error {residual:.3e}",
            residual=residual,
        )
    return u


def reduce_outer_sum(vectors: list[np.ndarray]) -> np.ndarray:
    out = vectors[0]
    for v in vectors[1:]:
        out = out[..., None] + v
    return out


def _assemble_sparse(alpha, a_stag) -> tuple[sp.csr_matrix, np.ndarray]:
    counts = interior_counts(alpha)
    hs = mesh_sizes(alpha)
    total = math.prod(counts)
    index = np.arange(total).reshape(counts)
    diag = np.zeros(counts)
    rows, cols, vals = [], [], []
    for i, (h, n) in enumerate(zip(hs, counts)):
        a_i = a_stag[i]
        lo = np.take(a_i, np.arange(0, n), axis=i)
        hi = np.take(a_i, np.arange(1, n + 1), axis=i)
        diag += (lo + hi) / h**2
        mid = np.take(a_i, np.arange(1, n), axis=i) / h**2
        left = np.take(index, np.arange(0, n - 1), axis=i).ravel()
        right = np.take(index, np.arange(1, n), axis=i).ravel()
        coup = -mid.ravel()
        rows.extend((left, right))
        cols.extend((right, left))
        vals.extend((coup, coup))
    rows.append(np.arange(total))
    cols.append(np.arange(total))
    vals.append(diag.ravel())
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    )
    return matrix, diag.ravel()


def _solve_cg(matrix: sp.csr_matrix, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    precond = spla.LinearOperator(matrix.shape, matvec=lambda v: v / diag)
    u, info = spla.cg(matrix, rhs, rtol=1e-12, atol=0.0, maxiter=100 * len(rhs), M=precond)
    residual = np.linalg.norm(rhs - matrix @ u) / np.linalg.norm(rhs)
    if info != 0 or residual > RESIDUAL_TOL:
        raise SolverError(
            f"conjugate-gradient solve did not converge (info={info})", residual=residual
        )
    return u


def solve(alpha: Sequence[int], y: Mapping[int, float], field_spec: FieldSpec) -> DiscreteSolution:
    """Solve the unit-forcing Dirichlet problem at refinement ``alpha`` and parameters ``y``.

    The flux-form system is solved directly when possible (in closed
    form in 1-D, by sine-transform diagonalization for the
    constant-coefficient case in higher dimensions) and otherwise by
    diagonally preconditioned conjugate gradients.  Conjugate-gradient
    solves are accepted only with relative residual below 1e-10, and
    sine-transform solves only with backward error below 1e-10.
    """
    alpha = validate_alpha(alpha)
    if len(alpha) != field_spec.d:
        raise ValueError(f"alpha has {len(alpha)} components but the field is {field_spec.d}-dimensional")
    modes = mode_ordering(field_spec)
    if len(alpha) == 1:
        (level,), (h,) = alpha, mesh_sizes(alpha)
        b, flux = _flux_form_1d(level, _parameter_row(y, modes), modes)
        values = np.cumsum(h * (flux[0] - _midpoints(level)) * b[0])[:-1]
        return DiscreteSolution(alpha, values)
    active = {j: v for j, v in y.items() if v != 0.0}
    if not active:
        return DiscreteSolution(alpha, _solve_constant_dst(alpha))
    a_stag = _staggered_coefficients(alpha, active, modes)
    matrix, diag = _assemble_sparse(alpha, a_stag)
    u = _solve_cg(matrix, diag, np.ones(matrix.shape[0]))
    return DiscreteSolution(alpha, u.reshape(interior_counts(alpha)))


def qoi(solution: DiscreteSolution, spec: QoISpec) -> float:
    """Gaussian-window average of the solution by the tensor trapezoidal rule.

    The solution extends by zero to the boundary, so interior nodes all
    carry the plain product-h weight.
    """
    axes = solution.axes
    if len(axes) != spec.d:
        raise ValueError(f"solution is {len(axes)}-dimensional but the window is {spec.d}-dimensional")
    gaussians = [np.exp(-((ax - c) ** 2) / (2.0 * spec.sigma**2)) for ax, c in zip(axes, spec.x0)]
    window = reduce(np.multiply.outer, gaussians)
    cell = math.prod(mesh_sizes(solution.alpha))
    return float(spec.scale * cell * np.sum(solution.values * window))


def solve_qoi(alpha, y, field_spec: FieldSpec, qoi_spec: QoISpec) -> float:
    """F^alpha(y): the observation functional of the discrete solution."""
    if len(alpha) == 1:
        row = _parameter_row(y, mode_ordering(field_spec))
        return float(solve_qoi_batch(alpha, row, field_spec, qoi_spec)[0])
    return qoi(solve(alpha, y, field_spec), qoi_spec)


def solve_qoi_batch(alpha, Y, field_spec: FieldSpec, qoi_spec: QoISpec) -> np.ndarray:
    """F^alpha at every row of ``Y``, a (P, J) array of y_1..y_J.

    In 1-D the observation of the closed-form solution is
    scale h^2 (C sum_m b_m R_m - sum_m x_m b_m R_m), with R_m the window
    summed over the nodes right of x_m; each row's value is bit-identical
    whatever the batch around it.  In d > 1 the rows are solved one by one.
    """
    alpha = validate_alpha(alpha)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"parameters must be a (points, variables) array, got shape {Y.shape}")
    if len(alpha) != field_spec.d or qoi_spec.d != field_spec.d:
        raise ValueError("alpha, field and window disagree on the spatial dimension")
    if len(alpha) > 1:
        return np.array([
            solve_qoi(alpha, {j + 1: float(v) for j, v in enumerate(row) if v != 0.0},
                      field_spec, qoi_spec)
            for row in Y
        ])
    (level,), (h,) = alpha, mesh_sizes(alpha)
    tail, x_tail = _window_tails(level, qoi_spec)
    out = np.empty(len(Y))
    rows = max(1, _BLOCK_ENTRIES // len(tail))
    for start in range(0, len(Y), rows):
        block = Y[start : start + rows]
        b, flux = _flux_form_1d(level, block, mode_ordering(field_spec))
        out[start : start + len(block)] = (flux * (b * tail).sum(axis=1)
                                           - (b * x_tail).sum(axis=1))
    return qoi_spec.scale * h * h * out
