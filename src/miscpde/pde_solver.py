"""Tensor-product finite-difference solver for -div(a grad u) = 1 on the unit box.

Homogeneous Dirichlet data, conservative flux-form second-order centered
differences with the coefficient evaluated analytically at cell
midpoints, per-dimension mesh sizes h_i = (1/3) * 2^(-alpha_i).  The
quantity of interest is a Gaussian-window local average of the solution,
discretized with the tensor trapezoidal rule on the solution's own grid.

``solve_qoi_batch`` solves many parameter vectors at once, and every
other entry point is a one-row batch.  In 1-D the flux a u' is affine
across the cells, so the system has an exact O(n) solution.  In d > 1
the constant-coefficient rows share one sine-transform solve, and the
other rows run one conjugate-gradient iteration over a block-diagonal
matrix, with separate scalars per row, preconditioned by the same
sine-transform solve with diagonal scaling around it.  Each row's value
is bit-identical whatever the batch around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

# a_on_axes is unused here; perfbench/tracer.py wraps it by the name pde_solver.a_on_axes.
from .random_field import FieldSpec, Mode, _check_active, a_on_axes, mode_ordering  # noqa: F401

# scipy is imported only by the d > 1 paths that use it, so that importing
# the package, and any 1-D run, loads numpy alone.
if TYPE_CHECKING:
    import scipy.sparse as sp


def __getattr__(name: str):
    # perfbench/tracer.py wraps pde_solver.spla.cg by name; this shim goes
    # away with the tracer's rewrite (ROADMAP item 1).
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

H0 = 1.0 / 3.0

RESIDUAL_TOL = 1e-10

# Conjugate gradients stop a row at |r| <= CG_RTOL |b|.
CG_RTOL = 1e-12

# Rows x unknowns (midpoints in 1-D) held in one batch temporary (512 KiB of float64).
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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=None)
def _midpoints(level: int) -> np.ndarray:
    """Cell midpoints x_m = (m + 1/2) h, m = 0..n, of the 1-D grid at ``level``."""
    (h,), (n,) = mesh_sizes((level,)), interior_counts((level,))
    return _frozen(h * (np.arange(n + 1) + 0.5))


@lru_cache(maxsize=1024)
def _axis_trig(level: int, k: int, ell: int, staggered: bool) -> np.ndarray:
    """cos(pi k x) (ell = 1) or sin(pi k x) at the midpoints or the interior nodes."""
    x = _midpoints(level) if staggered else interior_axes((level,))[0]
    return _frozen(np.cos(np.pi * k * x) if ell == 1 else np.sin(np.pi * k * x))


@lru_cache(maxsize=1024)
def _mode_row(level: int, mode: Mode) -> np.ndarray:
    """amplitude * trig(x_m): one mode's contribution to kappa per unit y_j."""
    (k,), (ell,) = mode.k, mode.ell
    return _frozen(mode.amplitude * _axis_trig(level, k, ell, True))


def _window(alpha: Sequence[int], spec: QoISpec) -> np.ndarray:
    """The Gaussian window on the interior nodes, shaped like the solution."""
    gaussians = [np.exp(-((ax - c) ** 2) / (2.0 * spec.sigma**2))
                 for ax, c in zip(interior_axes(alpha), spec.x0)]
    return reduce(np.multiply.outer, gaussians)


@lru_cache(maxsize=64)
def _window_tails(level: int, spec: QoISpec) -> tuple[np.ndarray, np.ndarray]:
    """R_m = sum of the window over the nodes right of x_m (R_n = 0), and x_m R_m."""
    window = _window((level,), spec)
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


def _active_columns(Y: np.ndarray, modes) -> np.ndarray:
    """0-based indices of the variables that are nonzero in some row of ``Y``."""
    active = np.flatnonzero(Y.any(axis=0))
    if active.size and active[-1] >= len(modes):
        raise IndexError(
            f"active variable {active[-1] + 1} is outside the enumerated modes 1..{len(modes)}"
        )
    return active


def _flux_form_1d(level: int, Y: np.ndarray, modes) -> tuple[np.ndarray, np.ndarray]:
    """b = 1/a at the midpoints and the flux constant C, one row per parameter row.

    The discrete flux is a_m (u_{m+1} - u_m) / h = C - x_m, so
    u_i = sum_{m < i} h (C - x_m) b_m, and u_{n+1} = 0 fixes
    C = sum x_m b_m / sum b_m.  kappa is accumulated mode by mode and
    reduced row by row, so each row's result does not depend on the
    other rows of the batch.
    """
    x_m = _midpoints(level)
    kappa = np.zeros((len(Y), len(x_m)))
    for j in _active_columns(Y, modes):
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


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=-1))


def _check_backward_error(what: str, au: np.ndarray, u: np.ndarray, norm_a) -> None:
    """Accept solutions of A u = 1 whose normwise backward error
    |1 - Au| / (|A| |u| + |1|) is at most RESIDUAL_TOL, row by row.

    The plain relative residual |1 - Au| / |1| would not do: rounding
    alone takes it past 1e-10 on grids as anisotropic as alpha = (1, 1, 10).
    """
    rhs = np.ones_like(au)
    error = _row_norms(rhs - au) / (norm_a * _row_norms(u) + _row_norms(rhs))
    if not np.all(error <= RESIDUAL_TOL):
        worst = float(np.max(error))
        raise SolverError(f"{what} has backward error {worst:.3e}", residual=worst)


@lru_cache(maxsize=8)
def _laplacian_eigenvalues(alpha: tuple[int, ...]) -> np.ndarray:
    """Eigenvalues sum_i (2 - 2 cos(pi k_i / (n_i + 1))) / h_i^2 of the a == 1
    operator, one per sine mode k, shaped like the grid."""
    lams = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h**2
            for n, h in zip(interior_counts(alpha), mesh_sizes(alpha))]
    return _frozen(reduce(np.add.outer, lams))


def _sine_solve(alpha: tuple[int, ...], r: np.ndarray) -> np.ndarray:
    """L^-1 r for every row of ``r``, a (P, N) array, with L the a == 1 operator.

    L is separable, so the type-I sine transform along each axis
    diagonalizes it (a direct method).  The transforms act on the grid
    axes only, so each row's result does not depend on the other rows.
    """
    from scipy import fft

    counts = interior_counts(alpha)
    axes = tuple(range(1, len(counts) + 1))
    coeffs = fft.dstn(r.reshape(len(r), *counts), type=1, axes=axes)
    return fft.idstn(coeffs / _laplacian_eigenvalues(alpha), type=1, axes=axes).reshape(r.shape)


def _solve_constant(alpha: tuple[int, ...]) -> np.ndarray:
    """The a == 1 solution, the sine-transform solve of a row of ones.

    It is checked with one matrix-free matvec (2u - u_+ - u_-) / h_i^2
    per axis; |A| is the operator's largest eigenvalue.
    """
    counts = interior_counts(alpha)
    u = _sine_solve(alpha, np.ones((1, math.prod(counts))))[0].reshape(counts)
    au = np.zeros(counts)
    for i, h in enumerate(mesh_sizes(alpha)):
        pad = [(1, 1) if k == i else (0, 0) for k in range(len(counts))]
        au -= np.diff(np.pad(u, pad), n=2, axis=i) / h**2
    _check_backward_error(f"sine-transform solve at alpha = {alpha}",
                          au.ravel(), u.ravel(), _laplacian_eigenvalues(alpha).max())
    return u


def _staggered_coefficients(alpha, Y: np.ndarray, modes) -> list[np.ndarray]:
    """Coefficient a on each dim-i staggered grid (midpoints along i, nodes elsewhere).

    One (P, *grid) array per dimension, one leading row per row of
    ``Y``.  kappa is accumulated mode by mode from cached per-axis trig
    factors, so each row's coefficients do not depend on the batch.
    """
    counts = interior_counts(alpha)
    active = _active_columns(Y, modes)
    staggered = []
    for i in range(len(alpha)):
        shape = counts[:i] + (counts[i] + 1,) + counts[i + 1 :]
        kappa = np.zeros((len(Y), math.prod(shape)))
        for j in active:
            mode = modes[j]
            factors = [_axis_trig(level, k, ell, axis == i)
                       for axis, (level, k, ell) in enumerate(zip(alpha, mode.k, mode.ell))]
            kappa += Y[:, j : j + 1] * (mode.amplitude * reduce(np.multiply.outer, factors)).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            staggered.append(np.exp(kappa).reshape(len(Y), *shape))
    return staggered


def _assemble_sparse(alpha, a_stag) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flux-form operators of a batch as CSR blocks sharing one pattern.

    ``a_stag`` holds the staggered coefficients with one leading row per
    operator.  Returns each operator's (P, nnz) CSR values, the shared
    N x N block's indptr and indices (columns ascending within a row:
    -s_0 .. -s_{d-1}, 0, +s_{d-1} .. +s_0 for axis strides s_i), and the
    (P, N) diagonal.
    """
    counts = interior_counts(alpha)
    hs = mesh_sizes(alpha)
    d, total, rows = len(counts), math.prod(counts), len(a_stag[0])
    strides = [math.prod(counts[i + 1 :]) for i in range(d)]
    node = np.indices(counts).reshape(d, total)
    diag = np.zeros((rows, *counts))
    minus, plus = [], []
    valid = np.ones((total, 2 * d + 1), dtype=bool)
    for i, (h, n) in enumerate(zip(hs, counts)):
        cut = (slice(None),) * (i + 1)
        lo = a_stag[i][cut + (slice(0, n),)]
        hi = a_stag[i][cut + (slice(1, n + 1),)]
        diag += (lo + hi) / h**2
        minus.append(-lo / h**2)
        plus.append(-hi / h**2)
        valid[:, i] = node[i] > 0
        valid[:, 2 * d - i] = node[i] < n - 1
    stencil = np.stack([c.reshape(rows, total) for c in minus + [diag] + plus[::-1]], axis=2)
    offsets = [-s for s in strides] + [0] + strides[::-1]
    indices = (np.arange(total)[:, None] + offsets)[valid]
    indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1))))
    return stencil[:, valid], indptr, indices, diag.reshape(rows, total)


def _block_diagonal(values: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """One CSR matrix with the block of each row of ``values`` on its diagonal."""
    import scipy.sparse as sp

    rows, nnz = values.shape
    size = len(indptr) - 1
    shift = np.arange(rows)[:, None]
    return sp.csr_matrix(
        (values.ravel(), (indices + size * shift).ravel(),
         np.append((indptr[:-1] + nnz * shift).ravel(), rows * nnz)),
        shape=(rows * size, rows * size),
    )


def _solve_pcg(alpha, Y: np.ndarray, modes) -> np.ndarray:
    """Solutions of A(y) u = 1, one row per row of ``Y``, by preconditioned CG.

    The preconditioner is z = S L^-1 (S r): L^-1 is the a == 1
    sine-transform solve and S = sqrt(c / diag(A)) the symmetric
    scaling by the diagonal, c = sum_i 2 / h_i^2 being the diagonal of L
    (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  It is spectrally
    equivalent to A, so the iteration count does not grow with N.

    All rows advance together through one block-diagonal matvec, each
    with its own step lengths.  A row stops at |r| <= CG_RTOL |b| and
    then leaves the working set, so its iterates and its result do not
    depend on the other rows.  Raises ``SolverError`` when a coefficient
    is not finite and positive, when a row is still running after 100 N
    iterations, or when a solution's backward error exceeds RESIDUAL_TOL.
    """
    a_stag = _staggered_coefficients(alpha, Y, modes)
    for a in a_stag:
        bad = ~(np.isfinite(a) & (a > 0)).reshape(len(a), -1).all(axis=1)
        if bad.any():
            raise SolverError(f"coefficient exp(kappa) at alpha = {alpha} is not finite "
                              f"and positive (row {int(np.argmax(bad))})")
    values, indptr, indices, diag = _assemble_sparse(alpha, a_stag)
    # |A| is the infinity norm, the largest absolute row sum of each block.
    norm_a = np.add.reduceat(np.abs(values), indptr[:-1], axis=1).max(axis=1)
    matrix = full = _block_diagonal(values, indptr, indices)
    rows, size = diag.shape
    tol = CG_RTOL * math.sqrt(size)
    scale = np.sqrt(sum(2.0 / h**2 for h in mesh_sizes(alpha)) / diag)
    u = np.empty((rows, size))
    work = np.arange(rows)                  # the row of Y behind each working row
    x = np.zeros((rows, size))
    r = np.ones((rows, size))
    p = scale * _sine_solve(alpha, scale * r)
    rz = np.sum(r * p, axis=1)
    # The vector updates write into tmp, which is about a tenth faster
    # than fresh temporaries on batches of 1e4 to 1e5 entries.
    tmp = np.empty_like(x)
    for _ in range(100 * size):
        q = (matrix @ p.ravel()).reshape(p.shape)
        step = (rz / np.sum(np.multiply(p, q, out=tmp), axis=1))[:, None]
        x += np.multiply(step, p, out=tmp)
        r -= np.multiply(step, q, out=tmp)
        done = np.sqrt(np.sum(np.multiply(r, r, out=tmp), axis=1)) <= tol
        if done.any():
            u[work[done]] = x[done]
            keep = ~done
            if not keep.any():
                break
            work, x, r, p, rz, scale, values = (
                a[keep] for a in (work, x, r, p, rz, scale, values))
            tmp = np.empty_like(x)
            matrix = _block_diagonal(values, indptr, indices)
        z = scale * _sine_solve(alpha, scale * r)
        rz_next = np.sum(np.multiply(r, z, out=tmp), axis=1)
        p *= (rz_next / rz)[:, None]
        p += z
        rz = rz_next
    else:
        worst = float(np.max(_row_norms(r))) / math.sqrt(size)
        raise SolverError(f"PCG at alpha = {alpha} did not converge in "
                          f"{100 * size} iterations", residual=worst)
    au = (full @ u.ravel()).reshape(u.shape)
    _check_backward_error(f"PCG solve at alpha = {alpha}", au, u, norm_a)
    return u


def solve(alpha: Sequence[int], y: Mapping[int, float], field_spec: FieldSpec) -> DiscreteSolution:
    """Solve the unit-forcing Dirichlet problem at refinement ``alpha`` and parameters ``y``.

    In 1-D the flux-form system is solved in closed form.  In higher
    dimensions constant coefficients (y = 0) are solved by sine-transform
    diagonalization and variable ones by conjugate gradients
    preconditioned with the scaled sine-transform solve; both are
    accepted only with normwise backward error
    |1 - Au| / (|A| |u| + |1|) below 1e-10.
    """
    alpha = validate_alpha(alpha)
    if len(alpha) != field_spec.d:
        raise ValueError(f"alpha has {len(alpha)} components but the field is {field_spec.d}-dimensional")
    modes = mode_ordering(field_spec)
    row = _parameter_row(y, modes)
    if len(alpha) == 1:
        (level,), (h,) = alpha, mesh_sizes(alpha)
        b, flux = _flux_form_1d(level, row, modes)
        values = np.cumsum(h * (flux[0] - _midpoints(level)) * b[0])[:-1]
        return DiscreteSolution(alpha, values)
    if not row.any():
        return DiscreteSolution(alpha, _solve_constant(alpha))
    return DiscreteSolution(alpha, _solve_pcg(alpha, row, modes)[0].reshape(interior_counts(alpha)))


def qoi(solution: DiscreteSolution, spec: QoISpec) -> float:
    """Gaussian-window average of the solution by the tensor trapezoidal rule.

    The solution extends by zero to the boundary, so interior nodes all
    carry the plain product-h weight.
    """
    if len(solution.alpha) != spec.d:
        raise ValueError(f"solution is {len(solution.alpha)}-dimensional but the window is {spec.d}-dimensional")
    cell = math.prod(mesh_sizes(solution.alpha))
    return float(spec.scale * cell * np.sum(solution.values * _window(solution.alpha, spec)))


def solve_qoi(alpha, y, field_spec: FieldSpec, qoi_spec: QoISpec) -> float:
    """F^alpha(y): the observation functional of the discrete solution."""
    row = _parameter_row(y, mode_ordering(field_spec))
    return float(solve_qoi_batch(alpha, row, field_spec, qoi_spec)[0])


def solve_qoi_batch(alpha, Y, field_spec: FieldSpec, qoi_spec: QoISpec) -> np.ndarray:
    """F^alpha at every row of ``Y``, a (P, J) array of y_1..y_J.

    In 1-D the observation of the closed-form solution is
    scale h^2 (C sum_m b_m R_m - sum_m x_m b_m R_m), with R_m the window
    summed over the nodes right of x_m.  In d > 1 the all-zero rows share
    one sine-transform solve and the others are solved by sine-transform
    preconditioned CG, in blocks of at most _BLOCK_ENTRIES // N rows of
    N unknowns.  Each row's
    value is bit-identical whatever the batch around it.
    """
    alpha = validate_alpha(alpha)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"parameters must be a (points, variables) array, got shape {Y.shape}")
    if len(alpha) != field_spec.d or qoi_spec.d != field_spec.d:
        raise ValueError("alpha, field and window disagree on the spatial dimension")
    modes = mode_ordering(field_spec)
    if len(alpha) > 1:
        window = _window(alpha, qoi_spec).ravel()
        out = np.empty(len(Y))
        varying = Y.any(axis=1)
        if not varying.all():
            out[~varying] = np.sum(_solve_constant(alpha).ravel() * window)
        todo = np.flatnonzero(varying)
        rows = max(1, _BLOCK_ENTRIES // len(window))
        for start in range(0, len(todo), rows):
            block = todo[start : start + rows]
            out[block] = np.sum(_solve_pcg(alpha, Y[block], modes) * window, axis=1)
        return qoi_spec.scale * math.prod(mesh_sizes(alpha)) * out
    (level,), (h,) = alpha, mesh_sizes(alpha)
    tail, x_tail = _window_tails(level, qoi_spec)
    out = np.empty(len(Y))
    rows = max(1, _BLOCK_ENTRIES // len(tail))
    for start in range(0, len(Y), rows):
        block = Y[start : start + rows]
        b, flux = _flux_form_1d(level, block, modes)
        out[start : start + len(block)] = (flux * (b * tail).sum(axis=1)
                                           - (b * x_tail).sum(axis=1))
    return qoi_spec.scale * h * h * out
