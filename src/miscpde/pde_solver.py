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
other rows run one conjugate-gradient iteration with separate scalars
per row, preconditioned by the same sine-transform solve with diagonal
scaling around it.  Each block of rows builds its operators once, as a
flat stencil (a diagonal and one coupling per axis), and applies them
with shifted contiguous slices; no matrix is assembled.  A row that has
converged stays in the block with its iterate frozen until the last
row converges, and one backward-error check covers the block.  Each
row's value is bit-identical whatever the batch around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np

# a_on_axes is unused here; perfbench/tracer.py wraps it by the name pde_solver.a_on_axes.
from .random_field import FieldSpec, Mode, _check_active, a_on_axes, mode_ordering  # noqa: F401

# The solver needs numpy alone: its sine transforms are dense matrix
# products and numpy's real FFT, so no run loads scipy.


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

# A row still running after this many iterations raises.  The sine-transform
# preconditioner keeps the count independent of the grid: at y = +-1 in every
# mode, the 3-D field of nu = 4.5 takes at most 8 iterations, nu = 2.5 with 40
# modes 11, and nu = 0.6 with 80 modes, a coefficient contrast of about 1e8,
# 30.  A broken preconditioner fails here, not after a count that grows with N.
PCG_MAX_ITERATIONS = 100

# Rows x unknowns (midpoints in 1-D) held in one batch temporary (64 KiB
# of float64).  The d > 1 CG holds about twenty such arrays, each the
# size of the whole block until its last row converges: halving the block
# from 1 << 14 lowered the 3-D benchmark's peak RSS from 35.1 to 33.8 MB
# with no change in its wall time, and blocks four times larger than
# 1 << 14 had raised it by 2 MB, for no speedup.
_BLOCK_ENTRIES = 1 << 13


class SolverError(RuntimeError):
    """Linear solve failed to reach the required residual; ``row`` is the
    parameter row at fault, numbered within the whole batch, if there is one."""

    def __init__(self, message: str, residual: float | None = None, row: int | None = None):
        super().__init__(message)
        self.residual, self.row = residual, row

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.row is None else f"{message} (row {self.row})"


def validate_alpha(alpha: Sequence[int]) -> tuple[int, ...]:
    alpha = tuple(int(a) for a in alpha)
    if not alpha or any(a < 1 for a in alpha):
        raise ValueError(f"refinement levels must be positive integers, got {alpha}")
    return alpha


@lru_cache(maxsize=None)
def mesh_sizes(alpha: tuple[int, ...]) -> tuple[float, ...]:
    """Per-dimension mesh sizes h_i = h_0 * 2^(-alpha_i) with h_0 = 1/3."""
    return tuple(H0 * 2.0 ** (-a) for a in validate_alpha(alpha))


@lru_cache(maxsize=None)
def interior_counts(alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Interior nodes per dimension: 1/h_i - 1 = 3 * 2^alpha_i - 1."""
    return tuple(3 * 2**a - 1 for a in validate_alpha(alpha))


def unknowns(alpha: tuple[int, ...]) -> int:
    """Total number of interior unknowns; the work unit of all cost accounting."""
    return math.prod(interior_counts(alpha))


def interior_axes(alpha: tuple[int, ...]) -> tuple[np.ndarray, ...]:
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


@lru_cache(maxsize=8)
def _window(alpha: tuple[int, ...], spec: QoISpec) -> np.ndarray:
    """The Gaussian window on the interior nodes, shaped like the solution."""
    gaussians = [np.exp(-((ax - c) ** 2) / (2.0 * spec.sigma**2))
                 for ax, c in zip(interior_axes(alpha), spec.x0)]
    return _frozen(reduce(np.multiply.outer, gaussians))


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
        raise SolverError(f"1-D closed-form solve at level {level} lost the boundary "
                          f"condition: sum of 1/a = {float(sum_b[bad])!r}", row=bad)
    return b, flux


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    return np.einsum("...j,...j->...", a, b)


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(x, x))


def _check_backward_error(what: str, au: np.ndarray, u: np.ndarray, norm_a,
                          rows: np.ndarray | None = None) -> None:
    """Accept solutions of A u = 1 whose normwise backward error
    |1 - Au| / (|A| |u| + |1|) is at most RESIDUAL_TOL, row by row.
    ``rows`` numbers the rows of ``u``; the error names the first that fails.

    The plain relative residual |1 - Au| / |1| would not do: rounding
    alone takes it past 1e-10 on grids as anisotropic as alpha = (1, 1, 10).
    """
    rhs = np.ones_like(au)
    error = _row_norms(rhs - au) / (norm_a * _row_norms(u) + _row_norms(rhs))
    passed = error <= RESIDUAL_TOL          # NaN fails
    if not passed.all():
        worst = float(np.max(error))
        row = None if rows is None else int(rows[np.argmin(passed)])
        raise SolverError(f"{what} has backward error {worst:.3e}", residual=worst, row=row)


@lru_cache(maxsize=8)
def _laplacian_eigenvalues(alpha: tuple[int, ...]) -> np.ndarray:
    """Eigenvalues sum_i (2 - 2 cos(pi k_i / (n_i + 1))) / h_i^2 of the a == 1
    operator, one per sine mode k, shaped like the grid."""
    lams = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h**2
            for n, h in zip(interior_counts(alpha), mesh_sizes(alpha))]
    return _frozen(reduce(np.add.outer, lams))


# Grid lines up to this length take the type-I sine transform as a product
# with a cached dense sine matrix; longer ones take numpy's real FFT of the
# odd extension.  Per-axis times on a batch of about 16384 entries, one
# BLAS thread, a shared 2-core Xeon (matrix / FFT): n = 95 at 0.56-1.06e-4
# / 1.07-1.95e-4 s, n = 191 at 1.22-2.49e-4 / 1.37-2.33e-4 s, n = 383 at
# 2.75-3.84e-4 / 1.27-1.62e-4 s.  The matrices of n <= 191 (levels 1-6)
# take 0.4 MB together.
_SINE_MATRIX_MAX = 191


@lru_cache(maxsize=None)
def _sine_matrix(n: int) -> np.ndarray:
    """The symmetric n x n type-I sine matrix sin(pi j k / (n + 1)), j, k = 1..n.

    j k is reduced modulo 2 (n + 1) first, so every sine argument lies
    in [0, 2 pi) and each entry keeps full relative accuracy.
    """
    k = np.arange(1, n + 1)
    return _frozen(np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1)))


def _axis_slice(axis: int, start, stop) -> tuple[slice, ...]:
    return (slice(None),) * axis + (slice(start, stop),)


def _sine_fft(lines: np.ndarray, axis: int) -> np.ndarray:
    """sum_j x_j sin(pi j k / (n + 1)) along ``axis`` of a 3-D array by
    numpy's real FFT: at k = 1..n, the FFT of the odd extension
    (0, x, 0, -reversed x), of length 2 (n + 1), is -2i times that sum."""
    n = lines.shape[axis]
    shape = list(lines.shape)
    shape[axis] = 2 * n + 2
    odd = np.zeros(shape)
    odd[_axis_slice(axis, 1, n + 1)] = lines
    odd[_axis_slice(axis, n + 2, None)] = -np.flip(lines, axis)
    return -0.5 * np.fft.rfft(odd, axis=axis).imag[_axis_slice(axis, 1, n + 1)]


def _sine_transform(x: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """The type-I sine transform sum_j x_j sin(pi j k / (n_i + 1)) along each
    grid axis of every row of ``x``, a (P, N) array; it is its own inverse
    up to the factor prod 2 / (n_i + 1).

    Each matrix product is a stack of products over one row's grid lines,
    whose shapes do not depend on P, and the FFT acts on single lines, so
    each row's result does not depend on the other rows.
    """
    rows = len(x)
    for i, n in enumerate(counts):
        before, after = math.prod(counts[:i]), math.prod(counts[i + 1 :])
        if after == 1:
            lines = x.reshape(rows, before, n)
            x = lines @ _sine_matrix(n) if n <= _SINE_MATRIX_MAX else _sine_fft(lines, 2)
        else:
            lines = x.reshape(rows * before, n, after)
            x = _sine_matrix(n) @ lines if n <= _SINE_MATRIX_MAX else _sine_fft(lines, 1)
    return x.reshape(rows, -1)


@lru_cache(maxsize=8)
def _sine_divisors(alpha: tuple[int, ...]) -> np.ndarray:
    """prod 2 / (n_i + 1) over the eigenvalues of the a == 1 operator,
    the diagonal of its inverse between two sine transforms, flattened."""
    scale = math.prod(2.0 / (n + 1) for n in interior_counts(alpha))
    return _frozen((scale / _laplacian_eigenvalues(alpha)).ravel())


def _sine_solve(alpha: tuple[int, ...], r: np.ndarray) -> np.ndarray:
    """L^-1 r for every row of ``r``, a (P, N) array, with L the a == 1 operator.

    L is separable, so the type-I sine transform along each axis
    diagonalizes it (a direct method).  The transforms act on the grid
    axes only, so each row's result does not depend on the other rows.
    """
    counts = interior_counts(alpha)
    return _sine_transform(_sine_transform(r, counts) * _sine_divisors(alpha), counts)


def _solve_constant(alpha: tuple[int, ...]) -> np.ndarray:
    """The a == 1 solution, the sine-transform solve of a row of ones.

    It is checked with one apply of the a == 1 stencil: diagonal
    c = sum_i 2 / h_i^2, and coupling 1 / h_i^2 along axis i, 0 at the
    last node of each grid line; |A| is its largest eigenvalue.
    """
    counts = interior_counts(alpha)
    u = _sine_solve(alpha, np.ones((1, math.prod(counts))))
    couplings = []
    for i, h in enumerate(mesh_sizes(alpha)):
        w = np.full(counts, 1.0 / h**2)
        w[_axis_slice(i, -1, None)] = 0.0
        couplings.append((math.prod(counts[i + 1 :]), w.reshape(1, -1)))
    diag = np.full_like(u, sum(2.0 / h**2 for h in mesh_sizes(alpha)))
    _check_backward_error(f"sine-transform solve at alpha = {alpha}",
                          _apply(diag, couplings, u), u, _laplacian_eigenvalues(alpha).max())
    return u[0].reshape(counts)


@lru_cache(maxsize=64)
def _trig_table(level: int, modes: tuple[Mode, ...], axis: int, staggered: bool) -> np.ndarray:
    """The (K, n) trig factors of all K modes along ``axis``, at the midpoints or the nodes."""
    rows = [_axis_trig(level, mode.k[axis], mode.ell[axis], staggered) for mode in modes]
    return _frozen(np.array(rows).reshape(len(modes), interior_counts((level,))[0] + staggered))


def _operator(alpha: tuple[int, ...], Y: np.ndarray, modes) -> tuple:
    """The flux-form operators A(y) of the rows of ``Y`` as a flat stencil:
    each one's (P, N) diagonal, one (stride, w) coupling per axis, and its
    infinity norm.  ``w[:, k]`` couples node k to node k + stride and is 0
    at the last node of each grid line, whose neighbour is a Dirichlet value.

    The coefficients a / h_i^2 live on the dim-i face grid (midpoints
    along axis i), built one at a time: node m along axis i gains faces m
    and m + 1 on its diagonal and couples to node m + 1 through face m + 1.
    Raises ``SolverError`` when a coefficient is not finite and positive.
    """
    _active_columns(Y, modes)               # rejects nonzero columns past the modes
    counts = interior_counts(alpha)
    rows, size = len(Y), math.prod(counts)
    scaled = np.zeros((rows, len(modes)))   # amplitude_j y_j, all K = len(modes) columns
    scaled[:, : Y.shape[1]] = Y[:, : len(modes)]
    scaled *= np.array([mode.amplitude for mode in modes])
    diag, couplings = np.zeros((rows, size)), []
    for i, h in enumerate(mesh_sizes(alpha)):
        *leading, last = [_trig_table(level, modes, axis, axis == i)
                          for axis, level in enumerate(alpha)]
        # psi_j / A_j = lead[j, l] last[j, b] over the grid lines l along the
        # last axis, so kappa is one (L, K) @ (K, n) product per row, whose
        # shapes do not depend on P: no row's kappa depends on the batch.
        lead = leading[0]
        for factor in leading[1:]:
            lines = lead.shape[1] * factor.shape[1]
            lead = (lead[:, :, None] * factor[:, None, :]).reshape(len(modes), lines)
        with np.errstate(over="ignore", invalid="ignore"):
            a = (lead.T @ (scaled[:, :, None] * last)).reshape(rows, -1)
            np.exp(a, out=a)
        # NaN fails both comparisons.
        bad = ~((a.min(axis=1) > 0) & (a.max(axis=1) < np.inf))
        if bad.any():
            raise SolverError(f"coefficient exp(kappa) at alpha = {alpha} is not finite "
                              f"and positive", row=int(np.argmax(bad)))
        a /= h**2
        n, stride = counts[i], math.prod(counts[i + 1 :])
        faces = a.reshape(rows, -1, n + 1, stride)
        w = np.empty((rows, size))
        east = w.reshape(rows, -1, n, stride)
        east[...] = faces[:, :, 1:]
        diag += w
        diag.reshape(rows, -1, n, stride)[...] += faces[:, :, :-1]
        east[:, :, -1] = 0.0
        couplings.append((stride, w))
        del a, faces
    # |A| sums the diagonal and both couplings of each node along each axis.
    total = diag.flatten()
    for stride, w in couplings:
        total += w.reshape(-1)
        total[stride:] += w.reshape(-1)[:-stride]
    return diag, couplings, total.reshape(rows, size).max(axis=1)


def _apply(diag: np.ndarray, couplings, u: np.ndarray) -> np.ndarray:
    """A u for every row of ``u``, a (P, N) array, from ``_operator``'s
    stencil: diag u - w u[+stride] - w u[-stride] along each axis, on
    contiguous slices of the flattened rows.  A shift leaves a grid line,
    or a row, only where w is 0, so for finite u no row's result depends
    on the other rows.
    """
    au = diag * u
    flat, shifted = au.reshape(-1), u.reshape(-1)
    for stride, w in couplings:
        inner = w.reshape(-1)[:-stride]
        flat[:-stride] -= inner * shifted[stride:]
        flat[stride:] -= inner * shifted[:-stride]
    return au


def _solve_pcg(alpha, Y: np.ndarray, modes) -> np.ndarray:
    """Solutions of A(y) u = 1, one row per row of ``Y``, by preconditioned CG.

    The preconditioner is z = S L^-1 (S r): L^-1 is the a == 1
    sine-transform solve and S = sqrt(c / diag(A)) the symmetric
    scaling by the diagonal, c = sum_i 2 / h_i^2 being the diagonal of L
    (Concus & Golub, SIAM J. Numer. Anal. 10, 1973).  It is spectrally
    equivalent to A, so the iteration count does not grow with N.

    The operators are built once (``_operator``), and all rows advance
    together through one stencil apply (``_apply``), each with its own
    step lengths.  A row stops at |r| <= CG_RTOL |b| and from then on
    takes step 0 and direction factor 0, so its iterate stays as it was
    and its result does not depend on the other rows.  When every row
    has stopped, one more apply checks the backward error of the block.
    Raises ``SolverError`` when a coefficient is not finite and positive,
    when a row is still running after PCG_MAX_ITERATIONS, or when a
    solution's backward error exceeds RESIDUAL_TOL; that error names the
    row of ``Y``.
    """
    diag, couplings, norm_a = _operator(alpha, Y, modes)
    rows, size = diag.shape
    tol = CG_RTOL * math.sqrt(size)
    scale = np.sqrt(sum(2.0 / h**2 for h in mesh_sizes(alpha)) / diag)
    running = np.ones(rows, dtype=bool)
    x = np.zeros((rows, size))
    r = np.ones((rows, size))
    p = scale * _sine_solve(alpha, scale * r)
    rz = _dot(r, p)
    # The vector updates write into tmp, one buffer for the whole block,
    # which is about a tenth faster than fresh temporaries on batches of
    # 1e4 to 1e5 entries.
    tmp = np.empty_like(x)
    for _ in range(PCG_MAX_ITERATIONS):
        q = _apply(diag, couplings, p)
        step = np.divide(rz, _dot(p, q), out=np.zeros(rows), where=running)[:, None]
        x += np.multiply(step, p, out=tmp)
        r -= np.multiply(step, q, out=tmp)
        running &= ~(_row_norms(r) <= tol)      # NaN keeps running
        if not running.any():
            break
        z = scale * _sine_solve(alpha, scale * r)
        rz_next = _dot(r, z)
        p *= np.divide(rz_next, rz, out=np.zeros(rows), where=running)[:, None]
        p += z
        rz = rz_next
    else:
        worst = float(np.max(_row_norms(r[running]))) / math.sqrt(size)
        raise SolverError(f"PCG at alpha = {alpha} did not converge in "
                          f"{PCG_MAX_ITERATIONS} iterations", residual=worst)
    _check_backward_error(f"PCG solve at alpha = {alpha}", _apply(diag, couplings, x), x,
                          norm_a, np.arange(rows))
    return x


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
    N unknowns.  Each row's value is bit-identical whatever the batch
    around it.
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
            try:
                out[block] = np.sum(_solve_pcg(alpha, Y[block], modes) * window, axis=1)
            except SolverError as error:
                error.row = None if error.row is None else int(block[error.row])
                raise
        return qoi_spec.scale * math.prod(mesh_sizes(alpha)) * out
    (level,), (h,) = alpha, mesh_sizes(alpha)
    tail, x_tail = _window_tails(level, qoi_spec)
    out = np.empty(len(Y))
    rows = max(1, _BLOCK_ENTRIES // len(tail))
    for start in range(0, len(Y), rows):
        block = Y[start : start + rows]
        try:
            b, flux = _flux_form_1d(level, block, modes)
        except SolverError as error:
            error.row += start
            raise
        out[start : start + len(block)] = (flux * (b * tail).sum(axis=1)
                                           - (b * x_tail).sum(axis=1))
    return qoi_spec.scale * h * h * out
