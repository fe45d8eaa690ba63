import math

import numpy as np
import pytest

from miscpde import FieldSpec, default_qoi_spec
from miscpde.misc_core import MiscEvaluator
from miscpde.pde_solver import _flux_form_1d, _midpoints, _window, interior_axes, mesh_sizes
from miscpde.random_field import a_on_axes, mode_ordering


@pytest.fixture(scope="session")
def field1():
    return FieldSpec(d=1, nu=2.5, max_modes=8)


@pytest.fixture(scope="session")
def qoi1():
    return default_qoi_spec(1)


@pytest.fixture(scope="session")
def field3():
    return FieldSpec(d=3, nu=4.5, max_modes=10)


@pytest.fixture(scope="session")
def qoi3():
    return default_qoi_spec(3)


@pytest.fixture(scope="session")
def oracle_coefficients():
    """The forward-offset combination coefficients of ``test_misc_core``,
    an independent route for tests of other modules."""
    from test_misc_core import oracle_coefficients

    return oracle_coefficients


@pytest.fixture(scope="session")
def shared_evaluator1(field1, qoi1):
    """One warm cache for tests that only read estimator values."""
    return MiscEvaluator(field1, qoi1)


@pytest.fixture(scope="session")
def field_1d():
    """The 1-D discrete solution at one parameter row, from the closed
    form's own b = 1/a and flux constant C: u = cumsum(h (C - x_m) b),
    whose last entry is the boundary value u_{n+1} = 0."""

    def build(level, row, field_spec):
        (h,) = mesh_sizes((level,))
        b, flux = _flux_form_1d(level, np.atleast_2d(row), mode_ordering(field_spec))
        return np.cumsum(h * (flux[0] - _midpoints(level)) * b[0])[:-1]

    return build


@pytest.fixture(scope="session")
def window_average():
    """The quantity of interest of nodal values on the interior grid: the
    window-weighted tensor trapezoidal sum, every interior node carrying
    the plain product-h weight, since the solution is 0 on the boundary."""

    def average(alpha, values, spec):
        window = _window(alpha, spec)
        return float(spec.scale * math.prod(mesh_sizes(alpha))
                     * np.sum(np.reshape(values, window.shape) * window))

    return average


@pytest.fixture(scope="session")
def assembled_operator():
    """Builds the flux-form CSR matrix of one parameter vector, entry by
    entry from ``random_field.a_on_axes`` on each staggered grid, as an
    oracle independent of the solver's own operator."""
    import scipy.sparse as sp

    def build(alpha, y, field_spec):
        modes = mode_ordering(field_spec)
        nodes = interior_axes(alpha)
        counts = tuple(len(axis) for axis in nodes)
        node = np.arange(math.prod(counts)).reshape(counts)
        diag = np.zeros(counts)
        rows, cols, values = [], [], []
        for i, (h, n) in enumerate(zip(mesh_sizes(alpha), counts)):
            axes = list(nodes)
            axes[i] = h * (np.arange(n + 1) + 0.5)
            a = a_on_axes(axes, y, modes) / h**2      # a on faces 0..n along axis i
            diag += np.take(a, range(n), axis=i) + np.take(a, range(1, n + 1), axis=i)
            # Nodes m and m + e_i couple through face m + 1.
            left = np.take(node, range(n - 1), axis=i).ravel()
            right = np.take(node, range(1, n), axis=i).ravel()
            face = np.take(a, range(1, n), axis=i).ravel()
            rows += [left, right]
            cols += [right, left]
            values += [-face, -face]
        rows.append(node.ravel())
        cols.append(node.ravel())
        values.append(diag.ravel())
        size = node.size
        return sp.csr_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(size, size))

    return build
