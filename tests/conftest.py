import numpy as np
import pytest

from miscpde import FieldSpec, default_qoi_spec
from miscpde.misc_core import MiscEvaluator
from miscpde.pde_solver import _assemble_sparse, _block_diagonal, interior_axes, mesh_sizes
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
def assembled_operator():
    """Builds the flux-form matrix of one parameter vector, with its
    staggered coefficients taken from ``random_field.a_on_axes``."""

    def build(alpha, y, field_spec):
        modes = mode_ordering(field_spec)
        a_stag = []
        for i, (h, axis) in enumerate(zip(mesh_sizes(alpha), interior_axes(alpha))):
            axes = list(interior_axes(alpha))
            axes[i] = h * (np.arange(len(axis) + 1) + 0.5)
            a_stag.append(a_on_axes(axes, y, modes)[None])
        values, indptr, indices, _ = _assemble_sparse(alpha, a_stag)
        return _block_diagonal(values, indptr, indices)

    return build
