import numpy as np
import pytest
from scipy.linalg import solveh_banded

import qvix.experiments
import qvix.extremal
import qvix.sensitivity
import qvix.vi
from qvix import (
    DualElement,
    Grid,
    NodalFunction,
    PlateauMap,
    assemble_operator,
)


def random_nodal(grid, rng, lo=-1.0, hi=1.0, bc=None):
    vals = rng.uniform(lo, hi, grid.n_nodes)
    if bc == "dirichlet":
        vals[0] = vals[-1] = 0.0
    return NodalFunction(grid, vals)


def random_dual(grid, rng, lo=-1.0, hi=1.0):
    return DualElement(grid, rng.uniform(lo, hi, grid.n_nodes))


def linearise(omap, u):
    """The map's linearisation at u, from u and its obstacle."""
    return omap.linearisation(u, omap.evaluate(u))


def banded_solve(diag, upper, rhs):
    """``scipy.linalg.solveh_banded`` on the tridiagonal (diag, upper)."""
    ab = np.zeros((2, diag.shape[0]))
    ab[0, 1:] = upper
    ab[1, :] = diag
    return solveh_banded(ab, rhs)


def block_solve(matrix, pinned, rhs):
    """Each run of unpinned nodes solved alone as its own principal
    submatrix; +0.0 on pinned rows.

    A run of one node divides, as LAPACK's sweeps do for a row whose
    couplings are zero (banded LAPACK drivers reject 1x1 systems).
    """
    x = np.zeros(matrix.n)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], ~pinned, [0]))))
    for a, b in zip(edges[0::2], edges[1::2]):
        x[a:b] = rhs[a:b] / matrix.diag[a:b] if b - a == 1 else \
            banded_solve(matrix.diag[a:b], matrix.upper[a:b - 1], rhs[a:b])
    return x


@pytest.fixture
def toy():
    """Two-plateau instance: constant forcing 2, levels 1 and 2."""
    grid = Grid(101)
    A = assemble_operator(grid, 1.0, "neumann")
    omap = PlateauMap(grid, [1.0, 2.0], 0.25)
    f = DualElement.constant(grid, 2.0)
    return grid, A, omap, f


@pytest.fixture
def multiplier_calls(monkeypatch):
    """A list that gains an entry at every call of ``vi.multiplier``, wherever qvix binds it."""
    calls = []
    multiplier = qvix.vi.multiplier

    def counting(*args):
        calls.append(args)
        return multiplier(*args)

    for module in (qvix.vi, qvix.extremal, qvix.sensitivity, qvix.experiments):
        monkeypatch.setattr(module, "multiplier", counting)
    return calls
