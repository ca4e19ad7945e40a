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
from qvix.vi import VI_TOL, _solve_pinned, _update_rule, complementarity_residual


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


def record_pdas_calls(monkeypatch):
    """A list that gains ``(module, args, result)`` at every call of
    ``vi._pdas``, wherever qvix binds it: the obstacle solves (``qvix.vi``,
    the nested coarse solves included) and the derivative's cone solves
    (``qvix.sensitivity``).  ``args`` is the posed problem ``(matrix,
    mass, load, target, eq_mask, free_mask)``."""
    calls = []
    pdas = qvix.vi._pdas
    for module in (qvix.vi, qvix.sensitivity):
        def recording(*args, _module=module.__name__, **kwargs):
            result = pdas(*args, **kwargs)
            calls.append((_module, args[:6], result))
            return result

        monkeypatch.setattr(module, "_pdas", recording)
    return calls


def assert_valid_exit(args, result):
    """Check one ``_pdas`` exit on its posed problem and name its kind.

    A point that is the pinned solve of the returned set, which the
    update rule selects again, ended on a settled set: its
    complementarity residual is exactly 0.0.  Any other point ended on
    the residual test: at most ``VI_TOL``.
    """
    matrix, mass, load, target, eq_mask, free_mask = args
    u, lam, active, _ = result
    residual = complementarity_residual(u, target, lam, eq_mask, free_mask)
    pinned_u, pinned_lam = _solve_pinned(matrix, mass, load, target, eq_mask | active)
    if np.array_equal(pinned_u, u) and np.array_equal(pinned_lam, lam) and \
            np.array_equal(_update_rule(u, lam, target, ~(eq_mask | free_mask)), active):
        assert residual == 0.0, f"settled exit at residual {residual:.3e}"
        return "settled"
    assert residual <= VI_TOL, f"residual exit at residual {residual:.3e}"
    return "residual"
