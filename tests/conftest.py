import pytest

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
