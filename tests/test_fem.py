import tracemalloc

import numpy as np
import pytest

from qvix import (
    DualElement,
    Grid,
    GridMismatchError,
    NodalFunction,
    SingularOperatorError,
    ThermoformingMap,
    assemble_operator,
    dual_norm,
    leq,
    sup_embedding_constant,
    v_norm,
)
from qvix.fem import TridiagonalSpd
from qvix.vi import _solve_pinned
from conftest import banded_solve, block_solve, random_dual, random_nodal


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1)
    with pytest.raises(ValueError):
        Grid(5, (1.0, 1.0))
    g = Grid(11, (0.0, 2.0))
    assert g.h == pytest.approx(0.2)
    assert np.sum(g.mass) == pytest.approx(2.0)


def test_nodal_function_validation():
    g = Grid(4)
    with pytest.raises(ValueError):
        NodalFunction(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        NodalFunction(g, [1.0, np.nan, 0.0, 0.0])
    u = NodalFunction(g, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        u.values[0] = 5.0  # read-only payload
    with pytest.raises(GridMismatchError):
        u + NodalFunction(Grid(4, (0.0, 2.0)), np.zeros(4))
    with pytest.raises(TypeError):
        u + DualElement(g, np.zeros(4))


def test_assemble_row_sums_neumann():
    # the diffusion part annihilates constants, so row sums are c * mass
    g = Grid(3)
    A = assemble_operator(g, 1.0, "neumann")
    dense = A.matrix.to_dense()
    assert np.allclose(dense.sum(axis=1), g.mass)


@pytest.mark.parametrize("n", [3, 101, 25601])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_assembled_matrix_is_an_m_matrix(bc, n):
    # every admitted c >= 0 gives a positive diagonal 2/h + c m, couplings
    # -1/h <= 0 and row sums >= 0 up to rounding: the sign pattern and weak
    # row dominance behind the discrete comparison principle
    for c in (0.0, 1e-3, 1.0, 1e3):
        if bc == "neumann" and c == 0.0:
            continue  # refused as singular
        matrix = assemble_operator(Grid(n), c, bc).matrix
        assert np.all(matrix.diag > 0)
        assert np.all(matrix.upper <= 0)
        row_sums = matrix.diag.copy()
        row_sums[:-1] += matrix.upper
        row_sums[1:] += matrix.upper
        assert np.all(row_sums >= -1e-12 * max(1.0, matrix.diag.max())), c


def test_assemble_rejects_singular_and_bad_input():
    with pytest.raises(SingularOperatorError):
        assemble_operator(Grid(2), 0.0, "neumann")
    with pytest.raises(SingularOperatorError):
        assemble_operator(Grid(2), 0.0, "dirichlet")
    with pytest.raises(ValueError):
        assemble_operator(Grid(5), -1.0, "neumann")
    with pytest.raises(ValueError):
        assemble_operator(Grid(5), 1.0, "robin")


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_assemble_refuses_a_non_finite_reaction(c, bc):
    # refused before the memo, with a text that names it
    with pytest.raises(ValueError, match="reaction coefficient must be finite"):
        assemble_operator(Grid(11), c, bc)


def test_a_refused_assembly_raises_on_every_call():
    # the inputs are checked before the memo, and a raise is never kept
    for _ in range(3):
        with pytest.raises(SingularOperatorError, match="Neumann with c = 0"):
            assemble_operator(Grid(11), 0, "neumann")
        with pytest.raises(SingularOperatorError, match="interior node"):
            assemble_operator(Grid(2), 1.0, "dirichlet")


def test_operators_are_kept_per_grid_c_and_bc():
    A = assemble_operator(Grid(101), 1, "neumann")
    assert A is assemble_operator(Grid(101), 1.0, "neumann")
    assert A is assemble_operator(Grid(101, (0.0, 1.0)), np.float64(1.0), "neumann")
    assert type(A.c) is float
    for other in (assemble_operator(Grid(101), 2.0, "neumann"),
                  assemble_operator(Grid(101), 1.0, "dirichlet"),
                  assemble_operator(Grid(101, (0.0, 2.0)), 1.0, "neumann"),
                  assemble_operator(Grid(102), 1.0, "neumann")):
        assert other is not A
    # a kept operator cannot be written through
    matrix = A.matrix
    for band in (matrix.diag, matrix.upper, matrix.pivots, matrix.multipliers, A.boundary):
        assert not band.flags.writeable
    # a thermoforming map with reaction 1 shares the (c = 1, Neumann) operator
    tmap = ThermoformingMap(NodalFunction.constant(Grid(101), 3.0), 1.0, 1.0, 0.1)
    assert tmap._op is A


def test_grids_equal_as_values_have_equal_nodes():
    # the grid's span reads -0.0 as 0.0, so a memo keyed on a grid cannot
    # hand one grid the node text of an equal one
    for span, same in (((-0.0, 1.0), (0.0, 1.0)), ((-1.0, -0.0), (-1.0, 0.0))):
        grid, other = Grid(5, span), Grid(5, same)
        assert grid == other and hash(grid) == hash(other)
        assert grid.span == same and grid.nodes.tobytes() == other.nodes.tobytes()


@pytest.mark.parametrize("bc,c", [("neumann", 1.0), ("neumann", 0.3),
                                  ("dirichlet", 0.0), ("dirichlet", 2.0)])
def test_m_matrix_structure(bc, c):
    A = assemble_operator(Grid(23), c, bc)
    assert np.all(A.matrix.diag > 0)
    assert np.all(A.matrix.upper <= 0)
    rows = A.matrix.diag.copy()
    rows[:-1] += A.matrix.upper
    rows[1:] += A.matrix.upper
    assert np.all(rows >= -1e-12)
    assert 0 < A.c_a <= A.c_b


def test_represent_solve_identity():
    g = Grid(101)
    A = assemble_operator(g, 1.0, "neumann")
    u = A.solve(DualElement.constant(g, 1.0))
    assert np.max(np.abs(u.values - 1.0)) <= 1e-12


def test_apply_constant_and_zero():
    g = Grid(51)
    A = assemble_operator(g, 1.0, "neumann")
    out = A.apply(NodalFunction.constant(g, 4.0))
    assert np.max(np.abs(out.values - 4.0)) <= 1e-10
    assert np.all(A.apply(NodalFunction.zeros(g)).values == 0.0)


def test_apply_symmetry():
    rng = np.random.default_rng(3)
    g = Grid(7)
    A = assemble_operator(g, 1.0, "neumann")
    for _ in range(20):
        u = random_nodal(g, rng)
        v = random_nodal(g, rng)
        uv = np.dot(g.mass * A.apply(u).values, v.values)
        vu = np.dot(g.mass * A.apply(v).values, u.values)
        assert abs(uv - vu) <= 1e-12


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_solve_roundtrip(bc):
    rng = np.random.default_rng(11)
    g = Grid(40)
    A = assemble_operator(g, 1.0, bc)
    u0 = random_nodal(g, rng, bc=bc)
    back = A.solve(A.apply(u0))
    assert np.max(np.abs(back.values - u0.values)) <= 1e-10


def test_discrete_maximum_principle():
    rng = np.random.default_rng(5)
    g = Grid(50)
    A = assemble_operator(g, 1.0, "neumann")
    for _ in range(50):
        f = random_dual(g, rng, 0.0, 3.0)
        assert np.all(A.solve(f).values >= -1e-12)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_discrete_comparison(bc):
    rng = np.random.default_rng(17)
    g = Grid(30)
    A = assemble_operator(g, 1.0, bc)
    for _ in range(50):
        f = random_dual(g, rng, -2.0, 2.0)
        bump = DualElement(g, rng.uniform(0.0, 1.0, g.n_nodes))
        u1 = A.solve(f)
        u2 = A.solve(f + bump)
        assert np.all(u1.values <= u2.values + 1e-12)


def test_leq():
    g = Grid(2)
    u = NodalFunction(g, [0.0, 1.0])
    assert leq(u, u, 0.0)
    with pytest.raises(GridMismatchError, match="^cannot compare functions on different grids$"):
        leq(u, NodalFunction(Grid(2, (0.0, 2.0)), [0.0, 1.0]))
    t = 0.1
    assert not leq(u, NodalFunction(g, [0.0, 1.0 - 2 * t]), t)
    rng = np.random.default_rng(9)
    g2 = Grid(12)
    for _ in range(30):
        a, b, c = (random_nodal(g2, rng) for _ in range(3))
        lo = NodalFunction(g2, np.minimum(np.minimum(a.values, b.values), c.values))
        hi = NodalFunction(g2, np.maximum(np.maximum(a.values, b.values), c.values))
        mid = NodalFunction(g2, np.median([a.values, b.values, c.values], axis=0))
        assert leq(lo, mid) and leq(mid, hi) and leq(lo, hi)


def test_norms():
    g = Grid(21)
    zero = NodalFunction.zeros(g)
    assert v_norm(zero) == 0.0
    # a constant has no Dirichlet energy; the lumped mass sums to the length 1
    const = NodalFunction.constant(g, -2.5)
    assert v_norm(const) == pytest.approx(2.5, abs=1e-14)
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = random_nodal(g, rng, -2, 2)
        assert v_norm(NodalFunction(g, np.maximum(u.values, 0.0))) <= v_norm(u) + 1e-12
        l2 = np.dot(g.mass, u.values**2)
        energy = np.dot(np.diff(u.values), np.diff(u.values)) / g.h
        assert v_norm(u) ** 2 == pytest.approx(l2 + energy, rel=1e-12)


def test_dual_norm_constant():
    g = Grid(41)
    f = DualElement.constant(g, 3.0)
    # Riesz representative of a constant density is the same constant
    assert dual_norm(f) == pytest.approx(3.0, abs=1e-10)


@pytest.mark.parametrize("bc,c", [("neumann", 1.0), ("neumann", 0.4),
                                  ("dirichlet", 0.0), ("dirichlet", 1.5)])
def test_coercivity_and_boundedness(bc, c):
    rng = np.random.default_rng(23)
    g = Grid(25)
    A = assemble_operator(g, c, bc)
    for _ in range(100):
        u = random_nodal(g, rng, -2, 2, bc=bc)
        v = random_nodal(g, rng, -2, 2, bc=bc)
        Au = g.mass * A.apply(u).values
        assert np.dot(Au, u.values) >= A.c_a * v_norm(u) ** 2 - 1e-10
        assert abs(np.dot(Au, v.values)) <= A.c_b * v_norm(u) * v_norm(v) + 1e-10


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_t_monotonicity(bc):
    rng = np.random.default_rng(31)
    g = Grid(25)
    A = assemble_operator(g, 1.0, bc)
    for _ in range(100):
        u = random_nodal(g, rng, -2, 2, bc=bc)
        up = NodalFunction(g, np.maximum(u.values, 0.0))
        um = np.maximum(-u.values, 0.0)
        assert np.dot(g.mass * A.apply(up).values, um) <= 1e-12


def test_sup_embedding_constant_matches_continuum():
    # on (0,1) the sharp constant is sqrt(coth(1)), attained at the endpoints
    k = sup_embedding_constant(Grid(400))
    assert k == pytest.approx(np.sqrt(1.0 / np.tanh(1.0)), abs=5e-3)


@pytest.mark.parametrize("span", [(0.0, 1.0), (1.0, 1.5), (-2.0, 0.0)])
@pytest.mark.parametrize("n", [2, 3, 17, 101, 1601])
def test_sup_embedding_constant_matches_dense_inverse(n, span):
    grid = Grid(n, span)
    h1 = assemble_operator(grid, 1.0, "neumann").matrix
    dense = np.sqrt(np.max(np.diag(np.linalg.inv(h1.to_dense()))))
    # a diagonal entry of the inverse is 1/(p + q - a) with pivots p, q of the
    # size of a, so both sides carry roundoff of about eps * max(a) * K^2; on
    # (1, 1.5) at n=1601 the dense inverse is itself 3.6e-12 off the exact value
    rtol = max(1e-12, 16 * np.finfo(float).eps * h1.diag.max() * dense**2)
    assert sup_embedding_constant(grid) == pytest.approx(dense, rel=rtol, abs=0.0)


@pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
def test_sup_embedding_constant_fine_grid_matches_continuum(length):
    # on (0, L) the sharp constant is sqrt(coth(L)), attained at the endpoints
    k = sup_embedding_constant(Grid(25601, (0.0, length)))
    assert k == pytest.approx(np.sqrt(1.0 / np.tanh(length)), abs=1e-6)


def test_sup_embedding_constant_memory_is_linear():
    grid = Grid(25601)
    tracemalloc.start()
    try:
        sup_embedding_constant(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # a dense inverse would need 2 * 8 * n^2 = 10 GB


def test_dirichlet_solve_vanishes_on_boundary():
    g = Grid(17)
    A = assemble_operator(g, 0.0, "dirichlet")
    u = A.solve(DualElement.constant(g, 1.0))
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert np.all(u.values >= 0.0)


@pytest.mark.parametrize("n", [2, 3, 101, 1601])
def test_tridiagonal_solve_matches_solveh_banded_bitwise(n):
    rng = np.random.default_rng(n)
    upper = -rng.uniform(0.1, 1.0, n - 1)
    diag = rng.uniform(0.5, 1.5, n) + 2.0
    matrix = TridiagonalSpd(diag, upper)
    # repeated solves on one object use the factor of its construction
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=n)):
        x = matrix.solve(rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, banded_solve(diag, upper, rhs))
        # each column of a multi-column solve is its own 1-D solve
        for j in range(rhs.shape[1] if rhs.ndim == 2 else 0):
            assert np.array_equal(x[:, j], matrix.solve(np.ascontiguousarray(rhs[:, j])))
    if n >= 3:
        pinned = rng.uniform(size=n) < 0.5
        rhs = np.where(pinned, 0.0, rng.normal(size=n))
        x = matrix._identity_rows(pinned).solve(rhs)
        assert x.tobytes() == block_solve(matrix, pinned, rhs).tobytes()


def test_tridiagonal_refuses_a_1x1_matrix():
    with pytest.raises(ValueError, match="need at least 2 rows, got 1"):
        TridiagonalSpd([2.0], [])
    with pytest.raises(ValueError, match="need at least 2 rows, got 0"):
        TridiagonalSpd([], [])


def test_tridiagonal_refuses_an_upper_band_of_another_length():
    for upper in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="^upper band must have length n-1$"):
            TridiagonalSpd([4.0, 4.0, 4.0], upper)


def test_operator_refuses_a_function_or_load_on_another_grid():
    g, other = Grid(8), Grid(8, (0.0, 2.0))
    A = assemble_operator(g, 1.0, "neumann")
    with pytest.raises(GridMismatchError, match="^function grid does not match operator grid$"):
        A.apply(NodalFunction.zeros(other))
    with pytest.raises(GridMismatchError, match="^load grid does not match operator grid$"):
        A.solve(DualElement.constant(other, 1.0))


def test_tridiagonal_solve_rejects_indefinite_matrix():
    # refused at construction, where the matrix is factored
    with pytest.raises(SingularOperatorError,
                       match=r"^matrix is not positive definite \(leading minor 2\)$"):
        TridiagonalSpd([1.0, 1.0, 1.0], [-2.0, 0.0])


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_identity_rows_set_the_masked_rows_and_columns_to_the_identity(bc):
    n = 201
    matrix = assemble_operator(Grid(n), 1.0, bc).matrix
    rng = np.random.default_rng(5)
    rhs_full = rng.normal(size=n)
    empty = np.zeros(n, dtype=bool)
    for mask in (rng.uniform(size=n) < 0.3, rng.uniform(size=n) < 0.7, empty):
        system = matrix._identity_rows(mask)
        identity_rows = np.eye(n)[mask]
        dense = matrix.to_dense()
        dense[mask], dense[:, mask] = identity_rows, identity_rows.T
        assert np.array_equal(system.to_dense(), dense)
        rhs = np.where(mask, 0.0, rhs_full)
        assert system.solve(rhs).tobytes() == block_solve(matrix, mask, rhs).tobytes()
    assert matrix._identity_rows(np.ones(n, dtype=bool)) is None  # nothing to solve
    assert matrix._identity_rows(empty) is matrix  # nothing to pin: no copy to factor
    # the pinned solve with nothing pinned keeps the bits of a solve of a fresh copy
    mass = Grid(n).mass
    load = rng.normal(size=n)
    u, lam = _solve_pinned(matrix, mass, load, rng.normal(size=n), empty)
    copy = TridiagonalSpd(matrix.diag, matrix.upper)
    assert u.tobytes() == copy.solve(load - matrix.matvec(np.zeros(n))).tobytes()
    assert lam.tobytes() == np.zeros(n).tobytes()
