import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from qvix import (
    DualElement,
    Grid,
    GridMismatchError,
    NodalFunction,
    SingularOperatorError,
    assemble_operator,
    dual_norm,
    h_norm,
    leq,
    pair,
    positive_part,
    seminorm,
    sup_embedding_constant,
    v_norm,
)
from qvix.fem import TridiagonalSpd, _h1_matrix
from conftest import random_dual, random_nodal


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


def test_assemble_rejects_singular_and_bad_input():
    with pytest.raises(SingularOperatorError):
        assemble_operator(Grid(2), 0.0, "neumann")
    with pytest.raises(SingularOperatorError):
        assemble_operator(Grid(2), 0.0, "dirichlet")
    with pytest.raises(ValueError):
        assemble_operator(Grid(5), -1.0, "neumann")
    with pytest.raises(ValueError):
        assemble_operator(Grid(5), 1.0, "robin")


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
        assert abs(pair(A.apply(u), v) - pair(A.apply(v), u)) <= 1e-12


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


def test_positive_part():
    g = Grid(3)
    u = NodalFunction(g, [-1.0, 2.0, 0.0])
    assert np.array_equal(positive_part(u).values, [0.0, 2.0, 0.0])
    v = NodalFunction(g, [0.5, 2.0, 0.0])
    assert np.array_equal(positive_part(v).values, v.values)
    rng = np.random.default_rng(1)
    w = random_nodal(g, rng, -3, 3)
    recomposed = positive_part(w) - positive_part(-w)
    assert np.array_equal(recomposed.values, w.values)


def test_leq():
    g = Grid(2)
    u = NodalFunction(g, [0.0, 1.0])
    assert leq(u, u, 0.0)
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
    assert v_norm(zero) == 0.0 and h_norm(zero) == 0.0
    const = NodalFunction.constant(g, -2.5)
    assert h_norm(const) == pytest.approx(2.5, abs=1e-14)
    assert seminorm(const) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = random_nodal(g, rng, -2, 2)
        assert v_norm(positive_part(u)) <= v_norm(u) + 1e-12
        assert v_norm(u) ** 2 == pytest.approx(h_norm(u) ** 2 + seminorm(u) ** 2, rel=1e-12)


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
        energy = pair(A.apply(u), u)
        assert energy >= A.c_a * v_norm(u) ** 2 - 1e-10
        assert abs(pair(A.apply(u), v)) <= A.c_b * v_norm(u) * v_norm(v) + 1e-10


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_t_monotonicity(bc):
    rng = np.random.default_rng(31)
    g = Grid(25)
    A = assemble_operator(g, 1.0, bc)
    for _ in range(100):
        u = random_nodal(g, rng, -2, 2, bc=bc)
        up = positive_part(u)
        um = positive_part(-u)
        assert pair(A.apply(up), um) <= 1e-12


def test_sup_embedding_constant_matches_continuum():
    # on (0,1) the sharp constant is sqrt(coth(1)), attained at the endpoints
    k = sup_embedding_constant(Grid(400))
    assert k == pytest.approx(np.sqrt(1.0 / np.tanh(1.0)), abs=5e-3)


@pytest.mark.parametrize("span", [(0.0, 1.0), (1.0, 1.5), (-2.0, 0.0)])
@pytest.mark.parametrize("n", [2, 3, 17, 101, 1601])
def test_sup_embedding_constant_matches_dense_inverse(n, span):
    grid = Grid(n, span)
    h1 = _h1_matrix(grid)
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


def _banded_reference(matrix, rhs):
    ab = np.zeros((2, matrix.n))
    ab[0, 1:] = matrix.upper
    ab[1, :] = matrix.diag
    return solveh_banded(ab, rhs)


@pytest.mark.parametrize("n", [1, 2, 3, 101, 1601])
def test_tridiagonal_solve_matches_solveh_banded_bitwise(n):
    rng = np.random.default_rng(n)
    upper = -rng.uniform(0.1, 1.0, n - 1)
    diag = rng.uniform(0.5, 1.5, n) + 2.0
    matrix = TridiagonalSpd(diag, upper)
    # repeated solves on one object reuse its cached factor
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=n)):
        x = matrix.solve(rhs)
        # banded LAPACK rejects a 1x1 system; that case divides
        ref = rhs / diag if n == 1 else _banded_reference(matrix, rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, ref)
        # each column of a multi-column solve is its own 1-D solve
        for j in range(rhs.shape[1] if rhs.ndim == 2 else 0):
            assert np.array_equal(x[:, j], matrix.solve(np.ascontiguousarray(rhs[:, j])))
    if n >= 3:
        idx = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
        sub = matrix.submatrix(idx)
        rhs = rng.normal(size=idx.size)
        assert np.array_equal(sub.solve(rhs), _banded_reference(sub, rhs))


def test_tridiagonal_solve_rejects_indefinite_matrix():
    matrix = TridiagonalSpd([1.0, 1.0, 1.0], [-2.0, 0.0])
    with pytest.raises(SingularOperatorError, match="not positive definite"):
        matrix.solve(np.ones(3))
    with pytest.raises(SingularOperatorError):  # the failed factor is not cached
        matrix.solve(np.ones(3))
