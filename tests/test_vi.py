import numpy as np
import pytest

from qvix import (
    DualElement,
    Grid,
    NodalFunction,
    ViSolveError,
    assemble_operator,
    check_comparison,
    classify_active,
    complementarity_residual,
    multiplier,
    oracle_vi,
    solve_vi,
    v_norm,
)
from conftest import random_dual, random_nodal


def test_unconstrained_constant():
    g = Grid(31)
    A = assemble_operator(g, 1.0, "neumann")
    sol = solve_vi(A, DualElement.constant(g, 1.5), NodalFunction.constant(g, 1e6))
    assert np.max(np.abs(sol.u.values - 1.5)) <= 1e-10
    assert sol.partition.inactive.size == g.n_nodes
    assert np.all(sol.lam.values == 0.0)


def test_fully_clamped_constant():
    g = Grid(31)
    A = assemble_operator(g, 1.0, "neumann")
    sol = solve_vi(A, DualElement.constant(g, 2.0), NodalFunction.constant(g, 1.0))
    assert np.all(sol.u.values == 1.0)
    assert np.max(np.abs(sol.lam.values - 1.0)) <= 1e-10
    assert sol.partition.strict.size == g.n_nodes
    assert sol.residual <= 1e-10


def test_pdas_cap_reports_unsettled_active_set(monkeypatch):
    # a cold start solves unconstrained first, so a binding obstacle needs a
    # second round; a cap of one round must raise, not return
    g = Grid(31)
    A = assemble_operator(g, 1.0, "neumann")
    monkeypatch.setattr("qvix.vi.PDAS_MAX_ITER", 1)
    with pytest.raises(ViSolveError, match="did not settle within 1 iterations"):
        solve_vi(A, DualElement.constant(g, 2.0), NodalFunction.constant(g, 1.0))


def test_matches_oracle_small_instance():
    rng = np.random.default_rng(41)
    g = Grid(6)
    A = assemble_operator(g, 1.0, "neumann")
    for _ in range(60):
        f = random_dual(g, rng, -3, 3)
        phi = random_nodal(g, rng, -1, 2)
        fast = solve_vi(A, f, phi)
        ref = oracle_vi(A, f, phi)
        assert np.max(np.abs(fast.u.values - ref.u.values)) <= 1e-10


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_matches_oracle_both_bcs(bc):
    rng = np.random.default_rng(43)
    for n in (5, 8, 10):
        g = Grid(n)
        A = assemble_operator(g, 1.0, bc)
        for _ in range(15):
            f = random_dual(g, rng, -3, 3)
            phi_vals = rng.uniform(-1, 2, n)
            if bc == "dirichlet":
                phi_vals[0] = abs(phi_vals[0])
                phi_vals[-1] = abs(phi_vals[-1])
            phi = NodalFunction(g, phi_vals)
            fast = solve_vi(A, f, phi)
            ref = oracle_vi(A, f, phi)
            assert np.max(np.abs(fast.u.values - ref.u.values)) <= 1e-9


def test_oracle_two_node_instance_by_hand():
    # n=2: A = [[1/h + h/2, -1/h], [-1/h, 1/h + h/2]] with h=1; f=(3,0), phi=(1,2).
    # Guessing the set {0}: u0=1, equation at node 1: -u0 + 1.5*u1 = 0 -> u1=2/3;
    # multiplier at node 0: (3*0.5 - (1.5*1 - 2/3))/0.5 = 4/3 > 0, u1 < 2. Unique.
    g = Grid(2)
    A = assemble_operator(g, 1.0, "neumann")
    f = DualElement(g, [3.0, 0.0])
    phi = NodalFunction(g, [1.0, 2.0])
    ref = oracle_vi(A, f, phi)
    assert np.allclose(ref.u.values, [1.0, 2.0 / 3.0], atol=1e-12)
    assert np.allclose(ref.lam.values, [4.0 / 3.0, 0.0], atol=1e-12)
    fast = solve_vi(A, f, phi)
    assert np.max(np.abs(fast.u.values - ref.u.values)) <= 1e-12


def test_oracle_active_set_extremes():
    g = Grid(6)
    A = assemble_operator(g, 1.0, "neumann")
    free = oracle_vi(A, DualElement.constant(g, 0.5), NodalFunction.constant(g, 10.0))
    assert free.partition.coincidence.size == 0
    clamped = oracle_vi(A, DualElement.constant(g, 50.0), NodalFunction.constant(g, 1.0))
    assert clamped.partition.strict.size == g.n_nodes


def test_oracle_rejects_large_grids():
    g = Grid(15)
    A = assemble_operator(g, 1.0, "neumann")
    with pytest.raises(ValueError):
        oracle_vi(A, DualElement.zeros(g), NodalFunction.zeros(g))


def test_classify_trivial_cases():
    g = Grid(9)
    A = assemble_operator(g, 1.0, "neumann")
    f = DualElement.constant(g, 2.0)
    phi = NodalFunction.constant(g, 1.0)
    part = classify_active(A, f, NodalFunction.constant(g, 1.0), phi)
    assert part.strict.size == g.n_nodes
    low = NodalFunction.constant(g, 0.5)
    part2 = classify_active(A, f, low, phi)
    assert part2.inactive.size == g.n_nodes


def test_classify_manufactured_biactive_plateau():
    # u* solves the plain equation, and the obstacle is pulled down to touch
    # it exactly on a plateau: multiplier vanishes there, so biactive.
    g = Grid(12)
    A = assemble_operator(g, 1.0, "neumann")
    u_star = NodalFunction(g, np.linspace(0.0, 1.0, 12) ** 2)
    f = A.apply(u_star)
    plateau = np.arange(4, 8)
    phi_vals = u_star.values + 1.0
    phi_vals[plateau] = u_star.values[plateau]
    phi = NodalFunction(g, phi_vals)
    sol = solve_vi(A, f, phi)
    assert np.max(np.abs(sol.u.values - u_star.values)) <= 1e-10
    part = classify_active(A, f, sol.u, phi)
    assert np.array_equal(part.biactive, plateau)
    assert part.strict.size == 0


def test_check_comparison_identical_and_bumped():
    rng = np.random.default_rng(47)
    g = Grid(30)
    A = assemble_operator(g, 1.0, "neumann")
    f = random_dual(g, rng, -1, 1)
    phi = random_nodal(g, rng, 0, 1)
    assert check_comparison(A, f, f, phi, phi)
    for _ in range(25):
        f1 = random_dual(g, rng, -2, 2)
        f2 = f1 + DualElement(g, rng.uniform(0, 1, g.n_nodes))
        phi1 = random_nodal(g, rng, -0.5, 1.0)
        phi2 = NodalFunction(g, phi1.values + rng.uniform(0, 1, g.n_nodes))
        assert check_comparison(A, f1, f2, phi1, phi1)
        assert check_comparison(A, f1, f1, phi1, phi2)


def test_check_comparison_rejects_unordered_input():
    g = Grid(8)
    A = assemble_operator(g, 1.0, "neumann")
    f_hi = DualElement.constant(g, 1.0)
    f_lo = DualElement.constant(g, 0.0)
    phi = NodalFunction.constant(g, 1.0)
    with pytest.raises(ValueError):
        check_comparison(A, f_hi, f_lo, phi, phi)


def test_continuous_dependence_on_obstacle():
    # purely algebraic bound: ratio of solution change to obstacle change
    # in the H1 norm never exceeds c_b / c_a, independently of the load
    rng = np.random.default_rng(53)
    g = Grid(30)
    A = assemble_operator(g, 1.0, "neumann")
    bound = A.c_b / A.c_a
    worst = 0.0
    for _ in range(50):
        f = random_dual(g, rng, -3, 3)
        phi1 = random_nodal(g, rng, -0.5, 1.0)
        phi2 = NodalFunction(g, phi1.values + rng.uniform(-0.3, 0.3, g.n_nodes))
        u1 = solve_vi(A, f, phi1).u
        u2 = solve_vi(A, f, phi2).u
        denom = v_norm(phi1 - phi2)
        if denom > 1e-12:
            worst = max(worst, v_norm(u1 - u2) / denom)
    assert worst <= bound + 1e-9


def test_accepted_solves_have_tiny_residuals():
    rng = np.random.default_rng(59)
    g = Grid(25)
    A = assemble_operator(g, 1.0, "neumann")
    for _ in range(40):
        phi = random_nodal(g, rng, -1, 2)
        sol = solve_vi(A, random_dual(g, rng, -3, 3), phi)
        assert sol.residual <= 1e-10
        assert np.all(sol.u.values <= phi.values + 1e-10)
        assert np.all(sol.lam.values >= -1e-10)
        assert np.max(np.abs(sol.lam.values * (phi.values - sol.u.values))) <= 1e-10


def test_dirichlet_infeasible_boundary_obstacle():
    g = Grid(9)
    A = assemble_operator(g, 1.0, "dirichlet")
    phi = NodalFunction(g, np.concatenate([[-1.0], np.ones(7), [1.0]]))
    with pytest.raises(ViSolveError):
        solve_vi(A, DualElement.zeros(g), phi)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_complementarity_residual_vanishes_at_oracle_solutions(bc):
    rng = np.random.default_rng(61)
    for n in (5, 9, 12):
        g = Grid(n)
        A = assemble_operator(g, 1.0, bc)
        boundary = np.isin(np.arange(n), A.boundary_nodes)
        for _ in range(10):
            f = random_dual(g, rng, -3, 3)
            phi_vals = rng.uniform(-1, 2, n)
            phi_vals[boundary] = np.abs(phi_vals[boundary])
            ref = oracle_vi(A, f, NodalFunction(g, phi_vals))
            res = complementarity_residual(ref.u.values, np.where(boundary, 0.0, phi_vals),
                                           multiplier(A, f, ref.u), boundary,
                                           np.zeros(n, dtype=bool))
            assert res <= 1e-10


# one node per role: equality, obstacle below contact, obstacle in contact, free
_ROLE_U = [0.0, 0.5, 1.0, 0.2]
_ROLE_TARGET = [0.0, 1.0, 1.0, 5.0]
_ROLE_LAM = [0.0, 0.0, 2.0, 0.0]


@pytest.mark.parametrize("field, node, value, expected", [
    ("u", 0, 0.3, 0.3),       # equality node off its target
    ("u", 1, 1.25, 0.25),     # obstacle node above the obstacle
    ("lam", 2, -0.5, 0.5),    # negative multiplier on contact
    ("lam", 1, 0.5, 0.25),    # multiplier times gap off contact
    ("lam", 3, 0.7, 0.7),     # multiplier on a free node
])
def test_complementarity_residual_flags_each_term(field, node, value, expected):
    eq_mask = np.array([True, False, False, False])
    free_mask = np.array([False, False, False, True])
    data = {"u": np.array(_ROLE_U), "lam": np.array(_ROLE_LAM)}
    target = np.array(_ROLE_TARGET)
    assert complementarity_residual(data["u"], target, data["lam"], eq_mask, free_mask) == 0.0
    data[field][node] = value
    res = complementarity_residual(data["u"], target, data["lam"], eq_mask, free_mask)
    assert res == pytest.approx(expected, rel=1e-15)
