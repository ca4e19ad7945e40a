import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qvix import (
    ActiveSetPartition,
    IntervalBracket,
    DualElement,
    Grid,
    GridMismatchError,
    InverseEllipticMap,
    NodalFunction,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    ViSolveError,
    assemble_operator,
    check_comparison,
    classify_active,
    complementarity_residual,
    iterate_max,
    iterate_min,
    multiplier,
    oracle_vi,
    solve_vi,
    v_norm,
)
from qvix.experiments import build_problem, parse_config
from qvix.vi import VI_TOL, _coarse_problem, _pdas, _solve_linearised, _solve_pinned
from conftest import block_solve, linearise, random_dual, random_nodal

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_unconstrained_constant():
    g = Grid(31)
    A = assemble_operator(g, 1.0, "neumann")
    f, phi = DualElement.constant(g, 1.5), NodalFunction.constant(g, 1e6)
    sol = solve_vi(A, f, phi)
    assert np.max(np.abs(sol.u.values - 1.5)) <= 1e-10
    assert classify_active(f, sol.u, phi, multiplier(A, f, sol.u)).inactive.all()
    assert np.all(sol.lam.values == 0.0)


def test_fully_clamped_constant():
    g = Grid(31)
    A = assemble_operator(g, 1.0, "neumann")
    f, phi = DualElement.constant(g, 2.0), NodalFunction.constant(g, 1.0)
    sol = solve_vi(A, f, phi)
    assert np.all(sol.u.values == 1.0)
    assert np.max(np.abs(sol.lam.values - 1.0)) <= 1e-10
    assert classify_active(f, sol.u, phi, multiplier(A, f, sol.u)).strict.all()
    assert sol.residual <= 1e-10


def test_pdas_cap_reports_unsettled_active_set(monkeypatch):
    # a cold start solves unconstrained first, so a binding obstacle needs a
    # second round; a cap of one round must raise, not return
    g = Grid(31)
    A = assemble_operator(g, 1.0, "neumann")
    monkeypatch.setattr("qvix.vi.PDAS_MAX_ITER", 1)
    with pytest.raises(ViSolveError, match="did not settle within 1 iterations"):
        solve_vi(A, DualElement.constant(g, 2.0), NodalFunction.constant(g, 1.0))


def test_pdas_cap_reports_active_set_history(monkeypatch):
    # a rising load under a sloped obstacle: a cold start takes 26 rounds
    # while the front moves; 41 nodes are too few for a nested start
    g = Grid(41)
    A = assemble_operator(g, 1.0, "neumann")
    f = DualElement(g, 4.0 * g.nodes)
    phi = NodalFunction(g, 0.5 + g.nodes)
    assert solve_vi(A, f, phi).iterations > 3
    monkeypatch.setattr("qvix.vi.PDAS_MAX_ITER", 3)
    with pytest.raises(ViSolveError, match=r"^active set did not settle within 3 iterations") \
            as err:
        solve_vi(A, f, phi)
    tail = re.search(r"sizes of the last 3 rounds, out of 41 nodes: ([\d, ]+)\)$",
                     str(err.value))
    sizes = [int(k) for k in tail.group(1).split(", ")]
    assert len(sizes) == 3 and sizes == sorted(sizes, reverse=True)
    assert len(set(sizes)) == 3  # the front moved in every round


def test_a_terminal_residual_above_vi_tol_raises(toy, monkeypatch):
    # a settled set has residual exactly 0 and a loop that ends on the
    # residual test stays within VI_TOL, so only a faulty loop trips the
    # gate: here one that returns its point 1e-9 above the obstacle
    grid, A, omap, f = toy

    def lifted(*args, **kwargs):
        u, lam, active, iters = _pdas(*args, **kwargs)
        return u + 1e-9, lam, active, iters

    monkeypatch.setattr("qvix.vi._pdas", lifted)
    with pytest.raises(ViSolveError,
                       match=r"^terminal complementarity residual 1\.0\d\de-09 exceeds 1\.0e-10$"):
        solve_vi(A, f, omap.evaluate(A.solve(f)))


def _first_obstacle_solve_data(n, bc):
    """Operator, load and obstacle of the first solve of a maximal run.

    The Neumann case is ``configs/inverse_elliptic_max.json`` on n nodes.
    The Dirichlet variant raises the forcing offset to 20 so that the
    contact set is an interior interval with two fronts.
    """
    raw = json.loads(CONFIG_DIR.joinpath("inverse_elliptic_max.json").read_text())
    raw["grid"]["n_nodes"] = n
    if bc == "dirichlet":
        raw["operator"]["bc"] = "dirichlet"
        raw["forcing"]["sine"]["offset"] = 20.0
    problem = build_problem(parse_config(raw))
    A, f = problem.operator, problem.forcing
    start = IntervalBracket.default(A, f).upper
    return A, f, problem.omap.evaluate(start)


# rounds of all levels of a cold solve, measured at most 39 (Dirichlet at
# 25601 nodes); a cold loop without the nested start needed 708 at 6401
NESTED_ROUNDS_BOUND = 40
# rounds of the first cold solve of the Neumann case, the first round of
# every level included
NEUMANN_COLD_ROUNDS = {101: 14, 401: 18, 1601: 22, 6401: 28, 25601: 34}


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("n", [101, 401, 1601, 6401, 25601])
def test_cold_solve_rounds_do_not_grow_with_the_grid(bc, n):
    A, f, phi = _first_obstacle_solve_data(n, bc)
    cold = solve_vi(A, f, phi)
    assert cold.iterations <= NESTED_ROUNDS_BOUND
    if bc == "neumann":
        assert cold.iterations == NEUMANN_COLD_ROUNDS[n]
    partition = classify_active(f, cold.u, phi, multiplier(A, f, cold.u))
    assert 0 < np.count_nonzero(partition.coincidence) < n

    def assert_cold_bits(sol):
        assert np.array_equal(sol.u.values, cold.u.values)
        assert np.array_equal(sol.lam.values, cold.lam.values)

    # the set the loop settled on: pinned rows carry the multiplier, solved rows none
    settled = cold.active
    assert np.array_equal(settled, cold.lam.values > 0)
    warm = solve_vi(A, f, phi, active0=settled)
    assert warm.iterations == 1
    assert_cold_bits(warm)
    assert np.array_equal(warm.active, settled)
    # the coincidence set holds nodes within the active tolerance of the
    # obstacle, which the settled set lacks at n >= 6401
    assert_cold_bits(solve_vi(A, f, phi, active0=partition.coincidence))

    # a wrong set's first round selects the seed of the coarse levels; an
    # empty set pins what a cold first round pins
    none = solve_vi(A, f, phi, active0=np.zeros(n, dtype=bool))
    assert_cold_bits(none)
    assert none.iterations == cold.iterations
    for shift in (3, -3):
        shifted = solve_vi(A, f, phi, active0=np.roll(settled, shift))
        assert_cold_bits(shifted)
        assert shifted.iterations <= cold.iterations + 1
    every = solve_vi(A, f, phi, active0=np.ones(n, dtype=bool))
    assert_cold_bits(every)
    if bc == "neumann":
        assert every.iterations <= cold.iterations + 1
    else:
        # from every node active, the coarsest loop releases the two fronts
        # of the interior contact set a node per round: about 20 rounds
        # more than cold
        assert every.iterations <= cold.iterations + 21


def test_first_fine_round_ends_only_on_a_settled_set():
    # toy_max's obstacle at the upper bracket touches the solution with a
    # vanishing multiplier at every node.  A cold first round solves
    # unconstrained and ends on the residual test.  Pinning every node leaves
    # a residual at roundoff as well, yet only a settled set ends that round:
    # on 129 and 401 nodes the update rule drops the nodes whose multiplier
    # rounds to a negative value, so the solve goes on and keeps the cold
    # bits; on 101 it keeps them all, a settled set that the cold end misses
    # by roundoff
    raw = json.loads(CONFIG_DIR.joinpath("toy_max.json").read_text())
    for n, every_rounds in ((101, 1), (129, 3), (401, 3)):
        raw["grid"]["n_nodes"] = n
        problem = build_problem(parse_config(raw))
        A, f = problem.operator, problem.forcing
        phi = problem.omap.evaluate(IntervalBracket.default(A, f).upper)
        cold = solve_vi(A, f, phi)
        every = solve_vi(A, f, phi, active0=np.ones(n, dtype=bool))
        assert (cold.iterations, every.iterations) == (1, every_rounds)
        assert max(cold.residual, every.residual) <= VI_TOL
        if every_rounds == 1:
            assert np.max(np.abs(every.u.values - cold.u.values)) <= VI_TOL
        else:
            assert np.array_equal(every.u.values, cold.u.values)
            assert np.array_equal(every.lam.values, cold.lam.values)


def test_nested_start_skips_levels_that_lose_the_m_matrix_sign(monkeypatch):
    # the first Galerkin off-diagonal is c h / 4 - 1 / (2 h), positive once
    # c h^2 > 2: with c = 4e5 on 401 nodes the loop runs on the fine grid only
    g = Grid(401)
    x = g.nodes
    for c, coarsens in ((1.0, True), (4e5, False)):
        A = assemble_operator(g, c, "neumann")
        f = DualElement(g, c * (1.0 + 0.5 * np.sin(2 * np.pi * x)))
        phi = NodalFunction(g, 1.0 + 0.25 * np.cos(2 * np.pi * x))
        nested = solve_vi(A, f, phi)
        with monkeypatch.context() as m:
            m.setattr("qvix.vi.NESTED_MIN_NODES", g.n_nodes)  # no coarse grid is large enough
            fine_only = solve_vi(A, f, phi)
        assert np.array_equal(nested.u.values, fine_only.u.values)
        assert (nested.iterations != fine_only.iterations) == coarsens
        assert nested.residual <= 1e-10


def test_galerkin_coarse_matrix_matches_dense_product():
    g = Grid(129)
    A = assemble_operator(g, 1.0, "dirichlet")
    n, m = g.n_nodes, (g.n_nodes + 1) // 2
    prolong = np.zeros((n, m))
    prolong[0::2, :] = np.eye(m)
    prolong[1::2, :] = 0.5 * (np.eye(m)[:-1] + np.eye(m)[1:])
    eq_mask = np.zeros(n, dtype=bool)
    eq_mask[[0, -1]] = True
    load = np.linspace(1.0, 2.0, n)
    coarse = _coarse_problem(A.matrix, g.mass, load, np.zeros(n), eq_mask,
                             np.zeros(n, dtype=bool))
    matrix_c, mass_c, load_c, _, eq_c, _ = coarse
    dense = prolong.T @ A.matrix.to_dense() @ prolong
    assert np.allclose(matrix_c.to_dense(), dense, rtol=1e-14, atol=1e-12)
    assert np.allclose(mass_c, prolong.T @ g.mass, rtol=1e-14)
    assert np.allclose(load_c, prolong.T @ load, rtol=1e-14)
    assert eq_c.tolist() == [True] + [False] * (m - 2) + [True]
    # the Dirichlet rows couple positively only to the pinned boundary nodes
    assert np.all(matrix_c.upper[1:-1] <= 0.0)


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
    f, phi = DualElement.constant(g, 0.5), NodalFunction.constant(g, 10.0)
    free = oracle_vi(A, f, phi)
    assert not classify_active(f, free.u, phi, multiplier(A, f, free.u)).coincidence.any()
    f, phi = DualElement.constant(g, 50.0), NodalFunction.constant(g, 1.0)
    clamped = oracle_vi(A, f, phi)
    assert classify_active(f, clamped.u, phi, multiplier(A, f, clamped.u)).strict.all()
    # the oracle's set is the pinned set of the candidate it picked
    assert not free.active.any() and clamped.active.all()


def test_oracle_matches_solve_vi_on_random_instances_up_to_60_nodes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def instances(draw):
        bc = draw(st.sampled_from(["neumann", "dirichlet"]))
        n = draw(st.integers(2 if bc == "neumann" else 3, 60))
        c = draw(st.floats(0.01, 10.0))
        f = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        phi = np.array(draw(st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n)))
        if bc == "dirichlet":
            phi[[0, -1]] = np.abs(phi[[0, -1]])
        g = Grid(n)
        return assemble_operator(g, c, bc), DualElement(g, f), NodalFunction(g, phi)

    @hypothesis.settings(database=None, deadline=None)
    @hypothesis.given(instances())
    def check(instance):
        A, f, phi = instance
        ref = oracle_vi(A, f, phi)
        assert np.max(np.abs(solve_vi(A, f, phi).u.values - ref.u.values)) <= 1e-9
        assert not (ref.active & A.boundary).any()
        assert np.all(ref.lam.values[ref.active] >= 0.0)
        assert np.all(ref.u.values <= phi.values)
        assert ref.iterations <= A.grid.n_nodes + 1

    check()


@functools.cache
def _exact_distance(name, n):
    """Largest gap between a cold ``solve_vi`` and ``oracle_vi`` on the final
    obstacle of a bundled config's extremal run, absolute and in ulps of
    the exact value at each node."""
    raw = json.loads(CONFIG_DIR.joinpath(f"{name}.json").read_text())
    if n is not None:
        raw["grid"]["n_nodes"] = n
    problem = build_problem(parse_config(raw))
    A, f, omap = problem.operator, problem.forcing, problem.omap
    bracket = IntervalBracket.default(A, f)
    run = iterate_min(A, f, omap, bracket.lower) if raw["run"] == "min" else \
        iterate_max(A, f, omap, bracket.upper)
    fast, exact = solve_vi(A, f, run.obstacle).u.values, oracle_vi(A, f, run.obstacle).u.values
    gap = np.abs(fast - exact)
    return float(gap.max()), float(np.max(gap / np.spacing(np.abs(exact))))


# every bundled config at its own grid and at 401 nodes
BUNDLED_CASES = [(path.stem, n) for path in sorted(CONFIG_DIR.glob("*.json")) for n in (None, 401)]


@pytest.mark.parametrize("name, n", BUNDLED_CASES)
def test_solve_vi_matches_the_exact_solve_at_bundled_grids(name, n):
    # measured 1.8e-12 at most, on toy_max at its own grid
    assert _exact_distance(name, n)[0] <= 1e-11


@pytest.mark.xfail(strict=True, reason="the LDL^T pivots cancel where the rounded diagonal "
                                       "barely exceeds the couplings; pivots from row sums "
                                       "(ROADMAP item 2) keep 1-2 ulps")
def test_solve_vi_is_within_four_ulps_of_the_exact_solve_at_bundled_grids():
    # measured 16 / 264 ulps on inverse_elliptic_max (own grid / 401),
    # 0 / 0 on toy_min, 4020 / 1152 on toy_max, 107 / 1152 on thermoforming_desk
    wide = {f"{name}@{n}": ulps for name, n in BUNDLED_CASES
            if (ulps := _exact_distance(name, n)[1]) > 4}
    assert not wide


def test_partition_rejects_overlapping_sets():
    part = ActiveSetPartition(strict=[False, True, False, False],
                              biactive=[False, False, True, False])
    assert part.coincidence.tolist() == [False, True, True, False]
    assert part.inactive.tolist() == [True, False, False, True]
    assert part.labels() == ["I", "S", "B", "I"]
    assert not part.strict.flags.writeable and not part.biactive.flags.writeable
    with pytest.raises(ValueError, match="partition sets overlap"):
        ActiveSetPartition(strict=[True, True, False], biactive=[False, True, False])
    # masks of two shapes, and index arrays in place of masks
    for strict, biactive in (([True, False, False], [False, False]), ([1], [2])):
        with pytest.raises(ValueError, match="two boolean masks of one shape"):
            ActiveSetPartition(strict=strict, biactive=biactive)


def test_classify_trivial_cases():
    g = Grid(9)
    A = assemble_operator(g, 1.0, "neumann")
    f = DualElement.constant(g, 2.0)
    phi = NodalFunction.constant(g, 1.0)
    top = NodalFunction.constant(g, 1.0)
    part = classify_active(f, top, phi, multiplier(A, f, top))
    assert part.strict.all()
    low = NodalFunction.constant(g, 0.5)
    part2 = classify_active(f, low, phi, multiplier(A, f, low))
    assert part2.inactive.all()


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
    part = classify_active(f, sol.u, phi, multiplier(A, f, sol.u))
    assert np.array_equal(np.flatnonzero(part.biactive), plateau)
    assert not part.strict.any()


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
        boundary = A.boundary
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


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_multiplier_keeps_the_bits_and_checks_of_f_minus_au(bc):
    g = Grid(64)
    A = assemble_operator(g, 1.0, bc)
    rng = np.random.default_rng(12)
    u, f = random_nodal(g, rng, bc=bc), random_dual(g, rng)
    ref = (f - A.apply(u)).values.copy()
    ref[A.boundary] = 0.0
    assert np.array_equal(multiplier(A, f, u), ref)
    assert ref.tobytes() == multiplier(A, f, u).tobytes()  # signed zeros too

    other = Grid(65)
    with pytest.raises(GridMismatchError, match="function grid does not match"):
        multiplier(A, f, random_nodal(other, rng))
    with pytest.raises(GridMismatchError, match="operands live on different grids"):
        multiplier(A, random_dual(other, rng), u)
    with pytest.raises(TypeError, match="cannot combine NodalFunction with DualElement"):
        multiplier(A, NodalFunction(g, f.values), u)
    huge = NodalFunction(g, np.where(np.arange(g.n_nodes) % 2, 1e308, -1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite nodal values"):
        multiplier(A, f, huge)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_solve_pinned_keeps_its_bits_across_changing_masks(bc):
    A, f, phi = _first_obstacle_solve_data(401, bc)
    n = A.grid.n_nodes
    mass, load, target = A.grid.mass, A.grid.mass * f.values, phi.values
    rng = np.random.default_rng(3)
    mask_a = rng.uniform(size=n) < 0.4
    mask_b = mask_a.copy()
    mask_b[:n // 3] = False

    for pinned in (mask_a, mask_b, mask_a):
        u, lam = _solve_pinned(A.matrix, mass, load, target, pinned)
        u_ref, lam_ref = _block_reference(A.matrix, mass, load, target, pinned)
        assert u.tobytes() == u_ref.tobytes() and lam.tobytes() == lam_ref.tobytes()
    # a set that pins every node: the targets, and the multiplier everywhere
    u, lam = _solve_pinned(A.matrix, mass, load, target, np.ones(n, dtype=bool))
    assert u.tobytes() == target.tobytes()
    assert lam.tobytes() == ((load - A.matrix.matvec(target)) / mass).tobytes()


def _block_reference(matrix, mass, load, target, pinned):
    """``_solve_pinned`` with each run of unpinned nodes solved alone."""
    u = np.where(pinned, target, 0.0)
    u = np.where(pinned, target, block_solve(matrix, pinned, load - matrix.matvec(u)))
    lam = (load - matrix.matvec(u)) / mass
    lam[~pinned] = 0.0
    return u, lam


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_solve_pinned_solves_each_free_block_alone(bc):
    # -0.0 planted in load and target: a block must not see the sign of
    # the one before it, as it would through a stored zero coupling
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(3, 402))
        A = assemble_operator(Grid(n), float(rng.uniform(0.01, 2.0)), bc)
        mass = A.grid.mass
        load = np.where(rng.uniform(size=n) < 0.3, -0.0, rng.normal(size=n))
        target = np.where(rng.uniform(size=n) < 0.3, -0.0, rng.normal(size=n))
        pinned = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)) | A.boundary
        u, lam = _solve_pinned(A.matrix, mass, load, target, pinned)
        u_ref, lam_ref = _block_reference(A.matrix, mass, load, target, pinned)
        assert u.tobytes() == u_ref.tobytes() and lam.tobytes() == lam_ref.tobytes()


def _dense_linearised_step(A, pinned, omap, u):
    """J = S_C Phi'(u) as a dense matrix: S_C from the pinned identity rows, Phi' by columns."""
    n = A.grid.n_nodes
    rows = pinned | A.boundary
    M = np.where(rows[:, None], np.eye(n), A.matrix.to_dense())
    S = np.linalg.solve(M, np.diag(np.where(pinned & ~A.boundary, 1.0, 0.0)))
    lin = linearise(omap, u)
    phi_prime = np.column_stack([omap.derivative_action(lin, NodalFunction(A.grid, col)).values
                                 for col in np.eye(n)])
    return S @ phi_prime


def _linearised_instances(bc):
    """(map, state) pairs of the three families on 81 nodes, each with rho(J) < 1."""
    g = Grid(81)
    x = g.nodes
    inner = assemble_operator(g, 1.0, bc)
    yield (InverseEllipticMap(inner, ScalarNonlinearity("tanh", 2.0, 1.0)),
           NodalFunction(g, 0.5 + np.sin(np.pi * x)))
    yield PlateauMap(g, [1.0, 2.0], 0.25), NodalFunction(g, 0.55 + 0.19 * x)  # tail slopes < 1
    yield (ThermoformingMap(NodalFunction.constant(g, 1.2), 1.0, 1.0, 0.3),
           NodalFunction(g, 0.9 + 0.3 * x))  # gap inside (0, 1): the heat rate has a slope


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_linearised_solve_matches_the_dense_step(bc):
    A = assemble_operator(Grid(81), 1.0, bc)
    pinned = np.zeros(81, dtype=bool)
    pinned[[0, 1, 2, 20, 21, 22, 23, 24, 50, 51, 52, 80]] = True  # blocks at both ends too
    rng = np.random.default_rng(27)
    for omap, u in _linearised_instances(bc):
        B, w = linearise(omap, u)
        assert np.all(w >= 0) and w.any()
        J = _dense_linearised_step(A, pinned, omap, u)
        assert np.all(J >= -1e-13)  # J >= 0 up to the roundoff of the dense solve
        r = np.where(A.boundary, 0.0, rng.uniform(-1.0, 1.0, 81))  # states are 0 on the boundary
        x, (lo, hi) = _solve_linearised(A, pinned, B, w, r)
        exact = np.linalg.solve(np.eye(81) - J, r)
        assert np.max(np.abs(x - exact)) <= 1e-12 * (1.0 + np.max(np.abs(exact)))
        rho = float(np.max(np.abs(np.linalg.eigvals(J))))
        assert 0.0 < lo - 1e-12 <= rho <= hi + 1e-12 < 1.0


def test_linearised_solve_refuses_a_step_that_expands():
    # every node pinned on the rising part of the plateau curve: J = diag(slope), rho > 1
    g = Grid(41)
    A = assemble_operator(g, 1.0, "neumann")
    omap = PlateauMap(g, [1.0, 2.0], 0.25)
    u = NodalFunction.constant(g, 1.5)
    B, w = linearise(omap, u)
    assert np.all(w > 1.0)
    assert _solve_linearised(A, np.ones(41, dtype=bool), B, w, np.ones(41)) is None
