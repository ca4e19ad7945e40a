import numpy as np
import pytest

from qvix import (
    DualElement,
    ExtremalIterationError,
    Grid,
    IntervalBracket,
    InverseEllipticMap,
    NodalFunction,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    assemble_operator,
    check_subsolution,
    check_supersolution,
    comparison_in_f,
    iterate_max,
    iterate_min,
    leq,
    qvi_residual,
    solve_vi,
    v_norm,
)


def test_default_supersolution_constants(toy):
    grid, A, omap, f = toy
    up0 = IntervalBracket.default(A, f, DualElement.zeros(grid)).upper
    assert np.max(np.abs(up0.values - 2.0)) <= 1e-11
    up1 = IntervalBracket.default(A, f, DualElement.constant(grid, 1.0)).upper
    assert np.max(np.abs(up1.values - 3.0)) <= 1e-11
    for s in (0.0, 0.5, 1.0):
        shifted = f + DualElement.constant(grid, s)
        assert check_supersolution(A, shifted, omap, up1)


def test_default_supersolution_dominates_plain_solve():
    rng = np.random.default_rng(61)
    g = Grid(30)
    A = assemble_operator(g, 1.0, "neumann")
    for _ in range(20):
        f = DualElement(g, rng.uniform(-1, 2, g.n_nodes))
        d = DualElement(g, rng.uniform(0, 1, g.n_nodes))
        assert leq(A.solve(f), IntervalBracket.default(A, f, d).upper, 1e-11)


def test_toy_forcing_equals_max_of_operator_images(toy):
    # the bundled constant forcing 2 is the nodewise max of zero and the
    # operator images of the two plateau levels
    grid, A, omap, f = toy
    images = [A.apply(NodalFunction.constant(grid, level)).values
              for level in omap.levels]
    constructed = np.maximum.reduce([np.zeros(grid.n_nodes)] + images)
    assert np.max(np.abs(constructed - f.values)) <= 1e-10


def test_zero_is_subsolution_for_nonneg_forcing(toy):
    grid, A, omap, f = toy
    assert check_subsolution(A, f, omap, NodalFunction.zeros(grid))


def test_solution_is_both_sub_and_supersolution(toy):
    grid, A, omap, f = toy
    one = NodalFunction.constant(grid, 1.0)
    assert check_subsolution(A, f, omap, one)
    assert check_supersolution(A, f, omap, one)


def test_iterate_min_toy(toy):
    grid, A, omap, f = toy
    report = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    assert np.max(np.abs(report.solution.values - 1.0)) <= 1e-8
    assert report.n_iters <= 100
    assert report.qvi_residual <= 1e-8
    assert min(report.min_delta_history) >= -1e-10


def test_iterate_max_toy(toy):
    grid, A, omap, f = toy
    start = IntervalBracket.default(A, f, DualElement.constant(grid, 1.0)).upper
    report = iterate_max(A, f, omap, start)
    assert np.max(np.abs(report.solution.values - 2.0)) <= 1e-8
    assert max(report.max_delta_history) <= 1e-10


def test_iterate_from_fixed_point_stops_immediately(toy):
    grid, A, omap, f = toy
    one = NodalFunction.constant(grid, 1.0)
    report = iterate_min(A, f, omap, one)
    assert report.n_iters == 1
    assert report.final_step_vnorm <= 1e-12
    report2 = iterate_max(A, f, omap, NodalFunction.constant(grid, 2.0))
    assert report2.n_iters == 1


def test_zero_gain_reduces_to_single_vi():
    g = Grid(25)
    A = assemble_operator(g, 1.0, "neumann")
    omap = InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                              ScalarNonlinearity("zero"))
    rng = np.random.default_rng(71)
    f = DualElement(g, rng.uniform(0.0, 2.0, g.n_nodes))
    report = iterate_min(A, f, omap, NodalFunction.zeros(g))
    direct = solve_vi(A, f, NodalFunction.zeros(g))
    assert np.max(np.abs(report.solution.values - direct.u.values)) <= 1e-10


def test_thermoforming_unconstrained_regime():
    g = Grid(40)
    A = assemble_operator(g, 1.0, "neumann")
    omap = ThermoformingMap(NodalFunction.constant(g, 5.0), 1.0, 1.0, 0.1)
    f = DualElement.constant(g, 1.0)
    report = iterate_max(A, f, omap, IntervalBracket.default(A, f).upper)
    assert leq(report.solution, A.solve(f), 1e-9)
    assert report.qvi_residual <= 1e-8


def test_qvi_residual_values(toy):
    grid, A, omap, f = toy
    assert qvi_residual(A, f, omap, NodalFunction.constant(grid, 1.0)) <= 1e-10
    # 1.2 sits above its own obstacle (the lower plateau), so infeasible
    assert qvi_residual(A, f, omap, NodalFunction.constant(grid, 1.2)) > 0.1
    # self-consistent plain solve at the obstacle of the solution itself
    report = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    sol = solve_vi(A, f, omap.evaluate(report.solution))
    assert qvi_residual(A, f, omap, sol.u) <= 1e-8


def test_monotonicity_violation_aborts(toy):
    grid, A, omap, f = toy
    # 2.5 is above the maximal solution, so the increasing iteration must
    # immediately step down and abort
    with pytest.raises(ExtremalIterationError):
        iterate_min(A, f, omap, NodalFunction.constant(grid, 2.5))


def test_order_violations_name_the_worst_step(toy):
    # 3 lies above the maximal solution and zero below the minimal one, so
    # each run's first step goes against its order
    grid, A, omap, f = toy
    with pytest.raises(ExtremalIterationError, match=r"^increasing iteration lost "
                       r"monotonicity \(worst step -1\.000e\+00\); the comparison"):
        iterate_min(A, f, omap, NodalFunction.constant(grid, 3.0))
    with pytest.raises(ExtremalIterationError, match=r"^decreasing iteration lost "
                       r"monotonicity \(worst step 3\.750e-01\); the comparison"):
        iterate_max(A, f, omap, NodalFunction.zeros(grid))


def test_max_outer_exhaustion_reports_contraction(toy, monkeypatch):
    grid, A, omap, f = toy
    monkeypatch.setattr("qvix.extremal.MAX_OUTER", 2)
    with pytest.raises(ExtremalIterationError, match="contraction"):
        iterate_min(A, f, omap, NodalFunction.zeros(grid))


def test_bracket_default_and_validate(toy):
    grid, A, omap, f = toy
    bracket = IntervalBracket.default(A, f, DualElement.constant(grid, 1.0))
    assert bracket.validate(A, f, omap)
    assert np.max(np.abs(bracket.upper.values - 3.0)) <= 1e-11


def test_sandwich_property(toy):
    grid, A, omap, f = toy
    bracket = IntervalBracket.default(A, f, DualElement.constant(grid, 1.0))
    rmin = iterate_min(A, f, omap, bracket.lower)
    rmax = iterate_max(A, f, omap, bracket.upper)
    assert leq(bracket.lower, rmin.solution, 1e-10)
    assert leq(rmin.solution, rmax.solution, 1e-10)
    assert leq(rmax.solution, bracket.upper, 1e-10)


def test_comparison_in_f(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    bracket = IntervalBracket.default(A, f, d)
    assert comparison_in_f(A, f, d, 0.0, omap, bracket, "min")
    assert comparison_in_f(A, f, d, 0.1, omap, bracket, "min")
    d_neg = DualElement.constant(grid, -0.5)
    assert comparison_in_f(A, f, d_neg, 0.1, omap, bracket, "max")
    with pytest.raises(ValueError):
        comparison_in_f(A, f, d_neg, 0.1, omap, bracket, "min")


def test_comparison_in_f_randomized_thermoforming():
    rng = np.random.default_rng(83)
    g = Grid(24)
    A = assemble_operator(g, 1.0, "neumann")
    for _ in range(20):
        mould = NodalFunction(g, rng.uniform(2.4, 3.2, g.n_nodes))
        omap = ThermoformingMap(mould, rng.uniform(0.6, 1.6), 1.0,
                                rng.uniform(0.05, 0.15))
        f = DualElement(g, rng.uniform(0.3, 2.8, g.n_nodes))
        d = DualElement(g, rng.uniform(0.0, 1.0, g.n_nodes))
        bracket = IntervalBracket.default(A, f, d)
        assert comparison_in_f(A, f, d, rng.uniform(0.05, 0.5), omap, bracket, "min")


def test_perturbed_start_matches_cold_start(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    s = 0.25
    shifted = f + s * d
    warm = iterate_min(A, shifted, omap,
                       iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution)
    cold = iterate_min(A, shifted, omap, NodalFunction.zeros(grid))
    assert v_norm(warm.solution - cold.solution) <= 1e-8


def test_minimality_against_multistart_enumeration():
    # small plateau instance: collect fixed points reached from many starts
    # and check the extremal runs bound all of them
    rng = np.random.default_rng(97)
    g = Grid(8)
    A = assemble_operator(g, 1.0, "neumann")
    omap = PlateauMap(g, [1.0, 2.0], 0.25)
    f = DualElement.constant(g, 2.0)
    d = DualElement.constant(g, 1.0)
    bracket = IntervalBracket.default(A, f, d)
    rmin = iterate_min(A, f, omap, bracket.lower)
    rmax = iterate_max(A, f, omap, bracket.upper)

    found = []
    starts = [NodalFunction(g, rng.uniform(0.0, 3.0, g.n_nodes)) for _ in range(12)]
    starts += [NodalFunction.constant(g, c) for c in (1.0, 1.5, 2.0)]
    for start in starts:
        u = start
        for _ in range(200):
            nxt = solve_vi(A, f, omap.evaluate(u)).u
            if v_norm(nxt - u) <= 1e-11:
                u = nxt
                break
            u = nxt
        if qvi_residual(A, f, omap, u) <= 1e-8 and leq(bracket.lower, u) \
                and leq(u, bracket.upper, 1e-9):
            found.append(u)
    assert found
    for u in found:
        assert leq(rmin.solution, u, 1e-8)
        assert leq(u, rmax.solution, 1e-8)
