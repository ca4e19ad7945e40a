import json
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qvix import (
    ActiveSetPartition,
    DualElement,
    ExtremalIterationError,
    Grid,
    GridMismatchError,
    IntervalBracket,
    InverseEllipticMap,
    NodalFunction,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    assemble_operator,
    build_cone,
    check_subsolution,
    check_supersolution,
    classify_active,
    comparison_in_f,
    iterate_max,
    iterate_min,
    leq,
    multiplier,
    qvi_residual,
    solve_derivative_qvi,
    solve_vi,
    v_norm,
)
import qvix.experiments
import qvix.extremal
import qvix.sensitivity
from qvix import vi
from qvix.experiments import build_problem, parse_config, run_experiment
from qvix.extremal import _monotone_limit, _obstacle_residual
from qvix.fem import TridiagonalSpd
from qvix.sensitivity import QUOTIENT_STEPS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_default_supersolution_constants(toy):
    # the top is A^-1 f at every source: 2 + s on the toy forcing 2 + s
    grid, A, omap, f = toy
    for s in (0.0, 0.5, 1.0):
        shifted = f + DualElement.constant(grid, s)
        up = IntervalBracket.default(A, shifted).upper
        assert up.values.tobytes() == A.solve(shifted).values.tobytes()
        assert np.max(np.abs(up.values - (2.0 + s))) <= 1e-11
        assert check_supersolution(A, shifted, omap, up)


def test_default_supersolution_dominates_plain_solve():
    # the top is the plain solve A^-1 f, and S(f, phi) <= A^-1 f for any
    # obstacle phi: the tightest supersolution the source gives, whatever the map
    rng = np.random.default_rng(61)
    g = Grid(30)
    A = assemble_operator(g, 1.0, "neumann")
    for _ in range(20):
        f = DualElement(g, rng.uniform(-1, 2, g.n_nodes))
        phi = NodalFunction(g, rng.uniform(-1, 3, g.n_nodes))
        upper = IntervalBracket.default(A, f).upper
        assert upper.values.tobytes() == A.solve(f).values.tobytes()
        assert leq(solve_vi(A, f, phi).u, upper, 1e-11)


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
    # A^-1 (f + 1) = 3, strictly above the maximal solution 2 = A^-1 f
    start = A.solve(f + DualElement.constant(grid, 1.0))
    report = iterate_max(A, f, omap, start)
    assert report.n_iters > 1
    assert np.max(np.abs(report.solution.values - 2.0)) <= 1e-8
    assert max(report.max_delta_history) <= 1e-10


def test_runs_log_one_info_line_per_outer_step(toy, caplog):
    grid, A, omap, f = toy
    caplog.set_level(logging.DEBUG, logger="qvix")
    report = iterate_max(A, f, omap, A.solve(f + DualElement.constant(grid, 1.0)))
    info = [r for r in caplog.records if r.levelno == logging.INFO]
    debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert report.n_iters > 1
    assert [r.getMessage() for r in info] == [
        f"extremal max step {k}: V-norm step {step:.3e}"
        for k, step in enumerate(report.step_history, 1)]
    assert len(debug) == report.n_iters  # one per obstacle solve
    assert all(r.getMessage().startswith("obstacle solve: ") for r in debug)
    assert all(r.name == "qvix" for r in caplog.records)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    caplog.clear()
    cone = build_cone(A, f, omap, report.solution, report.obstacle)
    deriv = solve_derivative_qvi(cone, DualElement.constant(grid, -1.0), "max")
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(info) == len(deriv.alpha_iterates) - 1  # the first cone solve is no step
    assert all(m.startswith("derivative step ") for m in info)


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
    for cap in (2, 0):
        monkeypatch.setattr("qvix.extremal.MAX_OUTER", cap)
        with pytest.raises(ExtremalIterationError, match="contraction"):
            iterate_min(A, f, omap, NodalFunction.zeros(grid))


def test_bracket_default_and_validate(toy):
    grid, A, omap, f = toy
    bracket = IntervalBracket.default(A, f)
    assert bracket.validate(A, f, omap)
    assert np.all(bracket.lower.values == 0.0)
    assert np.max(np.abs(bracket.upper.values - 2.0)) <= 1e-11
    # the point the quotient check of a min run tests at its farthest source
    far = f + QUOTIENT_STEPS[0] * DualElement.constant(grid, 1.0)
    assert np.max(np.abs(A.solve(far).values - (2.0 + QUOTIENT_STEPS[0]))) <= 1e-11
    assert IntervalBracket.default(A, far).validate(A, far, omap)


def _wide_bracket(A, f, d):
    """Zero and A^-1 (f + d), a top strictly above A^-1 f for d > 0."""
    return IntervalBracket(lower=NodalFunction.zeros(A.grid), upper=A.solve(f + d))


def test_sandwich_property(toy):
    grid, A, omap, f = toy
    bracket = _wide_bracket(A, f, DualElement.constant(grid, 1.0))
    rmin = iterate_min(A, f, omap, bracket.lower)
    rmax = iterate_max(A, f, omap, bracket.upper)
    assert leq(bracket.lower, rmin.solution, 1e-10)
    assert leq(rmin.solution, rmax.solution, 1e-10)
    assert leq(rmax.solution, bracket.upper, 1e-10)


def test_comparison_in_f(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    bracket = _wide_bracket(A, f, d)
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
        bracket = IntervalBracket.default(A, f)
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
    bracket = _wide_bracket(A, f, d)
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


def _bundled_problem(name, n_nodes=None):
    raw = json.loads(CONFIG_DIR.joinpath(f"{name}.json").read_text())
    if n_nodes is not None:
        raw["grid"]["n_nodes"] = n_nodes
    return build_problem(parse_config(raw))


def test_monotone_limit_step_norms_keep_the_bits_of_v_norm():
    g = Grid(51)
    rng = np.random.default_rng(8)
    path = [NodalFunction(g, v) for v in np.cumsum(rng.uniform(0.0, 1.0, (6, g.n_nodes)),
                                                   axis=0)]
    path.append(path[-1])  # an exactly-zero last step ends the loop
    feed = iter(path[1:])
    u, steps, mins, maxs = _monotone_limit(lambda _: next(feed), path[0], 1.0, 0.0, 10,
                                           ExtremalIterationError, "{order}", "cap", "test")
    assert u is path[-1]
    assert steps == tuple(v_norm(b - a) for a, b in zip(path, path[1:]))
    assert mins == tuple(float(np.min(b.values - a.values)) for a, b in zip(path, path[1:]))
    assert maxs == tuple(float(np.max(b.values - a.values)) for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("nxt, error, match", [
    (NodalFunction.constant(Grid(11), 1e308), ValueError, "non-finite nodal values"),
    (NodalFunction.constant(Grid(11, (0.0, 2.0)), 1.0), GridMismatchError, "different grids"),
    (DualElement.constant(Grid(11), 1.0), TypeError, "cannot combine DualElement"),
])
def test_monotone_limit_keeps_the_checks_of_the_step_difference(nxt, error, match):
    start = NodalFunction.constant(Grid(11), -1e308)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
        _monotone_limit(lambda _: nxt, start, 1.0, 0.0, 10, ExtremalIterationError,
                        "{order}", "cap", "test")


def test_warm_steps_reuse_the_reduced_factor(monkeypatch):
    problem = _bundled_problem("inverse_elliptic_max", 401)
    A, f, omap = problem.operator, problem.forcing, problem.omap
    start = IntervalBracket.default(A, f).upper
    phi = omap.evaluate(start)
    first = solve_vi(A, f, phi)
    active0 = np.ones(A.grid.n_nodes, dtype=bool)
    active0[classify_active(f, first.u, phi, multiplier(A, f, first.u)).inactive] = False

    counts = {"rounds": 0}
    built = {}  # id -> system, kept alive so that no id is reused
    pinned_system, solve = TridiagonalSpd._pinned_system, vi.solve_vi

    def counting_pinned_system(self, pinned):
        system = pinned_system(self, pinned)
        built[id(system)] = system
        return system

    def counting_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts["rounds"] += sol.iterations
        return sol

    monkeypatch.setattr(TridiagonalSpd, "_pinned_system", counting_pinned_system)
    monkeypatch.setattr("qvix.extremal.solve_vi", counting_solve)
    report = iterate_max(A, f, omap, start, active0=active0)
    assert report.n_iters > 10
    assert 0 < len(built) < counts["rounds"]


@pytest.mark.parametrize("name", ["toy_min", "toy_max", "thermoforming_desk"])
def test_limit_of_a_zero_last_step_reuses_its_obstacle(name, monkeypatch):
    problem = _bundled_problem(name)
    A, f, omap = problem.operator, problem.forcing, problem.omap
    bracket = IntervalBracket.default(A, f)
    run, start = (iterate_min, bracket.lower) if problem.config.run == "min" \
        else (iterate_max, bracket.upper)
    evaluate = type(omap).evaluate
    calls = []

    def counting_evaluate(self, u):
        calls.append(u)
        return evaluate(self, u)

    monkeypatch.setattr(type(omap), "evaluate", counting_evaluate)
    report = run(A, f, omap, start)
    monkeypatch.undo()
    assert report.final_step_vnorm == 0.0
    assert len(calls) == report.n_iters  # one per step, none for the limit
    # what evaluating the limit's obstacle anew would have reported
    phi = omap.evaluate(report.solution)
    assert report.obstacle.values.tobytes() == phi.values.tobytes()
    u = report.solution
    assert report.residual_history[-1] == _obstacle_residual(u, phi, multiplier(A, f, u))
    assert report.qvi_residual == report.residual_history[-1]


def test_warm_sets_come_from_the_step_without_a_partition(monkeypatch):
    problem = _bundled_problem("inverse_elliptic_max")
    A, f, omap = problem.operator, problem.forcing, problem.omap
    start = IntervalBracket.default(A, f).upper
    classified, solves = [], []
    tol_active, post_init, solve = vi.default_tol_active, ActiveSetPartition.__post_init__, \
        vi.solve_vi

    def counting_tol_active(phi):
        classified.append(phi)
        return tol_active(phi)

    def counting_post_init(self):
        classified.append(self)
        post_init(self)

    def recording_solve(A, f, phi, *, active0=None):
        sol = solve(A, f, phi, active0=active0)
        solves.append((active0, sol))
        return sol

    monkeypatch.setattr(vi, "default_tol_active", counting_tol_active)
    monkeypatch.setattr(ActiveSetPartition, "__post_init__", counting_post_init)
    monkeypatch.setattr("qvix.extremal.solve_vi", recording_solve)
    report = iterate_max(A, f, omap, start)
    assert not classified
    assert len(solves) == report.n_iters > 1
    assert solves[0][0] is None
    # each solve after the first is handed the set the solve before settled on
    for (_, sol), (active0, _) in zip(solves, solves[1:]):
        assert active0.dtype == bool and np.array_equal(active0, sol.active)
    assert np.array_equal(report.active, solves[-1][1].active)
    # the handed-on sets are read-only
    for _, sol in solves:
        assert not sol.active.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        report.active[0] = not report.active[0]


def _small_toy():
    """The toy instance on a small grid."""
    grid = Grid(14)
    A = assemble_operator(grid, 1.0, "neumann")
    return grid, A, PlateauMap(grid, [1.0, 2.0], 0.25), DualElement.constant(grid, 2.0)


def test_a_limit_above_the_residual_tolerance_raises(toy, monkeypatch):
    # the toy's maximal solution sits 6.7e-12 above its obstacle
    grid, A, omap, f = toy
    monkeypatch.setattr("qvix.extremal.RESIDUAL_TOL", 1e-12)
    with pytest.raises(ExtremalIterationError,
                       match=r"^converged iterate has residual \S+ above tolerance 1\.0e-12$"):
        iterate_max(A, f, omap, IntervalBracket.default(A, f).upper)


def test_a_fast_solve_off_the_oracle_raises(monkeypatch):
    grid, A, omap, f = _small_toy()
    oracle = qvix.extremal.oracle_vi

    def shifted(*args):
        ref = oracle(*args)
        return replace(ref, u=ref.u + NodalFunction.constant(grid, 2e-9))

    monkeypatch.setattr(qvix.extremal, "oracle_vi", shifted)
    with pytest.raises(ExtremalIterationError,
                       match="^fast solve disagrees with the exact oracle by 2.000e-09$"):
        iterate_min(A, f, omap, NodalFunction.zeros(grid), oracle_check=True)


def _counting(monkeypatch, module, name):
    """A list that gains an entry at every call of ``module.name``."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_repeated_run_returns_the_kept_report(toy, monkeypatch):
    grid, A, omap, f = toy
    start = IntervalBracket.default(A, f).upper
    first = iterate_max(A, f, omap, start)
    solves = _counting(monkeypatch, qvix.extremal, "solve_vi")
    # equal inputs in new objects: the key holds their bytes
    again = iterate_max(A, DualElement(grid, f.values), omap, NodalFunction(grid, start.values))
    assert again is first
    assert not solves


@pytest.mark.parametrize("change", ["f", "start", "which", "active0", "oracle_check"])
def test_a_run_with_one_input_changed_is_computed(change, monkeypatch):
    # 1 is a fixed point, so the runs from it either way and at either source stay there
    grid, A, omap, f = _small_toy()
    base = dict(f=f, start=NodalFunction.constant(grid, 1.0), which="min", active0=None,
                oracle_check=False)
    other = {"f": f + DualElement.constant(grid, 1.0), "start": NodalFunction.zeros(grid),
             "which": "max", "active0": np.ones(grid.n_nodes, dtype=bool),
             "oracle_check": True}
    changed = dict(base, **{change: other[change]})
    runs = _counting(monkeypatch, qvix.extremal, "_iterate")

    def run(which, f, start, oracle_check, active0):
        it = iterate_min if which == "min" else iterate_max
        return it(A, f, omap, start, oracle_check, active0=active0)

    first = run(**base)
    assert run(**changed) is not first
    assert len(runs) == 2


def test_a_run_that_raises_is_not_kept(toy, monkeypatch):
    grid, A, omap, f = toy
    kept = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    runs = _counting(monkeypatch, qvix.extremal, "_iterate")
    # 2.5 lies above the maximal solution: the first step goes down
    for _ in range(2):
        with pytest.raises(ExtremalIterationError, match="lost monotonicity"):
            iterate_min(A, f, omap, NodalFunction.constant(grid, 2.5))
    assert len(runs) == 2
    assert iterate_min(A, f, omap, NodalFunction.zeros(grid)) is kept


def test_a_load_on_another_grid_is_refused_after_a_kept_run(toy):
    grid, A, omap, f = toy
    start = NodalFunction.zeros(grid)
    iterate_min(A, f, omap, start)
    # the same bytes on a grid of the same size: the key holds the grids too
    elsewhere = DualElement(Grid(grid.n_nodes, (0.0, 2.0)), f.values)
    with pytest.raises(GridMismatchError):
        iterate_min(A, elsewhere, omap, start)


def test_fd_validate_reuses_the_base_run_of_run_experiment(tmp_path, monkeypatch):
    raw = json.loads(CONFIG_DIR.joinpath("toy_min.json").read_text())
    base_calls = _counting(monkeypatch, qvix.experiments, "iterate_min")
    fd_calls = _counting(monkeypatch, qvix.sensitivity, "iterate_min")
    runs = _counting(monkeypatch, qvix.extremal, "_iterate")
    artifacts = run_experiment(parse_config(raw), out_dir=tmp_path)
    assert artifacts.ok, artifacts.failures
    # the base run, fd_validate's repeat of it, and one run per quotient step
    assert len(base_calls) == 1 and len(fd_calls) == 1 + len(QUOTIENT_STEPS)
    assert len(runs) == 1 + len(QUOTIENT_STEPS)


def test_a_reused_run_logs_one_info_line(toy, caplog):
    grid, A, omap, f = toy
    start = IntervalBracket.default(A, f).upper
    report = iterate_max(A, f, omap, start)
    caplog.set_level(logging.DEBUG, logger="qvix")
    assert iterate_max(A, f, omap, start) is report
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("qvix", logging.INFO,
         f"extremal max: reused the run at this load and start ({report.n_iters} steps)")]
