import json
import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qvix import (
    ActiveSetPartition,
    DualElement,
    ExtremalIterationError,
    Grid,
    GridMismatchError,
    InnerSolveError,
    InverseEllipticMap,
    NodalFunction,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    assemble_operator,
    build_cone,
    check_subsolution,
    check_supersolution,
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
from qvix.extremal import _monotone_limit, _obstacle_residual, _run_start
from qvix.sensitivity import QUOTIENT_STEPS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_default_supersolution_constants(toy):
    # the top is A^-1 f at every source: 2 + s on the toy forcing 2 + s
    grid, A, omap, f = toy
    for s in (0.0, 0.5, 1.0):
        shifted = f + DualElement.constant(grid, s)
        up = _run_start(A, shifted, "max")
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
        upper = _run_start(A, f, "max")
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
        f"extremal max step {k} (plain): V-norm step {step:.3e}"
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
    report = iterate_max(A, f, omap, _run_start(A, f, "max"))
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


def _maps_of_each_kind(grid, bc):
    """A map of each kind, the inverse elliptic one with two gains."""
    return (PlateauMap(grid, [1.0, 2.0], 0.25),
            InverseEllipticMap(assemble_operator(grid, 1.0, "neumann"),
                               ScalarNonlinearity("tanh", 2.0, 1.0)),
            InverseEllipticMap(assemble_operator(grid, 1.0, bc), ScalarNonlinearity("linear", 0.5)),
            ThermoformingMap(NodalFunction.constant(grid, 3.0), 1.0, 1.0, 0.1))


def test_the_run_starts_are_a_subsolution_and_a_supersolution(toy):
    grid, A, omap, f = toy
    lower, upper = _run_start(A, f, "min"), _run_start(A, f, "max")
    assert leq(lower, upper, 1e-10)
    assert check_subsolution(A, f, omap, lower)
    assert check_supersolution(A, f, omap, upper)
    assert np.all(lower.values == 0.0)
    assert np.max(np.abs(upper.values - 2.0)) <= 1e-11
    # the starts bound the farthest source of a min run's quotient reruns too
    far = f + QUOTIENT_STEPS[0] * DualElement.constant(grid, 1.0)
    assert np.max(np.abs(A.solve(far).values - (2.0 + QUOTIENT_STEPS[0]))) <= 1e-11
    assert check_subsolution(A, far, omap, _run_start(A, far, "min"))
    assert check_supersolution(A, far, omap, _run_start(A, far, "max"))

    # S(g, phi) <= A^-1 g for every obstacle phi, so A^-1 g is a
    # supersolution at any load g, signed or sign-changing, and a min run's
    # quotient reruns from the base are bounded above with no check.  A
    # map evaluation that raises gives no obstacle to test: the Dirichlet
    # empty constraint set, and the temperature solve's roundoff stall
    rng = np.random.default_rng(19)
    checked = Counter()
    for n in (17, 101, 401):
        grid = Grid(n)
        for bc in ("neumann", "dirichlet"):
            A = assemble_operator(grid, 1.0, bc)
            for omap in _maps_of_each_kind(grid, bc):
                for k in range(25):
                    lo, hi = ((0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0))[k % 3]
                    g = DualElement(grid, rng.uniform(0.1, 10.0) * rng.uniform(lo, hi, n))
                    try:
                        assert check_supersolution(A, g, omap, A.solve(g)), (n, bc, omap, k)
                        checked["supersolution"] += 1
                    except vi.ViSolveError as exc:
                        assert bc == "dirichlet"
                        assert str(exc) == ("obstacle below zero at a Dirichlet boundary "
                                            "node: empty constraint set")
                        checked["dirichlet"] += 1
                    except InnerSolveError as exc:
                        assert isinstance(omap, ThermoformingMap)
                        assert str(exc).startswith("temperature solve stalled at residual")
                        checked["stall"] += 1
    assert checked == Counter(supersolution=552, dirichlet=39, stall=9)


def _wide_starts(A, f, d):
    """Zero and A^-1 (f + d), a top strictly above A^-1 f for d > 0."""
    return NodalFunction.zeros(A.grid), A.solve(f + d)


def test_sandwich_property(toy):
    grid, A, omap, f = toy
    lower, upper = _wide_starts(A, f, DualElement.constant(grid, 1.0))
    rmin = iterate_min(A, f, omap, lower)
    rmax = iterate_max(A, f, omap, upper)
    assert leq(lower, rmin.solution, 1e-10)
    assert leq(rmin.solution, rmax.solution, 1e-10)
    assert leq(rmax.solution, upper, 1e-10)


def test_comparison_in_f(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    assert comparison_in_f(A, f, d, 0.0, omap, "min")
    assert comparison_in_f(A, f, d, 0.1, omap, "min")
    d_neg = DualElement.constant(grid, -0.5)
    assert comparison_in_f(A, f, d_neg, 0.1, omap, "max")
    with pytest.raises(ValueError):
        comparison_in_f(A, f, d_neg, 0.1, omap, "min")


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
        assert comparison_in_f(A, f, d, rng.uniform(0.05, 0.5), omap, "min")


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
    lower, upper = _wide_starts(A, f, d)
    rmin = iterate_min(A, f, omap, lower)
    rmax = iterate_max(A, f, omap, upper)

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
        if qvi_residual(A, f, omap, u) <= 1e-8 and leq(lower, u) and leq(u, upper, 1e-9):
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
    u, steps, mins, maxs, kinds = _monotone_limit(lambda _: (next(feed), "plain"), path[0], 1.0,
                                                  0.0, ExtremalIterationError, "{order}", "cap",
                                                  "test")
    assert u is path[-1]
    assert kinds == ("plain",) * (len(path) - 1)
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
        _monotone_limit(lambda _: (nxt, "plain"), start, 1.0, 0.0, ExtremalIterationError,
                        "{order}", "cap", "test")


@pytest.mark.parametrize("name", ["toy_min", "thermoforming_desk"])
def test_limit_of_a_zero_last_step_reuses_its_obstacle(name, monkeypatch):
    problem = _bundled_problem(name)
    A, f, omap = problem.operator, problem.forcing, problem.omap
    which = problem.config.run
    run, start = iterate_min if which == "min" else iterate_max, _run_start(A, f, which)
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
    start = _run_start(A, f, "max")
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


def test_a_limit_above_the_residual_tolerance_raises(monkeypatch):
    # the bundled inverse_elliptic_max limit has residual 1.340e-12
    problem = _bundled_problem("inverse_elliptic_max")
    A, f, omap = problem.operator, problem.forcing, problem.omap
    monkeypatch.setattr("qvix.extremal.RESIDUAL_TOL", 1e-13)
    with pytest.raises(ExtremalIterationError,
                       match=r"^converged iterate has residual \S+ above tolerance 1\.0e-13$"):
        iterate_max(A, f, omap, _run_start(A, f, "max"))


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
    start = _run_start(A, f, "max")
    first = iterate_max(A, f, omap, start)
    solves = _counting(monkeypatch, qvix.extremal, "solve_vi")
    # equal inputs in new objects: the key holds their bytes
    again = iterate_max(A, DualElement(grid, f.values), omap, NodalFunction(grid, start.values))
    assert again is first
    assert not solves


@pytest.mark.parametrize("change", ["f", "start", "which", "active0"])
def test_a_run_with_one_input_changed_is_computed(change, monkeypatch):
    # 1 is a fixed point, so the runs from it either way and at either source stay there
    grid, A, omap, f = _small_toy()
    base = dict(f=f, start=NodalFunction.constant(grid, 1.0), which="min", active0=None)
    other = {"f": f + DualElement.constant(grid, 1.0), "start": NodalFunction.zeros(grid),
             "which": "max", "active0": np.ones(grid.n_nodes, dtype=bool)}
    changed = dict(base, **{change: other[change]})
    runs = _counting(monkeypatch, qvix.extremal, "_iterate")

    def run(which, f, start, active0):
        it = iterate_min if which == "min" else iterate_max
        return it(A, f, omap, start, active0=active0)

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
    # a ValueError other than an overflow leaves the run unchanged
    with pytest.raises(GridMismatchError, match="^operands live on different grids$"):
        iterate_min(A, elsewhere, omap, start)


@pytest.mark.parametrize("name", ["toy_min", "toy_max", "inverse_elliptic_max"])
def test_fd_validate_reuses_the_base_run_of_run_experiment(tmp_path, monkeypatch, name):
    # a max run's start A^-1 f is formed by each caller anew, with the same bytes
    raw = json.loads(CONFIG_DIR.joinpath(f"{name}.json").read_text())
    run_name = f"iterate_{raw['run']}"
    base_calls = _counting(monkeypatch, qvix.experiments, run_name)
    fd_calls = _counting(monkeypatch, qvix.sensitivity, run_name)
    runs = _counting(monkeypatch, qvix.extremal, "_iterate")
    artifacts = run_experiment(parse_config(raw), out_dir=tmp_path)
    assert artifacts.ok, artifacts.failures
    # the base run, fd_validate's repeat of it, and one run per quotient step
    assert len(base_calls) == 1 and len(fd_calls) == 1 + len(QUOTIENT_STEPS)
    assert len(runs) == 1 + len(QUOTIENT_STEPS)


def test_a_reused_run_logs_one_info_line(toy, caplog):
    grid, A, omap, f = toy
    start = _run_start(A, f, "max")
    report = iterate_max(A, f, omap, start)
    caplog.set_level(logging.DEBUG, logger="qvix")
    assert iterate_max(A, f, omap, start) is report
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("qvix", logging.INFO,
         f"extremal max: reused the run at this load and start ({report.n_iters} steps)")]


def _inverse_elliptic_max(n_nodes, bc="neumann", scale=None):
    raw = json.loads(CONFIG_DIR.joinpath("inverse_elliptic_max.json").read_text())
    raw["grid"]["n_nodes"] = n_nodes
    raw["operator"]["bc"] = bc
    if scale is not None:
        raw["map"]["gain"]["scale"] = scale
    return raw


def _recorded_max_run(A, f, omap, monkeypatch):
    """The max run from A^-1 f, and every iterate it evaluated the map at."""
    evaluate, seen = type(omap).evaluate, []
    monkeypatch.setattr(type(omap), "evaluate",
                        lambda self, u: seen.append(u) or evaluate(self, u))
    report = iterate_max(A, f, omap, _run_start(A, f, "max"))
    monkeypatch.undo()
    return report, seen


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("scale", [1.1, 1.25, 2.0])
@pytest.mark.parametrize("n", [101, 401])
def test_newton_iterates_are_supersolutions_above_the_plain_limit(monkeypatch, bc, scale, n):
    problem = build_problem(parse_config(_inverse_elliptic_max(n, bc, scale)))
    A, f, omap = problem.operator, problem.forcing, problem.omap
    report, iterates = _recorded_max_run(A, f, omap, monkeypatch)
    if bc == "dirichlet" and scale == 2.0:  # A^-1 f is the limit, with no contact: J = 0
        assert report.n_iters == 1 and report.contraction_rate is None
    else:
        assert 1 <= report.newton_steps < report.n_iters <= 8
        lo, hi = report.contraction_rate
        assert 0.0 < lo <= hi < 1.0

    monkeypatch.setattr(InverseEllipticMap, "concave", False)
    omap._run_entry = None  # the kept run would answer the same inputs
    plain = iterate_max(A, f, omap, _run_start(A, f, "max"))
    assert plain.newton_steps == 0 and plain.contraction_rate is None
    assert plain.n_iters >= report.n_iters
    for u in iterates:
        assert check_supersolution(A, f, omap, u)  # within MONOTONE_TOL
        assert np.all(u.values >= plain.solution.values - 1e-9)


def test_newton_converges_at_gain_one_where_plain_steps_do_not(tmp_path, monkeypatch):
    # at gain 1 the plain loop contracts at 1 - 7e-7 and hits its cap
    config = parse_config(_inverse_elliptic_max(101, scale=1.0))
    artifacts = run_experiment(config, out_dir=tmp_path / "newton")
    assert artifacts.ok, artifacts.failures
    run = artifacts.summary["runs"]["max"]
    assert run["n_iters"] <= 25 and run["newton_steps"] == run["n_iters"] - 1
    assert 0.999 < run["contraction_rate"][0] <= run["contraction_rate"][1] < 1.0
    assert run["sensitivity"]["final_quotient_error"] <= 1e-3

    monkeypatch.setattr(InverseEllipticMap, "concave", False)
    problem = build_problem(config)
    A, f, omap = problem.operator, problem.forcing, problem.omap
    with pytest.raises(ExtremalIterationError, match="no convergence within 500 outer"):
        iterate_max(A, f, omap, _run_start(A, f, "max"))


class _SinhGain:
    """scale * sinh: increasing, zero at zero, and convex on u >= 0."""

    def __init__(self, scale):
        self.scale = scale

    def value(self, r):
        return self.scale * np.sinh(r)

    def slope(self, r):
        return self.scale * np.cosh(r)


class _ConvexInverseEllipticMap(InverseEllipticMap):
    """An inverse-elliptic map with a convex gain that inherits the concave declaration."""

    def __init__(self, inner, scale):
        super().__init__(inner, _SinhGain(scale))


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_a_convex_map_declared_concave_is_caught_by_the_order_gate(bc):
    # The tangent step of a convex T overshoots: the first Newton step lands
    # below u_max, off the supersolution side, and the step after it rises,
    # which the monotone order gate refuses.  The plain loop converges.
    problem = build_problem(parse_config(_inverse_elliptic_max(101, bc)))
    A, f, d = problem.operator, problem.forcing, problem.direction
    inner = assemble_operator(A.grid, 1.0, "neumann")
    start = _run_start(A, f, "max")
    declared = _ConvexInverseEllipticMap(inner, 0.2)
    assert declared.concave
    with pytest.raises(ExtremalIterationError,
                       match="^decreasing iteration lost monotonicity"):
        iterate_max(A, f, declared, start)

    undeclared = _ConvexInverseEllipticMap(inner, 0.2)
    undeclared.concave = False
    report = iterate_max(A, f, undeclared, start)
    assert report.newton_steps == 0 and report.qvi_residual <= 1e-8


def test_newton_steps_name_their_kind_in_the_log(caplog):
    problem = _bundled_problem("inverse_elliptic_max")
    A, f, omap = problem.operator, problem.forcing, problem.omap
    caplog.set_level(logging.INFO, logger="qvix")
    report = iterate_max(A, f, omap, _run_start(A, f, "max"))
    kinds = ["newton"] * report.newton_steps + ["plain"] * (report.n_iters - report.newton_steps)
    assert report.newton_steps >= 1
    assert [r.getMessage() for r in caplog.records] == [
        f"extremal max step {k} ({kind}): V-norm step {step:.3e}"
        for k, (kind, step) in enumerate(zip(kinds, report.step_history), 1)]


def test_newton_steps_need_a_max_run_of_a_concave_map_under_a_nonnegative_load():
    problem = _bundled_problem("inverse_elliptic_max", 101)
    A, f, omap = problem.operator, problem.forcing, problem.omap
    dipped = f.values.copy()
    dipped[50] = -0.5  # one node below zero: 0 is no subsolution there
    f_dipped = DualElement(A.grid, dipped)
    start = _run_start(A, f_dipped, "max")
    report = iterate_max(A, f_dipped, omap, start)
    assert report.newton_steps == 0 and report.contraction_rate is None
    assert report.n_iters > 10  # plain steps, each pinning a contact set

    lower = iterate_min(A, f, omap, NodalFunction.zeros(A.grid))
    assert lower.newton_steps == 0 and lower.contraction_rate is None
