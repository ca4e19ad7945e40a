import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qvix.extremal
import qvix.sensitivity
import qvix.vi
from qvix import (
    ActiveSetPartition,
    CriticalConeData,
    DerivativeSolveError,
    DualElement,
    Grid,
    InverseEllipticMap,
    NodalFunction,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    assemble_operator,
    build_cone,
    fd_validate,
    iterate_max,
    iterate_min,
    oracle_vi,
    solve_derivative_qvi,
    solve_vi,
    v_norm,
)
from qvix.experiments import build_problem, parse_config
from qvix.extremal import _run_start
from qvix.fem import sup_embedding_constant
from qvix.sensitivity import ALPHA_STEP_TOL, ConeError, _cone_solve, derivative_qvi_residual
from qvix.vi import _oracle, _pdas, _pose, _solve_linearised, _solve_pinned, default_tol_active

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def zero_gain_biactive_instance(n=10, plateau=slice(3, 7)):
    """Zero obstacle map with the unconstrained solution touching it on a band.

    The multiplier vanishes identically, so the touching band is biactive
    and the derivative problem is a single obstacle solve on that band.
    """
    g = Grid(n)
    A = assemble_operator(g, 1.0, "neumann")
    omap = InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                              ScalarNonlinearity("zero"))
    bump = -(0.2 + np.linspace(0.0, 1.0, n))
    bump[plateau] = 0.0
    u_star = NodalFunction(g, bump)
    f = A.apply(u_star)
    return g, A, omap, f, u_star


def strict_inactive_instance():
    """Flat map, forcing high on the left half and negative on the right.

    The minimal solution touches the zero obstacle with a positive
    multiplier on the left and falls below it on the right, so the cone
    has strict and inactive nodes and no biactive ones.
    """
    g = Grid(12)
    A = assemble_operator(g, 1.0, "neumann")
    omap = InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                              ScalarNonlinearity("zero"))
    f = DualElement(g, np.where(np.arange(12) < 6, 2.0, -1.0))
    run = iterate_min(A, f, omap, solve_vi(A, f, NodalFunction.zeros(g)).u)
    return g, A, f, build_cone(A, f, omap, run.solution, run.obstacle)


def test_alpha_cap_reports_unsettled_derivative(toy, monkeypatch):
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    monkeypatch.setattr("qvix.extremal.MAX_OUTER", 0)
    with pytest.raises(DerivativeSolveError, match="did not settle within 0 rounds"):
        solve_derivative_qvi(cone, DualElement.constant(grid, 1.0), "min")


def test_a_derivative_above_its_residual_tolerance_raises(toy, monkeypatch):
    # the toy's max-run derivative ends at residual 3.8e-12
    grid, A, omap, f = toy
    run = iterate_max(A, f, omap, _run_start(A, f, "max"))
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    monkeypatch.setattr("qvix.sensitivity.ALPHA_RESIDUAL_TOL", 1e-13)
    with pytest.raises(DerivativeSolveError,
                       match=r"^derivative fixed-point residual \S+ above 1\.0e-13$"):
        solve_derivative_qvi(cone, DualElement.constant(grid, -1.0), "max")


def test_derivative_order_violations_raise(toy):
    # the toy cone pins every node to the shift, so a map derivative that
    # points against the run's order drags the second iterate back
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    for which, level, order in (("min", -1.0, "increasing"), ("max", 1.0, "decreasing")):
        against = replace(cone, deriv_map=lambda w, level=level: NodalFunction.constant(grid, level))
        with pytest.raises(DerivativeSolveError,
                           match=f"^derivative iterates lost their {order} order$"):
            solve_derivative_qvi(against, DualElement.constant(grid, -level), which)


def test_build_cone_toy_all_strict(toy):
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    base = run.solution
    cone = build_cone(A, f, omap, base, omap.evaluate(base))
    assert cone.partition.strict.all()
    assert np.max(np.abs(qvix.vi.multiplier(A, f, base) - 1.0)) <= 1e-10
    # the run's obstacle in place of a fresh evaluation gives the same cone
    held = build_cone(A, f, omap, base, run.obstacle)
    assert np.array_equal(held.partition.strict, cone.partition.strict)
    assert np.array_equal(held.partition.biactive, cone.partition.biactive)


def test_build_cone_refuses_sloppy_base(toy):
    grid, A, omap, f = toy
    sloppy = NodalFunction.constant(grid, 1.2)
    with pytest.raises(ConeError):
        build_cone(A, f, omap, sloppy, omap.evaluate(sloppy))


def test_build_cone_refuses_a_multiplier_off_the_coincidence_set():
    # u = 1 on the level-1 plateau with f = c + 0.1: every node strict, lambda = 0.1
    grid, c = Grid(101), 1.0
    A = assemble_operator(grid, c, "neumann")
    omap = PlateauMap(grid, [1.0], 0.25)
    f = DualElement.constant(grid, c + 0.1)
    base = NodalFunction.constant(grid, 1.0)
    assert build_cone(A, f, omap, base, omap.evaluate(base)).partition.strict.all()
    # one node just off the obstacle is inactive, yet keeps its multiplier;
    # lambda * gap (about 3e-9) stays under the residual gate
    moved = base.values.copy()
    moved[50] -= 1.5 * default_tol_active(omap.evaluate(base))
    moved = NodalFunction(grid, moved)
    with pytest.raises(ConeError, match="off the coincidence set"):
        build_cone(A, f, omap, moved, omap.evaluate(moved))


def test_alpha_zero_on_toy(toy):
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    base = run.solution
    cone = build_cone(A, f, omap, base, run.obstacle)
    report = solve_derivative_qvi(cone, DualElement.constant(grid, 1.0), "min")
    assert v_norm(report.alpha) <= 1e-12
    assert all(np.min(b.values - a.values) >= -1e-10
               for a, b in zip(report.alpha_iterates, report.alpha_iterates[1:]))
    assert report.qvi_residual <= 1e-9


def test_sign_restrictions(toy):
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    base = run.solution
    cone = build_cone(A, f, omap, base, run.obstacle)
    d_neg = DualElement.constant(grid, -1.0)
    with pytest.raises(ValueError):
        solve_derivative_qvi(cone, d_neg, "min")
    with pytest.raises(ValueError):
        solve_derivative_qvi(cone, DualElement.constant(grid, 1.0), "max")


def test_empty_coincidence_gives_linear_solve():
    g = Grid(30)
    A = assemble_operator(g, 1.0, "neumann")
    omap = ThermoformingMap(NodalFunction.constant(g, 5.0), 1.0, 1.0, 0.1)
    f = DualElement.constant(g, 1.0)
    run = iterate_min(A, f, omap, NodalFunction.zeros(g))
    base = run.solution
    cone = build_cone(A, f, omap, base, run.obstacle)
    assert cone.partition.inactive.all()
    rng = np.random.default_rng(11)
    d = DualElement(g, rng.uniform(0.0, 2.0, g.n_nodes))
    report = solve_derivative_qvi(cone, d, "min")
    assert v_norm(report.alpha - A.solve(d)) <= 1e-10


def test_biactive_cone_matches_reduced_oracle():
    g, A, omap, f, u_star = zero_gain_biactive_instance()
    run = iterate_min(A, f, omap, u_star)
    base = run.solution
    cone = build_cone(A, f, omap, base, run.obstacle)
    assert np.array_equal(np.flatnonzero(cone.partition.biactive), np.arange(3, 7))
    assert not cone.partition.strict.any()

    rng = np.random.default_rng(19)
    d = DualElement(g, rng.uniform(0.0, 2.0, g.n_nodes))
    report = solve_derivative_qvi(cone, d, "min")
    # with a vanishing map derivative the problem is one obstacle solve:
    # bound zero on the biactive band, huge elsewhere
    bound = np.full(g.n_nodes, 1e8)
    bound[cone.partition.biactive] = 0.0
    ref = oracle_vi(A, d, NodalFunction(g, bound))
    assert np.max(np.abs(report.alpha.values - ref.u.values)) <= 1e-9
    assert len(report.alpha_iterates) == 2  # cone does not move when the map is flat


def test_positive_homogeneity_toy_and_inverse_elliptic(toy):
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    base = run.solution
    cone = build_cone(A, f, omap, base, run.obstacle)
    d = DualElement.constant(grid, 1.0)
    a1 = solve_derivative_qvi(cone, d, "min").alpha
    for c in (2.0, 10.0):
        ac = solve_derivative_qvi(cone, c * d, "min").alpha
        assert v_norm(ac - c * a1) <= 1e-9

    g = Grid(41)
    A2 = assemble_operator(g, 1.0, "neumann")
    omap2 = InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                               ScalarNonlinearity("tanh", 2.0))
    f2 = DualElement(g, 1.0 + 3.0 * np.sin(np.pi * g.nodes))
    d2 = DualElement.constant(g, -0.5)
    run2 = iterate_max(A2, f2, omap2, _run_start(A2, f2, "max"))
    cone2 = build_cone(A2, f2, omap2, run2.solution, run2.obstacle)
    b1 = solve_derivative_qvi(cone2, d2, "max").alpha
    for c in (2.0, 10.0):
        bc = solve_derivative_qvi(cone2, c * d2, "max").alpha
        assert v_norm(bc - c * b1) <= 1e-9


def test_fd_validate_toy_quotients_vanish(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    report = fd_validate(A, f, d, omap, "min")
    assert v_norm(report.alpha) <= 1e-10
    for _, err in report.fd_table:
        assert err <= 1e-12
    assert report.fd_monotone


def test_fd_validate_unconstrained_quotients_are_exact():
    g = Grid(30)
    A = assemble_operator(g, 1.0, "neumann")
    omap = ThermoformingMap(NodalFunction.constant(g, 6.0), 1.0, 1.0, 0.1)
    f = DualElement.constant(g, 1.0)
    d = DualElement.constant(g, 1.0)
    report = fd_validate(A, f, d, omap, "min")
    assert v_norm(report.alpha - A.solve(d)) <= 1e-9
    for _, err in report.fd_table:
        assert err <= 1e-8  # exact up to solver noise over the step
    assert report.fd_monotone


def test_fd_validate_partial_contact_thermoforming_decreases():
    g = Grid(48)
    A = assemble_operator(g, 1.0, "neumann")
    omap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    f = DualElement(g, 2.6 + 0.8 * np.sin(np.pi * g.nodes))
    d = DualElement.constant(g, 1.0)
    report = fd_validate(A, f, d, omap, "min")
    assert report.fd_monotone
    assert report.fd_table[-1][1] <= 1e-3 * (1.0 + v_norm(report.alpha))


def test_quotient_steps_and_tolerance_are_read_when_the_check_runs(monkeypatch):
    # final errors 1.5e-8 at the default last step 1e-4, 0.115 at 1e-1;
    # 1e-3 * (1 + ||alpha||_V) is 1.25e-3
    A, f, d, omap = _thermoforming_partial_contact()
    monkeypatch.setattr("qvix.sensitivity.QUOTIENT_STEPS", (1e-1,))
    with pytest.raises(DerivativeSolveError, match="final quotient error"):
        fd_validate(A, f, d, omap, "min")
    monkeypatch.undo()
    monkeypatch.setattr("qvix.sensitivity.QUOTIENT_TOL", 1e-8)
    with pytest.raises(DerivativeSolveError, match="final quotient error"):
        fd_validate(A, f, d, omap, "min")
    monkeypatch.undo()
    assert len(fd_validate(A, f, d, omap, "min").fd_table) == 4


def test_a_growing_quotient_error_raises_on_a_strictly_complementary_instance(monkeypatch):
    # no biactive node; the error grows with the step, so steps taken in
    # increasing order give a table that does not shrink
    A, f, d, omap = _thermoforming_partial_contact()
    monkeypatch.setattr("qvix.sensitivity.QUOTIENT_STEPS", qvix.sensitivity.QUOTIENT_STEPS[::-1])
    with pytest.raises(DerivativeSolveError, match="^quotient error table does not shrink "
                                                   "on a strictly complementary instance$"):
        fd_validate(A, f, d, omap, "min")


def test_fd_validate_input_checks(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    with pytest.raises(ValueError):
        fd_validate(A, f, d, omap, "both")


def test_quotient_steps_are_positive_decreasing_and_above_the_noise():
    steps = qvix.sensitivity.QUOTIENT_STEPS
    assert len(steps) >= 2
    assert all(isinstance(s, float) and s > 0 for s in steps)
    assert all(b < a for a, b in zip(steps, steps[1:]))
    assert min(steps) >= 1e-5


def _reruns_match_runs_from_the_plain_solve(A, f, d, omap):
    """Each quotient rerun of a max run, from the base, against a run from
    A^-1 (f + s d), a supersolution above every solution there.

    On these instances a run of plain steps ends on the same bits from
    either start; Newton steps from different states end apart by
    roundoff, inside the loop's step tolerance.
    """
    base = iterate_max(A, f, omap, _run_start(A, f, "max"))
    for s in qvix.sensitivity.QUOTIENT_STEPS:
        shifted = f + s * d
        rerun = iterate_max(A, shifted, omap, base.solution, active0=base.active)
        plain = iterate_max(A, shifted, omap, _run_start(A, shifted, "max"))
        if rerun.newton_steps == plain.newton_steps == 0:
            assert rerun.solution.values.tobytes() == plain.solution.values.tobytes(), s
        else:
            assert v_norm(rerun.solution - plain.solution) <= 10 * qvix.extremal.TOL_FP, s


def test_max_reruns_from_the_base_need_no_subsolution_at_the_farthest_source(toy):
    # f + 0.1 d dips to -1, so zero is no subsolution there; each rerun
    # still starts above every solution, and its own gates certify it.  The
    # derivative is not pinned: it misses ALPHA_RESIDUAL_TOL by a factor of
    # about 3.5
    grid, A, omap, f = toy
    _reruns_match_runs_from_the_plain_solve(A, f, DualElement.constant(grid, -30.0), omap)


@pytest.mark.parametrize("which", ["min", "max"])
def test_quotient_check_tests_one_bound_at_the_farthest_source(monkeypatch, toy, which):
    # the reruns start at the base, so the check at the farthest source
    # tests the base there: a subsolution for a min run, a supersolution
    # for a max run; a check that fails refuses the sensitivity
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0 if which == "min" else -1.0)
    far = f + qvix.sensitivity.QUOTIENT_STEPS[0] * d
    base = (iterate_min if which == "min" else iterate_max)(A, f, omap, _run_start(A, f, which))
    checks = []
    for name in ("check_subsolution", "check_supersolution"):
        def recording(A_, f_, omap_, u, name=name, check=getattr(qvix.sensitivity, name)):
            checks.append((name, f_, u))
            return check(A_, f_, omap_, u)
        monkeypatch.setattr(f"qvix.sensitivity.{name}", recording)
    fd_validate(A, f, d, omap, which)
    [(name, source, point)] = checks
    assert source.values.tobytes() == far.values.tobytes()
    assert point.values.tobytes() == base.solution.values.tobytes()
    kind = "subsolution" if which == "min" else "supersolution"
    assert name == f"check_{kind}"

    monkeypatch.setattr(f"qvix.sensitivity.{name}", lambda A_, f_, omap_, u: False)
    with pytest.raises(ValueError) as info:
        fd_validate(A, f, d, omap, which)
    assert str(info.value) == f"rerun start: the base is not a {kind} at f + max(s) d"


@pytest.mark.parametrize("n", [101, 401])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_bundled_max_run_validates_a_direction_below_the_forcing(bc, n):
    # d = -12 takes f + 0.1 d below zero near the ends: each rerun
    # certifies itself, and the derivative passes every gate
    raw = json.loads(CONFIG_DIR.joinpath("inverse_elliptic_max.json").read_text())
    raw["grid"]["n_nodes"] = n
    raw["operator"]["bc"] = bc
    raw["direction"] = {"expr": {"const": -12.0}}
    problem = build_problem(parse_config(raw))
    A, f, d, omap = problem.operator, problem.forcing, problem.direction, problem.omap
    assert np.min((f + qvix.sensitivity.QUOTIENT_STEPS[0] * d).values) < 0.0
    _reruns_match_runs_from_the_plain_solve(A, f, d, omap)
    fd_validate(A, f, d, omap, "max")


def test_strict_complementarity_collapse_to_reduced_linear_system():
    # flat map, mixed strict/inactive partition: the derivative is the plain
    # equation on the inactive block with zeros pinned on the strict nodes
    g, A, f, cone = strict_inactive_instance()
    assert cone.partition.strict.any() and cone.partition.inactive.any()
    assert not cone.partition.biactive.any()

    rng = np.random.default_rng(31)
    d = DualElement(g, rng.uniform(0.0, 1.0, g.n_nodes))
    alpha = solve_derivative_qvi(cone, d, "min").alpha
    assert np.all(alpha.values[cone.partition.strict] == 0.0)
    # reduced system: prescribe zeros on the strict block, solve elsewhere
    dense = A.matrix.to_dense()
    idx = np.flatnonzero(cone.partition.inactive)
    rhs = (g.mass * d.values)[idx]
    reduced = np.linalg.solve(dense[np.ix_(idx, idx)], rhs)
    assert np.max(np.abs(alpha.values[idx] - reduced)) <= 1e-10


def test_dirichlet_end_to_end_sensitivity(monkeypatch):
    # boundary values are pinned to zero throughout: state, iterates, and
    # derivative all vanish there
    g = Grid(31)
    A = assemble_operator(g, 0.5, "dirichlet")
    omap = InverseEllipticMap(assemble_operator(g, 1.0, "dirichlet"),
                              ScalarNonlinearity("tanh", 2.0))
    f = DualElement(g, 1.0 + 2.0 * np.sin(np.pi * g.nodes))
    d = DualElement(g, np.minimum(g.nodes, 1.0 - g.nodes))
    runs = []

    def recording_run(*args, **kwargs):
        runs.append(iterate_min(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("qvix.sensitivity.iterate_min", recording_run)
    report = fd_validate(A, f, d, omap, "min")
    base = runs[0].solution  # the base run, before the four quotient reruns
    assert base.values[0] == 0.0 and base.values[-1] == 0.0
    assert report.alpha.values[0] == 0.0 and report.alpha.values[-1] == 0.0
    assert report.fd_monotone
    assert report.fd_table[-1][1] <= 1e-3 * (1.0 + v_norm(report.alpha))


def test_dirichlet_rows_of_every_posed_problem():
    # a shift nonzero at both ends: each posed problem still pins the
    # Dirichlet nodes to zero with no multiplier, whatever role the cone
    # gives them (node 0 is strict and node 11 inactive in the mixed cone)
    g = Grid(12)
    n = g.n_nodes
    A = assemble_operator(g, 1.0, "dirichlet")
    d = DualElement.constant(g, 20.0)
    shift = NodalFunction(g, 0.5 + 0.25 * np.cos(np.pi * g.nodes))  # 0.75 and 0.25 at the ends
    strict, biactive = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    strict[:3] = True
    biactive[5:8] = True
    mixed = ActiveSetPartition(strict=strict, biactive=biactive)
    # the Dirichlet rows pose u = 0 with no load; their unit rows would
    # give u = 0 under any role, but the nested start reads the roles
    load, target, eq_mask, free_mask = _pose(A, d.values, shift.values, strict, mixed.inactive)
    assert load[0] == load[-1] == target[0] == target[-1] == 0.0
    assert eq_mask[[0, -1]].all() and not free_mask[[0, -1]].any()
    every = ActiveSetPartition(strict=np.zeros(n, dtype=bool), biactive=np.ones(n, dtype=bool))
    alphas = []
    for partition in (mixed, every):
        # a constant map derivative: one cone solve is the fixed point
        cone = CriticalConeData(partition=partition, deriv_map=lambda w: shift, operator=A,
                                linearisation=(A.matrix, np.zeros(n)))
        alpha, _ = _cone_solve(cone, d.values, shift.values)
        assert alpha.values[0] == 0.0 and alpha.values[-1] == 0.0
        assert derivative_qvi_residual(cone, alpha, d) <= 1e-10
        alphas.append(alpha)
    assert np.array_equal(alphas[0].values[1:3], shift.values[1:3])
    assert np.all(alphas[0].values[5:8] <= shift.values[5:8])

    # the cone with every node biactive is the obstacle problem at the shift
    fast, ref = solve_vi(A, d, shift), oracle_vi(A, d, shift)
    # the densities of the loop and of the exact solve on that problem
    problem = (A.matrix, g.mass, *_pose(A, d.values, shift.values))
    fast_lam, ref_lam = _pdas(*problem)[1], _oracle(*problem)[1]
    for sol, lam in ((fast, fast_lam), (ref, ref_lam)):
        assert sol.u.values[0] == 0.0 and sol.u.values[-1] == 0.0
        assert lam[0] == 0.0 and lam[-1] == 0.0
    assert np.max(np.abs(fast.u.values - ref.u.values)) <= 1e-10
    assert np.max(np.abs(fast_lam - ref_lam)) <= 1e-9
    assert np.array_equal(alphas[1].values, fast.u.values)
    assert fast.active.any() and not fast.active.all()


def _slow_dirichlet_problem():
    """Dirichlet inverse_elliptic_max at gain 1.25 and n = 101: the loops contract at about 0.9."""
    raw = json.loads(CONFIG_DIR.joinpath("inverse_elliptic_max.json").read_text())
    raw["grid"]["n_nodes"] = 101
    raw["operator"]["bc"] = "dirichlet"
    raw["map"]["gain"]["scale"] = 1.25
    return build_problem(parse_config(raw))


def test_slow_dirichlet_derivative_shares_the_outer_budget(monkeypatch):
    # without a certified (I - J) solve the derivative, which linearises the
    # outer fixed point, takes 187 plain steps, beyond a cap of 100 rounds
    monkeypatch.setattr(qvix.sensitivity, "_solve_linearised", lambda *args: None)
    problem = _slow_dirichlet_problem()
    A, f, d = problem.operator, problem.forcing, problem.direction
    report = fd_validate(A, f, d, problem.omap, "max")
    assert len(report.alpha_iterates) > 100
    assert report.fd_monotone
    errors = [err for _, err in report.fd_table]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3 * (1.0 + v_norm(report.alpha))


def test_slow_dirichlet_derivative_takes_one_solve_and_one_plain_step():
    # the strict cone's (I - J) solve lands within ALPHA_STEP_TOL of the fixed point
    problem = _slow_dirichlet_problem()
    A, f, d, omap = problem.operator, problem.forcing, problem.direction, problem.omap
    report = fd_validate(A, f, d, omap, "max")
    run = iterate_max(A, f, omap, _run_start(A, f, "max"))
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    assert cone.partition.strict.any() and not cone.partition.biactive.any()
    assert len(report.alpha_iterates) <= 3
    assert report.fd_monotone
    errors = [err for _, err in report.fd_table]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3 * (1.0 + v_norm(report.alpha))


def test_alpha_iterates_decrease_for_max(toy):
    grid, A, omap, f = toy
    run = iterate_max(A, f, omap,
                       _run_start(A, f, "max"))
    base = run.solution
    cone = build_cone(A, f, omap, base, run.obstacle)
    report = solve_derivative_qvi(cone, DualElement.constant(grid, -1.0), "max")
    assert np.max(np.abs(report.alpha.values + 1.0)) <= 1e-10
    assert all(np.max(b.values - a.values) <= 1e-10
               for a, b in zip(report.alpha_iterates, report.alpha_iterates[1:]))


def test_derivative_residual_vanishes_at_alpha_and_flags_perturbations(toy):
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    base = run.solution
    cone = build_cone(A, f, omap, base, run.obstacle)
    d = DualElement.constant(grid, 1.0)
    alpha = solve_derivative_qvi(cone, d, "min").alpha
    assert derivative_qvi_residual(cone, alpha, d) <= 1e-9

    g, A, f, cone = strict_inactive_instance()
    d = DualElement(g, np.random.default_rng(37).uniform(0.0, 1.0, g.n_nodes))
    alpha = solve_derivative_qvi(cone, d, "min").alpha
    assert derivative_qvi_residual(cone, alpha, d) <= 1e-9
    for node in (np.flatnonzero(cone.partition.strict)[2],
                 np.flatnonzero(cone.partition.inactive)[2]):
        bumped = alpha.values.copy()
        bumped[node] += 1e-3
        assert derivative_qvi_residual(cone, NodalFunction(g, bumped), d) > 1e-6


def _bundled(name, n):
    """Operator, forcing, direction and map of a bundled config on n nodes."""
    raw = json.loads(CONFIG_DIR.joinpath(f"{name}.json").read_text())
    raw["grid"]["n_nodes"] = n
    problem = build_problem(parse_config(raw))
    return problem.operator, problem.forcing, problem.direction, problem.omap


def _thermoforming_partial_contact():
    g = Grid(48)
    A = assemble_operator(g, 1.0, "neumann")
    omap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    f = DualElement(g, 2.6 + 0.8 * np.sin(np.pi * g.nodes))
    return A, f, DualElement.constant(g, 1.0), omap


@pytest.mark.parametrize("instance, which, partition", [
    (_thermoforming_partial_contact, "min", (4, 0, 44)),
    (lambda: _bundled("toy_max", 129), "max", (0, 129, 0)),
    (lambda: _bundled("inverse_elliptic_max", 201), "max", (121, 0, 80)),
], ids=["thermoforming-min", "toy_max-biactive", "inverse_elliptic_max"])
def test_warm_cone_solves_and_reruns_keep_the_bits_of_cold_ones(monkeypatch, instance, which,
                                                                 partition):
    A, f, d, omap = instance()
    run_name = f"iterate_{which}"
    run = getattr(qvix.sensitivity, run_name)
    seeds, runs = [], []

    def recording_run(*args, **kwargs):
        seeds.append(kwargs.get("active0"))
        runs.append(run(*args, **kwargs))
        return runs[-1]

    pdas, solve_linearised = qvix.vi._pdas, qvix.vi._solve_linearised
    rounds = []  # of each cone solve
    linear_solves = []  # the (I - J) solves that take a step in place of a cone solve

    def recording_pdas(*args, active0=None):
        out = pdas(*args, active0=active0)
        rounds.append(out[-1])
        return out

    def recording_solve_linearised(*args):
        linear_solves.append(solve_linearised(*args))
        return linear_solves[-1]

    monkeypatch.setattr(f"qvix.sensitivity.{run_name}", recording_run)
    monkeypatch.setattr("qvix.sensitivity._pdas", recording_pdas)
    monkeypatch.setattr("qvix.sensitivity._solve_linearised", recording_solve_linearised)
    warm = fd_validate(A, f, d, omap, which)
    cone = build_cone(A, f, omap, runs[0].solution, runs[0].obstacle)
    assert (np.count_nonzero(cone.partition.strict), np.count_nonzero(cone.partition.biactive),
            np.count_nonzero(cone.partition.inactive)) == partition
    # the base run starts cold, the four reruns at the set its last solve settled on
    assert seeds[0] is None and len(seeds) == 5
    for seed in seeds[1:]:
        assert seed is runs[0].active
    # each cone solve after the first starts from its predecessor's settled set;
    # a min derivative makes no (I - J) solve, and a max one's second iterate
    # comes from the certified one where J != 0 (toy_max has Phi' = 0)
    if which == "min":
        assert not linear_solves
    steps_solved = len([x for x in linear_solves if x is not None])
    assert steps_solved == (which == "max" and partition[0] > 0)
    assert len(rounds) + steps_solved == len(warm.alpha_iterates)
    assert rounds[1:] == [1] * (len(rounds) - 1)

    # every obstacle and cone solve cold
    cold_pdas = lambda *args, active0=None: pdas(*args)
    monkeypatch.setattr("qvix.vi._pdas", cold_pdas)
    monkeypatch.setattr("qvix.sensitivity._pdas", cold_pdas)
    cold = fd_validate(A, f, d, omap, which)

    # runs[5] is the cold validation's base run
    assert len(runs) == 10
    assert np.array_equal(runs[0].solution.values, runs[5].solution.values)
    assert np.array_equal(warm.alpha.values, cold.alpha.values)
    assert warm.fd_table == cold.fd_table


def test_derivative_iteration_linearises_once_per_base(monkeypatch):
    A, f, d, omap = _bundled("inverse_elliptic_max", 201)
    run = iterate_max(A, f, omap, _run_start(A, f, "max"))
    slopes = []
    slope = ScalarNonlinearity.slope
    monkeypatch.setattr(ScalarNonlinearity, "slope",
                        lambda self, r: slopes.append(1) or slope(self, r))
    # the cone linearises at its base; the iteration reuses that state
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    report = solve_derivative_qvi(cone, d, "max")
    assert len(report.alpha_iterates) > 2
    assert len(slopes) == 1


@pytest.mark.parametrize("name, which", [("toy_min", "min"), ("toy_max", "max"),
                                         ("inverse_elliptic_max", "max"),
                                         ("thermoforming_desk", "min")])
def test_a_cone_forms_the_multiplier_once(multiplier_calls, name, which):
    A, f, d, omap = _bundled(name, 101)
    run = (iterate_min if which == "min" else iterate_max)(A, f, omap, _run_start(A, f, which))
    multiplier_calls.clear()
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    assert len(multiplier_calls) == 1
    # the cone classifies the multiplier vi.multiplier forms at the base
    lam = qvix.vi.multiplier(A, f, run.solution)
    partition = qvix.vi.classify_active(f, run.solution, run.obstacle, lam)
    assert np.array_equal(cone.partition.strict, partition.strict)
    assert np.array_equal(cone.partition.biactive, partition.biactive)


@pytest.mark.parametrize("n", [61, 401, 1601])
def test_strict_cone_derivative_takes_one_solve_and_one_plain_step(monkeypatch, n):
    A, f, d, omap = _bundled("inverse_elliptic_max", n)
    run = iterate_max(A, f, omap, _run_start(A, f, "max"))
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    assert cone.partition.strict.any() and not cone.partition.biactive.any()
    report = solve_derivative_qvi(cone, d, "max")
    assert len(report.alpha_iterates) <= 3

    # the plain loop, which stops at ALPHA_STEP_TOL after 12 steps, lands within its stop error
    monkeypatch.setattr(qvix.sensitivity, "_solve_linearised", lambda *args: None)
    plain = solve_derivative_qvi(cone, d, "max")
    assert len(plain.alpha_iterates) > 3
    assert np.max(np.abs(report.alpha.values - plain.alpha.values)) <= 1e-11


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_a_biactive_max_cone_steps_from_its_first_settled_set(monkeypatch, bc):
    # a bundled strict cone with one strict node made biactive is no subspace;
    # the Dirichlet one is the slow regime, where plain steps take 188 iterates
    if bc == "neumann":
        A, f, d, omap = _bundled("inverse_elliptic_max", 101)
    else:
        problem = _slow_dirichlet_problem()
        A, f, d, omap = problem.operator, problem.forcing, problem.direction, problem.omap
    run = iterate_max(A, f, omap, _run_start(A, f, "max"))
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    strict = cone.partition.strict.copy()
    node = np.flatnonzero(strict)[5]
    strict[node] = False
    biactive = np.zeros_like(strict)
    biactive[node] = True
    mixed = replace(cone, partition=ActiveSetPartition(strict=strict, biactive=biactive))
    settled, solves = [], []  # the set each cone solve settled on, the (I - J) solves
    pdas, solve_linearised = qvix.sensitivity._pdas, qvix.sensitivity._solve_linearised

    def recording_pdas(*args, active0=None):
        out = pdas(*args, active0=active0)
        settled.append(out[2])
        return out

    monkeypatch.setattr(qvix.sensitivity, "_pdas", recording_pdas)
    monkeypatch.setattr(qvix.sensitivity, "_solve_linearised",
                        lambda *args: solves.append(args) or solve_linearised(*args))
    report = solve_derivative_qvi(mixed, d, "max")
    # one (I - J) solve, pinned where alpha_1's cone solve settled
    assert len(solves) == 1
    assert np.array_equal(solves[0][1], strict | settled[0])
    assert len(report.alpha_iterates) <= 4

    # the plain loop, which stops at ALPHA_STEP_TOL, lands within its stop error
    monkeypatch.setattr(qvix.sensitivity, "_solve_linearised", lambda *args: None)
    plain = solve_derivative_qvi(mixed, d, "max")
    assert len(plain.alpha_iterates) > 4
    assert np.max(np.abs(report.alpha.values - plain.alpha.values)) <= 1e-10


def _pieces(cone, d):
    """The affine pieces alpha_P(d) = (I - J_P)^-1 S_P(d, 0) of a max cone, one
    row per pin set strict <= P <= strict | biactive, and the largest upper
    bound on rho(J_P) that their rate certificates give.

    S_P(d, 0) solves with P pinned at 0 and every other node free.  Each
    cone here has a strict node off the boundary and a map with w != 0, so
    J_P != 0 and ``_solve_linearised`` returns None only for a piece
    without a certificate.
    """
    A = cone.operator
    zeros = np.zeros(A.grid.n_nodes)
    biactive = np.flatnonzero(cone.partition.biactive)
    pieces, rate = [], 0.0
    for k in range(len(biactive) + 1):
        for extra in itertools.combinations(biactive, k):
            pinned = cone.partition.strict.copy()
            pinned[list(extra)] = True
            load, target, eq_mask, _ = _pose(A, d.values, zeros, pinned, ~pinned)
            r, _ = _solve_pinned(A.matrix, A.grid.mass, load, target, eq_mask)
            solved = _solve_linearised(A, pinned, *cone.linearisation, r)
            assert solved is not None, f"piece {extra} has no rate certificate"
            pieces.append(solved[0])
            rate = max(rate, solved[1][1])
    return np.array(pieces), rate


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_a_biactive_max_derivative_is_the_least_of_its_affine_pieces(bc):
    # ROADMAP item 23: on a max cone whose pieces all certify, alpha(d) is
    # min_P alpha_P(d).  The bundled strict cone with three strict nodes made
    # biactive has 8 pieces; the Dirichlet one is the slow regime
    if bc == "neumann":
        A, f, d, omap = _bundled("inverse_elliptic_max", 101)
    else:
        problem = _slow_dirichlet_problem()
        A, f, d, omap = problem.operator, problem.forcing, problem.direction, problem.omap
    run = iterate_max(A, f, omap, _run_start(A, f, "max"))
    cone = build_cone(A, f, omap, run.solution, run.obstacle)
    strict = cone.partition.strict.copy()
    nodes = np.flatnonzero(strict)
    picked = nodes[[4, len(nodes) // 2, -6]]
    strict[picked] = False
    biactive = np.zeros_like(strict)
    biactive[picked] = True
    cone = replace(cone, partition=ActiveSetPartition(strict=strict, biactive=biactive))

    def alpha(direction):
        return solve_derivative_qvi(cone, direction, "max").alpha.values

    def scale(values):
        return 1.0 + np.max(np.abs(values))

    # the bundled direction: the minimum up to roundoff, and one piece is least at every node
    pieces, rate = _pieces(cone, d)
    least = pieces.min(axis=0)
    a = alpha(d)
    assert np.max(np.abs(a - least)) <= 1e-12 * scale(a)
    assert any(np.array_equal(piece, least) for piece in pieces)

    # a random direction d <= 0 ends where the loop's stop leaves it: a V-norm
    # step under ALPHA_STEP_TOL, with about rate / (1 - rate) such steps left
    # at the pieces' certified rate, in max norm through the sup-embedding
    # constant.  The tail reaches the spectral radius only asymptotically,
    # and the factor 10 covers that: 2.3e-11 (Neumann) and 1.4e-9
    # (Dirichlet) against measured gaps up to 1.8e-12 and 3.1e-11
    stop = 10 * sup_embedding_constant(A.grid) * ALPHA_STEP_TOL * rate / (1 - rate)
    rng = np.random.default_rng(7)
    n = A.grid.n_nodes
    directions = [DualElement(A.grid, -rng.uniform(0, 1, n) * rng.integers(0, 2, n))
                  for _ in range(10)]
    alphas = []
    for direction in directions:
        pieces, _ = _pieces(cone, direction)
        a = alpha(direction)
        assert np.max(np.abs(a - pieces.min(axis=0))) <= stop * scale(a)
        alphas.append(a)
    # concave and positively homogeneous in d, so superadditive, up to the
    # stop error of the three derivatives
    for k, (d1, a1) in enumerate(zip(directions, alphas)):
        d2, a2 = directions[k - 1], alphas[k - 1]
        total = alpha(d1 + d2)
        assert np.min(total - a1 - a2) >= -3 * stop * scale(total)


def test_refinement_of_the_bundled_max_run_and_its_derivative_is_first_order_in_v():
    # P1 obstacle problems converge at O(h) in H1 (Falk, Math. Comp. 28,
    # 1974); each coarse result, interpolated onto the next grid (h/4),
    # differs from it by 9.06e-4 and 2.26e-4 (u), 8.71e-4 and 2.18e-4 (alpha)
    results = []
    for n in (101, 401, 1601):
        A, f, d, omap = _bundled("inverse_elliptic_max", n)
        u = iterate_max(A, f, omap, _run_start(A, f, "max")).solution
        results.append((u, fd_validate(A, f, d, omap, "max").alpha))

    def order(k):  # of u (k = 0) or alpha (k = 1), from the two successive differences
        diffs = [v_norm(fine[k] - NodalFunction(fine[k].grid, np.interp(
            fine[k].grid.nodes, coarse[k].grid.nodes, coarse[k].values)))
            for coarse, fine in zip(results, results[1:])]
        return np.log(diffs[0] / diffs[1]) / np.log(4.0)

    assert 0.9 <= order(0) <= 1.1
    assert 0.9 <= order(1) <= 1.1
