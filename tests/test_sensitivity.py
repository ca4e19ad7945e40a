import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qvix.sensitivity
import qvix.vi
from qvix import (
    ActiveSetPartition,
    CriticalConeData,
    DerivativeSolveError,
    DualElement,
    Grid,
    IntervalBracket,
    InverseEllipticMap,
    NodalFunction,
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
from qvix.sensitivity import ConeError, _cone_solve, derivative_qvi_residual
from qvix.vi import _pose

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
    base = iterate_min(A, f, omap, solve_vi(A, f, NodalFunction.zeros(g)).u).solution
    return g, A, f, build_cone(A, f, omap, base)


def test_alpha_cap_reports_unsettled_derivative(toy, monkeypatch):
    grid, A, omap, f = toy
    cone = build_cone(A, f, omap, iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution)
    monkeypatch.setattr("qvix.extremal.MAX_OUTER", 0)
    with pytest.raises(DerivativeSolveError, match="did not settle within 0 rounds"):
        solve_derivative_qvi(cone, DualElement.constant(grid, 1.0), "min")


def test_derivative_order_violations_raise(toy):
    # the toy cone pins every node to the shift, so a map derivative that
    # points against the run's order drags the second iterate back
    grid, A, omap, f = toy
    cone = build_cone(A, f, omap, iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution)
    for which, level, order in (("min", -1.0, "increasing"), ("max", 1.0, "decreasing")):
        against = replace(cone, deriv_map=lambda w, level=level: NodalFunction.constant(grid, level))
        with pytest.raises(DerivativeSolveError,
                           match=f"^derivative iterates lost their {order} order$"):
            solve_derivative_qvi(against, DualElement.constant(grid, -level), which)


def test_build_cone_toy_all_strict(toy):
    grid, A, omap, f = toy
    run = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    base = run.solution
    cone = build_cone(A, f, omap, base)
    assert cone.partition.strict.all()
    assert np.max(np.abs(cone.lam.values - 1.0)) <= 1e-10
    # the run's obstacle in place of a fresh evaluation gives the same cone
    held = build_cone(A, f, omap, base, run.obstacle)
    assert np.array_equal(held.partition.strict, cone.partition.strict)
    assert held.lam.values.tobytes() == cone.lam.values.tobytes()


def test_build_cone_refuses_sloppy_base(toy):
    grid, A, omap, f = toy
    sloppy = NodalFunction.constant(grid, 1.2)
    for phi in (None, omap.evaluate(sloppy)):
        with pytest.raises(ConeError):
            build_cone(A, f, omap, sloppy, phi)


def test_alpha_zero_on_toy(toy):
    grid, A, omap, f = toy
    base = iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution
    cone = build_cone(A, f, omap, base)
    report = solve_derivative_qvi(cone, DualElement.constant(grid, 1.0), "min")
    assert v_norm(report.alpha) <= 1e-12
    assert all(np.min(b.values - a.values) >= -1e-10
               for a, b in zip(report.alpha_iterates, report.alpha_iterates[1:]))
    assert report.qvi_residual <= 1e-9


def test_sign_restrictions(toy):
    grid, A, omap, f = toy
    base = iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution
    cone = build_cone(A, f, omap, base)
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
    base = iterate_min(A, f, omap, NodalFunction.zeros(g)).solution
    cone = build_cone(A, f, omap, base)
    assert cone.partition.inactive.all()
    rng = np.random.default_rng(11)
    d = DualElement(g, rng.uniform(0.0, 2.0, g.n_nodes))
    report = solve_derivative_qvi(cone, d, "min")
    assert v_norm(report.alpha - A.solve(d)) <= 1e-10


def test_biactive_cone_matches_reduced_oracle():
    g, A, omap, f, u_star = zero_gain_biactive_instance()
    base = iterate_min(A, f, omap, u_star).solution
    cone = build_cone(A, f, omap, base)
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
    base = iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution
    cone = build_cone(A, f, omap, base)
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
    base2 = iterate_max(A2, f2, omap2,
                        IntervalBracket.default(A2, f2, d2).upper).solution
    cone2 = build_cone(A2, f2, omap2, base2)
    b1 = solve_derivative_qvi(cone2, d2, "max").alpha
    for c in (2.0, 10.0):
        bc = solve_derivative_qvi(cone2, c * d2, "max").alpha
        assert v_norm(bc - c * b1) <= 1e-9


def test_fd_validate_toy_quotients_vanish(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    bracket = IntervalBracket.default(A, f, d)
    report = fd_validate(A, f, d, omap, bracket, "min")
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
    bracket = IntervalBracket.default(A, f, d)
    report = fd_validate(A, f, d, omap, bracket, "min")
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
    bracket = IntervalBracket.default(A, f, d)
    report = fd_validate(A, f, d, omap, bracket, "min")
    assert report.fd_monotone
    assert report.fd_table[-1][1] <= 1e-3 * (1.0 + v_norm(report.alpha))


def test_fd_validate_input_checks(toy):
    grid, A, omap, f = toy
    d = DualElement.constant(grid, 1.0)
    bracket = IntervalBracket.default(A, f, d)
    with pytest.raises(ValueError):
        fd_validate(A, f, d, omap, bracket, "min", s_list=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        fd_validate(A, f, d, omap, bracket, "min", s_list=(1e-3, 1e-6))
    with pytest.raises(ValueError):
        fd_validate(A, f, d, omap, bracket, "min", s_list=())
    with pytest.raises(ValueError):
        fd_validate(A, f, d, omap, bracket, "both")


def test_fd_validate_rejects_invalid_bracket_for_max(toy):
    grid, A, omap, f = toy
    # f + s_max * d dips below zero, so zero stops being a subsolution
    d = DualElement.constant(grid, -30.0)
    bracket = IntervalBracket.default(A, f, d)
    with pytest.raises(ValueError, match="bracket invalid"):
        fd_validate(A, f, d, omap, bracket, "max")


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


def test_dirichlet_end_to_end_sensitivity():
    # boundary values are pinned to zero throughout: state, iterates, and
    # derivative all vanish there
    g = Grid(31)
    A = assemble_operator(g, 0.5, "dirichlet")
    omap = InverseEllipticMap(assemble_operator(g, 1.0, "dirichlet"),
                              ScalarNonlinearity("tanh", 2.0))
    f = DualElement(g, 1.0 + 2.0 * np.sin(np.pi * g.nodes))
    d = DualElement(g, np.minimum(g.nodes, 1.0 - g.nodes))
    bracket = IntervalBracket.default(A, f, d)
    report = fd_validate(A, f, d, omap, bracket, "min")
    assert report.base.values[0] == 0.0 and report.base.values[-1] == 0.0
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
        cone = CriticalConeData(base=NodalFunction.zeros(g), partition=partition,
                                lam=DualElement.zeros(g), deriv_map=lambda w: shift, operator=A)
        alpha, _ = _cone_solve(cone, d.values, shift.values)
        assert alpha.values[0] == 0.0 and alpha.values[-1] == 0.0
        assert derivative_qvi_residual(cone, alpha, d) <= 1e-10
        alphas.append(alpha)
    assert np.array_equal(alphas[0].values[1:3], shift.values[1:3])
    assert np.all(alphas[0].values[5:8] <= shift.values[5:8])

    # the cone with every node biactive is the obstacle problem at the shift
    fast, ref = solve_vi(A, d, shift), oracle_vi(A, d, shift)
    for sol in (fast, ref):
        assert sol.u.values[0] == 0.0 and sol.u.values[-1] == 0.0
        assert sol.lam.values[0] == 0.0 and sol.lam.values[-1] == 0.0
    assert np.max(np.abs(fast.u.values - ref.u.values)) <= 1e-10
    assert np.max(np.abs(fast.lam.values - ref.lam.values)) <= 1e-9
    assert np.array_equal(alphas[1].values, fast.u.values)
    assert fast.active.any() and not fast.active.all()


def test_slow_dirichlet_derivative_shares_the_outer_budget():
    # Dirichlet inverse_elliptic_max at gain 1.25 contracts at about 0.9:
    # the outer run takes 178 steps and the derivative, which linearises the
    # same fixed point, 187, beyond a cap of 100 rounds
    raw = json.loads(CONFIG_DIR.joinpath("inverse_elliptic_max.json").read_text())
    raw["grid"]["n_nodes"] = 101
    raw["operator"]["bc"] = "dirichlet"
    raw["map"]["gain"]["scale"] = 1.25
    problem = build_problem(parse_config(raw))
    A, f, d = problem.operator, problem.forcing, problem.direction
    bracket = IntervalBracket.default(A, f, d)
    report = fd_validate(A, f, d, problem.omap, bracket, "max")
    assert len(report.alpha_iterates) > 100
    assert report.fd_monotone
    errors = [err for _, err in report.fd_table]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-3 * (1.0 + v_norm(report.alpha))


def test_alpha_iterates_decrease_for_max(toy):
    grid, A, omap, f = toy
    base = iterate_max(A, f, omap,
                       IntervalBracket.default(A, f, None).upper).solution
    cone = build_cone(A, f, omap, base)
    report = solve_derivative_qvi(cone, DualElement.constant(grid, -1.0), "max")
    assert np.max(np.abs(report.alpha.values + 1.0)) <= 1e-10
    assert all(np.max(b.values - a.values) <= 1e-10
               for a, b in zip(report.alpha_iterates, report.alpha_iterates[1:]))


def test_derivative_residual_vanishes_at_alpha_and_flags_perturbations(toy):
    grid, A, omap, f = toy
    base = iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution
    cone = build_cone(A, f, omap, base)
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
    bracket = IntervalBracket.default(A, f, d)
    run_name = f"iterate_{which}"
    run = getattr(qvix.sensitivity, run_name)
    seeds, runs = [], []

    def recording_run(*args, **kwargs):
        seeds.append(kwargs.get("active0"))
        runs.append(run(*args, **kwargs))
        return runs[-1]

    pdas = qvix.vi._pdas
    rounds = []  # of each cone solve

    def recording_pdas(*args, active0=None):
        out = pdas(*args, active0=active0)
        rounds.append(out[-1])
        return out

    monkeypatch.setattr(f"qvix.sensitivity.{run_name}", recording_run)
    monkeypatch.setattr("qvix.sensitivity._pdas", recording_pdas)
    warm = fd_validate(A, f, d, omap, bracket, which)
    cone = build_cone(A, f, omap, warm.base)
    assert (np.count_nonzero(cone.partition.strict), np.count_nonzero(cone.partition.biactive),
            np.count_nonzero(cone.partition.inactive)) == partition
    # the base run starts cold, the four reruns at the set its last solve settled on
    assert seeds[0] is None and len(seeds) == 5
    for seed in seeds[1:]:
        assert seed is runs[0].active
    # each cone solve after the first starts from its predecessor's settled set
    assert len(rounds) == len(warm.alpha_iterates)
    assert rounds[1:] == [1] * (len(rounds) - 1)

    # every obstacle and cone solve cold
    cold_pdas = lambda *args, active0=None: pdas(*args)
    monkeypatch.setattr("qvix.vi._pdas", cold_pdas)
    monkeypatch.setattr("qvix.sensitivity._pdas", cold_pdas)
    cold = fd_validate(A, f, d, omap, bracket, which)

    assert np.array_equal(warm.base.values, cold.base.values)
    assert np.array_equal(warm.alpha.values, cold.alpha.values)
    assert warm.fd_table == cold.fd_table

