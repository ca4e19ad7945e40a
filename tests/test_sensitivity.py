import numpy as np
import pytest

from qvix import (
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
from qvix.sensitivity import ConeError, derivative_qvi_residual


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
    monkeypatch.setattr("qvix.sensitivity.ALPHA_MAX_ITER", 0)
    with pytest.raises(DerivativeSolveError, match="did not settle within 0 rounds"):
        solve_derivative_qvi(cone, DualElement.constant(grid, 1.0), "min")


def test_build_cone_toy_all_strict(toy):
    grid, A, omap, f = toy
    base = iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution
    cone = build_cone(A, f, omap, base)
    assert cone.partition.strict.size == grid.n_nodes
    assert np.max(np.abs(cone.lam.values - 1.0)) <= 1e-10


def test_build_cone_refuses_sloppy_base(toy):
    grid, A, omap, f = toy
    with pytest.raises(ConeError):
        build_cone(A, f, omap, NodalFunction.constant(grid, 1.2))


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
    assert cone.partition.inactive.size == g.n_nodes
    rng = np.random.default_rng(11)
    d = DualElement(g, rng.uniform(0.0, 2.0, g.n_nodes))
    report = solve_derivative_qvi(cone, d, "min")
    assert v_norm(report.alpha - A.solve(d)) <= 1e-10


def test_biactive_cone_matches_reduced_oracle():
    g, A, omap, f, u_star = zero_gain_biactive_instance()
    base = iterate_min(A, f, omap, u_star).solution
    cone = build_cone(A, f, omap, base)
    assert np.array_equal(cone.partition.biactive, np.arange(3, 7))
    assert cone.partition.strict.size == 0

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
    assert report.fd_monotone and not report.biactive_warning


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
    assert cone.partition.strict.size > 0 and cone.partition.inactive.size > 0
    assert cone.partition.biactive.size == 0

    rng = np.random.default_rng(31)
    d = DualElement(g, rng.uniform(0.0, 1.0, g.n_nodes))
    alpha = solve_derivative_qvi(cone, d, "min").alpha
    assert np.all(alpha.values[cone.partition.strict] == 0.0)
    # reduced system: prescribe zeros on the strict block, solve elsewhere
    dense = A.matrix.to_dense()
    idx = cone.partition.inactive
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
    for node in (cone.partition.strict[2], cone.partition.inactive[2]):
        bumped = alpha.values.copy()
        bumped[node] += 1e-3
        assert derivative_qvi_residual(cone, NodalFunction(g, bumped), d) > 1e-6
