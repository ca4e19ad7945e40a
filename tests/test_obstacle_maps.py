import numpy as np
import pytest

from qvix import (
    DualElement,
    Grid,
    InnerSolveError,
    InverseEllipticMap,
    NodalFunction,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    assemble_operator,
    check_increasing,
    lipschitz_estimate,
    lipschitz_threshold_check,
    smoothstep,
    smoothstep_deriv,
    v_norm,
)


def fd_order(omap, u, h, ts=(1e-2, 1e-3, 1e-4), floor=1e-11):
    """Slope of the quotient error in t; None when the map is locally affine."""
    base = omap.evaluate(u)
    action = omap.derivative_action(u, h)
    errs = [v_norm((1.0 / t) * (omap.evaluate(u + t * h) - base) - action) for t in ts]
    usable = [(t, e) for t, e in zip(ts, errs) if e > floor]
    if len(usable) < 2:
        return None
    return float(np.polyfit(np.log([t for t, _ in usable]),
                            np.log([e for _, e in usable]), 1)[0])


def test_smoothstep_shape():
    assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0
    assert smoothstep(-3.0) == 0.0 and smoothstep(7.0) == 1.0
    for r in (0.0, 1.0):
        assert smoothstep_deriv(r) == 0.0
    eps = 1e-6
    # second derivative vanishes at both ends: slope of the slope is flat
    assert smoothstep_deriv(eps) <= 1e-10
    assert smoothstep_deriv(1 - eps) <= 1e-10
    r = np.linspace(0, 1, 200)
    assert np.all(np.diff(smoothstep(r)) >= 0)


def test_plateau_validation():
    g = Grid(5)
    with pytest.raises(ValueError):
        PlateauMap(g, [], 0.1)
    with pytest.raises(ValueError):
        PlateauMap(g, [-1.0], 0.1)
    with pytest.raises(ValueError):
        PlateauMap(g, [1.0, 1.3], 0.2)  # plateaus overlap
    with pytest.raises(ValueError):
        PlateauMap(g, [1.0], 0.0)


def test_plateau_values_on_and_between_levels(toy):
    grid, _, omap, _ = toy
    for level in (1.0, 2.0):
        u = NodalFunction.constant(grid, level)
        assert np.all(omap.evaluate(u).values == level)
        # exact on the whole plateau window
        u2 = NodalFunction.constant(grid, level + 0.9 * omap.half_width)
        assert np.all(omap.evaluate(u2).values == level)
    # transition midpoint sits on the diagonal by symmetry
    assert omap.scalar(np.array([1.5]))[0] == pytest.approx(1.5, abs=1e-14)
    # nonnegative at zero and increasing tails
    assert omap.scalar(np.array([0.0]))[0] >= 0.0
    t = np.linspace(-1.0, 3.5, 800)
    assert np.all(np.diff(omap.scalar(t)) >= -1e-14)


def test_plateau_derivative_vanishes_on_plateau(toy):
    grid, _, omap, _ = toy
    u = NodalFunction.constant(grid, 1.0)
    rng = np.random.default_rng(0)
    h = NodalFunction(grid, rng.standard_normal(grid.n_nodes))
    assert np.all(omap.derivative_action(u, h).values == 0.0)
    assert np.all(omap.derivative_action(u, NodalFunction.zeros(grid)).values == 0.0)


def test_scalar_nonlinearity_contract():
    g = ScalarNonlinearity("tanh", 2.0, 1.5)
    assert g.value(0.0) == 0.0
    assert g.max_slope == pytest.approx(3.0)
    with pytest.raises(ValueError):
        ScalarNonlinearity("exp")
    with pytest.raises(ValueError):
        ScalarNonlinearity("linear", -1.0)
    z = ScalarNonlinearity("zero")
    assert np.all(z.value(np.array([1.0, -2.0])) == 0.0)


def test_inverse_elliptic_zero_at_zero():
    g = Grid(21)
    L = assemble_operator(g, 1.0, "neumann")
    omap = InverseEllipticMap(L, ScalarNonlinearity("tanh", 0.5))
    out = omap.evaluate(NodalFunction.zeros(g))
    assert np.all(out.values == 0.0)
    zero_map = InverseEllipticMap(L, ScalarNonlinearity("zero"))
    u = NodalFunction.constant(g, 3.0)
    assert np.all(zero_map.evaluate(u).values == 0.0)
    assert lipschitz_estimate(zero_map, u, 0.5, 10) == 0.0


def test_thermoforming_flat_when_membrane_far():
    g = Grid(33)
    tmap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    u = NodalFunction.constant(g, 1.5)  # gap >= 1.5 everywhere
    temp = tmap.temperature(u)
    assert np.all(temp.values == 0.0)
    assert np.all(tmap.evaluate(u).values == 3.0)


def test_thermoforming_saturated_contact():
    # membrane far above the mould: full heat transfer, constant temperature
    g = Grid(33)
    k = 2.0
    tmap = ThermoformingMap(NodalFunction.constant(g, 1.0), k, 1.0, 0.1)
    u = NodalFunction.constant(g, 50.0)
    temp = tmap.temperature(u)
    assert np.max(np.abs(temp.values - 1.0 / k)) <= 1e-11


def test_thermoforming_a_priori_bound():
    rng = np.random.default_rng(7)
    g = Grid(40)
    tmap = ThermoformingMap(NodalFunction.constant(g, 2.0), 0.7, 1.3, 0.08)
    bound = tmap.temperature_bound()
    for _ in range(25):
        u = NodalFunction(g, rng.uniform(-1.0, 4.0, g.n_nodes))
        assert v_norm(tmap.temperature(u)) <= bound + 1e-9


def test_thermoforming_newton_path_when_not_contractive():
    # expansion large enough that the fixed-point bound exceeds 0.9: the
    # solver goes straight to Newton; the problem stays monotone and unique
    g = Grid(30)
    tmap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.6)
    assert tmap.contraction_factor >= 0.9
    rng = np.random.default_rng(17)
    for _ in range(10):
        u = NodalFunction(g, rng.uniform(1.0, 4.0, g.n_nodes))
        temp = tmap.temperature(u)
        gap = 0.6 * temp.values + 3.0 - u.values
        res = tmap._op.matrix.matvec(temp.values) - g.mass * tmap.heat_rate(gap)
        assert np.max(np.abs(res / g.mass)) <= 1e-11 * 2
        assert v_norm(temp) <= tmap.temperature_bound() + 1e-9


def test_thermoforming_validation():
    g = Grid(9)
    mould = NodalFunction.constant(g, 1.0)
    with pytest.raises(ValueError):
        ThermoformingMap(mould, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ThermoformingMap(mould, 1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        ThermoformingMap(NodalFunction.zeros(g), 1.0, 1.0, 0.1)


@pytest.mark.parametrize("kind", ["plateau", "inverse_elliptic", "thermoforming"])
def test_increasing_property(kind, toy):
    rng = np.random.default_rng(13)
    if kind == "plateau":
        _, _, omap, _ = toy
        center, spread = 1.2, 1.0
    elif kind == "inverse_elliptic":
        g = Grid(30)
        omap = InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                                  ScalarNonlinearity("tanh", 1.5))
        center, spread = 0.0, 1.5
    else:
        g = Grid(30)
        omap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
        center, spread = 2.5, 0.8
    assert check_increasing(omap, 200, rng, center=center, spread=spread)


def test_check_increasing_vacuous_trials(toy):
    _, _, omap, _ = toy
    assert check_increasing(omap, 0)


@pytest.mark.parametrize("kind", ["plateau", "inverse_elliptic", "thermoforming"])
def test_derivative_matches_finite_differences(kind, toy):
    rng = np.random.default_rng(29)
    if kind == "plateau":
        _, _, omap, _ = toy
        bases = [NodalFunction(omap.grid, rng.uniform(0.2, 2.6, omap.grid.n_nodes))
                 for _ in range(10)]
    elif kind == "inverse_elliptic":
        g = Grid(30)
        omap = InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                                  ScalarNonlinearity("tanh", 2.0))
        bases = [NodalFunction(g, rng.uniform(-1, 2, g.n_nodes)) for _ in range(10)]
    else:
        g = Grid(30)
        omap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
        bases = [NodalFunction(g, 3.0 - rng.uniform(0.1, 0.9, g.n_nodes))
                 for _ in range(10)]
    for u in bases:
        h = NodalFunction(omap.grid, rng.standard_normal(omap.grid.n_nodes))
        order = fd_order(omap, u, h)
        if order is not None:  # locally affine bases carry no order information
            assert order >= 0.9


def test_lipschitz_estimate_zero_on_plateau(toy):
    grid, _, omap, _ = toy
    center = NodalFunction.constant(grid, 1.0)
    est = lipschitz_estimate(omap, center, 0.8 * omap.half_width, 50,
                             np.random.default_rng(3))
    assert est == 0.0


def test_lipschitz_estimate_zero_for_cleared_mould():
    # mould above the flat-growth threshold: locally constant map around A^-1 f
    g = Grid(64)
    A = assemble_operator(g, 1.0, "neumann")
    tmap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    f = DualElement.constant(g, 1.0)
    ok, details = lipschitz_threshold_check(tmap, A, f)
    assert ok and details["threshold"] < 3.0
    base = A.solve(f)
    est = lipschitz_estimate(tmap, base, 0.2, 40, np.random.default_rng(5))
    assert est == 0.0


def test_lipschitz_threshold_fails_for_large_forcing():
    g = Grid(32)
    A = assemble_operator(g, 1.0, "neumann")
    tmap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    ok, _ = lipschitz_threshold_check(tmap, A, DualElement.constant(g, 5.0))
    assert not ok


def _lipschitz_reference(omap, center, radius, n_samples, rng):
    """The per-pair sampling loop that ``lipschitz_estimate`` runs in blocks."""
    grid = omap.grid

    def sample():
        z = rng.standard_normal(grid.n_nodes)
        z_fun = NodalFunction(grid, z)
        return center + (radius * rng.uniform() / v_norm(z_fun)) * z_fun

    worst = 0.0
    for _ in range(n_samples):
        u, v = sample(), sample()
        denom = v_norm(u - v)
        if denom < 1e-12:
            continue
        worst = max(worst, v_norm(omap.evaluate(u) - omap.evaluate(v)) / denom)
    return worst


def _sampled_map(kind, n):
    """A map and a center where the sampled quotients are nonzero (a far mould gives 0)."""
    g = Grid(n)
    x = g.nodes
    if kind == "plateau":
        return PlateauMap(g, [1.0, 2.0], 0.25), 1.5 + 0.3 * np.sin(3 * x)
    if kind == "neumann":
        return (InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                                   ScalarNonlinearity("tanh", 2.0)), 0.5 + x)
    if kind == "dirichlet":
        return (InverseEllipticMap(assemble_operator(g, 2.0, "dirichlet"),
                                   ScalarNonlinearity("linear", 0.7)), x * (1.0 - x))
    if kind == "thermoforming":
        return ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1), 2.3 + 0.2 * x
    assert kind == "far_mould"
    return ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1), 1.0 + 0.2 * x


# pairs per block are 2**15 // (2 n): all 32 pairs in one block at n = 101,
# 10 + 10 + 10 + 2 at n = 1601, one pair per block at n = 16401, and
# 162 + 8 for 170 pairs at n = 101
@pytest.mark.parametrize("kind, n, n_samples", [
    ("plateau", 101, 32), ("plateau", 1601, 32), ("plateau", 16401, 3),
    ("neumann", 1601, 32), ("neumann", 16401, 3),
    ("dirichlet", 101, 32), ("dirichlet", 1601, 32), ("dirichlet", 16401, 3),
    ("thermoforming", 101, 32), ("thermoforming", 101, 170), ("far_mould", 16401, 2),
    ("plateau", 101, 0), ("thermoforming", 1601, 0),
])
def test_lipschitz_estimate_matches_per_pair_loop_bitwise(kind, n, n_samples):
    omap, center_vals = _sampled_map(kind, n)
    center = NodalFunction(omap.grid, center_vals)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    est = lipschitz_estimate(omap, center, 0.3, n_samples, rng)
    ref = _lipschitz_reference(omap, center, 0.3, n_samples, ref_rng)
    assert est == ref
    assert (est > 0.0) == (n_samples > 0 and kind != "far_mould")
    # run_experiment shares the generator between the min and max runs
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_lipschitz_estimate_raises_the_per_pair_stall():
    # a mould close enough that some sampled temperature stalls
    omap, _ = _sampled_map("thermoforming", 101)
    center = NodalFunction(omap.grid, 2.6 + 0.2 * omap.grid.nodes)
    with pytest.raises(InnerSolveError) as ref:
        _lipschitz_reference(omap, center, 0.3, 32, np.random.default_rng(7))
    with pytest.raises(InnerSolveError) as got:
        lipschitz_estimate(omap, center, 0.3, 32, np.random.default_rng(7))
    assert str(got.value) == str(ref.value)


def _block_cases():
    g = Grid(101)
    x = g.nodes
    rng = np.random.default_rng(23)
    smooth = np.stack([1.2 + 0.8 * np.sin((j + 1) * x) for j in range(4)])
    yield PlateauMap(g, [1.0, 2.0], 0.25), np.vstack([smooth, rng.uniform(0.0, 3.0, (3, 101))])
    for bc, gain in (("neumann", ScalarNonlinearity("tanh", 2.0)),
                     ("dirichlet", ScalarNonlinearity("linear", 0.7))):
        yield (InverseEllipticMap(assemble_operator(g, 1.5, bc), gain),
               np.vstack([smooth, rng.standard_normal((3, 101))]))
    # Picard stops these rows after 1 (no heat), 14, 17 and 18 steps
    mould = NodalFunction.constant(g, 3.0)
    membranes = np.stack([np.full(101, 1.0), 2.0 + 0.5 * x, 2.3 + 0.2 * x, 2.4 + 0.2 * x])
    yield ThermoformingMap(mould, 1.0, 1.0, 0.1), membranes
    # contraction factor >= 0.9: Newton from zero, no Picard steps
    yield ThermoformingMap(mould, 1.0, 1.0, 0.6), membranes


@pytest.mark.parametrize("case", range(5))
def test_evaluate_rows_matches_per_row_evaluate_bitwise(case):
    omap, rows = list(_block_cases())[case]
    block = omap._evaluate_rows(rows)
    assert block.shape == rows.shape
    for row, image in zip(rows, block):
        assert np.array_equal(image, omap.evaluate(NodalFunction(omap.grid, row)).values)
    if isinstance(omap, ThermoformingMap):
        for row, temp in zip(rows, omap._temperature_rows(rows)):
            assert np.array_equal(temp, omap.temperature(NodalFunction(omap.grid, row)).values)


def test_block_with_a_stalling_row_raises_its_error():
    # the thermoforming_desk map at n = 201 stalls on this membrane
    g = Grid(201)
    omap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    stall = 2.2 + 0.3 * np.sin(3 * g.nodes)
    with pytest.raises(InnerSolveError) as alone:
        omap.evaluate(NodalFunction(g, stall))
    assert "stalled" in str(alone.value)
    rows = np.stack([np.full(201, 1.0), stall, np.full(201, 50.0)])
    with pytest.raises(InnerSolveError) as in_block:
        omap._evaluate_rows(rows)
    assert str(in_block.value) == str(alone.value)
