import json
from pathlib import Path

import numpy as np
import pytest

from qvix import (
    DualElement,
    Grid,
    GridMismatchError,
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
    solve_vi,
    v_norm,
)
import qvix.experiments
from qvix.experiments import parse_config, run_experiment
from qvix.fem import TridiagonalSpd
from qvix.obstacle_maps import LIPSCHITZ_MODES, _lipschitz_modes
from conftest import linearise

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def fd_order(omap, u, h, ts=(1e-2, 1e-3, 1e-4), floor=1e-11):
    """Slope of the quotient error in t; None when the map is locally affine."""
    base = omap.evaluate(u)
    action = omap.derivative_action(omap.linearisation(u, base), h)
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
    lin = linearise(omap, u)
    assert np.all(omap.derivative_action(lin, h).values == 0.0)
    assert np.all(omap.derivative_action(lin, NodalFunction.zeros(grid)).values == 0.0)


def test_scalar_nonlinearity_contract():
    g = ScalarNonlinearity("tanh", 2.0, 1.5)
    assert g.value(0.0) == 0.0
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
    assert lipschitz_estimate(zero_map, linearise(zero_map, u), "neumann") == 0.0


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


def test_a_temperature_above_its_a_priori_bound_raises(monkeypatch):
    g = Grid(40)
    tmap = ThermoformingMap(NodalFunction.constant(g, 2.0), 0.7, 1.3, 0.08)
    # any nonzero temperature lies above a bound of 0
    monkeypatch.setattr(ThermoformingMap, "temperature_bound", lambda self: 0.0)
    with pytest.raises(InnerSolveError, match="^temperature violates its a priori bound; "):
        tmap.temperature(NodalFunction.constant(g, 2.5))


def test_thermoforming_newton_path_when_not_contractive():
    # expansion large enough that the coupling bound, expansion times the
    # steepest heat-rate slope over min(1, reaction), exceeds 0.9, where a
    # fixed-point iteration need not contract: Newton from zero still
    # converges, and the problem stays monotone and unique
    g = Grid(30)
    tmap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.6)
    steepest = np.max(np.abs(tmap.heat_rate_slope(np.linspace(0.0, 1.0, 101))))
    assert tmap.expansion * steepest / min(1.0, tmap.reaction) >= 0.9
    rng = np.random.default_rng(17)
    for _ in range(10):
        u = NodalFunction(g, rng.uniform(1.0, 4.0, g.n_nodes))
        temp = tmap.temperature(u)
        gap = 0.6 * temp.values + 3.0 - u.values
        res = tmap._op.matrix.matvec(temp.values) - g.mass * tmap.heat_rate(gap)
        assert np.max(np.abs(res / g.mass)) <= 1e-11 * 2
        assert v_norm(temp) <= tmap.temperature_bound() + 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    lambda g, x: ThermoformingMap(NodalFunction.constant(g, 1.0), x, 1.0, 0.1),
    lambda g, x: ThermoformingMap(NodalFunction.constant(g, 1.0), 1.0, x, 0.1),
    lambda g, x: ThermoformingMap(NodalFunction.constant(g, 1.0), 1.0, 1.0, x),
    lambda g, x: PlateauMap(g, [1.0, x], 0.1),
    lambda g, x: PlateauMap(g, [1.0], x),
    lambda g, x: ScalarNonlinearity("tanh", x, 1.0),
    lambda g, x: ScalarNonlinearity("tanh", 1.0, x),
], ids=["reaction", "heat_max", "expansion", "level", "half_width", "scale", "rate"])
def test_map_constructors_refuse_non_finite_parameters(build, bad):
    # a NaN compares false with every bound, so the sign checks alone let it in
    with pytest.raises(ValueError, match="must be finite"):
        build(Grid(9), bad)


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


class _BelowZero(PlateauMap):
    def evaluate(self, u):  # increasing, but -1 at zero
        return NodalFunction(self.grid, u.values - 1.0)


class _Decreasing(PlateauMap):
    def evaluate(self, u):  # zero at zero, then decreasing
        return NodalFunction(self.grid, -u.values)


def test_check_increasing_refuses_a_map_below_zero_or_decreasing(toy):
    grid = toy[0]
    # the value at zero is checked before any trial
    assert not check_increasing(_BelowZero(grid, [1.0, 2.0], 0.25), 0)
    assert check_increasing(_Decreasing(grid, [1.0, 2.0], 0.25), 0)
    assert not check_increasing(_Decreasing(grid, [1.0, 2.0], 0.25), 1)


@pytest.mark.parametrize("kind", ["plateau", "inverse_elliptic", "thermoforming"])
def test_maps_refuse_a_state_on_another_grid(kind):
    g, other = Grid(30), Grid(30, (0.0, 2.0))
    if kind == "plateau":
        omap = PlateauMap(g, [1.0, 2.0], 0.25)
    elif kind == "inverse_elliptic":
        omap = InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                                  ScalarNonlinearity("tanh", 1.5))
    else:
        omap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    with pytest.raises(GridMismatchError, match="^state grid does not match map grid$"):
        omap.evaluate(NodalFunction.zeros(other))


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
    for bc in ("neumann", "dirichlet"):
        assert lipschitz_estimate(omap, linearise(omap, center), bc) == 0.0


def test_lipschitz_estimate_zero_for_cleared_mould():
    # mould above the flat-growth threshold: locally constant map around A^-1 f
    g = Grid(64)
    A = assemble_operator(g, 1.0, "neumann")
    tmap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    f = DualElement.constant(g, 1.0)
    ok, details = lipschitz_threshold_check(tmap, A, f)
    assert ok and details["threshold"] < 3.0
    base = A.solve(f)
    assert lipschitz_estimate(tmap, linearise(tmap, base), "neumann") == 0.0


def test_lipschitz_threshold_fails_for_large_forcing():
    g = Grid(32)
    A = assemble_operator(g, 1.0, "neumann")
    tmap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    ok, _ = lipschitz_threshold_check(tmap, A, DualElement.constant(g, 5.0))
    assert not ok


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
# up to 401 nodes; at 1601 the inner solve's condition number (about 1e6)
# puts its roundoff at 2e-11 relative
@pytest.mark.parametrize("n, span", [(11, (0.0, 1.0)), (101, (0.0, 1.0)), (401, (0.0, 1.0)),
                                     (401, (-1.0, 2.0))])
def test_lipschitz_estimate_closed_form_for_linear_gain(n, span, bc):
    # Phi'(u) = scale (K + cM)^-1 M has the modes as eigenvectors; the first is the largest
    g = Grid(n, span)
    scale, c = 1.3, 0.7
    omap = InverseEllipticMap(assemble_operator(g, c, bc), ScalarNonlinearity("linear", scale))
    # 2 (1 - cos(pi h / L)) / h^2, in the form free of cancellation
    expected = scale / (c + 4.0 * np.sin(0.5 * np.pi * g.h / g.measure) ** 2 / g.h**2)
    center = NodalFunction(g, np.sin(5.0 * g.nodes))  # a linear map's derivative ignores it
    assert lipschitz_estimate(omap, linearise(omap, center), bc) == pytest.approx(
        expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_lipschitz_modes_are_kept_read_only_per_grid_and_bc(bc):
    modes, norms = _lipschitz_modes(Grid(101), bc)
    assert _lipschitz_modes(Grid(101), bc)[0] is modes
    assert modes.shape == (101, LIPSCHITZ_MODES) and modes.flags.f_contiguous
    assert not modes.flags.writeable
    assert isinstance(norms, tuple) and len(norms) == LIPSCHITZ_MODES


def test_plateau_maps_of_a_grid_share_one_identity():
    first = PlateauMap(Grid(101), [1.0, 2.0], 0.25)
    second = PlateauMap(Grid(101), [3.0], 0.5)
    assert first._identity is second._identity
    assert np.array_equal(first._identity.to_dense(), np.eye(101))
    assert not first._identity.diag.flags.writeable


def test_lipschitz_estimate_rejects_an_unknown_boundary_condition(toy):
    grid, _, omap, _ = toy
    with pytest.raises(ValueError, match="unknown boundary condition"):
        lipschitz_estimate(omap, linearise(omap, NodalFunction.zeros(grid)), "robin")


def _mode_case(kind, n):
    """A map, a center and a boundary condition; a far mould gives a zero derivative."""
    g = Grid(n)
    x = g.nodes
    if kind == "plateau":
        return PlateauMap(g, [1.0, 2.0], 0.25), 1.5 + 0.3 * np.sin(3 * x), "neumann"
    if kind == "bump":  # slope only near x = 1/2, where the odd modes k > 1 are steepest
        return (PlateauMap(g, [1.0, 2.0], 0.25), 1.0 + 0.5 * np.exp(-((x - 0.5) / 0.02) ** 2),
                "neumann")
    if kind == "neumann":
        return (InverseEllipticMap(assemble_operator(g, 1.0, "neumann"),
                                   ScalarNonlinearity("tanh", 2.0)), 0.5 + x, "neumann")
    if kind == "dirichlet":
        return (InverseEllipticMap(assemble_operator(g, 2.0, "dirichlet"),
                                   ScalarNonlinearity("linear", 0.7)), x * (1.0 - x), "dirichlet")
    mould = NodalFunction.constant(g, 3.0)
    if kind == "thermoforming":
        return ThermoformingMap(mould, 1.0, 1.0, 0.1), 2.3 + 0.2 * x, "neumann"
    assert kind == "far_mould"
    return ThermoformingMap(mould, 1.0, 1.0, 0.1), 1.0 + 0.2 * x, "neumann"


def _lipschitz_reference(omap, center, bc):
    """The per-pair loop: each mode and its derivative image in turn, modes built as k pi i / (n - 1)."""
    n = omap.grid.n_nodes
    wave = np.cos if bc == "neumann" else np.sin
    lin = linearise(omap, center)
    worst = 0.0
    for k in range(1, 6):
        vals = wave(k * (np.pi * np.arange(n) / (n - 1)))
        if bc == "dirichlet":
            vals[-1] = 0.0
        mode = NodalFunction(omap.grid, vals)
        worst = max(worst, v_norm(omap.derivative_action(lin, mode)) / v_norm(mode))
    return worst


# the last number seeds a perturbation of the center of size 1e-3, so
# cases on one grid differ
@pytest.mark.parametrize("kind, n, seed", [
    ("plateau", 101, 32), ("plateau", 1601, 32), ("plateau", 16401, 3),
    ("neumann", 1601, 32), ("neumann", 16401, 3),
    ("dirichlet", 101, 32), ("dirichlet", 1601, 32), ("dirichlet", 16401, 3),
    ("thermoforming", 101, 32), ("thermoforming", 101, 170), ("far_mould", 16401, 2),
    ("plateau", 101, 0), ("bump", 401, 0),
])
def test_lipschitz_estimate_matches_per_pair_loop_bitwise(kind, n, seed):
    omap, center_vals, bc = _mode_case(kind, n)
    g = omap.grid
    center_vals = center_vals + 1e-3 * np.random.default_rng(seed).standard_normal(g.n_nodes)
    if kind == "dirichlet":
        center_vals[[0, -1]] = 0.0
    center = NodalFunction(g, center_vals)
    lin = linearise(omap, center)
    est = lipschitz_estimate(omap, lin, bc)
    assert est == _lipschitz_reference(omap, center, bc)
    assert (est > 0.0) == (kind != "far_mould")
    # the modes, from the nodes, are eigenvectors of the H1/lumped-mass pencil
    stiffness = assemble_operator(g, 1.0, bc).matrix
    interior = slice(1, -1) if bc == "dirichlet" else slice(None)
    wave = np.cos if bc == "neumann" else np.sin
    quotients = []
    for k in range(1, 6):
        vals = wave(k * np.pi * (g.nodes - g.span[0]) / g.measure)
        if bc == "dirichlet":
            vals[[0, -1]] = 0.0
        eig = 1.0 + 4.0 * np.sin(0.5 * k * np.pi * g.h / g.measure) ** 2 / g.h**2
        gap = stiffness.matvec(vals) - eig * g.mass * vals
        # roundoff of the matvec, whose entries are of size 2 / h
        assert np.max(np.abs(gap[interior])) <= 64 * np.finfo(float).eps * 4.0 / g.h
        mode = NodalFunction(g, vals)
        quotients.append(v_norm(omap.derivative_action(lin, mode)) / v_norm(mode))
    assert est == pytest.approx(max(quotients), rel=1e-12, abs=0.0)
    assert (int(np.argmax(quotients)) > 0) == (kind == "bump")


@pytest.mark.parametrize("kind", ["plateau", "neumann", "dirichlet", "thermoforming"])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_lipschitz_estimate_is_the_per_mode_formula_of_a_fresh_map(kind, bc):
    omap, center_vals, _ = _mode_case(kind, 101)
    g = omap.grid
    center = NodalFunction(g, center_vals)
    shifted = NodalFunction(g, center_vals + 0.05)
    # an estimate at another state under the other condition first
    other_bc = "dirichlet" if bc == "neumann" else "neumann"
    lipschitz_estimate(omap, linearise(omap, shifted), other_bc)
    for u in (center, shifted, center):
        est = lipschitz_estimate(omap, linearise(omap, u), bc)
        assert est == _lipschitz_reference(_mode_case(kind, 101)[0], u, bc)
        assert est > 0.0


def _counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _sign_aware(slope):
    """The slope plus a term that tells -0.0 from 0.0."""
    return lambda self, r: slope(self, r) + np.copysign(0.25, r)


@pytest.mark.parametrize("kind", ["plateau", "neumann", "thermoforming"])
def test_kept_linearisation_gives_the_bits_of_a_fresh_map(kind, monkeypatch):
    if kind == "plateau":
        monkeypatch.setattr(PlateauMap, "scalar_slope", _sign_aware(PlateauMap.scalar_slope))
    elif kind == "neumann":
        monkeypatch.setattr(ScalarNonlinearity, "slope", _sign_aware(ScalarNonlinearity.slope))
    omap, center_vals, _ = _mode_case(kind, 101)
    g = omap.grid
    h = NodalFunction(g, np.cos(3.0 * g.nodes))
    u1 = NodalFunction(g, center_vals)
    u2 = NodalFunction(g, center_vals + 0.05 * np.sin(5.0 * g.nodes))
    zero, negative_zero = NodalFunction.zeros(g), NodalFunction(g, np.full(g.n_nodes, -0.0))
    states = (u1, u2, u1, zero, negative_zero, zero)
    # every linearisation is held while the map works at the other states
    lins = [linearise(omap, u) for u in states]
    actions = []
    for u, lin in zip(states, lins):
        actions.append(omap.derivative_action(lin, h).values.tobytes())
        fresh = _mode_case(kind, 101)[0]
        assert actions[-1] == fresh.derivative_action(linearise(fresh, u), h).values.tobytes()
    assert actions[0] != actions[1]
    # equal as values, apart as bytes: the sign of zero reaches the slope
    assert (actions[3] != actions[4]) == (kind != "thermoforming")


def test_the_per_pair_stall_raises_through_evaluate_temperature_and_the_run(tmp_path,
                                                                            monkeypatch):
    # the thermoforming_desk map at n = 201 stalls on this membrane, which
    # is not constant, so the stall is not that of a constant temperature
    g = Grid(201)
    omap = ThermoformingMap(NodalFunction.constant(g, 3.0), 1.0, 1.0, 0.1)
    stall = NodalFunction(g, 2.2 + 0.3 * np.sin(3 * g.nodes))
    with pytest.raises(InnerSolveError) as alone:
        omap.evaluate(stall)
    assert str(alone.value).startswith("temperature solve stalled at residual ")
    with pytest.raises(InnerSolveError) as temperature:
        omap.temperature(stall)
    assert str(temperature.value) == str(alone.value)
    # a max run of thermoforming_desk at 201 that starts on the membrane
    raw = json.loads((CONFIG_DIR / "thermoforming_desk.json").read_text())
    raw["grid"]["n_nodes"] = 201
    raw["run"] = "max"
    raw["sensitivity"]["enabled"] = False
    monkeypatch.setattr(qvix.experiments, "_run_start", lambda A, f, which: stall)
    artifacts = run_experiment(parse_config(raw), out_dir=tmp_path)
    assert artifacts.failures == [f"max: {alone.value}"]


def _evaluate_cases():
    g = Grid(101)
    x = g.nodes
    rng = np.random.default_rng(23)
    smooth = np.stack([1.2 + 0.8 * np.sin((j + 1) * x) for j in range(4)])
    yield PlateauMap(g, [1.0, 2.0], 0.25), np.vstack([smooth, rng.uniform(0.0, 3.0, (3, 101))])
    for bc, gain in (("neumann", ScalarNonlinearity("tanh", 2.0)),
                     ("dirichlet", ScalarNonlinearity("linear", 0.7))):
        yield (InverseEllipticMap(assemble_operator(g, 1.5, bc), gain),
               np.vstack([smooth, rng.standard_normal((3, 101))]))
    # Newton from zero: no step on the unheated row, at most 4 on the others
    mould = NodalFunction.constant(g, 3.0)
    membranes = np.stack([np.full(101, 1.0), 2.0 + 0.5 * x, 2.3 + 0.2 * x, 2.4 + 0.2 * x])
    yield ThermoformingMap(mould, 1.0, 1.0, 0.1), membranes
    # contraction factor >= 0.9: the same Newton loop, more strongly coupled
    yield ThermoformingMap(mould, 1.0, 1.0, 0.6), membranes


@pytest.mark.parametrize("case", range(5))
def test_evaluate_solves_the_map_equation(case):
    omap, rows = list(_evaluate_cases())[case]
    g = omap.grid
    for row in rows:
        u = NodalFunction(g, row)
        phi = omap.evaluate(u).values
        if isinstance(omap, PlateauMap):
            assert np.array_equal(phi, omap.scalar(row))
        elif isinstance(omap, InverseEllipticMap):
            inner = omap._inner
            load = g.mass * omap.gain.value(row)
            load[inner.boundary] = 0.0
            gap = inner.matrix.matvec(phi) - load
            assert np.max(np.abs(gap)) <= 1e-12 * (1.0 + np.max(np.abs(load)))
        else:
            temp = omap.temperature(u).values
            assert np.array_equal(phi, omap.mould.values + omap.expansion * temp)
            heat = omap.heat_rate(omap.expansion * temp + omap.mould.values - row)
            res = (omap._op.matrix.matvec(temp) - g.mass * heat) / g.mass
            assert np.max(np.abs(res)) <= 1e-12 * (1.0 + omap.heat_max)


def _counting_solves(monkeypatch):
    calls = []
    solve = TridiagonalSpd.solve

    def counted(self, rhs):
        calls.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(TridiagonalSpd, "solve", counted)
    return calls


def test_one_temperature_solve_per_membrane_state(monkeypatch):
    # the caller's evaluation is the one Newton solve at a state: the
    # linearisation reads its obstacle, and each action is one band solve
    omap, rows = list(_evaluate_cases())[3]
    g = omap.grid
    calls = _counting_solves(monkeypatch)
    u = NodalFunction(g, rows[2])
    phi = omap.evaluate(u)
    assert len(calls) > 2  # the Newton steps
    calls.clear()
    lin = omap.linearisation(u, phi)
    assert not calls
    temperatures = _counting(monkeypatch, ThermoformingMap, "temperature")
    for h in (np.cos(3.0 * g.nodes), np.ones(g.n_nodes)):
        calls.clear()
        omap.derivative_action(lin, NodalFunction(g, h))
        assert len(calls) == 1
    assert not temperatures


def test_a_temperature_stall_is_not_kept(monkeypatch):
    omap, rows = list(_evaluate_cases())[3]
    u = NodalFunction(omap.grid, rows[2])
    calls = _counting_solves(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(omap, "heat_rate", lambda gap: np.full_like(gap, np.nan))
        for _ in range(2):
            calls.clear()
            with pytest.raises(InnerSolveError, match="temperature solve stalled"):
                omap.temperature(u)
            assert len(calls) == 60
    calls.clear()
    assert np.any(omap.temperature(u).values != 0.0) and calls


def test_a_temperature_whose_full_newton_steps_diverge_converges_damped():
    # the first iterate of a min run (u = 0.6871 at every node); undamped
    # Newton from zero raised "temperature solve stalled at residual 1.75e+00
    # against 2.8e-12 (contraction factor 2.755)" here
    g = Grid(61)
    A = assemble_operator(g, 4.005, "neumann")
    omap = ThermoformingMap(NodalFunction.constant(g, 0.423), 1.004, 1.751, 0.839)
    f = DualElement(g, 2.945 + 1.528 * g.nodes)
    u = solve_vi(A, f, omap.evaluate(NodalFunction.zeros(g))).u
    temp = omap.temperature(u)
    gap = omap.expansion * temp.values + omap.mould.values - u.values
    load = assemble_operator(g, omap.reaction, "neumann").matrix.matvec(temp.values) \
        - g.mass * omap.heat_rate(gap)
    assert np.max(np.abs(load / g.mass)) <= 1e-12 * (1.0 + omap.heat_max)
    assert 0.0 < v_norm(temp) <= omap.temperature_bound()


def test_temperature_is_newton_from_zero(monkeypatch):
    omap, rows = list(_evaluate_cases())[3]
    g = omap.grid
    calls = _counting_solves(monkeypatch)
    for row, heated in zip(rows, (False, True, True, True)):
        u = NodalFunction(g, row)
        calls.clear()
        # temperature raises unless it reaches the residual test
        temp = omap.temperature(u).values
        assert len(calls) <= 4 if heated else not calls
        assert bool(np.any(temp != 0.0)) is heated


@pytest.mark.parametrize("case", [3, 4])
def test_thermoforming_derivative_solves_at_the_temperature(case, monkeypatch):
    omap, rows = list(_evaluate_cases())[case]
    fine = Grid(1601)
    inputs = [(omap, row) for row in rows]
    # a membrane heated in a thin band: its temperature solve ends at 1601 nodes
    inputs.append((ThermoformingMap(NodalFunction.constant(fine, 3.0), omap.reaction,
                                    omap.heat_max, omap.expansion), 2.0 + 0.05 * fine.nodes))
    calls = _counting_solves(monkeypatch)
    newton_steps = []
    for tmap, row in inputs:
        g = tmap.grid
        mass, mat = g.mass, tmap._op.matrix
        u = NodalFunction(g, row)
        calls.clear()
        temp = tmap.temperature(u)
        newton_steps.append(len(calls))
        gap = tmap.expansion * temp.values + tmap.mould.values - row
        slope = tmap.heat_rate_slope(gap)
        jac = TridiagonalSpd(mat.diag - mass * slope * tmap.expansion, mat.upper)
        # the map's gap phi - u has the bits of the Newton loop's last gap
        B, w = tmap.linearisation(u, tmap.evaluate(u))
        for band in ("diag", "upper", "pivots", "multipliers"):
            assert getattr(B, band).tobytes() == getattr(jac, band).tobytes()
        assert w.tobytes() == (-tmap.expansion * mass * slope).tobytes()
        for h in (np.ones(g.n_nodes), np.cos(3.0 * g.nodes)):
            want = jac.solve(-tmap.expansion * mass * slope * h)
            got = tmap.derivative_action((B, w), NodalFunction(g, h)).values
            assert np.array_equal(got, want)
    assert newton_steps[0] == 0 and min(newton_steps[1:]) > 1
