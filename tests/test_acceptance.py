"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and timing budget; the
budgets are generous for the work involved, so a timeout indicates an
algorithmic regression rather than machine noise.
"""

import time
from pathlib import Path

import numpy as np

from qvix import (
    DualElement,
    Grid,
    IntervalBracket,
    InverseEllipticMap,
    NodalFunction,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    assemble_operator,
    build_cone,
    check_increasing,
    fd_validate,
    iterate_max,
    iterate_min,
    leq,
    lipschitz_threshold_check,
    load_config,
    oracle_vi,
    run_experiment,
    solve_derivative_qvi,
    solve_vi,
    v_norm,
)
from qvix.cli import main as cli_main
from qvix.sensitivity import QUOTIENT_STEPS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = ("toy_min", "toy_max", "inverse_elliptic_max", "thermoforming_desk")


def _report(n, label):
    print(f"[acceptance] criterion {n} ({label}): PASS")


def toy_problem():
    grid = Grid(101)
    A = assemble_operator(grid, 1.0, "neumann")
    omap = PlateauMap(grid, [1.0, 2.0], 0.25)
    f = DualElement.constant(grid, 2.0)
    return grid, A, omap, f


def random_thermoforming(rng):
    n = int(rng.integers(16, 29))
    grid = Grid(n)
    A = assemble_operator(grid, float(rng.uniform(0.8, 1.5)), "neumann")
    mould = NodalFunction(grid, rng.uniform(2.4, 3.4)
                          + 0.2 * np.sin(np.pi * grid.nodes) * rng.uniform(-1, 1))
    omap = ThermoformingMap(mould, float(rng.uniform(0.6, 1.8)), 1.0,
                            float(rng.uniform(0.05, 0.15)))
    f = DualElement(grid, rng.uniform(0.2, 3.0, n))
    d = DualElement(grid, rng.uniform(0.0, 1.0, n))
    return grid, A, omap, f, d


def random_inverse_elliptic(rng):
    n = int(rng.integers(16, 29))
    grid = Grid(n)
    A = assemble_operator(grid, float(rng.uniform(0.8, 1.5)), "neumann")
    inner = assemble_operator(grid, float(rng.uniform(0.5, 2.0)), "neumann")
    omap = InverseEllipticMap(inner, ScalarNonlinearity("tanh", float(rng.uniform(0.3, 2.0))))
    f = DualElement(grid, rng.uniform(0.2, 3.0, n))
    d = DualElement(grid, rng.uniform(0.0, 1.0, n))
    return grid, A, omap, f, d


def test_criterion_01_toy_extremal_runs():
    t0 = time.perf_counter()
    grid, A, omap, f = toy_problem()
    rmin = iterate_min(A, f, omap, NodalFunction.zeros(grid))
    assert rmin.n_iters <= 100
    assert np.max(np.abs(rmin.solution.values - 1.0)) <= 1e-8
    assert min(rmin.min_delta_history) >= -1e-10

    start = A.solve(f + DualElement.constant(grid, 1.0))
    assert np.max(np.abs(start.values - 3.0)) <= 1e-10
    rmax = iterate_max(A, f, omap, start)
    assert rmax.n_iters <= 100
    assert np.max(np.abs(rmax.solution.values - 2.0)) <= 1e-8
    assert max(rmax.max_delta_history) <= 1e-10
    assert time.perf_counter() - t0 < 1.0
    _report(1, "toy minimal and maximal runs")


def test_criterion_02_toy_sensitivity():
    t0 = time.perf_counter()
    grid, A, omap, f = toy_problem()
    d = DualElement.constant(grid, 1.0)
    bracket = IntervalBracket.default(A, f)
    report = fd_validate(A, f, d, omap, bracket, "min")
    assert [s for s, _ in report.fd_table] == [1e-1, 1e-2, 1e-3, 1e-4]
    assert v_norm(report.alpha) <= 1e-10
    # alpha vanishes, so each table entry is the quotient norm itself
    for _, err in report.fd_table:
        assert err <= 1e-10
    assert time.perf_counter() - t0 < 2.0
    _report(2, "toy sensitivity: zero derivative and quotients")


def test_criterion_03_oracle_equivalence_500():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(4, 11))
        grid = Grid(n)
        A = assemble_operator(grid, 1.0, "neumann")
        f = DualElement(grid, rng.uniform(-3.0, 3.0, n))
        phi = NodalFunction(grid, rng.uniform(-1.0, 2.0, n))
        fast = solve_vi(A, f, phi)
        ref = oracle_vi(A, f, phi)
        assert np.max(np.abs(fast.u.values - ref.u.values)) <= 1e-9
    assert time.perf_counter() - t0 < 30.0
    _report(3, "500 random instances match the exact oracle")


def test_criterion_04_comparison_principle_suite():
    rng = np.random.default_rng(4096)
    grid = Grid(30)
    A = assemble_operator(grid, 1.0, "neumann")
    violations = 0
    for _ in range(200):
        f1 = DualElement(grid, rng.uniform(-2.0, 2.0, 30))
        f2 = f1 + DualElement(grid, rng.uniform(0.0, 1.5, 30))
        phi = NodalFunction(grid, rng.uniform(-0.5, 1.5, 30))
        u1 = solve_vi(A, f1, phi).u
        u2 = solve_vi(A, f2, phi).u
        if not leq(u1, u2, 1e-10):
            violations += 1
    for _ in range(200):
        f = DualElement(grid, rng.uniform(-2.0, 2.0, 30))
        phi1 = NodalFunction(grid, rng.uniform(-0.5, 1.5, 30))
        phi2 = NodalFunction(grid, phi1.values + rng.uniform(0.0, 1.0, 30))
        u1 = solve_vi(A, f, phi1).u
        u2 = solve_vi(A, f, phi2).u
        if not leq(u1, u2, 1e-10):
            violations += 1
    assert violations == 0
    _report(4, "comparison principle: 400 ordered pairs, zero violations")


def test_criterion_05_monotone_iterates_on_bundled_configs():
    for name in BUNDLED:
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        from qvix.experiments import build_problem
        problem = build_problem(cfg)
        A, f, omap = problem.operator, problem.forcing, problem.omap
        bracket = IntervalBracket.default(A, f)
        runs = ["min", "max"] if cfg.run == "both" else [cfg.run]
        for which in runs:
            if which == "min":
                rep = iterate_min(A, f, omap, bracket.lower)
                assert min(rep.min_delta_history) >= -1e-10, name
            else:
                rep = iterate_max(A, f, omap, bracket.upper)
                assert max(rep.max_delta_history) <= 1e-10, name
            assert rep.qvi_residual <= 1e-8, name
    _report(5, "monotone iterates and residuals across bundled configs")


def test_criterion_06_perturbed_start_identity_20_instances():
    rng = np.random.default_rng(606)
    for trial in range(20):
        if trial % 2 == 0:
            grid, A, omap, f, d = random_thermoforming(rng)
        else:
            grid, A, omap, f, d = random_inverse_elliptic(rng)
        s = float(rng.uniform(0.05, 0.5))
        shifted = f + s * d
        base = iterate_min(A, f, omap, NodalFunction.zeros(grid)).solution
        warm = iterate_min(A, shifted, omap, base).solution
        cold = iterate_min(A, shifted, omap, NodalFunction.zeros(grid)).solution
        assert v_norm(warm - cold) <= 1e-8, trial
    _report(6, "perturbed-start identity on 20 randomized instances")


def test_criterion_07_thermoforming_map_properties():
    rng = np.random.default_rng(707)
    grid = Grid(40)
    omap = ThermoformingMap(NodalFunction.constant(grid, 3.0), 1.0, 1.0, 0.1)
    bound = omap.temperature_bound()

    # a priori bound on every inner solve (also asserted inside the solver)
    for _ in range(30):
        u = NodalFunction(grid, rng.uniform(-1.0, 4.5, grid.n_nodes))
        assert v_norm(omap.temperature(u)) <= bound + 1e-9

    assert check_increasing(omap, 200, rng, center=2.5, spread=0.8)

    # derivative vs quotients at bases whose gap sweeps the transition zone
    orders = []
    for _ in range(10):
        u = NodalFunction(grid, 3.0 - rng.uniform(0.1, 0.9, grid.n_nodes))
        h = NodalFunction(grid, rng.standard_normal(grid.n_nodes))
        base = omap.evaluate(u)
        action = omap.derivative_action(omap.linearisation(u, base), h)
        errs = [(t, v_norm((1.0 / t) * (omap.evaluate(u + t * h) - base) - action))
                for t in (1e-2, 1e-3, 1e-4)]
        usable = [(t, e) for t, e in errs if e > 1e-11]
        if len(usable) >= 2:
            orders.append(np.polyfit(np.log([t for t, _ in usable]),
                                     np.log([e for _, e in usable]), 1)[0])
    assert orders and min(orders) >= 0.9
    _report(7, "thermoforming bound, monotonicity, derivative order")


def test_criterion_08_thermoforming_desk_run(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "thermoforming_desk.json")
    from qvix.experiments import build_problem
    problem = build_problem(cfg)
    ok, details = lipschitz_threshold_check(problem.omap, problem.operator,
                                            problem.forcing)
    assert ok, details  # mould clears the flat-growth threshold

    artifacts = run_experiment(cfg, out_dir=tmp_path / "desk", seed=0)
    assert artifacts.ok
    sens = artifacts.summary["runs"]["min"]["sensitivity"]
    table = dict(zip(QUOTIENT_STEPS, _desk_table(artifacts)))
    assert table[1e-4] <= 1e-3
    assert sens["fd_monotone"] is True
    assert time.perf_counter() - t0 < 60.0
    _report(8, "thermoforming desk run: threshold plus quotient validation")


def _desk_table(artifacts):
    rows = artifacts.files["sensitivity_min"].read_text().splitlines()[1:]
    return [float(r.split(",")[1]) for r in rows]


def test_criterion_09_positive_homogeneity_on_bundled_configs():
    from qvix.experiments import build_problem
    for name in BUNDLED:
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        if not cfg.sensitivity:
            continue
        problem = build_problem(cfg)
        A, f, d, omap = (problem.operator, problem.forcing, problem.direction,
                         problem.omap)
        bracket = IntervalBracket.default(A, f)
        if cfg.run == "min":
            base = iterate_min(A, f, omap, bracket.lower).solution
        else:
            base = iterate_max(A, f, omap, bracket.upper).solution
        cone = build_cone(A, f, omap, base)
        a1 = solve_derivative_qvi(cone, d, cfg.run).alpha
        for c in (2.0, 10.0):
            ac = solve_derivative_qvi(cone, c * d, cfg.run).alpha
            assert v_norm(ac - c * a1) <= 1e-9, (name, c)
    _report(9, "positive homogeneity of the derivative on bundled configs")


def test_criterion_10_byte_deterministic_cli_runs(tmp_path):
    cfg_path = str(CONFIG_DIR / "inverse_elliptic_max.json")
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    _report(10, "byte-identical outputs for a fixed config")
