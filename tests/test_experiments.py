import json
import logging
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qvix.experiments
import qvix.obstacle_maps
from qvix import (ConfigError, Grid, InnerSolveError, IntervalBracket, iterate_max, iterate_min,
                  load_config, run_experiment)
from qvix.cli import main as cli_main
from qvix.experiments import (
    _column_text,
    _eval_expr,
    _float_text,
    _write_csv,
    build_problem,
    parse_config,
    write_solution_csv,
)
from qvix.fem import TridiagonalSpd
from qvix.obstacle_maps import InverseEllipticMap, ObstacleMap, PlateauMap, ThermoformingMap

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def toy_config_dict(**overrides):
    cfg = {
        "version": 1,
        "grid": {"n_nodes": 21, "interval": [0.0, 1.0]},
        "operator": {"c": 1.0, "bc": "neumann"},
        "map": {"kind": "plateau", "levels": [1.0, 2.0], "half_width": 0.25},
        "forcing": {"const": 2.0},
        "direction": {"expr": {"const": 1.0}},
        "run": "min",
        "sensitivity": {"enabled": True},
    }
    cfg.update(overrides)
    return cfg


def test_bundled_configs_parse():
    for name in ("toy_min", "toy_max", "inverse_elliptic_max", "thermoforming_desk"):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        build_problem(cfg)


def test_expressions():
    nodes = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigError, match="p: expected an object"):
        _eval_expr(2.5, nodes, "p")
    assert np.allclose(_eval_expr({"const": -1.0}, nodes, "p"), -1.0)
    assert np.allclose(_eval_expr({"poly": [1.0, 0.0, 2.0]}, nodes, "p"),
                       1.0 + 2.0 * nodes**2)
    assert np.allclose(_eval_expr({"sine": {"offset": 1.0, "amplitude": 3.0,
                                            "frequency": 0.5}}, nodes, "p"),
                       1.0 + 3.0 * np.sin(np.pi * nodes))
    with pytest.raises(ConfigError):
        _eval_expr({"cosine": {}}, nodes, "p")
    with pytest.raises(ConfigError):
        _eval_expr({"const": 1.0, "poly": [1.0]}, nodes, "p")


@pytest.mark.parametrize("mutate,field", [
    (lambda c: c.update(typo=1), "typo"),
    (lambda c: c["grid"].update(spacing=0.1), "grid"),
    (lambda c: c["map"].update(colour="red"), "map"),
    (lambda c: c["sensitivity"].update(extra=True), "sensitivity"),
])
def test_unknown_fields_rejected(mutate, field):
    cfg = toy_config_dict()
    mutate(cfg)
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config(cfg)


def test_version_and_enum_validation():
    with pytest.raises(ConfigError, match="version"):
        parse_config(toy_config_dict(version=2))
    # 1 and only the integer 1: True and 1.0 compare equal to it
    for version in (True, 1.0, "1"):
        with pytest.raises(ConfigError, match=rf"config\.version: expected 1, got {version!r}"):
            parse_config(toy_config_dict(version=version))
    with pytest.raises(ConfigError, match="run"):
        parse_config(toy_config_dict(run="minmax"))
    bad = toy_config_dict()
    bad["operator"]["bc"] = "robin"
    with pytest.raises(ConfigError, match="bc"):
        parse_config(bad)


def test_sensitivity_needs_single_run_and_matching_sign(tmp_path, capsys):
    with pytest.raises(ConfigError, match="single extremal map"):
        parse_config(toy_config_dict(run="both"))
    # the run fixes the sign: a nonnegative direction cannot serve the maximal map
    bad = toy_config_dict(run="max")
    message = "config.direction: maximal-map sensitivity needs a nonpositive direction"
    with pytest.raises(ConfigError, match=message):
        build_problem(parse_config(bad))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "x")]):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_mixed_sign_direction_rejected_at_build():
    cfg = toy_config_dict()
    cfg["direction"] = {"expr": {"sine": {"amplitude": 1.0, "frequency": 1.0}}}
    with pytest.raises(ConfigError, match="minimal-map sensitivity needs a nonnegative direction"):
        build_problem(parse_config(cfg))
    # without sensitivity the direction is checked but not read, at any sign
    for run in ("min", "max", "both"):
        cfg.update(run=run, sensitivity={"enabled": False})
        build_problem(parse_config(cfg))


def test_negative_forcing_rejected_at_build():
    cfg = toy_config_dict(forcing={"const": -1.0})
    with pytest.raises(ConfigError, match="forcing"):
        build_problem(parse_config(cfg))


def test_run_experiment_toy(tmp_path):
    cfg = load_config(CONFIG_DIR / "toy_min.json")
    artifacts = run_experiment(cfg, out_dir=tmp_path / "out", seed=0)
    assert artifacts.ok
    s = artifacts.summary
    assert "monotone" not in s["runs"]["min"]
    assert s["runs"]["min"]["qvi_residual"] <= 1e-8
    assert abs(s["runs"]["min"]["solution_max"] - 1.0) <= 1e-8
    assert s["runs"]["min"]["sensitivity"]["alpha_vnorm"] <= 1e-10

    sens = (tmp_path / "out" / "sensitivity_min.csv").read_text().splitlines()
    assert sens[0] == "s,quotient_error_vnorm"
    assert len(sens) == 5  # one row per step
    for line in sens[1:]:
        assert float(line.split(",")[1]) <= 1e-12


def test_solution_csv_class_column_matches_partition(tmp_path):
    cfg = load_config(CONFIG_DIR / "toy_min.json")
    run_experiment(cfg, out_dir=tmp_path, seed=0)
    rows = (tmp_path / "solution_min.csv").read_text().splitlines()
    assert rows[0] == "x,u,phi_u,lambda,class"
    classes = {row.split(",")[4] for row in rows[1:]}
    assert classes == {"S"}  # toy minimal solution is strictly active everywhere


def test_a_solution_table_forms_the_multiplier_once(tmp_path, multiplier_calls):
    problem = build_problem(load_config(CONFIG_DIR / "inverse_elliptic_max.json"))
    A, f, omap = problem.operator, problem.forcing, problem.omap
    bracket = IntervalBracket.default(A, f)
    reports = {"min": iterate_min(A, f, omap, bracket.lower),
               "max": iterate_max(A, f, omap, bracket.upper)}
    for which, report in reports.items():
        multiplier_calls.clear()
        write_solution_csv(tmp_path / f"solution_{which}.csv", problem, report)
        assert len(multiplier_calls) == 1


def test_csv_cells_keep_their_text(tmp_path):
    path = tmp_path / "table.csv"
    _write_csv(path, {
        "iter": [1, np.int64(2), 3],
        "value": [np.float64(0.1), -0.0, 5e-324],
        "big": np.array([1e300, -2.5, 1.0]),
        "class": ["S", "B", "I"],
    })
    assert path.read_bytes() == (b"iter,value,big,class\n"
                                 b"1,0.1,1e+300,S\n"
                                 b"2,-0.0,-2.5,B\n"
                                 b"3,5e-324,1.0,I\n")


def _column_texts(values):
    """The column as drawn, and tiled so that each cell repeats many times."""
    return values, np.tile(values, 128)


def test_column_text_is_repr_of_every_cell():
    # 0.0 and -0.0 keep their own text
    third = 1.0 / 3.0
    values = np.array([0.0, -0.0, 5e-324, third, -0.0, np.inf, 0.0, -np.inf, np.nan,
                       third, -0.0, 0.0, 0.1 + 0.2, -np.inf, 0.1 + 0.2, 5e-324])
    for column in (*_column_texts(values), np.array([])):
        assert _column_text(column) == [repr(v) for v in column.tolist()]
    # both sides of each edge where orjson's layout leaves repr's or meets it
    edges = np.array([1e-9, 1e-5, 1e-4, 1e16])
    edges = np.concatenate([edges, -edges])
    around = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
                             [1e-7, 1e22, 1e23, np.finfo(float).max,
                              np.finfo(float).smallest_normal]])
    for column in _column_texts(around):
        assert _column_text(column) == [repr(v) for v in column.tolist()]


def test_float_text_of_one_cell_and_of_none():
    for x in (0.1, -0.0, 1e-5, np.nan, -np.inf, 1e16, 1e-9, 9.999999999999999e-10, -2.5e-300):
        assert _float_text(np.array([x])) == [repr(x)]
    assert _float_text(np.array([])) == []


def test_column_text_on_each_path():
    # a constant column, the grid nodes, and columns with few and with many
    # neighbour repeats; the pool mixes the signed zeros and repr's layouts
    n = 512
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 1e-7, -3e-5, 0.1 + 0.2, 1e16, -1e-10, 2.5e-9, 1.0 / 3.0, np.nan])
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 18, n)
    few = distinct.copy()
    few[1::8] = few[0::8]
    many = np.repeat(rng.choice(pool, n // 4), 4)
    columns = [np.full(n, x) for x in pool]
    columns += [Grid(1601).nodes, distinct, few, many]
    for column in columns:
        assert _column_text(column) == [repr(v) for v in column.tolist()]


def test_column_text_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    # any double, with m * 10**k near the edges where orjson's layout leaves
    # repr's or meets it and across every negative exponent, the signed
    # zeros and the other specials drawn often
    exponents = st.one_of(st.sampled_from([-11, -10, -9, -8, -6, -5, -4, -3, 14, 15, 16, 17]),
                          st.integers(-323, -1))
    near_edges = st.builds(lambda m, k: m * 10.0 ** k, st.floats(-10.0, 10.0), exponents)
    floats = st.one_of(st.floats(width=64), near_edges,
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]))
    pooled = st.lists(floats, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=40)).map(np.array)
    any_array = hnp.arrays(np.float64, st.integers(0, 40), elements=floats)

    @hypothesis.settings(database=None, deadline=None)
    @hypothesis.given(st.one_of(pooled, any_array))
    def check(values):
        for column in _column_texts(values.astype(float)):
            assert _column_text(column) == [repr(v) for v in column.tolist()]

    check()


@pytest.mark.parametrize("name", ["toy_min", "toy_max", "inverse_elliptic_max",
                                  "thermoforming_desk"])
def test_run_both_writes_the_bytes_of_separate_runs(tmp_path, name):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grid"]["n_nodes"] = 401
    raw["sensitivity"]["enabled"] = False
    files = {}
    for run in ("min", "max", "both"):
        raw["run"] = run
        artifacts = run_experiment(parse_config(raw), out_dir=tmp_path / run, seed=0)
        assert artifacts.ok, artifacts.failures
        files[run] = artifacts.files
    for which in ("min", "max"):
        for table in ("solution", "iterates"):
            key = f"{table}_{which}"
            assert files["both"][key].read_bytes() == files[which][key].read_bytes(), key


def _both_without_sensitivity(name, direction, **overrides):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grid"]["n_nodes"] = 801
    raw.update(run="both", sensitivity={"enabled": False},
               direction={"expr": {"const": direction}}, **overrides)
    return raw


def _heated_desk(direction):
    raw = _both_without_sensitivity("thermoforming_desk", direction, forcing={"const": 1.0})
    raw["map"]["mould"] = {"const": 2.5}
    return raw


def test_max_run_without_sensitivity_starts_below_the_direction(tmp_path):
    # from A^-1 (f + 1) the max run would pass through a heated state whose
    # temperature solve stalls; from A^-1 f it reaches the solution directly
    artifacts = run_experiment(parse_config(_heated_desk(1.0)), out_dir=tmp_path, seed=0)
    assert artifacts.ok, artifacts.failures


@pytest.mark.parametrize("raw", [
    _heated_desk,
    lambda d: _both_without_sensitivity("toy_min", d),
], ids=["thermoforming_desk-heated", "toy_min"])
def test_direction_without_sensitivity_changes_no_byte(tmp_path, raw):
    written = {}
    for direction in (1.0, 0.0):
        out = tmp_path / str(direction)
        assert run_experiment(parse_config(raw(direction)), out_dir=out, seed=0).ok
        written[direction] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written[1.0]) == ["iterates_max.csv", "iterates_min.csv",
                                    "solution_max.csv", "solution_min.csv", "summary.json"]
    assert written[1.0] == written[0.0]


def _stall_desk(forcing, mould):
    cfg = json.loads((CONFIG_DIR / "thermoforming_desk.json").read_text())
    cfg["grid"]["n_nodes"] = 201
    cfg["forcing"] = {"const": forcing}
    cfg["map"]["mould"] = {"const": mould}
    return parse_config(cfg)


def test_temperature_stall_reports_residual_and_tolerance(tmp_path):
    # the min run's own temperature solve stalls: the membrane sits within
    # the heating band (gap < 1) of a mould at 1.5
    artifacts = run_experiment(_stall_desk(1.0, 1.5), out_dir=tmp_path, seed=0)
    [failure] = artifacts.failures
    assert failure.startswith("min: temperature solve stalled")
    match = re.search(r"temperature solve stalled at residual (\S+) against (\S+) ", failure)
    assert match, failure
    residual, tol = map(float, match.groups())
    assert tol == 2e-12  # 1e-12 * (1 + heat_max)
    assert residual > tol


def test_quotient_check_stays_below_the_heating_band(tmp_path):
    # the quotient check of a min run tests A^-1 (f + 0.1 d) = 1.572, a gap
    # of 1.155 to the mould and so no heat; a top A^-1 (f + d) = 2.472 would
    # sit in the heating band, and its temperature solve stalled there
    artifacts = run_experiment(_stall_desk(1.472, 2.727), out_dir=tmp_path, seed=0)
    assert artifacts.ok, artifacts.failures
    assert "sensitivity_min" in artifacts.files


def test_stall_after_the_run_is_recorded_as_its_failure(tmp_path, monkeypatch):
    # the run converges; a raise after it (here a stub estimate that
    # raises a stall's text) fails the run instead of escaping the runner
    def stalling(omap, lin, bc):
        raise InnerSolveError("temperature solve stalled at residual 2.58e-12 against 2.0e-12 "
                              "(contraction factor 0.188)")

    monkeypatch.setattr("qvix.experiments.lipschitz_estimate", stalling)
    cfg = json.loads((CONFIG_DIR / "thermoforming_desk.json").read_text())
    cfg["grid"]["n_nodes"] = 401
    cfg["map"]["mould"] = {"const": 1.85}
    cfg["sensitivity"]["enabled"] = False
    artifacts = run_experiment(parse_config(cfg), out_dir=tmp_path, seed=0)
    summary = json.loads((tmp_path / "summary.json").read_text())
    [failure] = summary["failures"]
    assert failure.startswith("min: temperature solve stalled at residual ")
    assert summary["runs"]["min"] == {"error": failure[len("min: "):]}
    assert artifacts.failures == [failure]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]


def test_a_value_error_in_a_run_is_recorded_as_its_failure(tmp_path, monkeypatch):
    # a convex gain declared concave: the first Newton step undershoots
    # u_max, the plain step after it lands far below zero, and the next
    # evaluation overflows sinh ("non-finite nodal values"); the run fails
    # with the step that made that state, its kind and its range
    gain = qvix.obstacle_maps.ScalarNonlinearity
    monkeypatch.setattr(gain, "value", lambda self, r: 0.1 * np.sinh(r))
    monkeypatch.setattr(gain, "slope", lambda self, r: 0.1 * np.cosh(r))
    raw = json.loads((CONFIG_DIR / "inverse_elliptic_max.json").read_text())
    raw["grid"]["n_nodes"] = 101
    with np.errstate(over="ignore"):
        artifacts = run_experiment(parse_config(raw), out_dir=tmp_path, seed=0)
    assert qvix.obstacle_maps.InverseEllipticMap.concave
    summary = json.loads((tmp_path / "summary.json").read_text())
    [failure] = summary["failures"]
    assert re.fullmatch(r"max: non-finite nodal values from the state of step 2 \(plain\), "
                        r"in \[-2\.\d{3}e\+08, -2\.\d{3}e\+08\]", failure)
    assert artifacts.failures == [failure]
    assert summary["runs"]["max"] == {"error": failure[len("max: "):]}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]


def _bundled_runs(tmp_path, n_nodes=None):
    """Run every bundled config as shipped, sensitivity on, at its own grid or at n_nodes.

    Yields each run's label, config name and grid, just before the run, so
    that the caller can tell the runs' work apart.
    """
    for path in sorted(CONFIG_DIR.glob("*.json")):
        raw = json.loads(path.read_text())
        raw["grid"]["n_nodes"] = n_nodes or raw["grid"]["n_nodes"]
        label = f"{path.stem}@{raw['grid']['n_nodes']}"
        yield label
        artifacts = run_experiment(parse_config(raw), out_dir=tmp_path / label)
        assert artifacts.ok, artifacts.failures


def test_matrices_and_maps_assign_nothing_after_construction(tmp_path, monkeypatch):
    assigned = set()

    def recording_setattr(self, name, value):
        if sys._getframe(1).f_code.co_name != "__init__":
            assigned.add((TridiagonalSpd if isinstance(self, TridiagonalSpd) else ObstacleMap, name))
        object.__setattr__(self, name, value)

    for cls in (TridiagonalSpd, ObstacleMap):
        monkeypatch.setattr(cls, "__setattr__", recording_setattr)
    for _ in _bundled_runs(tmp_path):
        pass
    # a map keeps its last run
    assert assigned == {(ObstacleMap, "_run_entry")}


def test_bundled_runs_take_24_temperature_solves_and_36_linearisations(tmp_path, monkeypatch):
    # a bound on the work of the bundled runs at their own grid and at 401:
    # thermoforming temperature solves (one in each evaluation) and map
    # linearisations (each an O(n) slope) must not grow
    work = {}

    def count(cls, name):
        original = vars(cls)[name]
        monkeypatch.setattr(cls, name, lambda self, *args: work[label].update([name])
                            or original(self, *args))

    count(ThermoformingMap, "temperature")
    for cls in (PlateauMap, InverseEllipticMap, ThermoformingMap):
        count(cls, "linearisation")
    for n_nodes in (None, 401):
        for label in _bundled_runs(tmp_path, n_nodes):
            work[label] = Counter()
    per_config = {label: (c["temperature"], c["linearisation"]) for label, c in work.items()}
    totals = tuple(sum(column) for column in zip(*per_config.values()))
    assert totals == (24, 36), f"(temperature solves, linearisations) per run: {per_config}"


def _c_phi_estimates(tmp_path, name, **grid_and_bc):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grid"]["n_nodes"] = grid_and_bc.get("n_nodes", raw["grid"]["n_nodes"])
    raw["operator"]["bc"] = grid_and_bc.get("bc", raw["operator"]["bc"])
    raw["sensitivity"]["enabled"] = False
    artifacts = run_experiment(parse_config(raw), out_dir=tmp_path, seed=0)
    assert artifacts.ok
    return [run["c_phi_estimate"] for run in artifacts.summary["runs"].values()]


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_c_phi_estimate_does_not_fade_with_the_grid(tmp_path, bc):
    values = [_c_phi_estimates(tmp_path / str(n), "inverse_elliptic_max", n_nodes=n, bc=bc)[0]
              for n in (101, 401, 1601)]
    assert min(values) > 0.0
    assert max(values) <= (1.0 + 1e-3) * min(values)


@pytest.mark.parametrize("name", ["toy_min", "toy_max", "thermoforming_desk"])
def test_c_phi_estimate_is_zero_where_the_map_is_locally_flat(tmp_path, name):
    assert _c_phi_estimates(tmp_path, name) == [0.0]


def test_byte_determinism(tmp_path):
    cfg = load_config(CONFIG_DIR / "inverse_elliptic_max.json")
    a1 = run_experiment(cfg, out_dir=tmp_path / "r1", seed=7)
    a2 = run_experiment(cfg, out_dir=tmp_path / "r2", seed=7)
    assert a1.ok and a2.ok
    for key, p1 in a1.files.items():
        assert p1.read_bytes() == a2.files[key].read_bytes(), key


@pytest.mark.parametrize("name", ["toy_min", "toy_max", "inverse_elliptic_max",
                                  "thermoforming_desk"])
def test_biactive_warning_is_a_non_shrinking_table(tmp_path, name):
    # a table that fails to shrink raises on a strictly complementary
    # instance, so a written fd_monotone of False already marks a biactive
    # one and the summary carries no separate warning
    artifacts = run_experiment(load_config(CONFIG_DIR / f"{name}.json"),
                               out_dir=tmp_path, seed=0)
    assert artifacts.ok
    for run in artifacts.summary["runs"].values():
        sens = run["sensitivity"]
        assert "biactive_warning" not in sens
        assert isinstance(sens["fd_monotone"], bool)


def test_failed_sensitivity_recorded_with_partial_artifacts(tmp_path):
    # direction so strongly negative that zero stops being a subsolution at
    # the largest quotient step: the run itself succeeds, the validation is
    # recorded as a failure, and the CLI reports it through the exit code
    cfg = toy_config_dict(run="max")
    cfg["direction"] = {"expr": {"const": -30.0}}
    path = tmp_path / "doomed.json"
    path.write_text(json.dumps(cfg))
    artifacts = run_experiment(load_config(path), out_dir=tmp_path / "out")
    assert not artifacts.ok
    assert any("bracket invalid" in f for f in artifacts.failures)
    assert (tmp_path / "out" / "solution_max.csv").exists()
    assert "error" in artifacts.summary["runs"]["max"]["sensitivity"]
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out2")]) == 1


@pytest.mark.parametrize("name, level", [("BASIC_FORMAT", logging.WARNING),
                                         ("no_such_level", logging.WARNING),
                                         ("info", logging.INFO),
                                         ("20", logging.INFO),
                                         ("10", logging.DEBUG)])
def test_cli_log_level_from_environment(monkeypatch, name, level):
    # basicConfig acts only on a root logger without handlers; pytest adds its own
    monkeypatch.setattr(logging.root, "handlers", [])
    monkeypatch.setenv("QVIX_LOG", name)
    old_level = logging.root.level
    try:
        assert cli_main(["validate", str(CONFIG_DIR / "toy_min.json")]) == 0
        assert logging.root.level == level
    finally:
        logging.root.setLevel(old_level)


def test_cli_validate_run_and_error_codes(tmp_path, capsys):
    good = CONFIG_DIR / "toy_min.json"
    assert cli_main(["validate", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(toy_config_dict(typo=1)))
    assert cli_main(["validate", str(bad)]) == 2
    assert cli_main(["run", str(bad), "--out", str(tmp_path / "x")]) == 2

    rc = cli_main(["run", str(good), "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "summary.json").exists()

    # the seed changes no result, so the command line takes none
    for command in ("run", "oracle"):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, str(good), "--out", str(tmp_path / "x"), "--seed", "3"])
        assert exc.value.code == 2


@pytest.mark.parametrize("overrides, block", [
    ({"operator": {"c": 0.0, "bc": "neumann"}}, "config.operator"),
    ({"grid": {"n_nodes": 2}, "operator": {"c": 1.0, "bc": "dirichlet"}}, "config.operator"),
    ({"map": {"kind": "plateau", "levels": [1.0, 2.0], "half_width": -0.1}}, "config.map"),
    ({"map": {"kind": "plateau", "levels": [1.0, 1.3], "half_width": 0.25}}, "config.map"),
    ({"grid": {"n_nodes": 21, "interval": [0.0, float("inf")]}}, "config.grid.interval[1]"),
    ({"forcing": {"const": float("nan")}}, "config.forcing.const"),
    ({"operator": {"c": float("nan"), "bc": "neumann"}}, "config.operator.c"),
    ({"operator": {"c": 10**400, "bc": "neumann"}}, "config.operator.c"),
    ({"forcing": {"poly": [1e308, 1e308]}}, "config.forcing"),
    ({"direction": {"expr": {"sine": {"amplitude": 1e308, "frequency": 1e308}}}},
     "config.direction.expr"),
    ({"map": {"kind": "thermoforming", "reaction": 1.0, "heat_max": 1.0, "expansion": 0.1,
              "mould": {"poly": [1e308, 1e308]}}}, "config.map.mould"),
], ids=["neumann-c0", "dirichlet-2-nodes", "negative-half-width", "close-levels",
        "interval-infinite", "forcing-nan", "operator-c-nan", "operator-c-huge-int", "forcing-overflow",
        "direction-overflow", "mould-overflow"])
def test_cli_value_errors_exit_2(tmp_path, capsys, overrides, block):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(toy_config_dict(**overrides)))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "x")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block}: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("s_list", [0.1, 0.01, 0.001, 0.0001]),
    ("fd_tol", 1e300),
], ids=["s_list", "fd_tol"])
def test_removed_sensitivity_fields_are_refused(tmp_path, capsys, field, value):
    # the steps and tolerance are the constants sensitivity.QUOTIENT_STEPS
    # and QUOTIENT_TOL; a config naming either is refused, at their values too
    raw = toy_config_dict(sensitivity={"enabled": True, field: value})
    message = rf"config\.sensitivity: unknown field\(s\) \['{field}'\]"
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(raw))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "x")]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.sensitivity: unknown field")
        assert f"'{field}'" in err
    assert not (tmp_path / "x").exists()


def _inverse_elliptic_gain(**gain):
    raw = toy_config_dict()
    raw["map"] = {"kind": "inverse_elliptic", "operator": {"c": 1.0, "bc": "neumann"},
                  "gain": gain}
    return raw


@pytest.mark.parametrize("raw, block, field", [
    (toy_config_dict(direction={"expr": {"const": 1.0}, "sign": "nonneg"}),
     "config.direction", "sign"),
    (_inverse_elliptic_gain(kind="linear", scale=2.0, rate=1.0), "config.map.gain", "rate"),
    (_inverse_elliptic_gain(kind="zero", scale=1.0), "config.map.gain", "scale"),
    (_inverse_elliptic_gain(kind="zero", rate=1.0), "config.map.gain", "rate"),
], ids=["direction-sign", "linear-rate", "zero-scale", "zero-rate"])
def test_fields_the_run_does_not_read_are_refused(tmp_path, capsys, raw, block, field):
    # the run decides the direction's sign, and a gain reads only the
    # fields of its formula; a config naming another field is refused
    message = rf"{re.escape(block)}: unknown field\(s\) \['{field}'\]"
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "x")]):
        assert cli_main(argv) == 2
        assert re.fullmatch(rf"config error: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("gain", [{"kind": "zero"}, {"kind": "linear", "scale": 2.0},
                                  {"kind": "tanh", "scale": 2.0, "rate": 0.5}, {"kind": "tanh"}],
                         ids=["zero", "linear", "tanh", "tanh-defaults"])
def test_gain_fields_reach_the_map(gain):
    omap = build_problem(parse_config(_inverse_elliptic_gain(**gain))).omap
    assert omap.gain == qvix.obstacle_maps.ScalarNonlinearity(**gain)


def test_version_must_be_the_integer_one_at_the_cli(tmp_path, capsys):
    for version in (True, 1.0):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(toy_config_dict(version=version)))
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config.version: expected 1, got {version!r}\n"


def test_cli_oracle_mode(tmp_path):
    cfg = toy_config_dict()
    cfg["grid"]["n_nodes"] = 9
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["oracle", str(path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["oracle_check"] is True

    # on 21 nodes, with the CSV files of a plain run
    big = tmp_path / "big.json"
    big.write_text(json.dumps(toy_config_dict()))
    assert cli_main(["oracle", str(big), "--out", str(tmp_path / "o2")]) == 0
    assert cli_main(["run", str(big), "--out", str(tmp_path / "r2")]) == 0
    written = sorted(path.name for path in (tmp_path / "o2").glob("*.csv"))
    assert written == sorted(path.name for path in (tmp_path / "r2").glob("*.csv"))
    for name in written:
        assert (tmp_path / "o2" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


@pytest.mark.parametrize("name", ["toy_min", "toy_max", "inverse_elliptic_max",
                                  "thermoforming_desk"])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_summary_reports_newton_steps_where_a_max_run_takes_them(tmp_path, monkeypatch,
                                                                 name, bc):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grid"]["n_nodes"] = 401
    raw["operator"]["bc"] = bc
    artifacts = run_experiment(parse_config(raw), out_dir=tmp_path / "newton", seed=0)
    assert artifacts.ok, artifacts.failures
    [run] = artifacts.summary["runs"].values()
    # only a max run of a concave map with a contact set takes Newton steps
    if (name, bc) != ("inverse_elliptic_max", "neumann"):
        assert "newton_steps" not in run and "contraction_rate" not in run
        return
    assert run["newton_steps"] == run["n_iters"] - 1
    lo, hi = run["contraction_rate"]
    # the rate interval holds the tail ratio of the plain loop's steps (0.16595)
    monkeypatch.setattr(qvix.experiments.InverseEllipticMap, "concave", False)
    plain = run_experiment(parse_config(raw), out_dir=tmp_path / "plain", seed=0)
    assert plain.summary["runs"]["max"]["n_iters"] > run["n_iters"]
    rows = (tmp_path / "plain" / "iterates_max.csv").read_text().splitlines()[1:]
    steps = [float(row.split(",")[1]) for row in rows]
    assert lo <= steps[-4] / steps[-5] <= hi
