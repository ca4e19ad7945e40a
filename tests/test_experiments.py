import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from qvix import ConfigError, load_config, run_experiment
from qvix.cli import main as cli_main
from qvix.experiments import (
    _eval_expr,
    _write_csv,
    build_problem,
    parse_config,
    write_iterates_csv,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def toy_config_dict(**overrides):
    cfg = {
        "version": 1,
        "grid": {"n_nodes": 21, "interval": [0.0, 1.0]},
        "operator": {"c": 1.0, "bc": "neumann"},
        "map": {"kind": "plateau", "levels": [1.0, 2.0], "half_width": 0.25},
        "forcing": {"const": 2.0},
        "direction": {"expr": {"const": 1.0}, "sign": "nonneg"},
        "run": "min",
        "sensitivity": {"enabled": True, "s_list": [0.1, 0.01, 0.001, 0.0001]},
    }
    cfg.update(overrides)
    return cfg


def test_bundled_configs_parse():
    for name in ("toy_min", "toy_max", "inverse_elliptic_max", "thermoforming_desk"):
        cfg = load_config(CONFIG_DIR / f"{name}.json")
        build_problem(cfg)


def test_expressions():
    nodes = np.linspace(0.0, 1.0, 5)
    assert np.allclose(_eval_expr(2.5, nodes, "p"), 2.5)
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
    with pytest.raises(ConfigError, match="run"):
        parse_config(toy_config_dict(run="minmax"))
    bad = toy_config_dict()
    bad["operator"]["bc"] = "robin"
    with pytest.raises(ConfigError, match="bc"):
        parse_config(bad)


def test_sensitivity_needs_single_run_and_matching_sign():
    with pytest.raises(ConfigError, match="single extremal map"):
        parse_config(toy_config_dict(run="both"))
    bad = toy_config_dict(run="max")
    with pytest.raises(ConfigError, match="sign"):
        parse_config(bad)


def test_mixed_sign_direction_rejected_at_build():
    cfg = toy_config_dict()
    cfg["direction"] = {"expr": {"sine": {"amplitude": 1.0, "frequency": 1.0}},
                        "sign": "nonneg"}
    with pytest.raises(ConfigError, match="direction"):
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
    assert s["runs"]["min"]["monotone"] is True
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


def test_header_only_csv_for_empty_history(tmp_path):
    path = tmp_path / "iterates.csv"
    write_iterates_csv(path, None)
    assert path.read_text() == "iter,step_vnorm,qvi_residual,min_node_delta\n"


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


def test_temperature_stall_reports_residual_and_tolerance(tmp_path):
    cfg = json.loads((CONFIG_DIR / "thermoforming_desk.json").read_text())
    cfg["grid"]["n_nodes"] = 201
    cfg["forcing"] = {"const": 1.472}
    cfg["map"]["mould"] = {"const": 2.727}
    artifacts = run_experiment(parse_config(cfg), out_dir=tmp_path, seed=0)
    [failure] = artifacts.failures
    match = re.search(r"temperature solve stalled at residual (\S+) against (\S+) ", failure)
    assert match, failure
    residual, tol = map(float, match.groups())
    assert tol == 2e-12  # 1e-12 * (1 + heat_max)
    assert residual > tol


def test_byte_determinism(tmp_path):
    cfg = load_config(CONFIG_DIR / "inverse_elliptic_max.json")
    a1 = run_experiment(cfg, out_dir=tmp_path / "r1", seed=7)
    a2 = run_experiment(cfg, out_dir=tmp_path / "r2", seed=7)
    assert a1.ok and a2.ok
    for key, p1 in a1.files.items():
        assert p1.read_bytes() == a2.files[key].read_bytes(), key


def test_failed_sensitivity_recorded_with_partial_artifacts(tmp_path):
    # direction so strongly negative that zero stops being a subsolution at
    # the largest quotient step: the run itself succeeds, the validation is
    # recorded as a failure, and the CLI reports it through the exit code
    cfg = toy_config_dict(run="max")
    cfg["direction"] = {"expr": {"const": -30.0}, "sign": "nonpos"}
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
                                         ("info", logging.INFO)])
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

    rc = cli_main(["run", str(good), "--out", str(tmp_path / "run"), "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("overrides, block", [
    ({"operator": {"c": 0.0, "bc": "neumann"}}, "config.operator"),
    ({"grid": {"n_nodes": 2}, "operator": {"c": 1.0, "bc": "dirichlet"}}, "config.operator"),
    ({"map": {"kind": "plateau", "levels": [1.0, 2.0], "half_width": -0.1}}, "config.map"),
    ({"map": {"kind": "plateau", "levels": [1.0, 1.3], "half_width": 0.25}}, "config.map"),
    ({"sensitivity": {"enabled": True, "s_list": [0.1, 0.2]}}, "config.sensitivity.s_list"),
    ({"sensitivity": {"enabled": True, "s_list": [0.1, 1e-6]}}, "config.sensitivity.s_list"),
    ({"sensitivity": {"enabled": True, "s_list": [-0.1]}}, "config.sensitivity.s_list"),
    ({"sensitivity": {"enabled": True, "fd_tol": -1}}, "config.sensitivity.fd_tol"),
    ({"grid": {"n_nodes": 21, "interval": [0.0, float("inf")]}}, "config.grid.interval[1]"),
    ({"forcing": {"const": float("nan")}}, "config.forcing.const"),
    ({"operator": {"c": float("nan"), "bc": "neumann"}}, "config.operator.c"),
    ({"operator": {"c": 10**400, "bc": "neumann"}}, "config.operator.c"),
    ({"forcing": {"poly": [1e308, 1e308]}}, "config.forcing"),
    ({"direction": {"expr": {"sine": {"amplitude": 1e308, "frequency": 1e308}},
                    "sign": "nonneg"}}, "config.direction.expr"),
    ({"map": {"kind": "thermoforming", "reaction": 1.0, "heat_max": 1.0, "expansion": 0.1,
              "mould": {"poly": [1e308, 1e308]}}}, "config.map.mould"),
], ids=["neumann-c0", "dirichlet-2-nodes", "negative-half-width", "close-levels",
        "s-list-increasing", "s-list-below-1e-5", "s-list-negative", "fd-tol-negative",
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


def test_cli_oracle_mode(tmp_path):
    cfg = toy_config_dict()
    cfg["grid"]["n_nodes"] = 9
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["oracle", str(path), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["oracle_check"] is True

    big = tmp_path / "big.json"
    big.write_text(json.dumps(toy_config_dict()))
    assert cli_main(["oracle", str(big), "--out", str(tmp_path / "o2")]) == 2
