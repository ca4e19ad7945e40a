"""Config-driven experiment runner with machine-readable outputs.

A JSON config describes the grid, the operator, one obstacle map, the
forcing and an optional signed direction; the runner constructs the
default bracket, runs the requested extremal iterations and, if asked,
the difference-quotient validation of the derivative, and writes CSV
tables plus a JSON summary.  Outputs are byte-deterministic for a fixed
config and seed.  Unknown config fields are rejected so typos cannot
silently change an experiment.
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import vi
from .extremal import (
    ExtremalIterationError,
    ExtremalRunReport,
    IntervalBracket,
    iterate_max,
    iterate_min,
)
from .fem import (
    DualElement,
    EllipticOperator,
    Grid,
    NodalFunction,
    assemble_operator,
    v_norm,
)
from .obstacle_maps import (
    InnerSolveError,
    InverseEllipticMap,
    ObstacleMap,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    lipschitz_estimate,
    lipschitz_threshold_check,
)
from .sensitivity import DEFAULT_S_LIST, DerivativeSolveError, _check_s_list, fd_validate
from .vi import ViSolveError, classify_active, multiplier

log = logging.getLogger("qvix")

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration; the message carries the field path."""


def _as_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return dict(obj)


def _take(d: dict, key: str, path: str, required: bool = True, default=None):
    if key in d:
        return d.pop(key)
    if required:
        raise ConfigError(f"{path}.{key}: missing required field")
    return default


def _no_extras(d: dict, path: str):
    if d:
        raise ConfigError(f"{path}: unknown field(s) {sorted(d)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number")
    return number


def _eval_expr(expr, nodes: np.ndarray, path: str) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        values = _expr_values(expr, nodes, path)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: values are not finite at every node")
    return values


def _expr_values(expr, nodes: np.ndarray, path: str) -> np.ndarray:
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        return np.full(nodes.shape, _number(expr, path))
    d = _as_mapping(expr, path)
    if len(d) != 1:
        raise ConfigError(f"{path}: expected exactly one of const/poly/sine")
    kind, payload = next(iter(d.items()))
    if kind == "const":
        return np.full(nodes.shape, _number(payload, f"{path}.const"))
    if kind == "poly":
        if not isinstance(payload, list) or not payload:
            raise ConfigError(f"{path}.poly: expected a nonempty coefficient list")
        coeffs = [_number(c, f"{path}.poly[{i}]") for i, c in enumerate(payload)]
        return np.polynomial.polynomial.polyval(nodes, coeffs)
    if kind == "sine":
        p = _as_mapping(payload, f"{path}.sine")
        amplitude = _number(_take(p, "amplitude", f"{path}.sine", False, 1.0), f"{path}.sine.amplitude")
        frequency = _number(_take(p, "frequency", f"{path}.sine", False, 1.0), f"{path}.sine.frequency")
        offset = _number(_take(p, "offset", f"{path}.sine", False, 0.0), f"{path}.sine.offset")
        _no_extras(p, f"{path}.sine")
        return offset + amplitude * np.sin(2.0 * np.pi * frequency * nodes)
    raise ConfigError(f"{path}: unknown expression kind {kind!r}")


@dataclass(frozen=True)
class SensitivitySettings:
    enabled: bool = False
    s_list: tuple[float, ...] = DEFAULT_S_LIST
    fd_tol: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and schema-checked experiment description."""

    version: int
    grid_nodes: int
    interval: tuple[float, float]
    operator_c: float
    operator_bc: str
    map_cfg: dict
    forcing: object
    direction: object
    direction_sign: str
    run: str
    sensitivity: SensitivitySettings
    output_dir: str | None

    def to_dict(self) -> dict:
        """Serialize back to the JSON schema; parse(to_dict()) is the identity."""
        mc = dict(self.map_cfg)
        kind = mc.pop("kind")
        if kind == "plateau":
            map_block = {"kind": kind, "levels": mc["levels"],
                         "half_width": mc["half_width"]}
        elif kind == "inverse_elliptic":
            map_block = {"kind": kind,
                         "operator": {"c": mc["inner_c"], "bc": mc["inner_bc"]},
                         "gain": {"kind": mc["gain_kind"], "scale": mc["gain_scale"],
                                  "rate": mc["gain_rate"]}}
        else:
            map_block = {"kind": kind, "reaction": mc["reaction"],
                         "heat_max": mc["heat_max"], "expansion": mc["expansion"],
                         "mould": mc["mould"]}
        out = {
            "version": self.version,
            "grid": {"n_nodes": self.grid_nodes, "interval": list(self.interval)},
            "operator": {"c": self.operator_c, "bc": self.operator_bc},
            "map": map_block,
            "forcing": self.forcing,
            "direction": {"expr": self.direction, "sign": self.direction_sign},
            "run": self.run,
            "sensitivity": {"enabled": self.sensitivity.enabled,
                            "s_list": list(self.sensitivity.s_list),
                            "fd_tol": self.sensitivity.fd_tol},
        }
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out


def parse_config(raw: dict, path: str = "config") -> ExperimentConfig:
    d = _as_mapping(raw, path)
    version = _take(d, "version", path)
    if version != CONFIG_VERSION:
        raise ConfigError(f"{path}.version: expected {CONFIG_VERSION}, got {version!r}")

    g = _as_mapping(_take(d, "grid", path), f"{path}.grid")
    n_nodes = _take(g, "n_nodes", f"{path}.grid")
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, int) or n_nodes < 2:
        raise ConfigError(f"{path}.grid.n_nodes: expected an integer >= 2")
    interval_raw = _take(g, "interval", f"{path}.grid", False, [0.0, 1.0])
    if not isinstance(interval_raw, list) or len(interval_raw) != 2:
        raise ConfigError(f"{path}.grid.interval: expected [lo, hi]")
    interval = (_number(interval_raw[0], f"{path}.grid.interval[0]"),
                _number(interval_raw[1], f"{path}.grid.interval[1]"))
    if interval[1] <= interval[0]:
        raise ConfigError(f"{path}.grid.interval: upper end must exceed lower end")
    _no_extras(g, f"{path}.grid")

    op = _as_mapping(_take(d, "operator", path), f"{path}.operator")
    c = _number(_take(op, "c", f"{path}.operator"), f"{path}.operator.c")
    bc = _take(op, "bc", f"{path}.operator")
    if bc not in ("neumann", "dirichlet"):
        raise ConfigError(f"{path}.operator.bc: expected 'neumann' or 'dirichlet'")
    _no_extras(op, f"{path}.operator")

    m = _as_mapping(_take(d, "map", path), f"{path}.map")
    kind = _take(m, "kind", f"{path}.map")
    map_cfg: dict = {"kind": kind}
    if kind == "plateau":
        levels = _take(m, "levels", f"{path}.map")
        if not isinstance(levels, list) or not levels:
            raise ConfigError(f"{path}.map.levels: expected a nonempty list")
        map_cfg["levels"] = [_number(v, f"{path}.map.levels[{i}]") for i, v in enumerate(levels)]
        map_cfg["half_width"] = _number(_take(m, "half_width", f"{path}.map"), f"{path}.map.half_width")
    elif kind == "inverse_elliptic":
        inner = _as_mapping(_take(m, "operator", f"{path}.map"), f"{path}.map.operator")
        map_cfg["inner_c"] = _number(_take(inner, "c", f"{path}.map.operator"), f"{path}.map.operator.c")
        inner_bc = _take(inner, "bc", f"{path}.map.operator")
        if inner_bc not in ("neumann", "dirichlet"):
            raise ConfigError(f"{path}.map.operator.bc: expected 'neumann' or 'dirichlet'")
        map_cfg["inner_bc"] = inner_bc
        _no_extras(inner, f"{path}.map.operator")
        gain = _as_mapping(_take(m, "gain", f"{path}.map"), f"{path}.map.gain")
        gain_kind = _take(gain, "kind", f"{path}.map.gain")
        if gain_kind not in ("zero", "linear", "tanh"):
            raise ConfigError(f"{path}.map.gain.kind: expected zero/linear/tanh")
        map_cfg["gain_kind"] = gain_kind
        map_cfg["gain_scale"] = _number(_take(gain, "scale", f"{path}.map.gain", False, 1.0),
                                        f"{path}.map.gain.scale")
        map_cfg["gain_rate"] = _number(_take(gain, "rate", f"{path}.map.gain", False, 1.0),
                                       f"{path}.map.gain.rate")
        _no_extras(gain, f"{path}.map.gain")
    elif kind == "thermoforming":
        map_cfg["reaction"] = _number(_take(m, "reaction", f"{path}.map"), f"{path}.map.reaction")
        map_cfg["heat_max"] = _number(_take(m, "heat_max", f"{path}.map"), f"{path}.map.heat_max")
        map_cfg["expansion"] = _number(_take(m, "expansion", f"{path}.map"), f"{path}.map.expansion")
        map_cfg["mould"] = _take(m, "mould", f"{path}.map")
    else:
        raise ConfigError(f"{path}.map.kind: unknown kind {kind!r}")
    _no_extras(m, f"{path}.map")

    forcing = _take(d, "forcing", path)

    direction_block = _take(d, "direction", path, False)
    if direction_block is None:
        direction, direction_sign = 0.0, "nonneg"
    else:
        db = _as_mapping(direction_block, f"{path}.direction")
        direction = _take(db, "expr", f"{path}.direction")
        direction_sign = _take(db, "sign", f"{path}.direction")
        if direction_sign not in ("nonneg", "nonpos"):
            raise ConfigError(f"{path}.direction.sign: expected 'nonneg' or 'nonpos'")
        _no_extras(db, f"{path}.direction")

    run = _take(d, "run", path)
    if run not in ("min", "max", "both"):
        raise ConfigError(f"{path}.run: expected 'min', 'max' or 'both'")

    sens_block = _take(d, "sensitivity", path, False)
    if sens_block is None:
        sensitivity = SensitivitySettings()
    else:
        sb = _as_mapping(sens_block, f"{path}.sensitivity")
        enabled = _take(sb, "enabled", f"{path}.sensitivity")
        if not isinstance(enabled, bool):
            raise ConfigError(f"{path}.sensitivity.enabled: expected a boolean")
        s_raw = _take(sb, "s_list", f"{path}.sensitivity", False, list(DEFAULT_S_LIST))
        if not isinstance(s_raw, list) or not s_raw:
            raise ConfigError(f"{path}.sensitivity.s_list: expected a nonempty list")
        s_vals = tuple(_number(s, f"{path}.sensitivity.s_list[{i}]") for i, s in enumerate(s_raw))
        with _config_block(f"{path}.sensitivity.s_list"):
            _check_s_list(s_vals)
        fd_tol_raw = _take(sb, "fd_tol", f"{path}.sensitivity", False)
        fd_tol = None if fd_tol_raw is None else _number(fd_tol_raw, f"{path}.sensitivity.fd_tol")
        if fd_tol is not None and fd_tol <= 0:
            raise ConfigError(f"{path}.sensitivity.fd_tol: must be positive")
        _no_extras(sb, f"{path}.sensitivity")
        sensitivity = SensitivitySettings(enabled=enabled, s_list=s_vals, fd_tol=fd_tol)

    output_dir = _take(d, "output_dir", path, False)
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"{path}.output_dir: expected a string")
    _no_extras(d, path)

    cfg = ExperimentConfig(version=version, grid_nodes=n_nodes, interval=interval,
                           operator_c=c, operator_bc=bc, map_cfg=map_cfg,
                           forcing=forcing, direction=direction,
                           direction_sign=direction_sign, run=run,
                           sensitivity=sensitivity, output_dir=output_dir)
    if sensitivity.enabled:
        if run == "both":
            raise ConfigError(f"{path}.run: sensitivity needs a single extremal map, not 'both'")
        want = "nonneg" if run == "min" else "nonpos"
        if direction_sign != want:
            raise ConfigError(
                f"{path}.direction.sign: run '{run}' with sensitivity needs sign '{want}'")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_config(raw)


@dataclass(frozen=True)
class BuiltProblem:
    config: ExperimentConfig
    grid: Grid
    operator: EllipticOperator
    omap: ObstacleMap
    forcing: DualElement
    direction: DualElement


@contextmanager
def _config_block(path: str):
    """Re-raise a constructor's ValueError as a ConfigError naming the config block."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_problem(config: ExperimentConfig) -> BuiltProblem:
    """Instantiate grid, operator, map and nodal data; check the value-level rules."""
    grid = Grid(config.grid_nodes, config.interval)
    with _config_block("config.operator"):
        operator = assemble_operator(grid, config.operator_c, config.operator_bc)

    mc = config.map_cfg
    omap: ObstacleMap
    with _config_block("config.map"):
        if mc["kind"] == "plateau":
            omap = PlateauMap(grid, mc["levels"], mc["half_width"])
        elif mc["kind"] == "inverse_elliptic":
            inner = assemble_operator(grid, mc["inner_c"], mc["inner_bc"])
            gain = ScalarNonlinearity(mc["gain_kind"], mc["gain_scale"], mc["gain_rate"])
            omap = InverseEllipticMap(inner, gain)
        else:
            mould_vals = _eval_expr(mc["mould"], grid.nodes, "config.map.mould")
            if np.any(mould_vals <= 0):
                raise ConfigError("config.map.mould: mould shape must be positive everywhere")
            omap = ThermoformingMap(NodalFunction(grid, mould_vals), mc["reaction"],
                                    mc["heat_max"], mc["expansion"])

    f_vals = _eval_expr(config.forcing, grid.nodes, "config.forcing")
    if np.any(f_vals < 0):
        raise ConfigError("config.forcing: must be nonnegative so zero is a subsolution")
    d_vals = _eval_expr(config.direction, grid.nodes, "config.direction.expr")
    if config.direction_sign == "nonneg" and np.any(d_vals < 0):
        raise ConfigError("config.direction: values violate the declared 'nonneg' sign")
    if config.direction_sign == "nonpos" and np.any(d_vals > 0):
        raise ConfigError("config.direction: values violate the declared 'nonpos' sign")

    return BuiltProblem(config=config, grid=grid, operator=operator, omap=omap,
                        forcing=DualElement(grid, f_vals),
                        direction=DualElement(grid, d_vals))


@dataclass
class RunArtifacts:
    """Paths and summary of one experiment invocation."""

    out_dir: Path
    files: dict[str, Path] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _column_text(column) -> list[str]:
    """Cells of one CSV column.

    A list of strings is written as given; any other column is numeric as
    a whole, written as ``str(int)`` for an integer dtype and ``repr`` of
    the float otherwise.
    """
    if isinstance(column, list) and column and isinstance(column[0], str):
        return column
    values = np.asarray(column)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return list(map(repr, values.astype(float, copy=False).tolist()))


def _write_csv(path: Path, columns: dict) -> None:
    """Write equal-length columns, keyed by their header names."""
    cells = [_column_text(column) for column in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_solution_csv(path: Path, problem: BuiltProblem, u: NodalFunction) -> None:
    phi = problem.omap.evaluate(u)
    lam = multiplier(problem.operator, problem.forcing, u)
    partition = classify_active(problem.operator, problem.forcing, u, phi)
    _write_csv(path, {"x": problem.grid.nodes, "u": u.values, "phi_u": phi.values,
                      "lambda": lam, "class": partition.labels(problem.grid.n_nodes)})


def write_iterates_csv(path: Path, report: ExtremalRunReport | None) -> None:
    steps, residuals, min_deltas = (), (), ()
    if report is not None:
        steps, min_deltas = report.step_history, report.min_delta_history
        residuals = report.residual_history[1:]
    _write_csv(path, {"iter": np.arange(1, len(steps) + 1), "step_vnorm": steps,
                      "qvi_residual": residuals, "min_node_delta": min_deltas})


def write_sensitivity_csv(path: Path, fd_table) -> None:
    s, err = zip(*fd_table) if fd_table else ((), ())
    _write_csv(path, {"s": s, "quotient_error_vnorm": err})


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def run_experiment(config: ExperimentConfig, out_dir=None, seed: int = 0,
                   oracle_check: bool = False) -> RunArtifacts:
    """Execute the configured pipeline and write all artifacts.

    Solver failures are recorded in the summary next to whatever partial
    artifacts were produced; the caller decides the exit status from
    ``failures``.
    """
    problem = build_problem(config)
    if oracle_check and problem.grid.n_nodes > vi.ORACLE_MAX_NODES:
        raise ConfigError("config.grid.n_nodes: oracle cross-checks need at most "
                          f"{vi.ORACLE_MAX_NODES} nodes")
    target = Path(out_dir) if out_dir is not None else Path(config.output_dir or "qvix_out")
    target.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    A, f, d, omap = problem.operator, problem.forcing, problem.direction, problem.omap
    artifacts = RunArtifacts(out_dir=target)
    summary: dict = {
        "config_version": config.version,
        "seed": seed,
        "oracle_check": oracle_check,
        "constants": {
            "c_a": A.c_a,
            "c_b": A.c_b,
            "lipschitz_threshold": A.c_a / (A.c_a + A.c_b),
        },
        "runs": {},
        "failures": [],
    }
    if isinstance(omap, ThermoformingMap):
        ok, details = lipschitz_threshold_check(omap, A, f)
        summary["thermoforming"] = {"threshold_satisfied": ok, **details}

    bracket = IntervalBracket.default(A, f, d)
    which_list = ["min", "max"] if config.run == "both" else [config.run]

    for which in which_list:
        run_summary: dict = {}
        summary["runs"][which] = run_summary
        run, start = (iterate_min, bracket.lower) if which == "min" else (iterate_max, bracket.upper)
        try:
            report = run(A, f, omap, start, oracle_check)
        except (ExtremalIterationError, ViSolveError, InnerSolveError) as exc:
            log.error("extremal run '%s' failed: %s", which, exc)
            artifacts.failures.append(f"{which}: {exc}")
            run_summary["error"] = str(exc)
            continue

        sol_path = target / f"solution_{which}.csv"
        it_path = target / f"iterates_{which}.csv"
        write_solution_csv(sol_path, problem, report.solution)
        write_iterates_csv(it_path, report)
        artifacts.files[f"solution_{which}"] = sol_path
        artifacts.files[f"iterates_{which}"] = it_path

        u = report.solution
        c_phi = lipschitz_estimate(omap, u, 0.1 * (1.0 + v_norm(u)), 32, rng)
        run_summary.update({
            "n_iters": report.n_iters,
            "final_step_vnorm": report.final_step_vnorm,
            "qvi_residual": report.qvi_residual,
            # the iteration raises on any order violation, so a returned run is monotone
            "monotone": True,
            "solution_vnorm": v_norm(u),
            "solution_min": float(np.min(u.values)),
            "solution_max": float(np.max(u.values)),
            "c_phi_estimate": c_phi,
        })
        if isinstance(omap, ThermoformingMap):
            run_summary["temperature_vnorm"] = v_norm(omap.temperature(u))
            run_summary["temperature_bound"] = omap.temperature_bound()

        if config.sensitivity.enabled:
            try:
                deriv = fd_validate(A, f, d, omap, bracket, which,
                                    s_list=config.sensitivity.s_list,
                                    fd_tol=config.sensitivity.fd_tol,
                                    oracle_check=oracle_check)
            except (DerivativeSolveError, ValueError, ExtremalIterationError,
                    ViSolveError, InnerSolveError) as exc:
                log.error("sensitivity run '%s' failed: %s", which, exc)
                artifacts.failures.append(f"sensitivity/{which}: {exc}")
                run_summary["sensitivity"] = {"error": str(exc)}
                continue
            sens_path = target / f"sensitivity_{which}.csv"
            write_sensitivity_csv(sens_path, deriv.fd_table)
            artifacts.files[f"sensitivity_{which}"] = sens_path
            run_summary["sensitivity"] = {
                "alpha_vnorm": v_norm(deriv.alpha),
                "alpha_iterations": len(deriv.alpha_iterates),
                "derivative_residual": deriv.qvi_residual,
                "observed_order": deriv.observed_order,
                "fd_monotone": deriv.fd_monotone,
                "biactive_warning": deriv.biactive_warning,
                "final_quotient_error": deriv.fd_table[-1][1],
            }

    summary["failures"] = list(artifacts.failures)
    artifacts.summary = _jsonable(summary)
    summary_path = target / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(artifacts.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts.files["summary"] = summary_path
    return artifacts
