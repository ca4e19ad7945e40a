"""Config-driven experiment runner with machine-readable outputs.

A JSON config describes the grid, the operator, one obstacle map, the
forcing and an optional direction; the runner runs the requested
extremal iterations from zero or A^-1 f and, if asked,
the difference-quotient validation of the derivative, and writes CSV
tables plus a JSON summary.  Outputs are byte-deterministic for a fixed
config.  Unknown config fields are rejected so typos cannot
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
import orjson

from .extremal import (
    ExtremalIterationError,
    ExtremalRunReport,
    _check_direction,
    _run_start,
    iterate_max,
    iterate_min,
)
from .fem import (
    DualElement,
    EllipticOperator,
    Grid,
    NodalFunction,
    _grid_memo,
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
from .sensitivity import DerivativeSolveError, fd_validate
from .vi import ViSolveError, classify_active, multiplier

log = logging.getLogger("qvix")

# what a run or its sensitivity check raises when it fails: recorded as
# that run's failure, never raised out of run_experiment
_SOLVE_ERRORS = (ExtremalIterationError, DerivativeSolveError, ViSolveError, InnerSolveError,
                 ValueError)
CONFIG_VERSION = 1
# the fields each gain kind reads, besides "kind"
_GAIN_FIELDS = {"zero": (), "linear": ("scale",), "tanh": ("scale", "rate")}


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
class ExperimentConfig:
    """Parsed and schema-checked experiment description."""

    grid_nodes: int
    interval: tuple[float, float]
    operator_c: float
    operator_bc: str
    map_cfg: dict
    forcing: object
    direction: object
    run: str
    sensitivity: bool


def parse_config(raw: dict, path: str = "config") -> ExperimentConfig:
    d = _as_mapping(raw, path)
    version = _take(d, "version", path)
    if type(version) is not int or version != CONFIG_VERSION:
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
        if gain_kind not in _GAIN_FIELDS:
            raise ConfigError(f"{path}.map.gain.kind: expected zero/linear/tanh")
        # a field the kind's formula does not read is refused, not ignored
        map_cfg["gain"] = {"kind": gain_kind}
        for name in _GAIN_FIELDS[gain_kind]:
            map_cfg["gain"][name] = _number(_take(gain, name, f"{path}.map.gain", False, 1.0),
                                            f"{path}.map.gain.{name}")
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
        direction = {"const": 0.0}
    else:
        db = _as_mapping(direction_block, f"{path}.direction")
        direction = _take(db, "expr", f"{path}.direction")
        _no_extras(db, f"{path}.direction")

    run = _take(d, "run", path)
    if run not in ("min", "max", "both"):
        raise ConfigError(f"{path}.run: expected 'min', 'max' or 'both'")

    sens_block = _take(d, "sensitivity", path, False)
    sensitivity = False
    if sens_block is not None:
        sb = _as_mapping(sens_block, f"{path}.sensitivity")
        sensitivity = _take(sb, "enabled", f"{path}.sensitivity")
        if not isinstance(sensitivity, bool):
            raise ConfigError(f"{path}.sensitivity.enabled: expected a boolean")
        _no_extras(sb, f"{path}.sensitivity")

    _no_extras(d, path)

    if sensitivity and run == "both":
        raise ConfigError(f"{path}.run: sensitivity needs a single extremal map, not 'both'")
    return ExperimentConfig(grid_nodes=n_nodes, interval=interval,
                            operator_c=c, operator_bc=bc, map_cfg=map_cfg,
                            forcing=forcing, direction=direction, run=run,
                            sensitivity=sensitivity)


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
            omap = InverseEllipticMap(inner, ScalarNonlinearity(**mc["gain"]))
        else:
            mould = NodalFunction(grid, _eval_expr(mc["mould"], grid.nodes, "config.map.mould"))
            omap = ThermoformingMap(mould, mc["reaction"], mc["heat_max"], mc["expansion"])

    f_vals = _eval_expr(config.forcing, grid.nodes, "config.forcing")
    # a max run starts at A^-1 f, above every solution for any f
    if config.run != "max" and np.any(f_vals < 0):
        raise ConfigError("config.forcing: a min run needs a nonnegative forcing, "
                          "so zero is a subsolution")
    direction = DualElement(grid, _eval_expr(config.direction, grid.nodes, "config.direction.expr"))
    if config.sensitivity:
        # the run decides the sign a derivative direction must have
        with _config_block("config.direction"):
            _check_direction(direction, config.run, "sensitivity")

    return BuiltProblem(config=config, grid=grid, operator=operator, omap=omap,
                        forcing=DualElement(grid, f_vals), direction=direction)


@dataclass
class RunArtifacts:
    """Paths and summary of one experiment invocation."""

    files: dict[str, Path] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _float_text(values: np.ndarray) -> list[str]:
    """``repr`` of every double of a 1D float64 array.

    orjson prints the same shortest round-trip digits as ``repr`` and
    lays them out the same way except for 1e-9 <= |x| < 1e-5 (a
    one-digit exponent: ``1e-7`` for ``1e-07``), 1e-5 <= |x| < 1e-4
    (``0.00001`` for ``1e-05``), |x| >= 1e16 (``1e16`` for ``1e+16``)
    and nan (``null``); there the cell is ``repr``'s, formatted once per
    distinct value: a multiplier column at roundoff can hold one such
    value at every node (``toy_max`` at 25601 nodes).  Equal values in
    these ranges have equal bits, as neither zero lies in them.

    A column of more than one double whose entries share one bit pattern
    (a flat obstacle, a plateau) is formatted once, as its first cell
    repeated.  0.0 and -0.0 have two patterns, so a column that mixes
    them takes the path above.
    """
    if values.size == 0:
        return []
    values = np.ascontiguousarray(values)
    bits = values.view(np.int64)
    if values.size > 1 and (bits == bits[0]).all():
        return _float_text(values[:1]) * values.size
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    same = (magnitude < 1e-9) | ((magnitude >= 1e-4) & (magnitude < 1e16))
    outside = np.flatnonzero(~same)
    known: dict[float, str] = {}
    for i, x in zip(outside.tolist(), values[outside].tolist()):
        text = known.get(x)
        if text is None:
            text = known[x] = repr(x)
        texts[i] = text
    return texts


def _column_text(column) -> list[str] | tuple[str, ...]:
    """Cells of one CSV column.

    A list or tuple of strings is written as given; any other column is
    numeric as a whole, written as ``str(int)`` for an integer dtype and
    ``repr`` of the float otherwise, by ``_float_text``.
    """
    if isinstance(column, (list, tuple)) and column and isinstance(column[0], str):
        return column
    values = np.asarray(column)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return _float_text(values.astype(float, copy=False))


def _write_csv(path: Path, columns: dict) -> None:
    """Write equal-length columns, keyed by their header names."""
    cells = [_column_text(column) for column in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@_grid_memo
def _node_cells(grid: Grid) -> tuple[str, ...]:
    """The text of the grid's nodes, the x column of its solution tables."""
    return tuple(_float_text(grid.nodes))


def write_solution_csv(path: Path, problem: BuiltProblem, report: ExtremalRunReport) -> None:
    """Write the solution table: nodes, state, obstacle, multiplier and node class."""
    u, phi = report.solution, report.obstacle
    lam = multiplier(problem.operator, problem.forcing, u)
    partition = classify_active(problem.forcing, u, phi, lam)
    _write_csv(path, {"x": _node_cells(problem.grid), "u": u.values, "phi_u": phi.values,
                      "lambda": lam, "class": partition.labels()})


def write_iterates_csv(path: Path, report: ExtremalRunReport) -> None:
    steps = report.step_history
    _write_csv(path, {"iter": np.arange(1, len(steps) + 1), "step_vnorm": steps,
                      "qvi_residual": report.residual_history[1:],
                      "min_node_delta": report.min_delta_history})


def write_sensitivity_csv(path: Path, fd_table) -> None:
    s, err = zip(*fd_table)
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


def run_experiment(config: ExperimentConfig, out_dir, seed: int = 0) -> RunArtifacts:
    """Execute the configured pipeline and write all artifacts into ``out_dir``.

    Solver failures are recorded in the summary next to whatever partial
    artifacts were produced; the caller decides the exit status from
    ``failures``.  ``seed`` is inert: it is only written to the summary.
    """
    problem = build_problem(config)
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)

    A, f, d, omap = problem.operator, problem.forcing, problem.direction, problem.omap
    artifacts = RunArtifacts()
    summary: dict = {
        "seed": seed,
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

    which_list = ["min", "max"] if config.run == "both" else [config.run]

    for which in which_list:
        run_summary: dict = {}
        summary["runs"][which] = run_summary
        run = iterate_min if which == "min" else iterate_max
        # a raise after the run fails it the same way; the estimate, from
        # the run's own obstacle, solves no map equation
        try:
            report = run(A, f, omap, _run_start(A, f, which))
            u = report.solution
            c_phi = lipschitz_estimate(omap, omap.linearisation(u, report.obstacle), A.bc)
        except _SOLVE_ERRORS as exc:
            log.error("extremal run '%s' failed: %s", which, exc)
            artifacts.failures.append(f"{which}: {exc}")
            run_summary["error"] = str(exc)
            continue

        sol_path = target / f"solution_{which}.csv"
        it_path = target / f"iterates_{which}.csv"
        write_solution_csv(sol_path, problem, report)
        write_iterates_csv(it_path, report)
        artifacts.files[f"solution_{which}"] = sol_path
        artifacts.files[f"iterates_{which}"] = it_path

        run_summary.update({
            "n_iters": report.n_iters,
            "final_step_vnorm": report.final_step_vnorm,
            "qvi_residual": report.qvi_residual,
            "solution_vnorm": v_norm(u),
            "solution_min": float(np.min(u.values)),
            "solution_max": float(np.max(u.values)),
            "c_phi_estimate": c_phi,
        })
        if report.contraction_rate is not None:  # a max run of a concave map took Newton steps
            run_summary["newton_steps"] = report.newton_steps
            run_summary["contraction_rate"] = list(report.contraction_rate)
        if isinstance(omap, ThermoformingMap):
            # the temperature read back from the run's obstacle mould + expansion T
            temperature = (report.obstacle.values - omap.mould.values) / omap.expansion
            run_summary["temperature_vnorm"] = v_norm(NodalFunction(omap.grid, temperature))
            run_summary["temperature_bound"] = omap.temperature_bound()

        if config.sensitivity:
            try:
                deriv = fd_validate(A, f, d, omap, which)
            except _SOLVE_ERRORS as exc:
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
                "final_quotient_error": deriv.fd_table[-1][1],
            }

    summary["failures"] = list(artifacts.failures)
    artifacts.summary = _jsonable(summary)
    summary_path = target / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(artifacts.summary, indent=2, sort_keys=True) + "\n")
    artifacts.files["summary"] = summary_path
    return artifacts
