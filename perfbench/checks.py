"""Correctness checks on the files a passing ``run_experiment`` call wrote.

The checks read only the written files and the raw config, and recompute
what they test with their own arithmetic:

* KKT from the ``u``, ``phi_u`` and ``lambda`` columns of every
  ``solution_*.csv``: feasibility, sign of the multiplier and
  complementarity, each against a floor that scales with the grid (see
  ``kkt_floors``), never against the library's own gates;
* the ``lambda`` column against ``f - A u``, assembled here from the
  config and the ``u`` column, within the same multiplier floor;
* for the two-plateau toy configs, the closed forms: the minimal solution
  is 1, the maximal one min(f, 2), and the derivative norm is 0 for the
  minimal map and 1 (if f <= 2) or 0 for the maximal map.

Each function returns a list of problems; an empty list means the call
passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CLOSED_FORM_TOL = 1e-9
EPS = np.finfo(float).eps
ROUNDOFF_FACTOR = 64
# Largest change of the obstacle, in the sup norm, per unit V-norm of the
# last outer step.  The drawn configs show at most 0.95.
STEP_FACTOR = 10.0


def read_solution(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if header != ["x", "u", "phi_u", "lambda", "class"]:
        raise ValueError(f"{path.name}: unexpected header {header}")
    cols = list(zip(*rows)) if rows else [()] * 5
    return {name: np.array([float(v) for v in col]) for name, col in zip(header[:4], cols)}


def _nodal(expr, x: np.ndarray) -> np.ndarray:
    if isinstance(expr, (int, float)):
        return np.full(x.shape, float(expr))
    (kind, payload), = expr.items()
    if kind == "const":
        return np.full(x.shape, float(payload))
    if kind == "sine":
        return (payload.get("offset", 0.0)
                + payload.get("amplitude", 1.0)
                * np.sin(2.0 * np.pi * payload.get("frequency", 1.0) * x))
    raise ValueError(f"unknown expression {kind!r}")


def _mesh_width(raw: dict) -> float:
    lo, hi = raw["grid"].get("interval", [0.0, 1.0])
    return (hi - lo) / (raw["grid"]["n_nodes"] - 1)


def _operator_density(u: np.ndarray, h: float, c: float) -> np.ndarray:
    """(-u'' + c u) as nodal densities of the lumped P1 scheme."""
    out = np.empty_like(u)
    out[1:-1] = (2.0 * u[1:-1] - u[:-2] - u[2:]) / (h * h) + c * u[1:-1]
    out[0] = 2.0 * (u[0] - u[1]) / (h * h) + c * u[0]
    out[-1] = 2.0 * (u[-1] - u[-2]) / (h * h) + c * u[-1]
    return out


def last_step_vnorm(path: Path) -> float:
    """V-norm of the last outer step, from an ``iterates_*.csv``; 0 if none."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return float(rows[-1][header.index("step_vnorm")]) if rows else 0.0


def kkt_floors(raw: dict, u: np.ndarray, phi: np.ndarray, f: np.ndarray,
               step_vnorm: float) -> tuple[float, float]:
    """Floors below which a multiplier and a gap count as zero.

    The multiplier is a density, ``f - A u``, so its rounding error grows
    like eps * (|A| |u| + |f|) with |A| = 4 / h^2 + c, i.e. like h^-2.
    The rounding error of ``u`` is that of the multiplier times a bound on
    |A^-1|: 1 / c, or 1 / 8 under Dirichlet conditions.  The gap
    ``phi_u - u`` adds the rounding of ``phi_u`` and one more term: the
    final iterate solves the obstacle problem of the previous iterate,
    while ``phi_u`` is the obstacle of the final one, so the gap carries
    the obstacle's change over the last outer step.
    """
    h = _mesh_width(raw)
    c, bc = raw["operator"]["c"], raw["operator"]["bc"]
    inverse_bounds = ([1.0 / c] if c > 0 else []) + ([1.0 / 8.0] if bc == "dirichlet" else [])
    if not inverse_bounds:
        raise ValueError("no bound on |A^-1| for a Neumann operator with c = 0")
    u_max = float(np.max(np.abs(u)))
    lam_floor = ROUNDOFF_FACTOR * EPS * ((4.0 / (h * h) + c) * u_max
                                         + float(np.max(np.abs(f))))
    gap_floor = (lam_floor * min(inverse_bounds)
                 + ROUNDOFF_FACTOR * EPS * float(np.max(np.abs(phi)))
                 + STEP_FACTOR * step_vnorm)
    return lam_floor, gap_floor


def check_solution(path: Path, raw: dict) -> list[str]:
    sol = read_solution(path)
    x, u, phi, lam = sol["x"], sol["u"], sol["phi_u"], sol["lambda"]
    n = raw["grid"]["n_nodes"]
    if u.size != n:
        return [f"{path.name}: {u.size} rows for {n} nodes"]
    iterates = path.with_name(path.name.replace("solution_", "iterates_"))
    step = last_step_vnorm(iterates) if iterates.is_file() else 0.0
    f = _nodal(raw["forcing"], x)
    lam_floor, gap_floor = kkt_floors(raw, u, phi, f, step)

    problems = []
    gap = phi - u
    # each defect in units of its floor; complementarity asks, node by
    # node, that the multiplier or the gap be below its floor
    kkt = {
        "feasibility": float(np.max(np.maximum(-gap, 0.0))) / gap_floor,
        "multiplier sign": float(np.max(np.maximum(-lam, 0.0))) / lam_floor,
        "complementarity": float(np.max(np.minimum(np.abs(lam) / lam_floor,
                                                   np.abs(gap) / gap_floor))),
    }
    for name, value in kkt.items():
        if not value <= 1.0:
            problems.append(f"{path.name}: {name} defect {value:.3g} times its floor "
                            f"(multiplier {lam_floor:.3e}, gap {gap_floor:.3e})")

    expected = f - _operator_density(u, _mesh_width(raw), raw["operator"]["c"])
    if raw["operator"]["bc"] == "dirichlet":
        expected[[0, -1]] = 0.0
    mismatch = float(np.max(np.abs(expected - lam)))
    if not mismatch <= lam_floor:
        problems.append(f"{path.name}: lambda differs from f - Au by {mismatch:.3e} "
                        f"(roundoff bound {lam_floor:.3e})")
    return problems


def check_toy(out_dir: Path, raw: dict) -> list[str]:
    """Closed forms of the two-plateau configs (levels 1 and 2, constant forcing)."""
    f = float(raw["forcing"]["const"])
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    exact = {"min": (1.0, 0.0), "max": (min(f, 2.0), 1.0 if f <= 2.0 else 0.0)}
    problems = []
    for which, run in summary["runs"].items():
        u_exact, alpha_exact = exact[which]
        u = read_solution(out_dir / f"solution_{which}.csv")["u"]
        err = float(np.max(np.abs(u - u_exact)))
        if not err <= CLOSED_FORM_TOL:
            problems.append(f"toy {which}: |u - {u_exact}| = {err:.3e}")
        if "sensitivity" in run:
            err = abs(run["sensitivity"]["alpha_vnorm"] - alpha_exact)
            if not err <= CLOSED_FORM_TOL:
                problems.append(f"toy {which}: |alpha_vnorm - {alpha_exact}| = {err:.3e}")
    return problems


def check_call(out_dir: Path, raw: dict, family: str) -> list[str]:
    """All checks for one passing call; returns the problems found."""
    which = ["min", "max"] if raw["run"] == "both" else [raw["run"]]
    problems = []
    for w in which:
        path = out_dir / f"solution_{w}.csv"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        problems += check_solution(path, raw)
    if family.startswith("toy") and not problems:
        problems += check_toy(out_dir, raw)
    return problems


def same_outputs(dir_a: Path, dir_b: Path) -> list[str]:
    """Byte comparison of two output directories."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    return [f"{name} differs" for name in names_a
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]
