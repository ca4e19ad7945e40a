"""Monotone fixed-point iterations to the extremal solutions.

The solution set of the quasi-variational problem is bracketed by a
subsolution and a supersolution.  Iterating the obstacle solve from the
bottom of the bracket produces a nodally increasing sequence converging
to the minimal solution; iterating from the top a decreasing sequence to
the maximal one.  Monotonicity is asserted at every step: a violation
means the comparison principle broke, which on these M-matrix operators
signals a bug rather than roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vi
from .fem import DualElement, EllipticOperator, NodalFunction, leq, v_norm
from .obstacle_maps import ObstacleMap
from .vi import ViSolution, complementarity_residual, multiplier, oracle_vi, solve_vi


class ExtremalIterationError(RuntimeError):
    """The monotone iteration aborted or terminated without a valid solution."""


# stopping rules of the outer fixed-point loop: V-norm step that ends it,
# its safety cap, the residual the limit must reach, and the roundoff
# slack on the nodal order of consecutive iterates
TOL_FP = 1e-10
MAX_OUTER = 500
RESIDUAL_TOL = 1e-8
MONOTONE_TOL = 1e-10


@dataclass(frozen=True)
class ExtremalRunReport:
    """History and diagnostics of one monotone run."""

    iterates: tuple[NodalFunction, ...]
    solution: NodalFunction
    n_iters: int
    final_step_vnorm: float
    qvi_residual: float
    which: str
    step_history: tuple[float, ...]
    residual_history: tuple[float, ...]
    min_delta_history: tuple[float, ...]


@dataclass(frozen=True)
class IntervalBracket:
    """Subsolution/supersolution pair enclosing the solutions of interest."""

    lower: NodalFunction
    upper: NodalFunction

    @classmethod
    def default(cls, A: EllipticOperator, f: DualElement,
                d: DualElement | None = None) -> "IntervalBracket":
        """Zero subsolution and the linear solve of f plus the positive part of d."""
        grid = A.grid
        lower = NodalFunction.zeros(grid)
        load = f
        if d is not None:
            load = f + DualElement(grid, np.maximum(d.values, 0.0))
        return cls(lower=lower, upper=A.solve(load))

    def validate(self, A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                 tol: float = 1e-10) -> bool:
        if not leq(self.lower, self.upper, tol):
            return False
        return (check_subsolution(A, f, omap, self.lower, tol)
                and check_supersolution(A, f, omap, self.upper, tol))


def default_supersolution(A: EllipticOperator, f: DualElement,
                          d: DualElement) -> NodalFunction:
    """Linear solve of f + d; a supersolution for every source between f and f + d."""
    if np.any(d.values < 0):
        raise ValueError("direction must be nonnegative for the default supersolution")
    return A.solve(f + d)


def fixed_point_step(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                     u: NodalFunction) -> ViSolution:
    """One application of the solution map: obstacle solve at the obstacle induced by u."""
    return solve_vi(A, f, omap.evaluate(u))


def check_subsolution(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                      u: NodalFunction, tol: float = 1e-10) -> bool:
    """True iff u lies below its own fixed-point image."""
    return leq(u, fixed_point_step(A, f, omap, u).u, tol)


def check_supersolution(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                        u: NodalFunction, tol: float = 1e-10) -> bool:
    """True iff u lies above its own fixed-point image."""
    return leq(fixed_point_step(A, f, omap, u).u, u, tol)


def _obstacle_residual(A: EllipticOperator, f: DualElement, u: NodalFunction,
                       phi: NodalFunction) -> float:
    """Complementarity residual with every node an obstacle node."""
    no_role = np.zeros(A.grid.n_nodes, dtype=bool)
    return complementarity_residual(u.values, phi.values, multiplier(A, f, u),
                                    no_role, no_role)


def qvi_residual(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                 u: NodalFunction) -> float:
    """Max of feasibility violation, multiplier negativity, and complementarity defect."""
    return _obstacle_residual(A, f, u, omap.evaluate(u))


def _iterate(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
             start: NodalFunction, which: str, oracle_check: bool) -> ExtremalRunReport:
    if oracle_check and A.grid.n_nodes > vi.ORACLE_MAX_NODES:
        raise ValueError("oracle cross-checks need a grid with at most "
                         f"{vi.ORACLE_MAX_NODES} nodes")

    u = start
    phi = omap.evaluate(u)
    iterates = [u]
    steps: list[float] = []
    residuals = [_obstacle_residual(A, f, u, phi)]
    min_deltas: list[float] = []
    active0 = None
    converged = False

    for _ in range(MAX_OUTER):
        sol = solve_vi(A, f, phi, active0=active0)
        if oracle_check:
            ref = oracle_vi(A, f, phi)
            gap = float(np.max(np.abs(sol.u.values - ref.u.values)))
            if gap > 1e-9:
                raise ExtremalIterationError(
                    f"fast solve disagrees with the enumeration oracle by {gap:.3e}")
        delta = sol.u.values - u.values
        min_delta = float(np.min(delta))
        max_delta = float(np.max(delta))
        if which == "min" and min_delta < -MONOTONE_TOL:
            raise ExtremalIterationError(
                f"increasing iteration lost monotonicity (worst step {min_delta:.3e}); "
                "the comparison principle is broken")
        if which == "max" and max_delta > MONOTONE_TOL:
            raise ExtremalIterationError(
                f"decreasing iteration lost monotonicity (worst step {max_delta:.3e}); "
                "the comparison principle is broken")
        step = v_norm(sol.u - u)
        u = sol.u
        phi = omap.evaluate(u)
        active0 = np.isin(np.arange(A.grid.n_nodes), sol.partition.coincidence)
        iterates.append(u)
        steps.append(step)
        residuals.append(_obstacle_residual(A, f, u, phi))
        min_deltas.append(min_delta)
        if step <= TOL_FP:
            converged = True
            break

    if not converged:
        tail = steps[-1] / steps[-2] if len(steps) >= 2 and steps[-2] > 0 else float("nan")
        raise ExtremalIterationError(
            f"no convergence within {MAX_OUTER} outer iterations "
            f"(last step {steps[-1]:.3e}, tail contraction ratio {tail:.3f})")

    final_residual = residuals[-1]
    if final_residual > RESIDUAL_TOL:
        raise ExtremalIterationError(
            f"converged iterate has residual {final_residual:.3e} "
            f"above tolerance {RESIDUAL_TOL:.1e}")

    return ExtremalRunReport(
        iterates=tuple(iterates), solution=u, n_iters=len(steps),
        final_step_vnorm=steps[-1] if steps else 0.0, qvi_residual=final_residual,
        which=which, step_history=tuple(steps), residual_history=tuple(residuals),
        min_delta_history=tuple(min_deltas))


def iterate_min(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                start: NodalFunction, oracle_check: bool = False) -> ExtremalRunReport:
    """Increasing iteration from a subsolution to the minimal solution."""
    return _iterate(A, f, omap, start, "min", oracle_check)


def iterate_max(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                start: NodalFunction, oracle_check: bool = False) -> ExtremalRunReport:
    """Decreasing iteration from a supersolution to the maximal solution."""
    return _iterate(A, f, omap, start, "max", oracle_check)


def comparison_in_f(A: EllipticOperator, f: DualElement, d: DualElement, s: float,
                    omap: ObstacleMap, bracket: IntervalBracket, which: str = "min",
                    tol: float = 1e-8) -> bool:
    """Order of the extremal solutions under a signed shift of the source.

    For the minimal map the direction must be nonnegative and the solution
    can only move up; for the maximal map the direction must be nonpositive
    and the solution can only move down.
    """
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    if which == "min":
        if np.any(d.values < 0):
            raise ValueError("minimal-map comparison needs a nonnegative direction")
        base = iterate_min(A, f, omap, bracket.lower).solution
        pert = iterate_min(A, f + s * d, omap, bracket.lower).solution
        return leq(base, pert, tol)
    if np.any(d.values > 0):
        raise ValueError("maximal-map comparison needs a nonpositive direction")
    base = iterate_max(A, f, omap, bracket.upper).solution
    pert = iterate_max(A, f + s * d, omap, bracket.upper).solution
    return leq(pert, base, tol)
