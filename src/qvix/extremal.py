"""Monotone fixed-point iterations to the extremal solutions.

The solution set of the quasi-variational problem is bracketed by a
subsolution and a supersolution.  Iterating the obstacle solve from the
bottom of the bracket produces a nodally increasing sequence converging
to the minimal solution; iterating from the top a decreasing sequence to
the maximal one.  Monotonicity is asserted at every step: a violation
means the comparison principle broke, which on these M-matrix operators
signals a bug rather than roundoff.

A max run of a concave map (``ObstacleMap.concave``) under a load >= 0
takes Newton-Fourier steps u - (I - J)^-1 (u - T(u)) with
J = S_C Phi'(u), T(u) = S(f, Phi(u)) and C the set its solve settled on.
The load makes 0 a subsolution, so every state of the run is >= 0, where
the map is concave; then T is concave, S_C Phi'(u) is a supergradient of
T at u, and each step from a supersolution lands on a supersolution
between u_max and u (Ortega and Rheinboldt, *Iterative Solution of
Nonlinear Equations in Several Variables*, 1970, section 13.3).  The
monotone order gate checks each step as for the plain loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import DualElement, EllipticOperator, NodalFunction, NonFiniteError, _v_norm_values, leq
from .obstacle_maps import ObstacleMap
from .vi import _solve_linearised, complementarity_residual, multiplier, solve_vi

log = logging.getLogger("qvix")


class ExtremalIterationError(RuntimeError):
    """The monotone iteration aborted or terminated without a valid solution."""


# stopping rules of the outer fixed-point loop: V-norm step that ends it,
# its safety cap, the residual the limit must reach, and the roundoff
# slack on the nodal order of consecutive iterates and of the bracket checks
TOL_FP = 1e-10
MAX_OUTER = 500
RESIDUAL_TOL = 1e-8
MONOTONE_TOL = 1e-10
# slack on the order of two extremal solutions in comparison_in_f
COMPARISON_TOL = 1e-8


def _sign(which: str) -> float:
    """Direction of the order a run keeps: +1 up to the minimal solution, -1 down to the maximal."""
    if which not in ("min", "max"):
        raise ValueError("which must be 'min' or 'max'")
    return 1.0 if which == "min" else -1.0


def _run_start(A: EllipticOperator, f: DualElement, which: str) -> NodalFunction:
    """Zero for "min" and A^-1 f for "max": zero is a subsolution for a load
    f >= 0, and A^-1 f is a supersolution for any f, the tightest, since
    every obstacle solve at f lies below A^-1 f."""
    return NodalFunction.zeros(A.grid) if _sign(which) > 0 else A.solve(f)


def _monotone_limit(step: Callable[[NodalFunction], tuple[NodalFunction, str]],
                    start: NodalFunction, sign: float, step_tol: float,
                    error: type[Exception], order_text: str, cap_text: str, label: str):
    """Limit of u <- step(u) from start; each step must move every node along sign.

    Stops at the first step whose V-norm is at most step_tol.  Raises error
    with order_text, formatted with the order's name and the worst nodal
    change, when a step goes against sign by more than MONOTONE_TOL, and
    with cap_text plus the last step and the tail contraction ratio when
    MAX_OUTER steps do not settle.  ``step`` returns the next iterate and
    the kind of step that made it.  Returns the limit and, per step, its
    V-norm, its smallest and largest nodal change, and its kind.  Logs
    each step at INFO under label, with its kind.
    """
    u = start
    steps: list[float] = []
    min_deltas: list[float] = []
    max_deltas: list[float] = []
    kinds: list[str] = []
    for _ in range(MAX_OUTER):
        nxt, kind = step(u)
        kinds.append(kind)
        delta = nxt.values - u.values
        min_deltas.append(float(delta.min()))
        max_deltas.append(float(delta.max()))
        worst = min_deltas[-1] if sign > 0 else max_deltas[-1]
        if sign * worst < -MONOTONE_TOL:
            order = "increasing" if sign > 0 else "decreasing"
            raise error(order_text.format(order=order, worst=worst))
        # v_norm(nxt - u) on the delta at hand, with the checks of nxt - u
        nxt._check_same(u)
        steps.append(_v_norm_values(u.grid, delta))
        if not math.isfinite(steps[-1]) and not np.isfinite(delta).all():
            raise NonFiniteError("non-finite nodal values")
        log.info("%s step %d (%s): V-norm step %.3e", label, len(steps), kind, steps[-1])
        u = nxt
        if steps[-1] <= step_tol:
            return u, tuple(steps), tuple(min_deltas), tuple(max_deltas), tuple(kinds)
    last = steps[-1] if steps else float("nan")
    tail = steps[-1] / steps[-2] if len(steps) >= 2 and steps[-2] > 0 else float("nan")
    raise error(f"{cap_text} (last step {last:.3e}, tail contraction ratio {tail:.3f})")


def _check_direction(d: DualElement, which: str, what: str) -> float:
    """Sign of the run; raises unless d points along it (nonnegative for min, nonpositive for max)."""
    sign = _sign(which)
    if np.any(sign * d.values < 0):
        kind, wanted = ("minimal", "nonnegative") if sign > 0 else ("maximal", "nonpositive")
        raise ValueError(f"{kind}-map {what} needs a {wanted} direction")
    return sign


@dataclass(frozen=True)
class ExtremalRunReport:
    """History and diagnostics of one monotone run; ``obstacle`` is the map
    evaluated at the solution, ``active`` the ``ViSolution.active`` of the
    last obstacle solve, and the delta histories hold the smallest
    and largest nodal change of each outer step.  ``newton_steps`` counts
    the run's Newton steps, and ``contraction_rate`` is the bound
    ``(lo, hi)`` on rho(J) from the last of them (None without one)."""

    solution: NodalFunction
    obstacle: NodalFunction
    n_iters: int
    final_step_vnorm: float
    qvi_residual: float
    step_history: tuple[float, ...]
    residual_history: tuple[float, ...]
    min_delta_history: tuple[float, ...]
    max_delta_history: tuple[float, ...]
    active: np.ndarray
    newton_steps: int = 0
    contraction_rate: tuple[float, float] | None = None


def check_subsolution(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                      u: NodalFunction) -> bool:
    """True iff u lies below its own fixed-point image S(f, omap(u))."""
    return leq(u, solve_vi(A, f, omap.evaluate(u)).u, MONOTONE_TOL)


def check_supersolution(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                        u: NodalFunction) -> bool:
    """True iff u lies above its own fixed-point image S(f, omap(u))."""
    return leq(solve_vi(A, f, omap.evaluate(u)).u, u, MONOTONE_TOL)


def _obstacle_residual(u: NodalFunction, phi: NodalFunction, lam: np.ndarray) -> float:
    """Complementarity residual of u below phi, lam its multiplier f - Au.

    Every node is an obstacle node.
    """
    no_role = np.zeros(u.values.shape, dtype=bool)
    return complementarity_residual(u.values, phi.values, lam, no_role, no_role)


def qvi_residual(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                 u: NodalFunction) -> float:
    """Max of feasibility violation, multiplier negativity, and complementarity defect."""
    return _obstacle_residual(u, omap.evaluate(u), multiplier(A, f, u))


def _iterate(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
             start: NodalFunction, which: str, active0: np.ndarray | None) -> ExtremalRunReport:
    sign = _sign(which)
    residuals: list[float] = []
    last_step = None  # input and obstacle of the latest step
    newton = True
    # a load >= 0 makes 0 a subsolution, so u_max >= 0, where the map is concave
    if sign > 0 or not omap.concave or np.any(f.values < 0):
        newton = False
    rate = None  # of the last certified solve
    latest = (start, 0, "start")  # the newest state, the step that made it and its kind

    def newton_step(u: NodalFunction, phi: NodalFunction, v: NodalFunction,
                    pinned: np.ndarray) -> tuple[NodalFunction, str]:
        """u - (I - J)^-1 (u - v), or v where J = 0, the certificate fails or v ends the loop.

        ``phi`` is Phi(u), from which the map linearises.
        """
        nonlocal rate
        r = u.values - v.values
        if _v_norm_values(u.grid, r) > TOL_FP:
            solved = _solve_linearised(A, pinned, *omap.linearisation(u, phi), r)
            if solved is not None:
                x, rate = solved
                return NodalFunction(u.grid, u.values - x), "newton"
        return v, "plain"

    # Evaluates the obstacle of each accepted iterate once, at the start of
    # the step that leaves it; the limit reuses the last step's obstacle
    # when that step moved no bit, and evaluates its own otherwise.  PDAS
    # warm start: the caller's set, then the set the last solve settled on.
    def step(u: NodalFunction) -> tuple[NodalFunction, str]:
        nonlocal active0, last_step, latest
        phi = omap.evaluate(u)
        last_step = (u, phi)
        residuals.append(_obstacle_residual(u, phi, multiplier(A, f, u)))
        sol = solve_vi(A, f, phi, active0=active0)
        active0 = sol.active
        nxt, kind = newton_step(u, phi, sol.u, sol.active) if newton else (sol.u, "plain")
        latest = (nxt, latest[1] + 1, kind)
        return nxt, kind

    try:
        u, steps, min_deltas, max_deltas, kinds = _monotone_limit(
            step, start, sign, TOL_FP, ExtremalIterationError,
            "{order} iteration lost monotonicity (worst step {worst:.3e}); "
            "the comparison principle is broken",
            f"no convergence within {MAX_OUTER} outer iterations", f"extremal {which}")
        # bytes, not ==: -0.0 and 0.0 compare equal but may map apart
        prev, phi = last_step
        if u.values.tobytes() != prev.values.tobytes():
            phi = omap.evaluate(u)
        residuals.append(_obstacle_residual(u, phi, multiplier(A, f, u)))
    except NonFiniteError as exc:  # an overflow names the state it came from
        state, number, kind = latest
        raise ExtremalIterationError(
            f"non-finite nodal values from the state of step {number} ({kind}), "
            f"in [{state.values.min():.3e}, {state.values.max():.3e}]") from exc
    if residuals[-1] > RESIDUAL_TOL:
        raise ExtremalIterationError(
            f"converged iterate has residual {residuals[-1]:.3e} "
            f"above tolerance {RESIDUAL_TOL:.1e}")
    return ExtremalRunReport(
        solution=u, obstacle=phi, n_iters=len(steps), final_step_vnorm=steps[-1],
        qvi_residual=residuals[-1], step_history=steps, residual_history=tuple(residuals),
        min_delta_history=min_deltas, max_delta_history=max_deltas, active=active0,
        newton_steps=kinds.count("newton"), contraction_rate=rate)


def _kept_run(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
              start: NodalFunction, which: str, active0: np.ndarray | None) -> ExtremalRunReport:
    """``_iterate``, kept on the map for the last run asked of it (``omap._run_entry``).

    The key holds A by identity (``EllipticOperator`` has no ==), the
    grids, and the bytes of every array, not ==, since -0.0 and 0.0
    compare equal but may map apart.  A caller that repeats the run it
    just made, as ``fd_validate`` repeats the base run of
    ``run_experiment``, gets the same frozen report back.  The entry is
    read once and replaced whole, so threads sharing a map never pair one
    run's key with another's report; a raise is never kept.
    """
    key = (A, which, f.grid, f.values.tobytes(), start.grid, start.values.tobytes(),
           None if active0 is None else np.asarray(active0, bool).tobytes())
    entry = omap._run_entry
    if entry is not None and entry[0] == key:
        log.info("extremal %s: reused the run at this load and start (%d steps)",
                 which, entry[1].n_iters)
        return entry[1]
    report = _iterate(A, f, omap, start, which, active0)
    omap._run_entry = (key, report)
    return report


def iterate_min(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                start: NodalFunction, *, active0: np.ndarray | None = None) -> ExtremalRunReport:
    """Increasing iteration from a subsolution to the minimal solution.

    ``active0`` is the set the first obstacle solve starts from, as
    ``ViSolution.active`` or ``ExtremalRunReport.active`` of a nearby
    problem; each later solve starts from the set its predecessor settled
    on.  A warm start as in ``solve_vi``: it changes the rounds spent, and
    the result only where a solve ends on the residual test from round 2
    on (a degenerate set), by roundoff inside ``vi.VI_TOL``.  The map keeps
    the last run (``_kept_run``): the same inputs again return its report.
    """
    return _kept_run(A, f, omap, start, "min", active0)


def iterate_max(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
                start: NodalFunction, *, active0: np.ndarray | None = None) -> ExtremalRunReport:
    """Decreasing iteration from a supersolution to the maximal solution.

    ``active0`` and the kept run are as in ``iterate_min``.
    """
    return _kept_run(A, f, omap, start, "max", active0)


def comparison_in_f(A: EllipticOperator, f: DualElement, d: DualElement, s: float,
                    omap: ObstacleMap, which: str) -> bool:
    """Order of the extremal solutions under a signed shift of the source.

    For the minimal map the direction must be nonnegative and the solution
    can only move up; for the maximal map the direction must be nonpositive
    and the solution can only move down.  Both runs start at
    ``_run_start(A, f, which)``, which bounds the shifted problem too.
    """
    sign = _check_direction(d, which, "comparison")
    run, start = iterate_min if sign > 0 else iterate_max, _run_start(A, f, which)
    base = run(A, f, omap, start).solution
    pert = run(A, f + s * d, omap, start).solution
    low, high = (base, pert) if sign > 0 else (pert, base)
    return leq(low, high, COMPARISON_TOL)
