"""Directional derivatives of the extremal solution maps in the source term.

At a converged extremal solution, the admissible variations form a cone
fixed by the active set partition: variations vanish where the multiplier
is positive, are sign-constrained where state and obstacle touch with a
vanishing multiplier, and are free elsewhere.  The derivative solves a
quasi-variational problem over that cone shifted by the obstacle map's
derivative; it is computed here as the monotone limit of cone-constrained
obstacle solves and validated against one-sided difference quotients of
the extremal runs, which are warm-started at the base solution exactly as
the underlying selection mechanism prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import extremal
from .extremal import IntervalBracket, _check_direction, _monotone_limit, _obstacle_residual, \
    _sign, check_subsolution, check_supersolution, iterate_max, iterate_min
from .fem import DualElement, EllipticOperator, NodalFunction, v_norm
from .obstacle_maps import ObstacleMap
from .vi import ActiveSetPartition, _pdas, _pose, classify_active, complementarity_residual, \
    default_tol_multiplier, multiplier

# stopping rules of the derivative fixed-point loop: V-norm step that ends
# it and the residual the limit must reach.  It linearises the fixed point
# of the outer loop and contracts at its rate, so it shares that loop's
# iteration budget extremal.MAX_OUTER; the slack on the nodal order of
# consecutive iterates is extremal.MONOTONE_TOL
ALPHA_STEP_TOL = 1e-11
ALPHA_RESIDUAL_TOL = 1e-9
# difference-quotient steps used when a caller names none
DEFAULT_S_LIST = (1e-1, 1e-2, 1e-3, 1e-4)


class ConeError(ValueError):
    """The base point does not support a meaningful derivative cone."""


class DerivativeSolveError(RuntimeError):
    """The derivative iteration or its validation failed."""


@dataclass(frozen=True)
class CriticalConeData:
    """Everything needed to pose the derivative problem at a base solution."""

    base: NodalFunction
    partition: ActiveSetPartition
    lam: DualElement
    deriv_map: Callable[[NodalFunction], NodalFunction]
    operator: EllipticOperator


@dataclass(frozen=True)
class DerivativeReport:
    """Derivative iterate history plus the difference-quotient validation table."""

    alpha: NodalFunction
    alpha_iterates: tuple[NodalFunction, ...]
    qvi_residual: float
    fd_table: tuple[tuple[float, float], ...] = ()
    observed_order: float | None = None
    fd_monotone: bool | None = None
    base: NodalFunction | None = None


def build_cone(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
               base: NodalFunction, phi: NodalFunction | None = None) -> CriticalConeData:
    """Classify the base solution and package the derivative cone data.

    ``phi`` is the obstacle ``omap.evaluate(base)`` when the caller holds
    it already, as ``ExtremalRunReport.obstacle``; it is evaluated when
    None.  Refuses base points whose residual is too large for the active
    set to be trustworthy (the ``extremal.RESIDUAL_TOL`` gate of the
    extremal runs), and base points whose multiplier leaks off the strict
    set beyond classification noise.
    """
    if phi is None:
        phi = omap.evaluate(base)
    lam_vals = multiplier(A, f, base)
    res = _obstacle_residual(A, f, base, phi)
    if res > extremal.RESIDUAL_TOL:
        raise ConeError(f"base residual {res:.3e} too large to classify the active set")
    partition = classify_active(A, f, base, phi)
    tol_lam = default_tol_multiplier(f)
    if partition.inactive.any():
        leak = float(np.max(np.abs(lam_vals[partition.inactive])))
        if leak > 10 * tol_lam:
            raise ConeError(f"multiplier of size {leak:.3e} off the coincidence set")
    return CriticalConeData(base=base, partition=partition,
                            lam=DualElement(A.grid, lam_vals),
                            deriv_map=lambda w: omap.derivative_action(base, w),
                            operator=A)


def _cone_solve(cone: CriticalConeData, d_vals: np.ndarray, shift_vals: np.ndarray,
                active0: np.ndarray | None = None) -> tuple[NodalFunction, np.ndarray]:
    """Obstacle solve for the direction's nodal values over the shifted cone.

    Strict nodes are pinned to the shift, biactive nodes carry it as an
    upper bound, inactive nodes are unconstrained.  Returns the solution
    and the settled set of its loop, the warm start of the next solve over
    the same cone.
    """
    A, partition = cone.operator, cone.partition
    problem = _pose(A, d_vals, shift_vals, partition.strict, partition.inactive)
    vals, _, settled, _ = _pdas(A.matrix, A.grid.mass, *problem, active0=active0)
    return NodalFunction(A.grid, vals), settled


def derivative_qvi_residual(cone: CriticalConeData, alpha: NodalFunction,
                            d: DualElement) -> float:
    """Fixed-point residual of the derivative problem at alpha."""
    A, partition = cone.operator, cone.partition
    _, target, eq_mask, free_mask = _pose(A, d.values, cone.deriv_map(alpha).values,
                                          partition.strict, partition.inactive)
    return complementarity_residual(alpha.values, target, multiplier(A, d, alpha),
                                    eq_mask, free_mask)


def solve_derivative_qvi(cone: CriticalConeData, d: DualElement,
                         which: str = "min") -> DerivativeReport:
    """Monotone iteration of cone solves converging to the directional derivative.

    The first iterate solves over the unshifted cone; each subsequent one
    shifts the cone by the map derivative at the previous iterate.  For
    the minimal map the direction must be nonnegative and the iterates
    increase; for the maximal map the direction must be nonpositive and
    they decrease.
    """
    sign = _check_direction(d, which, "derivative")
    first, active0 = _cone_solve(cone, d.values, np.zeros(cone.operator.grid.n_nodes))
    iterates = [first]

    # consecutive cone solves mostly share their set: each starts from the last one's
    def step(alpha: NodalFunction) -> NodalFunction:
        nonlocal active0
        nxt, active0 = _cone_solve(cone, d.values, cone.deriv_map(alpha).values, active0)
        iterates.append(nxt)
        return nxt

    budget = extremal.MAX_OUTER
    alpha, _, _, _ = _monotone_limit(
        step, iterates[0], sign, ALPHA_STEP_TOL, budget, DerivativeSolveError,
        "derivative iterates lost their {order} order",
        f"derivative iteration did not settle within {budget} rounds")
    residual = derivative_qvi_residual(cone, alpha, d)
    if residual > ALPHA_RESIDUAL_TOL:
        raise DerivativeSolveError(
            f"derivative fixed-point residual {residual:.3e} above {ALPHA_RESIDUAL_TOL:.1e}")
    return DerivativeReport(alpha=alpha, alpha_iterates=tuple(iterates),
                            qvi_residual=residual, base=cone.base)


def _observed_order(fd_table, floor) -> float | None:
    usable = [(s, e) for s, e in fd_table if e > max(floor(s), 1e-13)]
    if len(usable) < 2:
        return None
    ss = np.log([s for s, _ in usable])
    ee = np.log([e for _, e in usable])
    return float(np.polyfit(ss, ee, 1)[0])


def _check_s_list(s_list) -> list[float]:
    """The quotient steps as floats; raises unless positive, strictly decreasing and >= 1e-5."""
    s_arr = [float(s) for s in s_list]
    if not s_arr or any(s <= 0 for s in s_arr):
        raise ValueError("s_list must contain positive steps")
    if any(b >= a for a, b in zip(s_arr, s_arr[1:])):
        raise ValueError("s_list must be strictly decreasing")
    if min(s_arr) < 1e-5:
        raise ValueError("steps below 1e-5 drown in solver noise; raise the smallest step")
    return s_arr


def fd_validate(A: EllipticOperator, f: DualElement, d: DualElement,
                omap: ObstacleMap, bracket: IntervalBracket, which: str,
                s_list=DEFAULT_S_LIST, fd_tol: float | None = None,
                oracle_check: bool = False) -> DerivativeReport:
    """Compare the derivative against one-sided difference quotients.

    Each quotient re-runs the extremal iteration at the shifted source,
    warm-started at the base solution (the selection the derivative
    describes); its first obstacle solve starts from the set the base
    run's last solve settled on, a warm start as in ``solve_vi``.
    Quotient errors must shrink with the step, up to a noise floor on
    instances where the remainder vanishes identically; on biactive
    instances a non-shrinking table is flagged (``fd_monotone`` False)
    instead of raised.
    """
    s_arr = _check_s_list(s_list)
    sign = _sign(which)
    run, start = (iterate_min, bracket.lower) if sign > 0 else (iterate_max, bracket.upper)
    base_run = run(A, f, omap, start, oracle_check)
    base = base_run.solution
    far = f + s_arr[0] * d
    if sign > 0 and not check_supersolution(A, far, omap, bracket.upper):
        raise ValueError("bracket invalid: upper bound is not a supersolution at f + max(s) d")
    if sign < 0 and not check_subsolution(A, far, omap, bracket.lower):
        raise ValueError("bracket invalid: lower bound is not a subsolution at f + max(s) d")

    cone = build_cone(A, f, omap, base, base_run.obstacle)
    report = solve_derivative_qvi(cone, d, which)
    alpha = report.alpha

    fd_table = []
    for s in s_arr:
        pert = run(A, f + s * d, omap, base, oracle_check, active0=base_run.active).solution
        quotient = (1.0 / s) * (pert - base)
        fd_table.append((s, v_norm(quotient - alpha)))

    # Entries below the floor carry no information: the quotient of two
    # solves each accurate to TOL_FP cannot resolve errors under
    # ~TOL_FP/s, so such entries neither confirm nor violate the decrease.
    noise_scale = 10.0 * extremal.TOL_FP * (1.0 + v_norm(base))
    alpha_floor = 1e-9 * (1.0 + v_norm(alpha))
    floor = lambda s: max(alpha_floor, noise_scale / s)
    fd_monotone = all(eb <= max(ea, floor(sb))
                      for (_, ea), (sb, eb) in zip(fd_table, fd_table[1:]))
    if not fd_monotone and not cone.partition.biactive.any():
        raise DerivativeSolveError(
            "quotient error table does not shrink on a strictly complementary instance")
    if fd_tol is None:
        fd_tol = 1e-3 * (1.0 + v_norm(alpha))
    final_err = fd_table[-1][1]
    if final_err > fd_tol:
        raise DerivativeSolveError(
            f"final quotient error {final_err:.3e} above tolerance {fd_tol:.3e}")

    return replace(report, fd_table=tuple(fd_table),
                   observed_order=_observed_order(fd_table, floor),
                   fd_monotone=fd_monotone)
