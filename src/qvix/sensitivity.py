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
from .extremal import IntervalBracket, _check_direction, _sign, check_subsolution, \
    check_supersolution, iterate_max, iterate_min
from .fem import DualElement, EllipticOperator, NodalFunction, v_norm
from .obstacle_maps import ObstacleMap
from .vi import ActiveSetPartition, _pdas, classify_active, complementarity_residual, \
    default_tol_multiplier, multiplier

# stopping rules of the derivative fixed-point loop: V-norm step that ends
# it, the residual the limit must reach, its safety cap, and the roundoff
# slack on the nodal order of consecutive iterates
ALPHA_STEP_TOL = 1e-11
ALPHA_RESIDUAL_TOL = 1e-9
ALPHA_MAX_ITER = 100
ALPHA_MONOTONE_TOL = 1e-10
# base residual above which the active set is too blurred to build a cone on
CONE_RESIDUAL_TOL = 1e-8
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
    biactive_warning: bool = False
    base: NodalFunction | None = None


def build_cone(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
               base: NodalFunction) -> CriticalConeData:
    """Classify the base solution and package the derivative cone data.

    Refuses base points whose residual is too large for the active set to
    be trustworthy, and base points whose multiplier leaks off the strict
    set beyond classification noise.
    """
    phi = omap.evaluate(base)
    lam_vals = multiplier(A, f, base)
    no_role = np.zeros(A.grid.n_nodes, dtype=bool)
    res = complementarity_residual(base.values, phi.values, lam_vals, no_role, no_role)
    if res > CONE_RESIDUAL_TOL:
        raise ConeError(f"base residual {res:.3e} too large to classify the active set")
    partition = classify_active(A, f, base, phi)
    tol_lam = default_tol_multiplier(f)
    if partition.inactive.size:
        leak = float(np.max(np.abs(lam_vals[partition.inactive])))
        if leak > 10 * tol_lam:
            raise ConeError(f"multiplier of size {leak:.3e} off the coincidence set")
    return CriticalConeData(base=base, partition=partition,
                            lam=DualElement(A.grid, lam_vals),
                            deriv_map=lambda w: omap.derivative_action(base, w),
                            operator=A)


def _cone_roles(cone: CriticalConeData, shift_vals: np.ndarray):
    """Node roles and target of the cone shifted by the given bound values.

    Strict nodes are pinned to the shift and Dirichlet boundary nodes to
    zero (equality), biactive nodes carry the shift as an upper bound
    (obstacle), inactive nodes are unconstrained (free).
    """
    A = cone.operator
    boundary = np.isin(np.arange(A.grid.n_nodes), A.boundary_nodes)
    eq_mask = boundary.copy()
    eq_mask[cone.partition.strict] = True
    free_mask = np.isin(np.arange(A.grid.n_nodes), cone.partition.inactive) & ~boundary
    return np.where(boundary, 0.0, shift_vals), eq_mask, free_mask


def _cone_solve(cone: CriticalConeData, load: np.ndarray,
                shift_vals: np.ndarray) -> NodalFunction:
    """Obstacle solve over the cone shifted by the given bound values."""
    A = cone.operator
    target, eq_mask, free_mask = _cone_roles(cone, shift_vals)
    ld = load.copy()
    ld[A.boundary_nodes] = 0.0
    vals, _, _ = _pdas(A.matrix, A.grid.mass, ld, target, eq_mask, free_mask)
    return NodalFunction(A.grid, vals)


def derivative_qvi_residual(cone: CriticalConeData, alpha: NodalFunction,
                            d: DualElement) -> float:
    """Fixed-point residual of the derivative problem at alpha."""
    A = cone.operator
    target, eq_mask, free_mask = _cone_roles(cone, cone.deriv_map(alpha).values)
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
    A = cone.operator
    load = A.grid.mass * d.values
    zero_shift = np.zeros(A.grid.n_nodes)
    alpha = _cone_solve(cone, load, zero_shift)
    iterates = [alpha]
    converged = False
    for _ in range(ALPHA_MAX_ITER):
        shift = cone.deriv_map(alpha).values
        alpha_next = _cone_solve(cone, load, shift)
        if float(np.min(sign * (alpha_next.values - alpha.values))) < -ALPHA_MONOTONE_TOL:
            order = "increasing" if sign > 0 else "decreasing"
            raise DerivativeSolveError(f"derivative iterates lost their {order} order")
        step = v_norm(alpha_next - alpha)
        alpha = alpha_next
        iterates.append(alpha)
        if step <= ALPHA_STEP_TOL:
            converged = True
            break
    if not converged:
        raise DerivativeSolveError(
            f"derivative iteration did not settle within {ALPHA_MAX_ITER} rounds")

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
    describes).  Quotient errors must shrink with the step, up to a noise
    floor on instances where the remainder vanishes identically; on
    biactive instances a non-shrinking table is flagged instead of raised.
    """
    s_arr = _check_s_list(s_list)
    sign = _sign(which)
    run, start = (iterate_min, bracket.lower) if sign > 0 else (iterate_max, bracket.upper)
    base = run(A, f, omap, start, oracle_check).solution
    far = f + s_arr[0] * d
    if sign > 0 and not check_supersolution(A, far, omap, bracket.upper):
        raise ValueError("bracket invalid: upper bound is not a supersolution at f + max(s) d")
    if sign < 0 and not check_subsolution(A, far, omap, bracket.lower):
        raise ValueError("bracket invalid: lower bound is not a subsolution at f + max(s) d")

    cone = build_cone(A, f, omap, base)
    report = solve_derivative_qvi(cone, d, which)
    alpha = report.alpha

    fd_table = []
    for s in s_arr:
        pert = run(A, f + s * d, omap, base, oracle_check).solution
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
    biactive = cone.partition.biactive.size > 0
    if not fd_monotone and not biactive:
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
                   fd_monotone=fd_monotone,
                   biactive_warning=(not fd_monotone and biactive))
