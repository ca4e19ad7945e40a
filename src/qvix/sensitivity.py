"""Directional derivatives of the extremal solution maps in the source term.

At a converged extremal solution, the admissible variations form a cone
fixed by the active set partition: variations vanish where the multiplier
is positive, are sign-constrained where state and obstacle touch with a
vanishing multiplier, and are free elsewhere.  The derivative solves a
quasi-variational problem over that cone shifted by the obstacle map's
derivative; it is computed here as the monotone limit of cone-constrained
obstacle solves and validated against one-sided difference quotients of
the extremal runs, which are warm-started at the base solution exactly as
the underlying selection mechanism prescribes.  On a cone with no
biactive node the derivative problem is linear, (I - J) alpha = alpha_0
with J = S_C Phi'(base) and C the strict set, and the loop's second
iterate is its solution from one banded solve (``vi._solve_linearised``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import extremal
from .extremal import _check_direction, _monotone_limit, _obstacle_residual, _run_start, _sign, \
    check_subsolution, check_supersolution, iterate_max, iterate_min
from .fem import DualElement, EllipticOperator, NodalFunction, v_norm
from .obstacle_maps import Linearisation, ObstacleMap
from .vi import ActiveSetPartition, _pdas, _pose, _solve_linearised, classify_active, \
    complementarity_residual, default_tol_multiplier, multiplier

# stopping rules of the derivative fixed-point loop: V-norm step that ends
# it and the residual the limit must reach.  It linearises the fixed point
# of the outer loop and contracts at its rate, so it shares that loop's
# iteration budget extremal.MAX_OUTER; the slack on the nodal order of
# consecutive iterates is extremal.MONOTONE_TOL
ALPHA_STEP_TOL = 1e-11
ALPHA_RESIDUAL_TOL = 1e-9
# difference-quotient steps, positive and strictly decreasing.  None may be
# below 1e-5: the quotient of two runs each accurate to extremal.TOL_FP
# resolves no error under ~TOL_FP/s, and below 1e-5 that noise swamps it
QUOTIENT_STEPS = (1e-1, 1e-2, 1e-3, 1e-4)
# final quotient error allowed, relative to 1 + ||alpha||_V
QUOTIENT_TOL = 1e-3


class ConeError(ValueError):
    """The base point does not support a meaningful derivative cone."""


class DerivativeSolveError(RuntimeError):
    """The derivative iteration or its validation failed."""


@dataclass(frozen=True)
class CriticalConeData:
    """Everything needed to pose the derivative problem at a base solution.

    ``linearisation`` is the map's ``(B, w)`` at the base
    (``ObstacleMap.linearisation``), which ``deriv_map`` applies.
    """

    partition: ActiveSetPartition
    deriv_map: Callable[[NodalFunction], NodalFunction]
    operator: EllipticOperator
    linearisation: Linearisation


@dataclass(frozen=True)
class DerivativeReport:
    """Derivative iterate history plus the difference-quotient validation table."""

    alpha: NodalFunction
    alpha_iterates: tuple[NodalFunction, ...]
    qvi_residual: float
    fd_table: tuple[tuple[float, float], ...] = ()
    observed_order: float | None = None
    fd_monotone: bool | None = None


def build_cone(A: EllipticOperator, f: DualElement, omap: ObstacleMap,
               base: NodalFunction, phi: NodalFunction) -> CriticalConeData:
    """Classify the base solution and package the derivative cone data.

    ``phi`` is the obstacle ``omap.evaluate(base)``, as
    ``ExtremalRunReport.obstacle``.  The map is linearised from ``(base, phi)``
    once, for both ``deriv_map`` and ``linearisation``.  Refuses base
    points whose residual is too large for the active set to be
    trustworthy (the ``extremal.RESIDUAL_TOL`` gate of the extremal
    runs), and base points whose multiplier leaks off the strict set
    beyond classification noise.
    """
    lam_vals = multiplier(A, f, base)
    res = _obstacle_residual(base, phi, lam_vals)
    if res > extremal.RESIDUAL_TOL:
        raise ConeError(f"base residual {res:.3e} too large to classify the active set")
    partition = classify_active(f, base, phi, lam_vals)
    tol_lam = default_tol_multiplier(f)
    if partition.inactive.any():
        leak = float(np.max(np.abs(lam_vals[partition.inactive])))
        if leak > 10 * tol_lam:
            raise ConeError(f"multiplier of size {leak:.3e} off the coincidence set")
    lin = omap.linearisation(base, phi)
    return CriticalConeData(partition=partition,
                            deriv_map=lambda w: omap.derivative_action(lin, w),
                            operator=A, linearisation=lin)


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


def solve_derivative_qvi(cone: CriticalConeData, d: DualElement, which: str) -> DerivativeReport:
    """Monotone iteration of cone solves converging to the directional derivative.

    The first iterate solves over the unshifted cone; each subsequent one
    shifts the cone by the map derivative at the previous iterate.  For
    the minimal map the direction must be nonnegative and the iterates
    increase; for the maximal map the direction must be nonpositive and
    they decrease.  On a cone with no biactive node, the second iterate
    is (I - J)^-1 alpha_0, J = S_C Phi'(base) with C the strict set, when
    ``vi._solve_linearised`` certifies rho(J) < 1 and J != 0 (a
    ``newton`` step); (I - J)^-1 >= 0 keeps the order, and the plain
    steps that follow end the loop.
    """
    sign = _check_direction(d, which, "derivative")
    A, strict = cone.operator, cone.partition.strict
    first, active0 = _cone_solve(cone, d.values, np.zeros(A.grid.n_nodes))
    iterates = [first]
    linear = True
    # a biactive node makes the cone no subspace, and the problem not linear
    if cone.partition.biactive.any():
        linear = False

    # consecutive cone solves mostly share their set: each starts from the last one's
    def step(alpha: NodalFunction) -> tuple[NodalFunction, str]:
        nonlocal active0
        if linear and len(iterates) == 1:
            solved = _solve_linearised(A, strict, *cone.linearisation, alpha.values)
            if solved is not None:
                iterates.append(NodalFunction(A.grid, solved[0]))
                return iterates[-1], "newton"
        nxt, active0 = _cone_solve(cone, d.values, cone.deriv_map(alpha).values, active0)
        iterates.append(nxt)
        return nxt, "plain"

    alpha, _, _, _, _ = _monotone_limit(
        step, iterates[0], sign, ALPHA_STEP_TOL, DerivativeSolveError,
        "derivative iterates lost their {order} order",
        f"derivative iteration did not settle within {extremal.MAX_OUTER} rounds", "derivative")
    residual = derivative_qvi_residual(cone, alpha, d)
    if residual > ALPHA_RESIDUAL_TOL:
        raise DerivativeSolveError(
            f"derivative fixed-point residual {residual:.3e} above {ALPHA_RESIDUAL_TOL:.1e}")
    return DerivativeReport(alpha=alpha, alpha_iterates=tuple(iterates),
                            qvi_residual=residual)


def _observed_order(fd_table, floor) -> float | None:
    usable = [(s, e) for s, e in fd_table if e > max(floor(s), 1e-13)]
    if len(usable) < 2:
        return None
    ss = np.log([s for s, _ in usable])
    ee = np.log([e for _, e in usable])
    return float(np.polyfit(ss, ee, 1)[0])


def fd_validate(A: EllipticOperator, f: DualElement, d: DualElement,
                omap: ObstacleMap, which: str) -> DerivativeReport:
    """Compare the derivative against one-sided difference quotients.

    The base run starts where ``run_experiment``'s does
    (``extremal._run_start``), so it is the map's kept run
    (``extremal._kept_run``) when the caller has just made it, and is
    computed otherwise.  Each step of ``QUOTIENT_STEPS`` re-runs the
    extremal iteration at the shifted source, warm-started at the base
    solution (the selection the derivative describes); its first obstacle
    solve starts from the base run's ``active``, a warm start as in
    ``solve_vi``.  A min rerun is bracketed for any obstacle: d >= 0 makes
    the base a subsolution at f + s d, and S(g, phi) <= A^-1 g makes
    A^-1 (f + s d) a supersolution above it.  A max rerun starts above
    every solution at f + s d, since d <= 0 places each of them below
    u_max(f) (the signed-direction comparison), so the rerun's own gates
    certify its limit or refuse it.  At the farthest source f + max(s) d
    the base is checked as the start it is there: a subsolution for a min
    run, a supersolution for a max run.
    Quotient errors must shrink with the step, up to a noise floor on
    instances where the remainder vanishes identically; on biactive
    instances a non-shrinking table is flagged (``fd_monotone`` False)
    instead of raised.  The error at the last step must stay within
    ``QUOTIENT_TOL`` relative to 1 + ||alpha||_V.
    """
    sign = _sign(which)
    run = iterate_min if sign > 0 else iterate_max
    base_run = run(A, f, omap, _run_start(A, f, which))
    base = base_run.solution
    far = f + QUOTIENT_STEPS[0] * d
    if sign > 0 and not check_subsolution(A, far, omap, base):
        raise ValueError("rerun start: the base is not a subsolution at f + max(s) d")
    if sign < 0 and not check_supersolution(A, far, omap, base):
        raise ValueError("rerun start: the base is not a supersolution at f + max(s) d")
    cone = build_cone(A, f, omap, base, base_run.obstacle)
    report = solve_derivative_qvi(cone, d, which)
    alpha = report.alpha

    fd_table = []
    for s in QUOTIENT_STEPS:
        pert = run(A, f + s * d, omap, base, active0=base_run.active).solution
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
    tol = QUOTIENT_TOL * (1.0 + v_norm(alpha))
    final_err = fd_table[-1][1]
    if final_err > tol:
        raise DerivativeSolveError(
            f"final quotient error {final_err:.3e} above tolerance {tol:.3e}")

    return replace(report, fd_table=tuple(fd_table),
                   observed_order=_observed_order(fd_table, floor),
                   fd_monotone=fd_monotone)
