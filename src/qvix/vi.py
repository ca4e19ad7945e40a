"""Obstacle-constrained solves for the assembled elliptic operator.

``solve_vi`` finds u <= phi with a nonnegative complementary multiplier
via a primal-dual active set loop.  On M-matrices the loop terminates in
finitely many set changes.  The set its last round's update rule
selected is returned as ``ViSolution.active``, and it is the one warm
start of the library: every solve of a sequence (an extremal run, a
derivative iteration, a quotient rerun) starts from the set of the solve
before.  ``classify_active`` splits a solution's coincidence set by its
multiplier f - Au into boolean node masks.  ``_pose`` is the one place
that poses a complementarity problem, the obstacle solves here and the
derivative's cone solves alike: it decides the load, the target and the
node roles, the Dirichlet rows included.  ``oracle_vi`` re-derives the
same solution exactly, by Chandrasekaran's pivoting in rational
arithmetic, as the obstacle-only wrapper of ``_oracle``, which solves any
posed problem.  ``_pdas`` ends on a settled set or on its residual test,
and its point is not checked again at run time.  The tier-1 tests check
the exit of every ``_pdas`` call of the bundled runs (obstacle, cone and
nested coarse solves) at their own grids and at 401 nodes under both
boundary conditions, and compare every call of the runs as bundled with
``_oracle`` (``tests/test_vi.py``, ``tests/test_experiments.py``).

A cold loop needs more set changes the finer the grid, because the front
of the active set moves a few nodes per round.  So the loop takes its
second round from a nested-iteration guess (Hintermüller-Ulbrich, Math.
Program. 101, 2004; Kornhuber, Numer. Math. 69, 1994), by one rule on
every level:

- Round 1 pins the caller's set ``active0``, the settled set of the
  solve before (none for a cold solve).  If the update rule selects that
  set again, the solve ends: consecutive solves of a monotone iteration
  mostly share their set, and then cost one round.  Round 1 ends only
  on a settled set, whatever the start.
- Otherwise the same problem is solved on every other node, with the
  Galerkin matrix P^T A P of linear interpolation P, the load and mass
  restricted by P^T, the target and role masks injected, and round 1's
  selection injected as that level's ``active0``.  Round 2 pins the
  prolongated settled coarse set: an even node takes its coarse flag, an
  odd node is active when both coarse neighbours are.  Coarsening stops
  below ``NESTED_MIN_NODES`` coarse nodes, at an even node count and
  where the Galerkin matrix would couple two unknowns positively, so
  every level is an M-matrix; there round 2 pins round 1's selection.

Rounds 2 onwards end on a settled set or on the residual test, since
degenerate nodes (multipliers at roundoff) can flip forever.  The result
is that of the set the last round pins, so starts whose loops settle on
the same set give the same bits.  Only a loop that ends on the residual
test from round 2 on, on a degenerate set the update rule would still
change, can depend on its start: another start may end on another set,
and the two results differ by roundoff inside ``VI_TOL``.  Its
``ViSolution.active``, the last round's selection, need not be the set
its values solve on (``toy_max`` at A^-1 f, n = 129, either start).
``PDAS_MAX_ITER`` counts round 1; ``ViSolution.iterations`` counts the
rounds of every level.

``_solve_linearised`` solves the linearisation of a pinned solve composed
with an obstacle map, (I - J)x = r for J = S_C Phi'(u), and certifies
that the spectral radius of J lies below 1: the Newton steps of the
extremal max runs and the derivative on a subspace cone take it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import dgbsv

from .fem import (
    DualElement,
    EllipticOperator,
    GridMismatchError,
    NodalFunction,
    NonFiniteError,
    TridiagonalSpd,
)

log = logging.getLogger("qvix")


class ViSolveError(RuntimeError):
    """The active set loop failed to deliver a valid complementarity point."""


# KKT residual below which a solve is accepted; also the slack of check_comparison
VI_TOL = 1e-10
# safety net: on M-matrices PDAS settles after finitely many set changes
PDAS_MAX_ITER = 200
# the nested start coarsens while the coarse grid keeps at least this many nodes
NESTED_MIN_NODES = 64


@dataclass(frozen=True)
class ActiveSetPartition:
    """Per-node split of the coincidence set by multiplier support.

    Two read-only boolean node masks of one shape: ``strict`` nodes touch
    the obstacle with a positive multiplier, ``biactive`` nodes touch it
    with a vanishing multiplier.  The derived masks are ``coincidence``,
    their union, and ``inactive``, the nodes strictly below.
    """

    strict: np.ndarray
    biactive: np.ndarray

    def __post_init__(self):
        strict, biactive = np.array(self.strict), np.array(self.biactive)
        if strict.dtype != bool or biactive.dtype != bool or strict.shape != biactive.shape:
            raise ValueError("partition needs two boolean masks of one shape")
        if (strict & biactive).any():
            raise ValueError("partition sets overlap")
        for name, mask in (("strict", strict), ("biactive", biactive)):
            mask.flags.writeable = False
            object.__setattr__(self, name, mask)

    @property
    def coincidence(self) -> np.ndarray:
        return self.strict | self.biactive

    @property
    def inactive(self) -> np.ndarray:
        return ~self.coincidence

    def labels(self) -> list[str]:
        """Per-node class letters: ``S`` strict, ``B`` biactive, ``I`` inactive."""
        return np.where(self.strict, "S", np.where(self.biactive, "B", "I")).tolist()


@dataclass(frozen=True)
class ViSolution:
    """Solution, multiplier and diagnostics of one obstacle solve.

    ``iterations`` counts the active set rounds of every nested level; it
    is 1 when the first round already ended the solve.  ``active`` is the
    read-only set the last round selected (the pinned set of a settled
    loop), the warm start of the next solve of a sequence.
    ``classify_active`` splits a solution's coincidence set.
    """

    u: NodalFunction
    lam: DualElement
    iterations: int
    active: np.ndarray

    def __post_init__(self):
        self.active.flags.writeable = False


def default_tol_active(phi: NodalFunction) -> float:
    return 1e-8 * (1.0 + float(np.abs(phi.values).max()))


def default_tol_multiplier(f: DualElement) -> float:
    return 1e-8 * (1.0 + float(np.abs(f.values).max()))


def multiplier(A: EllipticOperator, f: DualElement, u: NodalFunction) -> np.ndarray:
    """Nodal multiplier density f - Au, zero on the Dirichlet boundary nodes.

    Formed on the nodal arrays, with the bits and the checks of
    ``f - A.apply(u)``: common grids, a ``DualElement`` load and finite
    values.
    """
    grid = A.grid
    if u.grid != grid:
        raise GridMismatchError("function grid does not match operator grid")
    if type(f) is not DualElement:
        raise TypeError(f"cannot combine {type(f).__name__} with DualElement")
    if f.grid != grid:
        raise GridMismatchError("operands live on different grids")
    lam = f.values - A.matrix.matvec(u.values) / grid.mass
    if not np.isfinite(lam).all():
        raise NonFiniteError("non-finite nodal values")
    if A.bc == "dirichlet":
        lam[A.boundary] = 0.0
    return lam


def complementarity_residual(u, target, lam, eq_mask, free_mask) -> float:
    """Worst violation of the complementarity system with per-node roles.

    Equality nodes must match the target; obstacle nodes (neither equality
    nor free) must lie below it with a nonnegative multiplier that vanishes
    off contact; free nodes must carry no multiplier.  All arguments are
    nodal arrays; empty role masks check every node against the obstacle.
    """
    gap = target - u
    # obstacle terms everywhere first, then overwritten on the other roles
    viol = np.maximum(np.maximum(-gap, -lam), 0.0)
    np.maximum(viol, np.abs(lam * gap), out=viol)
    if np.count_nonzero(free_mask):
        viol[free_mask] = np.abs(lam[free_mask])
    if np.count_nonzero(eq_mask):
        viol[eq_mask] = np.abs(gap[eq_mask])
    return float(viol.max())


def classify_active(f: DualElement, u: NodalFunction, phi: NodalFunction,
                    lam: np.ndarray) -> ActiveSetPartition:
    """Classify nodes of a feasible point into inactive/strict/biactive.

    ``lam`` is the point's multiplier ``multiplier(A, f, u)``; callers
    that write or check it as well form it once and pass it here.
    """
    coincidence = (phi.values - u.values) <= default_tol_active(phi)
    strict = coincidence & (lam > default_tol_multiplier(f))
    return ActiveSetPartition(strict=strict, biactive=coincidence & ~strict)


def _pose(A: EllipticOperator, f_vals: np.ndarray, target_vals: np.ndarray,
          pinned: np.ndarray | None = None, free: np.ndarray | None = None):
    """Load, target and node roles of one complementarity problem on A.

    Dirichlet boundary nodes are equality nodes at zero with no load,
    ``pinned`` nodes equality nodes at the target, ``free`` nodes off the
    boundary carry the plain equation, and every other node carries the
    target as an upper bound.  Returns ``(load, target, eq_mask,
    free_mask)`` for ``_pdas`` and ``complementarity_residual``; they
    read the target and the masks and never write them, so a Neumann
    problem passes its arrays through.
    """
    boundary = A.boundary
    load = A.grid.mass * f_vals
    if A.bc == "neumann":  # no boundary rows; the empty boundary mask is an absent role
        eq_mask = boundary if pinned is None else pinned
        free_mask = boundary if free is None else free
        return load, target_vals, eq_mask, free_mask
    load[boundary] = 0.0
    target = np.where(boundary, 0.0, target_vals)
    eq_mask = boundary if pinned is None else boundary | pinned
    free_mask = np.zeros_like(boundary) if free is None else free & ~boundary
    return load, target, eq_mask, free_mask


def _coarse_problem(matrix: TridiagonalSpd, mass, load, target, eq_mask, free_mask):
    """Galerkin problem on every other node, or None where coarsening stops.

    P interpolates linearly from the even nodes, so P^T A P is again
    tridiagonal.  Coarsening stops at an even node count, at fewer than
    ``NESTED_MIN_NODES`` coarse nodes, and where the coarse matrix would
    couple two non-equality nodes positively: the pinned systems of the
    loop then stay M-matrices.  Couplings to equality nodes only move
    pinned values to the right side, so their sign does not matter.
    """
    n = matrix.n
    if n % 2 == 0 or (n + 1) // 2 < NESTED_MIN_NODES:
        return None
    d_odd = matrix.diag[1::2]
    e_left, e_right = matrix.upper[0::2], matrix.upper[1::2]
    diag = matrix.diag[0::2].copy()
    diag[:-1] += 0.25 * d_odd + e_left
    diag[1:] += 0.25 * d_odd + e_right
    upper = 0.25 * d_odd + 0.5 * (e_left + e_right)
    eq_c = eq_mask[0::2]
    if np.any((upper > 0) & ~eq_c[:-1] & ~eq_c[1:]):
        return None

    def restrict(x):
        out = x[0::2].copy()
        out[:-1] += 0.5 * x[1::2]
        out[1:] += 0.5 * x[1::2]
        return out

    return (TridiagonalSpd(diag, upper), restrict(mass), restrict(load),
            target[0::2], eq_c, free_mask[0::2])


def _update_rule(u, lam, target, obstacle_mask):
    """The next active set of the loop: obstacle nodes with lam + (u - target) > 0.

    Pinned rows have u == target and solved rows lam == 0, so any positive
    weight on u - target would select the same set.
    """
    return obstacle_mask & (lam + (u - target) > 0)


def _solve_pinned(matrix: TridiagonalSpd, mass, load, target, pinned):
    """Values with the pinned nodes at the target and the equation elsewhere,
    and the multiplier densities (zero on solved rows).

    Builds and factors the matrix with identity rows on the pinned set
    (``_identity_rows``) and solves it with +0.0 on the pinned rows of the
    right side, then puts the targets there.
    """
    u = np.where(pinned, target, 0.0)
    system = matrix._identity_rows(pinned)
    if system is not None:
        rhs = load - matrix.matvec(u)
        np.copyto(rhs, 0.0, where=pinned)
        u = system.solve(rhs)
        np.copyto(u, target, where=pinned)
    lam = (load - matrix.matvec(u)) / mass
    np.copyto(lam, 0.0, where=~pinned)
    return u, lam


def _solve_linearised(A: EllipticOperator, pinned: np.ndarray, B: TridiagonalSpd,
                      w: np.ndarray, r: np.ndarray):
    """(I - J)^-1 r for J = S_C Phi'(u), with the bounds on rho(J), or None.

    S_C solves K on the nodes off the pinned set C with the values on C
    given (zero on Dirichlet boundary rows), and the map's linearisation
    ``(B, w)`` at u is Phi'(u)h = B^-1 (w h).  With y = Phi'(u)x and
    z = S_C y, so that x = z + r, the rows are z = y on C, z = 0 on
    Dirichlet boundary rows, (Kz) = 0 elsewhere, and B y - w z = w r.
    Interleaving z and y gives a band of two sub- and two
    super-diagonals on 2n unknowns; one LAPACK ``dgbsv`` solves it for r
    and for the all-ones vector.  J >= 0 for every map here, so when
    e = (I - J)^-1 1 > 0 at every node, I - J is a nonsingular M-matrix,
    (I - J)^-1 >= 0, and the Collatz-Wielandt bounds give
    1 - 1/min e <= rho(J) <= 1 - 1/max e (Collatz, Math. Z. 48, 1942).
    Returns ``(x, (lo, hi))``.  Returns None where J = 0 (no node of C
    off the boundary, or w = 0), whose step is the caller's plain one,
    and unless LAPACK reports success and e > 0 at every node.

    A Dirichlet boundary node holds 0 in every state, so r is 0 there and
    so is x.  J has zero rows there; w is taken as 0 there as well, which
    drops J's boundary columns, keeps rho(J) and leaves the bounds those of
    J on the other nodes, read from e off the boundary.
    """
    K, n = A.matrix, A.grid.n_nodes
    inside = ~A.boundary
    if A.bc == "dirichlet":
        w = np.where(inside, w, 0.0)
    on_c = pinned & inside
    if not on_c.any() or not w.any():
        return None
    free = ~pinned & inside
    # column j of ab holds row i of the matrix at ab[4 + i - j, j]; rows
    # 0 and 1 are LAPACK's room for the fill-in of the pivoting
    ab = np.zeros((7, 2 * n), order="F")
    ab[4, 0::2] = np.where(free, K.diag, 1.0)          # z-rows: z_i
    ab[3, 1::2] = np.where(on_c, -1.0, 0.0)            #   y_i on C
    ab[2, 2::2] = np.where(free[:-1], K.upper, 0.0)    #   z_{i+1}
    ab[6, 0:-2:2] = np.where(free[1:], K.upper, 0.0)   #   z_{i-1}
    ab[4, 1::2] = B.diag                               # y-rows: y_i
    ab[5, 0::2] = -w                                   #   z_i
    ab[2, 3::2] = B.upper                              #   y_{i+1}
    ab[6, 1:-2:2] = B.upper                            #   y_{i-1}
    rhs = np.zeros((2 * n, 2), order="F")
    rhs[1::2, 0] = w * r
    rhs[1::2, 1] = w
    _, _, x, info = dgbsv(2, 2, ab, rhs, overwrite_ab=1, overwrite_b=1)
    e = x[0::2, 1] + 1.0
    if info or not np.all(e > 0):
        return None
    e = e[inside]
    return x[0::2, 0] + r, (1.0 - 1.0 / float(e.min()), 1.0 - 1.0 / float(e.max()))


def _pdas(matrix: TridiagonalSpd, mass, load, target, eq_mask, free_mask, active0=None):
    """Active set loop over nodes split into equality / obstacle / free roles.

    Equality nodes are pinned to the target, free nodes carry the plain
    equation, obstacle nodes carry the target as an upper bound with the
    usual complementarity update rule.  Round 1 pins ``active0`` (none
    when it is None); round 2 starts from the coarse solve seeded with
    round 1's selection (see the module docstring).  Returns nodal values,
    multiplier densities (zero on solved rows), the set the last round's
    update rule selected and the rounds of every level.
    """
    n = load.shape[0]
    obstacle_mask = ~(eq_mask | free_mask)
    active = np.zeros(n, dtype=bool) if active0 is None else \
        np.asarray(active0, dtype=bool) & obstacle_mask
    coarse_iters = 0
    changed = 0
    sizes: list[int] = []
    for it in range(1, PDAS_MAX_ITER + 1):
        u, lam = _solve_pinned(matrix, mass, load, target, eq_mask | active)
        new_active = _update_rule(u, lam, target, obstacle_mask)
        if np.array_equal(new_active, active):
            return u, lam, new_active, coarse_iters + it
        # from round 2 on, degenerate nodes (multiplier at roundoff scale)
        # can flip forever, so a vanishing KKT residual ends the loop too
        if it > 1 and complementarity_residual(u, target, lam, eq_mask, free_mask) <= VI_TOL:
            return u, lam, new_active, coarse_iters + it
        changed = int(np.count_nonzero(new_active != active))
        active = new_active
        coarse = _coarse_problem(matrix, mass, load, target, eq_mask, free_mask) \
            if it == 1 else None
        if coarse is not None:
            _, _, settled, coarse_iters = _pdas(*coarse, active[0::2])
            active = np.empty(n, dtype=bool)
            active[0::2] = settled
            active[1::2] = settled[:-1] & settled[1:]
            active &= obstacle_mask
        sizes.append(int(np.count_nonzero(active)))
    # a monotone tail is a moving front, a repeating one a cycling set
    tail = sizes[-5:]
    raise ViSolveError(
        f"active set did not settle within {PDAS_MAX_ITER} iterations "
        f"(last change touched {changed} nodes; active-set sizes of the last "
        f"{len(tail)} rounds, out of {n} nodes: {', '.join(map(str, tail))})")


def solve_vi(A: EllipticOperator, f: DualElement, phi: NodalFunction, *,
             active0: np.ndarray | None = None) -> ViSolution:
    """Solve the upper-obstacle problem for the given load and obstacle.

    Returns the unique nodal solution of the complementarity system
    together with the multiplier density f - Au and the set the last
    round selected.  ``active0`` is the set round 1 pins, mostly the
    ``active`` of the solve before, a warm start that changes the rounds
    spent.  Round 1 ends only on a settled set, whatever the start, so
    two starts give the same bits wherever their loops end on the same
    set; only a loop that ends on the residual test from round 2 on, on
    a degenerate set, can move by roundoff inside ``VI_TOL`` (see the
    module docstring).  Raises ``ViSolveError`` on an obstacle below zero
    at a Dirichlet boundary node (an empty constraint set) and on a loop
    that does not settle within ``PDAS_MAX_ITER`` rounds, and
    ``NonFiniteError`` on a non-finite point.  Any other point ``_pdas``
    returns ends on a settled set, whose complementarity residual is
    exactly 0, or on the residual test, at most ``VI_TOL``, so it is
    returned without a second check, as the derivative's cone solves are.
    """
    grid = A.grid
    if f.grid != grid or phi.grid != grid:
        raise GridMismatchError("load/obstacle grid does not match operator grid")

    if A.bc == "dirichlet" and np.any(phi.values[A.boundary] < -VI_TOL):
        raise ViSolveError("obstacle below zero at a Dirichlet boundary node: empty constraint set")

    load, target, eq_mask, free_mask = _pose(A, f.values, phi.values)
    u_vals, lam_vals, active, iters = _pdas(A.matrix, grid.mass, load, target, eq_mask,
                                            free_mask, active0=active0)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("obstacle solve: %d rounds, %d nodes pinned", iters, np.count_nonzero(active))
    return ViSolution(u=NodalFunction(grid, u_vals), lam=DualElement(grid, lam_vals),
                      iterations=iters, active=active)


def _exact(values: np.ndarray) -> np.ndarray:
    """The doubles of an array as exact fractions, in an object array."""
    return np.array([Fraction(v) for v in values.tolist()], dtype=object)


def _exact_solve(system: TridiagonalSpd, rhs: np.ndarray) -> np.ndarray:
    """The system's solution for a right side of fractions: a Thomas sweep, exact."""
    diag, upper, x = _exact(system.diag).tolist(), _exact(system.upper).tolist(), rhs.tolist()
    for i, e in enumerate(upper, 1):
        m = e / diag[i - 1]
        diag[i] -= m * e
        x[i] -= m * x[i - 1]
    x[-1] /= diag[-1]
    for i in range(len(upper) - 1, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1]) / diag[i]
    return np.array(x, dtype=object)


def _oracle(matrix: TridiagonalSpd, mass, load, target, eq_mask, free_mask):
    """Exact solve of the problem ``_pose`` poses: Chandrasekaran's pivoting
    in rational arithmetic, with the arguments and returns of ``_pdas``.

    The problem is a linear complementarity problem with an M-matrix.
    Round 1 pins every node but the free ones; each round solves the
    identity-row system (``TridiagonalSpd._identity_rows``) exactly and
    frees the pinned obstacle nodes whose multiplier load - Ku is
    negative.  Equality nodes stay pinned and free nodes never pin.  The
    iterate only falls, so a freed node is never pinned again: at most
    n + 1 rounds (Opsearch 7, 1970; Cottle, Pang and Stone, *The Linear
    Complementarity Problem*, 1992, section 4.7).  Returns the exact
    values and multiplier densities (zero on solved rows) correctly
    rounded, the final pinned obstacle set and the rounds.
    """
    obstacle_mask = ~(eq_mask | free_mask)
    b, d, e, t = _exact(load), _exact(matrix.diag), _exact(matrix.upper), _exact(target)

    def residual(x):  # load - Kx
        return b - d * x - np.r_[e * x[1:], 0] - np.r_[0, e * x[:-1]]

    pinned, rounds = ~free_mask, 0
    while True:
        system = matrix._identity_rows(pinned)
        # identity rows keep t; freed rows solve to r == 0
        u = t if system is None else \
            _exact_solve(system, np.where(pinned, t, residual(np.where(pinned, t, Fraction(0)))))
        r, rounds = residual(u), rounds + 1
        release = obstacle_mask & pinned & (r < 0).astype(bool)
        if not release.any():
            break
        pinned &= ~release
    lam = np.where(pinned, r / _exact(mass), 0)
    return u.astype(float), lam.astype(float), obstacle_mask & pinned, rounds


def oracle_vi(A: EllipticOperator, f: DualElement, phi: NodalFunction) -> ViSolution:
    """Exact reference for ``solve_vi``: ``_oracle`` on the obstacle problem.

    ``iterations`` counts the pivoting rounds.  On
    ``inverse_elliptic_max``'s final obstacle (2-core host): 8 rounds in
    0.04 s at n = 61, 42 in 2.5 s at 401, 83 in 17 s at 801.
    """
    grid = A.grid
    if f.grid != grid or phi.grid != grid:
        raise GridMismatchError("load/obstacle grid does not match operator grid")
    u, lam, active, rounds = _oracle(A.matrix, grid.mass, *_pose(A, f.values, phi.values))
    return ViSolution(u=NodalFunction(grid, u), lam=DualElement(grid, lam),
                      iterations=rounds, active=active)


def check_comparison(A: EllipticOperator, f1: DualElement, f2: DualElement,
                     phi1: NodalFunction, phi2: NodalFunction) -> bool:
    """Solve both problems and test the comparison ordering of the solutions.

    Requires the ordered data f1 <= f2 and phi1 <= phi2; the result should
    always be True for the assembled M-matrix operators.
    """
    if np.any(f1.values > f2.values):
        raise ValueError("precondition violated: f1 <= f2 required")
    if np.any(phi1.values > phi2.values):
        raise ValueError("precondition violated: phi1 <= phi2 required")
    u1 = solve_vi(A, f1, phi1).u
    u2 = solve_vi(A, f2, phi2).u
    return bool(np.all(u1.values <= u2.values + VI_TOL))
