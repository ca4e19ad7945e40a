"""Obstacle-constrained solves for the assembled elliptic operator.

``solve_vi`` finds u <= phi with a nonnegative complementary multiplier
via a primal-dual active set loop.  On M-matrices the loop terminates in
finitely many set changes and the returned active set is exact, which is
what the sensitivity machinery relies on.  ``oracle_vi`` re-derives the
same solution by brute force over all active sets on small grids and is
the independent cross-check for the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    DualElement,
    EllipticOperator,
    GridMismatchError,
    NodalFunction,
    TridiagonalSpd,
)


class ViSolveError(RuntimeError):
    """The active set loop failed to deliver a valid complementarity point."""


# KKT residual below which a solve is accepted; also the slack of check_comparison
VI_TOL = 1e-10
# safety net: on M-matrices PDAS settles after finitely many set changes
PDAS_MAX_ITER = 200
# the enumeration oracle visits 2^n active sets
ORACLE_MAX_NODES = 14


@dataclass(frozen=True)
class ActiveSetPartition:
    """Per-node split of the coincidence set by multiplier support.

    ``strict`` nodes touch the obstacle with a positive multiplier,
    ``biactive`` nodes touch it with a vanishing multiplier, ``inactive``
    nodes are strictly below.  The union of strict and biactive is the
    discrete coincidence set.
    """

    inactive: np.ndarray
    strict: np.ndarray
    biactive: np.ndarray

    def __post_init__(self):
        for name in ("inactive", "strict", "biactive"):
            arr = np.asarray(getattr(self, name), dtype=int)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n_total = self.inactive.size + self.strict.size + self.biactive.size
        merged = np.concatenate([self.inactive, self.strict, self.biactive])
        if np.unique(merged).size != n_total:
            raise ValueError("partition sets overlap")

    @property
    def coincidence(self) -> np.ndarray:
        return np.sort(np.concatenate([self.strict, self.biactive]))

    def labels(self, n_nodes: int) -> list[str]:
        out = ["I"] * n_nodes
        for i in self.strict:
            out[i] = "S"
        for i in self.biactive:
            out[i] = "B"
        return out


@dataclass(frozen=True)
class ViSolution:
    """Solution, multiplier and diagnostics of one obstacle solve."""

    u: NodalFunction
    lam: DualElement
    partition: ActiveSetPartition
    iterations: int
    residual: float


def _partition_from(u_vals, phi: NodalFunction, lam_vals, f: DualElement) -> ActiveSetPartition:
    coincidence = (phi.values - u_vals) <= default_tol_active(phi)
    strict = coincidence & (lam_vals > default_tol_multiplier(f))
    biactive = coincidence & ~strict
    return ActiveSetPartition(
        inactive=np.flatnonzero(~coincidence),
        strict=np.flatnonzero(strict),
        biactive=np.flatnonzero(biactive),
    )


def default_tol_active(phi: NodalFunction) -> float:
    return 1e-8 * (1.0 + float(np.max(np.abs(phi.values))))


def default_tol_multiplier(f: DualElement) -> float:
    return 1e-8 * (1.0 + float(np.max(np.abs(f.values))))


def multiplier(A: EllipticOperator, f: DualElement, u: NodalFunction) -> np.ndarray:
    """Nodal multiplier density f - Au, zero on the Dirichlet boundary nodes."""
    lam = (f - A.apply(u)).values.copy()
    lam[A.boundary_nodes] = 0.0
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
    viol[free_mask] = np.abs(lam[free_mask])
    viol[eq_mask] = np.abs(gap[eq_mask])
    return float(viol.max())


def classify_active(A: EllipticOperator, f: DualElement, u: NodalFunction,
                    phi: NodalFunction) -> ActiveSetPartition:
    """Classify nodes of a feasible point into inactive/strict/biactive."""
    return _partition_from(u.values, phi, multiplier(A, f, u), f)


def _pdas(matrix: TridiagonalSpd, mass, load, target, eq_mask, free_mask, active0=None):
    """Active set loop over nodes split into equality / obstacle / free roles.

    Equality nodes are pinned to the target, free nodes carry the plain
    equation, obstacle nodes carry the target as an upper bound with the
    usual complementarity update rule.  Returns nodal values, multiplier
    densities (zero on solved rows) and the iteration count.
    """
    n = load.shape[0]
    obstacle_mask = ~(eq_mask | free_mask)
    if active0 is None:
        active = np.zeros(n, dtype=bool)
    else:
        active = np.asarray(active0, dtype=bool) & obstacle_mask

    u = np.zeros(n)
    lam = np.zeros(n)
    changed = 0
    for it in range(1, PDAS_MAX_ITER + 1):
        pinned = eq_mask | active
        u = np.where(pinned, target, 0.0)
        solve_idx = np.flatnonzero(~pinned)
        if solve_idx.size:
            coupling = matrix.matvec(u)
            sub = matrix.submatrix(solve_idx)
            u[solve_idx] = sub.solve(load[solve_idx] - coupling[solve_idx])
        lam = (load - matrix.matvec(u)) / mass
        lam[~pinned] = 0.0
        # pinned rows have u == target and solved rows lam == 0, so any
        # positive weight on u - target would select the same set
        new_active = obstacle_mask & (lam + (u - target) > 0)
        if np.array_equal(new_active, active):
            return u, lam, it
        # degenerate nodes (multiplier at roundoff scale) can flip forever;
        # a vanishing KKT residual is just as final as a settled set
        if complementarity_residual(u, target, lam, eq_mask, free_mask) <= VI_TOL:
            return u, lam, it
        changed = int(np.sum(new_active != active))
        active = new_active
    raise ViSolveError(
        f"active set did not settle within {PDAS_MAX_ITER} iterations "
        f"(last change touched {changed} nodes)")


def solve_vi(A: EllipticOperator, f: DualElement, phi: NodalFunction, *,
             active0: np.ndarray | None = None) -> ViSolution:
    """Solve the upper-obstacle problem for the given load and obstacle.

    Returns the unique nodal solution of the complementarity system
    together with the multiplier density f - Au and the active set
    partition.  A non-converged loop or an invalid terminal point raises,
    never returns silently.
    """
    grid = A.grid
    if f.grid != grid or phi.grid != grid:
        raise GridMismatchError("load/obstacle grid does not match operator grid")

    eq_mask = np.zeros(grid.n_nodes, dtype=bool)
    if A.bc == "dirichlet":
        eq_mask[[0, -1]] = True
        if np.any(phi.values[[0, -1]] < -VI_TOL):
            raise ViSolveError("obstacle below zero at a Dirichlet boundary node: empty constraint set")
    free_mask = np.zeros(grid.n_nodes, dtype=bool)
    load = grid.mass * f.values
    load[eq_mask] = 0.0

    target = np.where(eq_mask, 0.0, phi.values)
    u_vals, lam_vals, iters = _pdas(A.matrix, grid.mass, load, target, eq_mask,
                                    free_mask, active0=active0)
    lam_vals[eq_mask] = 0.0
    residual = complementarity_residual(u_vals, target, lam_vals, eq_mask, free_mask)
    if residual > VI_TOL:
        raise ViSolveError(f"terminal complementarity residual {residual:.3e} exceeds {VI_TOL:.1e}")

    partition = _partition_from(u_vals, phi, lam_vals, f)
    return ViSolution(u=NodalFunction(grid, u_vals),
                      lam=DualElement(grid, lam_vals),
                      partition=partition, iterations=iters, residual=residual)


def oracle_vi(A: EllipticOperator, f: DualElement, phi: NodalFunction) -> ViSolution:
    """Brute-force reference solve: enumerate every active set.

    For each candidate set the equality system (u = phi on the set, the
    plain equation off it) is solved densely; the unique candidate that is
    feasible with a nonnegative multiplier is returned.  Complexity is
    2^n, so the grid is capped at ``ORACLE_MAX_NODES`` nodes.
    """
    grid = A.grid
    n = grid.n_nodes
    if n > ORACLE_MAX_NODES:
        raise ValueError(f"oracle enumeration capped at {ORACLE_MAX_NODES} nodes, got {n}")
    if f.grid != grid or phi.grid != grid:
        raise GridMismatchError("load/obstacle grid does not match operator grid")

    dense = A.matrix.to_dense()
    mass = grid.mass
    load = mass * f.values
    eligible = np.arange(n)
    if A.bc == "dirichlet":
        load[[0, -1]] = 0.0
        eligible = np.arange(1, n - 1)
    k = eligible.size
    tol = 1e-11 * (1.0 + float(np.max(np.abs(phi.values))) + float(np.max(np.abs(f.values))))

    codes = np.arange(2 ** k)
    masks = ((codes[:, None] >> np.arange(k)) & 1).astype(bool)  # (2^k, k)
    systems = np.broadcast_to(dense, (2 ** k, n, n)).copy()
    rhs = np.broadcast_to(load, (2 ** k, n)).copy()
    for pos, node in enumerate(eligible):
        sel = masks[:, pos]
        systems[sel, node, :] = 0.0
        systems[sel, node, node] = 1.0
        rhs[sel, node] = phi.values[node]

    candidates = np.linalg.solve(systems, rhs[..., None])[..., 0]
    lam_all = (load[None, :] - candidates @ dense.T) / mass[None, :]
    # zero out rows that were solved as equations (roundoff only)
    active_full = np.zeros((2 ** k, n), dtype=bool)
    active_full[:, eligible] = masks
    lam_all = np.where(active_full, lam_all, 0.0)

    feasible = np.all(candidates <= phi.values[None, :] + tol, axis=1)
    complementary = np.all(lam_all >= -tol / np.min(mass) * np.max(mass), axis=1)
    ok = np.flatnonzero(feasible & complementary & np.all(np.isfinite(candidates), axis=1))
    if ok.size == 0:
        raise ViSolveError("oracle found no feasible complementary active set")

    pick = int(ok[0])
    u_vals = candidates[pick]
    lam_vals = lam_all[pick]
    partition = _partition_from(u_vals, phi, lam_vals, f)
    eq_mask = np.isin(np.arange(n), A.boundary_nodes)
    residual = complementarity_residual(u_vals, np.where(eq_mask, 0.0, phi.values), lam_vals,
                                        eq_mask, np.zeros(n, dtype=bool))
    return ViSolution(u=NodalFunction(grid, u_vals), lam=DualElement(grid, lam_vals),
                      partition=partition, iterations=pick + 1, residual=residual)


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
