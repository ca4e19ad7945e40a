"""1D piecewise-linear finite elements with lumped mass on a uniform grid.

Functions are stored as nodal value vectors and loads as nodal densities
paired through the lumped mass weights, so order statements (u <= v,
f >= 0) reduce to plain nodal comparisons.  The assembled reaction-
diffusion matrix is a symmetric tridiagonal M-matrix for either boundary
condition; that structure is what makes the comparison principles used
by the solvers exact on the grid rather than asymptotic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

BoundaryCondition = Literal["neumann", "dirichlet"]

# entries of each grid memo: more than the five sizes of a grid ladder, as
# an LRU shorter than a cycle of sizes misses on every call
GRID_MEMO_SIZE = 8
# the one memo of the pure functions of a grid (and of c and bc) in fem,
# obstacle_maps and experiments: keyed by value, never on a forcing, a map
# or a config; each result is immutable, and a raise is not kept
_grid_memo = lru_cache(maxsize=GRID_MEMO_SIZE)


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class SingularOperatorError(ValueError):
    """The requested operator or pinned system has no unique solution."""


class NonFiniteError(ValueError):
    """A nodal array holds an infinite or NaN value."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``n_nodes`` nodes spanning a closed interval."""

    n_nodes: int
    span: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
        # + 0.0 turns -0.0 into 0.0: equal grids have equal nodes, so a
        # memo keyed on the grid hands each grid its own node text
        lo, hi = float(self.span[0]) + 0.0, float(self.span[1]) + 0.0
        # a finite width needs finite ends, and h = width / (n - 1) is then finite too
        if not np.isfinite(hi - lo) or hi <= lo:
            raise ValueError(f"invalid interval {self.span!r}: needs lo < hi and a finite "
                             f"width hi - lo")
        object.__setattr__(self, "span", (lo, hi))

    @property
    def h(self) -> float:
        lo, hi = self.span
        return (hi - lo) / (self.n_nodes - 1)

    @property
    def measure(self) -> float:
        lo, hi = self.span
        return hi - lo

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.span[0], self.span[1], self.n_nodes)
        x.flags.writeable = False
        return x

    @cached_property
    def mass(self) -> np.ndarray:
        """Lumped mass weights: h at interior nodes, h/2 at the ends."""
        m = np.full(self.n_nodes, self.h)
        m[0] *= 0.5
        m[-1] *= 0.5
        m.flags.writeable = False
        return m


class _GridVector:
    """Immutable vector of per-node reals tied to a grid."""

    __slots__ = ("_grid", "_values")

    def __init__(self, grid: Grid, values):
        v = np.array(values, dtype=float, copy=True).reshape(-1)
        if v.shape != (grid.n_nodes,):
            raise ValueError(f"expected {grid.n_nodes} values, got {v.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteError("non-finite nodal values")
        v.flags.writeable = False
        self._grid = grid
        self._values = v

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def values(self) -> np.ndarray:
        return self._values

    @classmethod
    def constant(cls, grid: Grid, value: float):
        return cls(grid, np.full(grid.n_nodes, float(value)))

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(grid.n_nodes))

    def _check_same(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.grid != self.grid:
            raise GridMismatchError("operands live on different grids")

    def __add__(self, other):
        self._check_same(other)
        return type(self)(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_same(other)
        return type(self)(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return type(self)(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(n={self.grid.n_nodes}, values={self.values!r})"


class NodalFunction(_GridVector):
    """Piecewise-linear function given by its nodal values."""


class DualElement(_GridVector):
    """Load given by nodal densities; pairs with functions through the lumped mass."""


class TridiagonalSpd:
    """Symmetric positive-definite tridiagonal matrix in banded storage.

    Immutable: the bands are read-only, and the LDL^T factor (LAPACK
    ``dpttrf``) is computed once, at construction, which refuses a matrix
    that is not positive definite.  ``pivots`` is the diagonal of D and
    ``multipliers`` the subdiagonal of L, both read-only.  Each solve is
    one ``dpttrs`` sweep: the ``ptsv`` arithmetic ``solveh_banded`` runs
    for a two-row band, so results keep their bits.
    """

    __slots__ = ("diag", "upper", "pivots", "multipliers")

    def __init__(self, diag, upper):
        d = np.array(diag, dtype=float, copy=True)
        u = np.array(upper, dtype=float, copy=True)
        if d.shape[0] < 2:  # banded LAPACK drivers reject 1x1 systems
            raise ValueError(f"need at least 2 rows, got {d.shape[0]}")
        if u.shape != (d.shape[0] - 1,):
            raise ValueError("upper band must have length n-1")
        pivots, multipliers, info = dpttrf(d, u)
        if info:
            raise SingularOperatorError(f"matrix is not positive definite (leading minor {info})")
        for band in (d, u, pivots, multipliers):
            band.flags.writeable = False
        self.diag = d
        self.upper = u
        self.pivots = pivots
        self.multipliers = multipliers

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.upper * x[:-1]
        return y

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = dpttrs(self.pivots, self.multipliers, rhs)
        return x

    def _identity_rows(self, pinned: np.ndarray) -> "TridiagonalSpd | None":
        """The matrix with the rows and columns of a boolean mask set to the
        identity: None when the mask pins every node, and the matrix itself,
        already factored, when it pins none.

        The zero couplings split the unpinned nodes into blocks, and the
        LAPACK sweeps subtract an exact +0.0 at each block edge, so with
        +0.0 on the pinned rows of the right side each block gets the bits
        of its own solve.
        """
        if pinned.all():
            return None
        if not pinned.any():
            return self
        return TridiagonalSpd(np.where(pinned, 1.0, self.diag),
                              np.where(pinned[:-1] | pinned[1:], 0.0, self.upper))

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.upper, 1)
        a += np.diag(self.upper, -1)
        return a


def _pencil_extremes(grid: Grid, bc: str) -> tuple[float, float]:
    """Extreme eigenvalues of the stiffness/lumped-mass pencil (closed form)."""
    n, h = grid.n_nodes, grid.h
    if bc == "neumann":
        return 0.0, 4.0 / h**2
    m = n - 2  # interior nodes
    lo = (4.0 / h**2) * np.sin(np.pi / (2 * (m + 1))) ** 2
    hi = (4.0 / h**2) * np.sin(m * np.pi / (2 * (m + 1))) ** 2
    return lo, hi


@dataclass(frozen=True, eq=False)
class EllipticOperator:
    """Assembled form of ``-laplace + c*identity`` with one of two boundary conditions.

    ``c_a`` and ``c_b`` are the exact coercivity and boundedness constants
    of the discrete bilinear form with respect to the discrete H1 norm,
    obtained from the extreme eigenvalues of the stiffness/mass pencil.
    """

    grid: Grid
    c: float
    bc: str
    matrix: TridiagonalSpd
    c_a: float
    c_b: float

    def apply(self, u: NodalFunction) -> DualElement:
        """Image of ``u`` under the operator, as a nodal density."""
        if u.grid != self.grid:
            raise GridMismatchError("function grid does not match operator grid")
        return DualElement(self.grid, self.matrix.matvec(u.values) / self.grid.mass)

    def solve(self, f: DualElement) -> NodalFunction:
        """Solve ``A u = f``; for Dirichlet the boundary values are forced to zero."""
        if f.grid != self.grid:
            raise GridMismatchError("load grid does not match operator grid")
        rhs = self.grid.mass * f.values
        rhs[self.boundary] = 0.0
        return NodalFunction(self.grid, self.matrix.solve(rhs))

    @cached_property
    def boundary(self) -> np.ndarray:
        """Read-only mask of the Dirichlet boundary nodes (all False for Neumann)."""
        mask = np.zeros(self.grid.n_nodes, dtype=bool)
        if self.bc == "dirichlet":
            mask[[0, -1]] = True
        mask.flags.writeable = False
        return mask


def assemble_operator(grid: Grid, c: float, bc: BoundaryCondition) -> EllipticOperator:
    """Assemble the tridiagonal M-matrix for ``-laplace + c*identity``.

    Neumann requires c > 0 (otherwise constants are in the kernel);
    Dirichlet eliminates the two boundary rows/columns and needs at least
    one interior node.  The mesh width's square must be a normal float.
    The inputs are checked on every call; the
    operator, factored, comes from ``_grid_memo`` keyed on
    ``(grid, float(c), bc)``, so equal inputs share one operator.
    """
    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    c = float(c) + 0.0  # -0.0 as 0.0, so the kept operator's c does not depend on call order
    if not np.isfinite(c):
        raise ValueError(f"reaction coefficient must be finite, got {c}")
    if c < 0:
        raise ValueError("reaction coefficient must be >= 0")
    if bc == "neumann" and c == 0.0:
        raise SingularOperatorError("Neumann with c = 0 is singular (constants in the kernel)")
    if bc == "dirichlet" and grid.n_nodes < 3:
        raise SingularOperatorError("Dirichlet needs at least one interior node")
    # the pencil's extremes scale as 4 / h^2, which a subnormal or overflowing h^2 breaks
    if not np.finfo(float).tiny <= grid.h * grid.h < np.inf:
        raise ValueError(f"mesh width h = {grid.h!r} has a square outside the normal "
                         f"float range")
    return _assemble(grid, c, bc)


@_grid_memo
def _assemble(grid: Grid, c: float, bc: str) -> EllipticOperator:
    h = grid.h
    diag = np.full(grid.n_nodes, 2.0 / h)
    diag[0] = diag[-1] = 1.0 / h
    diag += c * grid.mass
    upper = np.full(grid.n_nodes - 1, -1.0 / h)
    if bc == "dirichlet":
        diag[0] = diag[-1] = 1.0
        upper[0] = upper[-1] = 0.0

    rho_lo, rho_hi = _pencil_extremes(grid, bc)
    lam = lambda rho: (rho + c) / (rho + 1.0)
    c_a = min(lam(rho_lo), lam(rho_hi))
    c_b = max(lam(rho_lo), lam(rho_hi))
    return EllipticOperator(grid=grid, c=c, bc=bc, matrix=TridiagonalSpd(diag, upper),
                            c_a=c_a, c_b=c_b)


def leq(u: NodalFunction, v: NodalFunction, tol: float = 0.0) -> bool:
    """True iff ``u <= v + tol`` at every node."""
    if u.grid != v.grid:
        raise GridMismatchError("cannot compare functions on different grids")
    return bool(np.all(u.values <= v.values + tol))


def _v_norm_values(grid: Grid, values: np.ndarray) -> float:
    """``v_norm`` of a nodal array on the grid, without wrapping it."""
    d = values[1:] - values[:-1]  # np.diff's arithmetic, without its checks
    return float(np.sqrt(np.dot(grid.mass, values**2) + np.dot(d, d) / grid.h))


def v_norm(u: NodalFunction) -> float:
    """Discrete H1 norm: the lumped L2 part ``sum(mass * u**2)`` plus the
    Dirichlet energy ``sum(diff(u)**2) / h``, under one square root."""
    return _v_norm_values(u.grid, u.values)


def dual_norm(f: DualElement) -> float:
    """Dual norm via the H1 Riesz representative (Neumann operator, c = 1)."""
    z = assemble_operator(f.grid, 1.0, "neumann").matrix.solve(f.grid.mass * f.values)
    return float(np.sqrt(np.dot(f.grid.mass * f.values, z)))


def sup_embedding_constant(grid: Grid) -> float:
    """Largest ratio of sup norm to H1 norm over grid functions.

    Equals the square root of the largest diagonal entry of the inverse
    H1 matrix.  That diagonal comes in O(n) time and memory from the
    pivots p of the H1 matrix's LDL^T factor and q of its reverse's, read
    back in node order (Meurant, SIAM J. Matrix Anal. Appl. 13, 1992):
    ``1 / (p_i + q_i - a_i)``.  Computed once per grid (``_grid_memo``).
    """
    return _sup_embedding(grid)


@_grid_memo
def _sup_embedding(grid: Grid) -> float:
    h1 = assemble_operator(grid, 1.0, "neumann").matrix
    backward = TridiagonalSpd(h1.diag[::-1], h1.upper[::-1]).pivots[::-1]
    inv_diag = 1.0 / (h1.pivots + backward - h1.diag)
    return float(np.sqrt(np.max(inv_diag)))
