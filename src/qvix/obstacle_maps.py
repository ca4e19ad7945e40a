"""Obstacle maps: the state-dependent upper bounds of the quasi-variational solves.

Three families are provided.  ``PlateauMap`` applies a smooth increasing
scalar curve with flat plateaus nodewise.  ``InverseEllipticMap`` sends u
to the solution of a second elliptic problem loaded with a monotone
pointwise gain of u.  ``ThermoformingMap`` couples a mould shape to a
semilinear temperature equation driven by the mould/membrane gap; the
mould grows linearly with temperature.  All three are increasing and
differentiable, with derivative actions implemented directly (solving the
linearised equations where needed) so they can be validated against
finite differences.

Each map evaluates a (k, n) block of states at once (``_evaluate_rows``);
``evaluate`` is that block evaluation on one row.  ``lipschitz_estimate``
feeds it blocks of sampled points, so the reported ``c_phi_estimate`` costs
one batched evaluation per block and is bit-identical to evaluating the
pairs one by one.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .fem import (
    DualElement,
    EllipticOperator,
    Grid,
    GridMismatchError,
    NodalFunction,
    TridiagonalSpd,
    assemble_operator,
    dual_norm,
    sup_embedding_constant,
    v_norm,
)


class InnerSolveError(RuntimeError):
    """The auxiliary equation inside a map evaluation failed to converge."""


# slack on the sampled order checks of check_increasing
INCREASING_TOL = 1e-9


def smoothstep(r):
    """Quintic smoothstep clamped to [0, 1]; C2 with flat ends."""
    r = np.clip(r, 0.0, 1.0)
    return r * r * r * (10.0 + r * (6.0 * r - 15.0))


def smoothstep_deriv(r):
    """Derivative of the clamped quintic smoothstep (vanishes outside [0, 1])."""
    r = np.asarray(r, dtype=float)
    inside = (r > 0.0) & (r < 1.0)
    rc = np.clip(r, 0.0, 1.0)
    return np.where(inside, 30.0 * rc * rc * (1.0 - rc) * (1.0 - rc), 0.0)


# max slope of the smoothstep, attained at the midpoint
_SMOOTHSTEP_MAX_SLOPE = 15.0 / 8.0


def _ramp(xi, width):
    """Smooth slope-1 ramp: zero value/slope/curvature at 0, slope 1 past ``width``.

    Antiderivative of smoothstep(xi/width); equals xi - width/2 once the
    smoothstep saturates.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.clip(xi / width, 0.0, 1.0)
    inner = width * r**4 * (2.5 + r * (r - 3.0))
    return np.where(xi > width, xi - 0.5 * width, inner)


def _ramp_slope(xi, width):
    return smoothstep(np.asarray(xi, dtype=float) / width)


class ObstacleMap(abc.ABC):
    """Increasing map from membrane states to obstacle functions."""

    kind: str

    @property
    @abc.abstractmethod
    def grid(self) -> Grid:
        ...

    @abc.abstractmethod
    def evaluate(self, u: NodalFunction) -> NodalFunction:
        """Obstacle induced by the state u."""

    @abc.abstractmethod
    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        """Obstacles of a (k, n) block of nodal states, each row bitwise as ``evaluate``."""

    @abc.abstractmethod
    def derivative_action(self, u: NodalFunction, h: NodalFunction) -> NodalFunction:
        """Directional derivative of the map at u applied to h."""

    def _check_grid(self, u: NodalFunction):
        if u.grid != self.grid:
            raise GridMismatchError("state grid does not match map grid")


class PlateauMap(ObstacleMap):
    """Nodewise application of a smooth increasing curve with flat plateaus.

    The curve equals ``levels[j]`` on a window of the given half-width
    around each level, climbs between consecutive plateaus with a
    smoothstep, and continues with smoothly attached unit-slope tails
    below the first and above the last plateau.  The construction keeps
    the curve C2, increasing, and nonnegative at zero.
    """

    kind = "plateau"

    def __init__(self, grid: Grid, levels, half_width: float):
        levels = np.array(levels, dtype=float).reshape(-1)
        if levels.size < 1:
            raise ValueError("need at least one plateau level")
        if np.any(levels <= 0):
            raise ValueError("plateau levels must be positive")
        half_width = float(half_width)
        if half_width <= 0:
            raise ValueError("plateau half-width must be positive")
        if np.any(np.diff(levels) <= 2 * half_width):
            raise ValueError("consecutive levels must be more than two half-widths apart")
        levels.flags.writeable = False
        self._grid = grid
        self.levels = levels
        self.half_width = half_width

    @property
    def grid(self) -> Grid:
        return self._grid

    def scalar(self, t):
        """Curve value at scalar or vector argument."""
        t = np.asarray(t, dtype=float)
        y, eps = self.levels, self.half_width
        out = np.empty_like(t)

        below = t < y[0] - eps
        out[below] = y[0] - _ramp(y[0] - eps - t[below], eps)
        above = t > y[-1] + eps
        out[above] = y[-1] + _ramp(t[above] - y[-1] - eps, eps)
        for j, level in enumerate(y):
            on = (t >= level - eps) & (t <= level + eps)
            out[on] = level
        for j in range(len(y) - 1):
            lo, hi = y[j] + eps, y[j + 1] - eps
            mid = (t > lo) & (t < hi)
            r = (t[mid] - lo) / (hi - lo)
            out[mid] = y[j] + (y[j + 1] - y[j]) * smoothstep(r)
        return out

    def scalar_slope(self, t):
        t = np.asarray(t, dtype=float)
        y, eps = self.levels, self.half_width
        out = np.zeros_like(t)

        below = t < y[0] - eps
        out[below] = _ramp_slope(y[0] - eps - t[below], eps)
        above = t > y[-1] + eps
        out[above] = _ramp_slope(t[above] - y[-1] - eps, eps)
        for j in range(len(y) - 1):
            lo, hi = y[j] + eps, y[j + 1] - eps
            mid = (t > lo) & (t < hi)
            r = (t[mid] - lo) / (hi - lo)
            out[mid] = (y[j + 1] - y[j]) / (hi - lo) * smoothstep_deriv(r)
        return out

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.scalar(rows)

    def evaluate(self, u: NodalFunction) -> NodalFunction:
        self._check_grid(u)
        return NodalFunction(self.grid, self._evaluate_rows(u.values[None])[0])

    def derivative_action(self, u: NodalFunction, h: NodalFunction) -> NodalFunction:
        self._check_grid(u)
        self._check_grid(h)
        return NodalFunction(self.grid, self.scalar_slope(u.values) * h.values)


@dataclass(frozen=True)
class ScalarNonlinearity:
    """Increasing C1 scalar gain with value 0 at 0 and bounded slope."""

    kind: str  # "zero" | "linear" | "tanh"
    scale: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "tanh"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("scale must be >= 0 to keep the gain increasing")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "linear":
            return self.scale * r
        return self.scale * np.tanh(self.rate * r)

    def slope(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "linear":
            return np.full_like(r, self.scale)
        t = np.tanh(self.rate * r)
        return self.scale * self.rate * (1.0 - t * t)

    @property
    def max_slope(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear":
            return self.scale
        return self.scale * self.rate


class InverseEllipticMap(ObstacleMap):
    """Obstacle as the solution of a second elliptic problem loaded by a gain of u."""

    kind = "inverse_elliptic"

    def __init__(self, inner: EllipticOperator, gain: ScalarNonlinearity):
        self._inner = inner
        self.gain = gain

    @property
    def grid(self) -> Grid:
        return self._inner.grid

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        # the arithmetic of EllipticOperator.solve, one column per row
        rhs = self.grid.mass * self.gain.value(rows)
        rhs[:, self._inner.boundary_nodes] = 0.0
        return self._inner.matrix.solve(rhs.T).T

    def evaluate(self, u: NodalFunction) -> NodalFunction:
        self._check_grid(u)
        return NodalFunction(self.grid, self._evaluate_rows(u.values[None])[0])

    def derivative_action(self, u: NodalFunction, h: NodalFunction) -> NodalFunction:
        self._check_grid(u)
        self._check_grid(h)
        load = DualElement(self.grid, self.gain.slope(u.values) * h.values)
        return self._inner.solve(load)


class ThermoformingMap(ObstacleMap):
    """Mould that grows with the temperature induced by the mould/membrane gap.

    The temperature solves a semilinear Neumann problem whose right side
    is a decreasing C2 heat-transfer rate of the gap: maximal at contact,
    zero once the gap exceeds one.  The mould is the reference shape plus
    a scalar expansion multiple of the temperature.
    """

    kind = "thermoforming"

    def __init__(self, mould: NodalFunction, reaction: float, heat_max: float,
                 expansion: float):
        if reaction <= 0:
            raise ValueError("reaction coefficient must be positive")
        if heat_max <= 0:
            raise ValueError("maximal heat transfer must be positive")
        if expansion <= 0:
            raise ValueError("expansion factor must be positive")
        if np.any(mould.values <= 0):
            raise ValueError("mould shape must be positive")
        self.mould = mould
        self.reaction = float(reaction)
        self.heat_max = float(heat_max)
        self.expansion = float(expansion)
        self._op = assemble_operator(mould.grid, self.reaction, "neumann")

    @property
    def grid(self) -> Grid:
        return self.mould.grid

    def heat_rate(self, gap):
        return self.heat_max * (1.0 - smoothstep(gap))

    def heat_rate_slope(self, gap):
        return -self.heat_max * smoothstep_deriv(gap)

    @property
    def contraction_factor(self) -> float:
        """Bound on the inner fixed-point contraction rate."""
        return (self.expansion * self.heat_max * _SMOOTHSTEP_MAX_SLOPE
                / min(1.0, self.reaction))

    def temperature_bound(self) -> float:
        """A priori bound on the H1 norm of any admissible temperature."""
        return (self.heat_max / min(1.0, self.reaction)
                * np.sqrt(max(1.0, self.grid.measure)))

    def _temperature_rows(self, rows: np.ndarray) -> np.ndarray:
        """Temperatures of a (k, n) block of membrane states.

        The Picard steps advance every row that has not stopped with one
        multi-column solve; each row stops at its own step.  Newton and the
        a priori bound then run row by row, in row order, so the first
        failing row raises what ``temperature`` raises on it alone.
        """
        mass = self.grid.mass
        mat = self._op.matrix
        temps = np.zeros(rows.shape)

        if self.contraction_factor < 0.9:
            live = np.arange(len(rows))
            for _ in range(200):
                if not live.size:
                    break
                t_vals = temps[live]
                gap = self.expansion * t_vals + self.mould.values - rows[live]
                t_next = mat.solve((mass * self.heat_rate(gap)).T).T
                temps[live] = t_next
                step = np.max(np.abs(t_next - t_vals), axis=1)
                stopped = step <= 1e-13 * (1.0 + np.max(np.abs(t_next), axis=1))
                live = live[~stopped]

        res_tol = 1e-12 * (1.0 + self.heat_max)
        bound = self.temperature_bound() + 1e-9
        for i, u_vals in enumerate(rows):
            t_vals = temps[i]
            for _ in range(60):
                gap = self.expansion * t_vals + self.mould.values - u_vals
                residual_load = mat.matvec(t_vals) - mass * self.heat_rate(gap)
                res = float(np.max(np.abs(residual_load / mass)))
                if res <= res_tol:
                    break
                slope = self.heat_rate_slope(gap)
                jac = TridiagonalSpd(mat.diag - mass * slope * self.expansion, mat.upper)
                t_vals = t_vals - jac.solve(residual_load)
            else:
                raise InnerSolveError(
                    f"temperature solve stalled at residual {res:.2e} against {res_tol:.1e} "
                    f"(contraction factor {self.contraction_factor:.3f})")
            if v_norm(NodalFunction(self.grid, t_vals)) > bound:
                raise InnerSolveError(
                    "temperature violates its a priori bound; assembly is suspect")
            temps[i] = t_vals
        return temps

    def temperature(self, u: NodalFunction) -> NodalFunction:
        """Solve the semilinear temperature equation for the given membrane state."""
        self._check_grid(u)
        return NodalFunction(self.grid, self._temperature_rows(u.values[None])[0])

    def _evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.mould.values + self.expansion * self._temperature_rows(rows)

    def evaluate(self, u: NodalFunction) -> NodalFunction:
        return self.mould + self.expansion * self.temperature(u)

    def derivative_action(self, u: NodalFunction, h: NodalFunction) -> NodalFunction:
        self._check_grid(u)
        self._check_grid(h)
        temp = self.temperature(u)
        gap = self.expansion * temp.values + self.mould.values - u.values
        slope = self.heat_rate_slope(gap)
        mass = self.grid.mass
        mat = self._op.matrix
        jac = TridiagonalSpd(mat.diag - mass * slope * self.expansion, mat.upper)
        delta = jac.solve(mass * slope * h.values)
        return NodalFunction(self.grid, -self.expansion * delta)


def check_increasing(omap: ObstacleMap, trials: int, rng: np.random.Generator | None = None,
                     *, center: float = 0.0, spread: float = 1.0) -> bool:
    """Sample ordered pairs u <= v and verify the map preserves the order.

    Also checks that the map is nonnegative at zero.  Sampling-based, so a
    True result is evidence, not proof.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    grid = omap.grid
    zero = NodalFunction.zeros(grid)
    if np.any(omap.evaluate(zero).values < -INCREASING_TOL):
        return False
    for _ in range(trials):
        base = center + spread * rng.standard_normal(grid.n_nodes)
        bump = np.abs(rng.standard_normal(grid.n_nodes)) * spread
        u = NodalFunction(grid, base)
        v = NodalFunction(grid, base + bump)
        if np.any(omap.evaluate(u).values > omap.evaluate(v).values + INCREASING_TOL):
            return False
    return True


def _row_v_norms(grid: Grid, rows: np.ndarray) -> np.ndarray:
    """``v_norm`` of each row of a (k, n) block, with its per-row dot products.

    A matrix product would sum in another order; one ``np.dot`` per row
    keeps the bits of ``v_norm``.
    """
    squares = rows**2
    diffs = np.diff(rows, axis=1)
    return np.array([np.sqrt(np.dot(grid.mass, sq) + np.dot(d, d) / grid.h)
                     for sq, d in zip(squares, diffs)])


# Nodal values per block of sampled points (256 KiB of doubles).  A block
# this size stays in cache through the passes a map makes over it; a whole
# 64-point block at n >= 6401 ran slower than sampling one pair at a time.
_BLOCK_VALUES = 2**15


def lipschitz_estimate(omap: ObstacleMap, center: NodalFunction, radius: float,
                       n_samples: int, rng: np.random.Generator | None = None) -> float:
    """Sampled lower bound on the local Lipschitz constant in the H1 norm.

    Draws pairs from the H1 ball of the given radius around the center and
    returns the largest difference quotient of the map.  Pairs are drawn
    and mapped in blocks of about ``_BLOCK_VALUES`` nodal values, one
    ``_evaluate_rows`` call per block; draws, arithmetic and result are
    those of sampling and evaluating the pairs one at a time.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    grid = omap.grid
    omap._check_grid(center)
    n = grid.n_nodes
    pairs_per_block = max(1, _BLOCK_VALUES // (2 * n))

    worst = 0.0
    for first in range(0, n_samples, pairs_per_block):
        # rows u_0, v_0, u_1, v_1, ...: each a standard normal direction,
        # then a uniform draw for its radius
        points = np.empty((2 * min(pairs_per_block, n_samples - first), n))
        radii = np.empty(len(points))
        for row, point in enumerate(points):
            rng.standard_normal(out=point)
            radii[row] = radius * rng.uniform()
        points *= (radii / _row_v_norms(grid, points))[:, None]
        points += center.values
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite nodal values")

        denoms = _row_v_norms(grid, points[0::2] - points[1::2])
        kept = np.flatnonzero(~(denoms < 1e-12))
        if not kept.size:
            continue
        images = omap._evaluate_rows(points.reshape(-1, 2, n)[kept].reshape(-1, n))
        if not np.all(np.isfinite(images)):
            raise ValueError("non-finite nodal values")
        quotients = _row_v_norms(grid, images[0::2] - images[1::2]) / denoms[kept]
        for quotient in quotients:
            worst = max(worst, float(quotient))
    return worst


def lipschitz_threshold_check(omap: ThermoformingMap, operator: EllipticOperator,
                              f: DualElement) -> tuple[bool, dict]:
    """Verify that the mould clears the level below which its growth is locally flat.

    Checks min(mould) > 1 + K * |f|_dual / c_a with K the grid constant of
    the sup-norm embedding.  When it holds, the map is locally constant
    around the minimal state and the sensitivity theory applies with a
    vanishing local Lipschitz constant.
    """
    embedding = sup_embedding_constant(omap.grid)
    forcing = dual_norm(f)
    threshold = 1.0 + embedding * forcing / operator.c_a
    mould_min = float(np.min(omap.mould.values))
    details = {
        "mould_min": mould_min,
        "threshold": threshold,
        "embedding_constant": embedding,
        "forcing_dual_norm": forcing,
        "coercivity": operator.c_a,
    }
    return mould_min > threshold, details
