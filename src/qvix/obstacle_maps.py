"""Obstacle maps: the state-dependent upper bounds of the quasi-variational solves.

Three families are provided.  ``PlateauMap`` applies a smooth increasing
scalar curve with flat plateaus nodewise.  ``InverseEllipticMap`` sends u
to the solution of a second elliptic problem loaded with a monotone
pointwise gain of u.  ``ThermoformingMap`` couples a mould shape to a
semilinear temperature equation driven by the mould/membrane gap; the
mould grows linearly with temperature.  All three are increasing and
differentiable.  Each map's derivative has the form
Phi'(u)h = B^-1 (w h) for a tridiagonal M-matrix B and weights w >= 0,
which ``linearisation(u, phi)`` returns from the state u and its
obstacle phi = Phi(u), which every caller holds already.
``derivative_action(lin, h)`` applies such a linearisation, so it can be
validated against finite differences, and the banded (I - J) solve of
``vi._solve_linearised`` reads it.  ``concave`` declares a map concave
on nonnegative states, which licenses the Newton steps of the max runs.

``lipschitz_estimate`` sizes the derivative that a linearisation
describes: the largest V-norm gain of Phi'(u) over the lowest modes of
the H1/lumped-mass pencil, reported as ``c_phi_estimate``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .fem import (
    BoundaryCondition,
    DualElement,
    EllipticOperator,
    Grid,
    GridMismatchError,
    NodalFunction,
    TridiagonalSpd,
    _grid_memo,
    _v_norm_values,
    assemble_operator,
    dual_norm,
    sup_embedding_constant,
    v_norm,
)


# (B, w) with Phi'(u)h = B^-1 (w h)
Linearisation = tuple[TridiagonalSpd, np.ndarray]


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
    """Increasing map from membrane states to obstacle functions.

    Its methods are pure functions of their arguments.  The one thing a
    map keeps is its last extremal run (``_run_entry``, written by
    ``extremal._kept_run``), which ``fd_validate``'s repeat of the base
    run reads.  ``concave`` is True for a map that is concave on
    nonnegative states; a max run of such a map takes Newton steps
    (``extremal._iterate``).
    """

    kind: str
    concave = False
    # (key, report) of the last extremal run; None until the first
    _run_entry = None

    @property
    @abc.abstractmethod
    def grid(self) -> Grid:
        ...

    @abc.abstractmethod
    def evaluate(self, u: NodalFunction) -> NodalFunction:
        """Obstacle induced by the state u."""

    @abc.abstractmethod
    def linearisation(self, u: NodalFunction, phi: NodalFunction) -> Linearisation:
        """``(B, w)`` at u, where ``phi = self.evaluate(u)``."""

    @abc.abstractmethod
    def derivative_action(self, lin: Linearisation, h: NodalFunction) -> NodalFunction:
        """Phi'(u)h for ``lin = self.linearisation(u, phi)``."""

    def _check_grid(self, *fns: NodalFunction):
        if any(fn.grid != self.grid for fn in fns):
            raise GridMismatchError("state grid does not match map grid")


@_grid_memo
def _identity(grid: Grid) -> TridiagonalSpd:
    """The n-node identity, the B of every plateau linearisation."""
    return TridiagonalSpd(np.ones(grid.n_nodes), np.zeros(grid.n_nodes - 1))


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
        half_width = float(half_width)
        if not (np.isfinite(levels).all() and np.isfinite(half_width)):
            raise ValueError("plateau levels and half-width must be finite")
        if np.any(levels <= 0):
            raise ValueError("plateau levels must be positive")
        if half_width <= 0:
            raise ValueError("plateau half-width must be positive")
        if np.any(np.diff(levels) <= 2 * half_width):
            raise ValueError("consecutive levels must be more than two half-widths apart")
        levels.flags.writeable = False
        self._grid = grid
        self.levels = levels
        self.half_width = half_width
        self._identity = _identity(grid)

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

    def evaluate(self, u: NodalFunction) -> NodalFunction:
        self._check_grid(u)
        return NodalFunction(self.grid, self.scalar(u.values))

    def linearisation(self, u: NodalFunction, phi: NodalFunction) -> Linearisation:
        self._check_grid(u, phi)
        return self._identity, self.scalar_slope(u.values)

    def derivative_action(self, lin: Linearisation, h: NodalFunction) -> NodalFunction:
        self._check_grid(h)
        _, w = lin  # B is the identity
        return NodalFunction(self.grid, w * h.values)


@dataclass(frozen=True)
class ScalarNonlinearity:
    """Increasing C1 scalar gain with value 0 at 0 and bounded slope."""

    kind: str  # "zero" | "linear" | "tanh"
    scale: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "tanh"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not np.isfinite([self.scale, self.rate]).all():
            raise ValueError("scale and rate must be finite")
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


class InverseEllipticMap(ObstacleMap):
    """Obstacle as the solution of a second elliptic problem loaded by a gain of u.

    Concave on nonnegative states: the zero, linear and tanh gains are
    concave there, and the inverse of the inner M-matrix is nonnegative.
    """

    kind = "inverse_elliptic"
    concave = True

    def __init__(self, inner: EllipticOperator, gain: ScalarNonlinearity):
        self._inner = inner
        self.gain = gain

    @property
    def grid(self) -> Grid:
        return self._inner.grid

    def evaluate(self, u: NodalFunction) -> NodalFunction:
        self._check_grid(u)
        return self._inner.solve(DualElement(self.grid, self.gain.value(u.values)))

    def linearisation(self, u: NodalFunction, phi: NodalFunction) -> Linearisation:
        self._check_grid(u, phi)
        w = self.grid.mass * self.gain.slope(u.values)
        w[self._inner.boundary] = 0.0  # the inner solve zeroes its Dirichlet rows
        return self._inner.matrix, w

    def derivative_action(self, lin: Linearisation, h: NodalFunction) -> NodalFunction:
        self._check_grid(h)
        B, w = lin
        return NodalFunction(self.grid, B.solve(w * h.values))


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
        if not np.isfinite([reaction, heat_max, expansion]).all():
            raise ValueError("reaction, maximal heat transfer and expansion must be finite")
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

    def temperature_bound(self) -> float:
        """A priori bound on the H1 norm of any admissible temperature."""
        return (self.heat_max / min(1.0, self.reaction)
                * np.sqrt(max(1.0, self.grid.measure)))

    def _jacobian(self, slope: np.ndarray) -> TridiagonalSpd:
        """Jacobian in T of the temperature equation, for the heat-rate slope at its gap."""
        mat = self._op.matrix
        return TridiagonalSpd(mat.diag - self.grid.mass * slope * self.expansion, mat.upper)

    def temperature(self, u: NodalFunction) -> NodalFunction:
        """Damped Newton from zero on the temperature equation for the membrane state u.

        A step is the full Newton step if that lowers ||F/m||_2, else the
        first of 20 halvings lambda that lowers it by 1 - 1e-4 lambda, else
        the full step.  Raises ``InnerSolveError`` when 60 steps do not
        reach the residual test, and when T leaves its a priori bound.
        """
        self._check_grid(u)
        mass = self.grid.mass
        mat = self._op.matrix

        def state(t):  # t, its gap, F(t) = K t - m q(gap), and ||F(t)/m||_2
            gap = self.expansion * t + self.mould.values - u.values
            load = mat.matvec(t) - mass * self.heat_rate(gap)
            return t, gap, load, np.linalg.norm(load / mass)

        t_vals, gap, residual_load, norm = state(np.zeros(self.grid.n_nodes))
        res_tol = 1e-12 * (1.0 + self.heat_max)
        for _ in range(60):
            res = float(np.max(np.abs(residual_load / mass)))
            if res <= res_tol:
                break
            step = self._jacobian(self.heat_rate_slope(gap)).solve(residual_load)
            accepted = state(t_vals - step)
            if not accepted[3] < norm:  # kept unless a halving passes; a NaN norm passes none
                for k in range(1, 21):
                    trial = state(t_vals - 0.5**k * step)
                    if trial[3] <= (1.0 - 1e-4 * 0.5**k) * norm:
                        accepted = trial
                        break
            t_vals, gap, residual_load, norm = accepted
        else:
            raise InnerSolveError(
                f"temperature solve stalled at residual {res:.2e} against {res_tol:.1e}")
        temp = NodalFunction(self.grid, t_vals)
        if v_norm(temp) > self.temperature_bound() + 1e-9:
            raise InnerSolveError(
                "temperature violates its a priori bound; assembly is suspect")
        return temp

    def evaluate(self, u: NodalFunction) -> NodalFunction:
        return self.mould + self.expansion * self.temperature(u)

    def linearisation(self, u: NodalFunction, phi: NodalFunction) -> Linearisation:
        """The Jacobian and load of the temperature equation at the gap ``phi - u``.

        ``phi - u`` has the bits of the Newton loop's last gap
        ``expansion T + mould - u``, as mould + expansion T rounds as
        expansion T + mould: so no temperature is solved.
        """
        self._check_grid(u, phi)
        slope = self.heat_rate_slope(phi.values - u.values)
        return self._jacobian(slope), -self.expansion * self.grid.mass * slope

    def derivative_action(self, lin: Linearisation, h: NodalFunction) -> NodalFunction:
        self._check_grid(h)
        B, w = lin
        return NodalFunction(self.grid, B.solve(w * h.values))


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


# modes of the H1/lumped-mass pencil on which lipschitz_estimate measures the derivative
LIPSCHITZ_MODES = 5


def lipschitz_estimate(omap: ObstacleMap, lin: Linearisation, bc: BoundaryCondition) -> float:
    """Largest ratio |Phi'(u) w|_V / |w|_V over the lowest modes w.

    On the uniform grid the nodal cosines cos(k pi (x - a) / L) (Neumann)
    and sines sin(k pi (x - a) / L) (Dirichlet) are exact eigenvectors of
    the H1 stiffness against the lumped mass.  The modes are k = 1 ...
    ``LIPSCHITZ_MODES`` (the constant left out; fewer on grids that hold
    fewer) under the run operator's boundary condition ``bc``.  Smooth
    modes are what a smoothing map passes, so the value does not fade as
    the grid refines.  A lower bound on the norm of Phi'(u).

    ``lin = (B, w)`` is the map's linearisation at u
    (``omap.linearisation(u, phi)``); the estimate applies B^-1 (w h) to
    every mode in one multi-column solve, and solves no map equation.
    Each column keeps the bits of ``omap.derivative_action(lin, mode)``,
    up to the sign of a zero.  The modes and their V-norms are computed
    once per (grid, bc) (``_lipschitz_modes``).
    """
    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    grid = omap.grid
    modes, mode_norms = _lipschitz_modes(grid, bc)
    B, w = lin
    images = B.solve(w[:, None] * modes)
    return max((_v_norm_values(grid, images[:, j]) / norm for j, norm in enumerate(mode_norms)),
               default=0.0)


@_grid_memo
def _lipschitz_modes(grid: Grid, bc: str) -> tuple[np.ndarray, tuple[float, ...]]:
    """The modes of ``lipschitz_estimate`` as read-only Fortran-order
    columns, and the V-norm of each."""
    n = grid.n_nodes
    wave, highest = (np.cos, n - 1) if bc == "neumann" else (np.sin, n - 2)
    angles = np.pi * np.arange(n) / (n - 1)
    modes = np.empty((n, min(LIPSCHITZ_MODES, highest)), order="F")
    for k in range(1, modes.shape[1] + 1):
        modes[:, k - 1] = wave(k * angles)
    if bc == "dirichlet":
        modes[-1] = 0.0  # sin(k pi) is roundoff, not zero
    modes.flags.writeable = False
    return modes, tuple(_v_norm_values(grid, modes[:, j]) for j in range(modes.shape[1]))


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
