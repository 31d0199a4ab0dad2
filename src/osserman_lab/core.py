"""Ball grids, scalar fields and finite-difference calculus.

The domain is always a ball. Nodes live on a tensor lattice through the
center; interior nodes are strictly inside the ball, and the first exterior
lattice layer carries Dirichlet data at its radial projection onto the
sphere (first-order cut-cell). Dimension is restricted to n in {1, 2}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Stencil offsets per dimension n, in (minus, plus) pairs, the axes first.
# In 2D the two diagonals are part of the stencil: Pucci's rotated frame and
# the 4-point mixed derivative both need them.
_OFFSETS = {
    1: ((-1,), (1,)),
    2: ((-1, 0), (1, 0), (0, -1), (0, 1),
        (-1, -1), (1, 1), (-1, 1), (1, -1)),
}


class GridError(ValueError):
    pass


def as_points(points, n: int) -> np.ndarray:
    """``points`` as a float (N, n) array; any other shape raises
    ValueError rather than being regrouped into points of dimension n."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"points must have shape (N, {n}), got {pts.shape}")
    return pts


def squared_row_norms(v) -> np.ndarray:
    """Sums of squares over the last axis of ``v``, added column by column,
    left to right. For rows shorter than 8 that is the order of
    ``(v ** 2).sum(axis=-1)``, so the floats are the same, without numpy's
    per-row strided reduction.
    """
    v = np.asarray(v, dtype=float)
    total = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        total += v[..., k] * v[..., k]
    return total


def row_norms(v) -> np.ndarray:
    """Euclidean norms over the last axis of ``v``: the square roots of
    `squared_row_norms`, the floats of ``np.linalg.norm(v, axis=-1)`` for
    rows shorter than 8.
    """
    return np.sqrt(squared_row_norms(v))


@dataclass(frozen=True)
class BallGrid:
    """Lattice discretization of an open ball.

    nodes[:n_interior] are the interior nodes (lexicographic in lattice
    coordinates), followed by the boundary layer. ``projections[k]`` is the
    radial projection of boundary node k onto the sphere.
    ``neighbors[i, d]`` is the node at lattice step ``offsets[d]`` from
    interior node i, and ``spacings2`` the squared length h^2 |e|^2 of each
    pair's step e: h^2 on the axes, 2 h^2 on the diagonals.
    """

    center: np.ndarray
    radius: float
    h: float
    n: int
    nodes: np.ndarray          # (N, n) coordinates
    lattice: np.ndarray        # (N, n) integer offsets from the center
    n_interior: int
    projections: np.ndarray    # (N - n_interior, n)
    offsets: np.ndarray        # (n_dirs, n) integer stencil steps
    neighbors: np.ndarray      # (n_interior, n_dirs) node indices
    spacings2: np.ndarray      # (n_dirs // 2,)
    box: np.ndarray            # (2m + 1,) * n int32 node indices, -1 off nodes

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[: self.n_interior]

    def node_index(self, lattice) -> np.ndarray:
        """Node index of each lattice offset, the rows of an (..., n) array
        of integers or integral floats, shape (...); -1 for an offset that
        is not a node. Offsets are clipped to the box before the integer
        cast, so one far outside it cannot overflow."""
        lattice = np.asarray(lattice)
        m = self.box.shape[0] // 2
        inside = np.all((lattice >= -m) & (lattice <= m), axis=-1)
        k = (np.clip(lattice, -m, m) + m).astype(np.int64)
        return np.where(inside, self.box[tuple(np.moveaxis(k, -1, 0))], -1)


def build_ball_grid(center, R: float, h: float, n: int) -> BallGrid:
    """Build the lattice grid on the open ball B_R(center).

    Requires h <= R/2 so interior nodes exist with a full stencil.
    """
    if n not in _OFFSETS:
        raise GridError("dimension n must be 1 or 2")
    if R <= 0 or h <= 0:
        raise GridError("R and h must be positive")
    if h > R / 2:
        raise GridError(f"h={h} too coarse for R={R}: need h <= R/2")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (n,):
        raise GridError(f"center must have shape ({n},)")

    # Everything happens on the box [-m, m]^n of lattice offsets, addressed
    # by C-order flat index, so sorted flat indices are sorted lattice
    # tuples. Interior offsets lie a stencil width inside the box, so a
    # stencil step from an interior node stays inside the box and is a
    # fixed flat offset.
    offsets = np.array(_OFFSETS[n])
    m = int(np.ceil(R / h)) + int(np.abs(offsets).max())
    side = 2 * m + 1
    squares = sum(np.ix_(*[np.arange(-m, m + 1) ** 2] * n))
    inside = (h * np.sqrt(squares.astype(float)) < R).ravel()
    steps = offsets @ side ** np.arange(n)[::-1]
    interior = np.flatnonzero(inside)
    stencil = interior[:, None] + steps[None, :]
    layer = np.zeros_like(inside)
    layer[stencil] = True
    order = np.concatenate([interior, np.flatnonzero(layer & ~inside)])
    index = np.full(inside.size, -1, dtype=np.int64)
    index[order] = np.arange(len(order))

    lattice = np.stack(np.unravel_index(order, (side,) * n), axis=1) - m
    nodes = center[None, :] + h * lattice.astype(float)
    n_interior = len(interior)

    vecs = nodes[n_interior:] - center[None, :]
    projections = center[None, :] + R * vecs / row_norms(vecs)[:, None]

    return BallGrid(
        center=center,
        radius=float(R),
        h=float(h),
        n=n,
        nodes=nodes,
        lattice=lattice,
        n_interior=n_interior,
        projections=projections,
        offsets=offsets,
        neighbors=index[stencil],
        spacings2=float(h) ** 2 * squared_row_norms(offsets[::2]),
        # int32 halves the box every kept grid holds; node counts fit easily
        box=index.astype(np.int32).reshape((side,) * n),
    )


def _bisections(size: int):
    """Recursive bisection of the coordinates 0..size-1 at the middle
    coordinate of each interval. Returns the digits, shape (depth, size):
    at depth t coordinate c is below (0), above (1) or at (2) the middle of
    its interval, and the middle keeps the one-coordinate interval [c, c];
    and, per coordinate, the depth from which its interval is [c, c]."""
    c = np.arange(size)
    lo, hi = np.zeros(size, dtype=np.int64), np.full(size, size - 1)
    digits, narrow_from = [], np.zeros(size, dtype=np.int64)
    while np.any(lo < hi):
        narrow_from += lo < hi
        mid = (lo + hi) // 2
        side = np.sign(c - mid)
        digits.append(np.where(side == 0, 2, side > 0).astype(np.int8))
        lo = np.where(side >= 0, mid + side, lo)
        hi = np.where(side <= 0, mid + side, hi)
    return np.array(digits, dtype=np.int8).reshape(-1, size), narrow_from


def dissection_order(grid: BallGrid) -> np.ndarray:
    """Nested-dissection order of the interior nodes (George, SINUM 10,
    1973): ``order[k]`` is the interior node that comes k-th.

    Level L bisects the lattice box of a part at its middle lattice line
    across axis L mod n, which splits the part into the nodes below and
    above that line and the separator on it. Both halves come first, then
    the separator, each ordered by the levels below. A stencil step moves
    at most one lattice line along any axis, so no stencil edge joins the
    two halves. A part whose box lies on a single lattice line is not
    split further and keeps its lexicographic order: a path has no fill in
    that order.

    Each axis is bisected independently of the others, so node x's place
    is a closed form: the digits (below, above, on the line) of its
    coordinates, interleaved over the axes level by level, cut off from the
    level at which x's part lies on one line, then sorted.
    """
    lattice = grid.lattice[: grid.n_interior]
    n, ni = grid.n, grid.n_interior
    coords = [lattice[:, a] - lattice[:, a].min() for a in range(n)]
    tables = [_bisections(int(coord.max()) + 1) for coord in coords]
    depth = max(len(digits) for digits, _ in tables)
    keys = np.full((depth * n, ni), 2, dtype=np.int8)
    # the level from which at most one axis of x's part spans several
    # lines: the second largest over the axes of the level from which the
    # axis spans one line
    top = line_from = np.zeros(ni, dtype=np.int64)
    for a, ((digits, narrow_from), coord) in enumerate(zip(tables, coords)):
        keys[a::n][: len(digits)] = digits[:, coord]
        f = narrow_from[coord]  # axis a's t-th bisection is level a + n t
        narrow = np.where(f > 0, a + n * (f - 1) + 1, 0)
        line_from = np.maximum(line_from, np.minimum(top, narrow))
        top = np.maximum(top, narrow)
    keys[np.arange(depth * n)[:, None] >= line_from[None, :]] = 0
    return np.lexsort(keys[::-1])  # stable: lexicographic within a line


@dataclass(frozen=True)
class ScalarField:
    """Nodal values on a BallGrid (interior followed by boundary layer)."""

    grid: BallGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.grid.nodes),):
            raise ValueError("values length must match grid node count")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def interior_values(self) -> np.ndarray:
        return self.values[: self.grid.n_interior]


def evaluate(fn: Callable, points) -> np.ndarray:
    """Values of the data callable ``fn`` (a right-hand side f, boundary
    data g or exact solution u*) at (N, n) ``points``, shape (N,).

    ``fn`` is called once on the whole array and returns one value per
    point, or a single number for constant data. Any other shape raises
    ValueError: a pointwise ``lambda x: x[0]`` on an (N, 1) array returns
    shape (1,), which would otherwise broadcast to wrong values.
    """
    points = np.asarray(points, dtype=float)
    values = np.array(fn(points), dtype=float)
    if values.ndim == 0:
        return np.full(len(points), float(values))
    if values.shape != (len(points),):
        raise ValueError(f"data callable returned shape {values.shape} for "
                         f"{len(points)} points; expected ({len(points)},) "
                         f"or a single number")
    return values


def sample_field(grid: BallGrid, fn: Callable) -> ScalarField:
    """Sample the data callable ``fn`` at every node coordinate (boundary
    at lattice points)."""
    return ScalarField(grid=grid, values=evaluate(fn, grid.nodes))


def interpolation_plan(grid: BallGrid, points) -> tuple[np.ndarray, np.ndarray]:
    """The node indices of the 2^n lattice cell corners of each of the
    (N, n) ``points``, shape (N,) + (2,) * n, and the points' fractions
    along the axes, shape (N, n). A corner outside the grid's nodes
    (interior and boundary layer) raises ValueError. Every point of the
    open ball has all its corners: the corner nearest the center is
    interior, and the others are its stencil neighbours."""
    t = (as_points(points, grid.n) - grid.center[None, :]) / grid.h
    if not np.all(np.isfinite(t)):
        raise ValueError("points must be finite")
    low = np.floor(t)
    corners = low[:, None, :] + np.array(
        list(itertools.product((0, 1), repeat=grid.n)))[None, :, :]
    nodes = grid.node_index(corners)
    if np.any(nodes < 0):
        raise ValueError("a point's lattice cell has a corner outside the "
                         "grid's nodes")
    return nodes.reshape((len(t),) + (2,) * grid.n), t - low


def blend(plan: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> np.ndarray:
    """The n-linear interpolant of nodal ``values`` at the points of an
    `interpolation_plan`: the corners are blended one axis at a time as
    a + t (b - a), so constant values come back exactly."""
    nodes, frac = plan
    vals = values[nodes]
    for axis in range(frac.shape[1] - 1, -1, -1):
        w = frac[:, axis].reshape((-1,) + (1,) * axis)
        vals = vals[..., 0] + w * (vals[..., 1] - vals[..., 0])
    return vals


def interpolate(field: ScalarField, points) -> np.ndarray:
    """The n-linear interpolant of ``field`` at (N, n) ``points``, shape (N,)."""
    return blend(interpolation_plan(field.grid, points), field.values)


def second_differences(grid: BallGrid, values: np.ndarray) -> np.ndarray:
    """Second differences of nodal ``values`` along every stencil direction
    pair at all interior nodes, shape (n_interior, n_pairs): the axes first,
    then (in 2D) the two diagonals with spacing h*sqrt(2)."""
    unb = values[grid.neighbors]
    uc = values[: grid.n_interior]
    return (unb[:, ::2] + unb[:, 1::2] - 2.0 * uc[:, None]) / grid.spacings2


def fd_derivatives(field: ScalarField):
    """Gradients (n_interior, n) and Hessians (n_interior, n, n) at every
    interior node.

    Central differences throughout; in 2D the mixed derivative is the
    4-point formula (u_{++} + u_{--} - u_{+-} - u_{-+}) / 4h^2, half the
    difference of the two diagonal second differences.
    """
    g = field.grid
    nb = field.values[g.neighbors[:, : 2 * g.n]]
    grad = (nb[:, 1::2] - nb[:, ::2]) / (2.0 * g.h)
    d2 = second_differences(g, field.values)
    if g.n == 1:
        return grad, d2[:, :, None]
    uxy = 0.5 * (d2[:, 2] - d2[:, 3])
    hess = np.stack([d2[:, 0], uxy, uxy, d2[:, 1]], axis=-1).reshape(-1, 2, 2)
    return grad, hess


def norm(field: ScalarField, kind: str = "sup", p: float | None = None,
         center=None, radius: float | None = None) -> float:
    """Discrete sup or L^p norm over interior nodes of a subdomain ball.

    L^p uses the Riemann weight h^n per node. The default subdomain is the
    whole grid ball; any other must lie inside it, up to 1e-12.
    """
    g = field.grid
    center = g.center if center is None else \
        np.atleast_1d(np.asarray(center, dtype=float))
    if radius is None:
        radius = g.radius
    if radius + float(np.linalg.norm(center - g.center)) > g.radius + 1e-12:
        raise ValueError("subdomain must lie inside the grid ball")
    mask = row_norms(g.interior_nodes - center[None, :]) < radius
    if not mask.any():
        raise ValueError("empty subdomain")
    vals = np.abs(field.interior_values[mask])
    if kind == "sup":
        return float(vals.max())
    if kind == "lp":
        if p is None or p < 1:
            raise ValueError("Lp norm requires p >= 1")
        return float((np.sum(vals ** p) * g.h ** g.n) ** (1.0 / p))
    raise ValueError(f"unknown norm kind {kind!r}")
