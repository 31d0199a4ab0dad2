import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from osserman_lab.config import build_boundary, build_f
from osserman_lab.core import (BallGrid, GridError, ScalarField, blend,
                               build_ball_grid, dissection_order, evaluate,
                               fd_derivatives, interpolation_plan,
                               row_norms, sample_field)
from osserman_lab.operators import _batch_eigs


def test_1d_grid_h_half():
    g = build_ball_grid(0.0, 1.0, 0.5, 1)
    assert np.allclose(np.sort(g.interior_nodes.ravel()), [-0.5, 0.0, 0.5])
    boundary = g.nodes[g.n_interior:].ravel()
    assert np.allclose(np.sort(boundary), [-1.0, 1.0])


@pytest.mark.parametrize("center, R, h", [
    (0.0, 1.0, 0.1), (0.0, 2.0, 0.02), (0.37, 1.013, 0.1), (-1.2, 0.9, 0.23)])
def test_1d_interior_neighbours_are_consecutive(center, R, h):
    # the tridiagonal Newton step relies on it: interior node i's minus and
    # plus neighbours are i - 1 and i + 1, and the end nodes' outer
    # neighbours are boundary nodes
    g = build_ball_grid(center, R, h, 1)
    ni = g.n_interior
    assert np.array_equal(g.neighbors[1:, 0], np.arange(ni - 1))
    assert np.array_equal(g.neighbors[:-1, 1], np.arange(1, ni))
    assert g.neighbors[0, 0] >= ni and g.neighbors[-1, 1] >= ni


def test_2d_grid_interior_count():
    g = build_ball_grid([0.0, 0.0], 1.0, 0.25, 2)
    assert g.n_interior == 45
    # no center is the origin
    assert np.array_equal(build_ball_grid(None, 1.0, 0.25, 2).nodes, g.nodes)


def test_1d_grid_h_03():
    g = build_ball_grid(0.0, 1.0, 0.3, 1)
    assert g.n_interior == 7
    assert np.isclose(np.abs(g.interior_nodes).max(), 0.9)


def test_too_coarse_rejected():
    with pytest.raises(GridError):
        build_ball_grid(0.0, 1.0, 0.51, 1)
    with pytest.raises(GridError):
        build_ball_grid(0.0, 1.0, -0.1, 1)
    with pytest.raises(GridError):
        build_ball_grid([0.0] * 3, 1.0, 0.1, 3)


def test_boundary_projections_on_sphere():
    g = build_ball_grid([0.3, -0.2], 1.7, 0.11, 2)
    radii = np.linalg.norm(g.projections - g.center[None, :], axis=1)
    assert np.abs(radii - g.radius).max() <= 1e-12 * g.radius


def _reference_ball_grid(center, R, h, n):
    """The ball grid built point by point from sets and dicts of lattice
    tuples: interior offsets sorted, then the sorted stencil layer around
    them, neighbours looked up by tuple."""
    dirs = [(-1,), (1,)] if n == 1 else [
        (-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1), (-1, 1), (1, -1)]
    m = int(np.ceil(R / h)) + 1
    box = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(-m, m + 1)] * n, indexing="ij")], axis=1)
    radii = h * np.sqrt((box.astype(float) ** 2).sum(axis=1))
    interior = sorted({tuple(p) for p in box[radii < R]})
    inside = set(interior)
    boundary = sorted({tuple(a + b for a, b in zip(p, d))
                       for p in interior for d in dirs} - inside)
    lattice = np.array(interior + boundary, dtype=int).reshape(-1, n)
    center = np.asarray(center, dtype=float)
    nodes = center[None, :] + h * lattice.astype(float)
    vecs = nodes[len(interior):] - center[None, :]
    projections = center[None, :] + R * vecs / np.linalg.norm(
        vecs, axis=1)[:, None]
    index = {tuple(p): i for i, p in enumerate(lattice)}
    neighbors = np.array([[index[tuple(a + b for a, b in zip(p, d))]
                           for d in dirs] for p in interior], dtype=np.int64)
    return lattice, nodes, projections, neighbors, len(interior)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]),
       center=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       R=st.floats(0.05, 5.0),
       cells=st.floats(2.0, 30.0))
@example(n=2, center=[0.0, 0.0], R=1.0, cells=2.0)
@example(n=1, center=[0.3, 0.0], R=1.0, cells=2.0)
def test_build_ball_grid_matches_set_based_reference(n, center, R, cells):
    center = center[:n]
    h = R / cells
    g = build_ball_grid(center, R, h, n)
    lattice, nodes, projections, neighbors, n_interior = \
        _reference_ball_grid(center, R, h, n)
    assert g.n_interior == n_interior
    for got, want in ((g.lattice, lattice), (g.nodes, nodes),
                      (g.projections, projections), (g.neighbors, neighbors)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_full_stencil_and_determinism():
    a = build_ball_grid([0.0, 0.0], 1.0, 0.1, 2)
    b = build_ball_grid([0.0, 0.0], 1.0, 0.1, 2)
    assert np.array_equal(a.lattice, b.lattice)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert a.neighbors.min() >= 0 and a.neighbors.max() < len(a.nodes)


def test_offsets_and_spacings2_keep_their_tables():
    h = 0.3
    g1 = build_ball_grid(0.0, 1.0, h, 1)
    g2 = build_ball_grid([0.0, 0.0], 1.0, h, 2)
    assert g1.offsets.tolist() == [[-1], [1]]
    assert g2.offsets.tolist() == [[-1, 0], [1, 0], [0, -1], [0, 1],
                                   [-1, -1], [1, 1], [-1, 1], [1, -1]]
    assert g1.spacings2.tolist() == [h ** 2 * 1.0]
    assert g2.spacings2.tolist() == [h ** 2 * 1.0, h ** 2 * 1.0,
                                     h ** 2 * 2.0, h ** 2 * 2.0]
    for g in (g1, g2):
        ni = g.n_interior
        assert np.array_equal(g.lattice[g.neighbors],
                              g.lattice[:ni, None, :] + g.offsets[None])


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]),
       center=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       R=st.floats(0.05, 5.0), cells=st.floats(2.0, 20.0),
       far=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=2,
                    max_size=2))
def test_node_index_matches_dict_lookup(n, center, R, cells, far):
    g = build_ball_grid(center[:n], R, R / cells, n)
    index = {tuple(p): i for i, p in enumerate(g.lattice.tolist())}
    assert np.array_equal(g.node_index(g.lattice), np.arange(len(g.nodes)))
    # the whole box, the offsets in it that are no node, and a margin
    # outside it; as integers and as integral floats
    m = g.box.shape[0] // 2
    span = np.arange(-m - 3, m + 4)
    offsets = np.stack(np.meshgrid(*[span] * n, indexing="ij"),
                       axis=-1).reshape(-1, n)
    want = [index.get(tuple(p), -1) for p in offsets.tolist()]
    assert np.array_equal(g.node_index(offsets), want)
    assert np.array_equal(g.node_index(offsets.astype(float)), want)
    assert np.array_equal(g.node_index(offsets.reshape(-1, 1, n)),
                          np.reshape(want, (-1, 1)))
    far = np.array([far[:n]], dtype=np.int64)
    assert g.node_index(far).tolist() == [index.get(tuple(far[0]), -1)]


def _reference_dissection(grid):
    """Nested dissection as a recursion over node sets: the order, and the
    (below, above) halves of every split."""
    lattice = grid.lattice[: grid.n_interior]
    splits = []

    def dissect(nodes, box, level):
        if len(nodes) == 0 or sum(hi > lo for lo, hi in box) <= 1:
            return list(nodes)  # on one lattice line: lexicographic
        a = level % grid.n
        lo, hi = box[a]
        mid = (lo + hi) // 2
        c = lattice[nodes, a]
        parts = (nodes[c < mid], nodes[c > mid], nodes[c == mid])
        splits.append(parts[:2])
        out = []
        for part, span in zip(parts, ((lo, mid - 1), (mid + 1, hi), (mid, mid))):
            out += dissect(part, box[:a] + [span] + box[a + 1:], level + 1)
        return out

    box = [(lattice[:, a].min(), lattice[:, a].max()) for a in range(grid.n)]
    return np.array(dissect(np.arange(grid.n_interior), box, 0)), splits


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), R=st.floats(0.05, 5.0),
       cells=st.floats(2.0, 20.0))
@example(n=2, R=1.0, cells=2.0)
@example(n=2, R=1.2, cells=24.0)  # the perfbench solve-2d grid
def test_dissection_order_is_nested_dissection_of_the_lattice(n, R, cells):
    g = build_ball_grid([0.0] * n, R, R / cells, n)
    order = dissection_order(g)
    assert np.array_equal(np.sort(order), np.arange(g.n_interior))
    if n == 1:
        assert np.array_equal(order, np.arange(g.n_interior))
    want, splits = _reference_dissection(g)
    assert np.array_equal(order, want)
    assert bool(splits) == (n == 2)  # a 1D grid lies on one line
    for below, above in splits:  # the stencil is symmetric: one way suffices
        assert not np.isin(g.neighbors[below], above).any()


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]),
       center=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       R=st.floats(1.0, 3.0), h=st.floats(0.05, 0.4),
       coef=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_interpolate_is_exact_on_multilinear_fields(n, center, R, h, coef,
                                                     seed):
    a, b, c, e = coef
    center = np.asarray(center[:n])
    g = build_ball_grid(center, R, h, n)

    def multilinear(x):
        if n == 1:
            return a + b * x[:, 0]
        return a + b * x[:, 0] + c * x[:, 1] + e * x[:, 0] * x[:, 1]

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((200, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = R * rng.uniform(0.0, 1.0, 200) ** (1.0 / n)
    pts = np.vstack([center[None, :] + radii[:, None] * dirs,
                     g.interior_nodes])
    got = blend(interpolation_plan(g, pts), sample_field(g, multilinear).values)
    assert np.abs(got - multilinear(pts)).max() <= 1e-12

    constant = ScalarField(grid=g, values=np.full(len(g.nodes), a))
    assert np.all(blend(interpolation_plan(g, pts), constant.values) == a)

    with pytest.raises(ValueError):
        blend(interpolation_plan(g, center[None, :] + (R + 3.0 * h) * dirs[:1]),
              constant.values)


@pytest.mark.parametrize("point", [[1e300], [-1e300], [0.0, 1e300],
                                   [-1e300, 1e300]])
def test_interpolate_far_point_raises_without_integer_overflow(point):
    n = len(point)
    field = sample_field(build_ball_grid(np.zeros(n), 1.0, 0.25, n),
                         lambda x: 1.0)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="corner outside"):
            blend(interpolation_plan(field.grid, [point]), field.values)


# Entries of like size (where the summation order shows in the last bit),
# magnitudes from 1e-300 to 1e300 (where squares underflow or overflow),
# and the special values; leading shapes (N,) and (a, b), rows of n = 1..4.
_ENTRIES = st.one_of(
    st.floats(-4.0, 4.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0),
              st.integers(-300, 299)).map(lambda t: t[0] * t[1] * 10.0 ** t[2]),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)
_SHAPES = st.sampled_from([lead + (n,) for lead in ((16,), (3, 5))
                           for n in (1, 2, 3, 4)])


@settings(max_examples=100, deadline=None)
@given(v=arrays(np.float64, _SHAPES, elements=_ENTRIES, fill=st.nothing()))
# The first row tells (s0 + s1) + s2 from the other orders, the second
# sqrt(s0 + s1) from np.hypot.
@example(v=np.array([[0.095, 3.604, -2.847], [-0.908, -0.383, 0.0]]))
def test_row_norms_bit_identical_to_numpy(v):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        assert row_norms(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


def test_batch_eigs_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(200):
        mat = rng.standard_normal((2, 2))
        mat = mat + mat.T
        assert np.allclose(_batch_eigs(mat), np.linalg.eigvalsh(mat),
                           rtol=1e-12, atol=1e-12)


def test_evaluate_returns_one_value_per_point():
    pts = build_ball_grid([0.0, 0.0], 1.0, 0.25, 2).nodes
    assert evaluate(lambda x: x[:, 0] * x[:, 1], pts).shape == (len(pts),)
    const = evaluate(lambda x: 2.0, pts)
    assert const.shape == (len(pts),) and np.all(const == 2.0)


def test_evaluate_rejects_pointwise_callables():
    # On (N, 1) points x[0] is the first point, shape (1,): it must not
    # broadcast to N copies of one value.
    g = build_ball_grid(0.0, 1.0, 0.25, 1)
    assert len(g.nodes) > 1
    with pytest.raises(ValueError):
        evaluate(lambda x: x[0], g.nodes)
    with pytest.raises(ValueError):
        sample_field(g, lambda x: x[0])


def _exp_family(x, sign):
    return sign * (0.5 * math.exp(-math.sqrt(2.0) * x[1]) + 1.0)


_EXP_FAMILY = {"tag": "exp_family", "alpha": 0.5, "sign": "-", "axis": 1, "n": 2}


def _boundary_2d(section):
    return build_boundary(section, 2)


@pytest.mark.parametrize("build, section, closed", [
    (build_f, {"tag": "zero"}, lambda x: 0.0),
    (build_f, {"tag": "constant", "value": -2.5}, lambda x: -2.5),
    (build_f, {"tag": "radial_power", "rho": 1.5},
     lambda x: -(1.0 + math.hypot(*x) ** 1.5)),
    (build_f, {"tag": "mms_cos"},
     lambda x: -math.cos(x[0]) + math.sin(x[0]) ** 2 - math.cos(x[0]) ** 3),
    (_boundary_2d, {"tag": "constant", "value": 3.0}, lambda x: 3.0),
    (_boundary_2d, _EXP_FAMILY, lambda x: _exp_family(x, 1.0)),
    (_boundary_2d, {**_EXP_FAMILY, "negated": True},
     lambda x: _exp_family(x, -1.0)),
    (_boundary_2d, {"tag": "cos"}, lambda x: math.cos(x[0])),
], ids=["f-zero", "f-constant", "f-radial_power", "f-mms_cos", "g-constant",
        "g-exp_family", "g-exp_family-negated", "g-cos"])
def test_config_data_callables_match_closed_form(build, section, closed):
    points = build_ball_grid([0.3, -0.2], 1.0, 0.25, 2).nodes
    got = evaluate(build(section), points)
    want = [closed(x) for x in points]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_scalar_field_rejects_nonfinite():
    g = build_ball_grid(0.0, 1.0, 0.2, 1)
    vals = np.zeros(len(g.nodes))
    vals[0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid=g, values=vals)
    with pytest.raises(ValueError):
        ScalarField(grid=g, values=np.zeros(3))


def test_fd_constant_field():
    g = build_ball_grid([0.0, 0.0], 1.0, 0.1, 2)
    f = sample_field(g, lambda x: 5.0)
    grad, hess = fd_derivatives(f)
    assert grad.shape == (g.n_interior, 2) and hess.shape == (g.n_interior, 2, 2)
    assert np.allclose(grad, 0.0)
    assert np.allclose(hess, 0.0)


def test_fd_exact_on_quadratics():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        g = build_ball_grid([0.0] * n, 1.0, 0.1, n)
        A = rng.standard_normal((n, n))
        A = A + A.T
        b = rng.standard_normal(n)
        c = rng.standard_normal()

        def quad(x):
            return 0.5 * np.einsum("ij,jk,ik->i", x, A, x) + x @ b + c

        f = sample_field(g, quad)
        grad, hess = fd_derivatives(f)
        exact = g.interior_nodes @ A + b  # the gradient of quad is Ax + b
        assert np.abs(grad - exact).max() <= 1e-10
        assert np.abs(hess - A).max() <= 1e-10


def test_fd_x_squared_at_origin():
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    f = sample_field(g, lambda x: x[:, 0] ** 2)
    node = int(np.argmin(np.abs(g.interior_nodes.ravel())))
    grad, hess = fd_derivatives(f)
    assert abs(grad[node, 0]) <= 1e-12
    assert abs(hess[node, 0, 0] - 2.0) <= 1e-12


def test_fd_second_order_on_cos():
    errs = []
    for h in (0.1, 0.05):
        g = build_ball_grid(0.0, 1.0, h, 1)
        f = sample_field(g, lambda x: np.cos(x[:, 0]))
        node = int(np.argmin(np.abs(g.interior_nodes.ravel())))
        _, hess = fd_derivatives(f)
        errs.append(abs(hess[node, 0, 0] + 1.0))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5
