import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from osserman_lab import operators
from osserman_lab.operators import (CONDITIONS, Coeff, EllipticityPair,
                                    HamiltonianH, MetadataError,
                                    check_hamiltonian,
                                    empirical_increment_constant,
                                    hamiltonian_library,
                                    laplacian_operator, negate_hamiltonian,
                                    pucci, pucci_bruteforce,
                                    pucci_bruteforce_sweep,
                                    pucci_operator, sample_workspace,
                                    tilde_gamma,
                                    weighted_trace_operator)

ELL = EllipticityPair(1.0, 2.0)


def _rand_sym(rng, n):
    mat = rng.standard_normal((n, n))
    return mat + mat.T


def test_pucci_closed_form_examples():
    X = np.diag([1.0, -1.0])
    assert pucci(X, ELL, "+") == pytest.approx(2.0 * 1.0 + 1.0 * (-1.0))
    assert pucci(X, ELL, "-") == pytest.approx(1.0 * 1.0 + 2.0 * (-1.0))
    eye = np.eye(2)
    assert pucci(eye, ELL, "+") == pytest.approx(4.0)
    assert pucci(eye, ELL, "-") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        pucci(eye, ELL, "0")


def test_pucci_duality_homogeneity_subadditivity():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(100):
            X = _rand_sym(rng, n)
            Y = _rand_sym(rng, n)
            assert pucci(X, ELL, "-") == pytest.approx(-pucci(-X, ELL, "+"),
                                                       abs=1e-10)
            t = float(rng.uniform(0.1, 10.0))
            assert pucci(t * X, ELL, "+") == pytest.approx(t * pucci(X, ELL, "+"),
                                                           rel=1e-10)
            assert pucci(X + Y, ELL, "+") <= pucci(X, ELL, "+") + pucci(Y, ELL, "+") + 1e-10
            assert pucci(X, ELL, "-") <= pucci(X, ELL, "+") + 1e-12


def test_bruteforce_is_a_lower_bound_and_converges():
    rng = np.random.default_rng(17)
    X = _rand_sym(rng, 2)
    exact = pucci(X, ELL, "+")
    coarse = pucci_bruteforce(X, ELL, samples=50, rng=1)
    fine = pucci_bruteforce(X, ELL, samples=50_000, rng=1)
    assert coarse <= exact + 1e-12
    assert fine <= exact + 1e-12
    assert coarse <= fine
    assert abs(fine - exact) < 0.02 * max(1.0, abs(exact))


def test_bruteforce_degenerate_pair_single_sample():
    iso = EllipticityPair(1.5, 1.5)
    X = np.array([[2.0, 1.0], [1.0, -3.0]])
    val = pucci_bruteforce(X, iso, samples=1, rng=0)
    assert val == pytest.approx(1.5 * np.trace(X), rel=1e-12)
    with pytest.raises(ValueError):
        pucci_bruteforce(X, iso, samples=0)


def test_bruteforce_3d_path():
    rng = np.random.default_rng(23)
    X = _rand_sym(rng, 3)
    exact = pucci(X, ELL, "+")
    est = pucci_bruteforce(X, ELL, samples=20000, rng=2)
    assert est <= exact + 1e-10
    assert est >= ELL.lam * np.trace(X) - 1e-10  # A = lam I is admissible


def test_bruteforce_sweep_matches_scalar():
    rng = np.random.default_rng(31)
    Xs = rng.standard_normal((20, 3))
    vals = pucci_bruteforce_sweep(Xs, ELL, samples=5000, rng=9)
    for (a, b, c), val in zip(Xs, vals):
        assert val <= pucci(np.array([[a, b], [b, c]]), ELL, "+") + 1e-10


# library F -> how its discrete value picks among the frames' values
# (axes first, then in 2D the diagonals): P+ the max, P- the min, and a
# linear F the axis frame
_LIBRARY_F = {
    "pucci_plus": (lambda ell, n: pucci_operator(ell, "+"), np.max),
    "pucci_minus": (lambda ell, n: pucci_operator(ell, "-"), np.min),
    "laplacian": (lambda ell, n: laplacian_operator(), None),
    "weighted_trace": (lambda ell, n: weighted_trace_operator(
        [ell.lam, ell.Lam][:n]), None),
}


@settings(max_examples=200, deadline=None)
@given(tag=st.sampled_from(sorted(_LIBRARY_F)), n=st.sampled_from([1, 2]),
       lam=st.floats(0.1, 10.0), ratio=st.floats(1.0, 10.0), data=st.data())
def test_stencil_is_monotone_and_matches_F_on_the_active_frame(tag, n, lam,
                                                               ratio, data):
    make, pick = _LIBRARY_F[tag]
    F = make(EllipticityPair(lam, lam * ratio), n)
    pairs = 1 if n == 1 else 4
    d2 = np.array(data.draw(st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=pairs, max_size=pairs),
        min_size=1, max_size=6)))
    x = np.zeros((len(d2), n))
    weights = F.stencil(x, d2)
    assert weights.shape == d2.shape
    assert np.all(weights >= 0.0)
    Fh = (weights * d2).sum(axis=1)
    frames = [d2[:, :n]] + ([d2[:, 2:]] if n == 2 else [])
    values = np.stack([F(x, np.eye(n) * fr[:, None, :]) for fr in frames])
    want = values[0] if pick is None else pick(values, axis=0)
    if n == 1:
        assert np.array_equal(Fh, want)
    else:
        np.testing.assert_allclose(Fh, want, rtol=1e-12,
                                   atol=1e-12 * (1.0 + np.abs(d2).max()))


def test_uniform_ellipticity_pucci_and_laplacian():
    # every library F lies in the Pucci envelope of its own pair:
    # P-(Y-X) <= F(x,Y) - F(x,X) <= P+(Y-X), up to rounding
    rng = np.random.default_rng(0)
    for tag, (make, _) in _LIBRARY_F.items():
        for n in (1, 2):
            F = make(ELL, n)
            x = rng.uniform(-10.0, 10.0, (300, n))
            X = rng.standard_normal((300, n, n))
            Y = rng.standard_normal((300, n, n))
            X, Y = X + np.swapaxes(X, 1, 2), Y + np.swapaxes(Y, 1, 2)
            diff, ell = F(x, Y) - F(x, X), F.ellipticity
            assert np.all(diff <= pucci(Y - X, ell, "+") + 1e-12), (tag, n)
            assert np.all(diff >= pucci(Y - X, ell, "-") - 1e-12), (tag, n)


def test_weighted_trace_default_pair():
    F = weighted_trace_operator([1.0, 3.0])
    assert F.ellipticity == EllipticityPair(1.0, 3.0)
    X = np.diag([2.0, -1.0])[None, :, :]
    assert F(np.zeros((1, 2)), X)[0] == pytest.approx(2.0 - 3.0)


def test_coeff_bounds():
    c = Coeff(c0=2.0, amp=-0.5, freq=3.0)
    assert c.sup == pytest.approx(2.5)
    assert c.inf == pytest.approx(1.5)
    assert c.sup_abs == pytest.approx(2.5)
    assert c.lipschitz(2) == pytest.approx(0.5 * 3.0 * math.sqrt(2.0))
    x = np.array([[0.1, 0.2], [1.0, -1.0]])
    assert np.all(c(x) <= c.sup + 1e-12)
    assert np.all(c(x) >= c.inf - 1e-12)
    assert np.all(Coeff(c0=4.0)(x) == 4.0)


LIBRARY_CASES = [
    ("zero", {}),
    ("prototype", {"c1": 1.0, "cm": 1.0, "m": 2.0}),
    ("prototype", {"c1": {"c0": 1.0, "amp": 0.3}, "cm": 1.0, "m": 1.5}),
    ("prototype", {"c1": 2.0, "cm": 1.0, "m": 1.0}),
    ("two_power", {"c": 1.0, "a": 0.5, "m": 2.0, "l": 1.5}),
    ("two_power", {"c": {"c0": 1.0, "amp": 0.2}, "a": -0.5, "m": 1.8, "l": 1.0}),
    ("rational_factor", {"c": 1.0}),
    ("sup_inf", {"matrices": [[[[2.0, 0.0], [0.0, 1.0]]],
                              [[[1.0, 0.5], [0.5, 1.0]]]], "m": 2.0}),
]


@pytest.mark.parametrize("tag,params", LIBRARY_CASES)
def test_library_claims_hold(tag, params):
    H = hamiltonian_library(tag, **params)
    for condition in H.claims:
        rep = check_hamiltonian(H, condition, samples=50_000, rng=3)
        assert rep.passed, (tag, condition, rep.worst_margin)


def test_library_zero_values():
    H = hamiltonian_library("zero")
    p = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert np.all(H(np.zeros((2, 2)), p) == 0.0)
    assert set(H.claims) == {"lipschitz_structure", "shift_modulus",
                             "convexity_type", "sublinearization"}


def test_library_point_values():
    Hp = hamiltonian_library("prototype", c1=2.0, cm=3.0, m=1.5, n=1)
    x = np.zeros((1, 1))
    assert Hp(x, np.array([[4.0]]))[0] == pytest.approx(2.0 * 4.0 + 3.0 * 8.0)
    Hr = hamiltonian_library("rational_factor", c=2.0)
    e1 = np.array([[1.0, 0.0]])
    assert Hr(np.zeros((1, 2)), e1)[0] == pytest.approx(-1.0)
    assert Hr(np.zeros((1, 2)), np.zeros((1, 2)))[0] == pytest.approx(0.0)
    Hs = hamiltonian_library("sup_inf", matrices=[[2.0 * np.eye(2)]], m=2.0)
    assert Hs(np.zeros((1, 2)), e1)[0] == pytest.approx(2.0)


def test_library_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hamiltonian_library("no_such_tag")
    with pytest.raises(ValueError):
        hamiltonian_library("prototype", m=2.5)
    with pytest.raises(ValueError):
        hamiltonian_library("two_power", l=0.5, m=2.0)
    with pytest.raises(ValueError):
        hamiltonian_library("two_power", c={"c0": 0.1, "amp": 0.2})
    with pytest.raises(ValueError):
        hamiltonian_library("sup_inf", matrices=[[np.diag([1.0, -0.5])]])
    for matrices in ([], [1, 2]):  # no group; groups that are not lists
        with pytest.raises(ValueError, match="nonempty groups of symmetric"):
            hamiltonian_library("sup_inf", matrices=matrices)


def test_prototype_m1_has_no_convexity_metadata():
    H = hamiltonian_library("prototype", c1=1.0, cm=1.0, m=1.0)
    assert H.convexity is None
    with pytest.raises(MetadataError):
        check_hamiltonian(H, "convexity_type", samples=10, rng=0)
    with pytest.raises(ValueError):
        check_hamiltonian(H, "no_such_condition", samples=10, rng=0)
    with pytest.raises(ValueError):
        check_hamiltonian(H, "lipschitz_structure", samples=0, rng=0)


def test_convexity_margin_hand_value():
    # H = |p|^2: H(p) - sigma H(p/sigma) = (1 - 1/sigma)|p|^2 and the stored
    # bound is (1-sigma)(-0.95|p|^2), so the margin at sigma, |p|=r is
    # ((1-sigma)/sigma - 0.95(1-sigma)) r^2 > 0.
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0)
    c_lower, A, sigma0 = H.convexity
    assert c_lower == pytest.approx(0.95)
    assert A == 0.0
    sigma, r = 0.5, 2.0
    p = np.array([[r, 0.0]])
    quantity = float(H(np.zeros((1, 2)), p)[0]
                     - sigma * H(np.zeros((1, 2)), p / sigma)[0])
    margin = (1 - sigma) * (-c_lower * r ** 2 + A) - quantity
    assert margin == pytest.approx(((1 - sigma) / sigma - 0.95 * (1 - sigma)) * r ** 2)


def test_negate_hamiltonian():
    H = hamiltonian_library("prototype", c1=1.0, cm=1.0, m=2.0)
    G = negate_hamiltonian(H)
    assert G.tag == "negated_prototype"
    assert set(G.claims) == {"lipschitz_structure", "shift_modulus"}
    p = np.array([[1.0, 1.0]])
    x = np.zeros((1, 2))
    assert G(x, p)[0] == pytest.approx(-H(x, p)[0])
    rep = check_hamiltonian(G, "convexity_type", samples=50_000, rng=4)
    assert not rep.passed  # -H violates the convexity-type bound


# (tag, params for dimension n): every library tag, constant and
# x-dependent coefficients, prototype at m = 1, 1.5 and 2 with c1 != 0,
# two_power at l = 1 and l > 1; sup_inf's groups hold two forms, so both
# its min and its max pick
def _sup_inf_matrices(n):
    if n == 1:
        return [[[[2.0]], [[3.0]]], [[[1.5]]]]
    return [[[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]],
            [[[1.5, -0.3], [-0.3, 2.0]]]]


GRADIENT_CASES = [
    ("zero", lambda n: {}),
    ("prototype", lambda n: {"c1": 0.7, "cm": 1.0, "m": 1.0}),
    ("prototype", lambda n: {"c1": {"c0": 1.0, "amp": 0.3},
                             "cm": {"c0": 1.0, "amp": 0.4, "freq": 2.0},
                             "m": 1.5}),
    ("prototype", lambda n: {"c1": -0.5, "cm": 2.0, "m": 2.0}),
    ("two_power", lambda n: {"c": 1.0, "a": 0.5, "m": 2.0, "l": 1.5}),
    ("two_power", lambda n: {"c": {"c0": 1.0, "amp": 0.2}, "a": -0.5,
                             "m": 1.8, "l": 1.0}),
    ("rational_factor", lambda n: {"c": 2.0}),
    ("rational_factor", lambda n: {"c": {"c0": 1.0, "amp": 0.5}}),
    ("sup_inf", lambda n: {"matrices": _sup_inf_matrices(n), "m": 1.6}),
    ("sup_inf", lambda n: {"matrices": _sup_inf_matrices(n), "m": 2.0}),
]
GRADIENT_RTOL = 1e-6


@settings(max_examples=300, deadline=None)
@given(case=st.integers(0, len(GRADIENT_CASES) - 1), n=st.sampled_from([1, 2]),
       negated=st.booleans(),
       x=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       angle=st.floats(0.0, 2.0 * np.pi), log_r=st.floats(-3.0, 2.0))
def test_gradient_matches_central_differences_of_H(case, n, negated, x, angle,
                                                   log_r):
    tag, params = GRADIENT_CASES[case]
    H = hamiltonian_library(tag, n=n, **params(n))
    if negated:
        H = negate_hamiltonian(H)
    x = np.array([x[:n]])
    r = 10.0 ** log_r
    p = r * (np.array([[np.cos(angle)]]) if n == 1
             else np.array([[np.cos(angle), np.sin(angle)]]))
    if tag == "sup_inf":
        # the gradient jumps where two forms tie: keep the central
        # differences' stencil away from every tie
        forms = [float(p[0] @ np.asarray(S) @ p[0])
                 for grp in params(n)["matrices"] for S in grp]
        gaps = np.abs(np.subtract.outer(forms, forms))
        assume(gaps[np.triu_indices(len(forms), 1)].min() > 1e-4 * max(forms))
    grad = H.gradient(x, p)
    assert grad.shape == (1, n)
    # |p| >= 1e-3, steps of 1e-6 |p|: truncation (1e-12 relative) and
    # rounding (about 1e-10 of |H|/|p|) stay far below the tolerance
    step = 1e-6 * r
    fd = np.array([(H(x, p + step * e) - H(x, p - step * e))[0] / (2.0 * step)
                   for e in np.eye(n)])
    assert np.linalg.norm(grad[0] - fd) <= GRADIENT_RTOL * (
        1.0 + np.linalg.norm(grad[0])), (tag, grad, fd)
    zero = H.gradient(x, np.zeros((1, n)))
    assert zero.shape == (1, n) and np.all(zero == 0.0)


def test_nan_margins_fail_every_condition():
    # NaN on the first 200,000-sample chunk only: a later chunk's finite
    # margins must not replace it as the worst
    def ev(x, p):
        return np.full(np.shape(p)[:-1], np.nan if len(p) > 1 else 0.0)
    H = HamiltonianH(evaluator=ev, m=2.0, gamma1=1.0, gamma_m=1.0,
                     gradient=lambda x, p: np.zeros_like(p),
                     convexity=(1.0, 1.0, 0.5))
    for condition in CONDITIONS:
        rep = check_hamiltonian(H, condition, samples=200_001, rng=0)
        assert math.isnan(rep.worst_margin) and not rep.passed, condition

    # the only NaN at one sample of the first chunk's second block, where
    # x is the row the seed draws there (x is each chunk's first draw):
    # neither the first block's finite margins nor the later blocks' and
    # the next chunk's may take its place
    row = operators._BLOCK + 1
    x_nan = np.random.default_rng(0).uniform(
        -10.0, 10.0, (operators._CHUNK, 2))[row]

    def ev_one(x, p):
        return np.where((x == x_nan).all(axis=1), np.nan, 0.0)
    H = HamiltonianH(evaluator=ev_one, m=2.0, gamma1=1.0, gamma_m=1.0,
                     gradient=lambda x, p: np.zeros_like(p),
                     convexity=(1.0, 1.0, 0.5))
    for condition in CONDITIONS:
        rep = check_hamiltonian(H, condition, samples=200_001, rng=0)
        assert math.isnan(rep.worst_margin), condition
        assert rep.witness["x"] == x_nan.tolist(), condition


def _sweeps():
    """Every library tag x claimed condition, as (id, call) pairs."""
    for i, (tag, params) in enumerate(LIBRARY_CASES):
        H = hamiltonian_library(tag, **params)
        for condition in H.claims:
            yield (f"{tag}-params{i}-{condition}",
                   lambda samples, H=H, c=condition:
                   check_hamiltonian(H, c, samples, rng=5))


_SWEEPS = dict(_sweeps())


@pytest.mark.parametrize("sweep", list(_SWEEPS))
def test_block_size_does_not_change_the_sweep(monkeypatch, sweep):
    # the real chunk at 200,001 samples (two chunks) with the default block
    # and one block per chunk; then 50-sample chunks at 101 samples (three
    # chunks, the last of one sample) with blocks of 1, 7 and the chunk
    for chunk, samples, blocks in (
            (operators._CHUNK, 200_001, (operators._BLOCK, operators._CHUNK)),
            (50, 101, (1, 7, 50))):
        monkeypatch.setattr(operators, "_CHUNK", chunk)
        reports = []
        for block in blocks:
            monkeypatch.setattr(operators, "_BLOCK", block)
            rep = _SWEEPS[sweep](samples)
            reports.append(repr((rep.worst_margin, rep.witness)))
        assert reports == reports[:1] * len(blocks), (chunk, blocks)


def _run(H, conditions, samples, seed):
    """The conditions swept as a check-hamiltonian run: one generator and
    one set of sample buffers."""
    rng = np.random.default_rng(seed)
    workspace = sample_workspace(samples)
    return rng, [check_hamiltonian(H, c, samples, rng, workspace=workspace)
                 for c in conditions]


@pytest.mark.parametrize("tag,params", LIBRARY_CASES)
def test_one_run_equals_one_call_per_condition(tag, params):
    # a run draws every condition into one set of buffers; its reports and
    # the generator's final state are those of one call per condition with
    # buffers of its own, each from the state the previous call left
    # (20,000 samples: two blocks)
    H = hamiltonian_library(tag, **params)
    run_rng, run = _run(H, H.claims, 20_000, 8)
    call_rng = np.random.default_rng(8)
    calls = [check_hamiltonian(H, c, 20_000, rng=call_rng) for c in H.claims]
    assert repr([(r.condition, r.worst_margin, r.witness) for r in run]) \
        == repr([(r.condition, r.worst_margin, r.witness) for r in calls])
    assert run_rng.bit_generator.state == call_rng.bit_generator.state


def test_witness_outlives_the_buffers_of_later_sweeps():
    # the second sweep of one condition draws other samples into the same
    # buffers; the first sweep's witness is still the one it found
    H = hamiltonian_library("prototype", c1=1.0, cm=1.0, m=2.0)
    _, (first, second) = _run(H, ["lipschitz_structure"] * 2, 1_000, 9)
    alone = check_hamiltonian(H, "lipschitz_structure", 1_000, rng=9)
    assert repr((first.worst_margin, first.witness)) \
        == repr((alone.worst_margin, alone.witness))
    assert first.witness != second.witness


@pytest.mark.parametrize("samples, conditions, chunks", [
    (1, CONDITIONS, [1]),
    (operators._CHUNK + 1, ["lipschitz_structure"], [operators._CHUNK, 1]),
])
def test_one_workspace_of_one_chunk_per_run(monkeypatch, samples, conditions,
                                            chunks):
    drawn = []
    chunk = operators._chunk

    def spy_chunk(buffers, count):
        drawn.append(chunk(buffers, count))
        return drawn[-1]
    monkeypatch.setattr(operators, "_chunk", spy_chunk)
    workspace = sample_workspace(samples)
    assert {len(buf) for buf in workspace.values()} == {chunks[0]}
    rng = np.random.default_rng(0)
    for c in conditions:
        check_hamiltonian(hamiltonian_library("two_power"), c, samples, rng,
                          workspace=workspace)
    assert [len(views["x"]) for views in drawn] == chunks * len(conditions)
    assert all(np.shares_memory(view, workspace[key])
               for views in drawn for key, view in views.items())
    with pytest.raises(ValueError):
        check_hamiltonian(hamiltonian_library("two_power"), conditions[0],
                          samples + chunks[0], rng,
                          workspace=sample_workspace(chunks[-1]))


def test_tilde_gamma_value():
    assert tilde_gamma(1.0, 2.0, 1.0) == pytest.approx(1.25)
    assert tilde_gamma(2.0, 2.0, 1.0) == pytest.approx(3.0)
    assert tilde_gamma(0.0, 1.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        tilde_gamma(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        tilde_gamma(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        tilde_gamma(1.0, 2.0, 0.0)


def test_empirical_increment_constant():
    C = empirical_increment_constant(2.0, samples=200_000, rng=0)
    # exact constant for m=2 is 2 (attained as |p|/|q| -> infinity)
    assert 1.5 <= C <= 2.0 + 1e-9
    C15 = empirical_increment_constant(1.5, samples=100_000, rng=0)
    assert 0.0 < C15 <= 2.0 + 1e-9


def test_empirical_increment_constant_with_only_zero_q():
    # seed 13 draws q = 0 for its one sample: no ratio is defined, the
    # sweep has no margin to take the minimum of, and the constant is 0
    assert empirical_increment_constant(2.0, samples=1, rng=13) == 0.0
