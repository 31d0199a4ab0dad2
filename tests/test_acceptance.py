"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line,
plus a check that criterion 7's verdict rejects a wrong separation table.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 6 (1D observed order >= 1.0) is the one expected failure:
it is asserted at its stated threshold although the first-order monotone
upwind gradient (see the solver module docstring) observes orders ~0.92 and
~0.96. Criterion 7 checks boundary independence against the in-repo
continuum oracle ``osserman_lab.entire.continuum_separation_table``, which
gives sup_{B_1}u_8 ~ 0.28 and tail exponent ~ 1.47 for its experiment.
"""

import copy
import filecmp
import itertools
import json
import os

import numpy as np
import pytest

from osserman_lab.barrier import (barrier_constants, uniqueness_scaling,
                                  verify_barrier_inequality)
from osserman_lab.cli import main
from osserman_lab.config import build_boundary, build_problem
from osserman_lab.core import build_ball_grid
from osserman_lab.entire import (continuum_separation_table,
                                 fit_decay_exponent, rho_threshold,
                                 rho_threshold_closed_form)
from osserman_lab.operators import (EllipticityPair, check_hamiltonian,
                                    hamiltonian_library, laplacian_operator,
                                    pucci, pucci_bruteforce_sweep,
                                    pucci_operator, tilde_gamma)
from osserman_lab.solver import ProblemSpec, mms_convergence, solve_dirichlet
from osserman_lab.uniqueness import (CounterexampleField,
                                     counterexample_residual, delta_s_oracle)


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    return ok


# ---------------------------------------------------------------------------
# criterion 7/12 shared fixture: the expanding-ball run through the CLI,
# executed twice with identical config and seed
# ---------------------------------------------------------------------------

ENTIRE_CFG = {
    "problem": {
        "s": 3.0,
        "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 1.0},
        "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0,
                        "n": 1},
        "f": {"tag": "zero"},
    },
    "entire": {"k_max": 8, "h": 0.02, "tol": 1e-8, "max_iter": 5_000_000,
               "n": 1, "boundary": {"tag": "constant", "value": 0.0},
               "boundary2": {"tag": "constant", "value": 100.0}},
}


@pytest.fixture(scope="session")
def entire_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("entire")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(ENTIRE_CFG))
    outs = []
    for tag in ("first", "second"):
        out = str(base / tag)
        rc = main(["entire", "--config", str(cfg_path), "--seed", "0",
                   "--out", out, "--quiet"])
        assert rc == 0
        outs.append(out)
    return outs


def test_criterion_1_barrier_inequality():
    worst = -np.inf
    combos = list(itertools.product(
        [(3.0, 1.0), (3.0, 1.5), (3.0, 2.0), (2.0, 1.2), (4.0, 2.0)],
        [1, 2], [1.0, 4.0, 16.0], [0.0, 1.0], [0.5, 1.0, 8.0], [0.25, 1.0]))
    assert len(combos) >= 60
    for (s, m), n, R, gamma1, gamma, delta in combos:
        spec = barrier_constants(s=s, m=m, n=n, Lam=1.0, gamma1=gamma1,
                                 gamma=gamma, delta=delta, R=R)
        grid = build_ball_grid([0.0] * n, 0.999 * R, 0.999 * R / 40.0, n)
        rep = verify_barrier_inequality(spec, grid)
        worst = max(worst, rep.extra["max_residual"])
    ok = worst <= 1e-9
    _report(1, "barrier inequality", ok,
            f"{len(combos)} combos, max residual {worst:.3e}")
    assert ok


def test_criterion_2_pucci_oracle():
    rng = np.random.default_rng(12345)
    ell = EllipticityPair(1.0, 2.0)
    N = 1000
    mats = rng.standard_normal((N, 2, 2))
    mats = mats + np.swapaxes(mats, 1, 2)
    X_upper = np.stack([mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]], axis=1)
    closed = np.array([pucci(X, ell, "+") for X in mats])
    sampled = np.empty(N)
    for lo in range(0, N, 100):  # chunked: 1e5 x 1e3 at once is too large
        sampled[lo:lo + 100] = pucci_bruteforce_sweep(
            X_upper[lo:lo + 100], ell, samples=100_000, rng=777)
    lower_ok = (closed - sampled).min() >= -1e-9
    close_ok = np.abs(closed - sampled).max() <= 0.02
    ok = lower_ok and close_ok
    _report(2, "Pucci oracle agreement", ok,
            f"max gap {np.abs(closed - sampled).max():.2e}")
    assert ok


def test_criterion_3_counterexample_exactness():
    rng = np.random.default_rng(3)
    ok = True
    for alpha in (0.0, 0.5, 1.0, 10.0):
        for sign in ("+", "-"):
            for n in (1, 2):
                fld = CounterexampleField(alpha=alpha, sign=sign, n=n)
                pts = rng.uniform(-5.0, 5.0, (1000, n))
                rep = counterexample_residual(fld, pts, "u")
                ok = ok and rep.passed
    _report(3, "counterexample exactness", ok)
    assert ok


def test_criterion_4_delta_s_oracle():
    worst = 0.0
    for s in (1.5, 2.0, 2.5, 3.0, 4.0):
        worst = max(worst, abs(delta_s_oracle(s) - 2.0 ** (1.0 - s)))
    ok = worst <= 1e-6
    _report(4, "delta(s) oracle", ok, f"max deviation {worst:.2e}")
    assert ok


def test_criterion_5_structure_conditions():
    library = [
        hamiltonian_library("zero"),
        hamiltonian_library("prototype", c1=1.0, cm=1.0, m=2.0),
        hamiltonian_library("prototype", c1={"c0": 1.0, "amp": 0.3},
                            cm=1.0, m=1.5),
        hamiltonian_library("two_power", c=1.0, a=0.5, m=2.0, l=1.5),
        hamiltonian_library("two_power", c={"c0": 1.0, "amp": 0.2},
                            a=-0.5, m=1.8, l=1.0),
        hamiltonian_library("rational_factor", c=1.0),
        hamiltonian_library("sup_inf",
                            matrices=[[np.diag([2.0, 1.0])],
                                      [np.array([[1.0, 0.5], [0.5, 1.0]])]],
                            m=2.0),
    ]
    ok = True
    worst = np.inf
    for H in library:
        for condition in H.claims:
            rep = check_hamiltonian(H, condition, samples=1_000_000, rng=11)
            worst = min(worst, rep.worst_margin)
            ok = ok and rep.worst_margin >= -1e-9
    _report(5, "structure-condition suites", ok, f"worst margin {worst:.2e}")
    assert ok


def test_criterion_6_mms_convergence():
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=1)

    def f(x):
        return -np.cos(x[:, 0]) + np.sin(x[:, 0]) ** 2 - np.cos(x[:, 0]) ** 3

    problem = ProblemSpec(F=laplacian_operator(), H=H, s=3.0, f=f)
    rows = mms_convergence(problem, lambda x: np.cos(x[:, 0]), 0.0, 1.0, 1,
                           [0.1, 0.05, 0.025], tol=1e-10, max_iter=2_000_000)
    orders = [r["order"] for r in rows[1:]]
    order_ok = all(r["converged"] for r in rows) and min(orders) >= 1.0

    def paraboloid(x):
        return 1.0 - (x * x).sum(axis=1)

    ell = EllipticityPair(1.0, 1.0)
    prob2 = ProblemSpec(
        F=pucci_operator(ell, "+"), H=hamiltonian_library("zero", n=2),
        s=2.0,
        f=lambda x: -4.0 - np.abs(paraboloid(x)) * paraboloid(x))
    errs = {}
    for h in (0.1, 0.05):
        g = build_ball_grid([0.0, 0.0], 1.0, h, 2)
        sol, rep = solve_dirichlet(prob2, g, paraboloid,
                                   tol=1e-10, max_iter=2_000_000)
        exact = paraboloid(g.interior_nodes)
        errs[h] = float(np.abs(sol.interior_values - exact).max())
        assert rep.converged
    # O(h): the error/h ratio stays bounded (measured constant ~1.7)
    oh_ok = errs[0.05] <= 2.0 * 0.05 and errs[0.05] <= errs[0.1]

    ok = order_ok and oh_ok
    _report(6, "manufactured-solution convergence", ok,
            f"1D orders {['%.3f' % o for o in orders]}, "
            f"2D errors {errs[0.1]:.3e} -> {errs[0.05]:.3e}")
    assert ok


# Criterion 7 tolerances. The fixture's continuum separation decays like
# 1/k, not like k^-mu = k^-2: u_k lies above the solution w_k of w'' = w^3
# with the same data (comparison, since -|u'|^2 <= 0), and w_k(0) ~ 1.854/k;
# the barrier's centre value C_k k^-mu ~ a/k decays at the same rate, and mu
# is the blow-up rate at the sphere. So the discrete separations are held to
# the continuum oracle at the same nodes. The scheme is first order, and at
# h = 0.02 its gap to the oracle was 0.9-6.8% over k = 1..8, largest at
# small k where the boundary layer of the data 100 reaches into B_1: 10%
# bounds every k, and 2% at the largest k, where the layer is far from B_1.
# The tail exponents (1.494 against 1.467) must agree to 0.1. Dropping the
# gradient term (H = 0) lands 15% low at k = 8 with exponent 1.15, and fails.
SEPARATION_REL_GAP = 0.10
SEPARATION_REL_GAP_FINAL = 0.02
EXPONENT_GAP = 0.1


def criterion_7_verdict(radii, fd_seps, oracle_seps):
    """(ok, detail) for a discrete separation table against the oracle's."""
    fd = np.asarray(fd_seps, dtype=float)
    ref = np.asarray(oracle_seps, dtype=float)
    gaps = np.abs(fd - ref) / ref
    fd_expo = fit_decay_exponent(radii, fd)
    ref_expo = fit_decay_exponent(radii, ref)
    decreasing = bool(np.all(np.diff(fd) < 0.0))
    ok = (decreasing and gaps.max() <= SEPARATION_REL_GAP
          and gaps[-1] <= SEPARATION_REL_GAP_FINAL
          and abs(fd_expo - ref_expo) <= EXPONENT_GAP)
    detail = (f"final FD {fd[-1]:.4f} vs oracle {ref[-1]:.4f}, "
              f"exponent FD {fd_expo:.3f} vs oracle {ref_expo:.3f}, "
              f"max rel gap {gaps.max():.3f}, decreasing={decreasing}")
    return ok, detail


def test_criterion_7_boundary_independence(entire_runs):
    with open(os.path.join(entire_runs[0], "summary.json")) as fh:
        summary = json.load(fh)
    radii = summary["separation"]["radii"]
    seps = summary["separation"]["values"]
    assert summary["fitted_decay_exponent"] == fit_decay_exponent(radii, seps)
    cfg = ENTIRE_CFG["entire"]
    oracle = continuum_separation_table(
        build_problem(ENTIRE_CFG), cfg["k_max"],
        build_boundary(cfg["boundary"], cfg["n"]),
        build_boundary(cfg["boundary2"], cfg["n"]), cfg["h"])
    assert [row["k"] for row in oracle] == radii
    ok, detail = criterion_7_verdict(
        radii, seps, [row["separation"] for row in oracle])
    _report(7, "expanding-ball boundary independence", ok, detail)
    assert ok


def test_criterion_7_verdict_rejects_the_table_without_gradient_term():
    cfg = ENTIRE_CFG["entire"]
    no_gradient = copy.deepcopy(ENTIRE_CFG)
    no_gradient["problem"]["hamiltonian"] = {"tag": "zero", "n": 1}
    tables = [continuum_separation_table(build_problem(c), cfg["k_max"], 0.0,
                                         100.0, cfg["h"])
              for c in (ENTIRE_CFG, no_gradient)]
    radii = [row["k"] for row in tables[0]]
    truth, without = ([row["separation"] for row in t] for t in tables)
    assert criterion_7_verdict(radii, truth, truth)[0]
    assert not criterion_7_verdict(radii, without, truth)[0]


def test_criterion_8_sharpness_control():
    # Boundary data reach e^{sqrt(2)*8} ~ 8.1e4 at k=8, where |u|u ~ 6.6e9
    # and rounding alone leaves a residual of about 1.3e-5 (Newton's line
    # search stalls there), so the absolute tolerance is set well above
    # that double-precision floor; the separation signal measured is O(1).
    H = hamiltonian_library("prototype", c1=0.0, cm=0.5, m=2.0, n=1)
    problem = ProblemSpec(F=laplacian_operator(), H=H, s=2.0,
                          f=lambda x: -1.0)
    h, tol = 0.05, 5e-4
    centers = {}
    for alpha in (0.0, 1.0):
        fld = CounterexampleField(alpha=alpha)
        vals = []
        for k in range(1, 9):
            g = build_ball_grid(0.0, float(k), h, 1)
            sol, rep = solve_dirichlet(problem, g, fld.values,
                                       tol, 5_000_000,
                                       initial=fld.values(g.interior_nodes))
            assert rep.converged, (alpha, k)
            origin = np.flatnonzero(g.lattice[: g.n_interior, 0] == 0)[0]
            vals.append(float(sol.values[origin]))
        centers[alpha] = vals
    seps = [abs(a - b) for a, b in zip(centers[0.0], centers[1.0])]
    ok = min(seps) >= 0.9
    _report(8, "sharpness control s=m", ok,
            f"min center separation {min(seps):.3f}")
    assert ok


def test_criterion_9_growth_threshold_identity():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(1.3, 6.0)
        m = rng.uniform(1.0 + 1e-3, min(2.0, s - 1e-3))
        a = rho_threshold(s, m)
        b = rho_threshold_closed_form(s, m)
        worst = max(worst, abs(a - b) / abs(b))
    ok = worst <= 1e-12
    _report(9, "growth-threshold identity", ok, f"max rel dev {worst:.2e}")
    assert ok


def test_criterion_10_k_scaling_identity():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(1.8, 6.0)
        # keep the exponent (s-m)/(m-1) in double range
        m = rng.uniform(1.3, min(2.0, s - 0.3))
        theta = 10.0 ** rng.uniform(-1, 1)
        b = 10.0 ** rng.uniform(-1, 1)
        tg = tilde_gamma(10.0 ** rng.uniform(-1, 1), m, 10.0 ** rng.uniform(-1, 1))
        _, limit = uniqueness_scaling(theta, s, m, b, tg)
        worst = max(worst, abs(limit - theta / 8.0) / (theta / 8.0))
    ok = worst <= 1e-12
    _report(10, "K-scaling identity", ok, f"max rel dev {worst:.2e}")
    assert ok


def test_criterion_11_discrete_comparison():
    rng = np.random.default_rng(1104)
    tol = 1e-8
    ok = True
    worst = np.inf
    for _ in range(10):
        s = rng.uniform(1.5, 3.0)
        cm = rng.uniform(0.5, 1.5)
        c1 = rng.uniform(0.0, 1.0)
        fconst = rng.uniform(-1.0, 0.0)
        H = hamiltonian_library("prototype", c1=c1, cm=cm, m=2.0, n=1)
        problem = ProblemSpec(F=laplacian_operator(), H=H, s=s,
                              f=lambda x, c=fconst: c)
        g = build_ball_grid(0.0, 1.0, 0.1, 1)
        lo_val = rng.uniform(0.0, 1.0)
        hi_val = lo_val + rng.uniform(0.1, 1.0)
        lo, rl = solve_dirichlet(problem, g, lambda x: lo_val, tol, 2_000_000)
        hi, rh = solve_dirichlet(problem, g, lambda x: hi_val, tol, 2_000_000)
        assert rl.converged and rh.converged
        gap = float((hi.values - lo.values).min())
        worst = min(worst, gap)
        ok = ok and gap >= -10.0 * tol
    _report(11, "discrete comparison principle", ok, f"min gap {worst:.2e}")
    assert ok


def test_criterion_12_determinism(entire_runs):
    names = sorted(os.listdir(entire_runs[0]))
    assert names == sorted(os.listdir(entire_runs[1]))
    match, mismatch, errors = filecmp.cmpfiles(entire_runs[0], entire_runs[1],
                                               names, shallow=False)
    ok = not mismatch and not errors and set(match) == set(names)
    _report(12, "determinism", ok, f"{len(match)} files byte-identical")
    assert ok
