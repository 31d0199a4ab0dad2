import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import osserman_lab
from osserman_lab.barrier import barrier_constants, verify_barrier_inequality
from osserman_lab.cli import _write_csv, main
from osserman_lab.core import build_ball_grid


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def _cell(value) -> str:
    """Per-cell CSV formatting the column-wise writer must reproduce."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % int(value)
    return "%.17g" % float(value)


def _package_env():
    """The environment of a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(osserman_lab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _expected_csv(header, columns) -> bytes:
    rows = len(columns[0]) if columns else 0
    return (",".join(header) + "\n" + "".join(
        ",".join(_cell(col[i]) for col in columns) + "\n"
        for i in range(rows))).encode()


def test_import_cli_loads_no_scipy_submodule():
    # scipy.linalg, scipy.sparse, scipy.optimize and scipy.integrate are
    # imported inside the functions that use them, so commands that never
    # solve start fast.
    env = _package_env()
    code = ("import sys, osserman_lab.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.linalg', 'scipy.sparse', 'scipy.optimize',"
            " 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_1d_solve_loads_no_scipy_sparse(tmp_path):
    # a 1D Newton step is LAPACK's tridiagonal solve, with no sparse matrix
    cfg = _write_cfg(tmp_path, "cfg.json", {
        **SOLVE_CFG, "boundary": {"tag": "constant", "value": 1.0}})
    out = str(tmp_path / "out")
    code = ("import sys, osserman_lab.cli as cli; "
            f"assert cli.main(['solve', '--config', {cfg!r}, '--out', {out!r},"
            " '--quiet']) == 0; print(sorted(m for m in sys.modules"
            " if m.startswith('scipy.sparse')))")
    stdout = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                            check=True, capture_output=True, text=True).stdout
    assert stdout.strip() == "[]"
    assert _read_summary(out)["iterations"] > 0


def test_readme_quick_start_runs():
    # the README's one python block, run as a reader would paste it
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        code, = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("True") for line in lines)


def test_write_csv_matches_per_cell_formatting(tmp_path):
    floats = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                       0.1, -1.0 / 3.0, np.inf, 2.0 ** 60])
    rows = len(floats)
    columns = [
        np.arange(rows),
        floats,
        list(floats[::-1]),
        np.array([2 ** 63 - 1, -2 ** 63] * 4 + [0], dtype=np.int64),
        [2 ** 64 - 1] * rows,
        [10 ** 30 + i for i in range(rows)],
        np.arange(rows) % 2 == 0,
        [i % 3 == 0 for i in range(rows)],
        ["pucci_plus", "a b", "50%", "", "x", "y", "z", "-0", "true"],
        np.arange(-4, 5, dtype=np.float32) / np.float32(3.0),
    ]
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path / "t.csv"
    _write_csv(str(path), header, columns)
    want = ",".join(header) + "\n" + "".join(
        ",".join(_cell(col[i]) for col in columns) + "\n" for i in range(rows))
    assert path.read_bytes() == want.encode()
    _write_csv(str(path), ["k", "v"], [[], []])
    assert path.read_bytes() == b"k,v\n"


def _float_pool(dtype) -> np.ndarray:
    """Values a float column repeats: both zeros, NaNs of several signs and
    payloads, both infinities, the smallest subnormals and inexact values."""
    dtype = np.dtype(dtype)
    with np.errstate(over="ignore", under="ignore"):
        values = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 0.1,
                           -1.0 / 3.0, 2.0 ** 60, 1e-45, 6e-8]).astype(dtype)
    bits = f"u{dtype.itemsize}"
    nan = int(np.array(np.nan, dtype).view(bits))
    sign = 1 << (8 * dtype.itemsize - 1)
    nans = np.array([nan, nan + 1, nan + 2, nan | sign, (nan + 1) | sign],
                    dtype=bits).view(dtype)
    return np.concatenate([values, nans])


_POOLS = {dtype: _float_pool(dtype) for dtype in ("f8", "f4", "f2")}
_KINDS = ("f8", "f4", "f2", "f8-list", "nodes.T", "i8", "bool", "text")


@st.composite
def _tables(draw):
    """A few columns of one length drawn from small pools, so values repeat."""
    rows = draw(st.integers(0, 12))
    picks = st.lists(st.integers(0, len(_POOLS["f8"]) - 1), min_size=rows,
                     max_size=rows)
    columns = []
    for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5)):
        if kind == "nodes.T":  # strided rows of an (N, 2) array
            nodes = np.stack([_POOLS["f8"][draw(picks)] for _ in range(2)], 1)
            columns.extend(nodes.T)
        elif kind == "f8-list":
            columns.append(_POOLS["f8"][draw(picks)].tolist())
        elif kind in _POOLS:
            columns.append(_POOLS[kind][draw(picks)])
        elif kind == "i8":
            columns.append(np.array(draw(picks), dtype=np.int64) - 3)
        elif kind == "bool":
            columns.append(np.array(draw(picks)) % 2 == 0)
        else:
            columns.append(np.array(["a", "-0", "nan", ""])[
                np.array(draw(picks), dtype=int) % 4])
    return columns


@settings(max_examples=200, deadline=None)
@given(columns=_tables())
# -0.0 and 0.0 in one column, and a float32 column of odd length
@example(columns=[_POOLS["f8"][[1, 0, 1, 11, 14]],
                  _POOLS["f4"][[0, 1, 6, 12, 9]]])
def test_write_csv_dedupe_matches_per_cell_formatting(tmp_path_factory,
                                                      columns):
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_csv(str(path), header, columns)
    assert path.read_bytes() == _expected_csv(header, columns)


def test_verify_barrier_residuals_csv_matches_per_cell_formatting(tmp_path):
    params = {"s": 3.0, "m": 2.0, "n": 2, "Lam": 1.0, "gamma1": 1.0,
              "gamma": 1.0, "delta": 1.0, "R": 1.0}
    cfg = _write_cfg(tmp_path, "cfg.json", {"barrier": {**params, "h": 0.05}})
    out = str(tmp_path / "out")
    assert main(["verify-barrier", "--config", cfg, "--out", out,
                 "--quiet"]) == 0
    grid = build_ball_grid([0.0, 0.0], 0.999 * params["R"], 0.05, 2)
    res = verify_barrier_inequality(barrier_constants(**params),
                                    grid).extra["residuals"]
    columns = [np.arange(len(res)), *grid.interior_nodes.T, res]
    with open(os.path.join(out, "residuals.csv"), "rb") as fh:
        assert fh.read() == _expected_csv(
            ["node", "x0", "x1", "residual"], columns)


def _out_files(out) -> dict:
    contents = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            contents[name] = fh.read()
    return contents


BARRIER = {"s": 3.0, "m": 2.0, "n": 2, "Lam": 1.0, "gamma1": 0.0,
           "gamma": 1.0, "delta": 1.0, "R": 1.0, "h": 0.05}


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    # main's parser is built once per process; an option given to one call
    # must not leak into the next, and a rejected argv must leave it usable
    with pytest.raises(SystemExit) as exc:
        main(["verify-barrier", "--seed"])
    assert exc.value.code == 2
    check = _write_cfg(tmp_path, "check.json", {
        "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0},
        "check": {"samples": 200}})
    oracle = _write_cfg(tmp_path, "oracle.json",
                        {"oracle": {"s": 2.0, "samples": 50}})
    calls = [
        ["check-hamiltonian", "--config", check, "--seed", "5"],
        ["check-hamiltonian", "--config", check],
        ["oracle", "--config", oracle, "--seed", "5"],
        ["oracle", "--config", oracle],
    ]
    outs = []
    for i, argv in enumerate(calls):
        out = str(tmp_path / f"out{i}")
        assert main([*argv, "--out", out, "--quiet"]) == 0
        outs.append(out)
    assert [_read_summary(out)["seed"] for out in outs] == [5, 0, 5, 0]
    assert _read_summary(outs[0])["margins"] != _read_summary(outs[1])["margins"]
    for i, (argv, out) in enumerate(zip(calls, outs)):
        fresh = str(tmp_path / f"fresh{i}")
        subprocess.run([sys.executable, "-m", "osserman_lab.cli", *argv,
                        "--out", fresh, "--quiet"], env=_package_env(),
                       check=True)
        assert _out_files(out) == _out_files(fresh), argv


SOLVE_CFG = {
    "problem": {
        "s": 2.0,
        "operator": {"tag": "laplacian"},
        "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0, "n": 1},
        "f": {"tag": "zero"},
    },
    "grid": {"n": 1, "radius": 1.0, "h": 0.1},
    "boundary": {"tag": "constant", "value": 0.0},
    "solve": {"tol": 1e-10, "max_iter": 10000},
}


def test_verify_barrier_from_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "cfg.json", {"barrier": BARRIER})
    out = str(tmp_path / "out")
    assert main(["verify-barrier", "--config", cfg, "--out", out]) == 0
    assert "[verify-barrier] PASS" in capsys.readouterr().out
    for fname in ("residuals.csv", "summary.json", "config.json"):
        assert os.path.exists(os.path.join(out, fname))
    summary = _read_summary(out)
    assert summary["passed"] is True
    assert summary["constants"]["C_R"] == pytest.approx(32.0)
    assert summary["max_residual"] <= 1e-9
    assert summary["seed"] == 0
    assert summary["parameters"] == BARRIER


def test_verify_barrier_rejects_bad_s(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "cfg.json", {"barrier": {
        **BARRIER, "s": 0.5, "m": 1.0, "n": 1, "h": 0.1}})
    out = str(tmp_path / "o")
    assert main(["verify-barrier", "--config", cfg, "--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_solve_zero_data(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", SOLVE_CFG)
    out = str(tmp_path / "out")
    rc = main(["solve", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 0
    summary = _read_summary(out)
    assert summary["converged"] is True
    with open(os.path.join(out, "field.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "node,x0,value"
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg_dict = dict(SOLVE_CFG)
    cfg_dict["boundary"] = {"tag": "cos"}
    cfg = _write_cfg(tmp_path, "cfg.json", cfg_dict)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
        outs.append(out)
    for fname in ("field.csv", "summary.json", "config.json"):
        with open(os.path.join(outs[0], fname), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], fname), "rb") as fh:
            second = fh.read()
        assert first == second, fname


def test_solve_requires_config(tmp_path, capsys):
    rc = main(["solve", "--out", str(tmp_path / "o")])
    assert rc == 2
    rc = main(["solve", "--config", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


# solve's case is test_solve_requires_config
@pytest.mark.parametrize("command", ["verify-barrier", "entire",
                                     "check-hamiltonian", "oracle"])
def test_every_command_requires_config(tmp_path, capsys, command):
    out = str(tmp_path / "o")
    assert main([command, "--out", out]) == 2
    assert "config error at --config:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    pytest.param(["check-hamiltonian", "--s", "7"], id="check-s-as-seed"),
    pytest.param(["verify-barrier", "--R", "2"], id="barrier-R"),
    pytest.param(["verify-barrier", "--s", "3"], id="barrier-s"),
    pytest.param(["oracle", "--samples", "50"], id="oracle-samples"),
    pytest.param(["oracle", "delta-s"], id="oracle-delta-s"),
    pytest.param(["solve", "--se", "1"], id="solve-se-as-seed"),
    pytest.param(["entire", "--qui"], id="entire-qui-as-quiet"),
])
def test_removed_flags_and_option_prefixes_exit_2_and_write_nothing(tmp_path,
                                                                    argv):
    # every command gets a config it would run, so only the option fails
    cfg = _every_command_cfg(tmp_path)
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", cfg, "--out", out, "--quiet"])
    assert exc.value.code == 2
    assert not os.path.exists(out)


def _every_command_cfg(tmp_path):
    """A config that every command runs on: one dimension, 1, throughout."""
    return _write_cfg(tmp_path, "cfg.json", {
        "barrier": {**BARRIER, "n": 1}, "oracle": {"s": 2.0, "samples": 50},
        "hamiltonian": NO_CONVEXITY_H, "check": {"samples": 10},
        **SOLVE_CFG, "entire": {"k_max": 1, "h": 0.25}})


COMMANDS = ["verify-barrier", "solve", "entire", "check-hamiltonian", "oracle"]


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    assert main([command, "--config", _every_command_cfg(tmp_path),
                 "--seed", "-1", "--out", out, "--quiet"]) == 2
    assert "config error at --seed:" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", COMMANDS)
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch,
                                            command):
    # --out itself, or a directory above it, is an existing file; or --out
    # is empty, which names no directory
    out = tmp_path / "out"
    out.write_text("kept\n")
    cfg = _every_command_cfg(tmp_path)
    monkeypatch.chdir(tmp_path)
    for target in (out, out / "sub", out / "sub" / "deeper", ""):
        assert main([command, "--config", cfg, "--out", str(target),
                     "--quiet"]) == 2
        assert "config error at --out:" in capsys.readouterr().err
        assert out.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out"]


def test_bad_json_and_bad_tag_are_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    cfg_dict = json.loads(json.dumps(SOLVE_CFG))
    cfg_dict["problem"]["operator"]["tag"] = "nope"
    cfg = _write_cfg(tmp_path, "cfg2.json", cfg_dict)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "nope" in err


with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as _fh:
    _README_CONFIGS = re.findall(r"```json\n(.*?)```", _fh.read(), re.S)


_README_COMMANDS = {"barrier": "verify-barrier", "oracle": "oracle",
                    "entire": "entire"}


@pytest.mark.parametrize("text", _README_CONFIGS, ids=[
    next(key for key in json.loads(text) if key in _README_COMMANDS)
    for text in _README_CONFIGS])
def test_readme_configs_run(tmp_path, text):
    # each documented config, run by the command of the section it holds
    command = next(_README_COMMANDS[key] for key in json.loads(text)
                   if key in _README_COMMANDS)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--quiet"]) == 0


def test_oracle_delta_s(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {"oracle": {"s": 2.0}})
    out = str(tmp_path / "out")
    assert main(["oracle", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = _read_summary(out)
    assert summary["parameters"] == {"s": 2.0, "samples": 20000}
    assert summary["delta_s"] == pytest.approx(0.5, abs=1e-9)
    assert summary["abs_difference"] < 1e-9


@pytest.mark.parametrize("s", [2000.0, 1e6])
def test_oracle_overflow_is_a_numerical_error(tmp_path, capsys, s):
    # |v|^s overflows on the oracle's scan (|v| <= 3/2 there, so from
    # s ~ 1,750 on); a NaN delta(s) must not pass
    cfg = _write_cfg(tmp_path, "cfg.json", {"oracle": {"s": s}})
    out = str(tmp_path / "out")
    assert main(["oracle", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert "numerical error:" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_check_hamiltonian_pass_and_fail(tmp_path):
    good = _write_cfg(tmp_path, "good.json", {
        "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0},
        "check": {"samples": 20000},
    })
    out = str(tmp_path / "good_out")
    assert main(["check-hamiltonian", "--config", good, "--out", out,
                 "--quiet"]) == 0
    summary = _read_summary(out)
    assert set(summary["margins"]) == {"lipschitz_structure", "shift_modulus",
                                       "convexity_type", "sublinearization"}
    with open(os.path.join(out, "margins.csv")) as fh:
        assert fh.readline().strip() == "condition,samples,worst_margin,passed"

    bad = _write_cfg(tmp_path, "bad.json", {
        "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0,
                        "negate": True},
        "check": {"condition": "convexity_type", "samples": 20000},
    })
    assert main(["check-hamiltonian", "--config", bad,
                 "--out", str(tmp_path / "bad_out"), "--quiet"]) == 1


def test_check_hamiltonian_zero_claims_follow_m(tmp_path, capsys):
    # at m = 1 the zero H claims no sublinearization, which needs m > 1;
    # m below 1 is rejected like prototype's
    good = _write_cfg(tmp_path, "good.json", {
        "hamiltonian": {"tag": "zero", "m": 1}, "check": {"samples": 100}})
    out = str(tmp_path / "good_out")
    assert main(["check-hamiltonian", "--config", good, "--out", out,
                 "--quiet"]) == 0
    assert set(_read_summary(out)["margins"]) == {
        "lipschitz_structure", "shift_modulus", "convexity_type"}
    bad = _write_cfg(tmp_path, "bad.json", {
        "hamiltonian": {"tag": "zero", "m": 0.5}, "check": {"samples": 100}})
    out = str(tmp_path / "bad_out")
    assert main(["check-hamiltonian", "--config", bad, "--out", out,
                 "--quiet"]) == 2
    assert "config error at hamiltonian:" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_entire_with_two_boundaries(tmp_path):
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "problem": {
            "s": 3.0,
            "operator": {"tag": "laplacian"},
            "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0,
                            "m": 2.0, "n": 1},
            "f": {"tag": "zero"},
        },
        "entire": {"k_max": 3, "h": 0.1, "tol": 1e-7, "max_iter": 500000,
                   "n": 1, "boundary": {"tag": "constant", "value": 0.0},
                   "boundary2": {"tag": "constant", "value": 10.0}},
    })
    out = str(tmp_path / "out")
    rc = main(["entire", "--config", cfg, "--out", out, "--quiet"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "stabilization.csv"))
    assert os.path.exists(os.path.join(out, "separation.csv"))
    summary = _read_summary(out)
    seps = summary["separation"]["values"]
    assert seps[0] > seps[1] > seps[2] > 0.0
    assert summary["fitted_decay_exponent"] is None  # only one tail point


def test_two_boundary_entire_builds_each_radius_once(tmp_path, monkeypatch):
    import osserman_lab.entire as entire

    radii = []
    build = entire.build_ball_grid

    def counted(center, R, h, n):
        radii.append(R)
        return build(center, R, h, n)

    monkeypatch.setattr(entire, "build_ball_grid", counted)
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "problem": SEPARATION_PROBLEM,
        "entire": {"k_max": 3, "h": 0.1, "tol": 1e-7, "max_iter": 500000,
                   "boundary": {"tag": "constant", "value": 0.0},
                   "boundary2": {"tag": "constant", "value": 10.0}}})
    assert main(["entire", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert radii == [1.0, 2.0, 3.0]


def test_entire_summary_has_one_solve_row_per_boundary_and_radius(tmp_path):
    # the criterion-7 problem at h = 0.04, k <= 4: each larger ball starts
    # from the previous solution shifted outward, so after k = 1 the
    # data-100 solves need few Newton steps
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "problem": {
            "s": 3.0,
            "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 1.0},
            "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0,
                            "m": 2.0, "n": 1},
            "f": {"tag": "zero"},
        },
        "entire": {"k_max": 4, "h": 0.04, "tol": 1e-8, "max_iter": 5000000,
                   "n": 1, "boundary": {"tag": "constant", "value": 0.0},
                   "boundary2": {"tag": "constant", "value": 100.0}},
    })
    out = str(tmp_path / "out")
    assert main(["entire", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = _read_summary(out)["solves"]
    assert [(r["boundary"], r["k"]) for r in rows] == [
        (b, k) for b in (0, 1) for k in (1, 2, 3, 4)]
    for row in rows:
        assert set(row) == {"boundary", "k", "iterations", "backtracks",
                            "final_residual", "converged"}
        assert row["converged"] and row["final_residual"] <= 1e-8
    assert all(r["iterations"] <= 6 for r in rows
               if r["boundary"] == 1 and r["k"] > 1)


SEPARATION_PROBLEM = {
    "s": 3.0,
    "operator": {"tag": "laplacian"},
    "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0, "n": 1},
    "f": {"tag": "zero"},
}


def _read_separation_csv(out):
    with open(os.path.join(out, "separation.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "k,separation"
    return [line.split(",") for line in lines[1:]]


def test_entire_identical_data_gives_zero_separations(tmp_path):
    # two runs from the same data solve the same systems, so in 2D too every
    # separation is exactly 0
    cfg = _write_cfg(tmp_path, "cfg.json", {
        "problem": {**SEPARATION_PROBLEM, "hamiltonian": {
            **SEPARATION_PROBLEM["hamiltonian"], "n": 2}},
        "entire": {"k_max": 2, "h": 0.25, "tol": 1e-7, "n": 2,
                   "boundary": {"tag": "constant", "value": 1.0},
                   "boundary2": {"tag": "constant", "value": 1.0}}})
    out = str(tmp_path / "out")
    assert main(["entire", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert _read_separation_csv(out) == [["1", "0"], ["2", "0"]]
    summary = _read_summary(out)
    assert summary["separation"] == {"radii": [1, 2], "values": [0.0, 0.0]}
    assert summary["passed"] is True and summary["flagged"] is False


@pytest.mark.parametrize("command", ["entire"])
def test_unconverged_solves_fail_the_run(tmp_path, capsys, command):
    # one Newton step cannot reach tol from data 10, so the second run stops
    # flagged at k = 1 while the first (data 0) converges
    cfg = {"problem": SEPARATION_PROBLEM,
           "entire": {"k_max": 3, "h": 0.1, "tol": 1e-7, "max_iter": 1,
                      "n": 1, "boundary": {"tag": "constant", "value": 0.0},
                      "boundary2": {"tag": "constant", "value": 10.0}}}
    out = str(tmp_path / "out")
    rc = main([command, "--config", _write_cfg(tmp_path, "cfg.json", cfg),
               "--out", out])
    assert rc == 1
    assert f"[{command}] FAIL" in capsys.readouterr().out
    summary = _read_summary(out)
    assert summary["passed"] is False
    assert summary["flagged"] is True
    assert summary["separation"]["radii"] == [1]


def _grid_cfg(**grid):
    return {"problem": SOLVE_CFG["problem"], "grid": {"n": 1, "radius": 1.0, "h": 0.1, **grid}}


NO_CONVEXITY_H = {"tag": "prototype", "c1": 1.0, "cm": 1.0, "m": 1.0}


def _check_cfg(**hamiltonian):
    return {"hamiltonian": hamiltonian, "check": {"samples": 10}}


def _hamiltonian_n_cfg(n):
    hamiltonian = {**SOLVE_CFG["problem"]["hamiltonian"], "n": n}
    return {**_grid_cfg(), "problem": {**SOLVE_CFG["problem"],
                                       "hamiltonian": hamiltonian}}


def _sup_inf_cfg(**keys):
    hamiltonian = {"tag": "sup_inf", "matrices": [[[[2.0, 0.0], [0.0, 1.0]]]],
                   **keys}
    return {**_grid_cfg(), "problem": {**SOLVE_CFG["problem"],
                                       "hamiltonian": hamiltonian}}


def _weights_cfg(weights):
    operator = {"tag": "weighted_trace", "weights": weights}
    return {**_grid_cfg(n=2, center=[0.0, 0.0], h=0.25),
            "problem": {**SOLVE_CFG["problem"], "operator": operator}}


def _condition_cfg(condition):
    return {"hamiltonian": NO_CONVEXITY_H,
            "check": {"condition": condition, "samples": 10}}


EXP_FAMILY = {"tag": "exp_family", "alpha": 1.0}


@pytest.mark.parametrize("command, cfg, key", [
    pytest.param("verify-barrier", {"barrier": {**BARRIER, "h": 0.6}}, None,
                 id="barrier-h"),
    pytest.param("verify-barrier", {"barrier": {**BARRIER, "n": 3, "h": 0.1}},
                 None, id="barrier-n"),
    pytest.param("solve", _grid_cfg(center=[0.0, 0.0]), "grid.center",
                 id="solve-center"),
    pytest.param("solve", _grid_cfg(n=3), None, id="solve-n"),
    # a dimension the grids do not take is rejected before anything is
    # sized by it
    pytest.param("verify-barrier", {"barrier": {**BARRIER, "n": 1e300}}, None,
                 id="barrier-n-huge"),
    pytest.param("solve", _grid_cfg(n=1e300), None, id="solve-n-huge"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1, "h": 0.25, "n": 1e300}}, None, id="entire-n-huge"),
    pytest.param("solve", _grid_cfg(center=[math.nan]), "grid.center",
                 id="solve-center-nan"),
    pytest.param("solve", _grid_cfg(center=[math.inf]), "grid.center",
                 id="solve-center-inf"),
    pytest.param("solve", _grid_cfg(center="a"), "grid.center",
                 id="solve-center-text"),
    pytest.param("solve", {**_grid_cfg(), "boundary": {**EXP_FAMILY, "n": 2}},
                 "boundary.n", id="solve-exp_family-n"),
    pytest.param("solve", {**_grid_cfg(),
                           "boundary": {**EXP_FAMILY, "negated": "yes"}},
                 "boundary.negated", id="solve-negated-text"),
    pytest.param("solve", _grid_cfg(radius=-1.0), None, id="solve-radius"),
    pytest.param("solve", _grid_cfg(h=0.6), None, id="solve-h"),
    pytest.param("solve", {**_grid_cfg(), "solve": {"tol": 0.0}},
                 "solve.tol", id="solve-tol"),
    pytest.param("solve", _grid_cfg(h=float("nan")), "grid.h",
                 id="solve-h-nan"),
    pytest.param("solve", {**_grid_cfg(), "solve": {"max_iter": float("inf")}},
                 "solve.max_iter", id="solve-max_iter-inf"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM,
                            "entire": {"k_max": 2, "h": 0.9}}, None,
                 id="entire-h"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM,
                            "entire": {"k_max": 0, "h": 0.1}},
                 "entire.k_max", id="entire-k_max"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 2, "h": 0.1, "separation_radius": -1.0,
        "boundary2": {"tag": "constant", "value": 1.0}}},
                 "entire.separation_radius", id="entire-separation-radius"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1, "h": 0.25, "boundary2": {**EXP_FAMILY, "n": 2}}},
                 "entire.boundary2.n", id="entire-exp_family-n"),
    pytest.param("check-hamiltonian", {"hamiltonian": NO_CONVEXITY_H, "check": {
        "condition": "convexity_type", "samples": 10}}, None,
                 id="check-constants"),
    pytest.param("check-hamiltonian", {"hamiltonian": NO_CONVEXITY_H, "check": {
        "condition": "nope", "samples": 10}}, "check.condition",
                 id="check-condition"),
    pytest.param("check-hamiltonian", _condition_cfg(0), "check.condition",
                 id="check-condition-zero"),
    pytest.param("check-hamiltonian", _condition_cfg(""),
                 "check.condition", id="check-condition-empty"),
    pytest.param("check-hamiltonian", {"problem": "pucci", "check": {
        "samples": 10}}, "hamiltonian", id="check-problem-text"),
    pytest.param("check-hamiltonian", {"hamiltonian": NO_CONVEXITY_H,
                                       "check": {"samples": 0}},
                 "check.samples", id="check-samples"),
    pytest.param("oracle", {"oracle": {"s": 2.0, "samples": 5}},
                 "oracle.samples", id="oracle-samples"),
    pytest.param("check-hamiltonian", _check_cfg(tag="two_power", sigma_0=0.9),
                 "hamiltonian", id="hamiltonian-unknown-key"),
    pytest.param("check-hamiltonian", _check_cfg(tag="sup_inf"),
                 "hamiltonian.matrices", id="hamiltonian-missing-key"),
    pytest.param("check-hamiltonian", _check_cfg(
        tag="prototype", c1=0.0, cm=1.0, m=2.0, negate="false"),
                 "hamiltonian.negate", id="hamiltonian-negate-text"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", n=math.inf),
                 "hamiltonian.n", id="hamiltonian-n-inf"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", c1=math.nan),
                 "hamiltonian.c1", id="hamiltonian-c1-nan"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", n=10 ** 400),
                 "hamiltonian.n", id="hamiltonian-n-huge-int"),
    # the checkers draw their points and gradients in 2D
    pytest.param("check-hamiltonian", _check_cfg(
        tag="two_power", c={"c0": 1.0, "amp": 0.5, "freq": 3.0}, n=1),
                 "hamiltonian.n", id="hamiltonian-n-1"),
    # sup_inf matrices are symmetric n x n: eigvalsh reads one triangle
    pytest.param("check-hamiltonian", _check_cfg(
        tag="sup_inf", matrices=[[[[2.0, 2.0], [0.0, 1.0]]]]),
                 "hamiltonian", id="sup_inf-asymmetric"),
    pytest.param("check-hamiltonian", _check_cfg(
        tag="sup_inf", matrices=[[np.eye(3).tolist()]]),
                 "hamiltonian", id="sup_inf-3x3"),
    pytest.param("solve", _sup_inf_cfg(n=1), "problem.hamiltonian",
                 id="solve-1d-sup_inf-2x2"),
    pytest.param("solve", _sup_inf_cfg(), "problem.hamiltonian",
                 id="solve-1d-sup_inf-n"),
    # the Hamiltonian's dimension n is an integer of at least 1
    pytest.param("solve", _hamiltonian_n_cfg(1.5), "problem.hamiltonian.n",
                 id="solve-hamiltonian-n-fraction"),
    pytest.param("solve", _hamiltonian_n_cfg(True), "problem.hamiltonian.n",
                 id="solve-hamiltonian-n-bool"),
    pytest.param("solve", _hamiltonian_n_cfg("1"), "problem.hamiltonian.n",
                 id="solve-hamiltonian-n-text"),
    pytest.param("solve", _hamiltonian_n_cfg(0), "problem.hamiltonian.n",
                 id="solve-hamiltonian-n-0"),
    pytest.param("solve", _hamiltonian_n_cfg(-1), "problem.hamiltonian.n",
                 id="solve-hamiltonian-n-negative"),
    pytest.param("solve", _grid_cfg(h=10 ** 400), "grid.h",
                 id="solve-h-huge-int"),
    pytest.param("solve", _weights_cfg(["a", 1.0]),
                 "problem.operator.weights", id="weights-text"),
    pytest.param("solve", _weights_cfg([math.nan, 1.0]),
                 "problem.operator.weights", id="weights-nan"),
    pytest.param("solve", _weights_cfg([math.inf, 1.0]),
                 "problem.operator.weights", id="weights-inf"),
    # integer keys take no fraction (an integral float such as 2.0 is fine)
    pytest.param("solve", _grid_cfg(n=1.5), "grid.n", id="solve-n-fraction"),
    pytest.param("verify-barrier", {"barrier": {**BARRIER, "n": 2.9}},
                 "barrier.n", id="barrier-n-fraction"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1, "h": 0.25, "n": 1.5}}, "entire.n", id="entire-n-fraction"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1.5, "h": 0.25}}, "entire.k_max", id="entire-k_max-fraction"),
    pytest.param("solve", {**_grid_cfg(), "solve": {"max_iter": -3}},
                 "solve.max_iter", id="solve-max_iter-negative"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1, "h": 0.25, "max_iter": 2.5}}, "entire.max_iter",
                 id="entire-max_iter-fraction"),
    pytest.param("check-hamiltonian", {"hamiltonian": NO_CONVEXITY_H,
                                       "check": {"samples": 10.5}},
                 "check.samples", id="check-samples-fraction"),
    pytest.param("oracle", {"oracle": {"s": 2.0, "samples": 50.5}},
                 "oracle.samples", id="oracle-samples-fraction"),
    pytest.param("solve", {**_grid_cfg(), "boundary": {**EXP_FAMILY,
                                                       "axis": 0.5}},
                 "boundary.axis", id="solve-exp_family-axis-fraction"),
    pytest.param("solve", {**_grid_cfg(), "boundary": {**EXP_FAMILY, "n": 1.5}},
                 "boundary.n", id="solve-exp_family-n-fraction"),
    # every object-valued key must hold a JSON object
    pytest.param("solve", {**_grid_cfg(), "problem": {**SOLVE_CFG["problem"],
                                                      "f": 3}},
                 "problem.f", id="solve-f-number"),
    pytest.param("solve", {**_grid_cfg(), "problem": {
        **SOLVE_CFG["problem"], "operator": "laplacian"}},
                 "problem.operator", id="solve-operator-text"),
    pytest.param("solve", {**_grid_cfg(), "boundary": 5}, "boundary",
                 id="solve-boundary-number"),
    pytest.param("solve", {**_grid_cfg(), "solve": 3}, "solve",
                 id="solve-section-number"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1, "h": 0.25, "boundary": "tag"}}, "entire.boundary",
                 id="entire-boundary-text"),
    # a run that could not allocate its arrays or would not finish
    pytest.param("oracle", {"oracle": {"s": 2.0, "samples": 1e300}},
                 "oracle.samples", id="oracle-samples-huge"),
    pytest.param("check-hamiltonian", {"hamiltonian": NO_CONVEXITY_H,
                                       "check": {"samples": 1e300}},
                 "check.samples", id="check-samples-huge"),
    pytest.param("verify-barrier", {"barrier": {**BARRIER, "h": 1e-300}},
                 "barrier", id="barrier-h-tiny"),
    pytest.param("verify-barrier", {"barrier": {**BARRIER, "R": 100.0}},
                 "barrier", id="barrier-R-100"),
    pytest.param("solve", _grid_cfg(radius=1e300), "grid",
                 id="solve-radius-huge"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1e300, "h": 0.25}}, "entire", id="entire-k_max-huge"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 2, "h": 1e-300}}, "entire", id="entire-h-tiny"),
    # tilde gamma = gamma_m + ... gamma_m^m overflows a float
    pytest.param("check-hamiltonian", _check_cfg(
        tag="prototype", c1=0.0, cm=1e300, m=2.0), None, id="check-cm-huge"),
    # Hamiltonian leaves are JSON numbers: no bool or text cast to a float
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", m=True),
                 "hamiltonian.m", id="hamiltonian-m-bool"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", m="2"),
                 "hamiltonian.m", id="hamiltonian-m-text"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", c1="0.5"),
                 "hamiltonian.c1", id="hamiltonian-c1-text"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", cm=True),
                 "hamiltonian.cm", id="hamiltonian-cm-bool"),
    pytest.param("check-hamiltonian", _check_cfg(tag="two_power", sigma0="0.5"),
                 "hamiltonian.sigma0", id="hamiltonian-sigma0-text"),
    pytest.param("check-hamiltonian", _check_cfg(tag="two_power", sigma0=0),
                 "hamiltonian", id="hamiltonian-sigma0-0"),
    pytest.param("check-hamiltonian", _check_cfg(
        tag="sup_inf", matrices=[[[[2.0, 0.0], [0.0, True]]]]),
                 "hamiltonian.matrices", id="sup_inf-bool"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", m=[1]),
                 "hamiltonian.m", id="hamiltonian-m-list"),
    pytest.param("check-hamiltonian", _check_cfg(tag="prototype", c1=[]),
                 "hamiltonian.c1", id="hamiltonian-c1-list"),
    # a coefficient object's keys are c0, amp and freq
    pytest.param("check-hamiltonian", _check_cfg(
        tag="prototype", c1={"c0": 0, "ampl": 1}),
                 "hamiltonian.c1", id="hamiltonian-c1-ampl"),
    # one dimension per run
    pytest.param("solve", {**_grid_cfg(), "barrier": BARRIER}, "barrier.n",
                 id="solve-two-dimensions"),
    # a key its section does not declare, and a top-level key that is no
    # command's section
    pytest.param("solve", {**_grid_cfg(), "solve": {"tolerance": 1e-3}},
                 "solve", id="solve-tolerance"),
    pytest.param("solve", _grid_cfg(radus=2.0), "grid", id="grid-radus"),
    pytest.param("solve", {**_grid_cfg(), "problem": {**SOLVE_CFG["problem"],
                                                      "S": 3.0}},
                 "problem", id="problem-S"),
    pytest.param("solve", {**_grid_cfg(), "problem": {
        **SOLVE_CFG["problem"], "operator": {"tag": "laplacian", "lam": 1.0}}},
                 "problem.operator", id="laplacian-lam"),
    pytest.param("solve", {**_grid_cfg(), "problem": {
        **SOLVE_CFG["problem"], "f": {"tag": "zero", "value": 1.0}}},
                 "problem.f", id="f-zero-value"),
    pytest.param("solve", {**_grid_cfg(), "boundary": {
        "tag": "constant", "value": 0.0, "valu": 1.0}}, "boundary",
                 id="boundary-valu"),
    pytest.param("entire", {"problem": SEPARATION_PROBLEM, "entire": {
        "k_max": 1, "h": 0.25, "kmax": 2}}, "entire", id="entire-kmax"),
    pytest.param("check-hamiltonian", {"hamiltonian": NO_CONVEXITY_H, "check": {
        "samples": 10, "sample": 100}}, "check", id="check-sample"),
    pytest.param("oracle", {"oracle": {"s": 2.0, "sample": 50}}, "oracle",
                 id="oracle-sample"),
    pytest.param("oracle", {"oracle": {"s": 2.0}, "solver": {}}, "<root>",
                 id="root-solver"),
    # a key given twice in one object (the JSON text, not a dict)
    pytest.param("solve", json.dumps({**_grid_cfg(), "solve": {"tol": 0.5}})
                 .replace('"tol": 0.5', '"tol": 0.5, "tol": 1e-9'),
                 "<file>", id="solve-tol-twice"),
])
def test_rejected_config_values_exit_2_and_write_nothing(tmp_path, capsys,
                                                          command, cfg, key):
    # key: the config key a ConfigError names; None for the library's
    # GridError/MetadataError, which carry no key. A str cfg is the
    # config's JSON text.
    out = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", out,
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert (f"config error at {key}:" if key else "config error") in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, n, section", [
    ("solve", 2, {"grid": {"n": 2, "radius": 1.0, "h": 0.25}}),
    ("entire", 1, {"entire": {"k_max": 2, "h": 0.25, "n": 1}}),
])
def test_weighted_trace_needs_one_weight_per_axis(tmp_path, capsys, command,
                                                  n, section):
    problem = {"s": 3.0,
               "operator": {"tag": "weighted_trace", "weights": [1.0] * (n + 1)},
               "hamiltonian": {"tag": "zero", "n": n}}
    bad = _write_cfg(tmp_path, "bad.json", {"problem": problem, **section})
    assert main([command, "--config", bad, "--out", str(tmp_path / "bad"),
                 "--quiet"]) == 2
    assert "problem.operator.weights" in capsys.readouterr().err
    problem["operator"]["weights"] = [1.0, 2.0][:n]
    good = _write_cfg(tmp_path, "good.json", {"problem": problem, **section})
    assert main([command, "--config", good, "--out", str(tmp_path / "good"),
                 "--quiet"]) == 0


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    out = str(tmp_path / "out")
    assert main(["oracle", "--config", str(cfg), "--out", out]) == 2
    assert "config error at <file>:" in capsys.readouterr().err
    assert not os.path.exists(out)


# One small valid config per command; every leaf of each is mutated in turn.
_FUZZ_BASES = {
    "verify-barrier": {"barrier": {**BARRIER, "h": 0.1}},
    "solve": {
        "problem": {"s": 2.0,
                    "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 1.0},
                    "hamiltonian": {"tag": "prototype", "c1": 0.5, "cm": 1.0,
                                    "m": 2.0, "n": 1},
                    "f": {"tag": "radial_power", "rho": 0.5}},
        "grid": {"n": 1, "radius": 1.0, "h": 0.1, "center": [0.0]},
        "boundary": {"tag": "exp_family", "alpha": 1.0, "axis": 0,
                     "negated": False},
        "solve": {"tol": 1e-8, "max_iter": 50}},
    "entire": {
        "problem": {"s": 3.0,
                    "operator": {"tag": "weighted_trace", "weights": [1.0]},
                    "hamiltonian": {"tag": "sup_inf", "matrices": [[[[1.0]]]],
                                    "m": 2.0},
                    "f": {"tag": "constant", "value": 0.0}},
        "entire": {"k_max": 2, "h": 0.25, "n": 1, "tol": 1e-8, "max_iter": 50,
                   "separation_radius": 1.0,
                   "boundary": {"tag": "constant", "value": 0.0},
                   "boundary2": {"tag": "constant", "value": 1.0}}},
    "check-hamiltonian": {"hamiltonian": {"tag": "two_power", "c": 1.0,
                                          "a": 0.5, "m": 2.0, "l": 1.5,
                                          "sigma0": 0.5},
                          "check": {"samples": 100}},
    "oracle": {"oracle": {"s": 2.0, "samples": 50}},
}
_FUZZ_VALUES = [0, -1, -0.5, 0.5, 1.5, 2.5, 3, 100, 1e300, -1e300, 1e-300,
                True, "x", None, [], {}, [1.0]]


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaf_paths(item, path + (i,))
    else:
        yield path


def _mutated(cfg, *changes):
    cfg = json.loads(json.dumps(cfg))
    for path, value in changes:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return cfg


def _object_paths(value, path=()):
    if isinstance(value, dict):
        yield path
        for key, item in value.items():
            yield from _object_paths(item, path + (key,))


# every leaf is replaced, and every object gains a key it does not declare
_FUZZ_CASES = [(command, path) for command, base in _FUZZ_BASES.items()
               for path in [*_leaf_paths(base),
                            *(obj + ("extra",) for obj in _object_paths(base))]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.sampled_from(_FUZZ_CASES), value=st.sampled_from(_FUZZ_VALUES))
# runs that could not allocate or overflowed in a checker
@example(case=("oracle", ("oracle", "samples")), value=1e300)
@example(case=("verify-barrier", ("barrier", "h")), value=1e-300)
@example(case=("verify-barrier", ("barrier", "R")), value=100)
@example(case=("solve", ("grid", "radius")), value=1e300)
@example(case=("check-hamiltonian", ("hamiltonian", "c")), value=1e300)
@example(case=("check-hamiltonian", ("hamiltonian", "sigma0")), value=0)
# a huge n must not be echoed digit by digit
@example(case=("solve", ("grid", "n")), value=1e300)
@example(case=("solve", ("extra",)), value={})
@example(case=("entire", ("entire", "boundary2", "extra")), value=0)
def test_one_leaf_mutations_exit_0_1_or_2(tmp_path_factory, case, value):
    command, path = case
    cfg = _mutated(_FUZZ_BASES[command], (path, value))
    tmp = tmp_path_factory.mktemp("fuzz")
    out = str(tmp / "out")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", _write_cfg(tmp, "cfg.json", cfg),
                   "--out", out, "--quiet"])
    assert rc in (0, 1, 2)
    assert rc != 2 or not os.path.exists(out)
    assert all(len(line) <= 160 for line in err.getvalue().splitlines())
    if path[-1] == "extra":  # an added key is an error at its object
        where = ".".join(path[:-1]) or "<root>"
        assert rc == 2
        assert f"config error at {where}: unknown key 'extra'" in err.getvalue()
