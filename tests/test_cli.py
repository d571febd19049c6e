"""End-to-end tests of the command-line interface."""

import contextlib
import errno
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import susychain
from susychain import checks, cli, lattice, models, numcore, susy
from susychain.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    FLAGS,
    Settings,
    _write_csv,
    build_parser,
    main,
)
from susychain.errors import NumericalError, SusychainError

from reference import banded_to_dense

FIG_PARAMS = ["--set", "t_ab=1", "--set", "t_ab_inter=1",
              "--set", "t_ac=0.2", "--set", "t_bc=0.01"]
MODEL_I = ["--set", "model=I", "--set", "mass=0.07"]


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.count(b"\r\n") == raw.count(b"\n"), "line endings must be CRLF"
    lines = raw.decode().split("\r\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return header, np.array(rows)


# ---------------------------------------------------------- CSV writer

def _write_csv_per_value(path, header, columns):
    # one format() call per value, kept as the reference for _write_csv
    rows = zip(*columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\r\n")


def _assert_csv_writers_agree(tmp_path, header, columns):
    _write_csv(tmp_path / "new.csv", header, columns)
    _write_csv_per_value(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_matches_per_value_writer(tmp_path):
    tiny = np.finfo(float).tiny
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                       tiny / 3, tiny, 1e300, -1e300, np.finfo(float).max,
                       0.1, 1 / 3, -2.5, 1e16, 123456789012345678.0, 1e-5])
    n = values.size
    ipr = np.where(np.arange(n) % 3 == 0, np.nan, np.linspace(0.0, 1.0, n))
    mask = np.arange(n) % 2 == 0
    edge_state = np.where(np.isnan(ipr), np.nan, mask)
    _assert_csv_writers_agree(
        tmp_path, ["index", "energy", "ipr", "edge_state", "list", "flag"],
        [np.arange(n), values, ipr, edge_state, list(values[::-1]), mask])
    _assert_csv_writers_agree(tmp_path, ["x"], [np.array([], dtype=float)])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(width=32), st.integers(-2**53, 2**53)),
                max_size=20))
def test_write_csv_matches_per_value_writer_property(tmp_path_factory, rows):
    cols = [np.array(c, dtype=float) for c in zip(*rows)] or [[], [], []]
    _assert_csv_writers_agree(tmp_path_factory.mktemp("csv"), ["a", "b", "c"], cols)


# ------------------------------------------------------------- config

def test_settings_flags_beat_set_and_defaults_fill_the_rest():
    st = Settings("spectrum", {"grid_points": 65, "mass": 0.1, "cells": 3},
                  {"cells": 7, "box": None})
    assert st["grid_points"] == 65 and st["mass"] == 0.1
    assert st["cells"] == 7             # a flag beats --set
    assert st["box"] is None and st["method"] == "chain"   # table defaults


def test_flag_beats_set_for_the_same_key(tmp_path):
    assert main(["spectrum", "--out", str(tmp_path), *MODEL_I, "--set", "cells=50",
                 "--cells", "60"]) == EXIT_OK
    _, rows = read_csv(tmp_path / "spectrum_chain.csv")
    assert rows.shape == (3 * 60, 2)


# a command-prefixed key, the keys of the lattice constant (k is in units
# of 1/a) and of the two windows about lambda (always (E - |lambda|)/2 and
# 1e-5 E, with E the analytic gap edge)
@pytest.mark.parametrize("argv, key, value", [
    (["spectrum", *MODEL_I], "spectrum.cells", "2"),
    (["bands", *FIG_PARAMS], "a", "2"),
    (["tune", *FIG_PARAMS], "a", "2"),
    (["spectrum", *MODEL_I], "gap_exclusion", "2"),
    (["spectrum", *MODEL_I], "cluster_tol", "1e-6"),
], ids=["spectrum.cells", "bands-a", "tune-a", "gap_exclusion", "cluster_tol"])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, argv, key, value):
    assert main([*argv, "--out", str(tmp_path), "--set", f"{key}={value}"]) == EXIT_CONFIG
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_typo_exits_2_and_names_the_nearest_key(tmp_path, capsys):
    assert main(["bands", "--out", str(tmp_path), "--set", "eps_cc=5",
                 "--set", "t_ab=1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'eps_cc'" in err and "'eps_c'" in err
    assert main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
                 "--set", "mass=0.07", "--set", "methd=continuum"]) == EXIT_CONFIG
    assert "'method'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# each flag on the commands that lack its key, and --tol and --config,
# which no command has: a script that passes them exits 2
UNREAD_FLAGS = [(name, key) for name, (_, table) in COMMANDS.items()
                for key in (*FLAGS, "tol", "config") if key not in table]


def test_thirteen_flags_are_gone():
    assert sum(key in FLAGS for _, key in UNREAD_FLAGS) == 13


@pytest.mark.parametrize("command,key", UNREAD_FLAGS)
def test_unread_flag_exits_2(tmp_path, capsys, command, key):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path), f"--{key.replace('_', '-')}", "5"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    # the same key through --set is no quieter
    assert main([command, "--out", str(tmp_path), "--set", f"{key}=5"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_the_command_table(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    table = COMMANDS[command][1]
    for key, spec in table.items():
        line = next(line for line in out.splitlines() if line.split()[:1] == [key])
        assert line.split()[1] == str(cli._shown(spec.default))
    for key in FLAGS:
        assert (f"--{key.replace('_', '-')} " in out) == (key in table)



@pytest.mark.parametrize("argv,key", [
    (["spectrum", *MODEL_I, "--set", "cells=2.7"], "cells"),
    (["spectrum", *MODEL_I, "--cells", "1e400"], "cells"),
    (["spectrum", *MODEL_I, "--set", "method=continuum", "--grid-points", "301.5"],
     "grid_points"),
    (["verify", "--set", "seed=2.9"], "seed"),
    (["verify", "--seed", "true"], "seed"),
    (["bands", "--set", "t_ab=true"], "t_ab"),
    (["bands", "--set", "t_ab=1" + "0" * 400], "t_ab"),
    (["susy", "--set", "model=I", "--set", "mass=false"], "mass"),
    (["spectrum", *MODEL_I, "--box", "abc"], "box"),
])
def test_non_integral_and_boolean_values_exit_2(tmp_path, capsys, argv, key):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"field '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,key", [
    (["susy", *MODEL_I, "--grid-points", "2"], "grid_points"),
    (["spectrum", *MODEL_I, "--set", "method=continuum", "--grid-points", "2"],
     "grid_points"),
    (["spectrum", *MODEL_I, "--cells", "1"], "cells"),
    (["spectrum", *MODEL_I, "--set", "method=chain", "--cells", "40", "--box", "-10"],
     "box"),
    (["spectrum", *MODEL_I, "--set", "method=continuum", "--box", "0"], "box"),
    (["susy", *MODEL_I, "--box", "inf"], "box"),
    (["bands", "--grid-points", "2"], "grid_points"),
    (["verify", "--seed", "-1"], "seed"),
    (["spectrum", *MODEL_I, "--box", "nan"], "box"),
    (["spectrum", *MODEL_I, "--set", "method=continuum", "--set", "box=-inf"], "box"),
    (["susy", *MODEL_I, "--set", "box=-1"], "box"),
    # past numpy's index range: a config error, not a failed allocation
    (["spectrum", *MODEL_I, "--cells", str(10**19)], "cells"),
    (["susy", *MODEL_I, "--grid-points", str(10**19)], "grid_points"),
])
def test_out_of_range_values_exit_2(tmp_path, capsys, argv, key):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert f"field '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["gauge_a", "c0"])
def test_susy_model_rejects_what_it_fixes(tmp_path, capsys, key):
    assert main(["susy", "--out", str(tmp_path), *MODEL_I,
                 "--set", f"{key}=3"]) == EXIT_CONFIG
    assert f"field '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "susy_potential.csv").exists()


def test_main_calls_share_one_parser_without_leaking_values(tmp_path):
    assert build_parser() is build_parser()
    first = ["spectrum", "--out", str(tmp_path / "a"), "--cells", "10",
             "--set", "model=I", "--set", "mass=0.2", "--set", "flat_energy=-0.05"]
    second = ["spectrum", "--out", str(tmp_path / "b"), "--cells", "12",
              "--set", "model=I", "--set", "mass=0.2"]
    third = ["spectrum", "--out", str(tmp_path / "c"),
             "--set", "model=II", "--set", "mass=0.1", "--set", "method=chain"]
    for argv in (first, second, third):
        assert main(argv) == EXIT_OK
    for name, cells, model, flat in (("a", 10, "I", -0.05), ("b", 12, "I", 0.0),
                                     ("c", 400, "II", 0.0)):
        summary = json.loads((tmp_path / name / "spectrum_summary.json").read_text())
        assert (summary["model"], summary["flat_energy"]) == (model, flat)
        _, rows = read_csv(tmp_path / name / "spectrum_chain.csv")
        assert rows.shape == (3 * cells, 2)


def _run_python(*args):
    """A new interpreter run with `args`, the package's src on PYTHONPATH."""
    src = str(Path(susychain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_no_command_loads_scipy(tmp_path):
    # numpy's own LAPACK serves every command; a blocked scipy import
    # raises ImportError, so each command exits 0 without it
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        from susychain.cli import main
        out = {str(tmp_path)!r}
        tb = ["--set", "t_ab=1", "--set", "t_ab_inter=1",
              "--set", "t_ac=0.2", "--set", "t_bc=0.01"]
        assert "concurrent.futures" not in sys.modules
        for argv in (["bands", *tb], ["tune", *tb],
                     ["susy", "--set", "model=I", "--set", "mass=0.07"]):
            assert main([argv[0], "--out", out, *argv[1:]]) == 0, argv
        assert "concurrent.futures" not in sys.modules
        assert main(["spectrum", "--out", out, "--set", "model=I", "--set", "mass=0.07",
                     "--set", "method=both", "--cells", "60",
                     "--grid-points", "101"]) == 0
        assert "concurrent.futures" in sys.modules
        # spectrum draws no random numbers; verify draws from a generator
        assert not {{"numpy.random", "secrets", "_hashlib"}} & set(sys.modules)
        assert main(["verify", "--out", out, "--seed", "3"]) == 0
        assert sys.modules["scipy"] is None
    """)
    run = _run_python("-c", script)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "spectrum_chain.csv").exists()
    assert (tmp_path / "spectrum_continuum.csv").exists()


def test_module_entry_exits_with_the_command_code(tmp_path):
    # python -m susychain.cli hands main's exit code to sys.exit; the pole
    # seed's exit 3 prints one line, no traceback
    ok = _run_python("-W", "error", "-m", "susychain.cli", "tune", "--out", str(tmp_path),
                     *FIG_PARAMS)
    assert ok.returncode == EXIT_OK, ok.stderr
    assert (tmp_path / "tune.json").exists()
    pole = _run_python("-W", "error", "-m", "susychain.cli", "susy", "--out",
                       str(tmp_path / "pole"), "--set", "mass=0.3", "--set", "gauge_a=0.2",
                       "--set", "flat_energy=0.1")
    assert pole.returncode == EXIT_NUMERICAL
    assert pole.stderr.startswith("error: ") and pole.stderr.count("\n") == 1
    assert "x=-1.2317" in pole.stderr


def test_missing_lapack_symbol_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # a LAPACK routine numpy does not export ends spectrum with one line
    # naming its symbol: no fallback, no traceback, no output file
    lapack, asked = numcore._lapack, []

    def missing(name):
        asked.append(name)
        return lapack("no" + name)

    monkeypatch.setattr(numcore, "_lapack", missing)
    rc = main(["spectrum", "--out", str(tmp_path), "--set", "model=I", "--set", "mass=0.07"])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"error: numpy's LAPACK has no scipy_no{asked[0]}_64_\n")
    assert not os.listdir(tmp_path)


def test_bad_set_syntax_exits_2(tmp_path):
    rc = main(["bands", "--out", str(tmp_path), "--set", "oops"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("sub, code", [("", errno.EEXIST), ("sub", errno.ENOTDIR)],
                         ids=["a_file", "through_a_file"])
def test_out_through_a_file_exits_2_with_one_line(tmp_path, capsys, sub, code):
    # --out naming a file, or a path through one, is a config error: one
    # line, no traceback, no file written and the file left as it was
    blocker = tmp_path / "some_file"
    blocker.write_text("kept")
    out = str(blocker / sub if sub else blocker)
    assert main(["tune", "--out", out, *FIG_PARAMS]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: --out {out!r}: {os.strerror(code)}\n"
    assert os.listdir(tmp_path) == ["some_file"]
    assert blocker.read_text() == "kept"


# -------------------------------------------------------------- bands

def test_bands_outputs(tmp_path):
    rc = main(["bands", "--out", str(tmp_path), "--grid-points", "129",
               *FIG_PARAMS, "--set", "eps_c=0.002"])
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "bands.csv")
    assert header == ["k", "E1", "E2", "E3"]
    assert rows.shape == (129, 4)
    assert np.all(np.diff(rows[:, 1:], axis=1) >= 0)
    summary = json.loads((tmp_path / "bands_summary.json").read_text())
    assert summary["k_points"] == 129
    # eps_c = 1/500 is the tuned value: the middle band is flat
    assert any(f["band_index"] == 1 for f in summary["flat_bands"])


def test_bands_full_precision(tmp_path):
    main(["bands", "--out", str(tmp_path), "--grid-points", "5", *FIG_PARAMS])
    text = (tmp_path / "bands.csv").read_bytes().decode()
    # 17 significant digits survive a round trip
    value = text.split("\r\n")[1].split(",")[0]
    assert float(value) == -np.pi


# --------------------------------------------------------------- tune

def test_tune_outputs(tmp_path):
    rc = main(["tune", "--out", str(tmp_path), *FIG_PARAMS])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "tune.json").read_text())
    sols = payload["solutions"]
    assert len(sols) == 2
    best = min(sols, key=lambda s: abs(s["flat_energy"]))
    assert best["eps_c"] == pytest.approx(0.002, abs=1e-15)
    assert best["flat_energy"] == pytest.approx(0.0, abs=1e-15)
    for s in sols:
        assert s["residual_max_over_k"] < 1e-10


def test_tune_degenerate_exits_3(tmp_path):
    rc = main(["tune", "--out", str(tmp_path), "--set", "t_ab=1",
               "--set", "t_ab_inter=1"])
    assert rc == EXIT_NUMERICAL

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, rc, message", [
    (["tune", "--set", "t_ab=1e200", "--set", "t_ab_inter=1", "--set", "t_ac=1e200",
      "--set", "t_bc=1"], EXIT_CONFIG, "field 't_ab'"),
    (["bands", "--set", "t_ab=1e308", "--set", "t_ab_inter=1e308"], EXIT_CONFIG,
     "field 't_ab'"),
    (["tune", "--set", "eps_a=1e100", "--set", "t_ab=1e-100", "--set", "t_ab_inter=1",
      "--set", "t_ac=1e100", "--set", "t_bc=1e100"], EXIT_NUMERICAL,
     "flat-band tuning overflows")])
def test_extreme_tight_binding_values_exit_without_a_traceback(tmp_path, capsys, argv,
                                                               rc, message):
    assert main([*argv, "--out", str(tmp_path)]) == rc
    assert message in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", ["bands", "tune"])
@pytest.mark.parametrize("value", ["1.1e100", "-1e200", "inf", "nan"])
def test_tight_binding_bound_names_the_field(tmp_path, capsys, command, value):
    # tuning squares and multiplies them: 1e100 is the largest magnitude
    # whose products stay inside the double range
    names = [n for n in cli.TIGHT_BINDING_KEYS if not (command == "tune" and n == "eps_c")]
    for name in names:
        assert main([command, "--set", f"{name}={value}", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"field '{name}'" in capsys.readouterr().err
    assert not os.listdir(tmp_path)
    # 1e100 itself is taken
    assert main(["bands", *(a for n in names for a in ("--set", f"{n}=1e100")),
                 "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.filterwarnings("error")
def test_tune_reports_a_tuned_eps_c_past_the_input_bound(tmp_path):
    # t_ac*t_bc/t_ab = 1e150: the flat energies are +-1 and eps_c = 1e150,
    # all finite; the bound is on the values a user gives, not on eps_c
    assert main(["tune", "--set", "t_ab=1e-150", "--set", "t_ab_inter=1", "--set", "t_ac=1",
                 "--set", "t_bc=1", "--out", str(tmp_path)]) == EXIT_OK
    sols = json.loads((tmp_path / "tune.json").read_text())["solutions"]
    assert [s["flat_energy"] for s in sols] == pytest.approx([-1.0, 1.0])
    assert all(s["eps_c"] == pytest.approx(1e150) for s in sols)


# ------------------------------------------------- the CLI contract

def _doubles(max_exp=1024):
    """Magnitudes log-uniform from the smallest subnormal up to 2**max_exp
    (the whole double range by default), either sign; one draw in 20 is a
    zero of either sign."""
    def value(m, e, sign, zero):
        return sign * (0.0 if zero == 0 else math.ldexp(m, e))
    return st.builds(value, st.floats(0.5, 1.0, exclude_max=True),
                     st.integers(-1073, max_exp), st.sampled_from([1.0, -1.0]),
                     st.integers(0, 19))


DOUBLES = _doubles()
# past 2**332 < 1e100 a tight-binding or model value only meets the input
# bound, so half the draws stay below it and reach the computation
BOUNDED_DOUBLES = DOUBLES | _doubles(332)


def _run_contract(command, values, check, exits=(EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)):
    """main(command), each value of `values` that is not None given by --set:
    it must exit with one of `exits`, and an exit 0 must write outputs that
    `check` accepts. The callers turn warnings into errors."""
    argv = [command]
    for key, value in values.items():
        if value is not None:
            argv += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out:
        rc = main([*argv, "--out", out])
        assert rc in exits, argv
        if rc == EXIT_OK:
            check(Path(out), argv)


def _check_spectrum(out, argv):
    summary = _strict_json((out / "spectrum_summary.json").read_text())
    # null only where a route found no bulk state on a side
    may_be_null = {"gap_edge_neg", "gap_edge_pos", "relative_error_neg", "relative_error_pos"}
    for key, value in summary.items():
        routes = isinstance(value, dict)
        for k, v in (value.items() if routes else [(key, value)]):
            assert v is not None or (routes and k in may_be_null), (argv, key, k)
    for route in ("chain", "continuum"):
        if route in summary:
            _, rows = read_csv(out / f"spectrum_{route}.csv")
            assert np.isfinite(rows[:, 1]).all(), argv


def _check_tune(out, argv):
    for sol in _strict_json((out / "tune.json").read_text())["solutions"]:
        assert all(v is not None for v in sol.values()), argv


@pytest.mark.filterwarnings("error")
@settings(max_examples=250, deadline=None, derandomize=True)
@given(model=st.sampled_from(["I", "II"]), mass=BOUNDED_DOUBLES, flat_energy=BOUNDED_DOUBLES,
       method=st.sampled_from(["chain", "continuum", "both"]),
       cells=st.integers(2, 60), grid_points=st.integers(3, 80),
       box=st.none() | DOUBLES)
def test_spectrum_contract(**values):
    _run_contract("spectrum", values, _check_spectrum)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({k: BOUNDED_DOUBLES for k in cli.TUNE_KEYS}))
def test_tune_contract(values):
    _run_contract("tune", values, _check_tune)


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def _check_all_finite(out, argv):
    """bands, susy and verify document no null: every JSON value is one,
    and every CSV value is finite."""
    for path in out.iterdir():
        if path.suffix == ".csv":
            assert np.isfinite(read_csv(path)[1]).all(), (argv, path.name)
        else:
            assert None not in _leaves(_strict_json(path.read_text())), (argv, path.name)


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({**{k: BOUNDED_DOUBLES for k in cli.TIGHT_BINDING_KEYS},
                              "grid_points": st.integers(3, 80)}))
def test_bands_contract(values):
    _run_contract("bands", values, _check_all_finite)


# a model fixes gauge_a and c0, and the general seed needs gauge_a: most
# draws set the keys their seed reads, a few set the others too
_SUSY_COMMON = {"mass": BOUNDED_DOUBLES, "flat_energy": BOUNDED_DOUBLES,
                "box": st.none() | DOUBLES, "grid_points": st.integers(3, 80)}
_SEED_KEYS = {"gauge_a": BOUNDED_DOUBLES, "c0": DOUBLES}


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({"model": st.sampled_from(["I", "II"]), **_SUSY_COMMON})
       | st.fixed_dictionaries({**_SUSY_COMMON, **_SEED_KEYS})
       | st.fixed_dictionaries({"model": st.none() | st.sampled_from(["I", "II"]),
                                **_SUSY_COMMON}, optional=_SEED_KEYS))
def test_susy_contract(values):
    _run_contract("susy", values, _check_all_finite)


@pytest.mark.filterwarnings("error")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.none() | st.integers(0, 2**70) | DOUBLES)
def test_verify_contract(**values):
    _run_contract("verify", values, _check_all_finite,
                  exits=(EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_VERIFY))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, message", [
    (["spectrum", "--set", "model=I", "--set", "mass=1e-200"], EXIT_CONFIG,
     "m(m - lambda) underflows to 0 (m = 1e-200, m - lambda = 1e-200)"),
    (["spectrum", "--set", "model=II", "--set", "mass=1e-200", "--set", "flat_energy=1e-201"],
     EXIT_CONFIG, "2m^2 and lambda^2 underflow to 0 (m = 1e-200, lambda = 1e-201)"),
    (["susy", "--set", "mass=1e-200", "--set", "gauge_a=3e-200", "--set", "flat_energy=1e-201"],
     EXIT_NUMERICAL, "kappa0^2 = A^2 + m^2 - lambda^2 underflows to 0.000e+00 "
     "(A = 3e-200, m = 1e-200, lambda = 1e-201)"),
    (["tune", "--set", "t_ab=1e-200", "--set", "t_ab_inter=1e-200", "--set", "t_ac=1e-200",
      "--set", "t_bc=1e-200"], EXIT_NUMERICAL,
     "t_ac^2 + t_bc^2 underflows to 0 (t_ac = 1e-200, t_bc = 1e-200)"),
], ids=["model_I", "model_II", "general_seed", "tune"])
def test_an_underflow_is_refused_naming_it(tmp_path, capsys, argv, code, message):
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert message in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["--set", "mass=-18006.422064235354", "--set", "flat_energy=4.306842939454051e-175",
     "--set", "method=chain", "--cells", "44", "--box", "52.04671425101906"],
    ["--set", "mass=11807.692594817534", "--set", "flat_energy=-5.0099543815919e-206",
     "--set", "method=both", "--cells", "100", "--grid-points", "10"],
], ids=["chain_mass_1.8e4", "both_mass_1.2e4"])
def test_spectrum_finds_gap_edges_in_a_dense_cluster(tmp_path, argv):
    # at |m| ~ 1e4 the cells all but decouple, and the gap edges lie in a
    # dense cluster of nearly equal eigenvalues
    assert main(["spectrum", "--set", "model=II", *argv, "--out", str(tmp_path)]) == EXIT_OK


def test_spectrum_calls_two_lapack_routines(tmp_path, monkeypatch):
    # the band is reduced and its eigenvalues taken in LAPACK; numpy does the
    # rest, and no route computes an eigenvector. At box 1e60 every site is
    # deflated
    lapack, names = numcore._lapack, set()

    def recorded(name):
        names.add(name)
        return lapack(name)

    monkeypatch.setattr(numcore, "_lapack", recorded)
    for argv in (["--set", "method=both"], ["--set", "method=chain", "--box", "1e60"]):
        assert main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
                     "--set", "mass=0.07", *argv]) == EXIT_OK
    assert names == {"dsbtrd", "dsterf"}


@pytest.mark.filterwarnings("error")
def test_spectrum_past_the_double_range_of_kappa_box_runs_without_a_warning(tmp_path):
    # kappa0*box passes 1e308 here; the engine samples tanh and log cosh of
    # kappa0*x, which stay finite
    argv = ["spectrum", "--set", "model=II", "--set", "mass=-2.6310984748993027e+28",
            "--set", "flat_energy=-1.0519234885844141e+28", "--cells", "34",
            "--set", "method=chain", "--box", "2.2886044134772873e+294"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    chain = _strict_json((tmp_path / "spectrum_summary.json").read_text())["chain"]
    assert chain["gap_edge_neg"] == pytest.approx(-3.7209351471417e28, rel=1e-13)
    assert chain["gap_edge_pos"] == pytest.approx(3.7209351471417e28, rel=1e-13)
    # the cluster window is 1e-5 E at any scale, so the engine's chain counts
    # the 34 flat states that the closed forms' chain counts
    assert chain["cluster_count"] == 34


@pytest.mark.filterwarnings("error")
def test_tune_residual_overflow_exits_3_naming_the_flat_energy(tmp_path, capsys):
    # the flat energies are -1.41e194 and -8.3e-201: det(H - E) at the first
    # multiplies three differences of size 1e194
    argv = ["tune", "--set", "eps_a=5.439879194433456e+41",
            "--set", "eps_b=6.768876854291906e-264", "--set", "t_ab=-0.0010812927492680304",
            "--set", "t_ab_inter=7.953717766354442e-284",
            "--set", "t_ac=2.125133801106931e-48", "--set", "t_bc=-1.6250216805660699e-245"]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("error: the flat-band residual overflows the double "
                                       "range at flat energy -1.41407e+194\n")
    assert not os.listdir(tmp_path)


# --------------------------------------------------------------- susy

def test_susy_model_run(tmp_path):
    rc = main(["susy", "--out", str(tmp_path), "--set", "model=I",
               "--set", "mass=0.07", "--set", "flat_energy=0.0",
               "--grid-points", "801"])
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "susy_potential.csv")
    assert header == ["x", "v11", "v12", "v13", "v23"]
    assert rows.shape == (801, 5)
    rep = json.loads((tmp_path / "susy_verify.json").read_text())
    assert rep["hermiticity_max_asymmetry"] < 1e-10
    assert rep["wronskian_relative_stdev"] < 1e-10
    assert rep["dual_path_max_diff"] < 1e-8
    assert rep["model_oracle_max_diff"] < 1e-8
    assert min(rep["intertwining_orders"][0]) > 1.9


GENERAL_SEED_ARGV = ["susy", "--set", "mass=0.3", "--set", "gauge_a=0.26832815729997476",
                     "--set", "flat_energy=0.06", "--set", "c0=-20.0",
                     "--grid-points", "401"]


def test_susy_warns_when_the_grid_misses_the_kink(tmp_path, capsys):
    # kappa0*h = 28 on the default grid: the stencil does not resolve the
    # kink, so the measured orders are no convergence orders
    argv = ["susy", "--out", str(tmp_path), "--set", "model=I"]
    assert main([*argv, "--set", "mass=1000"]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "kappa0*h = 28.3 at h = 0.02" in err
    assert "intertwining_orders are not convergence orders" in err
    assert main([*argv, "--set", "mass=0.07"]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_susy_refines_a_20001_point_grid_without_a_warning(tmp_path):
    # the Darboux check refines this grid to 40001 points, one level at a time
    assert main(["susy", "--out", str(tmp_path), "--set", "model=I", "--set", "mass=0.07",
                 "--grid-points", "20001"]) == EXIT_OK


def test_susy_general_seed_run(tmp_path):
    rc = main([*GENERAL_SEED_ARGV, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "susy_verify.json").read_text())
    assert "model_oracle_max_diff" not in rep
    assert rep["hermiticity_max_asymmetry"] < 1e-10


def test_susy_invalid_model_exits_2(tmp_path):
    rc = main(["susy", "--out", str(tmp_path), "--set", "model=III",
               "--set", "mass=0.07"])
    assert rc == EXIT_CONFIG
    rc = main(["susy", "--out", str(tmp_path), "--set", "model=I",
               "--set", "mass=0.07", "--set", "flat_energy=0.08"])
    assert rc == EXIT_CONFIG


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model,mass,flat_energy,box", [
    ("I", "9.5", "0", "20"), ("II", "10", "0", "20"), ("I", "1.0", "0.2", "400"),
    ("I", "0.3", "0.06", "2000"), ("I", "1e5", "0", "2e-4")])
def test_susy_past_the_double_range_of_u_matches_model_potential(
        tmp_path, model, mass, flat_energy, box):
    # U = Uhat * G grows like exp((2*kappa0 + |A|)*|x|) and leaves the double
    # range on each of these boxes; the engine samples only Uhat
    rc = main(["susy", "--out", str(tmp_path), "--set", f"model={model}",
               "--set", f"mass={mass}", "--set", f"flat_energy={flat_energy}",
               "--box", box])
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "susy_potential.csv")
    assert np.isfinite(rows).all()
    p = models.ModelParams(models.ModelKind(model), float(mass), float(flat_energy))
    oracle = np.column_stack(models.model_potential(p, rows[:, 0]))
    assert np.abs(rows[:, 1:] - oracle).max() <= 1e-8 * (1.0 + np.abs(oracle).max())
    rep = json.loads((tmp_path / "susy_verify.json").read_text())
    assert rep["model_oracle_max_diff"] <= 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_susy_grid_that_misses_the_kink_exits_3_naming_h(tmp_path, capsys):
    # kappa0 = 1.4e5 at m = 1e5, so kappa0*h = 2828 at box 20: the discrete
    # L = U D U^{-1} weights a neighbour by G_i/G_j = e^2828, and the
    # intertwining residual is not finite, while the table itself is right
    rc = main(["susy", "--out", str(tmp_path), "--set", "model=I", "--set", "mass=1e5"])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: intertwining residual is not finite at grid spacing h=0.02\n")
    assert not os.listdir(tmp_path)
    p = models.ModelParams(models.ModelKind.I, 1e5, 0.0)
    grid = numcore.Grid(-20.0, 20.0, 2001)
    comps = susychain.transformed_potential(susychain.assemble_frame(p.seed_data(), grid))
    oracle = models.model_potential(p, grid.x)
    diff = max(np.abs(getattr(comps, c) - o).max()
               for c, o in zip(("v11", "v12", "v13", "v23"), oracle))
    assert diff <= 1e-8 * (1.0 + max(np.abs(o).max() for o in oracle))


def test_susy_general_seed_with_a_pole_exits_3_naming_it(tmp_path, capsys):
    # this seed had a golden report: q(t) has the root t = -0.40254, which
    # is the pole x = atanh(t)/kappa0 = -1.2317
    rc = main(["susy", "--out", str(tmp_path), "--set", "mass=0.3",
               "--set", "gauge_a=0.2", "--set", "flat_energy=0.1"])
    assert rc == EXIT_NUMERICAL
    assert "x=-1.2317" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_susy_huge_model_mass_exits_2(tmp_path, capsys):
    rc = main(["susy", "--out", str(tmp_path), "--set", "model=I",
               "--set", "mass=1e155"])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "susy_potential.csv").exists()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("mass", ["7", "9"])
def test_susy_large_mass_writes_finite_json(tmp_path, model, mass):
    # the Wronskian samples reach ~1e170 here, so squaring them overflowed
    # np.std and the report held the non-JSON token Infinity
    for bad in ('{"a": Infinity}', '{"a": NaN}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            _strict_json(bad)
    rc = main(["susy", "--out", str(tmp_path), "--set", f"model={model}",
               "--set", f"mass={mass}"])
    assert rc == EXIT_OK
    rep = _strict_json((tmp_path / "susy_verify.json").read_text())
    assert np.isfinite(rep["wronskian_relative_stdev"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,shown", [
    ("susy", "error: intertwining residual is not finite at grid spacing h=1e-303"),
])
def test_tiny_box_exits_3_with_one_line(tmp_path, capsys, command, shown):
    # at box 1e-300 the stencil's 1/(2h) reaches ~1e300 and the intertwining
    # residual overflows; before, it wrote nulls
    rc = main([command, "--out", str(tmp_path), "--set", "model=I", "--set", "mass=0.07",
               "--box", "1e-300"])
    assert rc == EXIT_NUMERICAL
    assert capsys.readouterr().err == shown + "\n"
    assert not os.listdir(tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("box,shown", [
    ("1e-307", "grid spacing h=1e-308 is too small: 2/h overflows"),
    ("1.5e-307", "the banded matrix has a non-finite entry, or a column sum past the "
                 "double range"),
    ("5e-324", "grid spacing h=0 is too small: 2/h overflows"),
])
def test_continuum_box_past_the_double_range_of_the_stencil_exits_3(tmp_path, capsys,
                                                                   box, shown):
    # 21 points: 2/h, or the column sums of the band, pass the double range
    assert main(["spectrum", "--out", str(tmp_path), "--set", "model=I", "--set", "mass=0.07",
                 "--set", "method=continuum", "--grid-points", "21",
                 "--box", box]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not os.listdir(tmp_path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("box", ["1e-170", "1e-200", "1e-300"])
def test_spectrum_tiny_box_scales_with_the_hopping(tmp_path, box):
    # the hopping 1/h reaches ~1e300, and the chain's gap edges scale with
    # it: each edge times the box is box 1e-150's to rounding
    def edges(box):
        out = tmp_path / box
        assert main(["spectrum", "--out", str(out), "--set", "model=I",
                     "--set", "mass=0.07", "--box", box]) == EXIT_OK
        chain = json.loads((out / "spectrum_summary.json").read_text())["chain"]
        return np.array([chain["gap_edge_neg"], chain["gap_edge_pos"]]) * float(box)

    np.testing.assert_allclose(edges(box), edges("1e-150"), rtol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("box", ["1e100", "1e150", "1e160", "1e200"])
def test_spectrum_huge_box_matches_box_1e60(tmp_path, box):
    # the hopping 1/h falls to ~1e-98 and below, and the cells all but
    # decouple: each gap edge is one of 400 equal eigenvalues, which no
    # box up to 1e200 moves
    def report(box):
        out = tmp_path / box
        assert main(["spectrum", "--out", str(out), "--set", "model=I",
                     "--set", "mass=0.07", "--set", "method=chain", "--box", box]) == EXIT_OK
        chain = json.loads((out / "spectrum_summary.json").read_text())["chain"]
        _, rows = read_csv(out / "spectrum_chain.csv")
        return np.array([chain["gap_edge_neg"], chain["gap_edge_pos"]]), rows[:, 1]

    edges, energies = report(box)
    edges_60, energies_60 = report("1e60")
    np.testing.assert_allclose(edges, edges_60, rtol=1e-12)
    np.testing.assert_allclose(energies, energies_60, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("field,value", [("mass", "1e200"), ("gauge_a", "-1e200"),
                                         ("flat_energy", "1e101"), ("mass", "nan"),
                                         ("c0", "nan")])
def test_susy_general_seed_out_of_range_exits_3(tmp_path, capsys, field, value):
    settings = {"mass": "0.3", "gauge_a": "0.2", "flat_energy": "0.1", field: value}
    argv = ["susy", "--out", str(tmp_path)]
    for key, val in settings.items():
        argv += ["--set", f"{key}={val}"]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"{field} = " in err and "finite" in err
    assert not (tmp_path / "susy_potential.csv").exists()


# the golden general seed but for c0
GENERAL_SEED_NO_C0 = ["--set", "mass=0.3", "--set", "gauge_a=0.2", "--set", "flat_energy=0.1"]


@pytest.mark.parametrize("seed", [MODEL_I, [*GENERAL_SEED_NO_C0, "--set", "c0=-20"]])
@pytest.mark.parametrize("key", ["c1", "w0"])
def test_susy_has_no_column_gauge_keys(tmp_path, capsys, seed, key):
    # L and V_new see the seed frame only up to a constant right factor
    # that mixes the flat-level columns: the seed is mass, flat_energy,
    # gauge_a and c0, and a key for that factor is unknown
    assert main(["susy", "--out", str(tmp_path), *seed, "--set", f"{key}=2"]) == EXIT_CONFIG
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c0", ["1e200", "1e300", "-1e300"])
def test_susy_regular_seed_with_a_huge_c0_runs(tmp_path, c0):
    # q's roots sit at about -3.46*c0 and -1.443, off (-1, 1): the seed is
    # regular. The Hadamard bound of Uhat's columns squares entries of
    # ~c0, and q's discriminant squares ~c0 too; both scale by powers of
    # two first, so the table is c0 = 1e150's to rounding
    def table(value, out):
        argv = ["susy", *GENERAL_SEED_NO_C0, "--set", f"c0={value}"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        return read_csv(out / "susy_potential.csv")[1]

    want = table("1e150", tmp_path / "ref")
    got = table(c0, tmp_path / "big")
    assert np.abs(got - want).max() <= 1e-15
    rep = _strict_json((tmp_path / "big" / "susy_verify.json").read_text())
    assert rep["hermiticity_max_asymmetry"] < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [("1e40", "5e39", "0", "1e250"),
                                  ("1.479e81", "1.4634e81", "0", "-1.66e152")])
def test_susy_overflowing_potential_exits_3_naming_it(tmp_path, capsys, seed):
    # a regular frame whose closed-form ratios overflow: pref*psi0*q_psi
    # passes the double range before it is divided by det Uhat
    argv = ["susy", "--out", str(tmp_path)]
    for key, value in zip(("mass", "flat_energy", "gauge_a", "c0"), seed):
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == EXIT_NUMERICAL
    assert capsys.readouterr().err == ("error: the transformed potential overflows the "
                                       "double range: shrink the mass or c0\n")
    assert not os.listdir(tmp_path)


# ------------------------------------------------------------ spectrum

def test_spectrum_chain(tmp_path):
    rc = main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
               "--set", "mass=0.07", "--cells", "120"])
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "spectrum_chain.csv")
    assert header == ["index", "energy"]
    assert rows.shape == (360, 2)
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["chain"]["cluster_count"] > 60
    assert summary["analytic_gap_edge"] == pytest.approx(np.sqrt(0.07 * 0.14))
    assert summary["gap_exclusion"] == \
        (summary["analytic_gap_edge"] - abs(summary["flat_energy"])) / 2
    assert not summary["gap_edge_derived_not_published"]


def test_spectrum_is_deterministic_and_its_edges_are_the_first_past_the_window(
        tmp_path):
    argv = ["spectrum", "--set", "model=I", "--set", "mass=0.07",
            "--cells", "120"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main([*argv, "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("spectrum_chain.csv", "spectrum_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    _, rows = read_csv(tmp_path / "a" / "spectrum_chain.csv")
    summary = json.loads((tmp_path / "a" / "spectrum_summary.json").read_text())
    energy = rows[:, 1]
    rep = summary["chain"]
    outside = energy[np.abs(energy) > summary["gap_exclusion"]]
    assert rep["gap_edge_neg"] == outside[outside < 0].max()
    assert rep["gap_edge_pos"] == outside[outside > 0].min()


def test_spectrum_model_II_wall_states_are_gone(tmp_path):
    # lambda > 0: both walls of the chain ended on the weak bond t + v12, and
    # their end states, at 0.934 E, were reported as the upper gap edge (6.57 %
    # off). The chain ends on its strong bonds now, with 3 sites a cell
    assert main(["spectrum", "--out", str(tmp_path), "--set", "model=II",
                 "--set", "mass=0.03", "--set", "flat_energy=0.015"]) == EXIT_OK
    chain = json.loads((tmp_path / "spectrum_summary.json").read_text())["chain"]
    assert chain["relative_error_neg"] <= 0.02 and chain["relative_error_pos"] <= 0.02
    _, rows = read_csv(tmp_path / "spectrum_chain.csv")
    assert rows.shape == (3 * 400, 2)


def test_spectrum_chain_with_one_weak_wall_exits_3_naming_both(tmp_path, capsys):
    # Model I (5, 4) at spacing 1: E h = 5.5 >= 2, and |t + v12| is 4.48 at the
    # left wall and 0.513 at the right, which alone ends on its weak bond
    assert main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
                 "--set", "mass=5", "--set", "flat_energy=4"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "error: the saw chain's right wall ends on its weak bond and the other on its "
        "strong one (|t_ab| = 4.48 at the left wall, 0.513 at the right, |t_ab_inter| = "
        "1): an end state would sit in the gap\n")
    assert not os.listdir(tmp_path)


def _warnings(err):
    """Each warning line of `spectrum`'s stderr as (route, worse-edge error in
    %, kappa0*h, box*kappa0); stderr holds no other line."""
    found = re.findall(r"^warning: the (\w+) route's gap edges are (\S+) % and (\S+) % off "
                       r"E = \S+, past 1 % \(kappa0\*h = (\S+), box\*kappa0 = (\S+)\)$",
                       err, re.M)
    assert len(found) == err.count("\n"), err
    return [(route, max(float(neg), float(pos)), float(kh), float(bk))
            for route, neg, pos, kh, bk in found]


def test_spectrum_warns_when_the_chain_misses_the_kink(tmp_path, capsys):
    # Model I (5, 4) at box 50: kappa0*h = 0.94, where the chain's gap edges
    # are kink states 40.6 % and 13.3 % off; the outputs stay as they are
    argv = ["spectrum", "--out", str(tmp_path), "--set", "model=I"]
    assert main([*argv, "--set", "mass=5", "--set", "flat_energy=4",
                 "--box", "50"]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: the chain route's gap edges are 40.6 % and 13.3 % off E = 5.47723, "
        "past 1 % (kappa0*h = 0.938, box*kappa0 = 187)\n")
    assert main([*argv, "--set", "mass=0.3"]) == EXIT_OK  # 0.779 % at kappa0*h = 0.3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,warned", [
    (["--set", "model=I", "--set", "mass=1e-100"], [("chain", 2.77e99, 1.41e-100, 2.82e-98)]),
    # lambda 1e-6 E below its limit m: the gap window (E - |lambda|)/2 still
    # finds both routes' upper edges (0.079 % and 8.7e-4 % off), so no line
    # is written
    (["--set", "model=I", "--set", "mass=0.1", "--set", "flat_energy=0.0999999",
      "--set", "method=both"], []),
    ([*MODEL_I, "--box", "40"], [("chain", 9.73, 0.0198, 3.96)]),
    (["--set", "model=II", "--set", "mass=0.1", "--set", "flat_energy=0.05", "--box", "60"],
     [("chain", 1.73, 0.0398, 7.94)]),
], ids=["mass_1e-100", "model_I_near_the_limit_both", "model_I_box_4", "model_II_box_8"])
def test_spectrum_warns_once_where_the_box_cuts_the_kink(tmp_path, capsys, monkeypatch, argv,
                                                        warned):
    # box*kappa0 = 2.8e-98, 0.035, 3.96 and 7.94: where the gap edges are more
    # than 1 % off, one line for each route that misses, and the files are
    # those of a run without the lines
    assert main(["spectrum", "--out", str(tmp_path / "warned"), *argv]) == EXIT_OK
    assert _warnings(capsys.readouterr().err) == warned
    monkeypatch.setattr(cli, "GAP_EDGE_REL_TOL", math.inf)
    assert main(["spectrum", "--out", str(tmp_path / "silent"), *argv]) == EXIT_OK
    assert capsys.readouterr().err == ""
    names = sorted(os.listdir(tmp_path / "warned"))
    assert names == sorted(os.listdir(tmp_path / "silent"))
    for name in names:
        assert (tmp_path / "warned" / name).read_bytes() == \
            (tmp_path / "silent" / name).read_bytes()


@pytest.mark.parametrize("argv,warned", [
    # a long box at kappa0*h = 0.495: the upper edge is 2.96 % off
    (["--set", "model=I", "--set", "mass=0.2", "--set", "flat_energy=0.15", "--box", "595"],
     [("chain", 2.96, 0.495, 98.7)]),
    # box*kappa0 = 12.5 on 100 cells: the lower edge is 1.36 % off
    ([*MODEL_I, "--cells", "100", "--box", "126.3"], [("chain", 1.36, 0.253, 12.5)]),
    # the continuum route on 31 points: both edges 8.28 % off
    ([*MODEL_I, "--set", "method=continuum", "--grid-points", "31"],
     [("continuum", 8.28, 0.8, 12.0)]),
    # box*kappa0 = 8.29 on 101 cells, yet both edges within 0.543 %
    (["--set", "model=I", "--set", "mass=0.2", "--set", "flat_energy=0.15",
      "--cells", "101", "--box", "50"], []),
], ids=["model_I_long_box", "model_I_100_cells", "continuum_31_points", "model_I_101_cells"])
def test_spectrum_warns_where_a_gap_edge_is_more_than_1_percent_off(tmp_path, capsys, argv,
                                                                    warned):
    # the bound reads the measured edges, not kappa0*h or box*kappa0
    assert main(["spectrum", "--out", str(tmp_path), *argv]) == EXIT_OK
    assert _warnings(capsys.readouterr().err) == warned


def test_spectrum_at_the_defaults_is_silent(tmp_path, capsys):
    # Model I (0.07, 0): box*kappa0 = 19.7 and kappa0*h = 0.099
    assert main(["spectrum", "--out", str(tmp_path), *MODEL_I]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_spectrum_singular_frame_names_the_ratio_and_its_bound(tmp_path, capsys):
    # Model II (1, 0.998): no pole, but det U over the Hadamard bound of
    # U's columns falls below SINGULARITY_REL_TOL near the box wall
    assert main(["spectrum", "--out", str(tmp_path), "--set", "model=II",
                 "--set", "mass=1", "--set", "flat_energy=0.998"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    (ratio,) = re.findall(r"\|det Uhat\|/Hadamard bound = (\S+) < 1e-08\)", err)
    assert 0.0 < float(ratio) < susy.SINGULARITY_REL_TOL
    assert not os.listdir(tmp_path)


def test_spectrum_continuum_and_both(tmp_path):
    rc = main(["spectrum", "--out", str(tmp_path), "--set", "model=II",
               "--set", "mass=0.03", "--set", "flat_energy=0.015",
               "--set", "method=both", "--cells", "90",
               "--grid-points", "301"])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["gap_edge_derived_not_published"]
    assert os.path.exists(tmp_path / "spectrum_chain.csv")
    assert os.path.exists(tmp_path / "spectrum_continuum.csv")
    # continuum flat level: one eigenvalue per grid point at lambda
    assert summary["continuum"]["cluster_count"] >= 300


def _continuum_run(out, kind, mass, lam, box_kappa, n):
    """spectrum's continuum route at box box_kappa/kappa0 on n points: the
    seed, the summary and the CSV's rows."""
    seed = models.ModelParams(models.ModelKind(kind), mass, lam).seed_data()
    assert main(["spectrum", "--out", str(out), "--set", f"model={kind}",
                 "--set", f"mass={mass}", "--set", f"flat_energy={lam}",
                 "--set", "method=continuum", "--box", repr(box_kappa / seed.kappa0),
                 "--grid-points", str(n)]) == EXIT_OK
    summary = json.loads((out / "spectrum_summary.json").read_text())
    return seed, summary, read_csv(out / "spectrum_continuum.csv")[1]


@pytest.mark.parametrize("kind,mass,lam", [("I", 0.07, 0.0), ("II", 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_continuum_gap_edges_within_the_box_shift(tmp_path, kind, mass, lam):
    # the Wilson term removes the central stencil's doubler, whose kink
    # states sat inside the gap: what is left of the error is the finite
    # box's sqrt(1 + (pi/(L E))^2) - 1 (L = 2 box), plus 0.1 %, and it falls
    # as the box grows
    errors = []
    for box_kappa in (12.0, 24.0):
        seed, summary, _ = _continuum_run(tmp_path / str(box_kappa), kind, mass, lam,
                                          box_kappa, 301)
        box = box_kappa / seed.kappa0
        shift = np.sqrt(1.0 + (np.pi / (2 * box * seed.gap_edge)) ** 2) - 1.0
        rep = summary["continuum"]
        err = max(rep["relative_error_neg"], rep["relative_error_pos"])
        assert err <= shift + 1e-3, (box_kappa, err, shift)
        errors.append(err)
    assert errors[1] < errors[0]


@pytest.mark.parametrize("kind,mass,lam", [("I", 0.2, -0.1), ("II", 0.1, 0.05)],
                         ids=["model_I", "model_II"])
def test_continuum_state_at_minus_lambda_is_a_right_wall_state(tmp_path, kind, mass, lam):
    # the Wilson stencil binds one state at exactly -lambda, which the
    # continuum operator lacks: all its weight sits at the wall x = +box.
    # spectrum predicts it and never reports it as a gap edge
    seed, summary, rows = _continuum_run(tmp_path, kind, mass, lam, 36.0, 601)
    energy = rows[:, 1]
    (i,) = np.flatnonzero(np.abs(energy + lam) <= 1e-12)
    rep = summary["continuum"]
    assert rep["gap_edge_neg"] < energy[i] < rep["gap_edge_pos"]
    _, op, _ = susy.partner_route(seed, "continuum", 601, 36.0 / seed.kappa0)
    w, v = np.linalg.eigh(banded_to_dense(op))
    assert np.argmin(np.abs(w + lam)) == i
    density = (v[:, i] ** 2).reshape(601, 3).sum(axis=1)
    assert density[-31:].sum() > 0.999  # the outer 5 % of points at x = +box


@pytest.mark.parametrize("params", [["model=I", "mass=0.07"],
                                    ["model=II", "mass=0.1", "flat_energy=0.05"]],
                         ids=["model_I", "model_II"])
def test_spectrum_both_writes_the_bytes_of_each_route_alone(tmp_path, params):
    # the two routes run on two threads; each must write what it writes alone
    argv = ["spectrum", *(a for v in params for a in ("--set", v)),
            "--grid-points", "301"]
    for method in ("both", "chain", "continuum"):
        assert main([*argv, "--set", f"method={method}",
                     "--out", str(tmp_path / method)]) == EXIT_OK
    both = json.loads((tmp_path / "both" / "spectrum_summary.json").read_text())
    for route in ("chain", "continuum"):
        name = f"spectrum_{route}.csv"
        assert (tmp_path / "both" / name).read_bytes() == \
            (tmp_path / route / name).read_bytes()
        alone = json.loads((tmp_path / route / "spectrum_summary.json").read_text())
        assert json.dumps(both[route]) == json.dumps(alone[route])


@pytest.mark.parametrize("method,failing,error,shown", [
    ("chain", ["chain"], NumericalError, "chain"),
    ("both", ["chain"], NumericalError, "chain"),
    ("both", ["continuum"], NumericalError, "continuum"),
    ("both", ["chain", "continuum"], NumericalError, "chain"),
    ("both", ["continuum"], MemoryError, "continuum"),
], ids=["chain", "both", "both_continuum_fails", "both_routes_fail",
        "both_memory_error"])
def test_spectrum_chain_route_error_exits_3_and_ends_its_thread(
        tmp_path, capsys, monkeypatch, method, failing, error, shown):
    # each route is told apart by its matrix: 60 cells, 301 grid points
    dims = {"chain": 3 * 60, "continuum": 3 * 301}
    broken_dims = {dims[route]: route for route in failing}

    def broken(op, **kwargs):
        if op.dim in broken_dims:
            raise error(f"{broken_dims[op.dim]} route failed")
        return spectrum(op, **kwargs)

    spectrum = cli.chain_spectrum

    monkeypatch.setattr(cli, "chain_spectrum", broken)
    threads = threading.active_count()
    rc = main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
               "--set", "mass=0.33", "--set", f"method={method}",
               "--cells", "60", "--grid-points", "301"])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    # one message, the first route's in chain-then-continuum order
    assert err == f"error: {shown} route failed\n"
    assert threading.active_count() == threads
    assert not (tmp_path / "spectrum_summary.json").exists()


def _record_route_threads(monkeypatch):
    """Patch cli.chain_spectrum to note, per route, the thread it runs on
    and the live thread count; routes are told apart by their matrix size
    (60 cells, 301 grid points)."""
    routes = {3 * 60: "chain", 3 * 301: "continuum"}
    seen = {}
    spectrum = cli.chain_spectrum

    def recorded(op, **kwargs):
        seen[routes[op.dim]] = (threading.current_thread(), threading.active_count())
        return spectrum(op, **kwargs)

    monkeypatch.setattr(cli, "chain_spectrum", recorded)
    return seen


def _spectrum_60_cells(tmp_path, method):
    return main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
                 "--set", "mass=0.07", "--set", f"method={method}",
                 "--cells", "60", "--grid-points", "301"])


@pytest.mark.parametrize("method", ["chain", "continuum"])
def test_spectrum_lone_route_starts_no_thread(tmp_path, monkeypatch, method):
    seen = _record_route_threads(monkeypatch)
    threads = threading.active_count()
    assert _spectrum_60_cells(tmp_path, method) == EXIT_OK
    assert seen == {method: (threading.main_thread(), threads)}


def test_spectrum_both_runs_the_continuum_route_on_another_thread(tmp_path, monkeypatch):
    seen = _record_route_threads(monkeypatch)
    assert _spectrum_60_cells(tmp_path, "both") == EXIT_OK
    assert seen["chain"][0] is threading.current_thread()
    assert seen["continuum"][0] is not threading.current_thread()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_spectrum_without_bulk_states_writes_strict_json(tmp_path, capsys):
    # Model II (0.1, 0.1386) on two cells 200 apart: no state lies above
    # lambda past (E - |lambda|)/2, so the upper edge is null
    rc = main(["spectrum", "--out", str(tmp_path), "--cells", "2", "--box", "100",
               "--set", "model=II", "--set", "mass=0.1", "--set", "flat_energy=0.1386"])
    assert rc == EXIT_OK
    # the missing edge warns, beside the other, 4.89 % off
    assert capsys.readouterr().err == (
        "warning: the chain route's gap edges are 4.89 % and nan % off E = 0.141421, "
        "past 1 % (kappa0*h = 5.62, box*kappa0 = 2.81)\n")
    text = (tmp_path / "spectrum_summary.json").read_text()
    chain = json.loads(text, parse_constant=_reject_constant)["chain"]
    assert chain["cluster_count"] == 2
    assert chain["gap_edge_pos"] is None and chain["relative_error_pos"] is None
    assert None not in (chain["gap_edge_neg"], chain["relative_error_neg"])


def test_write_json_nulls_only_non_finite_floats(tmp_path):
    finite = {"a": 0.1, "b": [1e-300, -2.5, 3], "c": {"d": np.float64(1 / 3)},
              "e": "text", "f": True}
    cli._write_json(tmp_path / "finite.json", finite)
    want = json.dumps(finite, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "finite.json").read_text() == want
    odd = {"x": [np.nan, np.inf, -np.inf, 1.5], "y": {"z": np.float64(np.nan)}}
    cli._write_json(tmp_path / "odd.json", odd)
    odd = json.loads((tmp_path / "odd.json").read_text(),
                     parse_constant=_reject_constant)
    assert odd == {"x": [None, None, None, 1.5], "y": {"z": None}}


def test_spectrum_bad_method_exits_2(tmp_path):
    rc = main(["spectrum", "--out", str(tmp_path), "--set", "model=I",
               "--set", "mass=0.07", "--set", "method=banana"])
    assert rc == EXIT_CONFIG


# -------------------------------------------------------------- verify

def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["verify", "--out", str(out1), "--seed", "3"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert main(["verify", "--out", str(out2), "--seed", "3"]) == EXIT_OK
    b1 = (out1 / "verify.json").read_bytes()
    b2 = (out2 / "verify.json").read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["all_passed"]
    assert payload["seed"] == 3


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name, golden", [
    (["verify", "--seed", "3"], "verify.json", "verify_seed3.json"),
    (["susy", "--set", "model=I", "--set", "mass=0.07", "--grid-points", "201"],
     "susy_verify.json", "susy_verify_model1.json"),
    (["susy", "--set", "mass=0.3", "--set", "gauge_a=0.2",
      "--set", "flat_energy=0.1", "--set", "c0=-20", "--grid-points", "201"],
     "susy_verify.json", "susy_verify_general.json"),
])
def test_darboux_reports_match_golden_bytes(tmp_path, capsys, argv, name, golden):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / name).read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds main sets are glibc's")
def test_a_second_verify_reuses_the_heap(tmp_path):
    # a fresh process: an earlier test here may already have moved glibc's
    # dynamic thresholds. With them, each refinement level's arrays go back
    # to the kernel and a second verify faults in about 2500 fresh pages
    script = textwrap.dedent(f"""
        import contextlib, io, resource
        from susychain.cli import main
        argv = ["verify", "--out", {str(tmp_path)!r}, "--seed", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(argv) == 0
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        print(after - before)
    """)
    run = _run_python("-c", script)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 200


def test_main_runs_where_the_c_library_has_no_mallopt(tmp_path, capsys, monkeypatch):
    # macOS's libSystem has no mallopt: main leaves the allocator as it is
    # and writes the same bytes
    opened = []

    def cdll(name):
        opened.append(name)
        return SimpleNamespace()

    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=cdll))
    cli.reuse_freed_arrays.cache_clear()
    try:
        assert main(["verify", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
    finally:
        cli.reuse_freed_arrays.cache_clear()
    assert opened == [None]
    assert (tmp_path / "verify.json").read_bytes() == (GOLDEN / "verify_seed3.json").read_bytes()


def test_susy_builds_the_commutator_form_once_and_verify_four_times(tmp_path, monkeypatch):
    # one stack per frame serves its Hermiticity and its dual path; verify
    # builds one more per model for the negative control
    calls = []
    built = susy.commutator_potential

    def counted(frame):
        calls.append(frame)
        return built(frame)

    monkeypatch.setattr(susy, "commutator_potential", counted)
    assert main(["susy", "--out", str(tmp_path), *MODEL_I]) == EXIT_OK
    assert len(calls) == 1
    calls.clear()
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 4


def test_susy_on_verify_grid_reads_verify_model_I_rows_bitwise(tmp_path):
    # susy on verify's Model I frame, 1201 points of [-20, 20], reports what
    # verify thresholds: one frame_report serves both
    assert main(["susy", "--out", str(tmp_path), *MODEL_I, "--box", "20",
                 "--grid-points", "1201"]) == EXIT_OK
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "susy_verify.json").read_text())
    rows = {c["name"]: c["measured"]
            for c in json.loads((tmp_path / "verify.json").read_text())["checks"]}
    keys = {"hermiticity_max_asymmetry": "model_I_hermiticity",
            "wronskian_relative_stdev": "model_I_wronskian_constancy",
            "dual_path_max_diff": "model_I_dual_path",
            "model_oracle_max_diff": "model_I_oracle_match"}
    assert {key: report[key] for key in keys} == {key: rows[row] for key, row in keys.items()}
    # the commutator form's rounding, not the 0.0 of a form Hermitian by construction
    assert report["hermiticity_max_asymmetry"] > 0.0


# SHA-256 of each susy_potential.csv: a change to how the frame stores Uhat
# must not move any sample of the potential table
@pytest.mark.parametrize("argv, digest", [
    (["susy", "--set", "model=I", "--set", "mass=0.07", "--grid-points", "2001"],
     "049f67cc257391514d1856daccd7ac8bcdba09b87870b93516c262430d24e83e"),
    (GENERAL_SEED_ARGV,
     "69f1bed60929329c136f142e2003df5ecc8df709049aca86aacc5bf7f73b1202"),
], ids=["model_I", "general_seed"])
def test_susy_potential_table_keeps_its_bytes(tmp_path, argv, digest):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    table = (tmp_path / "susy_potential.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == digest


# SHA-256 of susy_verify.json at the benchmark's size: the intertwining
# residuals at 2001 and 4001 points must keep every bit through a change to
# how L and H act
@pytest.mark.parametrize("argv, digest", [
    (["susy", "--set", "model=I", "--set", "mass=0.07"],
     "dfee4ff2e42c1aff4d485ae6ef14d96e04d64a89af6285d83dd5bf79d74a7862"),
    (["susy", "--set", "model=II", "--set", "mass=0.03", "--set", "flat_energy=0.015",
      "--grid-points", "2001"],
     "da900e01242bcb9108a993720b745de1d0eb7971acab97e0ff22aca54d305984"),
], ids=["model_I_default", "model_II_2001"])
def test_susy_report_keeps_its_bytes(tmp_path, argv, digest):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    report = (tmp_path / "susy_verify.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest


# SHA-256 of each spectrum output: a refactor of either route must not
# move a bit
@pytest.mark.parametrize("argv, digests", [
    (["spectrum", "--set", "model=I", "--set", "mass=0.07", "--set", "method=both"],
     {"spectrum_chain.csv":
      "2f3dbddc2768c4d94feb091893eb444c5166c8e7a50058ddd297b594564deac0",
      "spectrum_continuum.csv":
      "c6e03a925d4eac5d3d8b0af62c3a1d538f672d0123451bef04b81348ba469a6c",
      "spectrum_summary.json":
      "b513090655c6d5128302015be40c6a1bfdb836cffc48f950a3da02ef0454c4a8"}),
    (["spectrum", "--set", "model=II", "--set", "mass=0.1", "--set", "flat_energy=0.05",
      "--set", "method=both", "--cells", "300", "--grid-points", "201"],
     {"spectrum_chain.csv":
      "7b0807683ec4dc91df49ce8f83a6a46b336dd1daed4ab784b7a694d4e03d3ac9",
      "spectrum_continuum.csv":
      "e067f12cc3a1dac1b9cf51c00c0e5b0094549cbf6048b7e9ac549b67d1610146",
      "spectrum_summary.json":
      "17e3862dfb4e18bd6a0d06789e433c87e61bd7747c0b31a56fddbc262c7ed614"}),
    # cell spacing 600/499, where the hop (n - 1)/(2 box) and 1/h differ in the last bit
    (["spectrum", "--set", "model=II", "--set", "mass=0.1", "--set", "flat_energy=0.05",
      "--set", "method=chain", "--cells", "500", "--box", "300"],
     {"spectrum_chain.csv":
      "15720120822099ed1eb8820c886928befd3f5f7fa6969883eaa1ff5a8d38e257",
      "spectrum_summary.json":
      "f79bd866ce9c5ec5100c353cd1d1007e485eb966594dfe1fcb206963dc98afd0"}),
    # the smallest chain, a 2-point grid
    (["spectrum", "--set", "model=I", "--set", "mass=0.07", "--set", "method=chain",
      "--cells", "2"],
     {"spectrum_chain.csv":
      "f53fd59427cf60fcbbf405472375661a4a4413bc374e6703654bd4c2c104cbca",
      "spectrum_summary.json":
      "ce4e9276c2ef53d94f79ff84c2d1188cdc36766e5110af63f50cb1aa869cabba"}),
], ids=["model_I_default", "model_II_small", "model_II_box_300", "two_cells"])
def test_spectrum_outputs_keep_their_bytes(tmp_path, argv, digests):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _eps_c_off(monkeypatch):
    # every tuned eps_c 1e-9 relative off, as the battery reads it
    tune = checks.tune_flat_band
    monkeypatch.setattr(checks, "tune_flat_band",
                        lambda p: [replace(s, eps_c=s.eps_c * (1.0 + 1e-9)) for s in tune(p)])


def _inter_cell_hop_off(monkeypatch):
    bloch = lattice.bloch_hamiltonian
    monkeypatch.setattr(lattice, "bloch_hamiltonian", lambda p, k: bloch(
        replace(p, t_ab_inter=p.t_ab_inter * (1.0 + 1e-6)), k))


def _gap_edge_off(monkeypatch):
    # the seed's hypot(mass, gauge_a), which only the gap-edge row reads
    exact = susy.SeedData.gap_edge.fget
    monkeypatch.setattr(susy.SeedData, "gap_edge", property(lambda s: exact(s) * (1.0 + 1e-9)))


def _darboux_tilted(monkeypatch):
    darboux = susy.apply_darboux
    monkeypatch.setattr(susy, "apply_darboux", lambda frame, state: darboux(frame, state)
                        * (1.0 + 1e-6 * np.tanh(frame.grid.x)))


# each mutant of the engine and the rows of verify --seed 3 it fails.
# L x (1 + 1e-6 tanh x) fails none: the intertwining row is an order test,
# and the tilt moves the order from 2.00 to 1.99 and 1.95, above its bound
# log2 3.6 = 1.85. That is a known gap, asserted as such, so that a row
# which catches it flips this test
@pytest.mark.parametrize("mutant, failing", [
    (_eps_c_off, {"tune_eps_c_exact", "random_tune_residual"}),
    (_inter_cell_hop_off, {"tuned_middle_band_spread", "dirac_point_gap"}),
    (_gap_edge_off, {"gap_edge_threshold"}),
    (_darboux_tilted, set()),
], ids=["eps_c_1e-9", "t_ab_inter_1e-6", "gap_edge_1e-9", "darboux_tanh_1e-6_known_gap"])
def test_verify_rows_each_mutant_fails(tmp_path, capsys, monkeypatch, mutant, failing):
    argv = ["verify", "--seed", "3", "--out"]
    assert main([*argv, str(tmp_path / "clean")]) == EXIT_OK
    mutant(monkeypatch)
    assert main([*argv, str(tmp_path / "mutant")]) == (EXIT_VERIFY if failing else EXIT_OK)
    out = capsys.readouterr().out
    clean, rows = ({c["name"]: c for c in json.loads((tmp_path / run / "verify.json")
                                                     .read_text())["checks"]}
                   for run in ("clean", "mutant"))
    assert {name for name, c in rows.items() if not c["passed"]} == failing
    assert sorted(re.findall(r"^FAIL (\w+):", out, re.M)) == sorted(failing)
    # the mutant reaches the battery, the one that no row catches too
    assert any(rows[name]["measured"] != c["measured"] for name, c in clean.items())


# ---------------------------------------------------- scale covariance
#
# Rescale every energy input by s = 2**k and every length by 1/s. Each
# floating-point step is then exact, so every output energy must be s times
# the unscaled one, and every count, flag, relative error, exit code and
# message the same; a window or threshold that is absolute in energy breaks
# this. The exception is the subnormal range: where the smallest nonzero
# band entry squared falls below 2**-1022, LAPACK's products of such
# entries (dsbtrd's rotations) lose bits, and an eigenvalue may move by an
# ulp of the band's scale. There the energies are held to 4 ulps of max|E|.

SCALES = st.integers(-300, 300)
# lambda/m as perfbench draws it, for either model
LAMBDA_OVER_M = {"I": (-1.5, 0.9), "II": (-0.9, 0.9)}


def _model(kind, mass, u):
    lo, hi = LAMBDA_OVER_M[kind]
    return kind, mass, mass * (lo + u * (hi - lo))


MODELS = st.builds(_model, st.sampled_from(["I", "II"]), st.floats(0.03, 0.2),
                   st.floats(0.0, 1.0, exclude_max=True))


def _run_captured(argv):
    """main(argv) into a fresh directory: the exit code, stderr, and each
    output file by name, a CSV as its array of rows, a JSON as its value."""
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "--out", out])
        return rc, err.getvalue(), {
            p.name: read_csv(p)[1] if p.suffix == ".csv" else _strict_json(p.read_text())
            for p in Path(out).iterdir()}


def _assert_same_exit(run, run_scaled):
    """The same exit code, and messages that differ only in their numbers
    (energies and lengths scale); kappa0*h, which does not scale, the same."""
    (rc, err, _), (rc_s, err_s, _) = run, run_scaled
    assert rc == rc_s
    number = r"-?\d[\d.]*(?:e[+-]?\d+)?"
    assert re.sub(number, "#", err) == re.sub(number, "#", err_s)
    kh = r"kappa0\*h = (\S+)"
    assert re.findall(kh, err) == re.findall(kh, err_s)


def _assert_scaled(got, want, k, ulps=0):
    """got == want * 2**k bit for bit, or within `ulps` ulps of its max."""
    want = np.ldexp(np.asarray(want, dtype=float), k)
    assert np.abs(got - want).max() <= ulps * np.spacing(np.abs(want).max())


def _band_is_subnormal(kind, mass, lam, box, n, route):
    """Whether the band that spectrum builds for this route holds a nonzero
    entry whose square is below 2**-1022."""
    seed = models.ModelParams(models.ModelKind(kind), mass, lam).seed_data()
    band = np.abs(susy.partner_route(seed, route, n, box)[1].bands)
    return band[band > 0].min() ** 2 < np.finfo(float).tiny


def _assert_spectrum_covariant(kind, mass, lam, k, box, cells, grid_points, method="both"):
    def run(e):
        return _run_captured([
            "spectrum", "--set", f"model={kind}", "--set", f"mass={math.ldexp(mass, e)!r}",
            "--set", f"flat_energy={math.ldexp(lam, e)!r}", "--set", f"method={method}",
            "--box", repr(math.ldexp(box, -e)), "--cells", str(cells),
            "--grid-points", str(grid_points)])
    runs = run(0), run(k)
    _assert_same_exit(*runs)
    (rc, _, files), (_, _, files_s) = runs
    if rc != EXIT_OK:
        return
    summary, summary_s = files["spectrum_summary.json"], files_s["spectrum_summary.json"]
    for key in ("mass", "flat_energy", "analytic_gap_edge", "cluster_tol", "gap_exclusion"):
        _assert_scaled(summary_s[key], summary[key], k)
    edge = summary_s["analytic_gap_edge"]
    for route, n in (("chain", cells), ("continuum", grid_points)):
        if route not in summary:
            continue
        w, w_s = (f[f"spectrum_{route}.csv"][:, 1] for f in (files, files_s))
        scaled = (math.ldexp(mass, k), math.ldexp(lam, k), math.ldexp(box, -k), n, route)
        ulps = 0
        if not np.array_equal(w_s, np.ldexp(w, k)) and _band_is_subnormal(kind, *scaled):
            ulps = 4
        _assert_scaled(w_s, w, k, ulps)
        rep, rep_s = summary[route], summary_s[route]
        assert rep["cluster_count"] == rep_s["cluster_count"], (
            f"{route} cluster_count {rep['cluster_count']} at scale 1, "
            f"{rep_s['cluster_count']} at 2**{k}")
        for side in ("neg", "pos"):
            if rep[f"gap_edge_{side}"] is None:  # no bulk state on that side
                assert rep_s[f"gap_edge_{side}"] is rep_s[f"relative_error_{side}"] is None
                continue
            _assert_scaled(rep_s[f"gap_edge_{side}"], rep[f"gap_edge_{side}"], k, ulps)
            # an edge that moves by d moves its relative error by d / E
            moved = ulps * np.spacing(np.abs(w_s).max()) / edge
            err, err_s = rep[f"relative_error_{side}"], rep_s[f"relative_error_{side}"]
            assert abs(err - err_s) <= moved + 2 * ulps * np.spacing(err)


def _kappa(kind, mass, lam):
    return models.ModelParams(models.ModelKind(kind), mass, lam).kappa


# the box in units of 1/kappa: past 40 most draws' continuum grids are too
# coarse to resolve the wall mode at -lambda, and exit 3
@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=MODELS, k=SCALES, box_kappa=st.floats(1.0, 40.0), cells=st.integers(2, 199),
       grid_points=st.integers(3, 199))
def test_spectrum_is_covariant_under_a_power_of_two_rescaling(model, k, box_kappa, cells,
                                                              grid_points):
    box = box_kappa / _kappa(*model)
    _assert_spectrum_covariant(*model, k, box, cells, grid_points)


def test_an_absolute_cluster_window_breaks_the_covariance(monkeypatch):
    # the property's control: Model II (0.03, 0.015) on the default chain,
    # with its cluster window 1e-6 instead of 1e-5 E, counts 286 flat states
    # at scale 1 and none at 2**40, where 1e-6 is below one rounding unit
    args = ("II", 0.03, 0.015, 40, 199.5, 400, 3)
    _assert_spectrum_covariant(*args, method="chain")

    def absolute_window(op, **kwargs):
        return lattice.chain_spectrum(op, **{**kwargs, "cluster_tol": 1e-6})

    monkeypatch.setattr(cli, "chain_spectrum", absolute_window)
    with pytest.raises(AssertionError, match=r"chain cluster_count 286 at scale 1, 0 at 2\*\*40"):
        _assert_spectrum_covariant(*args, method="chain")


TIGHT_BINDING_VALUES = st.just(0.0) | st.floats(1e-3, 1.5) | st.floats(-1.5, -1e-3)


def _tight_binding_sets(values, e):
    """--set arguments of the tight-binding values scaled by 2**e."""
    return [a for key, v in values.items() for a in ("--set", f"{key}={math.ldexp(v, e)!r}")]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=st.fixed_dictionaries({key: TIGHT_BINDING_VALUES
                                     for key in cli.TIGHT_BINDING_KEYS}),
       tuned=st.booleans(), k=SCALES, grid_points=st.integers(3, 65))
def test_bands_is_covariant_under_a_power_of_two_rescaling(values, tuned, k, grid_points):
    if tuned:  # eps_c that flattens a band, where tuning finds one
        try:
            sols = lattice.tune_flat_band(lattice.TightBindingParams(**values))
        except SusychainError:
            sols = []
        values = {**values, "eps_c": sols[0].eps_c} if sols else values

    def run(e):
        return _run_captured(["bands", "--grid-points", str(grid_points),
                              *_tight_binding_sets(values, e)])
    runs = run(0), run(k)
    _assert_same_exit(*runs)
    (rc, _, files), (_, _, files_s) = runs
    assert rc == EXIT_OK
    table, table_s = files["bands.csv"], files_s["bands.csv"]
    assert np.array_equal(table_s[:, 0], table[:, 0])  # k, in units of 1/a
    _assert_scaled(table_s[:, 1:], table[:, 1:], k)
    summary, summary_s = files["bands_summary.json"], files_s["bands_summary.json"]
    assert [f["band_index"] for f in summary_s["flat_bands"]] == \
        [f["band_index"] for f in summary["flat_bands"]]
    for key in ("band_spreads", "flat_threshold"):
        _assert_scaled(summary_s[key], summary[key], k)


# how each value of a tune.json solution scales: powers of s
TUNE_POWERS = {"eps_c": 1, "flat_energy": 1, "quad_lin": 1, "quad_const": 2, "quad_cos": 2,
               "residual_max_over_k": 3}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(values=st.fixed_dictionaries({key: TIGHT_BINDING_VALUES for key in cli.TUNE_KEYS}),
       k=SCALES)
# libm's pow is not correctly rounded: the squares it gave of this t_ac and
# of its half are not in the ratio 4, so quad_const missed the s^2 scaling by
# an ulp while tune squared with **
@example(values={"eps_a": 0.0, "eps_b": 0.0, "t_ab": 1.0, "t_ab_inter": 1.0,
                 "t_ac": -1.1136679379964276, "t_bc": 0.0}, k=-1)
def test_tune_is_covariant_under_a_power_of_two_rescaling(values, k):
    runs = [_run_captured(["tune", *_tight_binding_sets(values, e)]) for e in (0, k)]
    _assert_same_exit(*runs)
    (rc, _, files), (_, _, files_s) = runs
    if rc != EXIT_OK:
        return
    sols, sols_s = files["tune.json"]["solutions"], files_s["tune.json"]["solutions"]
    assert len(sols) == len(sols_s)
    for sol, sol_s in zip(sols, sols_s):
        assert set(sol) == set(TUNE_POWERS)
        for key, power in TUNE_POWERS.items():
            _assert_scaled(sol_s[key], sol[key], power * k)


# what a Darboux report does under the rescaling: energies, and the
# distances between two potentials, scale by s; the intertwining residual
# |L H - H_new L| by s^2; the rest is scale-free. hermiticity_max_asymmetry
# is not homogeneous: it divides by 1 + ||V||, so it has no place here
SUSY_REPORT_POWERS = {"dual_path_max_diff": 1, "model_oracle_max_diff": 1,
                      "intertwining_residuals": 2, "intertwining_orders": 0,
                      "wronskian_relative_stdev": 0, "min_abs_det": 0}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(model=MODELS, k=SCALES, box_kappa=st.floats(2.0, 30.0),
       grid_points=st.integers(21, 201))
def test_susy_is_covariant_under_a_power_of_two_rescaling(model, k, box_kappa, grid_points):
    kind, mass, lam = model
    box = box_kappa / _kappa(*model)

    def run(e):
        return _run_captured([
            "susy", "--set", f"model={kind}", "--set", f"mass={math.ldexp(mass, e)!r}",
            "--set", f"flat_energy={math.ldexp(lam, e)!r}",
            "--box", repr(math.ldexp(box, -e)), "--grid-points", str(grid_points)])
    runs = run(0), run(k)
    _assert_same_exit(*runs)
    (rc, _, files), (_, _, files_s) = runs
    assert rc == EXIT_OK
    table, table_s = files["susy_potential.csv"], files_s["susy_potential.csv"]
    _assert_scaled(table_s[:, 0], table[:, 0], -k)  # x
    _assert_scaled(table_s[:, 1:], table[:, 1:], k)  # v11, v12, v13, v23
    report, report_s = files["susy_verify.json"], files_s["susy_verify.json"]
    assert set(report) == {*SUSY_REPORT_POWERS, "hermiticity_max_asymmetry"}
    for key, power in SUSY_REPORT_POWERS.items():
        _assert_scaled(report_s[key], report[key], power * k)
