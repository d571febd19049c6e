"""Command-line front end.

Subcommands: bands | tune | susy | spectrum | verify. Each command reads
the keys of one table (``BANDS_KEYS`` ... ``VERIFY_KEYS``): key -> (cast,
default, help), listed by ``susychain <command> --help``. Values come
from ``--set KEY=VALUE``, then the flags ``--grid-points``, ``--box``,
``--cells`` and ``--seed``, which exist only on the commands whose table
holds the key; a flag wins over ``--set``. A key the command does not
read is a config error, as are a value of the wrong type (2.7 or true
for an integer) and a value out of range.
All numeric CSV output uses 17 significant digits; JSON floats use Python's
shortest round-trip repr, null if not finite. Exit codes: 0 success, 2
config error, 3 numerical/singularity error or out of memory, 4
verification failure.
"""

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import susy
from .checks import frame_report, invariant_checks
from .errors import ConfigError, NumericalError, SusychainError
from .lattice import TightBindingParams, band_structure, chain_spectrum, \
    default_k_grid, flat_band_residual, tune_flat_band
from .models import ModelKind, ModelParams
from .numcore import MAX_PARAM, Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

FLAT_BAND_THRESHOLD = 1e-8

# spectrum warns on a route whose gap edge is missing or further than this
# from the analytic edge E, relative to E
GAP_EDGE_REL_TOL = 0.01


def _parse_value(text):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


REQUIRED = object()  # table default of a key the command cannot run without


class Key(NamedTuple):
    """One key of a command's table; cast(value) checks and converts it."""

    cast: object
    default: object
    help: str


def _real(val):
    # bool is an int, but `t_ab = true` is a slip, not 1.0
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"expected a number, got {val!r}")
    return float(val)


MAX_SIZE = 2**53  # the largest count a float value gives exactly


def _count(least, most=MAX_SIZE):
    """Cast to an int in [least, most]; 2.7 and true are not counts."""
    def cast(val):
        if not _real(val).is_integer():
            raise ValueError(f"expected an integer, got {val!r}")
        if val < least:
            raise ValueError(f"need at least {least}, got {val!r}")
        if val > most:
            raise ValueError(f"need at most {most}, got {val!r}")
        return int(val)
    return cast


def _positive(val):
    if not 0.0 < _real(val) < math.inf:
        raise ValueError(f"expected a finite number > 0, got {val!r}")
    return float(val)


def _bounded(val):
    # tuning squares and multiplies tight-binding values: past 1e100 they overflow
    if not abs(_real(val)) <= MAX_PARAM:
        raise ValueError(f"expected a finite number, |value| <= {MAX_PARAM:g}, got {val!r}")
    return float(val)


def _choice(*options, fold=str):
    def cast(val):
        text = fold(val)
        if text not in options:
            raise ValueError(f"expected {' or '.join(options)}, got {text!r}")
        return text
    return cast


class Settings:
    """One command's values, checked against its key table.

    The --set values, then the flags, apply in order, a later one winning;
    None means unset. A key the command does not read is a ConfigError.
    """

    def __init__(self, command, sets, flags):
        self.command = command
        self.table = COMMANDS[command][1]
        self.values = {}
        for layer in (sets, flags):
            for key, val in layer.items():
                if key not in self.table:
                    raise self._unread(key)
                if val is None:
                    continue
                try:
                    self.values[key] = self.table[key].cast(val)
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(f"field '{key}': {exc}") from exc

    def _unread(self, key):
        """The error for a key this command does not read."""
        readers = [c for c, (_, table) in COMMANDS.items() if key in table]
        if readers:
            return ConfigError(f"key {key!r} is not read by {self.command} "
                               f"(read by {', '.join(readers)})")
        import difflib  # only here: a clean run never pays its import
        known = {k for _, table in COMMANDS.values() for k in table}
        near = difflib.get_close_matches(key, known, n=1)
        return ConfigError(f"unknown key {key!r}"
                           + (f"; nearest known key: {near[0]!r}" if near else ""))

    def __getitem__(self, name):
        val = self.values.get(name, self.table[name].default)
        if val is REQUIRED:
            raise ConfigError(f"missing required field '{name}'")
        return val


TIGHT_BINDING_KEYS = {
    "eps_a": Key(_bounded, 0.0, "on-site energy of A"),
    "eps_b": Key(_bounded, 0.0, "on-site energy of B"),
    "eps_c": Key(_bounded, 0.0, "on-site energy of the side site C"),
    "t_ab": Key(_bounded, 0.0, "A-B hopping within a cell"),
    "t_ab_inter": Key(_bounded, 0.0, "A-B hopping to the previous cell"),
    "t_ac": Key(_bounded, 0.0, "A-C hopping"),
    "t_bc": Key(_bounded, 0.0, "B-C hopping"),
}
_MODEL_KIND = _choice("I", "II", fold=lambda val: str(val).upper())
MODEL_KEYS = {
    "model": Key(_MODEL_KIND, REQUIRED, "closed-form model, I or II"),
    "mass": Key(_real, REQUIRED, "mass m"),
    "flat_energy": Key(_real, 0.0, "flat level lambda"),
}


def _tb_params(st):
    return TightBindingParams(**{k: st[k] for k in st.table if k in TIGHT_BINDING_KEYS})


def _seed(st):
    """The model's ModelParams and SeedData, or None and the general seed of
    gauge_a and c0 where the table lets model be unset."""
    if st["model"] is None:
        return None, susy.SeedData(mass=st["mass"], flat_energy=st["flat_energy"],
                                   gauge_a=st["gauge_a"], c0=st["c0"])
    fixed = [k for k in ("gauge_a", "c0") if k in st.values]
    if fixed:
        raise ConfigError(f"field '{fixed[0]}': model {st['model']} fixes it")
    try:
        p = ModelParams(kind=ModelKind(st["model"]), mass=st["mass"],
                        flat_energy=st["flat_energy"])
    except NumericalError as exc:
        raise ConfigError(str(exc)) from exc
    return p, p.seed_data()


def _write_csv(path, header, columns):
    # one C-level %-format per row; "%.17g" % x spells a float exactly
    # as format(x, ".17g") does, nan and +-inf included
    columns = [np.asarray(col, dtype=float).tolist() for col in columns]
    row_format = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % row for row in zip(*columns))


def _null_if_not_finite(value):
    """The payload with NaN and +-inf, which JSON lacks, as None (null)."""
    if isinstance(value, dict):
        return {k: _null_if_not_finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_null_if_not_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path, payload):
    # one write: json.dump with indent makes one write per token
    with open(path, "w") as fh:
        fh.write(json.dumps(_null_if_not_finite(payload), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


# at 1 or 2 k points (both zone edges) every band has zero spread
BANDS_KEYS = {**TIGHT_BINDING_KEYS,
              "grid_points": Key(_count(3), 513, "k points over one zone")}


def cmd_bands(st, out_dir):
    p = _tb_params(st)
    n_k = st["grid_points"]
    k = default_k_grid(n_k)
    energies = band_structure(p, k)
    _write_csv(os.path.join(out_dir, "bands.csv"),
               ["k", "E1", "E2", "E3"],
               [k, *energies.T])
    spreads = np.ptp(energies, axis=0)
    means = energies.mean(axis=0)
    # relative to the largest |value|, which sets eigh's rounding
    threshold = FLAT_BAND_THRESHOLD * max(abs(v) for v in vars(p).values())
    flat = [{"band_index": j, "energy": float(means[j]), "spread": float(spreads[j])}
            for j in range(3) if spreads[j] <= threshold]
    _write_json(os.path.join(out_dir, "bands_summary.json"), {
        "params": {k: getattr(p, k) for k in TIGHT_BINDING_KEYS},
        "k_points": n_k,
        "band_spreads": [float(s) for s in spreads],
        "flat_bands": flat,
        "flat_threshold": threshold,
    })
    return EXIT_OK


# tuning solves for eps_c, so it reads no eps_c
TUNE_KEYS = {k: v for k, v in TIGHT_BINDING_KEYS.items() if k != "eps_c"}


def cmd_tune(st, out_dir):
    p = _tb_params(st)
    solutions = tune_flat_band(p)
    payload = {"solutions": [
        {
            "eps_c": sol.eps_c,
            "flat_energy": sol.flat_energy,
            "quad_lin": sol.quad_lin,
            "quad_const": sol.quad_const,
            "quad_cos": sol.quad_cos,
            "residual_max_over_k": flat_band_residual(p, sol),
        }
        for sol in solutions
    ]}
    _write_json(os.path.join(out_dir, "tune.json"), payload)
    return EXIT_OK


SUSY_KEYS = {
    **MODEL_KEYS,
    "model": Key(_MODEL_KIND, None,
                 "closed-form model, I or II; unset: the general seed"),
    "gauge_a": Key(_real, REQUIRED, "seed gauge A; general seed only"),
    "c0": Key(_real, 0.0, "quadrature constant of phi1; general seed only"),
    "box": Key(_positive, 20.0, "half-width of the potential table"),
    "grid_points": Key(_count(3), 2001, "points of the potential table"),
}


def cmd_susy(st, out_dir):
    p, seed = _seed(st)
    frame = susy.assemble_frame(seed, Grid(-st["box"], st["box"], st["grid_points"]))
    report = frame_report(frame, 2, p)
    h = frame.grid.h
    kh = seed.kappa0 * h
    if kh > 0.25:
        # the stencil's error is O((kappa0*h)^2) only once h resolves the kink
        print(f"warning: kappa0*h = {kh:.3g} at h = {h:.3g} does not "
              "resolve the kink: intertwining_orders are not convergence orders",
              file=sys.stderr)
    comps = susy.transformed_potential(frame)
    _write_csv(os.path.join(out_dir, "susy_potential.csv"),
               ["x", "v11", "v12", "v13", "v23"],
               [frame.grid.x, comps.v11, comps.v12, comps.v13, comps.v23])
    _write_json(os.path.join(out_dir, "susy_verify.json"), report)
    return EXIT_OK


SPECTRUM_KEYS = {
    **MODEL_KEYS,
    "method": Key(_choice("chain", "continuum", "both"), "chain",
                  "route: chain, continuum or both"),
    "cells": Key(_count(2), 400, "cells of the finite chain"),
    "box": Key(_positive, None, "half-width of the sampled box; unset: "
               "(cells - 1)/2 for the chain (cell spacing 1), 12/kappa for the continuum"),
    "grid_points": Key(_count(3), 2001, "points of the continuum grid"),
}


def cmd_spectrum(st, out_dir):
    p, seed = _seed(st)

    def route(name):
        n = st["cells"] if name == "chain" else st["grid_points"]
        grid, op, args = susy.partner_route(seed, name, n, st["box"])
        return grid, args, chain_spectrum(op, **args)

    # imported here, so only spectrum pays for it
    from concurrent.futures import ThreadPoolExecutor

    names = [name for name in susy.ROUTES if st["method"] in (name, "both")]
    # the first route runs here; the pool starts a thread only for a second
    # one, which overlaps it since the eigensolves release the GIL. A chain
    # error, raised here, is reported ahead of a continuum one
    with ThreadPoolExecutor() as pool:
        futures = {name: pool.submit(route, name) for name in names[1:]}
        reports = {names[0]: route(names[0])}
    reports.update((name, future.result()) for name, future in futures.items())

    _, args, _ = reports[names[0]]
    summary = {
        "model": p.kind.value,
        "mass": p.mass,
        "flat_energy": p.flat_energy,
        "analytic_gap_edge": seed.gap_edge,
        "gap_edge_derived_not_published": p.kind is ModelKind.II,
        "cluster_tol": args["cluster_tol"],
        "gap_exclusion": args["gap_exclusion"],
    }
    for name, (grid, _, rep) in sorted(reports.items()):
        _write_csv(os.path.join(out_dir, f"spectrum_{name}.csv"), ["index", "energy"],
                   [np.arange(rep.eigenvalues.size), rep.eigenvalues])
        # a missing edge's error is nan, which no bound holds
        neg, pos = (abs(abs(edge) / seed.gap_edge - 1.0)
                    for edge in (rep.gap_edge_neg, rep.gap_edge_pos))
        summary[name] = {
            "cluster_count": rep.cluster_count,
            "gap_edge_neg": rep.gap_edge_neg,
            "gap_edge_pos": rep.gap_edge_pos,
            "relative_error_neg": neg,
            "relative_error_pos": pos,
        }
        if not (neg <= GAP_EDGE_REL_TOL and pos <= GAP_EDGE_REL_TOL):
            print(f"warning: the {name} route's gap edges are {100 * neg:.3g} % and "
                  f"{100 * pos:.3g} % off E = {seed.gap_edge:.6g}, past "
                  f"{100 * GAP_EDGE_REL_TOL:g} % (kappa0*h = {seed.kappa0 * grid.h:.3g}, "
                  f"box*kappa0 = {seed.kappa0 * grid.x_max:.3g})", file=sys.stderr)
    _write_json(os.path.join(out_dir, "spectrum_summary.json"), summary)
    return EXIT_OK


VERIFY_KEYS = {"seed": Key(_count(0, math.inf), 0, "seed of the randomized checks")}


def cmd_verify(st, out_dir):
    seed = st["seed"]
    results = invariant_checks(seed)
    all_pass = all(r["passed"] for r in results)
    _write_json(os.path.join(out_dir, "verify.json"),
                {"seed": seed, "all_passed": all_pass, "checks": results})
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['name']}: {r['measured']:.3e} "
              f"{r['comparison']} {r['threshold']:.3e}")
    return EXIT_OK if all_pass else EXIT_VERIFY


COMMANDS = {
    "bands": (cmd_bands, BANDS_KEYS),
    "tune": (cmd_tune, TUNE_KEYS),
    "susy": (cmd_susy, SUSY_KEYS),
    "spectrum": (cmd_spectrum, SPECTRUM_KEYS),
    "verify": (cmd_verify, VERIFY_KEYS),
}
# keys that also have a --flag, on the commands that read them
FLAGS = ("seed", "grid_points", "box", "cells")


def _shown(default):
    return {REQUIRED: "required", None: "unset"}.get(default, default)


@functools.cache
def build_parser():
    """The argv parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="susychain",
        description="Saw-chain flat bands and Darboux-coupled Dirac chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table) in COMMANDS.items():
        keys = "\n".join(f"  {k:<14}{_shown(key.default)!s:<10}{key.help}"
                         for k, key in table.items())
        cmd = sub.add_parser(
            name, formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog=f"keys (--set or flag), default, meaning:\n{keys}")
        cmd.add_argument("--out", default=".", help="output directory")
        for key in FLAGS:
            if key in table:
                cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                                 type=_parse_value, help=table[key].help)
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="set any key of the table below")
    return parser


# glibc's mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache
def reuse_freed_arrays():
    """Keep freed arrays of up to 2 MiB in this process's heap for reuse.

    glibc maps a block above its mmap threshold (128 KiB at start, then
    the largest mapped block freed) straight from the kernel and returns
    the heap's top above twice that. A `verify` refinement level holds
    about 2.6 MB in blocks of up to 346 kB, so each level would give its
    pages back and fault in fresh zeroed ones. Set once per process, by
    `main` only: importing susychain leaves the allocator as it is. Does
    nothing where the C library has no mallopt (macOS).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt; no process handle (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 2 * 2**20)
    mallopt(M_TRIM_THRESHOLD, 32 * 2**20)


def main(argv=None):
    reuse_freed_arrays()
    args = build_parser().parse_args(argv)
    run, table = COMMANDS[args.command]
    try:
        sets = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            sets[key.strip()] = _parse_value(value.strip())
        flags = {key: getattr(args, key) for key in FLAGS if key in table}
        st = Settings(args.command, sets, flags)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise ConfigError(f"--out {args.out!r}: {exc.strerror}") from exc
        return run(st, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SusychainError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
