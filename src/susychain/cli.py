"""Command-line front end.

Subcommands: bands | tune | susy | spectrum | verify. Parameters come
from an optional flat key-value config file (``key = value`` per line,
``#`` comments, dotted prefixes allowed) overridden by command-line
flags. All numeric CSV output uses 17 significant digits; JSON floats use
Python's shortest round-trip repr. Exit codes: 0 success, 2 config
error, 3 numerical/singularity error, 4 verification failure.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import lattice, models, susy
from .continuum import DiracOperatorSpec, discretize, symbol_dispersion, \
    threshold_scan
from .errors import ConfigError, NumericalError, SusychainError
from .lattice import TightBindingParams, band_structure, build_finite_chain, \
    chain_spectrum, default_k_grid, flat_band_residual, tune_flat_band
from .models import ModelKind, ModelParams
from .numcore import Grid
from .susy import assemble_frame, transformed_potential

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

FLAT_BAND_THRESHOLD = 1e-8


def parse_config(path):
    """Flat ``key = value`` file; values become bool/int/float/str."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = _parse_value(value)
    return out


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


class Settings:
    """Merged view of config file + CLI flags for one command."""

    def __init__(self, command, config, overrides):
        self.values = {}
        for key, val in config.items():
            name = key.split(".", 1)[1] if key.startswith(command + ".") else key
            self.values[name] = val
        for key, val in overrides.items():
            if val is not None:
                self.values[key] = val

    def get(self, name, default=None, cast=None):
        val = self.values.get(name, default)
        if val is None:
            return None
        if cast is not None:
            try:
                return cast(val)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"field '{name}': cannot read {val!r}") from exc
        return val

    def require(self, name, cast=float):
        if name not in self.values:
            raise ConfigError(f"missing required field '{name}'")
        return self.get(name, cast=cast)


def _tb_params(st):
    try:
        return TightBindingParams(
            eps_a=st.get("eps_a", 0.0, float),
            eps_b=st.get("eps_b", 0.0, float),
            eps_c=st.get("eps_c", 0.0, float),
            t_ab=st.get("t_ab", 0.0, float),
            t_ab_inter=st.get("t_ab_inter", 0.0, float),
            t_ac=st.get("t_ac", 0.0, float),
            t_bc=st.get("t_bc", 0.0, float),
            a=st.get("a", 1.0, float),
        )
    except SusychainError as exc:
        raise ConfigError(f"invalid tight-binding parameters: {exc}") from exc


def _model_params(st):
    kind_text = str(st.require("model", str)).upper()
    if kind_text not in ("I", "II"):
        raise ConfigError(f"field 'model': expected I or II, got {kind_text!r}")
    try:
        return ModelParams(kind=ModelKind(kind_text),
                           mass=st.require("mass"),
                           flat_energy=st.get("flat_energy", 0.0, float))
    except NumericalError as exc:
        raise ConfigError(str(exc)) from exc


def _write_csv(path, header, columns):
    # one C-level %-format per row; "%.17g" % x spells a float exactly
    # as format(x, ".17g") does, nan and +-inf included
    columns = [np.asarray(col, dtype=float).tolist() for col in columns]
    row_format = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % row for row in zip(*columns))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_bands(st, out_dir):
    p = _tb_params(st)
    n_k = st.get("grid_points", 513, int)
    bs = band_structure(p, default_k_grid(p, n_k))
    _write_csv(os.path.join(out_dir, "bands.csv"),
               ["k", "E1", "E2", "E3"],
               [bs.k, bs.band(0), bs.band(1), bs.band(2)])
    spreads = bs.spreads()
    means = bs.energies.mean(axis=0)
    flat = [
        {"band_index": int(j), "energy": float(means[j]), "spread": float(spreads[j])}
        for j in range(3)
        if spreads[j] <= FLAT_BAND_THRESHOLD * (1.0 + abs(means[j]))
    ]
    _write_json(os.path.join(out_dir, "bands_summary.json"), {
        "params": {k: getattr(p, k) for k in
                   ("eps_a", "eps_b", "eps_c", "t_ab", "t_ab_inter",
                    "t_ac", "t_bc", "a")},
        "k_points": n_k,
        "band_spreads": [float(s) for s in spreads],
        "flat_bands": flat,
        "flat_threshold": FLAT_BAND_THRESHOLD,
    })
    return EXIT_OK


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
            "residual_max_over_k": flat_band_residual(p, sol, n_k=256),
        }
        for sol in solutions
    ]}
    _write_json(os.path.join(out_dir, "tune.json"), payload)
    return EXIT_OK


def _seed_and_frame(st):
    if "model" in st.values:
        p = _model_params(st)
        seed = p.seed_data(w0=st.get("w0", 1.0, float), c1=st.get("c1", 0.0, float))
    else:
        p = None
        seed = susy.SeedData(
            mass=st.require("mass"),
            flat_energy=st.get("flat_energy", 0.0, float),
            gauge_a=st.require("gauge_a"),
            c0=st.get("c0", 0.0, float),
            c1=st.get("c1", 0.0, float),
            w0=st.get("w0", 1.0, float),
        )
    # potential-table window; the spectral commands pick their own boxes
    box = st.get("box", 20.0, float)
    n = st.get("grid_points", 2001, int)
    grid = Grid(-box, box, n)
    return p, seed, assemble_frame(seed, grid)


def cmd_susy(st, out_dir):
    p, seed, frame = _seed_and_frame(st)
    comps = transformed_potential(frame)
    _write_csv(os.path.join(out_dir, "susy_potential.csv"),
               ["x", "v11", "v12", "v13", "v23"],
               [frame.grid.x, comps.v11, comps.v12, comps.v13, comps.v23])

    stack = comps.matrix_stack()
    residuals, orders = susy.intertwining_residual(frame, _smooth_test_states,
                                                   n_levels=2)
    verification = {
        "hermiticity_max_asymmetry": susy.hermiticity_asymmetry(stack),
        "w0_relative_stdev": frame.wronskian_relative_stdev,
        "dual_path_max_diff": susy.dual_path_difference(frame),
        "min_abs_det": frame.min_abs_det,
        "intertwining_residuals": residuals.tolist(),
        "intertwining_orders": orders.tolist(),
    }
    if p is not None:
        verification["model_oracle_max_diff"] = _oracle_max_diff(p, comps)
    _write_json(os.path.join(out_dir, "susy_verify.json"), verification)
    return EXIT_OK


def _oracle_max_diff(p, comps):
    """Largest |engine - closed form| over the four potential components."""
    oracle = models.model_potential_components(p, comps.grid)
    return float(max(np.abs(getattr(comps, c) - getattr(oracle, c)).max()
                     for c in ("v11", "v12", "v13", "v23")))


def _smooth_test_states(x):
    """Three Gaussian-enveloped spinors sampled on x: a (3, 3, len(x)) array."""
    # envelope must be negligible at the walls so the one-sided endpoint
    # stencils do not pollute the measured interior convergence order;
    # x[-1] - x[0] is the box width exactly, as Grid.x is a linspace
    width = 0.1 * (x[-1] - x[0])
    env = np.exp(-((x / width) ** 2))
    weights = np.array([(1.0, 0.5, 0.25), (0.3, -1.0, 0.6), (-0.7, 0.2, 1.0)])
    waves = np.cos(np.array([1.0, 2.0, 3.0])[:, None] * x / width)
    return weights[:, :, None] * env * waves[:, None, :]


def cmd_spectrum(st, out_dir):
    p = _model_params(st)
    spectrum = models.model_spectrum(p)
    method = str(st.get("method", "chain", str))
    if method not in ("chain", "continuum", "both"):
        raise ConfigError(f"field 'method': expected chain|continuum|both, got {method!r}")
    cluster_tol = st.get("cluster_tol", 1e-6, float)
    # when estimating gap edges, ignore flat-cluster members that leak
    # slightly past cluster_tol at finite size
    gap_exclusion = st.get("gap_exclusion", 0.1 * spectrum.gap_edge, float)
    reports = {}

    if method in ("chain", "both"):
        n_cells = st.get("cells", 400, int)
        if n_cells < 2:
            raise ConfigError("field 'cells': need at least 2")
        box = st.get("box", None, float)
        profile = models.sample_chain_profile(p, n_cells, box_halfwidth=box)
        reports["chain"] = chain_spectrum(
            build_finite_chain(profile), flat_energy=p.flat_energy,
            cluster_tol=cluster_tol, gap_exclusion=gap_exclusion)
    if method in ("continuum", "both"):
        kappa = p.kappa
        box = st.get("box", 12.0 / kappa, float)
        n = st.get("grid_points", 2001, int)
        grid = Grid(-box, box, n)
        comps = models.model_potential_components(p, grid)
        op = discretize(DiracOperatorSpec(comps.matrix_stack()), grid)
        reports["continuum"] = chain_spectrum(
            op, flat_energy=p.flat_energy, cluster_tol=cluster_tol,
            gap_exclusion=gap_exclusion)

    summary = {
        "model": p.kind.value,
        "mass": p.mass,
        "flat_energy": p.flat_energy,
        "analytic_gap_edge": spectrum.gap_edge,
        "gap_edge_derived_not_published": spectrum.derived_not_published,
        "cluster_tol": cluster_tol,
        "gap_exclusion": gap_exclusion,
    }
    for name, rep in sorted(reports.items()):
        # rows without a computed eigenvector hold nan in both columns
        edge_state = np.where(np.isnan(rep.ipr), np.nan, rep.edge_state_mask)
        _write_csv(os.path.join(out_dir, f"spectrum_{name}.csv"),
                   ["index", "energy", "ipr", "edge_state"],
                   [np.arange(rep.eigenvalues.size), rep.eigenvalues,
                    rep.ipr, edge_state])
        summary[name] = {
            "cluster_count": rep.cluster_count,
            "gap_edge_neg": rep.gap_edge_neg,
            "gap_edge_pos": rep.gap_edge_pos,
            "relative_error_neg": abs(abs(rep.gap_edge_neg) / spectrum.gap_edge - 1.0),
            "relative_error_pos": abs(abs(rep.gap_edge_pos) / spectrum.gap_edge - 1.0),
        }
    _write_json(os.path.join(out_dir, "spectrum_summary.json"), summary)
    return EXIT_OK


def _verify_checks(seed, tol_override):
    """The invariant battery behind `susychain verify`.

    Each entry: (name, measured, threshold, kind) with kind 'max' (pass if
    measured <= threshold) or 'min' (pass if measured >= threshold).
    Thresholds of 'max' checks can be overridden with --tol.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def add_max(name, measured, threshold):
        t = threshold if tol_override is None else tol_override
        checks.append((name, float(measured), float(t), "max"))

    def add_min(name, measured, threshold):
        checks.append((name, float(measured), float(threshold), "min"))

    # flat-band tuning against the known exact point
    p_ref = TightBindingParams(t_ab=1.0, t_ab_inter=1.0, t_ac=0.2, t_bc=0.01)
    sols = tune_flat_band(p_ref)
    best = min(sols, key=lambda s: abs(s.flat_energy))
    add_max("tune_eps_c_exact", abs(best.eps_c - 1.0 / 500.0), 1e-12)
    add_max("tune_flat_energy_exact", abs(best.flat_energy), 1e-12)
    tuned = replace(p_ref, eps_c=best.eps_c)
    bs = band_structure(tuned, default_k_grid(tuned, 513))
    add_max("tuned_middle_band_spread", bs.spreads()[1], 1e-10)

    # Dirac point closure for the pure AB chain
    p_ab = TightBindingParams(t_ab=1.0, t_ab_inter=1.0)
    w = np.linalg.eigh(lattice.bloch_hamiltonian(p_ab, np.pi / p_ab.a))[0]
    add_max("dirac_point_gap", w[2] - w[0], 1e-12)

    # randomized tuning residual sweep
    worst = 0.0
    found = 0
    while found < 5:
        vals = rng.uniform(-1.5, 1.5, size=6)
        cand = TightBindingParams(eps_a=vals[0], eps_b=vals[1],
                                  t_ab=vals[2], t_ab_inter=vals[3],
                                  t_ac=vals[4], t_bc=vals[5])
        if abs(cand.t_ab) < 0.1 or abs(cand.t_ab_inter) < 0.1 \
                or abs(cand.t_ac * cand.t_bc) < 1e-3:
            continue
        found += 1
        for sol in tune_flat_band(cand):
            worst = max(worst, flat_band_residual(cand, sol, n_k=256))
    add_max("random_tune_residual", worst, 1e-10)

    # Bloch periodicity and global gauge covariance
    k_samples = rng.uniform(-np.pi, np.pi, size=8)
    per = max(
        np.abs(lattice.bloch_hamiltonian(p_ref, k)
               - lattice.bloch_hamiltonian(p_ref, k + 2 * np.pi / p_ref.a)).max()
        for k in k_samples
    )
    add_max("bloch_periodicity", per, 1e-14)
    shift = 0.37
    shifted = replace(p_ref, eps_a=p_ref.eps_a + shift, eps_b=p_ref.eps_b + shift,
                      eps_c=p_ref.eps_c + shift)
    gauge = max(
        np.abs(np.sort(np.linalg.eigvalsh(lattice.bloch_hamiltonian(shifted, k)))
               - np.sort(np.linalg.eigvalsh(lattice.bloch_hamiltonian(p_ref, k)))
               - shift).max()
        for k in k_samples
    )
    add_max("gauge_covariance", gauge, 1e-12)

    # Darboux engine invariants on one parameter set per model
    model_comps = {}
    for kind, m, lam in ((ModelKind.I, 0.07, 0.0), (ModelKind.II, 0.03, 0.015)):
        tag = f"model_{kind.value}"
        p = ModelParams(kind, m, lam)
        grid = Grid(-20.0, 20.0, 1201)
        frame = assemble_frame(p.seed_data(), grid)
        comps = model_comps[kind] = transformed_potential(frame)
        stack = comps.matrix_stack()
        add_max(f"{tag}_hermiticity", susy.hermiticity_asymmetry(stack), 1e-10)
        add_max(f"{tag}_w0_constancy", frame.wronskian_relative_stdev, 1e-10)
        add_max(f"{tag}_dual_path", susy.dual_path_difference(frame), 1e-8)
        add_max(f"{tag}_oracle_match", _oracle_max_diff(p, comps), 1e-8)
        # negative control: xi1 = xi2 must break hermiticity of the
        # commutator-form potential (the component formulas are Hermitian
        # by construction and blind to a wrong xi1)
        broken = replace(frame, xi1=frame.xi2.copy(), dxi1=frame.dxi2.copy())
        add_min(f"{tag}_negative_control",
                susy.hermiticity_asymmetry(susy.commutator_potential(broken)),
                1e-4)
        # intertwining convergence
        residuals, orders = susy.intertwining_residual(frame, _smooth_test_states,
                                                       n_levels=3)
        add_min(f"{tag}_intertwining_order", orders.min(), np.log2(3.6))
        # L annihilates its own seed columns
        u = frame.u_stack()
        kernel = max(np.abs(susy.apply_darboux(frame, u[:, :, j].T)).max()
                     for j in range(3))
        add_max(f"{tag}_darboux_kernel", kernel, 1e-8)
        # frame eigen-residual convergence
        r_coarse = max(susy.frame_eigen_residuals(frame))
        r_fine = max(susy.frame_eigen_residuals(assemble_frame(p.seed_data(),
                                                               grid.refined())))
        add_min(f"{tag}_eigenframe_order", np.log2(r_coarse / r_fine), 1.9)

    # Model II constant dimerization component, on the loop's Model II frame
    comps2 = model_comps[ModelKind.II]
    add_max("model_II_v12_constant",
            np.abs(comps2.v12 + comps2.flat_energy).max(), 1e-10)

    # Model I asymptotic spectrum identity over the admissible grid
    worst = 0.0
    for m in (0.05, 0.08, 0.11, 0.15, 0.2):
        for frac in (-1.5, -0.75, 0.0, 0.45, 0.9):
            pm = ModelParams(ModelKind.I, m, frac * m)
            cell = models.asymptotic_cell(pm, +1)
            worst = max(worst, abs(cell.v11**2 + cell.v12**2
                                   - m * (2 * m - pm.flat_energy)))
    add_max("model_I_spectrum_identity", worst, 1e-12)

    # threshold_scan equals a brute-force minimum over a fine k-grid
    cell = models.asymptotic_cell(ModelParams(ModelKind.I, 0.16, 0.09), +1)
    _, edge, _ = threshold_scan(cell)
    w = symbol_dispersion(cell, np.linspace(-2.0, 2.0, 4001))
    dispersive = np.abs(w[np.abs(w - cell.flat_energy) > 1e-9])
    add_max("threshold_scan_vs_sweep", abs(dispersive.min() - edge), 1e-10)

    # stencil convergence orders on smooth functions
    g1 = Grid(-1.0, 1.0, 101)
    g2 = g1.refined()
    from .numcore import diff_central, integrate_cumulative
    e1 = np.abs(diff_central(np.sin(g1.x), g1) - np.cos(g1.x)).max()
    e2 = np.abs(diff_central(np.sin(g2.x), g2) - np.cos(g2.x)).max()
    add_min("diff_central_order", np.log2(e1 / e2), 1.9)
    i1 = np.abs(integrate_cumulative(1 / np.cosh(g1.x) ** 2, g1) - np.tanh(g1.x)).max()
    i2 = np.abs(integrate_cumulative(1 / np.cosh(g2.x) ** 2, g2) - np.tanh(g2.x)).max()
    add_min("integrate_cumulative_order", np.log2(i1 / i2), 1.9)

    return checks


def cmd_verify(st, out_dir):
    seed = st.get("seed", 0, int)
    tol_override = st.get("tol", None, float)
    checks = _verify_checks(seed, tol_override)
    results = []
    all_pass = True
    for name, measured, threshold, kind in checks:
        passed = measured <= threshold if kind == "max" else measured >= threshold
        all_pass &= passed
        results.append({
            "name": name,
            "passed": bool(passed),
            "measured": measured,
            "threshold": threshold,
            "comparison": "<=" if kind == "max" else ">=",
        })
    _write_json(os.path.join(out_dir, "verify.json"),
                {"seed": seed, "all_passed": bool(all_pass), "checks": results})
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status} {r['name']}: {r['measured']:.3e} "
              f"{r['comparison']} {r['threshold']:.3e}")
    return EXIT_OK if all_pass else EXIT_VERIFY


COMMANDS = {
    "bands": cmd_bands,
    "tune": cmd_tune,
    "susy": cmd_susy,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
}


@functools.cache
def build_parser():
    """The argv parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="susychain",
        description="Saw-chain flat bands and Darboux-coupled Dirac chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="flat key=value file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--tol", type=float, default=None)
        cmd.add_argument("--grid-points", type=int, default=None, dest="grid_points")
        cmd.add_argument("--box", type=float, default=None)
        cmd.add_argument("--cells", type=int, default=None)
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override any config field")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            config[key.strip()] = _parse_value(value.strip())
        overrides = {
            "seed": args.seed,
            "tol": args.tol,
            "grid_points": args.grid_points,
            "box": args.box,
            "cells": args.cells,
        }
        st = Settings(args.command, config, overrides)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        return COMMANDS[args.command](st, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SusychainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
