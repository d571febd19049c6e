"""Seeded inputs, requests and output checks of the benchmark workloads.

A request is one user action: one `susychain` command, or a short chain
of commands on one parameter set. Inputs are a pure function of the
workload seed. The checks read only the files the CLI writes and the
closed-form answers of the paper, never the CSV's ipr/edge columns.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("spectrum_chain_800", "spectrum_both_default", "analytic_pipeline")

# Lattice corrections move the chain's gap edge by up to 0.65 % of the
# continuum edge at m = 0.2 (100 draws, 400 and 800 cells).
LATTICE_EDGE_TOL = 0.01
TUNE_RESIDUAL_MAX = 1e-10
ORACLE_MAX = 1e-8
BANDS_K_POINTS = 2049
SUSY_GRID_POINTS = 2001

SUMMARY_KEYS = {"model", "mass", "flat_energy", "analytic_gap_edge",
                "gap_edge_derived_not_published", "cluster_tol", "gap_exclusion"}
ROUTE_KEYS = {"cluster_count", "gap_edge_neg", "gap_edge_pos",
              "relative_error_neg", "relative_error_pos"}

# The one known defect a request may show: `tune`'s residual is an absolute
# determinant compared to a fixed 1e-10, so well-tuned draws with large
# couplings exceed it. `verify` reports it as `random_tune_residual`.
KNOWN_DEFECT = "tune_residual_absolute_threshold"


def num(x):
    """CLI text of a float; repr of a numpy scalar would not parse."""
    return repr(float(x))


@dataclass(frozen=True)
class ModelDraw:
    kind: str
    mass: float
    flat_energy: float

    def args(self):
        return ["--set", f"model={self.kind}", "--set", f"mass={num(self.mass)}",
                "--set", f"flat_energy={num(self.flat_energy)}"]

    def gap_edge(self):
        """Analytic continuum band edge of the model."""
        m, lam = self.mass, self.flat_energy
        if self.kind == "I":
            return math.sqrt(m * (2 * m - lam))
        return math.sqrt(2.0) * m

    def chain_edge_tol(self, cells):
        """Largest |chain gap edge| / analytic edge - 1 accepted.

        The lowest bulk state of a box of `cells` cells has momentum up to
        2 pi / cells, which lifts it above the edge E by the factor
        sqrt(1 + (2 pi / (cells E))^2); small masses at 400 cells reach
        3.6 %. LATTICE_EDGE_TOL covers the lattice corrections.
        """
        k = 2 * math.pi / cells
        return math.sqrt(1.0 + (k / self.gap_edge()) ** 2) - 1.0 + LATTICE_EDGE_TOL


@dataclass(frozen=True)
class Request:
    model: ModelDraw
    tb: tuple = ()         # (key, value) pairs of the tight-binding chain
    verify_seed: int = 0

    def tb_args(self):
        return [a for key, val in self.tb for a in ("--set", f"{key}={num(val)}")]


def draw_model(rng):
    """Model I: m in [0.05, 0.2], lambda/m in (-1.5, 0.9).
    Model II: m in [0.03, 0.2], |lambda|/m < 0.9."""
    if rng.random() < 0.5:
        m = rng.uniform(0.05, 0.2)
        return ModelDraw("I", float(m), float(m * rng.uniform(-1.5, 0.9)))
    m = rng.uniform(0.03, 0.2)
    return ModelDraw("II", float(m), float(m * rng.uniform(-0.9, 0.9)))


def draw_tight_binding(rng):
    """Saw-chain couplings drawn as in `verify`'s random tuning sweep."""
    while True:
        vals = rng.uniform(-1.5, 1.5, size=6)
        if abs(vals[2]) < 0.1 or abs(vals[3]) < 0.1 or abs(vals[4] * vals[5]) < 1e-3:
            continue
        keys = ("eps_a", "eps_b", "t_ab", "t_ab_inter", "t_ac", "t_bc")
        return tuple((k, float(v)) for k, v in zip(keys, vals))


def generate(workload, seed, count):
    """The first `count` requests of a workload; a pure function of the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        model = draw_model(rng)
        if workload == "analytic_pipeline":
            tb = draw_tight_binding(rng)
            out.append(Request(model, tb, int(rng.integers(0, 2**31))))
        else:
            out.append(Request(model))
    return out


def spectrum_argv(workload, req, out_dir):
    if workload == "spectrum_chain_800":
        size = ["--set", "method=chain", "--cells", "800"]
    else:
        size = ["--set", "method=both", "--cells", "400", "--grid-points", "301"]
    return ["spectrum", "--out", out_dir, *size, *req.model.args()]


def static_argvs(workload, req, out_dir):
    """Every argv of a request that does not depend on an earlier output."""
    if workload != "analytic_pipeline":
        return [spectrum_argv(workload, req, out_dir)]
    return [["tune", "--out", out_dir, *req.tb_args()],
            ["susy", "--out", out_dir, "--grid-points", str(SUSY_GRID_POINTS),
             *req.model.args()],
            ["verify", "--out", out_dir, "--seed", str(req.verify_seed)]]


@dataclass
class Outcome:
    """What one request did; `problems` empty means it passed."""

    problems: list
    known_defect: bool = False   # every problem is KNOWN_DEFECT
    chain_gap_rel_err: float = math.nan
    continuum_gap_rel_err: float = math.nan
    oracle_max_diff: float = math.nan


def run_request(main, workload, req, out_dir):
    """Run a request through `main(argv)`; return the exit codes and argvs.

    Stops at the first non-zero exit. The `bands` step of the analytic
    pipeline uses the `eps_c` that `tune` just wrote.
    """
    if workload != "analytic_pipeline":
        argv = spectrum_argv(workload, req, out_dir)
        return [(argv, main(argv))]
    tune, susy, verify = static_argvs(workload, req, out_dir)
    done = [(tune, main(tune))]
    if done[-1][1] != 0:
        return done
    with open(os.path.join(out_dir, "tune.json")) as fh:
        solutions = json.load(fh)["solutions"]
    eps_c = solutions[0]["eps_c"] if solutions else 0.0
    bands = ["bands", "--out", out_dir, "--grid-points", str(BANDS_K_POINTS),
             *req.tb_args(), "--set", f"eps_c={num(eps_c)}"]
    for argv in (bands, susy, verify):
        done.append((argv, main(argv)))
        if done[-1][1] != 0:
            break
    return done


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\r\n") - 1


def check(workload, req, runs, out_dir):
    """Check one request's exit codes and output files."""
    failed_exits = [f"{argv[0]} exited {rc}" for argv, rc in runs if rc != 0]
    if workload == "analytic_pipeline":
        out = _check_analytic(runs, out_dir)
        # verify exits 4 on its own copy of the known defect
        if failed_exits == ["verify exited 4"]:
            failing = [c["name"] for c in _load(out_dir, "verify.json")["checks"]
                       if not c["passed"]]
            failed_exits = [KNOWN_DEFECT if failing == ["random_tune_residual"]
                            else f"verify failed {failing}"]
    else:
        out = Outcome([])
        if not failed_exits:
            out = _check_spectrum(workload, req, out_dir)
    out.problems = failed_exits + out.problems
    out.known_defect = bool(out.problems) and all(p == KNOWN_DEFECT for p in out.problems)
    return out


def _check_spectrum(workload, req, out_dir):
    problems = []
    summary = _load(out_dir, "spectrum_summary.json")
    if workload == "spectrum_chain_800":
        routes = {"chain": 3 * 800}
    else:
        routes = {"chain": 3 * 400, "continuum": 3 * 301}
    missing = (SUMMARY_KEYS | set(routes)) - set(summary)
    missing |= {f"{r}.{k}" for r in routes if r in summary
                for k in ROUTE_KEYS - set(summary[r])}
    if missing:
        return Outcome([f"summary lacks {sorted(missing)}"])
    edge = req.model.gap_edge()
    lam = req.model.flat_energy
    errs = {}
    for route, dim in routes.items():
        rep = summary[route]
        if rep["cluster_count"] <= 0:
            problems.append(f"{route}: no flat-band cluster")
        rows = _csv_rows(os.path.join(out_dir, f"spectrum_{route}.csv"))
        if rows != dim:
            problems.append(f"{route}: {rows} energy rows for {dim} eigenvalues")
        neg, pos = rep["gap_edge_neg"], rep["gap_edge_pos"]
        errs[route] = max(abs(abs(neg) / edge - 1.0), abs(abs(pos) / edge - 1.0))
    neg, pos = summary["chain"]["gap_edge_neg"], summary["chain"]["gap_edge_pos"]
    if not neg < lam < pos:
        problems.append(f"chain gap edges ({neg}, {pos}) do not bracket {lam}")
    tol = req.model.chain_edge_tol(routes["chain"] // 3)
    if not errs["chain"] <= tol:
        problems.append(f"chain gap edge off by {errs['chain']:.3g} > {tol}")
    # the continuum route's error (the fermion doubler) is reported, not gated
    return Outcome(problems, chain_gap_rel_err=errs["chain"],
                   continuum_gap_rel_err=errs.get("continuum", math.nan))


def _check_analytic(runs, out_dir):
    problems = []
    done = {argv[0]: rc for argv, rc in runs}
    out = Outcome(problems)
    if done.get("tune") == 0:
        solutions = _load(out_dir, "tune.json")["solutions"]
        worst = max((s["residual_max_over_k"] for s in solutions), default=0.0)
        if not worst <= TUNE_RESIDUAL_MAX:
            problems.append(KNOWN_DEFECT if math.isfinite(worst)
                            else f"tune residual {worst}")
        if done.get("bands") == 0:
            bands = _load(out_dir, "bands_summary.json")
            if bool(bands["flat_bands"]) != bool(solutions):
                problems.append(f"bands flat={bool(bands['flat_bands'])} but "
                                f"tune found {len(solutions)} solutions")
            if bands["k_points"] != BANDS_K_POINTS:
                problems.append(f"bands used {bands['k_points']} k-points")
    if done.get("susy") == 0:
        diff = _load(out_dir, "susy_verify.json")["model_oracle_max_diff"]
        out.oracle_max_diff = diff
        if not diff <= ORACLE_MAX:
            problems.append(f"oracle_max_diff {diff:.3g} > {ORACLE_MAX}")
    if done.get("verify") == 0 and not _load(out_dir, "verify.json")["all_passed"]:
        problems.append("verify exited 0 without all_passed")
    return out
