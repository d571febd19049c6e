"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they pass; each test also asserts, so failures surface through pytest.
"""

import functools
import json
import os
from dataclasses import replace

import numpy as np

from susychain import checks, cli, lattice, models, susy
from susychain.continuum import discretize
from susychain.lattice import TightBindingParams, band_structure, \
    bloch_hamiltonian, chain_spectrum, default_k_grid, tune_flat_band
from susychain.models import ModelKind, ModelParams
from susychain.numcore import Grid
from susychain.susy import assemble_frame, transformed_potential

from reference import inverse_dagger_states

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# the fine-tuned reference chain: t_ab = t_ab_inter = 1, t_ac = 0.2,
# t_bc = 0.01 flattens the middle band at energy 0 with eps_c = 1/500
P_FIG = TightBindingParams(t_ab=1.0, t_ab_inter=1.0, t_ac=0.2, t_bc=0.01)

MODEL_GRID_I = [(m, f * m) for m in (0.05, 0.08, 0.11, 0.15, 0.2)
                for f in (-1.5, -0.75, 0.0, 0.45, 0.9)]
MODEL_GRID_II = [(m, f * m) for m in (0.05, 0.08, 0.11, 0.15, 0.2)
                 for f in (-1.2, -0.6, 0.0, 0.5, 1.2)]


def report(n, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_flat_band_tuning():
    sols = tune_flat_band(P_FIG)
    best = min(sols, key=lambda s: abs(s.flat_energy))
    err_c = abs(best.eps_c - 1.0 / 500.0)
    err_e = abs(best.flat_energy - 0.0)
    tuned = replace(P_FIG, eps_c=best.eps_c)
    spread = np.ptp(band_structure(tuned, default_k_grid(513)), axis=0)[1]
    report(1, "flat-band tuning reproduces eps_c = 1/500, flat energy 0",
           err_c <= 1e-12 and err_e <= 1e-12 and spread <= 1e-10,
           f"|d eps_c|={err_c:.1e}, |d E|={err_e:.1e}, spread={spread:.1e}")


def test_criterion_2_dirac_point_closure():
    p = TightBindingParams(t_ab=1.0, t_ab_inter=1.0)
    w = np.linalg.eigh(bloch_hamiltonian(p, np.pi))[0]
    gap = w[2] - w[0]
    report(2, "dispersive bands close at the zone corner", gap <= 1e-12,
           f"gap={gap:.1e}")


def test_criterion_3_eigen_frame_convergence():
    worst_order = np.inf
    worst_w0 = 0.0
    for kind, pts in ((ModelKind.I, MODEL_GRID_I), (ModelKind.II, MODEL_GRID_II)):
        for m, lam in pts:
            p = ModelParams(kind, m, lam)
            assert not models.validate_params(p)
            g = Grid(-20.0, 20.0, 401)
            res = []
            for _ in range(3):
                fr = assemble_frame(p.seed_data(), g)
                worst_w0 = max(worst_w0, fr.wronskian_relative_stdev)
                res.append(max(susy.frame_eigen_residuals(fr)))
                g = g.refined()
            for a, b in zip(res, res[1:]):
                worst_order = min(worst_order, np.log2(a / b))
    report(3, "seed frames are eigencolumns to O(h^2) with constant Wronskian",
           worst_order >= 1.9 and worst_w0 <= 1e-10,
           f"min order={worst_order:.3f}, max W0 stdev={worst_w0:.1e}")


@functools.cache
def _model_frames():
    # Model I (0.07, 0) and Model II (0.03, 0.015) on verify's 1201 points
    # of [-20, 20]: params, frame and frame_report, shared by criteria 4 and 5
    out = []
    for kind, m, lam in ((ModelKind.I, 0.07, 0.0), (ModelKind.II, 0.03, 0.015)):
        p = ModelParams(kind, m, lam)
        fr = assemble_frame(p.seed_data(), Grid(-20.0, 20.0, 1201))
        out.append((p, fr, checks.frame_report(fr, 2, p)))
    return out


def test_criterion_4_hermitization():
    # the report measures the commutator form: the closed-form ratios are
    # Hermitian by construction and would read 0 whatever the frame
    worst_asym = max(rep["hermiticity_max_asymmetry"] for _, _, rep in _model_frames())
    worst_control = np.inf
    for _, fr, _ in _model_frames():
        uhat0, uhat1 = fr.uhat0.copy(), fr.uhat1.copy()
        uhat0[2, 1], uhat1[2, 1] = uhat0[2, 2], uhat1[2, 2]
        broken = replace(fr, uhat0=uhat0, uhat1=uhat1)
        control = susy.hermiticity_asymmetry(susy.commutator_potential(broken))
        worst_control = min(worst_control, control)
    report(4, "hermitized potential is Hermitian; xi1 -> xi2 breaks it",
           worst_asym <= 1e-10 and worst_control > 1e-4,
           f"asym={worst_asym:.1e}, negative control={worst_control:.1e}")


def test_criterion_5_dual_path_equality():
    worst_dual = max(rep["dual_path_max_diff"] for _, _, rep in _model_frames())
    worst_oracle = max(rep["model_oracle_max_diff"] for _, _, rep in _model_frames())
    p2, fr2, _ = _model_frames()[1]
    v12_const = np.abs(transformed_potential(fr2).v12 + p2.flat_energy).max()
    report(5, "explicit and commutator potentials agree; oracles match; "
              "Model II v12 is constant",
           worst_dual <= 1e-8 and worst_oracle <= 1e-8 and v12_const <= 1e-10,
           f"dual={worst_dual:.1e}, oracle={worst_oracle:.1e}, "
           f"v12 const={v12_const:.1e}")


def test_criterion_6_intertwining():
    min_factor = np.inf
    worst_kernel = 0.0
    for kind, m, lam in ((ModelKind.I, 0.07, 0.0), (ModelKind.II, 0.03, 0.015)):
        p = ModelParams(kind, m, lam)
        grid = Grid(-20.0, 20.0, 601)
        fr = assemble_frame(p.seed_data(), grid)
        residuals, _ = susy.intertwining_residual(fr, checks.smooth_test_states,
                                                  n_levels=3)
        min_factor = min(min_factor,
                         (residuals[:, :-1] / residuals[:, 1:]).min())
        worst_kernel = max(worst_kernel, *susy.darboux_kernel(fr))
    report(6, "L intertwines at O(h^2) and annihilates the frame columns",
           min_factor >= 3.6 and worst_kernel <= 1e-8,
           f"min shrink factor={min_factor:.2f}, kernel residual={worst_kernel:.1e}")


def test_criterion_7_model1_chain_spectrum():
    # at both walls far from the kink, the closed-form V's band edge
    # hypot(v11, v12) is the published sqrt(m(2m - lambda))
    worst_identity = 0.0
    for m, lam in MODEL_GRID_I:
        p = ModelParams(ModelKind.I, m, lam)
        v11, v12, _, _ = models.model_potential(p, np.array([-1e3, 1e3]) / p.kappa)
        worst_identity = max(worst_identity, np.abs(np.hypot(v11, v12)
                                                    - np.sqrt(m * (2 * m - lam))).max())

    p = ModelParams(ModelKind.I, 0.07, 0.0)
    edge = p.seed_data().gap_edge
    delta = 0.1 * edge
    n_cells = 400
    g = Grid(-300.0, 300.0, n_cells)
    chain = discretize(models.model_potential_components(p, g), g, "saw")
    rep = chain_spectrum(chain, flat_energy=0.0, cluster_tol=1e-6, gap_exclusion=delta)
    w = rep.eigenvalues
    # emptiness of the shrunken gap: no eigenvalue outside the flat-cluster
    # zone |E| <= delta (the chain ends on its strong bonds: no wall state)
    bulk = np.abs(w) > delta
    n_in_gap = int((bulk & (w > -edge + delta) & (w < edge - delta)).sum())
    err_neg = abs(abs(rep.gap_edge_neg) / edge - 1.0)
    err_pos = abs(abs(rep.gap_edge_pos) / edge - 1.0)
    report(7, "Model I: spectrum identity, flat cluster, clean gap, edges "
              "within 5% of +-0.09899",
           worst_identity <= 1e-12 and rep.cluster_count >= 0.9 * n_cells
           and n_in_gap == 0 and err_neg <= 0.05 and err_pos <= 0.05,
           f"identity={worst_identity:.1e}, cluster={rep.cluster_count}/400, "
           f"in-gap={n_in_gap}, edge errs={err_neg:.3f}/{err_pos:.3f}")


def test_criterion_8_model2_spectrum():
    m = 0.03
    ok = True
    details = []
    for lam in (-0.015, 0.0, 0.015):
        p = ModelParams(ModelKind.II, m, lam)
        edge = p.seed_data().gap_edge
        g = Grid(-450.0, 450.0, 600)
        chain = discretize(models.model_potential_components(p, g), g, "saw")
        rep = chain_spectrum(chain, flat_energy=lam, cluster_tol=1e-6,
                             gap_exclusion=0.1 * edge)
        err_neg = abs(abs(rep.gap_edge_neg) / edge - 1.0)
        err_pos = abs(abs(rep.gap_edge_pos) / edge - 1.0)
        has_cluster = rep.cluster_count >= 300
        ok = ok and err_neg <= 0.05 and err_pos <= 0.05 and has_cluster
        details.append(f"lam={lam:g}: cluster={rep.cluster_count}, "
                       f"errs={err_neg:.3f}/{err_pos:.3f}")
    report(8, "Model II (derived edges): chain gap edges within 5% of "
              "+-sqrt(2)*m with a flat cluster at lambda",
           ok, "; ".join(details))


def test_criterion_9_inverse_dagger_eigenstates():
    c_bound = 1e-3
    ok = True
    details = []
    for kind, m, lam in ((ModelKind.I, 0.07, 0.0), (ModelKind.II, 0.03, 0.015)):
        p = ModelParams(kind, m, lam)
        res_levels = []
        for g in (Grid(-20.0, 20.0, 801), Grid(-20.0, 20.0, 1601)):
            fr = assemble_frame(p.seed_data(), g)
            _, energies, residuals = inverse_dagger_states(fr)
            assert energies == (p.mass, lam, lam)
            res_levels.append(max(residuals))
            ok = ok and res_levels[-1] <= c_bound * g.h**2
        order = np.log2(res_levels[0] / res_levels[1])
        ok = ok and order >= 1.9
        details.append(f"model {kind.value}: max res={res_levels[0]:.1e}, "
                       f"order={order:.2f}")
    report(9, "(U^-1)^dag columns satisfy (H_new - E) to C*h^2",
           ok, "; ".join(details))


def test_criterion_10_cli_contract(tmp_path):
    rc = cli.main(["verify", "--out", str(tmp_path / "v1"), "--seed", "0"])
    ok_exit = rc == 0
    cli.main(["verify", "--out", str(tmp_path / "v2"), "--seed", "0"])
    b1 = (tmp_path / "v1" / "verify.json").read_bytes()
    b2 = (tmp_path / "v2" / "verify.json").read_bytes()
    deterministic = b1 == b2
    cli.main(["bands", "--out", str(tmp_path / "g"), "--grid-points", "513",
              "--set", "t_ab=1", "--set", "t_ab_inter=1",
              "--set", "t_ac=0.2", "--set", "t_bc=0.01",
              "--set", "eps_c=0.002"])
    got = (tmp_path / "g" / "bands.csv").read_bytes()
    with open(os.path.join(GOLDEN, "bands.csv"), "rb") as fh:
        want = fh.read()
    golden_ok = got == want
    report(10, "verify exits 0, reruns are byte-identical, golden CSV matches",
           ok_exit and deterministic and golden_ok,
           f"exit={rc}, deterministic={deterministic}, golden={golden_ok}")
