"""The invariant battery behind `susychain verify`, and the per-frame
self-check report that `susychain susy` writes and `verify` thresholds."""

from dataclasses import replace

import numpy as np

from . import lattice, models, susy
from .lattice import TightBindingParams, band_structure, default_k_grid, \
    flat_band_residual, tune_flat_band
from .models import ModelKind, ModelParams
from .numcore import Grid
from .susy import SeedData, assemble_frame, transformed_potential


def smooth_test_states(x):
    """Three Gaussian-enveloped spinors sampled on x: a (3, 3, len(x)) array."""
    # envelope must be negligible at the walls so the one-sided endpoint
    # stencils do not pollute the measured interior convergence order;
    # x[-1] - x[0] is the box width exactly, as Grid.x is a linspace
    width = 0.1 * (x[-1] - x[0])
    env = np.exp(-((x / width) ** 2))
    weights = np.array([(1.0, 0.5, 0.25), (0.3, -1.0, 0.6), (-0.7, 0.2, 1.0)])
    waves = np.cos(np.array([1.0, 2.0, 3.0])[:, None] * x / width)
    return weights[:, :, None] * env * waves[:, None, :]


def frame_report(frame, n_levels, params):
    """The frame's self-checks, keyed as in susy_verify.json; params, a
    model's ModelParams or None, adds the distance from its closed form. The
    intertwining test runs first, on n_levels grids; then V_new's commutator
    form is built, once."""
    residuals, orders = susy.intertwining_residual(frame, smooth_test_states, n_levels)
    report = {"wronskian_relative_stdev": frame.wronskian_relative_stdev,
              "min_abs_det": float(np.abs(frame.det).min()),
              "intertwining_residuals": residuals.tolist(),
              "intertwining_orders": orders.tolist()}
    if params is not None:
        comps = transformed_potential(frame)
        oracle = models.model_potential_components(params, frame.grid)
        report["model_oracle_max_diff"] = float(max(
            np.abs(getattr(comps, c) - getattr(oracle, c)).max()
            for c in ("v11", "v12", "v13", "v23")))
    # the commutator form, as the closed-form ratios are Hermitian by
    # construction and would read 0 whatever the frame
    commutator = susy.commutator_potential(frame)
    report["hermiticity_max_asymmetry"] = susy.hermiticity_asymmetry(commutator)
    report["dual_path_max_diff"] = susy.dual_path_difference(frame, commutator)
    return report


def invariant_checks(seed):
    """The invariant battery behind `susychain verify`.

    Each entry is one row of verify.json: name, passed, measured,
    threshold and comparison, '<=' (pass if measured <= threshold) or '>='.
    """
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, measured, threshold, comparison="<="):
        measured, threshold = float(measured), float(threshold)
        passed = measured <= threshold if comparison == "<=" else measured >= threshold
        checks.append({"name": name, "passed": passed, "measured": measured,
                       "threshold": threshold, "comparison": comparison})

    # flat-band tuning against the known exact point
    p_ref = TightBindingParams(t_ab=1.0, t_ab_inter=1.0, t_ac=0.2, t_bc=0.01)
    sols = tune_flat_band(p_ref)
    best = min(sols, key=lambda s: abs(s.flat_energy))
    add("tune_eps_c_exact", abs(best.eps_c - 1.0 / 500.0), 1e-12)
    add("tune_flat_energy_exact", abs(best.flat_energy), 1e-12)
    tuned = replace(p_ref, eps_c=best.eps_c)
    energies = band_structure(tuned, default_k_grid(513))
    add("tuned_middle_band_spread", np.ptp(energies, axis=0)[1], 1e-10)

    # Dirac point closure for the pure AB chain
    p_ab = TightBindingParams(t_ab=1.0, t_ab_inter=1.0)
    w = np.linalg.eigh(lattice.bloch_hamiltonian(p_ab, np.pi))[0]
    add("dirac_point_gap", w[2] - w[0], 1e-12)

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
            worst = max(worst, flat_band_residual(cand, sol))
    add("random_tune_residual", worst, 1e-10)

    # Bloch periodicity and global gauge covariance, on one stack of 8 k
    k_samples = rng.uniform(-np.pi, np.pi, size=8)
    h = lattice.bloch_hamiltonian(p_ref, k_samples)
    per = np.abs(h - lattice.bloch_hamiltonian(p_ref, k_samples + 2 * np.pi)).max()
    add("bloch_periodicity", per, 1e-14)
    shift = 0.37
    shifted = replace(p_ref, eps_a=p_ref.eps_a + shift, eps_b=p_ref.eps_b + shift,
                      eps_c=p_ref.eps_c + shift)
    # eigvalsh returns each k's values ascending
    gauge = np.abs(np.linalg.eigvalsh(lattice.bloch_hamiltonian(shifted, k_samples))
                   - np.linalg.eigvalsh(h) - shift).max()
    add("gauge_covariance", gauge, 1e-12)

    # Darboux engine invariants on one parameter set per model
    model_params = (ModelParams(ModelKind.I, 0.07, 0.0),
                    ModelParams(ModelKind.II, 0.03, 0.015))
    for p in model_params:
        tag = f"model_{p.kind.value}"
        grid = Grid(-20.0, 20.0, 1201)
        frame = assemble_frame(p.seed_data(), grid)
        report = frame_report(frame, 3, p)
        add(f"{tag}_hermiticity", report["hermiticity_max_asymmetry"], 1e-10)
        add(f"{tag}_wronskian_constancy", report["wronskian_relative_stdev"], 1e-10)
        add(f"{tag}_dual_path", report["dual_path_max_diff"], 1e-8)
        add(f"{tag}_oracle_match", report["model_oracle_max_diff"], 1e-8)
        # negative control: xi1 = xi2 must break that hermiticity
        uhat0, uhat1 = frame.uhat0.copy(), frame.uhat1.copy()
        uhat0[2, 1], uhat1[2, 1] = uhat0[2, 2], uhat1[2, 2]
        add(f"{tag}_negative_control", susy.hermiticity_asymmetry(susy.commutator_potential(
            replace(frame, uhat0=uhat0, uhat1=uhat1))), 1e-4, ">=")
        # intertwining convergence
        add(f"{tag}_intertwining_order", np.min(report["intertwining_orders"]),
            np.log2(3.6), ">=")
        # L annihilates its own seed columns
        add(f"{tag}_darboux_kernel", max(susy.darboux_kernel(frame)), 1e-8)
        # frame eigen-residual convergence
        r_coarse = max(susy.frame_eigen_residuals(frame))
        r_fine = max(susy.frame_eigen_residuals(assemble_frame(p.seed_data(),
                                                               grid.refined())))
        add(f"{tag}_eigenframe_order", np.log2(r_coarse / r_fine), 1.9, ">=")
        if p.kind is ModelKind.II:  # its constant dimerization component
            comps = transformed_potential(frame)
            add("model_II_v12_constant", np.abs(comps.v12 + comps.flat_energy).max(), 1e-10)

    # the partner keeps the seed's continuum: at both walls of +-40/kappa0,
    # where V_new is constant to rounding, its band edge hypot(v11, v12) is
    # the seed's hypot(mass, gauge_a), for both models and a general seed
    worst = 0.0
    for s in (*(p.seed_data() for p in model_params),
              SeedData(mass=0.3, flat_energy=0.1, gauge_a=0.2, c0=-20.0)):
        walls = transformed_potential(assemble_frame(
            s, Grid(-40.0 / s.kappa0, 40.0 / s.kappa0, 2)))
        worst = max(worst, np.abs(np.hypot(walls.v11, walls.v12) / s.gap_edge - 1.0).max())
    add("gap_edge_threshold", worst, 1e-12)

    return checks
