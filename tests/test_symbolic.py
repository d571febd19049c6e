"""Symbolic proofs of the closed forms the Darboux engine samples.

susy.frame_factor takes its seed's fields by plain arithmetic, so given
sympy symbols it returns the symbolic constants uhat0 and uhat1 and the
coefficients of q. The tests prove, for every seed:
det(uhat0 + t*uhat1) = i*q(t), Uhat's Wronskian is (1 - t^2)/(m - lambda),
and the columns of U = Uhat*diag(e^{-Ax}, cosh(kappa0*x), cosh(kappa0*x))
with t = tanh(kappa0*x) solve the seed equation at energies (m, lambda,
lambda) once kappa0^2 = A^2 + m^2 - lambda^2.
"""

from types import SimpleNamespace

import pytest

from susychain.susy import frame_factor

# the proofs need sympy: without it the module skips
sp = pytest.importorskip("sympy")

m, lam, a, k0, c0, t, x, e = sp.symbols("m lambda A kappa0 c0 t x E", real=True)
SEED = SimpleNamespace(mass=m, flat_energy=lam, gauge_a=a, kappa0=k0, c0=c0)
_UHAT0, _UHAT1, (Q2, Q1, Q0) = frame_factor(SEED)
UHAT0, UHAT1 = sp.Matrix(_UHAT0), sp.Matrix(_UHAT1)
# the first row of U and Uhat carries the factor i
ROW_PHASE = sp.diag(sp.I, 1, 1)


def test_det_uhat_is_q_and_its_wronskian_is_w_sech2():
    rows = UHAT0 + t * UHAT1
    assert sp.cancel((ROW_PHASE * rows).det() - sp.I * (Q2 * t**2 + Q1 * t + Q0)) == 0
    wronskian = rows[1, 2] * rows[0, 1] - rows[1, 1] * rows[0, 2]
    assert sp.cancel(wronskian - (1 - t**2) / (m - lam)) == 0


def test_columns_of_u_solve_the_seed_equation():
    ch = sp.cosh(k0 * x)
    u = ROW_PHASE * (UHAT0 + sp.tanh(k0 * x) * UHAT1) * sp.diag(sp.exp(-a * x), ch, ch)
    gamma = sp.Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    v = sp.Matrix([[m, -sp.I * a, 0], [sp.I * a, -m, 0], [0, 0, lam]])
    kappa0_sq = a**2 + m**2 - lam**2
    for j, energy in enumerate((m, lam, lam)):
        col = u[:, j]
        residual = -sp.I * gamma * col.diff(x) + (v - energy * sp.eye(3)) * col
        for entry in residual:
            # a polynomial in kappa0 and E = e^{kappa0*x} over a nonzero
            # denominator, which vanishes modulo kappa0^2 - kappa0_sq
            ratio = sp.together(entry.rewrite(sp.exp).subs(sp.exp(k0 * x), e))
            numerator = sp.expand(sp.numer(ratio))
            assert sp.expand(sp.rem(numerator, k0**2 - kappa0_sq, k0)) == 0
