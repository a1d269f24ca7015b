#!/usr/bin/env python3
"""Closed-form spectra against the numeric eigensolver, and PPT classification.

Group-1 families share one spectrum with their partial transpose, so they
can never entangle; Group-2 families follow one of two closed forms (the
second exactly when one factor of the center is Y) and entangle when the
partial transpose goes negative.  The Werner family locates both thresholds.
"""

import numpy as np

import xdoily as xd
from xdoily.spectra import detected_types

rng = np.random.default_rng(2024)

print("== a random Group-1 state (family IZ): spectrum equals its partial transpose ==")
state = xd.group1_state(
    xd.pauli_to_point("IZ"), rng.uniform(-1, 1), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
)
rho = xd.build_density_matrix(state)
lam, gam = xd.group1_eigenvalues(xd.extract_group1_params(state))
print(f"  closed form:      {np.round(lam, 6)}")
print(f"  eigensolver:      {np.round(xd.eig_hermitian4(rho), 6)}")
print(f"  partial transp.:  {np.round(xd.eig_hermitian4(xd.partial_transpose(rho)), 6)}")

print("\n== which closed form does each Group-2 family follow? ==")
print(" ", detected_types())

print("\n== a random Group-2 state (family ZZ) ==")
tau1, tau2, beta0 = rng.uniform(-1, 1, 3)
m = rng.uniform(-1, 1, (2, 2))
state = xd.group2_state(xd.pauli_to_point("ZZ"), tau1, tau2, beta0, m)
params = xd.extract_group2_params(state)
lam, gam = xd.group2_eigenvalues(params)
rho = xd.build_density_matrix(state)
print(f"  closed lam:  {np.round(lam, 6)}")
print(f"  oracle lam:  {np.round(xd.eig_hermitian4(rho), 6)}")
print(f"  closed gam:  {np.round(gam, 6)}")
print(f"  oracle gam:  {np.round(xd.eig_hermitian4(xd.partial_transpose(rho)), 6)}")
print(f"  verdict: {xd.classify(state).verdict}")

print("\n== the Werner family rho = p |EPR><EPR| + (1-p) I/4 ==")
for p in (0.0, 0.2, 1 / 3, 0.4, 0.7, 1 / 2**0.5, 0.8, 1.0):
    report = xd.classify(xd.make_named_state("werner", p=p))
    m_val = xd.bell_m_oracle(xd.make_named_state("werner", p=p).coeffs.beta)
    print(f"  p = {p:.4f}: {report.verdict:<10} M = {m_val:.4f}")

print("\n== thresholds by bisection ==")


def bisect(flag, lo=0.0, hi=1.0, steps=60):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flag(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


ppt = bisect(lambda p: xd.classify(xd.make_named_state("werner", p=p)).entangled)
bell = bisect(lambda p: xd.bell_m_oracle(xd.make_named_state("werner", p=p).coeffs.beta) > 1)
print(f"  entanglement sets in at p = {ppt:.8f}  (1/3 = {1/3:.8f})")
print(f"  Bell violation sets in at p = {bell:.8f}  (1/sqrt2 = {2**-0.5:.8f})")
