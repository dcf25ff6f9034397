#!/usr/bin/env python3
"""The independent references everything else is judged against.

The workhorse is the arctan-integral representation of ln Gamma evaluated
by one trapezoidal sum on the half-line map t = exp(u - e^-u), at a step
1/m fixed by a proven bound on its error; the limit definition and the
infinite product provide slower cross-checks, with proven bounds too.
None of them shares code with the truncated series, which is the point.
"""

from fractions import Fraction

from stirling import (PrecisionCtx, check_duplication, check_multiplication,
                      elementary, gamma_half_integer, ln_factorial_exact,
                      lngamma_binet2, lngamma_euler_limit,
                      weierstrass_inv_gamma)
from stirling.mpcore import decimal_up, pi

ctx = PrecisionCtx(256)

print("integral oracle vs exact factorials:")
for n in (5, 12, 40):
    ov = lngamma_binet2(n, ctx)
    exact = ln_factorial_exact(n - 1, ctx)
    print(f"  |ln Gamma({n}) - ln {n-1}!| = "
          f"{float(abs(ov.value - exact.value)):.2e}  "
          f"(bound {float(ov.error_bound):.1e})")

print()
print("limit definition closes in at O(1/n):")
for n in (100, 1000, 10**4):
    ov = lngamma_euler_limit(Fraction(5, 2), n, ctx)
    ref = lngamma_binet2(Fraction(5, 2), ctx)
    print(f"  n = {n:<6} error = {abs(ov.value - ref.value).to_decimal(4)}  "
          f"(proven bound {decimal_up(ov.error_bound, 4)})")

print()
print("infinite product for 1/Gamma, tail ~ z^2/(2K):")
for K in (10**3, 10**4):
    ov = weierstrass_inv_gamma(Fraction(1, 2), K, ctx)
    print(f"  K = {K:<6} 1/Gamma(1/2) = {ov.value.to_decimal(12)}")
print(f"  1/sqrt(pi)      = {(1 / elementary('sqrt', pi(ctx), ctx)).to_decimal(12)}")

print()
print("functional equations as consistency probes:")
for z in (Fraction(1, 2), Fraction(73, 10)):
    print(f"  duplication residual at z = {z}: "
          f"{float(check_duplication(z, ctx)):.2e}")
print(f"  triplication residual at z = 1/3: "
      f"{float(check_multiplication(3, Fraction(1, 3), ctx)):.2e}")

print()
print("half-integer ladder in closed form:")
for k in (1, 3, 5, 8):
    print(f"  Gamma({k}/2) = {gamma_half_integer(k, ctx).to_decimal(20)}")
