#!/usr/bin/env python3
"""Exact Bernoulli numbers and the expansion coefficients they generate.

B_k comes from the integer tangent numbers (Brent & Harvey,
arXiv:1108.0286) and a_k from its own factorial-weighted recurrence, run up
to k = 128.  There they are independent computations, yet k! a_k
reproduces B_k exactly, which is the package's first sanity anchor.
"""

import math

from stirling import bernoulli, rational_to_str, series_coeff_a

print("k     B_k                 a_k                 k! a_k == B_k")
print("-" * 64)
for k in range(0, 15):
    b, a = bernoulli(k), series_coeff_a(k)
    print(f"{k:<4}  {rational_to_str(b):<18}  {rational_to_str(a):<18}  "
          f"{math.factorial(k) * a == b}")

print()
print("Odd indices vanish from 3 on:",
      all(bernoulli(2 * j + 1) == 0 for j in range(1, 30)))
print("Even entries alternate in sign:",
      all((bernoulli(2 * k) > 0) == (k % 2 == 1) for k in range(1, 30)))

# The even entries grow factorially fast; this is what eventually makes
# the log-gamma series diverge for every fixed argument.
print()
print("growth of |B_2k|:")
for k in (5, 10, 20, 40, 60):
    print(f"  |B_{2*k}| ~ {float(abs(bernoulli(2 * k))):.4e}")
