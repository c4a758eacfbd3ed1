"""Exact l_p unit-ball volumes against Monte Carlo estimates.

Prints a small table over dimensions 2 and 3 and a spread of norms,
with the relative error of a million-sample estimate and the general
bounds 2^d/d! <= volume <= 2^d.
"""

import math

from rainbow_rgg import mc_unit_ball_volume, unit_ball_volume


def main():
    print(f"{'d':>2} {'p':>5} {'exact':>12} {'monte carlo':>12} {'rel err':>9}")
    for d in (2, 3):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            exact = unit_ball_volume(d, p)
            mc = mc_unit_ball_volume(d, p, samples=10 ** 6, seed=20260817)
            rel = abs(mc - exact) / exact
            label = "inf" if math.isinf(p) else f"{p:g}"
            print(f"{d:>2} {label:>5} {exact:12.6f} {mc:12.6f} {rel:9.4%}")
            lo, hi = 2.0 ** d / math.factorial(d), 2.0 ** d
            assert lo <= exact * (1 + 1e-12) and exact <= hi * (1 + 1e-12)

    print("\nfull ball vs half-space section, d=2 p=inf:",
          f"theta={unit_ball_volume(2, math.inf):g} "
          f"theta'={unit_ball_volume(1, math.inf):g}")


if __name__ == "__main__":
    main()
