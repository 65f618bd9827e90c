#!/usr/bin/env python3
"""Oscillator lab: one partition function, three routes, one pole lattice.

Sweeps the three evaluation routes (Boltzmann sum, closed form, pole
product) over real beta, walks |Z| up the imaginary axis to watch it
blow up at beta = 2 pi i k / E0, and prints the spacing duality
delta_E * delta_beta for a handful of gaps.
"""

import argparse
import math

from spectral_zeros.core import TWO_PI
from spectral_zeros.product_forms import (
    duality_spacing,
    pole_product_oscillator,
    pole_product_oscillator_naive,
)
from spectral_zeros.spectra import (
    affine,
    closed_form_oscillator,
    oscillator,
    partition_direct,
)


def route_table(e0: float, factors: int) -> None:
    print(f"three routes to Z(beta), E0 = {e0}")
    print(f"{'beta':>6}  {'direct sum':>22}  {'closed form':>22}  "
          f"{'pole product':>22}  {'prod rel err':>12}")
    spec = oscillator(e0)
    for beta in (0.25, 0.5, 1.0, 2.0, 5.0):
        # enough levels that the omitted tail, e^(-50) of Z, is below an ulp
        terms = max(200, math.ceil(50.0 / (beta * e0)))
        direct = partition_direct(spec, beta, n_terms=terms).value
        closed = closed_form_oscillator(beta, e0).value
        product = pole_product_oscillator(beta, e0, n_factors=factors).value
        rel = abs(product - closed) / abs(closed)
        print(f"{beta:6.2f}  {direct.real:22.15f}  {closed.real:22.15f}  "
              f"{product.real:22.15f}  {rel:12.3e}")
    print()


def naive_vs_corrected(e0: float) -> None:
    print("the uncorrected product never converges to the closed form:")
    closed = closed_form_oscillator(1.0, e0).value
    print(f"{'factors':>9}  {'naive rel err':>14}  {'corrected rel err':>18}")
    for factors in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
        naive = pole_product_oscillator_naive(1.0, e0, n_factors=factors).value
        good = pole_product_oscillator(1.0, e0, n_factors=factors).value
        print(f"{factors:9d}  {abs(naive - closed) / abs(closed):14.3e}  "
              f"{abs(good - closed) / abs(closed):18.3e}")
    print()


def imaginary_axis_walk(e0: float) -> None:
    print("|Z| along beta = i t: poles at t = 2 pi k / E0")
    print(f"{'t':>8}  {'|Z|':>12}  nearest pole")
    for k in (1, 2):
        center = TWO_PI * k / e0
        for dt in (-0.1, -0.01, -0.001, 0.001, 0.01, 0.1):
            t = center + dt
            z = closed_form_oscillator(complex(0.0, t), e0).value
            print(f"{t:8.4f}  {abs(z):12.4e}  k={k} ({dt:+.3f})")
    print()


def duality_report() -> None:
    print("gap duality: delta_E * delta_beta")
    print(f"{'gap':>8}  {'pole spacing':>24}  product")
    for gap in (0.1, 0.5, 1.0, math.pi, 17.3):
        d = duality_spacing(affine(0.0, gap))
        print(f"{gap:8.3f}  {str(d.delta_beta):>24}  {d.product}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--e0", type=float, default=1.0)
    ap.add_argument("--factors", type=int, default=10 ** 5)
    args = ap.parse_args()
    route_table(args.e0, args.factors)
    naive_vs_corrected(args.e0)
    imaginary_axis_walk(args.e0)
    duality_report()


if __name__ == "__main__":
    main()
