#!/usr/bin/env python3
"""Write the Riemann-Siegel correction tables that spectral_zeros.zeta commits.

The remainder of the Riemann-Siegel main sum is

    (-1)^(N-1) (2pi/t)^(1/4) sum_{k=0}^{4} C_k(p) (2pi/t)^(k/2)

with p the fractional part of sqrt(t/2pi).  Each C_k combines derivatives
of Psi(p) = cos(2pi(p^2 - p - 1/16)) / cos(2pi p) by Edwards' formulas
(Riemann's Zeta Function, 1974, sec. 7.4).  Psi is entire and even about
p = 1/2, so with x = p - 1/2 every C_k is x^(k mod 2) times a polynomial
in x^2.  The script takes Psi's Taylor coefficients about 1/2 from a
Cauchy sum on |x| = 1 in mpmath, differentiates the series term by term,
and prints the polynomials in x^2 as the Python block that zeta.py holds.
A coefficient is kept while |c_j| 4^-j >= 1e-17, its largest size on
|x| <= 1/2.

    python3 scripts/gen_riemann_siegel_coefficients.py
"""

import mpmath

DEGREE = 80           # Taylor degree of Psi about p = 1/2
CAUCHY_POINTS = 256   # nodes of the Cauchy sum on |x| = 1
DROP_BELOW = 1e-17
PER_LINE = 3


def psi_taylor() -> list:
    """Taylor coefficients a_0..a_DEGREE of Psi(1/2 + x) about x = 0."""
    def psi(x):
        p = mpmath.mpf(0.5) + x
        return mpmath.cos(2 * mpmath.pi * (p * p - p - mpmath.mpf(1) / 16)) / mpmath.cos(
            2 * mpmath.pi * p)

    nodes = [mpmath.expjpi(mpmath.mpf(2 * j) / CAUCHY_POINTS) for j in range(CAUCHY_POINTS)]
    values = [psi(x) for x in nodes]
    return [mpmath.re(mpmath.fsum(v * x ** -k for v, x in zip(values, nodes)))
            / CAUCHY_POINTS for k in range(DEGREE + 1)]


def derivative(a: list, m: int) -> list:
    """Taylor coefficients of the m-th derivative of sum_k a_k x^k."""
    return [a[k] * mpmath.ff(k, m) for k in range(m, len(a))]


def corrections(a: list) -> list:
    """C_0..C_4 as Taylor coefficients in x, Edwards' combinations."""
    pi2 = mpmath.pi ** 2
    d = {m: derivative(a, m) for m in (0, 1, 2, 3, 4, 5, 6, 8, 9, 12)}
    terms = [
        [(1, 0)],
        [(-1 / (96 * pi2), 3)],
        [(1 / (64 * pi2), 2), (1 / (18432 * pi2 ** 2), 6)],
        [(-1 / (64 * pi2), 1), (-1 / (3840 * pi2 ** 2), 5), (-1 / (5308416 * pi2 ** 3), 9)],
        [(1 / (128 * pi2), 0), (19 / (24576 * pi2 ** 2), 4), (11 / (5898240 * pi2 ** 3), 8),
         (1 / (2038431744 * pi2 ** 4), 12)],
    ]
    out = []
    for combo in terms:
        size = min(len(d[m]) for _, m in combo)
        out.append([mpmath.fsum(w * d[m][j] for w, m in combo) for j in range(size)])
    return out


def in_x_squared(c: list, parity: int) -> list:
    """The coefficients c_{parity + 2j}, kept while |c| 4^-j >= DROP_BELOW."""
    kept = []
    for j, v in enumerate(c[parity::2]):
        if abs(v) * mpmath.mpf(4) ** -j < DROP_BELOW:
            return kept
        kept.append(float(v))
    raise ValueError(f"DEGREE={DEGREE} ends the series before its terms drop below {DROP_BELOW}")


def main() -> None:
    mpmath.mp.dps = 50
    tables = [in_x_squared(c, k % 2) for k, c in enumerate(corrections(psi_taylor()))]
    print("# Riemann-Siegel corrections C_0..C_4 about p = 1/2: with x = p - 1/2,")
    print("# C_k = x^(k mod 2) * sum_j c_j x^(2j).  Written by")
    print("# scripts/gen_riemann_siegel_coefficients.py; a tier-1 test reruns it.")
    print("_RS_CORRECTIONS = (")
    for table in tables:
        print("    (")
        for i in range(0, len(table), PER_LINE):
            print("        " + " ".join(f"{v!r}," for v in table[i:i + PER_LINE]))
        print("    ),")
    print(")")


if __name__ == "__main__":
    main()
