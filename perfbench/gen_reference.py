"""Write the reference table of the first 1000 Riemann zeta zero ordinates.

Each ordinate comes from mpmath.zetazero at 30 significant digits and is
written as the shortest decimal that round-trips to the nearest double.
The output is a zeros file that spectral_zeros.zeta.ingest_zeros_file
reads directly ('#' lines are comments).  Takes about 2-3 minutes.

    python3 perfbench/gen_reference.py > perfbench/data/zeta_zeros_1000.txt
"""

import sys

import mpmath

COUNT = 1000
COMMAND = "python3 perfbench/gen_reference.py > perfbench/data/zeta_zeros_1000.txt"


def main() -> None:
    mpmath.mp.dps = 30
    out = sys.stdout
    out.write(f"# first {COUNT} ordinates gamma_k of zeta zeros 1/2 + i gamma_k, "
              f"k = 1..{COUNT}, one per line\n")
    out.write(f"# mpmath {mpmath.__version__} zetazero at dps=30, rounded to double\n")
    out.write(f"# generated by: {COMMAND}\n")
    for k in range(1, COUNT + 1):
        out.write(repr(float(mpmath.zetazero(k).imag)) + "\n")


if __name__ == "__main__":
    main()
