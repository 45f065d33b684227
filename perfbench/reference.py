"""Fixed reference job: the yardstick for the box's speed, not part of nmavc.

    python3 perfbench/reference.py

A fresh process that does the kind of work an nmavc job does: it imports
numpy and click, then sums Fractions into dicts keyed by bit strings and
keeps a list of small numpy arrays, so its heap grows to a few tens of MiB.
run.py times it before and after every timed process and divides by it (see
NOTES.md, "Calibration").  It imports nothing from the repository, so no
change to the program moves it.  Do not change it: that rescales every
calibrated time.
"""

from fractions import Fraction

import click  # noqa: F401  (import cost, like the CLI's)
import numpy

ITERATIONS = 100_000


def main() -> int:
    masses: dict = {}
    rows = []
    for i in range(ITERATIONS):
        key = format(i * 2654435761 % 65536, "016b")
        masses[key] = masses.get(key, Fraction(0)) + Fraction(1, i % 64 + 1)
        if i % 500 == 0:
            rows.append(numpy.array([masses[key].numerator % 97, i]))
    return 0 if len(masses) == 65536 and len(rows) == ITERATIONS // 500 else 1


if __name__ == "__main__":
    raise SystemExit(main())
