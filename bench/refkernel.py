"""Fixed pure-Python reference kernel used to normalize for host speed.

The kernel mixes the two kinds of work that dominate superhol: exact
`fractions.Fraction` arithmetic and small-dict manipulation.  It uses no
superhol code, so a change to the program never moves it.  The benchmark
runs it between problems and divides every time it reports by

    host_factor = (mean kernel seconds just before and after) / REFERENCE_SECONDS

so a host that is running slow (CPU steal, a noisy neighbour) stretches
the kernel by about as much as it stretches the problem beside it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Median kernel time on the host the reference figures in README.md were
# taken on (2-core VM, Python 3.11.7), in its fast state.  A normalized
# second is a second of that host; changing this rescales every reported time.
REFERENCE_SECONDS = 0.0270

_rng = random.Random(20071003)
_ROWS = [
    {c: Fraction(_rng.randint(-9, 9) or 1, _rng.randint(1, 5)) for c in _rng.sample(range(26), 5)}
    for _ in range(26)
]
_POLY = {
    tuple(_rng.randint(0, 2) for _ in range(3)): Fraction(_rng.randint(-3, 3) or 1, _rng.randint(1, 3))
    for _ in range(12)
}


def _eliminate(rows):
    pivots = {}
    for src in rows:
        vec = dict(src)
        while vec:
            hit = next((c for c in vec if c in pivots), None)
            if hit is None:
                piv = min(vec)
                inv = vec[piv]
                pivots[piv] = {c: v / inv for c, v in vec.items()}
                break
            coef = vec[hit]
            for c, v in pivots[hit].items():
                w = vec.get(c, 0) - coef * v
                if w:
                    vec[c] = w
                else:
                    vec.pop(c, None)
    return len(pivots)


def _poly_square(p):
    out = {}
    for ka, va in p.items():
        for kb, vb in p.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return len(out)


def run_once():
    """One pass of the kernel; returns a checksum that never changes."""
    return _eliminate(_ROWS) * 1000 + _poly_square(_POLY)


_CHECKSUM = run_once()


def measure():
    """Wall seconds of one kernel pass."""
    t0 = time.perf_counter()
    checksum = run_once()
    elapsed = time.perf_counter() - t0
    if checksum != _CHECKSUM:
        raise RuntimeError("reference kernel changed its result")
    return elapsed


def host_factor(before, after):
    """Host factor of a measurement from the kernel times around it."""
    return (before + after) / (2 * REFERENCE_SECONDS)
