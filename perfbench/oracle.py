"""Independent reference for the entropy of a quantized Cauchy source.

Written from the Cauchy distribution function alone; it shares no code
with ``rqpkit.entropy``.  With scale s and step q the survival function
is S(x) = atan(s / x) / pi, so a side bin n >= 1 has mass

    p(n) = S((n - 1/2) q) - S((n + 1/2) q)

and the deadzone bin has mass 1 - 2 S(q / 2).  The entropy sums
-p log2 p over the deadzone and both sides: bins 1..N explicitly, and the
rest through the integral of the tail's asymptote p ~ c / x^2,
c = s / (pi q), from N + 1/2 to infinity (the midpoint rule).

Error bound, with N = 10**7 and a = s / q <= 50 on the probe grid:
- differencing S loses about log10(n) digits at bin n, a relative error
  below n * 2.3e-16 per mass; summed over every bin that stays below
  1e-12 bits;
- the asymptote is off by a relative (a^2 + 1) / N^2 <= 3e-11 of a tail
  worth at most 1e-4 bits, and the midpoint rule by at most |g'(N)| / 24,
  below 1e-18 bits;
- pairwise summation of 2**20-term chunks adds below 1e-13 relative.
Together that is under 1e-10 relative to H for every probe, far below
the 4.5e-5 to 6.3e-4 bias that the library's capped sum shows.
"""

from __future__ import annotations

import math

import numpy as np

EXPLICIT_BINS = 10**7
ERROR_BOUND = 1e-10  # relative, from the derivation above
_CHUNK = 1 << 20

# (Cauchy scale, QP) probes: the smallest, a middle and the largest scale the
# synthetic corpus draws, at the finest and coarsest label QPs.
PROBES = tuple((s, qp) for s in (1.0, 7.0, 50.0) for qp in (10.0, 38.0))


def qstep(qp: float) -> float:
    """H.264/HEVC step size for a QP: 2^((qp - 4) / 6)."""
    return 2.0 ** ((qp - 4.0) / 6.0)


def entropy_bits(scale: float, q: float) -> float:
    """Entropy in bits of a zero-mean Cauchy(scale) source quantized with step q."""
    a = scale / q
    p0 = 1.0 - 2.0 / math.pi * math.atan(2.0 * a)
    side = 0.0
    for start in range(1, EXPLICIT_BINS + 1, _CHUNK):
        stop = min(start + _CHUNK, EXPLICIT_BINS + 1)
        edges = np.arange(start - 0.5, stop, 1.0)
        survival = np.arctan(a / edges) / math.pi
        p = survival[:-1] - survival[1:]
        side += float(np.sum(-p * np.log2(p)))
    c = a / math.pi
    x = EXPLICIT_BINS + 0.5
    tail = c / (x * math.log(2.0)) * (2.0 * math.log(x) + 2.0 - math.log(c))
    return -p0 * math.log2(p0) + 2.0 * (side + tail)
