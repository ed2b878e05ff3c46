"""Entropy of uniformly quantized transform coefficients under a Cauchy model.

The residual bits of an intra-coded frame track the entropy of its
quantized DCT coefficients, and a zero-mean Cauchy distribution describes
those coefficients well.  Every quantizer bin then has closed-form mass:

    p(n) = arctan(a / (a^2 + n^2 - 0.25)) / pi      |n| >= 1,  a = scale/q
    p(0) = (2/pi) * atan2(0.5, a)                    deadzone

so the entropy H = -sum p*log2(p) depends on scale and q only through a,
can be evaluated for any step size q, and a scaled H makes a serviceable
synthetic rate curve.  A QP maps to its step size by q = 2^((qp - 4)/6).

One implementation serves entropy() and both curves: _entropies evaluates
the heads of consecutive step sizes that share a head size as the rows of
one array pass, no larger than the largest single head, and sums each row
on its own.  A curve costs a few array passes instead of one set of NumPy
calls per step, and every H keeps the bits of a one-step evaluation.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .checks import check_finite, check_positive
from .model import RQPCurve, RQPSample

# Bins whose mass underflows below this are treated as empty (0*log 0 == 0).
_P_FLOOR = 1e-300

# The head holds max(1024, 64*a) bin pairs, a = scale/q; _MAX_A bounds it
# at _MAX_BINS = 4M bins (32 MB of masses), and a pass shared by several
# heads holds no more bins than that.
_MAX_A = 65_536.0
_MAX_BINS = 64 * int(_MAX_A)


@dataclass(frozen=True)
class CauchyParams:
    """Zero-mean Cauchy coefficient model with a symmetric uniform quantizer.

    scale: Cauchy scale parameter; larger means heavier tails, i.e. more
        high-frequency content surviving the transform; ValueError unless > 0.

    At step q every bin mass, and so the entropy, is a function of the
    ratio a = scale/q alone.  Sums cover the whole distribution, deadzone
    bin included: a head of max(1024, 64*a) side-bin pairs summed outright
    plus the closed-form integral of the tail's asymptote, accurate to
    3e-10 relative (a up to 65536).
    """

    scale: float

    def __post_init__(self):
        check_positive("scale", self.scale)


def _side_bin_mass(a: float, n):
    return np.arctan(a / (a * a + (np.square(np.asarray(n, dtype=float)) - 0.25))) / math.pi


def _zero_bin_mass(a: float) -> float:
    return 2.0 / math.pi * math.atan2(0.5, a)


def bin_probability(params: CauchyParams, q: float, n) -> float | np.ndarray:
    """Probability mass of quantizer bin `n` at step size `q`.

    Symmetric in n.  n is an integer or an integer array, bools excluded;
    n = 0 addresses the deadzone bin.  q is checked as in entropy().
    """
    _, a, _ = _step(params.scale, q)
    n_arr = np.asarray(n)
    if n_arr.dtype.kind not in "iu":  # a bool, a float, or an int past 64 bits (object)
        raise ValueError(f"bin index n must be an integer or integer array, got dtype {n_arr.dtype}")
    # Side masses are taken at n = 1 in the deadzone's place: at n = 0, a = 1/2 divides by 0.
    p = np.where(n_arr == 0, _zero_bin_mass(a), _side_bin_mass(a, np.where(n_arr == 0, 1, n_arr)))
    return float(p) if np.isscalar(n) or n_arr.ndim == 0 else p


def _plogp(p):
    """Elementwise -p*log2(p), zero where the mass underflowed."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p >= _P_FLOOR, -p * np.log2(p), 0.0)


def _step(scale: float, q: float) -> tuple[int, float, float]:
    """Check step q and return (head size, a, ln a) for a = scale/q, at most _MAX_A.

    ln a comes from the logs of scale and q, so it stays finite when a underflows to 0.
    """
    q = check_positive("quantization step", q)
    a = scale / q
    if a > _MAX_A:
        raise ValueError(f"scale/q = {a:.3g} exceeds {_MAX_A:g}: the head would pass 4M bins")
    return max(1024, math.ceil(64.0 * a)), a, math.log(scale) - math.log(q)


def _tail_bits(a: float, ln_a: float, n_bins: int) -> float:
    """-sum p*log2(p) over the side bins n > n_bins of one side.

    For n >> a a side bin has mass p ~ c n^-2 (1 - b n^-2) with c = a/pi
    and b = a^2 - 1/4.  The integral of -p ln p of that from
    x = n_bins + 1/2 to infinity, plus the midpoint rule's correction
    f'(x)/24 for f = -p ln p, is to O(x^-5)

        c/x (2 ln x + 2 - ln c)
        + c/x^3 [b (1 + 3 ln c - 6 ln x) / 9 + (1 + ln c - 2 ln x) / 12].

    The first neglected term is ~(a/x)^4 times the leading one, so a head
    of 64*a bins leaves an error below 3e-10 of H.
    """
    c, b, x = a / math.pi, a * a - 0.25, n_bins + 0.5
    ln_c, ln_x = ln_a - math.log(math.pi), math.log(x)
    lead = c / x * (2.0 * ln_x + 2.0 - ln_c)
    nxt = c / x**3 * (b * (1.0 + 3.0 * ln_c - 6.0 * ln_x) / 9.0 + (1.0 + ln_c - 2.0 * ln_x) / 12.0)
    return (lead + nxt) / math.log(2.0)


def _head_bits(a: np.ndarray, n: int) -> list[float]:
    """-sum p*log2(p) over side bins 1..n at each ratio of the column a, one row each.

    A pass's arrays are freed on return, before the next pass builds its own.
    """
    return _plogp(_side_bin_mass(a, np.arange(1, n + 1))).sum(axis=1).tolist()


def _entropies(scale: float, qs) -> list[float]:
    """Entropy in bits at each step size of the iterable qs, in order.

    Every step is checked, in order, before any head is built.  Consecutive
    heads of one size share a pass as the rows of one array of at most
    _MAX_BINS bins, and each row is summed on its own, so every H keeps the
    pairwise summation, and the bits, of a one-step evaluation.
    """
    steps = [_step(scale, q) for q in qs]
    sides: list[float] = []
    for n, run in itertools.groupby(steps, key=lambda step: step[0]):
        a = np.array([step[1] for step in run])[:, None]
        rows = _MAX_BINS // n
        for i in range(0, len(a), rows):
            sides += _head_bits(a[i : i + rows], n)
    zero = _plogp(np.array([_zero_bin_mass(a) for _, a, _ in steps])).tolist()
    return [2.0 * (side + _tail_bits(a, ln_a, n)) + z
            for side, (n, a, ln_a), z in zip(sides, steps, zero)]


def entropy(params: CauchyParams, q: float) -> float:
    """Entropy in bits of the quantized coefficient distribution at step q.

    ValueError unless q > 0 and scale/q is at most 65536.
    """
    return _entropies(params.scale, [q])[0]


def total_probability(params: CauchyParams, q: float) -> float:
    """Summed mass of every bin at step size q; 1 up to float accumulation.

    The head's bins and the deadzone are summed explicitly and the exact
    Cauchy mass beyond the head's last bin edge is added, since summing
    heavy Cauchy tails bin by bin to 1e-6 accuracy would take ~1e9 terms
    at large scale/small step.  q is checked as in entropy().
    """
    n, a, _ = _step(params.scale, q)
    p = _side_bin_mass(a, np.arange(1, n + 1))
    return 2.0 * float(p.sum()) + _zero_bin_mass(a) + 2.0 / math.pi * math.atan(a / (n + 0.5))


def qp_to_qstep(qp: float) -> float:
    """Quantization step size for a QP: 2 ** ((qp - 4) / 6).

    A qp that is not finite, or whose step is not a positive normal float
    (below about -6128 or from about 6148 on), raises ValueError.
    """
    qp = check_finite("qp", qp)
    if not sys.float_info.min_exp - 1 <= (qp - 4.0) / 6.0 < sys.float_info.max_exp:
        raise ValueError(f"qp {qp} has no quantization step in the normal float range")
    return 2.0 ** ((qp - 4.0) / 6.0)


def synth_curve(params: CauchyParams, qp_grid, bits_scale: float) -> RQPCurve:
    """Synthetic rate curve: rate = bits_scale * H(qstep(qp)) per grid point.

    ValueError unless bits_scale > 0 and the grid is nonempty, finite and
    strictly increasing; rates come out positive and nonincreasing in QP.
    """
    check_positive("bits_scale", bits_scale)
    try:
        qps = list(qp_grid)
    except TypeError:
        raise ValueError(f"qp_grid must be iterable, got {type(qp_grid).__name__}") from None
    bits = _entropies(params.scale, (qp_to_qstep(qp) for qp in qps))  # checks each qp in turn
    samples = tuple(RQPSample(float(qp), bits_scale * h) for qp, h in zip(qps, bits))
    return RQPCurve(samples)  # rejects an empty or non-increasing grid


def default_qstep_grid() -> np.ndarray:
    """64 log-spaced step sizes over [1, 256] for entropy-curve studies."""
    return np.geomspace(1.0, 256.0, 64)


def entropy_loglog_curve(params: CauchyParams) -> RQPCurve:
    """(ln q as the target, H(q) as the rate) samples over default_qstep_grid().

    Feeding the result to the model fitter regresses ln(q) on powers of
    ln(H), which is how the quadratic-versus-linear shape of the H-q
    relationship is judged.
    """
    qs = [float(q) for q in default_qstep_grid()]
    samples = tuple(RQPSample(math.log(q), h) for q, h in zip(qs, _entropies(params.scale, qs)))
    return RQPCurve(samples)
