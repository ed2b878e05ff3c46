"""Rate-versus-QP model family and least-squares fitting.

A frame's intra bitrate R and its quantization parameter are related
through the log of the rate: the supported forms are linear and quadratic
polynomials in ln(R), each either free or "fastened" to the operating
point (qp0, r0) measured during the one mandatory coding pass.  Fastening
substitutes the measured point for the constant term, so the fitted curve
passes through it exactly and one fewer coefficient remains to estimate.
Every form is one centred quadratic, alpha (u^2 - u_ref^2) + beta (u - u_ref)
+ qp_ref with u = ln R, so evaluation, fitting and inversion share one path.

Fitting is ordinary least squares on the centred regressors; the
normal equations are at most 3x3, solved directly and rejected as
degenerate above a condition bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

FORMS = ("linear", "quadratic")

# Two QPs this close address the same label sample.
QP_MATCH_TOL = 1e-9

# Normal matrices above this condition number are treated as degenerate.
COND_LIMIT = 1e12


class DegenerateFitError(ValueError):
    """Least-squares system is under-determined or numerically singular."""


class InversionError(ValueError):
    """No finite positive rate solves the model at the requested QP."""


class NoRealRootError(InversionError):
    """The quadratic model never reaches the requested QP.

    Carries the vertex of the parabola (the extreme QP the model can
    produce) so callers can decide whether to clamp, skip, or score the
    prediction as a failure.
    """

    def __init__(self, requested_qp: float, vertex_qp: float, vertex_u: float):
        self.requested_qp = requested_qp
        self.vertex_qp = vertex_qp
        self.vertex_u = vertex_u
        super().__init__(
            f"no real rate solves the model at qp={requested_qp:g}; "
            f"the curve peaks out at qp={vertex_qp:g} (ln rate {vertex_u:g})"
        )


@dataclass(frozen=True)
class RQPSample:
    """One measured (qp, rate-in-bits) point of a frame."""

    qp: float
    rate: float

    def __post_init__(self):
        if not math.isfinite(self.qp):
            raise ValueError(f"qp must be finite, got {self.qp}")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")


@dataclass(frozen=True)
class RQPCurve:
    """Measured rate curve of one frame, strictly increasing in qp."""

    samples: tuple[RQPSample, ...]

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("curve needs at least one sample")
        qps = [s.qp for s in self.samples]
        if any(b <= a for a, b in zip(qps, qps[1:])):
            raise ValueError(f"qp values must be strictly increasing, got {qps}")

    def __len__(self) -> int:
        return len(self.samples)

    def qps(self) -> np.ndarray:
        return np.array([s.qp for s in self.samples])

    def rates(self) -> np.ndarray:
        return np.array([s.rate for s in self.samples])

    def rate_at(self, qp: float) -> float:
        for s in self.samples:
            if abs(s.qp - qp) <= QP_MATCH_TOL:
                return s.rate
        raise KeyError(f"no sample at qp={qp}")


@dataclass(frozen=True)
class OperationalPoint:
    """(qp0, r0) recorded from the one-pass encode."""

    qp0: float
    r0: float

    def __post_init__(self):
        if not math.isfinite(self.qp0):
            raise ValueError(f"qp0 must be finite, got {self.qp0}")
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise ValueError(f"r0 must be positive and finite, got {self.r0}")


@dataclass(frozen=True)
class ModelSpec:
    """Which model form to use and, when fastened, the anchor it pins."""

    form: str
    fastened: bool = False
    anchor: OperationalPoint | None = None

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {self.form!r}")
        if self.fastened and self.anchor is None:
            raise ValueError("fastened spec requires an anchor point")
        if not self.fastened and self.anchor is not None:
            raise ValueError("free spec must not carry an anchor")

    @property
    def param_count(self) -> int:
        base = 2 if self.form == "linear" else 3
        return base - (1 if self.fastened else 0)

    def label(self) -> str:
        return f"{self.form}-{'fastened' if self.fastened else 'free'}"


@dataclass(frozen=True)
class ModelParams:
    """Coefficients for a spec, ordered highest power of ln(R) first.

    branch_u marks the log-rate around which the data lived when the
    coefficients were fitted; quadratic inversion uses it to pick the
    physically meaningful root.  Fastened specs take it from the anchor
    instead.
    """

    spec: ModelSpec
    coeffs: tuple[float, ...]
    branch_u: float | None = None

    def __post_init__(self):
        if len(self.coeffs) != self.spec.param_count:
            raise ValueError(
                f"{self.spec.label()} takes {self.spec.param_count} coefficients, "
                f"got {len(self.coeffs)}"
            )
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError(f"coefficients must be finite, got {self.coeffs}")


def _centred(spec: ModelSpec, coeffs: tuple, branch_u: float | None = None):
    """(alpha, beta, u_ref, qp_ref, u_branch) of the centred quadratic

        qp = alpha * (u^2 - u_ref^2) + beta * (u - u_ref) + qp_ref,   u = ln R,

    that `coeffs` describe under `spec`.  Linear forms have alpha = 0.
    Fastened forms centre on the anchor (u_ref = ln r0, qp_ref = qp0), which
    also marks their branch; free forms centre on u_ref = 0, take their
    constant as qp_ref, and keep `branch_u` as given.
    """
    if spec.fastened:
        u_ref = math.log(spec.anchor.r0)
        qp_ref, slopes, u_branch = spec.anchor.qp0, coeffs, u_ref
    else:
        u_ref, qp_ref, slopes, u_branch = 0.0, coeffs[-1], coeffs[:-1], branch_u
    alpha, beta = (0.0, *slopes) if spec.form == "linear" else slopes
    return alpha, beta, u_ref, qp_ref, u_branch


def model_qp(params: ModelParams, rate: float) -> float:
    """QP the model assigns to a frame coded at `rate` bits."""
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    u = math.log(rate)
    alpha, beta, u_ref, qp_ref, _ = _centred(params.spec, params.coeffs)
    # Centred evaluation keeps a fastened model exact at its anchor.
    return alpha * (u * u - u_ref * u_ref) + beta * (u - u_ref) + qp_ref


def residuals(params: ModelParams, curve: RQPCurve) -> np.ndarray:
    """Signed model-minus-measured QP residual per curve sample."""
    return np.array([model_qp(params, s.rate) - s.qp for s in curve.samples])


def fit(spec: ModelSpec, curve: RQPCurve) -> ModelParams:
    """Least-squares coefficients of `spec` over a measured curve.

    Raises DegenerateFitError when the curve has fewer distinct rates than
    the spec has coefficients, or when the normal matrix is singular or
    ill-conditioned (all rates equal, for instance).
    """
    rates = curve.rates()
    if len(set(rates.tolist())) < spec.param_count:
        raise DegenerateFitError(
            f"{spec.label()} needs at least {spec.param_count} distinct rates, "
            f"curve offers {len(set(rates.tolist()))}"
        )
    u = np.log(rates)
    # None placeholders mark the slots the coefficients fill; the rest are fixed.
    alpha, beta, u_ref, qp_ref, u_branch = _centred(spec, (None,) * spec.param_count)
    columns = (u * u - u_ref * u_ref, u - u_ref, np.ones_like(u))
    x = np.column_stack([col for col, slot in zip(columns, (alpha, beta, qp_ref)) if slot is None])
    y = curve.qps() - (0.0 if qp_ref is None else qp_ref)
    gram = x.T @ x
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise DegenerateFitError(
            f"normal matrix condition {cond:.3g} exceeds {COND_LIMIT:.0e}; "
            "the curve does not determine the coefficients"
        )
    theta = np.linalg.solve(gram, x.T @ y)
    # Without an anchor to mark the branch, record where the data lived.
    branch_u = float(np.mean(u)) if u_branch is None else None
    return ModelParams(spec, tuple(float(t) for t in theta), branch_u)


def _rate(u: float, qp: float) -> float:
    """exp(u), or InversionError when the rate overflows or underflows.

    A subnormal rate counts as underflow: it keeps too few bits for ln(rate)
    to give back the requested QP.
    """
    try:
        rate = math.exp(u)
    except OverflowError:
        rate = math.inf
    if not sys.float_info.min <= rate < math.inf:
        raise InversionError(f"no finite positive rate solves the model at qp={qp:g} "
                             f"(ln rate {u:g})")
    return rate


def predict_rate(params: ModelParams, qp: float) -> float:
    """Rate in bits at which the model reaches `qp` (inverse of model_qp).

    Quadratic forms pick the root on the same monotone branch as the
    anchor (or the fitted data for free specs; the falling branch when a
    free spec records none); a negative discriminant raises NoRealRootError
    carrying the vertex QP.  A constant model, or a rate that overflows or
    underflows, raises InversionError.
    """
    alpha, beta, u_ref, qp_ref, u_branch = _centred(params.spec, params.coeffs, params.branch_u)
    if alpha == 0:
        if beta == 0:
            raise InversionError(f"the model is constant at qp={qp_ref:g}; "
                                 f"no rate reaches qp={qp:g}")
        return _rate(u_ref + (qp - qp_ref) / beta, qp)

    const = qp_ref - alpha * u_ref * u_ref - beta * u_ref
    c = const - qp
    disc = beta * beta - 4.0 * alpha * c
    if disc < 0:
        raise NoRealRootError(qp, const - beta * beta / (4.0 * alpha), -beta / (2.0 * alpha))
    # Roots h/alpha and c/h never subtract nearly equal terms; h/alpha has
    # slope dqp/du = -sign(beta)*sqrt(disc) and c/h the opposite slope.
    sign = math.copysign(1.0, beta)
    h = -0.5 * (beta + sign * math.sqrt(disc))
    falling = u_branch is None or 2.0 * alpha * u_branch + beta <= 0
    u = h / alpha if h == 0 or falling == (sign > 0) else c / h
    return _rate(u, qp)


def relative_error(actual: float, predicted: float) -> float:
    """Signed rate estimation error in percent: (R - Rhat) / R * 100."""
    if not (actual > 0 and math.isfinite(actual)):
        raise ValueError(f"actual rate must be positive and finite, got {actual}")
    return (actual - predicted) / actual * 100.0
