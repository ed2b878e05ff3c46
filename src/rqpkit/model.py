"""Rate-versus-QP model family and least-squares fitting.

A frame's intra bitrate R and its quantization parameter are related
through the log of the rate: the supported forms are linear and quadratic
polynomials in ln(R), each either free or "fastened" to the operating
point (qp0, r0) measured during the one mandatory coding pass.  Fastening
substitutes the measured point for the constant term, so the fitted curve
passes through it exactly and one fewer coefficient remains to estimate.

Fitting is ordinary least squares on the transformed regressors; the
normal equations are at most 3x3, solved directly and rejected as
degenerate above a condition bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FORMS = ("linear", "quadratic")

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

    @property
    def vertex_rate(self) -> float:
        """Rate at the vertex; inf if exp overflows."""
        try:
            return math.exp(self.vertex_u)
        except OverflowError:
            return math.inf


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

    def rate_at(self, qp: float, tol: float = 1e-9) -> float:
        for s in self.samples:
            if abs(s.qp - qp) <= tol:
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


def model_qp(params: ModelParams, rate: float) -> float:
    """QP the model assigns to a frame coded at `rate` bits."""
    if not (rate > 0 and math.isfinite(rate)):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    u = math.log(rate)
    spec = params.spec
    if spec.form == "linear":
        if spec.fastened:
            (a,) = params.coeffs
            return a * (u - math.log(spec.anchor.r0)) + spec.anchor.qp0
        a, b = params.coeffs
        return a * u + b
    if spec.fastened:
        alpha, beta = params.coeffs
        u0 = math.log(spec.anchor.r0)
        return alpha * (u * u - u0 * u0) + beta * (u - u0) + spec.anchor.qp0
    alpha, beta, mu = params.coeffs
    return alpha * u * u + beta * u + mu


def residuals(params: ModelParams, curve: RQPCurve) -> np.ndarray:
    """Signed model-minus-measured QP residual per curve sample."""
    return np.array([model_qp(params, s.rate) - s.qp for s in curve.samples])


def _design(spec: ModelSpec, u: np.ndarray, qp: np.ndarray):
    """Transformed regressors and target for the linear least-squares fit."""
    if spec.fastened:
        u0 = math.log(spec.anchor.r0)
        y = qp - spec.anchor.qp0
        if spec.form == "linear":
            x = np.column_stack([u - u0])
        else:
            x = np.column_stack([u * u - u0 * u0, u - u0])
    else:
        y = qp
        if spec.form == "linear":
            x = np.column_stack([u, np.ones_like(u)])
        else:
            x = np.column_stack([u * u, u, np.ones_like(u)])
    return x, y


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
    x, y = _design(spec, u, curve.qps())
    gram = x.T @ x
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise DegenerateFitError(
            f"normal matrix condition {cond:.3g} exceeds {COND_LIMIT:.0e}; "
            "the curve does not determine the coefficients"
        )
    theta = np.linalg.solve(gram, x.T @ y)
    branch_u = None if spec.fastened else float(np.mean(u))
    return ModelParams(spec, tuple(float(t) for t in theta), branch_u)


def _branch_sign(params: ModelParams, alpha: float, beta: float) -> float:
    """Sign of dQP/d(ln R) on the branch the model's data lives on."""
    if params.spec.fastened:
        u_ref = math.log(params.spec.anchor.r0)
    else:
        u_ref = params.branch_u
    if u_ref is None:
        return -1.0  # physical default: rate falls as QP rises
    slope = 2.0 * alpha * u_ref + beta
    return -1.0 if slope <= 0 else 1.0


def _rate(u: float, qp: float) -> float:
    """exp(u), or InversionError when the rate overflows or underflows to 0."""
    try:
        rate = math.exp(u)
    except OverflowError:
        rate = math.inf
    if not 0.0 < rate < math.inf:
        raise InversionError(f"no finite positive rate solves the model at qp={qp:g} "
                             f"(ln rate {u:g})")
    return rate


def predict_rate(params: ModelParams, qp: float) -> float:
    """Rate in bits at which the model reaches `qp` (inverse of model_qp).

    Quadratic forms pick the root on the same monotone branch as the
    anchor (or the fitted data for free specs); a negative discriminant
    raises NoRealRootError carrying the vertex QP.  A rate that overflows
    or underflows to 0 raises InversionError.
    """
    spec = params.spec
    if spec.form == "linear":
        if spec.fastened:
            (a,) = params.coeffs
            if a == 0:
                raise DegenerateFitError("linear coefficient is zero; model is constant")
            u = math.log(spec.anchor.r0) + (qp - spec.anchor.qp0) / a
        else:
            a, b = params.coeffs
            if a == 0:
                raise DegenerateFitError("linear coefficient is zero; model is constant")
            u = (qp - b) / a
        return _rate(u, qp)

    if spec.fastened:
        alpha, beta = params.coeffs
        u0 = math.log(spec.anchor.r0)
        const = spec.anchor.qp0 - alpha * u0 * u0 - beta * u0
    else:
        alpha, beta, const = params.coeffs

    c = const - qp
    if alpha == 0:
        if beta == 0:
            raise DegenerateFitError("both quadratic coefficients are zero; model is constant")
        return _rate(-c / beta, qp)

    disc = beta * beta - 4.0 * alpha * c
    if disc < 0:
        vertex_u = -beta / (2.0 * alpha)
        vertex_qp = const - beta * beta / (4.0 * alpha)
        raise NoRealRootError(qp, vertex_qp, vertex_u)
    sqrt_d = math.sqrt(disc)
    # The two roots carry slopes -sqrt_d and +sqrt_d respectively.
    if _branch_sign(params, alpha, beta) < 0:
        u = (-beta - sqrt_d) / (2.0 * alpha)
    else:
        u = (-beta + sqrt_d) / (2.0 * alpha)
    return _rate(u, qp)


def relative_error(actual: float, predicted: float) -> float:
    """Signed rate estimation error in percent: (R - Rhat) / R * 100."""
    if not (actual > 0 and math.isfinite(actual)):
        raise ValueError(f"actual rate must be positive and finite, got {actual}")
    return (actual - predicted) / actual * 100.0
