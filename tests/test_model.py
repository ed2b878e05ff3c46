"""Model family: evaluation, least-squares fitting, inversion, error metric."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqpkit.entropy import CauchyParams, synth_curve
from rqpkit.model import (
    DegenerateFitError,
    InversionError,
    ModelParams,
    ModelSpec,
    NoRealRootError,
    OperationalPoint,
    RQPCurve,
    RQPSample,
    fit,
    model_qp,
    predict_rate,
    relative_error,
    residuals,
)

ANCHOR = OperationalPoint(qp0=10.0, r0=math.e**8)
FASTENED_QUAD = ModelSpec("quadratic", anchor=ANCHOR)
FASTENED_LIN = ModelSpec("linear", anchor=ANCHOR)

QP_GRID = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 34.0, 38.0)


def curve_from_params(params: ModelParams, u_values) -> RQPCurve:
    """Exact on-model samples at the given log-rates."""
    samples = [RQPSample(model_qp(params, math.exp(u)), math.exp(u)) for u in u_values]
    samples.sort(key=lambda s: s.qp)
    return RQPCurve(tuple(samples))


def rss(params: ModelParams, curve: RQPCurve) -> float:
    return float(np.sum(residuals(params, curve) ** 2))


class TestTypes:
    def test_sample_validation(self):
        with pytest.raises(ValueError):
            RQPSample(10.0, 0.0)
        with pytest.raises(ValueError):
            RQPSample(10.0, -5.0)
        with pytest.raises(ValueError):
            RQPSample(float("nan"), 5.0)

    def test_curve_needs_increasing_qp(self):
        a, b = RQPSample(10.0, 2000.0), RQPSample(14.0, 1500.0)
        RQPCurve((a, b))
        with pytest.raises(ValueError):
            RQPCurve((b, a))
        with pytest.raises(ValueError):
            RQPCurve((a, a))
        with pytest.raises(ValueError):
            RQPCurve(())

    def test_rate_lookup(self):
        curve = RQPCurve((RQPSample(10.0, 2000.0), RQPSample(14.0, 1500.0)))
        assert curve.rate_at(14.0) == 1500.0
        with pytest.raises(KeyError):
            curve.rate_at(12.0)

    def test_spec_anchor_rules(self):
        with pytest.raises(ValueError):
            ModelSpec("cubic")

    @pytest.mark.parametrize(
        "spec,count",
        [
            (ModelSpec("linear"), 2),
            (FASTENED_LIN, 1),
            (ModelSpec("quadratic"), 3),
            (FASTENED_QUAD, 2),
        ],
    )
    def test_parameter_counts(self, spec, count):
        assert spec.param_count == count
        with pytest.raises(ValueError):
            ModelParams(spec, tuple(0.0 for _ in range(count + 1)))

    def test_params_must_be_finite(self):
        with pytest.raises(ValueError):
            ModelParams(ModelSpec("linear"), (float("inf"), 0.0))


class TestModelQp:
    def test_fastened_anchor_is_exact(self):
        params = ModelParams(FASTENED_QUAD, (-0.5, -3.0))
        assert model_qp(params, ANCHOR.r0) == ANCHOR.qp0

    def test_constant_model(self):
        params = ModelParams(ModelSpec("quadratic"), (0.0, 0.0, 17.5))
        for rate in (1.0, 100.0, 1e9):
            assert model_qp(params, rate) == 17.5

    def test_pure_square_term(self):
        params = ModelParams(ModelSpec("quadratic"), (1.0, 0.0, 0.0))
        assert model_qp(params, math.e**2) == pytest.approx(4.0, abs=1e-12)

    def test_linear_forms(self):
        free = ModelParams(ModelSpec("linear"), (-3.0, 40.0))
        assert model_qp(free, math.e**5) == pytest.approx(25.0, abs=1e-12)
        fastened = ModelParams(FASTENED_LIN, (-3.0,))
        assert model_qp(fastened, ANCHOR.r0) == ANCHOR.qp0

    def test_rejects_nonpositive_rate(self):
        params = ModelParams(ModelSpec("linear"), (-3.0, 40.0))
        with pytest.raises(ValueError):
            model_qp(params, 0.0)
        with pytest.raises(ValueError):
            model_qp(params, -1.0)


class TestFit:
    def test_fastened_quadratic_two_point_recovery(self):
        truth = ModelParams(FASTENED_QUAD, (-0.5, -3.0))
        curve = curve_from_params(truth, [6.0, 4.0])
        fitted = fit(FASTENED_QUAD, curve)
        assert fitted.coeffs[0] == pytest.approx(-0.5, abs=1e-9)
        assert fitted.coeffs[1] == pytest.approx(-3.0, abs=1e-9)

    def test_free_linear_exact_interpolation(self):
        truth = ModelParams(ModelSpec("linear"), (-4.0, 52.0))
        curve = curve_from_params(truth, [5.0, 7.0, 9.0, 11.0])
        fitted = fit(ModelSpec("linear"), curve)
        assert rss(fitted, curve) < 1e-18

    def test_free_quadratic_recovery(self):
        truth = ModelParams(ModelSpec("quadratic"), (-0.3, 1.0, 20.0))
        curve = curve_from_params(truth, [4.0, 6.0, 8.0, 10.0])
        fitted = fit(ModelSpec("quadratic"), curve)
        assert np.allclose(fitted.coeffs, truth.coeffs, atol=1e-7)

    @pytest.mark.parametrize("fastened", [False, True])
    def test_quadratic_never_fits_worse_than_linear(self, fastened):
        for scale in (0.5, 3.0, 10.0, 40.0):
            curve = synth_curve(CauchyParams(scale), QP_GRID, 4096.0)
            if fastened:
                anchor = OperationalPoint(10.0, curve.rate_at(10.0))
                quad = ModelSpec("quadratic", anchor=anchor)
                lin = ModelSpec("linear", anchor=anchor)
            else:
                quad, lin = ModelSpec("quadratic"), ModelSpec("linear")
            assert rss(fit(quad, curve), curve) <= rss(fit(lin, curve), curve) * (1 + 1e-9) + 1e-12

    def test_synth_curve_max_residual_ordering(self):
        curve = synth_curve(CauchyParams(10.0), QP_GRID, 4096.0)
        anchor = OperationalPoint(10.0, curve.rate_at(10.0))
        quad = fit(ModelSpec("quadratic", anchor=anchor), curve)
        lin = fit(ModelSpec("linear", anchor=anchor), curve)
        assert np.abs(residuals(quad, curve)).max() <= np.abs(residuals(lin, curve)).max()

    def test_under_determined(self):
        curve = RQPCurve((RQPSample(10.0, 2000.0), RQPSample(14.0, 1500.0)))
        with pytest.raises(DegenerateFitError, match="distinct"):
            fit(ModelSpec("quadratic"), curve)

    def test_all_rates_equal_is_degenerate(self):
        curve = RQPCurve(tuple(RQPSample(qp, 1000.0) for qp in (10.0, 14.0, 18.0, 22.0)))
        with pytest.raises(DegenerateFitError):
            fit(ModelSpec("linear"), curve)

    def test_local_minimum_probe(self):
        rng = np.random.default_rng(17)
        specs = [ModelSpec("linear"), ModelSpec("quadratic")]
        for trial in range(20):
            scale = float(rng.uniform(0.5, 50.0))
            curve = synth_curve(CauchyParams(scale), QP_GRID, 4096.0)
            # Rate jitter keeps the fit non-trivial without breaking validity.
            jittered = RQPCurve(
                tuple(
                    RQPSample(s.qp, s.rate * float(rng.uniform(0.95, 1.05)))
                    for s in curve.samples
                )
            )
            anchor = OperationalPoint(10.0, jittered.rate_at(10.0))
            specs_t = specs + [
                ModelSpec("linear", anchor=anchor),
                ModelSpec("quadratic", anchor=anchor),
            ]
            spec = specs_t[trial % len(specs_t)]
            fitted = fit(spec, jittered)
            base = rss(fitted, jittered)
            for i in range(len(fitted.coeffs)):
                for delta in (-1e-3, 1e-3):
                    coeffs = list(fitted.coeffs)
                    coeffs[i] += delta
                    perturbed = ModelParams(spec, tuple(coeffs), fitted.branch_u)
                    assert rss(perturbed, jittered) >= base - 1e-9


class TestPredictRate:
    def test_anchor_round_trip(self):
        params = ModelParams(FASTENED_QUAD, (-0.5, -3.0))
        assert predict_rate(params, ANCHOR.qp0) == pytest.approx(ANCHOR.r0, rel=1e-9)

    @pytest.mark.parametrize(
        "spec,coeffs",
        [
            (ModelSpec("quadratic"), (-0.4, 2.0, 30.0)),
            (ModelSpec("linear"), (-4.0, 52.0)),
            (FASTENED_QUAD, (-0.5, -3.0)),
            (FASTENED_LIN, (-3.5,)),
        ],
    )
    def test_fit_then_predict_round_trip(self, spec, coeffs):
        truth = ModelParams(spec, coeffs, branch_u=8.0 if not spec.fastened else None)
        curve = curve_from_params(truth, [5.0, 6.5, 8.0, 9.5, 11.0])
        fitted = fit(spec, curve)
        for s in curve.samples:
            assert predict_rate(fitted, s.qp) == pytest.approx(s.rate, rel=1e-6)

    def test_inverse_of_model_qp_on_branch(self):
        params = ModelParams(FASTENED_QUAD, (-0.5, -3.0))
        for rate in (math.e**7, math.e**8, math.e**9):
            qp = model_qp(params, rate)
            assert predict_rate(params, qp) == pytest.approx(rate, rel=1e-9)

    def test_zero_square_coefficient_degrades_to_linear(self):
        quad = ModelParams(ModelSpec("quadratic"), (0.0, -4.0, 52.0))
        lin = ModelParams(ModelSpec("linear"), (-4.0, 52.0))
        for qp in (10.0, 20.0, 30.0):
            assert predict_rate(quad, qp) == pytest.approx(predict_rate(lin, qp), rel=1e-12)

    def test_no_real_root_reports_vertex(self):
        # Peak QP of this parabola: qp0 - beta^2 / (4 alpha) evaluated via the
        # fastened expansion; requesting anything above it cannot be solved.
        params = ModelParams(FASTENED_QUAD, (-0.5, -3.0))
        u0 = math.log(ANCHOR.r0)
        const = ANCHOR.qp0 + 0.5 * u0 * u0 + 3.0 * u0
        vertex_qp = const - 9.0 / (4.0 * -0.5)
        with pytest.raises(NoRealRootError) as err:
            predict_rate(params, vertex_qp + 1.0)
        assert isinstance(err.value, InversionError)
        assert err.value.requested_qp == vertex_qp + 1.0
        assert err.value.vertex_qp == pytest.approx(vertex_qp, rel=1e-12)
        assert err.value.vertex_u == pytest.approx(3.0 / (2.0 * -0.5), rel=1e-12)

    def test_positive_branch_round_trip(self):
        # branch_u marks the data's side of the parabola; here the rising side.
        params = ModelParams(ModelSpec("quadratic"), (1.0, 0.0, 0.0), branch_u=2.0)
        assert predict_rate(params, 4.0) == pytest.approx(math.e**2, rel=1e-9)
        # A negative zero slope term must not flip the branch.
        negzero = ModelParams(ModelSpec("quadratic"), (1.0, -0.0, 0.0), branch_u=2.0)
        assert predict_rate(negzero, 4.0) == pytest.approx(math.e**2, rel=1e-9)
        # Without a branch hint the falling side is assumed.
        bare = ModelParams(ModelSpec("quadratic"), (1.0, 0.0, 0.0))
        assert predict_rate(bare, 4.0) == pytest.approx(math.e**-2, rel=1e-9)

    def test_constant_models_cannot_invert(self):
        with pytest.raises(InversionError, match="constant"):
            predict_rate(ModelParams(ModelSpec("linear"), (0.0, 30.0)), 20.0)
        with pytest.raises(InversionError, match="constant"):
            predict_rate(ModelParams(ModelSpec("quadratic"), (0.0, 0.0, 30.0)), 20.0)

    def test_overflowing_rate_is_an_inversion_error(self):
        # A rising slope of 0.01 puts ln rate at 8.5 + 28 / 0.01 at qp 38.
        params = ModelParams(ModelSpec("linear", anchor=OperationalPoint(10, 5000)), (0.01,))
        with pytest.raises(InversionError, match="qp=38"):
            predict_rate(params, 38)

    def test_underflowing_rate_is_an_inversion_error(self):
        with pytest.raises(InversionError):
            predict_rate(ModelParams(ModelSpec("linear"), (1.0, 2000.0)), 0.0)

    @pytest.mark.parametrize("coeffs,qp", [((-0.5, -3.0), -1e308), ((0.5, -30.0), 1e308)],
                             ids=["falling_at_-1e308", "rising_at_1e308"])
    def test_overflowing_discriminant_is_an_inversion_error(self, coeffs, qp):
        # 4*alpha*c overflows to inf; the unscaled root collapsed to ln rate 0.
        with pytest.raises(InversionError):
            predict_rate(ModelParams(FASTENED_QUAD, coeffs), qp)

    @given(
        st.sampled_from(["linear", "quadratic"]),
        st.booleans(),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=3),
        st.floats(min_value=0.0, max_value=51.0),
        st.one_of(st.none(), st.floats(min_value=-50.0, max_value=50.0)),
    )
    # A tiny square term made (-beta + sqrt(disc)) / (2 alpha) cancel to ln rate 0.
    @example("quadratic", True, [5.415003722627524e-201, 1.0, 0.0], 0.0, None)
    # A subnormal rate (2.4e-321) keeps too few bits to give back the QP.
    @example("linear", True, [-0.003349336873738672, 0.0, 0.0], 12.499391321994102, None)
    # A double root at the vertex with beta = 0 leaves no c/h to divide by.
    @example("quadratic", False, [1.0, 0.0, 20.0], 20.0, 5.0)
    # 4*alpha*c underflowed to -0.0, so a negative discriminant read as a double root.
    @example("quadratic", False, [5e-324, 0.0, 0.125], 0.0, None)
    @settings(max_examples=500, deadline=None)
    def test_total_over_finite_coefficients(self, form, fastened, coeffs, qp, branch_u):
        spec = ModelSpec(form, anchor=ANCHOR if fastened else None)
        params = ModelParams(spec, tuple(coeffs[: spec.param_count]),
                             None if fastened else branch_u)
        try:
            rate = predict_rate(params, qp)
        except InversionError:
            return
        assert 0.0 < rate < math.inf
        assert model_qp(params, rate) == pytest.approx(qp, abs=1e-6)

    def test_returns_positive(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            curve = synth_curve(CauchyParams(float(rng.uniform(0.5, 50.0))), QP_GRID, 4096.0)
            fitted = fit(ModelSpec("quadratic"), curve)
            try:
                rate = predict_rate(fitted, float(rng.uniform(10.0, 38.0)))
            except NoRealRootError:
                continue
            assert rate > 0


class TestRelativeError:
    @pytest.mark.parametrize(
        "actual,predicted,expected",
        [(1000.0, 900.0, 10.0), (777.0, 777.0, 0.0), (500.0, 600.0, -20.0)],
    )
    def test_known_values(self, actual, predicted, expected):
        assert relative_error(actual, predicted) == pytest.approx(expected, abs=1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=1e9),
        st.floats(min_value=1e-3, max_value=1e9),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_covariance(self, actual, predicted, k):
        assert relative_error(k * actual, k * predicted) == pytest.approx(
            relative_error(actual, predicted), rel=1e-9, abs=1e-9
        )

    def test_rejects_nonpositive_actual(self):
        with pytest.raises(ValueError):
            relative_error(0.0, 10.0)
        with pytest.raises(ValueError):
            relative_error(-5.0, 10.0)
