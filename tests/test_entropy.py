"""Quantized-coefficient entropy: bin masses, entropy sums, QP conversion, curves."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqpkit.entropy import (
    CauchyParams,
    _side_bin_mass,
    _step,
    _zero_bin_mass,
    default_qstep_grid,
    entropy,
    entropy_loglog_curve,
    qp_to_qstep,
    synth_curve,
    total_probability,
)
from rqpkit.model import ModelSpec, RQPCurve, RQPSample, fit, residuals

# The package re-exports entropy() under the submodule's name.
entropy_module = sys.modules["rqpkit.entropy"]

# Frozen with a 40-digit evaluation of atan(1/1.75)/pi and -2*p*log2(p).
P_G1_Q1_N1 = 0.1652493405385679
H_TWO_TERM = 0.8583987977431008
P0_G1_Q1 = 0.2951672353008665


def ratio(scale: float, q: float) -> float:
    """a = scale/q as the library takes it from _step, q checked as in entropy()."""
    return _step(scale, q)[1]


class TestBinProbability:
    """Bin masses from the one mass rule, _side_bin_mass and _zero_bin_mass."""

    def test_frozen_single_bin(self):
        assert _side_bin_mass(ratio(1.0, 1.0), 1) == pytest.approx(P_G1_Q1_N1, abs=1e-12)

    def test_symmetric_in_n(self):
        a = ratio(1.0, 1.0)
        assert _side_bin_mass(a, -1) == _side_bin_mass(a, 1)

    def test_symmetry_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = ratio(float(rng.uniform(0.1, 200.0)), float(rng.uniform(0.01, 500.0)))
            n = int(rng.integers(1, 10_000))
            assert _side_bin_mass(a, n) == _side_bin_mass(a, -n)

    def test_huge_step_tends_to_zero(self):
        assert _side_bin_mass(ratio(1.0, 1e12), 1) < 1e-12

    def test_zero_bin_mass(self):
        assert _zero_bin_mass(ratio(1.0, 1.0)) == pytest.approx(P0_G1_Q1, abs=1e-12)

    def test_zero_bin_at_half_ratio(self):
        # At scale/q = 1/2 the side formula's denominator is 0 at n = 0; the deadzone's is not.
        a = ratio(1.0, 2.0)
        p = _side_bin_mass(a, np.array([1, -1]))
        assert _zero_bin_mass(a) == pytest.approx(0.5, abs=1e-15) and p[0] == p[1] > 0.0

    def test_vectorized_matches_scalar(self):
        a = ratio(3.0, 2.0)
        n = np.array([-2, -1, 1, 5])
        vec = _side_bin_mass(a, n)
        assert vec.shape == (4,)
        for i, ni in enumerate(n):
            assert vec[i] == _side_bin_mass(a, int(ni))

    def test_in_open_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = ratio(float(rng.uniform(0.1, 100.0)), float(rng.uniform(0.01, 100.0)))
            assert 0.0 < _side_bin_mass(a, int(rng.integers(1, 100))) < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            CauchyParams(0.0)
        with pytest.raises(ValueError):
            CauchyParams(-1.0)


def brute_entropy(scale: float, q: float, limit: int, zero_bin: bool) -> float:
    """Independent plain-math summation of the entropy."""
    total = 0.0
    for n in range(1, limit + 1):
        p = math.atan(scale * q / (scale * scale + (n * n - 0.25) * q * q)) / math.pi
        if p > 0:
            total += -2.0 * p * math.log2(p)
    if zero_bin:
        p0 = 2.0 / math.pi * math.atan(q / (2.0 * scale))
        if p0 > 0:
            total += -p0 * math.log2(p0)
    return total


def strict_entropy(scale: float, q: float, limit: int, zero_bin: bool) -> float:
    """Entropy of side bins +-1..limit (plus the deadzone if zero_bin), no tail,
    from the library's own bin masses."""
    a = ratio(scale, q)
    p = _side_bin_mass(a, np.arange(1, limit + 1))
    p = p[p > 0]
    total = 2.0 * float(np.sum(-p * np.log2(p)))
    if zero_bin:
        p0 = _zero_bin_mass(a)
        total += -p0 * math.log2(p0) if p0 > 0 else 0.0
    return total


class TestEntropy:
    def test_frozen_two_term(self):
        assert strict_entropy(1.0, 1.0, 1, False) == pytest.approx(H_TWO_TERM, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            scale = float(rng.uniform(0.2, 50.0))
            q = float(rng.uniform(0.2, 50.0))
            limit = int(rng.integers(1, 500))
            zero_bin = bool(rng.integers(0, 2))
            assert strict_entropy(scale, q, limit, zero_bin) == pytest.approx(
                brute_entropy(scale, q, limit, zero_bin), rel=1e-12
            )

    def test_all_terms_underflow_gives_zero(self):
        # scale/q underflows to 0, and with it every bin's mass.
        assert strict_entropy(1e-300, 1e300, 3, False) == 0.0
        # At scale/q = 1e-308 the three bins' masses are subnormal but not 0;
        # frozen with a 50-digit evaluation.
        assert strict_entropy(1.0, 1e308, 3, False) == pytest.approx(1.1186185589566655e-305,
                                                                     rel=1e-14, abs=0.0)
        # Every head bin falls below the floor; only the tail integral's subnormal remains.
        assert 0.0 <= entropy(CauchyParams(1.0), 1e308) < 1e-300

    def test_coarser_quantization_less_entropy(self):
        params = CauchyParams(10.0)
        h_fine, h_coarse = entropy(params, 1.0), entropy(params, 100.0)
        assert strict_entropy(10.0, 1.0, 1000, False) == pytest.approx(
            brute_entropy(10.0, 1.0, 1000, False), rel=1e-12
        )
        assert strict_entropy(10.0, 100.0, 1000, False) == pytest.approx(
            brute_entropy(10.0, 100.0, 1000, False), rel=1e-12
        )
        assert h_fine > h_coarse

    @pytest.mark.parametrize("scale", [0.5, 1.0, 10.0, 100.0])
    def test_nonincreasing_in_qstep(self, scale):
        params = CauchyParams(scale)
        values = [entropy(params, q) for q in np.geomspace(0.5, 512.0, 50)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_more_terms_never_less_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            scale = float(rng.uniform(0.2, 50.0))
            q = float(rng.uniform(0.2, 50.0))
            values = [strict_entropy(scale, q, n, False) for n in (1, 2, 5, 20, 100, 1000)]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert entropy(CauchyParams(scale), q) >= values[-1]

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            params = CauchyParams(float(rng.uniform(0.1, 200.0)))
            h = entropy(params, float(rng.uniform(0.01, 1000.0)))
            assert math.isfinite(h) and h >= 0.0


def reference_entropy(scale: float, q: float, bins: int = 1 << 21) -> float:
    """Independent entropy: `bins` side bins from the Cauchy CDF plus the tail.

    Side bin n has mass S((n - 1/2) q) - S((n + 1/2) q) with survival
    S(x) = atan(scale / x) / pi.  Beyond bin `bins` the mass tends to
    c / n^2, c = scale / (pi q); the integral of -p log2 p of that from
    x = bins + 1/2 on is c / x (2 ln x + 2 - ln c) / ln 2, off by a
    relative (scale/q)^2 / x^2 <= 3e-9 of a tail below 2e-3 bits here.
    """
    a = scale / q
    survival = np.arctan(a / np.arange(0.5, bins + 1.0)) / math.pi
    p = survival[:-1] - survival[1:]
    side = float(np.sum(-p * np.log2(p)))
    c, x = a / math.pi, bins + 0.5
    tail = c / x * (2.0 * math.log(x) + 2.0 - math.log(c)) / math.log(2.0)
    p0 = 1.0 - 2.0 / math.pi * math.atan(2.0 * a)
    return -p0 * math.log2(p0) + 2.0 * (side + tail)


class TestUntruncatedEntropy:
    @pytest.mark.parametrize("scale", [0.5, 1.0, 10.0, 100.0])
    def test_matches_long_reference(self, scale):
        for q in default_qstep_grid()[::7]:
            truth = reference_entropy(scale, float(q))
            assert entropy(CauchyParams(scale), float(q)) == pytest.approx(truth, rel=1e-8)

    # q2 >= q1 * (1 + 1e-3) for scale/q from 2^-9 to 2^8; the examples
    # straddle scale/q = 16, where the head outgrows its 1024-bin minimum.
    @given(
        scale=st.floats(0.5, 100.0),
        log2_a=st.floats(-9.0, 8.0),
        step=st.one_of(st.just(1e-3), st.floats(1e-3, 1.0)),
    )
    @example(scale=32.0, log2_a=math.log2(16.008), step=1e-3)
    @example(scale=1.0, log2_a=math.log2(16.0001), step=1e-3)
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_qstep(self, scale, log2_a, step):
        params = CauchyParams(scale)
        q1 = scale / 2.0**log2_a
        assert entropy(params, q1 * (1.0 + step)) < entropy(params, q1)

    def test_step_too_fine_for_head_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            entropy(CauchyParams(1.0), 1e-6)


class TestTotalProbability:
    def test_term_by_term_sums_to_one(self):
        # At small scale / large step the heavy tail is affordable to sum
        # outright: enough explicit bins for the remainder to dip below 1e-9.
        scale, q = 0.5, 256.0
        limit = math.ceil(2.0 * scale / (math.pi * q * 1e-9))
        a = ratio(scale, q)
        total = 2.0 * float(_side_bin_mass(a, np.arange(1, limit + 1)).sum()) + _zero_bin_mass(a)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 10.0, 100.0])
    def test_adaptive_with_tail(self, scale):
        params = CauchyParams(scale)
        for q in (1.0, 16.0, 256.0):
            assert total_probability(params, q) == pytest.approx(1.0, abs=1e-6)

    def test_without_zero_bin_misses_its_mass(self):
        side = total_probability(CauchyParams(1.0), 1.0) - _zero_bin_mass(ratio(1.0, 1.0))
        assert side == pytest.approx(1.0 - P0_G1_Q1, abs=1e-6)



class TestRatioAlone:
    """Every mass, and so H, depends on scale and q only through a = scale/q."""

    # a from 2^-3 to 2^16, scale and q both times k from 1e-100 to 1e150; k*scale/(k*q)
    # is a to within 2 ulps.  (Below a ~ 2^-4, H is mostly the deadzone's -p0 log2 p0
    # with p0 near 1, and one ulp of p0 moves H by up to ~12 ulps.)
    @given(
        scale=st.floats(0.5, 100.0),
        log2_a=st.floats(-3.0, 16.0),
        log10_k=st.floats(-100.0, 150.0),
    )
    @example(scale=2e4, log2_a=math.log2(2e4), log10_k=150.0)
    @settings(max_examples=100, deadline=None)
    def test_scaling_scale_and_step_together_keeps_h(self, scale, log2_a, log10_k):
        q, k = scale / 2.0**log2_a, 10.0**log10_k
        assert entropy(CauchyParams(k * scale), k * q) == pytest.approx(
            entropy(CauchyParams(scale), q), rel=1e-15, abs=0.0)

    def test_products_past_the_float_range(self):
        # scale*q and scale^2 overflow here, though scale/q = 2e4 is in range.
        assert entropy(CauchyParams(2e154), 1e150) == pytest.approx(
            entropy(CauchyParams(2e4), 1.0), rel=1e-15, abs=0.0)
        assert total_probability(CauchyParams(2e154), 1e150) == pytest.approx(1.0, abs=1e-6)

    def test_largest_steps_stay_finite(self):
        # q^2 overflows; the suite turns any RuntimeWarning into a failure.
        assert 0.0 <= entropy(CauchyParams(2.0), 1e308) < 1e-300
        rate = synth_curve(CauchyParams(2.0), [6147.0], 1.0).samples[0].rate
        assert 0.0 < rate < 1e-300

    def test_ratio_underflowing_to_zero(self):
        a = ratio(1e-300, 1e300)
        assert _zero_bin_mass(a) == 1.0
        assert _side_bin_mass(a, 1) == 0.0
        assert entropy(CauchyParams(1e-300), 1e300) == 0.0


class TestQpConversion:
    @pytest.mark.parametrize("qstep,qp", [(1.0, 4.0), (2.0, 10.0), (4.0, 16.0)])
    def test_known_points(self, qstep, qp):
        assert qp_to_qstep(qp) == pytest.approx(qstep, rel=1e-12)

    # -6128 gives the smallest normal step, 2 ** -1022; 6147 the largest whole qp
    # whose step stays finite.
    @given(st.floats(min_value=-6128.0, max_value=6147.0))
    @example(-6128.0)
    @example(6147.0)
    @settings(max_examples=200, deadline=None)
    def test_qp_is_six_log2_step_plus_four(self, qp):
        assert 6.0 * math.log2(qp_to_qstep(qp)) + 4.0 == pytest.approx(qp, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qp_to_qstep(float("nan"))

    # 6148 overflows; -6129 gives a subnormal step and -6446 a zero step.
    @pytest.mark.parametrize("qp", [6148.0, 1e6, -6129.0, -6446.0, -1e6])
    def test_step_beyond_normal_float_range(self, qp):
        with pytest.raises(ValueError, match=f"qp {qp} "):
            qp_to_qstep(qp)
        with pytest.raises(ValueError, match=f"qp {qp} "):
            synth_curve(CauchyParams(5.0), sorted([10.0, qp]), 1.0)


class TestSynthCurve:
    def test_single_point(self):
        params = CauchyParams(5.0)
        curve = synth_curve(params, [10.0], bits_scale=100.0)
        assert len(curve) == 1
        assert curve.samples[0].qp == 10.0
        assert curve.samples[0].rate == pytest.approx(
            100.0 * entropy(params, qp_to_qstep(10.0)), rel=1e-12
        )

    def test_bits_scale_is_linear(self):
        params = CauchyParams(5.0)
        grid = [10.0, 22.0, 38.0]
        base = synth_curve(params, grid, 100.0)
        double = synth_curve(params, grid, 200.0)
        for a, b in zip(base.samples, double.samples):
            assert b.rate == pytest.approx(2.0 * a.rate, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 30.0])
    def test_positive_and_nonincreasing(self, scale):
        curve = synth_curve(CauchyParams(scale), np.arange(10.0, 39.0, 2.0), 4096.0)
        rates = curve.rates()
        assert (rates > 0).all()
        assert (np.diff(rates) <= 0).all()

    def test_grid_validation(self):
        params = CauchyParams(1.0)
        with pytest.raises(ValueError):
            synth_curve(params, [], 1.0)
        with pytest.raises(ValueError):
            synth_curve(params, [10.0, 10.0], 1.0)
        with pytest.raises(ValueError):
            synth_curve(params, [12.0, 10.0], 1.0)
        with pytest.raises(ValueError):
            synth_curve(params, [10.0, 12.0], 0.0)


class TestLogLogShape:
    def test_default_grid(self):
        grid = default_qstep_grid()
        assert grid.shape == (64,)
        assert grid[0] == 1.0 and grid[-1] == 256.0
        assert (np.diff(grid) > 0).all()

    @pytest.mark.parametrize("scale", [10.0, 100.0])
    def test_quadratic_fits_no_worse_than_linear(self, scale):
        curve = entropy_loglog_curve(CauchyParams(scale))
        rss_quad = float(np.sum(residuals(fit(ModelSpec("quadratic"), curve), curve) ** 2))
        rss_lin = float(np.sum(residuals(fit(ModelSpec("linear"), curve), curve) ** 2))
        assert rss_quad <= rss_lin * (1.0 + 1e-9)

    def test_high_scale_strongly_prefers_quadratic(self):
        curve = entropy_loglog_curve(CauchyParams(100.0))
        rmse_quad = float(np.sqrt(np.mean(residuals(fit(ModelSpec("quadratic"), curve), curve) ** 2)))
        rmse_lin = float(np.sqrt(np.mean(residuals(fit(ModelSpec("linear"), curve), curve) ** 2)))
        assert rmse_quad / rmse_lin < 0.9


def per_step_entropy(scale: float, q: float) -> float:
    """One step at a time, as entropy() evaluated before heads shared passes:
    check q, build the head's masses, -p log2 p, one sum, the closed-form tail,
    then the deadzone."""
    if not (q > 0 and math.isfinite(q)):
        raise ValueError(f"quantization step must be positive and finite, got {q}")
    a = scale / q
    if a > 65_536.0:
        raise ValueError(f"scale/q = {a:.3g} exceeds 65536: the head would pass 4M bins")
    p = entropy_module._side_bin_mass(a, np.arange(1, max(1024, math.ceil(64.0 * a)) + 1))
    tail = entropy_module._tail_bits(a, math.log(scale) - math.log(q), p.size)
    side = float(entropy_module._plogp(p).sum()) + tail
    return 2.0 * side + float(entropy_module._plogp(entropy_module._zero_bin_mass(a)))


def per_step_curve(scale: float, qp_grid, bits_scale: float) -> RQPCurve:
    qps = [float(qp) for qp in qp_grid]
    return RQPCurve(tuple(RQPSample(qp, bits_scale * per_step_entropy(scale, qp_to_qstep(qp)))
                          for qp in qps))


def outcome(fn, *args):
    """The curve's (qp, rate) pairs, or the exception's type and message."""
    try:
        return [(s.qp, s.rate) for s in fn(*args).samples]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# Log-uniform over [1e-2, 5e3]: heads from the 1024-bin minimum to ~500k bins
# over QPs 0..51, so most grids at large scales span several passes.
log_scales = st.floats(math.log(1e-2), math.log(5e3)).map(math.exp)
qp_grids = st.lists(st.floats(0.0, 51.0), min_size=1, max_size=12, unique=True).map(sorted)


class TestSharedPasses:
    @given(scale=log_scales, grid=qp_grids, bits_scale=st.floats(1.0, 1e6))
    @example(scale=5e3, grid=[0.0, 0.5, 1.0, 26.0, 51.0], bits_scale=1.0)
    @example(scale=1e-2, grid=[51.0], bits_scale=1.0)
    @settings(max_examples=60, deadline=None)
    def test_synth_curve_is_per_step_bit_for_bit(self, scale, grid, bits_scale):
        assert outcome(synth_curve, CauchyParams(scale), grid, bits_scale) == outcome(
            per_step_curve, scale, grid, bits_scale)

    @given(scale=log_scales, qp=st.floats(0.0, 51.0))
    @settings(max_examples=60, deadline=None)
    def test_entropy_is_per_step_bit_for_bit(self, scale, qp):
        q = qp_to_qstep(qp)
        assert entropy(CauchyParams(scale), q) == per_step_entropy(scale, q)

    @given(scale=log_scales)
    @example(scale=5e3)
    @settings(max_examples=10, deadline=None)
    def test_loglog_curve_is_per_step_bit_for_bit(self, scale):
        expected = [(math.log(q), per_step_entropy(scale, float(q))) for q in default_qstep_grid()]
        curve = entropy_loglog_curve(CauchyParams(scale))
        assert [(s.qp, s.rate) for s in curve.samples] == expected

    def test_equal_heads_beyond_one_pass(self):
        # 5000 heads of 1024 bins fill one pass of 4096 rows and part of another.
        grid = np.linspace(30.0, 60.0, 5000)
        assert outcome(synth_curve, CauchyParams(1.0), grid, 1.0) == outcome(
            per_step_curve, 1.0, grid, 1.0)

    @pytest.mark.parametrize("grid", [
        [],
        [10.0, float("nan")],
        [float("nan"), -60.0],
        [-60.0, float("nan")],
        [10.0, -60.0, -70.0],
        [10.0, 10.0],
        [22.0, 14.0, 18.0],
        [22.0, 14.0, -60.0],
        [10.0, 1e5],
    ])
    def test_grid_errors_match_per_step(self, grid):
        # QP -60 is too fine for scale 100 (scale/q ~ 1.0e5 > 65536); 1e5 overflows the step.
        got = outcome(synth_curve, CauchyParams(100.0), grid, 1.0)
        assert isinstance(got[0], type) and got == outcome(per_step_curve, 100.0, grid, 1.0)

    def test_memory_stays_at_one_head(self):
        # Eight heads of 2.6M-3.8M bins, one pass each: the peak is the largest head's.
        grid = [4.0 + 0.5 * i for i in range(8)]
        tracemalloc.start()
        try:
            per_step_entropy(60000.0, qp_to_qstep(grid[0]))
            reference_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            synth_curve(CauchyParams(60000.0), grid, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * reference_peak
