"""The one rule for real-valued arguments, at every public entry point that reads one."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rqpkit.checks import check_finite, check_positive
from rqpkit.entropy import (
    CauchyParams,
    entropy,
    qp_to_qstep,
    synth_curve,
    total_probability,
)
from rqpkit.evaluate import check_thresholds
from rqpkit.ingest import split_dataset
from rqpkit.model import (
    ModelParams,
    ModelSpec,
    OperationalPoint,
    RQPSample,
    model_qp,
    predict_rate,
    relative_error,
)
from rqpkit.regressor import TrainConfig

PARAMS = CauchyParams(2.0)
LINEAR = ModelParams(ModelSpec("linear", anchor=OperationalPoint(22.0, 5000.0)), (-5.0,))
IDS = [f"f{i}" for i in range(10)]

ACCEPTED = (1, 1.5, np.int64(2), np.float64(2.5))
FRACTIONS = (0, 0.5, np.int64(0), np.float64(0.25))  # test_fraction must lie in [0, 1)

# name -> (call with the value in the argument's place, the name its ValueError
# gives, whether the argument must be positive, values the caller accepts)
ENTRY_POINTS = {
    "CauchyParams.scale": (CauchyParams, "scale", True, ACCEPTED),
    "entropy.q": (lambda v: entropy(PARAMS, v), "quantization step", True, ACCEPTED),
    "total_probability.q": (lambda v: total_probability(PARAMS, v), "quantization step", True,
                            ACCEPTED),
    "synth_curve.bits_scale": (lambda v: synth_curve(PARAMS, [22.0], v), "bits_scale", True,
                               ACCEPTED),
    "synth_curve.qp_grid": (lambda v: synth_curve(PARAMS, [v], 1.0), "qp", False, ACCEPTED),
    "qp_to_qstep.qp": (qp_to_qstep, "qp", False, ACCEPTED),
    "RQPSample.qp": (lambda v: RQPSample(v, 100.0), "qp", False, ACCEPTED),
    "RQPSample.rate": (lambda v: RQPSample(22.0, v), "rate", True, ACCEPTED),
    "OperationalPoint.qp0": (lambda v: OperationalPoint(v, 100.0), "qp0", False, ACCEPTED),
    "OperationalPoint.r0": (lambda v: OperationalPoint(22.0, v), "r0", True, ACCEPTED),
    "ModelParams.coeffs": (lambda v: ModelParams(ModelSpec("linear"), (v, 2.0)),
                           "coefficients", False, ACCEPTED),
    "model_qp.rate": (lambda v: model_qp(LINEAR, v), "rate", True, ACCEPTED),
    "predict_rate.qp": (lambda v: predict_rate(LINEAR, v), "qp", False, ACCEPTED),
    "relative_error.actual": (lambda v: relative_error(v, 1.0), "actual rate", True, ACCEPTED),
    "check_thresholds": (lambda v: check_thresholds((30.0, v)), "thresholds", True, ACCEPTED),
    "TrainConfig.learning_rate": (lambda v: TrainConfig(learning_rate=v), "learning_rate", False,
                                  ACCEPTED),
    "split_dataset.test_fraction": (lambda v: split_dataset(IDS, 0, v), "test_fraction", False,
                                    FRACTIONS),
}

NOT_REAL = (True, False, np.True_, np.False_, "1", None, 1j)
NOT_FINITE = (10**400, -(10**400), 10**5000, math.nan, math.inf, -math.inf, np.float64(math.nan),
              np.float32(math.inf))
NOT_POSITIVE = (0, 0.0, -1, -1.0, np.int64(-1))

# The listed values, strings, lists and integers past the double range.
refused_anywhere = st.one_of(
    st.sampled_from(NOT_REAL + NOT_FINITE),
    st.text(max_size=4),
    st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
    st.lists(st.floats(0.5, 4.0), max_size=2),
)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@given(value=refused_anywhere)
@settings(max_examples=25, deadline=None)
def test_refused_values_name_the_argument(entry, value):
    # A TypeError or OverflowError, or no error at all, fails the test.
    call, name, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=name):
        call(value)


for _value in NOT_REAL + NOT_FINITE:  # every listed value runs at every entry point
    test_refused_values_name_the_argument = example(value=_value)(
        test_refused_values_name_the_argument)


@pytest.mark.parametrize("entry", sorted(e for e, spec in ENTRY_POINTS.items() if spec[2]))
@pytest.mark.parametrize("value", NOT_POSITIVE)
def test_positive_arguments_refuse_zero_and_negatives(entry, value):
    call, name, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=name):
        call(value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_accepted_values_give_the_float_results(entry):
    """An accepted int or NumPy value gives what the same value as a float gives, bit for bit."""
    call, _, _, accepted = ENTRY_POINTS[entry]
    for value in accepted:
        assert call(value) == call(float(value))


# name -> (call with the value in place of the whole iterable, the name its ValueError gives).
# Kept apart from ENTRY_POINTS: its property draws lists as refused values, valid here.
ITERABLE_ARGUMENTS = {
    "check_thresholds.thresholds": (check_thresholds, "thresholds"),
    "synth_curve.qp_grid": (lambda v: synth_curve(PARAMS, v, 1.0), "qp_grid"),
}


@pytest.mark.parametrize("entry", sorted(ITERABLE_ARGUMENTS))
@pytest.mark.parametrize("value", [5, 22.0, np.float64(22.0), None, True, 10**5000],
                         ids=["5", "22.0", "np22.0", "None", "True", "10**5000"])
def test_non_iterables_name_the_argument(entry, value):
    call, name = ITERABLE_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=name):
        call(value)


class TestMessages:
    @pytest.mark.parametrize("check, what", [(check_finite, "finite"),
                                             (check_positive, "positive and finite")])
    def test_wording(self, check, what):
        with pytest.raises(ValueError, match=rf"^r0 must be {what}, got nan$"):
            check("r0", math.nan)
        with pytest.raises(ValueError, match=rf"^r0 must be {what}, got True$"):
            check("r0", True)
        with pytest.raises(ValueError, match=rf"^r0 must be {what}, got '1'$"):
            check("r0", "1")

    @pytest.mark.parametrize("value", [10**400, 10**5000], ids=["10**400", "10**5000"])
    def test_long_integer_is_not_printed(self, value):
        with pytest.raises(ValueError) as info:
            check_positive("r0", value)
        assert str(info.value) == ("r0 must be positive and finite, "
                                   "got an integer too large for a float")

    def test_positive_refuses_zero_with_its_value(self):
        with pytest.raises(ValueError, match=r"^rate must be positive and finite, got -0.0$"):
            check_positive("rate", -0.0)

    @pytest.mark.parametrize("value", [1, 1.5, np.int64(2), np.float64(2.5), 2**1023, 5e-324])
    def test_returns_the_value_as_a_float(self, value):
        assert type(check_finite("x", value)) is float
        assert check_positive("x", value) == float(value)
