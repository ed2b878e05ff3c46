"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Absolute headline accuracy needs a production dataset and encoder, so the
criteria here are property checks plus direction-of-effect reproduction on
the seeded synthetic corpus.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_layer, check_network
from test_features import random_frame, random_quadtree

import rqpkit
from rqpkit.entropy import (
    CauchyParams,
    default_qstep_grid,
    entropy,
    entropy_loglog_curve,
    total_probability,
)
from rqpkit.evaluate import ErrorReport, evaluate_run, run_training
from rqpkit.features import (
    GrayFrame,
    PuMode,
    build_intra,
    build_seg,
    stack_from_coding,
    validate_coverage,
    validate_tiling,
)
from rqpkit.ingest import split_dataset, synth_corpus
from rqpkit.model import (
    ModelParams,
    ModelSpec,
    OperationalPoint,
    RQPCurve,
    RQPSample,
    fit,
    model_qp,
    predict_rate,
    residuals,
)
from rqpkit.regressor import Network, NetworkConfig, TrainConfig, mse_loss, train
from rqpkit.regressor.layers import AvgPool2d, Conv2d, Dense, ReLU
from rqpkit.evaluate import make_labels

ACCEPT_SEED = 20260811

_done = {}


def _report(number: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number}] {verdict} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_entropy_oracle():
    t0 = time.perf_counter()
    grid = default_qstep_grid()
    worst_mass = 0.0
    for scale in (0.5, 1.0, 10.0, 100.0):
        params = CauchyParams(scale)
        h = np.array([entropy(params, float(q)) for q in grid])
        assert (np.diff(h) < 0).all(), f"entropy not strictly nonincreasing at scale {scale}"
        mass = np.array([total_probability(params, float(q)) for q in grid])
        worst_mass = max(worst_mass, float(np.abs(mass - 1.0).max()))
    ok = worst_mass < 1e-6
    _report(1, ok, f"H strictly nonincreasing on 4x64 grid; worst |mass-1| = {worst_mass:.2e}",
            time.perf_counter() - t0, 5.0)


def _grid_search_confirms_minimum(spec, curve, fitted, step=1e-3, radius=2):
    """No coefficient grid point at the given resolution fits better."""
    base = float(np.sum(residuals(fitted, curve) ** 2))
    offsets = [step * k for k in range(-radius, radius + 1)]
    for deltas in product(offsets, repeat=len(fitted.coeffs)):
        coeffs = tuple(c + d for c, d in zip(fitted.coeffs, deltas))
        rss = float(np.sum(residuals(ModelParams(spec, coeffs, fitted.branch_u), curve) ** 2))
        if rss < base - 1e-12:
            return False
    return True


def test_criterion_2_quadratic_loglog_shape():
    t0 = time.perf_counter()
    ratios = {}
    for scale in (10.0, 100.0):
        curve = entropy_loglog_curve(CauchyParams(scale))
        quad_spec, lin_spec = ModelSpec("quadratic"), ModelSpec("linear")
        quad, lin = fit(quad_spec, curve), fit(lin_spec, curve)
        rmse_quad = float(np.sqrt(np.mean(residuals(quad, curve) ** 2)))
        rmse_lin = float(np.sqrt(np.mean(residuals(lin, curve) ** 2)))
        assert rmse_quad <= rmse_lin, f"quadratic fit worse than linear at scale {scale}"
        assert _grid_search_confirms_minimum(quad_spec, curve, quad), "quad not a grid minimum"
        assert _grid_search_confirms_minimum(lin_spec, curve, lin), "linear not a grid minimum"
        ratios[scale] = rmse_quad / rmse_lin
    ok = ratios[100.0] < 0.9
    _report(2, ok,
            f"quad/lin RMSE ratio: scale 10 -> {ratios[10.0]:.3f}, scale 100 -> {ratios[100.0]:.3f}",
            time.perf_counter() - t0, 5.0)


def test_criterion_3_model_exactness():
    t0 = time.perf_counter()
    anchor = OperationalPoint(10.0, math.e**8)
    spec = ModelSpec("quadratic", anchor=anchor)
    truth = ModelParams(spec, (-0.5, -3.0))
    samples = sorted(
        (RQPSample(model_qp(truth, math.exp(u)), math.exp(u)) for u in (6.0, 4.0)),
        key=lambda s: s.qp,
    )
    fitted = fit(spec, RQPCurve(tuple(samples)))
    coeff_err = max(abs(fitted.coeffs[0] + 0.5), abs(fitted.coeffs[1] + 3.0))
    anchor_err = abs(model_qp(fitted, anchor.r0) - anchor.qp0)
    round_trip_err = max(
        abs(predict_rate(fitted, s.qp) - s.rate) / s.rate for s in samples
    )
    ok = coeff_err < 1e-9 and anchor_err < 1e-12 and round_trip_err < 1e-6
    _report(3, ok,
            f"coeff err {coeff_err:.1e}, anchor err {anchor_err:.1e}, "
            f"round trip {round_trip_err:.1e}",
            time.perf_counter() - t0, 1.0)


def test_criterion_4_feature_map_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst_mean_shift = 0.0
    for i in range(1000):
        width, height = (64, 64) if i % 3 else (32, 64)
        frame = random_frame(rng, width, height)
        cus = random_quadtree(rng, width, height)
        owner = validate_tiling(width, height, cus)
        seg = build_seg(frame, owner)
        worst_mean_shift = max(worst_mean_shift, abs(float(seg.mean()) - float(frame.pixels.mean())))
        assert worst_mean_shift <= 0.5, "segmentation mean drifted past the rounding bound"
        for r in cus:
            block = seg[r.y : r.y + r.h, r.x : r.x + r.w]
            assert (block == block[0, 0]).all(), "segmentation not piecewise constant"
        assert np.array_equal(build_seg(GrayFrame(seg), owner), seg), "segmentation not idempotent"
    allowed = set(range(0, 239, 7))
    for _ in range(200):
        pus = [
            PuMode(x, y, int(rng.integers(0, 35)))
            for y in range(0, 64, 16)
            for x in range(0, 64, 16)
        ]
        values = set(np.unique(build_intra(validate_coverage(64, 64, pus), 64, 64)).tolist())
        assert values <= allowed, f"intra plane values escaped the lattice: {values - allowed}"
    _report(4, True,
            f"1000 tilings: mean shift <= {worst_mean_shift:.3f}, piecewise constant, "
            "idempotent; intra values on the 7-step lattice",
            time.perf_counter() - t0, 30.0)


def test_criterion_5_gradient_checks():
    t0 = time.perf_counter()
    total_checked = total_skipped = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        check_layer(Conv2d(2, 4, rng=np.random.default_rng(seed + 50)),
                    rng.standard_normal((2, 2, 8, 8)), rng)
        check_layer(Conv2d(2, 3, rng=np.random.default_rng(seed + 60)),
                    rng.standard_normal((2, 2, 7, 7)), rng)
        check_layer(AvgPool2d(2), rng.standard_normal((2, 3, 8, 8)), rng, check_params=False)
        check_layer(Dense(8, 3, rng=np.random.default_rng(seed + 70)),
                    rng.standard_normal((4, 8)), rng)
        x = rng.standard_normal((2, 2, 6, 6))
        check_layer(ReLU(), np.where(np.abs(x) < 0.1, x + 0.5, x), rng, check_params=False)

        pred, target = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        _, grad = mse_loss(pred, target)
        for idx in ((0, 0), (2, 1), (3, 2)):
            h = 1e-6
            bump, dip = pred.copy(), pred.copy()
            bump[idx] += h
            dip[idx] -= h
            numeric = (mse_loss(bump, target)[0] - mse_loss(dip, target)[0]) / (2 * h)
            assert abs(grad[idx] - numeric) <= 1e-4 * max(abs(grad[idx]), abs(numeric), 1.0)

        net = Network(NetworkConfig(2, 3, seed=seed))
        x = rng.uniform(0.0, 1.0, (3, 2, 8, 8))
        y = rng.standard_normal((3, 3))
        checked, skipped = check_network(net, x, y, rng)
        total_checked += checked
        total_skipped += skipped
    _report(5, True,
            f"conv/pool/dense/relu/loss match finite differences over 5 seeds; "
            f"composed network: {total_checked} coords checked, {total_skipped} kink-skipped",
            time.perf_counter() - t0, 60.0)


def test_criterion_6_trainability():
    t0 = time.perf_counter()
    frame, md = synth_corpus(1, seed=ACCEPT_SEED + 6, size=(64, 64))[0]
    stack = stack_from_coding(frame, md)
    label = make_labels(md, "quadratic", True)
    net = Network(NetworkConfig(3, 2, seed=ACCEPT_SEED))
    result = train(net, stack[None], np.array([label.coeffs]),
                   TrainConfig(epochs=200, seed=ACCEPT_SEED))
    ratio = result.train_loss[-1] / result.train_loss[0]
    _report(6, ratio < 1e-3,
            f"one-sample loss ratio after 200 epochs at lr 1e-4: {ratio:.2e}",
            time.perf_counter() - t0, 300.0)


CONFIGS = (
    ("quadratic", True, ("rec", "seg", "intra")),
    ("quadratic", False, ("rec", "seg", "intra")),
    ("quadratic", True, ("rec",)),
)


def _full_pipeline():
    """Seeded corpus -> split -> three training runs -> one report."""
    corpus = synth_corpus(200, seed=ACCEPT_SEED, size=(64, 64))
    ids = [md.frame_id for _, md in corpus]
    split = split_dataset(ids, seed=ACCEPT_SEED, test_fraction=0.2)
    cfg = TrainConfig(seed=ACCEPT_SEED)
    report = ErrorReport(
        thresholds=(30.0, 20.0, 10.0),
        metadata={"seed": ACCEPT_SEED, "frames": len(corpus), "epochs": cfg.epochs},
    )
    runs = {}
    for form, fastened, channels in CONFIGS:
        run = run_training(corpus, split, form, fastened, channels, cfg)
        row, _ = evaluate_run(corpus, run)
        report.rows.append(row)
        runs[(form, fastened, channels)] = run
    return report, runs


def _first_pipeline():
    if "first" not in _done:
        _done["first"] = _full_pipeline()
    return _done["first"]


# What the child of `repeat_pipeline` runs: criterion 8's second pipeline, printing its report.csv.
_REPEAT = ("import sys; from test_acceptance import _full_pipeline; "
           "sys.stdout.write(_full_pipeline()[0].to_csv())")


@pytest.fixture(scope="module")
def repeat_pipeline(request):
    """Criterion 8's second pipeline in a child process, or None when criterion 8 is
    not selected.  Criteria 7 and 8 both request it, so it starts before the first
    pipeline and the two run side by side; at the module's end it is killed if it
    still runs, and always waited for."""
    if "test_criterion_8_determinism" not in {item.name for item in request.session.items}:
        yield None
        return
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(rqpkit.__file__).parents[1])])
    with subprocess.Popen([sys.executable, "-W", "error", "-c", _REPEAT],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path}) as child:
        try:
            yield child
        finally:
            child.kill()


@pytest.mark.usefixtures("repeat_pipeline")
def test_criterion_7_direction_of_effect():
    t0 = time.perf_counter()
    report, runs = _first_pipeline()
    by_cfg = {(r.model, r.fastened, r.features): r for r in report.rows}
    fast = by_cfg[("quadratic", True, "rec+seg+intra")]
    free = by_cfg[("quadratic", False, "rec+seg+intra")]
    rec = by_cfg[("quadratic", True, "rec")]
    p10 = lambda row: row.proportions[2]

    fast_run = runs[CONFIGS[0]]
    val_mse = fast_run.result.val_loss[-1]
    baseline = fast_run.baseline_val_mse

    ok_a = p10(fast) > p10(free)
    ok_b = p10(fast) >= p10(rec)
    ok_c = val_mse < baseline
    _report(7, ok_a and ok_b and ok_c,
            f"(a) fastened 10%-prop {p10(fast):.3f} > free {p10(free):.3f}; "
            f"(b) all-features {p10(fast):.3f} >= rec-only {p10(rec):.3f}; "
            f"(c) val MSE {val_mse:.3f} < mean-predictor {baseline:.3f} "
            f"[magnitudes reported, direction asserted]",
            time.perf_counter() - t0, 1800.0)


def test_criterion_8_determinism(repeat_pipeline):
    t0 = time.perf_counter()
    first_csv = _first_pipeline()[0].to_csv()
    second_csv, errors = repeat_pipeline.communicate(timeout=1800)
    assert repeat_pipeline.returncode == 0, errors.decode()
    ok = first_csv.encode() == second_csv
    _report(8, ok, "the pipeline repeated in a child process produced a byte-identical report.csv",
            time.perf_counter() - t0, 1800.0)
