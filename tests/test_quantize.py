"""Int8 quantization: rounding, scales, integer inference, size accounting."""

import pickle

import numpy as np
import pytest

from attestlab import autoenc, quantize
from attestlab.autoenc import init_model, reconstruct
from attestlab.quantize import (q_reconstruct, quantize_model,
                                round_half_away, size_report)


def _calibrated(arch="M1", l=16, seed=0, n=64):
    g = np.random.default_rng(seed)
    calib = g.random((n, l))
    model = init_model(arch, l, seed=seed)
    return model, quantize_model(model, calib), calib


# ---------------------------------------------------------------------------
# rounding and scales

def test_round_half_away_oracles():
    got = round_half_away(np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.4, 0.0]))
    assert np.array_equal(got, [1.0, -1.0, 2.0, -2.0, 2.0, -2.0, 0.0])
    assert round_half_away(2.5) == 3.0
    assert round_half_away(-2.5) == -3.0


def test_weight_scale_from_extreme_weight():
    model = init_model("M1", 4, seed=0)
    model.layers[0].w[:] = 0.0
    model.layers[0].w[0, 0] = 1.27
    qm = quantize_model(model, np.random.default_rng(0).random((8, 4)))
    q0 = qm.layers[0]
    assert q0.w_scale == pytest.approx(0.01, rel=1e-6)
    assert q0.wq[0, 0] == 127
    assert np.all(np.abs(q0.wq) <= 127)


def test_weight_dequantization_error_within_half_step():
    model, qm, _ = _calibrated()
    for fl, ql in zip(model.layers, qm.layers):
        err = np.abs(ql.wq.astype(np.float64) * ql.w_scale - fl.w)
        assert err.max() <= ql.w_scale / 2 + 1e-12


def test_bias_scale_is_input_times_weight_scale():
    model, qm, _ = _calibrated()
    in_scales = [qm.input_q.scale, qm.layers[0].out_q.scale]
    for ql, in_scale in zip(qm.layers, in_scales):
        assert ql.b_scale == pytest.approx(
            float(np.float32(in_scale * ql.w_scale)))
        assert ql.bq.dtype == np.int32


def test_activation_quant_always_covers_zero():
    model, qm, _ = _calibrated()
    for q in [qm.input_q] + [ql.out_q for ql in qm.layers]:
        # zero must be exactly representable at the zero point
        assert quantize.INT8_MIN <= q.zero_point <= quantize.INT8_MAX
        assert (q.zero_point - q.zero_point) * q.scale == 0.0


def test_integer_relu_clamps_at_zero_point():
    model = init_model("M1", 8, seed=1)
    # force strongly negative preactivations in the hidden layer
    model.layers[0].b[:] = -5.0
    calib = np.random.default_rng(0).random((32, 8))
    qm = quantize_model(model, calib)
    out = q_reconstruct(qm, calib)
    # hidden relu output is all zeros, so result is the output bias alone
    expected = reconstruct(model, calib)
    assert np.allclose(out, expected, atol=0.05)


# ---------------------------------------------------------------------------
# agreement with the float model

def test_quantized_outputs_track_float_outputs():
    model, qm, calib = _calibrated(l=32, n=128)
    dev = np.abs(q_reconstruct(qm, calib) - reconstruct(model, calib))
    assert dev.max() <= 0.05


@pytest.mark.parametrize("arch", ["M1", "M2", "M3"])
def test_all_archs_quantize_and_run(arch):
    model, qm, calib = _calibrated(arch=arch, l=16, n=64)
    out = q_reconstruct(qm, calib)
    assert out.shape == calib.shape
    dev = np.abs(out - reconstruct(model, calib))
    assert dev.max() <= 0.05
    vec = q_reconstruct(qm, calib[0])
    assert vec.shape == (16,)
    assert np.array_equal(vec, out[0])


def test_error_decision_agreement_on_trained_bundle(bundle, tiny_cfg):
    val = bundle.dataset.val
    f_err = autoenc.reconstruction_error(val, reconstruct(bundle.model, val))
    q_err = autoenc.reconstruction_error(val, q_reconstruct(bundle.qmodel,
                                                            val))
    t = bundle.calibration.t_opt
    agreement = np.mean((f_err >= t) == (q_err >= t))
    assert agreement >= 0.97


def test_quantize_model_deterministic():
    model, qa, calib = _calibrated()
    qb = quantize_model(model, calib)
    for la, lb in zip(qa.layers, qb.layers):
        assert np.array_equal(la.wq, lb.wq)
        assert np.array_equal(la.bq, lb.bq)
        assert la.out_q == lb.out_q
    assert qa.source_digest == qb.source_digest


def test_source_digest_tracks_float_model():
    a_model, a_q, calib = _calibrated(seed=0)
    b_model = init_model("M1", 16, seed=9)
    b_q = quantize_model(b_model, calib)
    assert len(a_q.source_digest) == 32
    assert a_q.source_digest != b_q.source_digest


def test_quantize_model_validation():
    model = init_model("M1", 8, seed=0)
    with pytest.raises(ValueError):
        quantize_model(model, np.zeros((0, 8)))
    with pytest.raises(ValueError):
        quantize_model(model, np.zeros((4, 9)))
    bad = np.zeros((4, 8))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        quantize_model(model, bad)
    with pytest.raises(ValueError):
        q_reconstruct(quantize_model(model, np.random.default_rng(0)
                                     .random((4, 8))), np.zeros(9))


def test_degenerate_all_zero_weights():
    # zero weights force the degenerate scale 1.0; an integer bias is then
    # exactly representable and the network reduces to that constant
    model = init_model("M1", 8, seed=0)
    for layer in model.layers:
        layer.w[:] = 0.0
    model.layers[1].b[:] = 3.0
    calib = np.random.default_rng(0).random((16, 8))
    qm = quantize_model(model, calib)
    assert qm.layers[0].w_scale == 1.0
    assert qm.layers[1].b_scale == 1.0
    assert np.all(qm.layers[1].bq == 3)
    out = q_reconstruct(qm, calib)
    assert np.allclose(out, 3.0, atol=qm.layers[1].out_q.scale)


# ---------------------------------------------------------------------------
# size accounting

def test_size_report_parameter_counts_m1():
    model, qm, _ = _calibrated(l=128, n=32)
    rep = size_report(model, qm)
    assert rep.n_weights == 128 * 8 + 8 * 128
    assert rep.n_biases == 8 + 128
    assert rep.float_bytes > rep.quant_bytes
    assert rep.reduction_factor == pytest.approx(
        rep.float_bytes / rep.quant_bytes)


def test_size_report_reduction_bounded_by_bias_width():
    # int8 weights shrink 4x but biases stay 32-bit, so the reduction
    # factor can never reach 4(W+B)/(W+4B) for W weights and B biases
    model, qm, _ = _calibrated(l=128, n=32)
    rep = size_report(model, qm)
    w, b = rep.n_weights, rep.n_biases
    cap = 4.0 * (w + b) / (w + 4.0 * b)
    assert rep.reduction_factor < cap


def test_size_report_stable_across_reload(tmp_path):
    from attestlab import model_io
    model, qm, _ = _calibrated(l=128, n=32)
    path = tmp_path / "m.alm"
    model_io.save_container(path, model=model, qmodel=qm)
    loaded = model_io.load_container(path)
    rep = size_report(model, qm)
    rep2 = size_report(loaded.model, loaded.qmodel)
    assert rep == rep2


# ---------------------------------------------------------------------------
# exactness of the float64 integer path, against the int64 reference

def _ref_round_half_away(x):
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _ref_requantize(acc, in_scale, w_scale, out_q, activation):
    mult = (in_scale * w_scale) / out_q.scale
    q = _ref_round_half_away(acc * mult) + out_q.zero_point
    q = np.clip(q, quantize.INT8_MIN, quantize.INT8_MAX)
    if activation == "relu":
        q = np.maximum(q, out_q.zero_point)
    return q.astype(np.int64)


def _ref_q_reconstruct(qmodel, x):
    """Int64 codes and int64 matmuls, as inference ran before the float64
    path; kept as the oracle the float64 path must match byte for byte."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    cur = qmodel.input_q
    q = np.clip(_ref_round_half_away(arr / cur.scale) + cur.zero_point,
                quantize.INT8_MIN, quantize.INT8_MAX).astype(np.int64)
    for layer in qmodel.layers:
        if not isinstance(layer, quantize.QLayer):
            q, _ = layer.forward(q)
            continue
        x = q - cur.zero_point
        if layer.kind == "conv":
            x = autoenc.im2col(x, layer.wq.shape[0])
        acc = x @ layer.wq.reshape(-1, layer.wq.shape[-1]).astype(np.int64) \
            + layer.bq.astype(np.int64)
        q = _ref_requantize(acc, cur.scale, layer.w_scale, layer.out_q,
                            layer.activation)
        cur = layer.out_q
    out = (q.astype(np.float64) - cur.zero_point) * cur.scale
    return out[0] if single else out


def _edge_rows(qm, l, n, seed):
    g = np.random.default_rng(seed)
    scale = qm.input_q.scale
    halves = (np.arange(-200, 200) + 0.5) * scale
    halves = halves[np.modf(halves / scale)[0] == 0.5 * np.sign(halves)]
    rows = [g.random((n, l)),                       # in range
            -g.random((8, l)),                      # negative features
            1.0 + 3.0 * g.random((8, l)),           # features > 1
            np.zeros((3, l)),                       # all-zero rows
            np.resize(halves, (4, l)),              # exact half codes
            np.full((1, l), 1e6), np.full((1, l), -1e6)]
    return np.vstack(rows), halves


def _noisy_clean(g, n, l):
    clean = g.random((n, l))
    return clean + 0.05 * g.random((n, l)), clean


def _trained(arch, l=32):
    g = np.random.default_rng(7)
    model = init_model(arch, l, seed=7)
    autoenc.train(model, *_noisy_clean(g, 256, l),
                  autoenc.TrainConfig(epochs=3, batch_size=32, seed=7))
    return model, quantize_model(model, g.random((128, l)))


@pytest.mark.parametrize("arch", ["M1", "M2", "M3"])
def test_q_reconstruct_bytes_match_int64_reference(arch):
    l = 32
    _, qm = _trained(arch, l)
    x, halves = _edge_rows(qm, l, 1200, seed=8)
    assert halves.size > 0  # inputs that land exactly on half codes
    got = q_reconstruct(qm, x)
    assert got.tobytes() == _ref_q_reconstruct(qm, x).tobytes()
    for row in (0, 1200, 1210, 1216, 1219, len(x) - 1):
        assert q_reconstruct(qm, x[row]).tobytes() \
            == _ref_q_reconstruct(qm, x[row]).tobytes()


@pytest.mark.parametrize("arch", ["M1", "M2", "M3"])
def test_reloaded_models_match_int64_reference(arch, tmp_path):
    # the inference constants are built with each model, so a container
    # reload and a pickle round trip (run_campaign's path) must carry them
    from attestlab import model_io
    model, qm = _trained(arch)
    model_io.save_container(tmp_path / "m.alm", model=model, qmodel=qm)
    reloaded = [model_io.load_container(tmp_path / "m.alm").qmodel,
                pickle.loads(pickle.dumps(qm))]
    x, _ = _edge_rows(qm, 32, 300, seed=9)
    want = _ref_q_reconstruct(qm, x)
    for other in reloaded:
        assert other is not qm
        assert q_reconstruct(other, x).tobytes() == want.tobytes()
        for row in (0, 150, 305, len(x) - 1):
            assert q_reconstruct(other, x[row]).tobytes() \
                == want[row].tobytes()


def test_q_reconstruct_output_has_no_negative_zero():
    # rounding leaves -0.0 on codes reached from below the zero point;
    # equal in value, but the output bytes must match the integer path
    model, qm, calib = _calibrated(l=32, n=256)
    out = q_reconstruct(qm, calib)
    assert np.any(out == 0.0)
    assert not np.any(np.signbit(out) & (out == 0.0))


def test_round_half_away_matches_sign_floor_form():
    g = np.random.default_rng(3)
    x = np.concatenate([np.arange(-600, 601) / 4.0, 1e3 * g.standard_normal(
        1000), [0.49999999999999994, -0.49999999999999994, 2.0 ** 52 + 1,
                -(2.0 ** 52 + 1), 1e300, -1e300]])
    assert np.array_equal(round_half_away(x), _ref_round_half_away(x))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_q_reconstruct_rejects_non_finite_input(bad):
    _, qm, calib = _calibrated()
    x = calib[:3].copy()
    x[1, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        q_reconstruct(qm, x)
    with pytest.raises(ValueError, match="non-finite"):
        q_reconstruct(qm, x[1])
