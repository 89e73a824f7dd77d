"""Autoencoder: architectures, gradients, training, reconstruction error."""

import numpy as np
import pytest

from attestlab import autoenc
from attestlab.autoenc import (Conv1dLayer, DenseLayer, MaxPool1dLayer,
                               TrainConfig, TrainingDiverged, init_model,
                               reconstruct, reconstruction_error, train)


def _data(n, l, seed=0):
    g = np.random.default_rng(seed)
    clean = g.random((n, l))
    noisy = clean + 0.05 * g.random((n, l))
    return noisy, clean


# ---------------------------------------------------------------------------
# construction

def test_m1_shapes():
    m = init_model("M1", 512, seed=1)
    assert [layer.w.shape for layer in m.layers] == [(512, 8), (8, 512)]
    assert [layer.activation for layer in m.layers] == ["relu", "linear"]
    assert m.dropout_after == 0
    assert np.all(m.layers[0].b == 0.0)


def test_m2_shapes():
    m = init_model("M2", 128, seed=1)
    assert [layer.w.shape for layer in m.layers] \
        == [(128, 8), (8, 8), (8, 128)]
    assert m.dropout_after == 1


def test_m3_shapes():
    m = init_model("M3", 128, seed=1)
    assert [layer.kind for layer in m.layers] \
        == ["conv", "pool", "conv", "pool", "flatten", "dense", "dense"]
    assert m.layers[0].w.shape == (3, 1, 16)
    assert m.layers[2].w.shape == (3, 16, 8)
    assert m.layers[5].w.shape == (8 * 32, 8)
    assert m.layers[6].w.shape == (8, 128)
    assert m.dropout_after == 5
    out = reconstruct(m, np.zeros((3, 128)))
    assert out.shape == (3, 128)


def test_init_model_deterministic():
    a = init_model("M2", 16, seed=5)
    b = init_model("M2", 16, seed=5)
    c = init_model("M2", 16, seed=6)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)


def test_init_model_validation():
    with pytest.raises(ValueError):
        init_model("M7", 16)
    with pytest.raises(ValueError):
        init_model("M1", 0)
    with pytest.raises(ValueError):
        init_model("M1", 16, dropout_rate=1.0)
    with pytest.raises(ValueError):
        init_model("M3", 6)  # conv stack needs a multiple of 4


# ---------------------------------------------------------------------------
# layer-level oracles

def test_dense_zero_weights_pass_bias_through():
    layer = DenseLayer(np.zeros((3, 2)), np.array([1.5, -2.0]), "linear")
    out, _ = layer.forward(np.ones((4, 3)))
    assert np.allclose(out, [1.5, -2.0])


def test_relu_clamps_negative_preactivations():
    layer = DenseLayer(np.zeros((2, 2)), np.array([-1.0, 3.0]), "relu")
    out, _ = layer.forward(np.ones((1, 2)))
    assert np.allclose(out, [0.0, 3.0])


def test_conv_center_tap_is_identity():
    w = np.zeros((3, 1, 1))
    w[1, 0, 0] = 1.0
    layer = Conv1dLayer(w, np.zeros(1), "linear")
    x = np.arange(6, dtype=np.float64).reshape(1, 6, 1)
    out, _ = layer.forward(x)
    assert np.allclose(out, x)


def test_conv_left_tap_shifts_with_zero_padding():
    w = np.zeros((3, 1, 1))
    w[0, 0, 0] = 1.0  # reads x[t-1]
    layer = Conv1dLayer(w, np.zeros(1), "linear")
    x = np.array([[1.0, 2.0, 3.0, 4.0]]).reshape(1, 4, 1)
    out, _ = layer.forward(x)
    assert np.allclose(out[0, :, 0], [0.0, 1.0, 2.0, 3.0])


def test_conv_rejects_even_filter_width():
    with pytest.raises(ValueError):
        Conv1dLayer(np.zeros((2, 1, 1)), np.zeros(1), "linear")


def test_maxpool_forward_and_routing():
    layer = MaxPool1dLayer(2)
    x = np.array([[1.0, 3.0, 2.0, 0.0]]).reshape(1, 4, 1)
    out, cache = layer.forward(x)
    assert np.allclose(out[0, :, 0], [3.0, 2.0])
    dout = np.array([[5.0, 7.0]]).reshape(1, 2, 1)
    dx, _ = layer.backward(dout, cache)
    assert np.allclose(dx[0, :, 0], [0.0, 5.0, 7.0, 0.0])


def test_maxpool_rejects_indivisible_length():
    with pytest.raises(ValueError):
        MaxPool1dLayer(2).forward(np.zeros((1, 5, 1)))


# ---------------------------------------------------------------------------
# reconstruction error

def test_reconstruction_error_oracles():
    assert reconstruction_error([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert reconstruction_error([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert reconstruction_error([0.5, 0.5], [0.25, 0.75]) \
        == pytest.approx(0.0625)


def test_reconstruction_error_per_sample_for_batches():
    x = np.array([[0.0, 0.0], [0.5, 0.5]])
    y = np.array([[1.0, 1.0], [0.25, 0.75]])
    out = reconstruction_error(x, y)
    assert out.shape == (2,)
    assert np.allclose(out, [1.0, 0.0625])


def test_reconstruction_error_shape_mismatch():
    with pytest.raises(ValueError):
        reconstruction_error([0.0, 0.0], [0.0, 0.0, 0.0])


def test_reconstruct_accepts_vector_and_matrix():
    m = init_model("M1", 8, seed=2)
    vec = reconstruct(m, np.zeros(8))
    mat = reconstruct(m, np.zeros((5, 8)))
    assert vec.shape == (8,)
    assert mat.shape == (5, 8)
    assert np.allclose(mat[0], vec)
    with pytest.raises(ValueError):
        reconstruct(m, np.zeros(9))


def test_zeroed_model_reconstructs_zero():
    m = init_model("M1", 8, seed=2)
    for layer in m.layers:
        layer.w[:] = 0.0
        layer.b[:] = 0.0
    x = np.random.default_rng(0).random((3, 8))
    assert np.allclose(reconstruct(m, x), 0.0)
    assert np.allclose(reconstruction_error(x, reconstruct(m, x)),
                       (x ** 2).mean(axis=1))


# ---------------------------------------------------------------------------
# gradients

@pytest.mark.parametrize("arch", ["M1", "M2", "M3"])
def test_analytic_gradients_match_finite_differences(arch, gradcheck):
    model = init_model(arch, 8, seed=3)
    noisy, clean = _data(4, 8, seed=4)
    assert gradcheck(model, noisy, clean, step=1e-4) < 1e-3


def test_gradients_follow_dropout_mask():
    # with the mask applied, gradients of dropped units are exactly zero
    model = init_model("M1", 8, seed=3, dropout_rate=0.5)
    noisy, clean = _data(4, 8, seed=4)
    rng = np.random.default_rng(9)
    _, grads = autoenc.loss_and_grads(model, noisy, clean, train_mode=True,
                                      dropout_rng=rng)
    out, caches, mask = autoenc._forward(model, noisy,
                                         train_mode=True,
                                         dropout_rng=np.random.default_rng(9))
    dead_cols = np.all(mask == 0.0, axis=0)
    assert np.all(grads[1]["w"][dead_cols, :] == 0.0)


# ---------------------------------------------------------------------------
# dropout semantics

def test_inference_never_applies_dropout():
    m = init_model("M1", 8, seed=2, dropout_rate=0.9)
    x = np.random.default_rng(1).random((2, 8))
    assert np.array_equal(reconstruct(m, x), reconstruct(m, x))


def test_inverted_dropout_preserves_expectation():
    # M1's output layer is linear in the masked activations, so averaging
    # train-mode outputs over many masks recovers the inference output
    m = init_model("M1", 8, seed=2, dropout_rate=0.5)
    x = np.random.default_rng(1).random((1, 8))
    rng = np.random.default_rng(7)
    total = np.zeros((1, 8))
    n = 4000
    for _ in range(n):
        out, _, _ = autoenc._forward(m, x, train_mode=True, dropout_rng=rng)
        total += out
    clean = reconstruct(m, x)
    scale = np.abs(clean).mean()
    assert np.abs(total / n - clean).max() < 0.02 * max(scale, 1.0)


def test_train_mode_without_dropout_matches_inference():
    m = init_model("M1", 8, seed=2, dropout_rate=0.0)
    x = np.random.default_rng(1).random((2, 8))
    out, _, mask = autoenc._forward(m, x, train_mode=True,
                                    dropout_rng=np.random.default_rng(0))
    assert mask is None
    assert np.allclose(out, reconstruct(m, x))


# ---------------------------------------------------------------------------
# training

def _low_rank_data(n, l, seed):
    # targets spanning a 3-dim subspace, well within the 8-unit bottleneck
    g = np.random.default_rng(seed)
    clean = g.random((n, 3)) @ (g.random((3, l)) / 3)
    noisy = clean + 0.05 * g.random((n, l))
    return noisy, clean


def _trained_pair(arch="M1", seed=3):
    noisy, clean = _low_rank_data(64, 16, seed=11)
    model = init_model(arch, 16, seed=seed)
    cfg = TrainConfig(epochs=60, batch_size=16, learning_rate=0.01, seed=seed)
    return train(model, noisy, clean, cfg), (noisy, clean)


def test_train_reduces_error_and_records_meta():
    untrained = init_model("M1", 16, seed=3)
    model, (noisy, clean) = _trained_pair()
    before = float(np.mean(reconstruction_error(
        clean, reconstruct(untrained, noisy))))
    after = model.train_meta.final_train_mse
    assert after < before
    assert after < 0.01
    assert model.train_meta.epochs == 60
    assert len(model.train_meta.loss_history) == 60
    first, last = model.train_meta.loss_history[:10], \
        model.train_meta.loss_history[-10:]
    assert np.mean(last) < np.mean(first)


def test_train_is_deterministic():
    a, _ = _trained_pair(seed=5)
    b, _ = _trained_pair(seed=5)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)
        assert np.array_equal(la.b, lb.b)
    assert a.train_meta.loss_history == b.train_meta.loss_history


def test_train_diverges_loudly_on_non_finite_loss():
    noisy, clean = _data(16, 8, seed=0)
    noisy[0, 0] = np.nan
    model = init_model("M1", 8, seed=0)
    with pytest.raises(TrainingDiverged, match="learning"):
        train(model, noisy, clean, TrainConfig(epochs=1, batch_size=16))


def test_train_validates_inputs():
    noisy, clean = _data(16, 8, seed=0)
    model = init_model("M1", 8, seed=0)
    with pytest.raises(ValueError):
        train(model, noisy, clean[:8], TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(model, noisy[:, :4], clean[:, :4], TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(model, noisy, clean, TrainConfig(epochs=0))


# ---------------------------------------------------------------------------
# flat Adam, against the per-parameter reference

def _ref_backward(model, caches, dout, mask):
    """Backward pass as it ran before layer 0's input gradient was skipped:
    every dense/conv input gradient formed, activations through 0/1 masks."""
    grads = [None] * len(model.layers)
    g = dout
    for i in range(len(model.layers) - 1, -1, -1):
        if mask is not None and i == model.dropout_after:
            g = g * mask
        layer = model.layers[i]
        if not layer.params():
            g, grads[i] = layer.backward(g, caches[i])
            continue
        x, z = caches[i]
        act = (z > 0.0).astype(z.dtype) if layer.activation == "relu" \
            else np.ones_like(z)
        dz = g * act
        w = layer.w.reshape(-1, layer.w.shape[-1])
        x_rows, dz_rows = x.reshape(-1, w.shape[0]), dz.reshape(-1, w.shape[1])
        grads[i] = {"w": (x_rows.T @ dz_rows).reshape(layer.w.shape),
                    "b": dz_rows.sum(axis=0)}
        g = dz @ w.T
        if layer.kind == "conv":
            k = layer.w.shape[0]
            pad = (k - 1) // 2
            n, length, _ = g.shape
            dcols = g.reshape(n, length, k, -1)
            dxp = np.zeros((n, length + 2 * pad, dcols.shape[3]))
            for t in range(k):
                dxp[:, t:t + length, :] += dcols[:, :, t, :]
            g = dxp[:, pad:pad + length, :]
    return grads


def _ref_train(model, x_noisy, x_clean, cfg):
    """Adam with one moment array per parameter, as training ran before the
    flat buffers; the oracle the flat update must match bit for bit."""
    shuffle_rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng((cfg.seed, 0x5eed))
    n = len(x_noisy)
    m_state, v_state = {}, {}
    for i, layer in enumerate(model.layers):
        for name, p in layer.params().items():
            m_state[(i, name)] = np.zeros_like(p)
            v_state[(i, name)] = np.zeros_like(p)
    step = 0
    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            out, caches, mask = autoenc._forward(model, x_noisy[idx], True,
                                                 dropout_rng)
            diff = out - x_clean[idx]
            loss = float((diff ** 2).mean())
            grads = _ref_backward(model, caches, 2.0 * diff / diff.size, mask)
            if not np.isfinite(loss):
                raise TrainingDiverged("loss became non-finite at epoch %d"
                                       % (epoch + 1))
            epoch_loss += loss
            batches += 1
            step += 1
            for i, layer in enumerate(model.layers):
                params = layer.params()
                for name, g in grads[i].items():
                    key = (i, name)
                    m_state[key] = cfg.beta1 * m_state[key] \
                        + (1 - cfg.beta1) * g
                    v_state[key] = cfg.beta2 * v_state[key] \
                        + (1 - cfg.beta2) * g * g
                    m_hat = m_state[key] / (1 - cfg.beta1 ** step)
                    v_hat = v_state[key] / (1 - cfg.beta2 ** step)
                    params[name] -= cfg.learning_rate * m_hat \
                        / (np.sqrt(v_hat) + cfg.adam_eps)
        history.append(epoch_loss / max(batches, 1))
    final = float(np.mean(reconstruction_error(x_clean,
                                               reconstruct(model, x_noisy))))
    return history, final


@pytest.mark.parametrize("arch,dropout", [("M1", 0.2), ("M2", 0.2),
                                          ("M3", 0.2), ("M1", 0.0)])
def test_train_bits_match_per_parameter_adam(arch, dropout):
    noisy, clean = _low_rank_data(100, 16, seed=12)
    cfg = TrainConfig(epochs=6, batch_size=16, learning_rate=0.01, seed=4)
    got = train(init_model(arch, 16, seed=4, dropout_rate=dropout),
                noisy, clean, cfg)
    ref = init_model(arch, 16, seed=4, dropout_rate=dropout)
    history, final = _ref_train(ref, noisy, clean, cfg)
    for lg, lr in zip(got.layers, ref.layers):
        for name, p in lr.params().items():
            assert getattr(lg, name).tobytes() == p.tobytes()
    assert got.train_meta.loss_history == history
    assert got.train_meta.final_train_mse == final


@pytest.mark.parametrize("arch", ["M1", "M3"])
def test_first_layer_input_gradient_is_skipped(arch):
    model = init_model(arch, 16, seed=2)
    x = np.random.default_rng(2).random((4, 16))
    out, cache = model.layers[0].forward(x)
    dx, grads = model.layers[0].backward(np.ones_like(out), cache,
                                         need_dx=False)
    full_dx, full = model.layers[0].backward(np.ones_like(out), cache)
    assert dx is None and full_dx.shape[:2] == (4, 16)
    for name in ("w", "b"):
        assert grads[name].tobytes() == full[name].tobytes()


def test_trained_parameters_share_one_buffer():
    model, _ = _trained_pair("M3")
    views = [p for layer in model.layers for p in layer.params().values()]
    base = views[0].base
    assert base is not None and base.ndim == 1
    assert all(p.base is base for p in views)
    assert sum(p.size for p in views) == base.size


def test_huge_learning_rate_diverges_at_the_reference_epoch():
    noisy, clean = _low_rank_data(32, 16, seed=12)
    cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=1e100, seed=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as ref:
            _ref_train(init_model("M1", 16, seed=4), noisy, clean, cfg)
        with pytest.raises(TrainingDiverged) as got:
            train(init_model("M1", 16, seed=4), noisy, clean, cfg)
    epoch = str(ref.value).split("epoch ")[1]
    assert int(epoch) > 1
    assert "at epoch %s;" % epoch in str(got.value)
