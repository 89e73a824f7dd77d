"""Denoising autoencoders trained from scratch with numpy.

Three architectures share one interface:
  M1  dense l -> 8(relu) -> dropout -> l(linear)
  M2  dense l -> 8(relu) -> 8(relu) -> dropout -> l(linear)
  M3  conv(16,w3,relu) -> pool2 -> conv(8,w3,relu) -> pool2 -> flatten
      -> dense 8(relu) -> dropout -> dense l(linear)

Training minimizes mean squared reconstruction error of clean targets from
noisy inputs with Adam. Dropout is inverted (scaled at train time) so
inference needs no rescaling. All gradients are analytic; see the tests for
the finite-difference checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ARCHS = ("M1", "M2", "M3")


class TrainingDiverged(RuntimeError):
    pass


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "linear":
        return z
    raise ValueError("unknown activation: %r" % name)


def _act_backward(name: str, z: np.ndarray, dout: np.ndarray) -> np.ndarray:
    if name == "relu":
        return dout * (z > 0.0)
    if name == "linear":
        return dout
    raise ValueError("unknown activation: %r" % name)


def im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Zero same-padded width-k windows of (n, length[, c]) input, as
    (n, length, k * c) rows; 2-D input is read as one channel."""
    if x.ndim == 2:
        x = x[:, :, None]
    pad = (k - 1) // 2
    n, length, c = x.shape
    xp = np.zeros((n, length + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + length, :] = x
    cols = np.stack([xp[:, i:i + length, :] for i in range(k)], axis=2)
    return cols.reshape(n, length, k * c)


class DenseLayer:
    """Affine map over the last axis, then the activation."""

    kind = "dense"

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.activation = activation

    def forward(self, x):
        z = x @ self.w.reshape(-1, self.w.shape[-1]) + self.b
        return _act(self.activation, z), (x, z)

    def backward(self, dout, cache, need_dx=True):
        x, z = cache
        dz = _act_backward(self.activation, z, dout)
        w = self.w.reshape(-1, self.w.shape[-1])
        x_rows, dz_rows = x.reshape(-1, w.shape[0]), dz.reshape(-1, w.shape[1])
        grads = {"w": (x_rows.T @ dz_rows).reshape(self.w.shape),
                 "b": dz_rows.sum(axis=0)}
        return (dz @ w.T if need_dx else None), grads

    def params(self):
        return {"w": self.w, "b": self.b}


class Conv1dLayer(DenseLayer):
    """1-D convolution, stride 1, zero same-padding, odd filter width: the
    dense map of its (k, c_in, c_out) weights on im2col windows."""

    kind = "conv"

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str):
        super().__init__(w, b, activation)
        if self.w.shape[0] % 2 == 0:
            raise ValueError("filter width must be odd for same padding")

    def forward(self, x):
        return super().forward(im2col(x, self.w.shape[0]))

    def backward(self, dout, cache, need_dx=True):
        dcols, grads = super().backward(dout, cache, need_dx)
        if not need_dx:
            return None, grads
        k = self.w.shape[0]
        pad = (k - 1) // 2
        n, length, _ = dcols.shape
        dcols = dcols.reshape(n, length, k, -1)
        dxp = np.zeros((n, length + 2 * pad, dcols.shape[3]),
                       dtype=dcols.dtype)
        for i in range(k):
            dxp[:, i:i + length, :] += dcols[:, :, i, :]
        return dxp[:, pad:pad + length, :], grads


class MaxPool1dLayer:
    kind = "pool"

    def __init__(self, width: int = 2):
        self.width = int(width)

    def forward(self, x):
        n, length, c = x.shape
        if length % self.width != 0:
            raise ValueError("pool input length %d not divisible by %d"
                             % (length, self.width))
        return x.reshape(n, length // self.width, self.width, c) \
            .max(axis=2), (x,)

    def backward(self, dout, cache, need_dx=True):
        x, = cache
        n, length, c = x.shape
        view = x.reshape(n, length // self.width, self.width, c)
        dview = np.zeros(view.shape, dtype=dout.dtype)
        grid = np.ogrid[:n, :length // self.width, :c]
        dview[grid[0], grid[1], view.argmax(axis=2), grid[2]] = dout
        return dview.reshape(x.shape), {}

    def params(self):
        return {}


class FlattenLayer:
    kind = "flatten"

    def forward(self, x):
        n = x.shape[0]
        return x.reshape(n, -1), (x.shape,)

    def backward(self, dout, cache, need_dx=True):
        return dout.reshape(cache[0]), {}

    def params(self):
        return {}


@dataclass
class TrainMeta:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int
    final_train_mse: float
    loss_history: list = field(default_factory=list)


@dataclass
class AutoencoderModel:
    arch: str
    input_dim: int
    layers: list
    dropout_rate: float = 0.2
    dropout_after: int = -1  # layer index; -1 disables dropout
    train_meta: TrainMeta | None = None


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-7
    seed: int = 0


def _glorot(g: np.random.Generator, shape, fan_in, fan_out) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return g.uniform(-limit, limit, size=shape)


def init_model(arch: str, input_dim: int, seed: int = 0,
               dropout_rate: float = 0.2) -> AutoencoderModel:
    """Glorot-uniform weights, zero biases; deterministic per seed."""
    if arch not in ARCHS:
        raise ValueError("arch must be one of %s" % (ARCHS,))
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")
    g = np.random.default_rng(seed)
    l = input_dim

    def dense(n_in, n_out, act):
        return DenseLayer(_glorot(g, (n_in, n_out), n_in, n_out),
                          np.zeros(n_out), act)

    def conv(k, c_in, c_out, act):
        return Conv1dLayer(_glorot(g, (k, c_in, c_out), k * c_in, k * c_out),
                           np.zeros(c_out), act)

    if arch == "M1":
        layers = [dense(l, 8, "relu"), dense(8, l, "linear")]
        drop_after = 0
    elif arch == "M2":
        layers = [dense(l, 8, "relu"), dense(8, 8, "relu"),
                  dense(8, l, "linear")]
        drop_after = 1
    else:
        if l % 4 != 0:
            raise ValueError("M3 needs input_dim divisible by 4")
        layers = [conv(3, 1, 16, "relu"), MaxPool1dLayer(2),
                  conv(3, 16, 8, "relu"), MaxPool1dLayer(2), FlattenLayer(),
                  dense(8 * (l // 4), 8, "relu"), dense(8, l, "linear")]
        drop_after = 5
    return AutoencoderModel(arch=arch, input_dim=l, layers=layers,
                            dropout_rate=dropout_rate,
                            dropout_after=drop_after)


def _forward(model: AutoencoderModel, x: np.ndarray, train_mode: bool,
             dropout_rng: np.random.Generator | None):
    """Returns (output, caches, dropout_mask)."""
    h = x
    caches = []
    mask = None
    for i, layer in enumerate(model.layers):
        h, cache = layer.forward(h)
        caches.append(cache)
        if train_mode and i == model.dropout_after and model.dropout_rate > 0:
            keep = 1.0 - model.dropout_rate
            mask = (dropout_rng.random(h.shape) < keep) / keep
            h = h * mask
    return h, caches, mask


def _backward(model: AutoencoderModel, caches, dout, mask):
    """Per-layer parameter gradients; the input gradient of layer 0, which
    nothing reads, is never formed."""
    grads = [None] * len(model.layers)
    g = dout
    for i in range(len(model.layers) - 1, -1, -1):
        if mask is not None and i == model.dropout_after:
            g = g * mask
        g, grads[i] = model.layers[i].backward(g, caches[i], need_dx=i > 0)
    return grads


def reconstruct(model: AutoencoderModel, x) -> np.ndarray:
    """Inference pass (no dropout). Accepts (l,) or (n, l)."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != model.input_dim:
        raise ValueError("expected %d features, got %d"
                         % (model.input_dim, arr.shape[1]))
    out, _, _ = _forward(model, arr, train_mode=False, dropout_rng=None)
    return out[0] if single else out


def reconstruction_error(x, x_hat):
    """Mean squared error; per-sample vector for 2-D inputs."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x_hat, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("shape mismatch: %s vs %s" % (a.shape, b.shape))
    se = (a - b) ** 2
    return se.mean(axis=-1) if a.ndim == 2 else float(se.mean())


def loss_and_grads(model: AutoencoderModel, x: np.ndarray, y: np.ndarray,
                   train_mode: bool = False,
                   dropout_rng: np.random.Generator | None = None):
    """MSE loss over the batch plus analytic per-layer parameter gradients."""
    out, caches, mask = _forward(model, x, train_mode, dropout_rng)
    diff = out - y
    loss = float((diff ** 2).mean())
    dout = 2.0 * diff / diff.size
    grads = _backward(model, caches, dout, mask)
    return loss, grads


def train(model: AutoencoderModel, x_noisy: np.ndarray, x_clean: np.ndarray,
          cfg: TrainConfig = TrainConfig()) -> AutoencoderModel:
    """Adam training with seeded epoch shuffles; mutates model in place.

    Afterwards every layer's `w` and `b` are views of one contiguous
    float64 parameter buffer.
    """
    x_noisy = np.asarray(x_noisy, dtype=np.float64)
    x_clean = np.asarray(x_clean, dtype=np.float64)
    if x_noisy.shape != x_clean.shape or x_noisy.ndim != 2:
        raise ValueError("training inputs must be matching (n, l) matrices")
    if x_noisy.shape[1] != model.input_dim:
        raise ValueError("feature width does not match model input_dim")
    if cfg.epochs < 1 or cfg.batch_size < 1 or cfg.learning_rate <= 0:
        raise ValueError("bad training configuration")

    shuffle_rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng((cfg.seed, 0x5eed))
    n = len(x_noisy)

    # Adam is elementwise, so one update over flat buffers of parameters,
    # gradients and moments does the per-parameter work in one pass
    slots = [(i, name) for i, layer in enumerate(model.layers)
             for name in layer.params()]
    theta = np.concatenate([getattr(model.layers[i], name).ravel()
                            for i, name in slots])
    off = 0
    for i, name in slots:
        layer = model.layers[i]
        p = getattr(layer, name)
        setattr(layer, name, theta[off:off + p.size].reshape(p.shape))
        off += p.size
    grad, m, v = (np.zeros_like(theta) for _ in range(3))
    b1, b2 = cfg.beta1, cfg.beta2

    step = 0
    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, grads = loss_and_grads(model, x_noisy[idx], x_clean[idx],
                                         train_mode=True,
                                         dropout_rng=dropout_rng)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    "loss became non-finite at epoch %d; lower the learning "
                    "rate (current %g) or reduce the noise factor"
                    % (epoch + 1, cfg.learning_rate))
            epoch_loss += loss
            batches += 1
            step += 1
            np.concatenate([grads[i][name].ravel() for i, name in slots],
                           out=grad)
            # the per-parameter update's operations, in the same order
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            theta -= cfg.learning_rate * (m / (1 - b1 ** step)) \
                / (np.sqrt(v / (1 - b2 ** step)) + cfg.adam_eps)
        history.append(epoch_loss / max(batches, 1))

    final = float(np.mean(reconstruction_error(
        x_clean, reconstruct(model, x_noisy))))
    model.train_meta = TrainMeta(epochs=cfg.epochs, batch_size=cfg.batch_size,
                                 learning_rate=cfg.learning_rate,
                                 seed=cfg.seed, final_train_mse=final,
                                 loss_history=history)
    return model
