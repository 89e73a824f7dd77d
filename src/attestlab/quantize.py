"""Post-training int8 quantization of the autoencoders.

Weights are per-tensor symmetric int8 (zero-point 0, range [-127, 127]);
activations are asymmetric int8 with scale and zero-point calibrated from
forward passes of the float model, ranges widened to include 0 so zero is
exactly representable; biases are int32 at scale input_scale * weight_scale.
Rounding is half-away-from-zero throughout.

Inference carries each activation as its centred code q - zero_point, held
in float64, and accumulates with the float64 matmul. That is exact integer
arithmetic: |code| <= 255 and |weight| <= 127, so a K-input layer's partial
sums stay below 255 * 127 * K + 2**31, under 2**53 for any K below 2.7e11.
Clipping to int8 becomes clipping to [-128 - zp, 127 - zp], and relu is a
lower bound of 0 on the centred code.

Each model's inference constants (a layer's float64 weight matrix and
bias, its requantization multiplier (in_scale * w_scale) / out_scale and
its clip bounds) are built once, when the QuantizedModel is built, so a
batch-1 call pays only for its ufuncs. They are not dataclass fields:
payloads and equality ignore them, and a model's layers are not to be
changed after it is built.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .autoenc import AutoencoderModel, im2col

INT8_MIN, INT8_MAX = -128, 127
INT32_MIN, INT32_MAX = -(2 ** 31), 2 ** 31 - 1


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round halves away from zero (0.5 -> 1, -0.5 -> -1)."""
    return _round_half_away_inplace(np.array(x, dtype=np.float64))


def _round_half_away_inplace(x: np.ndarray) -> np.ndarray:
    # trunc(x + copysign(0.5, x)) is sign(x) * floor(|x| + 0.5): both add
    # 0.5 to |x| with the same rounding; zero may come out as -0.0
    x += np.copysign(0.5, x)
    return np.trunc(x, out=x)


@dataclass(frozen=True)
class ActivationQuant:
    scale: float
    zero_point: int


@dataclass
class QLayer:
    """Int8 affine layer: dense on (in, out) weights, conv on
    (k, c_in, c_out) weights applied to im2col windows."""
    wq: np.ndarray          # int8 (in, out) or (k, c_in, c_out)
    w_scale: float
    bq: np.ndarray          # int32 (out,)
    b_scale: float
    activation: str
    out_q: ActivationQuant

    @property
    def kind(self) -> str:
        return "conv" if self.wq.ndim == 3 else "dense"


@dataclass
class QuantizedModel:
    arch: str
    input_dim: int
    input_q: ActivationQuant
    layers: list            # QLayer, or the float pool/flatten layers
    source_digest: bytes  # sha256 of the float model payload

    def __post_init__(self):
        # q_reconstruct's constants. Per layer: the float layer itself, or
        # (conv width or 0, float64 (in, out) weights, float64 bias,
        # requantization multiplier, clip bounds of the centred code)
        self._input_bounds = _code_bounds(self.input_q, "linear")
        steps = []
        cur = self.input_q
        for layer in self.layers:
            if not isinstance(layer, QLayer):
                steps.append(layer)
                continue
            steps.append((
                layer.wq.shape[0] if layer.kind == "conv" else 0,
                layer.wq.reshape(-1, layer.wq.shape[-1]).astype(np.float64),
                layer.bq.astype(np.float64),
                (cur.scale * layer.w_scale) / layer.out_q.scale,
                *_code_bounds(layer.out_q, layer.activation)))
            cur = layer.out_q
        self._steps = steps
        self._out_scale = cur.scale


def _code_bounds(q: ActivationQuant, activation: str) -> tuple:
    """[lo, hi] of a centred int8 code; relu raises lo to 0."""
    lo = 0 if activation == "relu" else INT8_MIN - q.zero_point
    return float(lo), float(INT8_MAX - q.zero_point)


def _f32(x: float) -> float:
    return float(np.float32(x))


def _weight_scale(w: np.ndarray) -> float:
    m = float(np.max(np.abs(w))) if w.size else 0.0
    return _f32(m / 127.0) if m > 0.0 else 1.0


def _activation_quant(rmin: float, rmax: float) -> ActivationQuant:
    rmin = min(rmin, 0.0)
    rmax = max(rmax, 0.0)
    if rmax - rmin < 1e-12:
        return ActivationQuant(scale=1.0, zero_point=0)
    scale = _f32((rmax - rmin) / 255.0)
    zp = int(np.clip(round_half_away(INT8_MIN - rmin / scale),
                     INT8_MIN, INT8_MAX))
    return ActivationQuant(scale=scale, zero_point=zp)


def _quantize_params(w: np.ndarray, b: np.ndarray, in_scale: float):
    w_scale = _weight_scale(w)
    wq = np.clip(round_half_away(w / w_scale), -127, 127).astype(np.int8)
    b_scale = _f32(in_scale * w_scale)
    bq = np.clip(round_half_away(b / b_scale), INT32_MIN, INT32_MAX) \
        .astype(np.int32)
    return wq, w_scale, bq, b_scale


def quantize_model(model: AutoencoderModel,
                   calibration: np.ndarray) -> QuantizedModel:
    """Calibrate activation ranges on the given samples and quantize."""
    calibration = np.asarray(calibration, dtype=np.float64)
    if calibration.ndim != 2 or len(calibration) == 0:
        raise ValueError("calibration set must be a non-empty (n, l) matrix")
    if calibration.shape[1] != model.input_dim:
        raise ValueError("calibration width does not match model input_dim")
    if not np.isfinite(calibration).all():
        raise ValueError("calibration set contains non-finite values")

    input_q = _activation_quant(float(calibration.min()),
                                float(calibration.max()))
    qlayers = []
    cur = input_q
    h = calibration
    for layer in model.layers:
        h, _ = layer.forward(h)
        if not layer.params():
            qlayers.append(layer)
            continue
        out_q = _activation_quant(float(h.min()), float(h.max()))
        qlayers.append(QLayer(*_quantize_params(layer.w, layer.b, cur.scale),
                              activation=layer.activation, out_q=out_q))
        cur = out_q

    from . import model_io
    digest = hashlib.sha256(model_io.float_payload(model)).digest()
    return QuantizedModel(arch=model.arch, input_dim=model.input_dim,
                          input_q=input_q, layers=qlayers,
                          source_digest=digest)


def _requantize(c: np.ndarray, lo, hi) -> None:
    """Round half away from zero, then clip to [lo, hi], in place."""
    _round_half_away_inplace(c)
    c.clip(lo, hi, out=c)  # np.clip is the same ufunc behind more dispatch


def q_reconstruct(qmodel: QuantizedModel, x) -> np.ndarray:
    """Int8 inference, exact in float64; returns dequantized float output."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != qmodel.input_dim:
        raise ValueError("expected %d features, got %d"
                         % (qmodel.input_dim, arr.shape[1]))
    if not np.isfinite(arr).all():
        raise ValueError("input contains non-finite values")

    c = np.divide(arr, qmodel.input_q.scale)
    _requantize(c, *qmodel._input_bounds)
    for step in qmodel._steps:
        if not isinstance(step, tuple):
            c, _ = step.forward(c)  # max pool commutes with the centring
            continue
        width, w, b, mult, lo, hi = step
        if width:
            c = im2col(c, width)
        c = np.matmul(c, w)
        np.add(c, b, out=c)
        np.multiply(c, mult, out=c)
        _requantize(c, lo, hi)

    out = np.multiply(c, qmodel._out_scale)
    np.add(out, 0.0, out=out)  # -0.0 from the rounding becomes +0.0
    return out[0] if single else out


@dataclass
class SizeReport:
    n_weights: int
    n_biases: int
    float_bytes: int
    quant_bytes: int
    reduction_factor: float


def size_report(model: AutoencoderModel, qmodel: QuantizedModel) -> SizeReport:
    """Serialized parameter payload sizes: float32 params vs int8 weights
    with int32 biases plus scale/zero-point metadata."""
    from . import model_io
    n_w = sum(layer.params().get("w", np.empty(0)).size
              for layer in model.layers)
    n_b = sum(layer.params().get("b", np.empty(0)).size
              for layer in model.layers)
    float_bytes = len(model_io.float_payload(model))
    quant_bytes = len(model_io.quant_payload(qmodel))
    return SizeReport(n_weights=int(n_w), n_biases=int(n_b),
                      float_bytes=float_bytes, quant_bytes=quant_bytes,
                      reduction_factor=float_bytes / quant_bytes)
