"""Binary model container.

Layout (all little-endian):

    magic "LAM1" | u16 format_version | u16 n_sections
    section := u8 tag | u64 payload_len | payload

Section tags: 1 = float model, 2 = quantized model, 3 = calibration record
(UTF-8 key=value lines), 4 = run metadata (UTF-8 key=value lines). Any
other tag is refused, including 5, which containers from an earlier `train`
used for f8 float parameters; evalkit.train_detector rounds the trained
parameters to the f32 values that section 1 stores.

Float payload: arch, input_dim, dropout, optional training metadata, u16
layer count, layer records. Quantized payload: arch, input_dim, sha256 of
the source float payload, input scale and zero-point, u16 layer count, layer
records. Both payloads share one layer record:

    u8 kind (1 dense, 2 conv, 3 pool, 4 flatten), then
      pool:         u32 width
      dense, conv:  u8 activation (0 linear, 1 relu) | u32 x w.ndim shape,
                    (in, out) or (k, c_in, c_out) | parameter blobs
    float blobs:    f32 w, row-major | f32 b
    quant blobs:    i8 w, row-major | f32 w_scale | i32 b | f32 b_scale |
                    f32 output scale | i8 output zero-point

Quantized tensors and scales round-trip bit-identically. A container holding
both models must have a quantized model whose source digest is the sha256 of
its float section.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass, fields

import numpy as np

from .autoenc import (AutoencoderModel, Conv1dLayer, DenseLayer, FlattenLayer,
                      MaxPool1dLayer, TrainMeta)
from .quantize import ActivationQuant, QLayer, QuantizedModel, _f32
from .threshold import CalibrationResult

MAGIC = b"LAM1"
FORMAT_VERSION = 1

SEC_FLOAT = 1
SEC_QUANT = 2
SEC_CALIBRATION = 3
SEC_META = 4

_ARCH_CODE = {"M1": 1, "M2": 2, "M3": 3}
_ARCH_NAME = {v: k for k, v in _ARCH_CODE.items()}
_KIND_CODE = {"dense": 1, "conv": 2, "pool": 3, "flatten": 4}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_ACT_CODE = {"linear": 0, "relu": 1}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


class ContainerError(ValueError):
    pass


def _pack(fmt: str, *vals) -> bytes:
    return struct.pack("<" + fmt, *vals)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize("<" + fmt)
        if self.pos + size > len(self.buf):
            raise ContainerError("truncated container payload")
        vals = struct.unpack_from("<" + fmt, self.buf, self.pos)
        self.pos += size
        return vals if len(vals) > 1 else vals[0]

    def blob(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ContainerError("truncated container payload")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def array(self, dtype, count: int) -> np.ndarray:
        raw = self.blob(count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()


def _act_quant(scale: float, zero_point: int) -> ActivationQuant:
    # inference divides by activation scales; quantize_model makes them > 0
    if not 0.0 < scale < float("inf"):
        raise ContainerError("activation scale %r is not positive and finite"
                             % scale)
    return ActivationQuant(scale=_f32(scale), zero_point=int(zero_point))


def _name(table: dict, code: int, what: str) -> str:
    if code not in table:
        raise ContainerError("unknown %s code %d" % (what, code))
    return table[code]


def _write_layer(out: io.BytesIO, layer) -> None:
    out.write(_pack("B", _KIND_CODE[layer.kind]))
    if isinstance(layer, MaxPool1dLayer):
        out.write(_pack("I", layer.width))
    elif isinstance(layer, QLayer):
        out.write(_pack("B" + "I" * layer.wq.ndim,
                        _ACT_CODE[layer.activation], *layer.wq.shape))
        out.write(np.ascontiguousarray(layer.wq, dtype=np.int8).tobytes())
        out.write(_pack("f", layer.w_scale))
        out.write(np.ascontiguousarray(layer.bq, dtype="<i4").tobytes())
        out.write(_pack("ffb", layer.b_scale, layer.out_q.scale,
                        layer.out_q.zero_point))
    elif layer.params():
        out.write(_pack("B" + "I" * layer.w.ndim,
                        _ACT_CODE[layer.activation], *layer.w.shape))
        out.write(np.ascontiguousarray(layer.w, dtype="<f4").tobytes())
        out.write(np.ascontiguousarray(layer.b, dtype="<f4").tobytes())


def _read_layer(r: _Reader, quant: bool):
    kind = _name(_KIND_NAME, r.take("B"), "layer kind")
    if kind == "pool":
        return MaxPool1dLayer(r.take("I"))
    if kind == "flatten":
        return FlattenLayer()
    act = _name(_ACT_NAME, r.take("B"), "activation")
    shape = r.take("III" if kind == "conv" else "II")
    n_w, n_out = int(np.prod(shape)), shape[-1]
    if quant:
        wq = r.array(np.int8, n_w).reshape(shape)
        w_scale = _f32(r.take("f"))
        bq = r.array("<i4", n_out)
        b_scale, o_scale, o_zp = r.take("ffb")
        return QLayer(wq=wq, w_scale=w_scale, bq=bq, b_scale=_f32(b_scale),
                      activation=act, out_q=_act_quant(o_scale, o_zp))
    w = r.array("<f4", n_w).astype(np.float64).reshape(shape)
    b = r.array("<f4", n_out).astype(np.float64)
    return (Conv1dLayer if kind == "conv" else DenseLayer)(w, b, act)


def float_payload(model: AutoencoderModel) -> bytes:
    out = io.BytesIO()
    out.write(_pack("BIfb", _ARCH_CODE[model.arch], model.input_dim,
                    model.dropout_rate, model.dropout_after))
    meta = model.train_meta
    out.write(_pack("B", 1 if meta is not None else 0))
    if meta is not None:
        out.write(_pack("IIfQd", meta.epochs, meta.batch_size,
                        meta.learning_rate, meta.seed, meta.final_train_mse))
    out.write(_pack("H", len(model.layers)))
    for layer in model.layers:
        _write_layer(out, layer)
    return out.getvalue()


def parse_float_payload(buf: bytes) -> AutoencoderModel:
    r = _Reader(buf)
    arch_code, input_dim, dropout, drop_after = r.take("BIfb")
    arch = _name(_ARCH_NAME, arch_code, "architecture")
    meta = None
    if r.take("B"):
        meta = TrainMeta(*r.take("IIfQd"))
    layers = [_read_layer(r, quant=False) for _ in range(r.take("H"))]
    return AutoencoderModel(arch=arch, input_dim=input_dim,
                            layers=layers, dropout_rate=float(dropout),
                            dropout_after=drop_after, train_meta=meta)


def quant_payload(qmodel: QuantizedModel) -> bytes:
    out = io.BytesIO()
    out.write(_pack("BI", _ARCH_CODE[qmodel.arch], qmodel.input_dim))
    if len(qmodel.source_digest) != 32:
        raise ContainerError("source digest must be 32 bytes")
    out.write(qmodel.source_digest)
    out.write(_pack("fb", qmodel.input_q.scale, qmodel.input_q.zero_point))
    out.write(_pack("H", len(qmodel.layers)))
    for layer in qmodel.layers:
        _write_layer(out, layer)
    return out.getvalue()


def parse_quant_payload(buf: bytes) -> QuantizedModel:
    r = _Reader(buf)
    arch_code, input_dim = r.take("BI")
    digest = r.blob(32)
    in_scale, in_zp = r.take("fb")
    input_q = _act_quant(in_scale, in_zp)
    layers = [_read_layer(r, quant=True) for _ in range(r.take("H"))]
    return QuantizedModel(arch=_name(_ARCH_NAME, arch_code, "architecture"),
                          input_dim=input_dim,
                          input_q=input_q, layers=layers,
                          source_digest=digest)


def _kv_text(pairs: dict) -> bytes:
    lines = ["%s=%s" % (k, v) for k, v in pairs.items()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_kv_text(buf: bytes) -> dict:
    out = {}
    for line in buf.decode("utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ContainerError("bad key=value line: %r" % line)
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


# text of a calibration value, and its parse, by the field's declared type
_FIELD_TEXT = {"float": repr, "int": int, "bool": int}
_FIELD_PARSE = {"float": float, "int": int, "bool": lambda v: bool(int(v))}


def calibration_payload(result: CalibrationResult) -> bytes:
    return _kv_text({f.name: _FIELD_TEXT[f.type](getattr(result, f.name))
                     for f in fields(CalibrationResult)})


def parse_calibration_payload(buf: bytes) -> CalibrationResult:
    d = _parse_kv_text(buf)
    try:
        return CalibrationResult(**{f.name: _FIELD_PARSE[f.type](d[f.name])
                                    for f in fields(CalibrationResult)})
    except KeyError as e:
        raise ContainerError("calibration record missing %s" % e) from None


@dataclass
class Container:
    model: AutoencoderModel | None = None
    qmodel: QuantizedModel | None = None
    calibration: CalibrationResult | None = None
    meta: dict | None = None


def container_bytes(model: AutoencoderModel | None = None,
                    qmodel: QuantizedModel | None = None,
                    calibration: CalibrationResult | None = None,
                    meta: dict | None = None) -> bytes:
    sections = []
    if model is not None:
        sections.append((SEC_FLOAT, float_payload(model)))
    if qmodel is not None:
        sections.append((SEC_QUANT, quant_payload(qmodel)))
    if calibration is not None:
        sections.append((SEC_CALIBRATION, calibration_payload(calibration)))
    if meta is not None:
        sections.append((SEC_META, _kv_text(meta)))
    if not sections:
        raise ContainerError("refusing to write an empty container")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_pack("HH", FORMAT_VERSION, len(sections)))
    for tag, payload in sections:
        out.write(_pack("BQ", tag, len(payload)))
        out.write(payload)
    return out.getvalue()


def parse_container(buf: bytes) -> Container:
    if buf[:4] != MAGIC:
        raise ContainerError("not a model container (bad magic)")
    r = _Reader(buf[4:])
    version, n_sections = r.take("HH")
    if version != FORMAT_VERSION:
        raise ContainerError("unsupported container version %d" % version)
    c = Container()
    float_digest = None
    for _ in range(n_sections):
        tag, length = r.take("BQ")
        payload = r.blob(length)
        if tag == SEC_FLOAT:
            c.model = parse_float_payload(payload)
            float_digest = hashlib.sha256(payload).digest()
        elif tag == SEC_QUANT:
            c.qmodel = parse_quant_payload(payload)
        elif tag == SEC_CALIBRATION:
            c.calibration = parse_calibration_payload(payload)
        elif tag == SEC_META:
            c.meta = _parse_kv_text(payload)
        else:
            raise ContainerError("unknown section tag %d" % tag)
    if c.qmodel is not None and float_digest is not None \
            and c.qmodel.source_digest != float_digest:
        raise ContainerError("quantized model was not made from the float "
                             "model in this container (source digest "
                             "mismatch)")
    return c


def save_container(path, **kwargs) -> None:
    data = container_bytes(**kwargs)
    with open(path, "wb") as f:
        f.write(data)


def load_container(path) -> Container:
    with open(path, "rb") as f:
        return parse_container(f.read())
