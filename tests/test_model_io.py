"""Model container: payload round trips and corruption handling."""

import hashlib
import struct

import numpy as np
import pytest

from attestlab import model_io, quantize, threshold
from attestlab.autoenc import TrainConfig, init_model, train
from attestlab.model_io import ContainerError


def _float_model(arch="M1", l=16, trained=False):
    model = init_model(arch, l, seed=3)
    if trained:
        g = np.random.default_rng(0)
        clean = g.random((32, l))
        train(model, clean + 0.05 * g.random((32, l)), clean,
              TrainConfig(epochs=2, batch_size=16))
    return model


def _quant_model(arch="M1", l=16):
    model = _float_model(arch, l)
    calib = np.random.default_rng(1).random((32, l))
    return model, quantize.quantize_model(model, calib)


# ---------------------------------------------------------------------------
# float payload

@pytest.mark.parametrize("arch", ["M1", "M2", "M3"])
def test_float_roundtrip_is_float32_cast(arch):
    model = _float_model(arch)
    loaded = model_io.parse_float_payload(model_io.float_payload(model))
    assert loaded.arch == model.arch
    assert loaded.input_dim == model.input_dim
    assert loaded.dropout_after == model.dropout_after
    assert loaded.dropout_rate == float(np.float32(model.dropout_rate))
    assert len(loaded.layers) == len(model.layers)
    for la, lb in zip(loaded.layers, model.layers):
        assert la.kind == lb.kind
        if la.kind in ("dense", "conv"):
            assert la.activation == lb.activation
            assert np.array_equal(la.w, lb.w.astype(np.float32))
            assert np.array_equal(la.b, lb.b.astype(np.float32))
        elif la.kind == "pool":
            assert la.width == lb.width


def test_float_roundtrip_preserves_train_meta():
    model = _float_model(trained=True)
    loaded = model_io.parse_float_payload(model_io.float_payload(model))
    meta = loaded.train_meta
    assert meta.epochs == 2
    assert meta.batch_size == 16
    assert meta.seed == model.train_meta.seed
    assert meta.learning_rate \
        == float(np.float32(model.train_meta.learning_rate))
    assert meta.final_train_mse == model.train_meta.final_train_mse
    assert meta.loss_history == []  # history is not part of the wire format


def test_float_payload_stable_after_one_save():
    # a reloaded model re-serializes to the identical byte string
    model = _float_model("M3")
    payload = model_io.float_payload(model)
    loaded = model_io.parse_float_payload(payload)
    assert model_io.float_payload(loaded) == payload


def test_float_payload_rejects_unknown_arch_code():
    payload = bytearray(model_io.float_payload(_float_model()))
    payload[0] = 99
    with pytest.raises(ContainerError, match="architecture"):
        model_io.parse_float_payload(bytes(payload))


# ---------------------------------------------------------------------------
# layer records

# float payload header: arch, input_dim, dropout, no training metadata and
# the layer count; quant payload header: arch, input_dim, source digest,
# input scale and zero-point and the layer count
FIRST_LAYER_OFFSET = {"float": 13, "quant": 44}


def _payload(which):
    model, qm = _quant_model()
    return model_io.float_payload(model) if which == "float" \
        else model_io.quant_payload(qm)


def _parse(which, buf):
    parse = model_io.parse_float_payload if which == "float" \
        else model_io.parse_quant_payload
    return parse(bytes(buf))


@pytest.mark.parametrize("which", ["float", "quant"])
def test_layer_record_layout(which):
    # kind code, activation code, then one u32 per weight dimension
    buf = _payload(which)
    off = FIRST_LAYER_OFFSET[which]
    assert struct.unpack_from("<H", buf, off - 2)[0] == 2
    assert struct.unpack_from("<BBII", buf, off) == (1, 1, 16, 8)


@pytest.mark.parametrize("which", ["float", "quant"])
@pytest.mark.parametrize("field,what", [(0, "layer kind"), (1, "activation")])
def test_payload_rejects_unknown_layer_codes(which, field, what):
    buf = bytearray(_payload(which))
    buf[FIRST_LAYER_OFFSET[which] + field] = 99
    with pytest.raises(ContainerError, match="unknown %s code 99" % what):
        _parse(which, buf)


def test_quant_payload_rejects_unknown_arch_code():
    buf = bytearray(_payload("quant"))
    buf[0] = 99
    with pytest.raises(ContainerError, match="architecture"):
        _parse("quant", buf)


@pytest.mark.parametrize("where", ["input", "layer"])
@pytest.mark.parametrize("scale", [0.0, -0.5, float("nan"), float("inf")])
def test_quant_payload_rejects_unusable_activation_scale(where, scale):
    # inference divides by every activation scale
    _, qm = _quant_model()
    bad = quantize.ActivationQuant(scale=scale, zero_point=0)
    if where == "input":
        qm.input_q = bad
    else:
        qm.layers[0].out_q = bad
    with pytest.raises(ContainerError, match="activation scale"):
        model_io.parse_quant_payload(model_io.quant_payload(qm))


# ---------------------------------------------------------------------------
# quant payload

@pytest.mark.parametrize("arch", ["M1", "M3"])
def test_quant_roundtrip_bit_identical(arch):
    _, qm = _quant_model(arch)
    loaded = model_io.parse_quant_payload(model_io.quant_payload(qm))
    assert loaded.arch == qm.arch
    assert loaded.input_dim == qm.input_dim
    assert loaded.input_q == qm.input_q
    assert loaded.source_digest == qm.source_digest
    for la, lb in zip(loaded.layers, qm.layers):
        assert la.kind == lb.kind
        if la.kind in ("dense", "conv"):
            assert np.array_equal(la.wq, lb.wq)
            assert la.wq.dtype == np.int8
            assert np.array_equal(la.bq, lb.bq)
            assert la.bq.dtype == np.int32
            assert la.w_scale == lb.w_scale
            assert la.b_scale == lb.b_scale
            assert la.out_q == lb.out_q
    assert model_io.quant_payload(loaded) == model_io.quant_payload(qm)


def test_quant_outputs_identical_after_reload():
    _, qm = _quant_model()
    loaded = model_io.parse_quant_payload(model_io.quant_payload(qm))
    x = np.random.default_rng(2).random((8, 16))
    assert np.array_equal(quantize.q_reconstruct(loaded, x),
                          quantize.q_reconstruct(qm, x))


def test_quant_payload_rejects_bad_digest():
    _, qm = _quant_model()
    qm.source_digest = b"short"
    with pytest.raises(ContainerError, match="digest"):
        model_io.quant_payload(qm)


# ---------------------------------------------------------------------------
# calibration and metadata payloads

def test_calibration_roundtrip_exact():
    errs = np.random.default_rng(0).random(500)
    result = threshold.calibrate(errs)
    loaded = model_io.parse_calibration_payload(
        model_io.calibration_payload(result))
    assert loaded == result  # repr round trip keeps every float bit


def test_calibration_payload_text_of_fallback_record():
    # 20 evenly spaced errors: no threshold reaches 0.99 within tolerance,
    # so the search falls back to the achievable 0.95 (exact=0)
    result = threshold.calibrate(np.arange(1, 21) / 8.0)
    text = (b"gamma=0.039895013123359475\np95=2.38125\np99=2.47625\n"
            b"tnr_target=0.99\nt_opt=2.5\nachieved_tnr=0.95\nexact=0\n"
            b"n_val=20\niterations=64\n")
    assert model_io.calibration_payload(result) == text
    assert model_io.parse_calibration_payload(text) == result


def test_calibration_payload_missing_key():
    with pytest.raises(ContainerError, match="missing"):
        model_io.parse_calibration_payload(b"gamma=0.5\n")


def test_meta_roundtrip_stringifies_values():
    blob = model_io._kv_text({"seed": 7, "note": "run a"})
    assert model_io._parse_kv_text(blob) == {"seed": "7", "note": "run a"}
    with pytest.raises(ContainerError):
        model_io._parse_kv_text(b"no separator here\n")


# ---------------------------------------------------------------------------
# containers

def test_container_roundtrip_all_sections(tmp_path):
    model, qm = _quant_model()
    calib = threshold.calibrate(np.random.default_rng(0).random(200))
    path = tmp_path / "full.alm"
    model_io.save_container(path, model=model, qmodel=qm, calibration=calib,
                            meta={"config_digest": "abc123", "seed": 1})
    c = model_io.load_container(path)
    assert c.model is not None
    assert c.qmodel is not None
    assert c.calibration == calib
    assert c.meta == {"config_digest": "abc123", "seed": "1"}
    assert model_io.quant_payload(c.qmodel) == model_io.quant_payload(qm)


def _sections(buf: bytes) -> list:
    """Each section's bytes (tag, length, payload) after the 8-byte head."""
    out, pos = [], 8
    while pos < len(buf):
        _, n = struct.unpack_from("<BQ", buf, pos)
        out.append(buf[pos:pos + 9 + n])
        pos += 9 + n
    return out


def test_container_refuses_section_5():
    # earlier containers held the float parameters at f8 under tag 5
    model = _float_model(trained=True)
    (float_section,) = _sections(model_io.container_bytes(model=model))
    f8 = b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes()
                  for layer in model.layers for p in layer.params().values())
    spliced = model_io.MAGIC \
        + struct.pack("<HH", model_io.FORMAT_VERSION, 2) \
        + float_section + struct.pack("<BQ", 5, len(f8)) + f8
    with pytest.raises(ContainerError, match="tag 5"):
        model_io.parse_container(spliced)


def test_container_rejects_quant_section_of_another_model():
    model_a, qm_a = _quant_model()
    model_b = init_model("M1", 16, seed=4)
    assert qm_a.source_digest == hashlib.sha256(
        model_io.float_payload(model_a)).digest()
    spliced = model_io.container_bytes(model=model_b, qmodel=qm_a)
    with pytest.raises(ContainerError, match="source digest"):
        model_io.parse_container(spliced)
    # either section alone still loads
    assert model_io.parse_container(
        model_io.container_bytes(qmodel=qm_a)).qmodel is not None
    assert model_io.parse_container(
        model_io.container_bytes(model=model_b)).model is not None


def test_container_partial_sections():
    model = _float_model()
    buf = model_io.container_bytes(model=model)
    c = model_io.parse_container(buf)
    assert c.model is not None
    assert c.qmodel is None and c.calibration is None and c.meta is None


def test_container_refuses_empty():
    with pytest.raises(ContainerError, match="empty"):
        model_io.container_bytes()


def test_container_rejects_bad_magic():
    buf = model_io.container_bytes(meta={"a": 1})
    with pytest.raises(ContainerError, match="magic"):
        model_io.parse_container(b"XXXX" + buf[4:])


def test_container_rejects_unknown_version():
    buf = bytearray(model_io.container_bytes(meta={"a": 1}))
    buf[4:6] = struct.pack("<H", 9)
    with pytest.raises(ContainerError, match="version"):
        model_io.parse_container(bytes(buf))


def test_container_rejects_unknown_tag():
    buf = bytearray(model_io.container_bytes(meta={"a": 1}))
    buf[8] = 77  # first section tag byte
    with pytest.raises(ContainerError, match="tag"):
        model_io.parse_container(bytes(buf))


def test_container_rejects_truncation():
    buf = model_io.container_bytes(model=_float_model())
    for cut in (6, len(buf) // 2, len(buf) - 1):
        with pytest.raises(ContainerError, match="truncated"):
            model_io.parse_container(buf[:cut])
