"""Attestation state machine: case lattice, freshness, laziness, reports."""

import numpy as np
import pytest

from attestlab import attestor, quantize, secure_channel as sc
from attestlab.attestor import (AttestationContext,
                                ConfigurationError, OutcomeKind,
                                encode_report, run_attestation, self_attest,
                                validate_report)
from attestlab.autoenc import init_model

ID_A = b"\x0a\x00\x00\x01"
ID_B = b"\x0a\x00\x00\x02"
KEY = bytes(range(16))
ABORT_KINDS = frozenset({
    OutcomeKind.ABORT_NO_SENDER_ID, OutcomeKind.ABORT_TRIVIAL_INPUT,
    OutcomeKind.ABORT_INCONSISTENT_ID, OutcomeKind.ABORT_EXPIRED_REPORT,
})


def _qmodel(l=8, seed=0):
    model = init_model("M1", l, seed=seed)
    calib = np.random.default_rng(seed).random((32, l))
    return quantize.quantize_model(model, calib)


def _ctx(self_id=ID_B, peer_id=ID_A, t_opt=np.inf, clock=None, seed=0,
         key=KEY, agg_width=4, expiry_ms=5000, qmodel=None):
    qm = qmodel if qmodel is not None else _qmodel()
    view_rng = np.random.default_rng(seed)
    n = qm.input_dim * agg_width
    return AttestationContext(
        self_id=self_id, qmodel=qm, t_opt=t_opt, inner_keys={peer_id: key},
        clock=clock if clock is not None else sc.SimulatedClock(10_000),
        rng=sc.RandomSource(seed),
        sram_view=lambda: view_rng.integers(0, 256, n).astype(np.uint8),
        agg_width=agg_width, expiry_ms=expiry_ms)


def _peer_pair(t_opt=np.inf, expiry_ms=5000):
    clock = sc.SimulatedClock(10_000)
    a = _ctx(self_id=ID_A, peer_id=ID_B, t_opt=t_opt, clock=clock, seed=1,
             expiry_ms=expiry_ms)
    b = _ctx(self_id=ID_B, peer_id=ID_A, t_opt=t_opt, clock=clock, seed=2,
             expiry_ms=expiry_ms)
    return a, b, clock


# ---------------------------------------------------------------------------
# context construction

def test_context_validation():
    with pytest.raises(ConfigurationError):
        _ctx(self_id=b"\x01\x02\x03")
    with pytest.raises(ConfigurationError):
        _ctx(expiry_ms=0)


def test_missing_peer_key_is_a_configuration_error():
    ctx = _ctx()
    with pytest.raises(ConfigurationError):
        ctx.inner_key(b"\xee\x00\xee\x1f")
    with pytest.raises(ConfigurationError):
        encode_report(ctx, b"\xee\x00\xee\x1f", attestor.SAFE)


def test_fresh_nonce_skips_repeats():
    class FakeRng:
        def __init__(self):
            self.queue = [b"A" * 16, b"A" * 16, b"B" * 16]

        def nonce(self):
            return self.queue.pop(0)

    ctx = _ctx()
    ctx.rng = FakeRng()
    assert ctx.fresh_nonce() == b"A" * 16
    assert ctx.fresh_nonce() == b"B" * 16  # duplicate draw was discarded


def test_fresh_nonce_bulk_uniqueness():
    ctx = _ctx()
    seen = {ctx.fresh_nonce() for _ in range(100_000)}
    assert len(seen) == 100_000


# ---------------------------------------------------------------------------
# self attestation and report encoding

def test_self_attest_verdict_tracks_threshold():
    verdict, err = self_attest(_ctx(t_opt=np.inf))
    assert verdict == attestor.SAFE
    assert err >= 0.0
    verdict, err2 = self_attest(_ctx(t_opt=-1.0))
    assert verdict == attestor.UNSAFE


def test_self_attest_counts_inferences():
    ctx = _ctx()
    assert ctx.counters["inference"] == 0
    self_attest(ctx)
    self_attest(ctx)
    assert ctx.counters["inference"] == 2
    assert ctx.counters["report_encrypt"] == 0


def test_self_attest_rejects_short_sram_view():
    ctx = _ctx()
    ctx.sram_view = lambda: np.zeros(30, dtype=np.uint8)  # needs 32 bytes
    with pytest.raises(ValueError):
        self_attest(ctx)


def test_encode_report_layout():
    ctx = _ctx(self_id=ID_B, peer_id=ID_A)
    blob = encode_report(ctx, ID_A, attestor.UNSAFE)
    assert len(blob) == attestor.REPORT_WIRE_LEN == 48
    plain = sc.dec(blob, KEY)
    assert len(plain) == attestor.REPORT_PLAIN_LEN == 29
    assert plain[:4] == ID_B
    assert plain[4] == attestor.UNSAFE
    assert int.from_bytes(plain[5:13], "big") == 10_000
    assert plain[13:29] in ctx.issued_nonces
    assert ctx.counters["report_encrypt"] == 1
    assert ctx.counters["inference"] == 0


def test_encode_report_rejects_bad_verdict():
    with pytest.raises(ValueError):
        encode_report(_ctx(), ID_A, 2)


# ---------------------------------------------------------------------------
# report validation

def test_validate_report_accepts_fresh_safe_report():
    a, b, _ = _peer_pair()
    report = encode_report(a, ID_B, attestor.SAFE)
    kind, verdict = validate_report(b, ID_A, report)
    assert kind is OutcomeKind.COMPLETED
    assert verdict == attestor.SAFE


def test_validate_report_flags_unsafe_sender():
    a, b, _ = _peer_pair()
    report = encode_report(a, ID_B, attestor.UNSAFE)
    kind, verdict = validate_report(b, ID_A, report)
    assert kind is OutcomeKind.SENDER_UNSAFE
    assert verdict == attestor.UNSAFE


def test_validate_report_expiry_boundary():
    a, b, clock = _peer_pair(expiry_ms=5000)
    on_time = encode_report(a, ID_B, attestor.SAFE)
    clock.advance(5000)  # now - t == expiry: still acceptable
    assert validate_report(b, ID_A, on_time)[0] is OutcomeKind.COMPLETED
    stale = encode_report(a, ID_B, attestor.SAFE)
    clock.advance(5001)  # one ms past the window
    assert validate_report(b, ID_A, stale)[0] \
        is OutcomeKind.ABORT_EXPIRED_REPORT


def test_validate_report_future_boundary():
    # the expiry window is also the clock-skew bound, after now as before it
    b = _ctx(self_id=ID_B, peer_id=ID_A, clock=sc.SimulatedClock(10_000),
             seed=2, expiry_ms=5000)
    for ahead, want in ((5000, OutcomeKind.COMPLETED),
                        (5001, OutcomeKind.ABORT_EXPIRED_REPORT)):
        a = _ctx(self_id=ID_A, peer_id=ID_B, seed=1, expiry_ms=5000,
                 clock=sc.SimulatedClock(10_000 + ahead))
        report = encode_report(a, ID_B, attestor.SAFE)
        assert validate_report(b, ID_A, report)[0] is want


def test_validate_report_wrong_sender_id():
    a, b, _ = _peer_pair()
    report = encode_report(a, ID_B, attestor.SAFE)
    # b expects the report to come from ID_A; claim it came from b itself
    b.inner_keys[ID_B] = KEY
    kind, verdict = validate_report(b, ID_B, report)
    assert kind is OutcomeKind.ABORT_INCONSISTENT_ID
    assert verdict is None


def test_validate_report_wrong_key_never_validates():
    a, b, _ = _peer_pair()
    b.inner_keys[ID_A] = bytes(range(16, 32))  # not the key a used
    for _ in range(1000):
        report = encode_report(a, ID_B, attestor.SAFE)
        kind, verdict = validate_report(b, ID_A, report)
        assert kind is OutcomeKind.ABORT_INCONSISTENT_ID
        assert verdict is None


def test_validate_report_garbage_blobs():
    _, b, _ = _peer_pair()
    junk_rng = sc.RandomSource(99)
    for _ in range(200):
        kind, _ = validate_report(b, ID_A, junk_rng.bytes(48))
        assert kind is OutcomeKind.ABORT_INCONSISTENT_ID
    kind, _ = validate_report(b, ID_A, b"")
    assert kind is OutcomeKind.ABORT_INCONSISTENT_ID


@pytest.mark.parametrize("length", [attestor.REPORT_PLAIN_LEN - 1,
                                    attestor.REPORT_PLAIN_LEN + 1])
def test_validate_report_rejects_off_length_plaintext(length):
    # a valid id, verdict and timestamp, sealed under the right key, in a
    # plaintext one byte short of or past the report layout
    _, b, clock = _peer_pair()
    head = ID_A + bytes([attestor.SAFE]) + clock.now().to_bytes(8, "big")
    plain = head + bytes(length - len(head))
    blob = sc.enc(plain, KEY, sc.RandomSource(5))
    out = run_attestation(b, sender_id=ID_A, sender_report=blob,
                          self_attest_requested=True)
    assert out.kind is OutcomeKind.ABORT_INCONSISTENT_ID
    assert b.counters == {"inference": 0, "report_encrypt": 0}


def test_validate_report_tampered_ciphertext():
    # CBC malleability boundary: an IV flip lands byte-for-byte in the first
    # plaintext block, so the report layer alone only catches flips over the
    # fields it checks (sender id, verdict byte, timestamp beyond the
    # window); transport integrity for the rest is the handshake HMAC's
    # job. Flips inside the ciphertext blocks garble a whole block and
    # always abort.
    a, b, _ = _peer_pair()
    report = bytes(encode_report(a, ID_B, attestor.SAFE))
    for i in range(0, 5):  # IV bytes feeding the id and verdict fields
        flipped = bytearray(report)
        flipped[i] ^= 0x80
        kind, _ = validate_report(b, ID_A, bytes(flipped))
        assert kind is OutcomeKind.ABORT_INCONSISTENT_ID
    for i in range(5, 12):  # t_ms bytes: each flip moves it >= 2**15 ms
        flipped = bytearray(report)
        flipped[i] ^= 0x80
        kind, _ = validate_report(b, ID_A, bytes(flipped))
        assert kind is OutcomeKind.ABORT_EXPIRED_REPORT
    for i in range(16, 48):  # ciphertext body
        flipped = bytearray(report)
        flipped[i] ^= 0x80
        kind, _ = validate_report(b, ID_A, bytes(flipped))
        assert kind is OutcomeKind.ABORT_INCONSISTENT_ID


# ---------------------------------------------------------------------------
# the full input lattice

def _report_case(a, b, clock, case):
    if case == "none":
        return None
    if case == "garbage":
        return sc.RandomSource(7).bytes(48)
    if case == "expired":
        blob = encode_report(a, ID_B, attestor.SAFE)
        clock.advance(b.expiry_ms + 1)
        return blob
    verdict = attestor.SAFE if case == "fresh_safe" else attestor.UNSAFE
    return encode_report(a, ID_B, verdict)


@pytest.mark.parametrize("sender_known", [False, True])
@pytest.mark.parametrize("report_case", ["none", "fresh_safe",
                                         "fresh_unsafe", "expired",
                                         "garbage"])
@pytest.mark.parametrize("a_self", [False, True])
def test_run_attestation_lattice(sender_known, report_case, a_self):
    a, b, clock = _peer_pair()
    report = _report_case(a, b, clock, report_case)
    sender = ID_A if sender_known else None
    out = run_attestation(b, sender_id=sender, sender_report=report,
                          self_attest_requested=a_self)

    if not sender_known:
        expected = OutcomeKind.ABORT_NO_SENDER_ID
    elif report_case == "none" and not a_self:
        expected = OutcomeKind.ABORT_TRIVIAL_INPUT
    elif report_case == "garbage":
        expected = OutcomeKind.ABORT_INCONSISTENT_ID
    elif report_case == "expired":
        expected = OutcomeKind.ABORT_EXPIRED_REPORT
    elif report_case == "fresh_unsafe":
        expected = OutcomeKind.SENDER_UNSAFE
    else:
        expected = OutcomeKind.COMPLETED
    assert out.kind is expected

    # laziness: inference and encryption only on the completed path with
    # a self-check requested
    ran_self = expected is OutcomeKind.COMPLETED and a_self
    assert b.counters["inference"] == (1 if ran_self else 0)
    assert b.counters["report_encrypt"] == (1 if ran_self else 0)
    assert (out.report is not None) == ran_self

    if expected is OutcomeKind.COMPLETED and report_case == "fresh_safe":
        assert out.peer_verdict == attestor.SAFE
    if expected is OutcomeKind.SENDER_UNSAFE:
        assert out.peer_verdict == attestor.UNSAFE
    if expected in ABORT_KINDS:
        assert out.peer_verdict is None and out.report is None


def test_run_attestation_self_check_verdict_lands_in_report():
    a, b, _ = _peer_pair(t_opt=-1.0)  # forces an unsafe self-verdict
    out = run_attestation(b, sender_id=ID_A, self_attest_requested=True)
    assert out.kind is OutcomeKind.COMPLETED
    plain = sc.dec(out.report, KEY)
    assert plain[4] == attestor.UNSAFE
