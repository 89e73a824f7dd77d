"""Attestation state machine run inside each device's trusted environment.

One entry point handles both duties of an exchange: validate the peer's
encrypted attestation report (identity, freshness, verdict) and, when asked,
produce our own report from a fresh SRAM self-check. Abort paths are lazy:
no model inference and no report encryption happen unless the happy path is
reached, which call counters make observable.

Report plaintext (29 bytes): device_id(4) | verdict(1) | t_ms(8, big-endian)
| nonce(16), encrypted AES-128-CBC under the inner key of the device pair,
so the wire report is 48 bytes (16 IV + 32 ciphertext).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import secure_channel as sc
from .quantize import QuantizedModel, q_reconstruct
from .autoenc import reconstruction_error
from .trace import aggregate_many

DEVICE_ID_LEN = 4
REPORT_PLAIN_LEN = DEVICE_ID_LEN + 1 + 8 + sc.NONCE_LEN  # 29
REPORT_WIRE_LEN = sc.IV_LEN + 32                         # 48
DEFAULT_EXPIRY_MS = 5000

SAFE, UNSAFE = 0, 1


class ConfigurationError(RuntimeError):
    """Missing keys or broken context; distinct from protocol aborts."""


class OutcomeKind(enum.Enum):
    ABORT_NO_SENDER_ID = "abort_no_sender_id"
    ABORT_TRIVIAL_INPUT = "abort_trivial_input"
    ABORT_INCONSISTENT_ID = "abort_inconsistent_id"
    ABORT_EXPIRED_REPORT = "abort_expired_report"
    SENDER_UNSAFE = "sender_unsafe"
    COMPLETED = "completed"


@dataclass(frozen=True)
class AttestOutcome:
    kind: OutcomeKind
    report: bytes | None = None       # our encrypted report, when produced
    peer_verdict: int | None = None   # 0 safe / 1 unsafe, when validated


@dataclass
class AttestationContext:
    self_id: bytes
    qmodel: QuantizedModel
    t_opt: float
    inner_keys: dict          # peer_id -> 16-byte report key
    clock: object             # .now() in ms
    rng: sc.RandomSource
    sram_view: object         # callable -> uint8 SRAM row (fresh evidence)
    agg_width: int = 4
    expiry_ms: int = DEFAULT_EXPIRY_MS
    counters: dict = field(default_factory=lambda: {
        "inference": 0, "report_encrypt": 0})
    issued_nonces: set = field(default_factory=set)

    def __post_init__(self):
        if len(self.self_id) != DEVICE_ID_LEN:
            raise ConfigurationError("device id must be %d bytes"
                                     % DEVICE_ID_LEN)
        if self.expiry_ms <= 0:
            raise ConfigurationError("expiry window must be positive")

    def fresh_nonce(self) -> bytes:
        n = self.rng.nonce()
        while n in self.issued_nonces:
            n = self.rng.nonce()
        self.issued_nonces.add(n)
        return n

    def inner_key(self, peer_id: bytes) -> bytes:
        try:
            return self.inner_keys[bytes(peer_id)]
        except KeyError:
            raise ConfigurationError("no report key provisioned for peer %s"
                                     % bytes(peer_id).hex()) from None


def self_attest(ctx: AttestationContext):
    """Fresh SRAM read, aggregate, reconstruct; returns (verdict, error)."""
    row = ctx.sram_view()
    length = ctx.qmodel.input_dim * ctx.agg_width
    features = aggregate_many(row, s=ctx.agg_width, length=length)
    ctx.counters["inference"] += 1
    err = float(reconstruction_error(features, q_reconstruct(ctx.qmodel,
                                                             features)))
    return (SAFE if err < ctx.t_opt else UNSAFE), err


def encode_report(ctx: AttestationContext, peer_id: bytes,
                  verdict: int) -> bytes:
    """Encrypt device_id | verdict | timestamp | nonce for the given peer."""
    if verdict not in (SAFE, UNSAFE):
        raise ValueError("verdict must be 0 or 1")
    key = ctx.inner_key(peer_id)
    payload = (bytes(ctx.self_id) + bytes([verdict])
               + int(ctx.clock.now()).to_bytes(8, "big")
               + ctx.fresh_nonce())
    assert len(payload) == REPORT_PLAIN_LEN
    ctx.counters["report_encrypt"] += 1
    return sc.enc(payload, key, ctx.rng)


def validate_report(ctx: AttestationContext, sender_id: bytes, blob: bytes):
    """Decrypt and check a peer report.

    Returns (OutcomeKind, verdict-or-None): COMPLETED means a fresh report
    from the claimed sender with a safe verdict; SENDER_UNSAFE carries
    verdict 1; garbled ciphertext, layout, or identity problems map to
    ABORT_INCONSISTENT_ID. A timestamp more than expiry_ms from now, in
    the past or in the future, maps to ABORT_EXPIRED_REPORT: the expiry
    window is also the clock-skew bound.
    """
    key = ctx.inner_key(sender_id)
    try:
        plain = sc.dec(blob, key)
    except sc.DecryptError:
        return OutcomeKind.ABORT_INCONSISTENT_ID, None
    if len(plain) != REPORT_PLAIN_LEN:
        return OutcomeKind.ABORT_INCONSISTENT_ID, None
    rid = plain[:DEVICE_ID_LEN]
    verdict = plain[DEVICE_ID_LEN]
    t_ms = int.from_bytes(plain[DEVICE_ID_LEN + 1:DEVICE_ID_LEN + 9], "big")
    if rid != bytes(sender_id) or verdict not in (SAFE, UNSAFE):
        return OutcomeKind.ABORT_INCONSISTENT_ID, None
    if abs(ctx.clock.now() - t_ms) > ctx.expiry_ms:
        return OutcomeKind.ABORT_EXPIRED_REPORT, None
    if verdict == UNSAFE:
        return OutcomeKind.SENDER_UNSAFE, UNSAFE
    return OutcomeKind.COMPLETED, SAFE


def run_attestation(ctx: AttestationContext, sender_id: bytes | None = None,
                    sender_report: bytes | None = None,
                    self_attest_requested: bool = False) -> AttestOutcome:
    """Validate the sender's report and/or produce our own.

    Case analysis: no sender id aborts immediately; no report plus no
    self-attestation request is trivial input; a provided report is checked
    for identity, freshness, then verdict, in that order; an unsafe sender
    stops the exchange before any inference; otherwise a self-check runs
    only when requested.
    """
    if sender_id is None:
        return AttestOutcome(kind=OutcomeKind.ABORT_NO_SENDER_ID)
    if sender_report is None and not self_attest_requested:
        return AttestOutcome(kind=OutcomeKind.ABORT_TRIVIAL_INPUT)

    peer_verdict = None
    if sender_report is not None:
        kind, peer_verdict = validate_report(ctx, sender_id, sender_report)
        if kind is not OutcomeKind.COMPLETED:
            return AttestOutcome(kind=kind, peer_verdict=peer_verdict)

    if not self_attest_requested:
        return AttestOutcome(kind=OutcomeKind.COMPLETED,
                             peer_verdict=peer_verdict)

    verdict, _ = self_attest(ctx)
    report = encode_report(ctx, sender_id, verdict)
    return AttestOutcome(kind=OutcomeKind.COMPLETED, report=report,
                         peer_verdict=peer_verdict)
