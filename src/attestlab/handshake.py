"""Four-message mutual attestation handshake over an in-process network.

Wire format: every flow carries (sender_id, m, i_tag) where m is AES-128-CBC
ciphertext under the pair's outer key and i_tag = HMAC-SHA256(m, K) over the
ciphertext (encrypt-then-MAC). The initiator sends the odd flows, the
responder the even ones, and one rule lays out every flow k:

    m_k = Enc( ID | N_{k-1} echo (k > 1) | N_k | R (k <= 2) )

where R is the sender's 48-byte encrypted attestation report. A session in
phase START, SENT1, SENT2, SENT3 or SENT4 expects flow 1, 2, 3, 4 or none
next. The receiver verifies the tag, decrypts, checks the embedded identity,
checks the echo against the nonce it sent last, validates the report through
the attestation state machine, then answers with a fresh nonce. Every
failure is silent and fail-closed: the session ends with a recorded reason
and no outbound message. A scripted adversary can drop, replay, tamper,
inject, impersonate, or delay flows; it never reads the key store.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

from . import secure_channel as sc
from .attestor import (AttestationContext, ConfigurationError, OutcomeKind,
                       run_attestation, REPORT_WIRE_LEN, DEVICE_ID_LEN,
                       DEFAULT_EXPIRY_MS)
from .quantize import QuantizedModel
from .trace import FirmwareProfile, sample_traces

# session phases; _PHASES[k - 1] is the phase that expects flow k
START, SENT1, SENT2, SENT3, SENT4, DONE, FAILED = (
    "start", "sent1", "sent2", "sent3", "sent4", "done", "failed")
_PHASES = (START, SENT1, SENT2, SENT3, SENT4)

# failure reasons
BAD_HMAC = "bad_hmac"
BAD_NONCE_ECHO = "bad_nonce_echo"
BAD_LAYOUT = "bad_layout"
REPORT_EXPIRED = "report_expired"
REPORT_INCONSISTENT_ID = "report_inconsistent_id"
PEER_UNSAFE = "peer_unsafe"
SETUP = "setup"

_ABORT_REASON = {
    OutcomeKind.ABORT_INCONSISTENT_ID: REPORT_INCONSISTENT_ID,
    OutcomeKind.ABORT_EXPIRED_REPORT: REPORT_EXPIRED,
    OutcomeKind.SENDER_UNSAFE: PEER_UNSAFE,
}

_PLAIN_LEN = {k: DEVICE_ID_LEN + (1 + (k > 1)) * sc.NONCE_LEN
              + (k <= 2) * REPORT_WIRE_LEN for k in (1, 2, 3, 4)}


@dataclass(frozen=True)
class HandshakeMessage:
    sender_id: bytes
    m: bytes
    i_tag: bytes


@dataclass
class SessionState:
    role: str                 # "initiator" | "responder"
    peer_id: bytes
    phase: str = START
    nonces: dict = field(default_factory=dict)
    peer_verdict: int | None = None
    fail_reason: str | None = None


class Device:
    """Simulated device: SRAM view, trusted attestation context, outer keys.

    The SRAM snapshots at the given time steps are sampled once, when the
    device is built; self-check k reads the one at
    time_steps[k % len(time_steps)]. Its outer and inner keys are looked
    up once too, for every peer the key store holds at that time.
    """

    def __init__(self, device_id: bytes, profile: FirmwareProfile,
                 device_seed: int, qmodel: QuantizedModel, t_opt: float,
                 keystore: sc.KeyStore, clock, rng: sc.RandomSource,
                 agg_width: int = 4, expiry_ms: int = DEFAULT_EXPIRY_MS, *,
                 time_steps):
        self.id = bytes(device_id)
        self.keystore = keystore
        self.sram = sample_traces(profile, device_seed, time_steps)
        if not len(self.sram):
            raise ValueError("time_steps must be non-empty")
        self._reads = 0
        peers = keystore.peers(self.id)
        self._outer = {p: keystore.outer(self.id, p) for p in peers}
        inner = {p: keystore.inner(self.id, p) for p in peers}
        self.ctx = AttestationContext(
            self_id=self.id, qmodel=qmodel, t_opt=t_opt, inner_keys=inner,
            clock=clock, rng=rng, sram_view=self._sram_view,
            agg_width=agg_width, expiry_ms=expiry_ms)

    def _sram_view(self):
        row = self.sram.data[self._reads % len(self.sram)]
        self._reads += 1
        return row

    def outer_key(self, peer_id: bytes) -> bytes:
        """The pair's outer key, as provisioned; KeyError for a stranger."""
        return self._outer[bytes(peer_id)]


def _fail(state: SessionState, reason: str):
    state.phase = FAILED
    state.fail_reason = reason
    return state, None


def _send(device: Device, state: SessionState, k: int, report: bytes):
    """Draw N_k, seal flow k and move to the phase that awaits flow k + 1."""
    nk = state.nonces["n%d" % k] = device.ctx.fresh_nonce()
    echo = state.nonces.get("n%d" % (k - 1), b"")
    key = device.outer_key(state.peer_id)
    m = sc.enc(device.id + echo + nk + report, key, device.ctx.rng)
    state.phase = _PHASES[k]
    return state, HandshakeMessage(sender_id=device.id, m=m,
                                   i_tag=sc.hmac_tag(m, key))


def _open(device: Device, state: SessionState, msg: HandshakeMessage,
          expected_len: int):
    """Tag check, decrypt, structural checks. Returns plaintext or reason."""
    try:
        key = device.outer_key(state.peer_id)
    except KeyError:
        return None, BAD_HMAC
    if not sc.hmac_verify(msg.m, key, msg.i_tag):
        return None, BAD_HMAC
    if bytes(msg.sender_id) != bytes(state.peer_id):
        return None, BAD_LAYOUT
    try:
        plain = sc.dec(msg.m, key)
    except sc.DecryptError:
        return None, BAD_LAYOUT
    if len(plain) != expected_len:
        return None, BAD_LAYOUT
    if plain[:DEVICE_ID_LEN] != bytes(state.peer_id):
        return None, BAD_LAYOUT
    return plain, None


def initiator_start(device: Device, peer_id: bytes,
                    report_override: bytes | None = None):
    """Produce a fresh self-report and the first flow of the handshake.

    report_override models a compromised normal world caching an old
    encrypted report instead of requesting a fresh one.
    """
    state = SessionState(role="initiator", peer_id=bytes(peer_id))
    if report_override is not None:
        report = report_override
    else:
        try:
            outcome = run_attestation(device.ctx, sender_id=peer_id,
                                      self_attest_requested=True)
        except ConfigurationError:
            return _fail(state, SETUP)
        if outcome.kind is not OutcomeKind.COMPLETED or outcome.report is None:
            return _fail(state, SETUP)
        report = outcome.report
    return _send(device, state, 1, report)


def responder_start(device: Device, peer_id: bytes) -> SessionState:
    return SessionState(role="responder", peer_id=bytes(peer_id))


def step(device: Device, state: SessionState, msg: HandshakeMessage):
    """Receive flow k, the one the phase expects, and send flow k + 1.

    Returns (state, outbound-or-None).
    """
    if state.phase in (DONE, FAILED):
        raise ValueError("step() called on a terminal session")
    k = _PHASES.index(state.phase) + 1
    # SENT4 expects no flow, and responders receive only the odd ones
    if k > 4 or k % 2 != (state.role == "responder"):
        return _fail(state, BAD_LAYOUT)
    plain, reason = _open(device, state, msg, _PLAIN_LEN[k])
    if reason:
        return _fail(state, reason)
    off = DEVICE_ID_LEN + (k > 1) * sc.NONCE_LEN   # N_k follows the echo
    if k > 1 and plain[DEVICE_ID_LEN:off] != state.nonces["n%d" % (k - 1)]:
        return _fail(state, BAD_NONCE_ECHO)
    own_report = b""
    if k <= 2:
        try:
            outcome = run_attestation(
                device.ctx, sender_id=state.peer_id,
                sender_report=plain[off + sc.NONCE_LEN:],
                self_attest_requested=k == 1)
        except ConfigurationError:
            return _fail(state, SETUP)
        state.peer_verdict = outcome.peer_verdict
        if outcome.kind is not OutcomeKind.COMPLETED:
            return _fail(state, _ABORT_REASON.get(outcome.kind, SETUP))
        own_report = outcome.report or b""
    state.nonces["n%d" % k] = plain[off:off + sc.NONCE_LEN]
    if k == 4:
        state.phase = DONE
        return state, None
    return _send(device, state, k + 1, own_report)


# ---------------------------------------------------------------------------
# scripted adversaries

@dataclass(frozen=True)
class AdversaryAction:
    kind: str                 # drop|replay|tamper|inject|impersonate|delay
    step: int                 # 1..4 message slot
    message: HandshakeMessage | None = None   # replay / inject payload
    target: str = "m"         # tamper target: m | tag | sender
    byte_index: int = 0
    xor_mask: int = 0x01
    delta_ms: int = 0
    fake_sender: bytes | None = None


_TAMPER_FIELD = {"m": "m", "tag": "i_tag", "sender": "sender_id"}
_REQUIRED = {"replay": "message", "inject": "message",
             "impersonate": "fake_sender"}


class AdversaryScript:
    """In-path adversary: applies scripted actions to message slots.

    It sees and may replace ciphertext flows but never touches the key
    store. Unscripted slots pass messages through unchanged.
    """

    def __init__(self, actions: list[AdversaryAction] | None = None):
        self.actions = list(actions or [])
        for a in self.actions:
            if a.kind not in ("drop", "replay", "tamper", "inject",
                              "impersonate", "delay"):
                raise ValueError("unknown adversary action %r" % a.kind)
            if not 1 <= a.step <= 4:
                raise ValueError("action step must be 1..4")
            if a.kind == "tamper" and a.target not in _TAMPER_FIELD:
                raise ValueError("unknown tamper target %r" % a.target)
            need = _REQUIRED.get(a.kind)
            if need and getattr(a, need) is None:
                raise ValueError("%s action needs %s" % (a.kind, need))

    def transform(self, slot: int, honest: HandshakeMessage | None,
                  advance_clock):
        """Returns list of (label, message-or-None, altered_flag)."""
        acts = [a for a in self.actions if a.step == slot]
        if not acts:
            return [("passthrough", honest, False)] if honest else []
        out = []
        cur = honest
        for a in acts:
            if a.kind == "drop":
                out.append(("drop", None, False))
                cur = None
            elif a.kind == "delay":
                advance_clock(a.delta_ms)
                if cur is not None:
                    out.append(("delay", cur, False))
            elif a.kind in ("replay", "inject"):
                out.append((a.kind, a.message, True))
            elif a.kind == "impersonate":
                base = cur or a.message
                if base is None:
                    continue
                fake = dc_replace(base, sender_id=bytes(a.fake_sender))
                out.append(("impersonate", fake, True))
            elif a.kind == "tamper":
                if cur is None:
                    continue
                name = _TAMPER_FIELD[a.target]
                buf = bytearray(getattr(cur, name))
                buf[a.byte_index % len(buf)] ^= a.xor_mask
                out.append(("tamper", dc_replace(cur, **{name: bytes(buf)}),
                            True))
        return out


@dataclass
class TranscriptEntry:
    session_id: str
    step: int
    direction: str
    sender_id: str
    payload_hex: str
    tag_hex: str
    adversary_action: str
    verdict: str


@dataclass
class SessionOutcome:
    session_id: str
    completed: bool
    verdict: str
    initiator_phase: str
    responder_phase: str
    initiator_reason: str | None
    responder_reason: str | None
    initiator_peer_verdict: int | None
    responder_peer_verdict: int | None
    adversary_win: bool
    transcript: list


def run_session(initiator: Device, responder: Device,
                adversary: AdversaryScript | None = None,
                session_id: str = "s0",
                report_override: bytes | None = None) -> SessionOutcome:
    """Drive one handshake through the adversarial network.

    An adversary-altered flow counts as a win if its receiver accepts it,
    except a replayed first flow, which carries a fresh-looking report and
    is only rejected later by the nonce echo or its timestamp.
    """
    adversary = adversary or AdversaryScript()
    transcript: list[TranscriptEntry] = []
    win = False

    i_state, honest = initiator_start(initiator, responder.id,
                                      report_override=report_override)
    r_state = responder_start(responder, initiator.id)

    for slot in (1, 2, 3, 4):
        # step() updates the receiver's state in place
        dev, state, direction = ((responder, r_state, "i->j") if slot % 2
                                 else (initiator, i_state, "j->i"))
        deliveries = adversary.transform(slot, honest,
                                         initiator.ctx.clock.advance)
        honest = None
        for label, dmsg, altered in deliveries:
            if dmsg is None:
                verdict = "dropped"
            elif state.phase in (DONE, FAILED):
                verdict = "ignored"
            else:
                state, out = step(dev, state, dmsg)
                if state.phase == FAILED:
                    verdict = "rejected:%s" % state.fail_reason
                else:
                    verdict = "accepted"
                    if altered and not (label == "replay" and slot == 1):
                        win = True
                    if out is not None:
                        honest = out
            wire = (dmsg.sender_id, dmsg.m, dmsg.i_tag) if dmsg else (b"",) * 3
            transcript.append(TranscriptEntry(
                session_id, slot, direction, *(bytes(b).hex() for b in wire),
                adversary_action=label, verdict=verdict))

    if r_state.phase == SENT4 and i_state.phase == DONE:
        r_state.phase = DONE

    completed = i_state.phase == DONE and r_state.phase == DONE
    if completed:
        verdict = "completed"
    elif i_state.fail_reason or r_state.fail_reason:
        verdict = "failed:%s" % (r_state.fail_reason or i_state.fail_reason)
    else:
        verdict = "stalled"
    return SessionOutcome(
        session_id=session_id, completed=completed, verdict=verdict,
        initiator_phase=i_state.phase, responder_phase=r_state.phase,
        initiator_reason=i_state.fail_reason,
        responder_reason=r_state.fail_reason,
        initiator_peer_verdict=i_state.peer_verdict,
        responder_peer_verdict=r_state.peer_verdict,
        adversary_win=win, transcript=transcript)


def record_honest_session(initiator: Device, responder: Device,
                          session_id: str = "rec") -> list[HandshakeMessage]:
    """Run a passthrough session and return its four flows for replay."""
    outcome = run_session(initiator, responder, session_id=session_id)
    if not outcome.completed:
        raise RuntimeError("recording session did not complete: %s"
                           % outcome.verdict)
    return [HandshakeMessage(sender_id=bytes.fromhex(e.sender_id),
                             m=bytes.fromhex(e.payload_hex),
                             i_tag=bytes.fromhex(e.tag_hex))
            for e in outcome.transcript]
