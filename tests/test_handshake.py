"""Four-message handshake: honest runs, scripted attacks, transcripts."""

import dataclasses

import numpy as np
import pytest

from attestlab import handshake as hs
from attestlab import secure_channel as sc
from attestlab import trace
from attestlab.cli import IMPOSTOR_ID, INITIATOR_ID, RESPONDER_ID
from attestlab.seeds import derive_seed


# ---------------------------------------------------------------------------
# honest path

def test_honest_session_completes(protocol_lab):
    initiator, responder = protocol_lab
    out = hs.run_session(initiator, responder, session_id="h1")
    assert out.completed
    assert out.verdict == "completed"
    assert out.initiator_phase == hs.DONE
    assert out.responder_phase == hs.DONE
    assert out.initiator_reason is None and out.responder_reason is None
    assert out.initiator_peer_verdict == 0
    assert out.responder_peer_verdict == 0
    assert not out.adversary_win
    assert [e.step for e in out.transcript] == [1, 2, 3, 4]
    assert [e.direction for e in out.transcript] \
        == ["i->j", "j->i", "i->j", "j->i"]
    assert all(e.verdict == "accepted" for e in out.transcript)
    assert all(e.adversary_action == "passthrough" for e in out.transcript)


def test_honest_flow_wire_format(protocol_lab):
    initiator, responder = protocol_lab
    flows = hs.record_honest_session(initiator, responder)
    assert len(flows) == 4
    key = initiator.keystore.outer(INITIATOR_ID, RESPONDER_ID)
    senders = [INITIATOR_ID, RESPONDER_ID, INITIATOR_ID, RESPONDER_ID]
    for slot, (msg, sender) in enumerate(zip(flows, senders), start=1):
        assert msg.sender_id == sender
        assert sc.hmac_verify(msg.m, key, msg.i_tag)
        plain = sc.dec(msg.m, key)
        assert len(plain) == hs._PLAIN_LEN[slot]
        assert plain[:4] == sender


def test_nonce_chain_is_consistent(protocol_lab):
    initiator, responder = protocol_lab
    i_state, m1 = hs.initiator_start(initiator, responder.id)
    r_state = hs.responder_start(responder, initiator.id)
    r_state, m2 = hs.step(responder, r_state, m1)
    i_state, m3 = hs.step(initiator, i_state, m2)
    r_state, m4 = hs.step(responder, r_state, m3)
    i_state, final = hs.step(initiator, i_state, m4)
    assert final is None
    assert i_state.phase == hs.DONE
    assert r_state.phase == hs.SENT4  # promoted to done only by the driver
    for k in ("n1", "n2", "n3", "n4"):
        assert i_state.nonces[k] == r_state.nonces[k]
    assert len({i_state.nonces[k] for k in ("n1", "n2", "n3", "n4")}) == 4


def test_wire_never_leaks_inner_plaintext(protocol_lab):
    initiator, responder = protocol_lab
    out = hs.run_session(initiator, responder)
    key = initiator.keystore.outer(INITIATOR_ID, RESPONDER_ID)
    m1_plain = sc.dec(bytes.fromhex(out.transcript[0].payload_hex), key)
    n1, report = m1_plain[4:20], m1_plain[20:68]
    wire = "".join(e.payload_hex + e.tag_hex + e.sender_id
                   for e in out.transcript)
    assert n1.hex() not in wire
    assert report.hex() not in wire
    # the encrypted report is itself opaque: no inner-key plaintext fields
    inner = initiator.keystore.inner(INITIATOR_ID, RESPONDER_ID)
    report_plain = sc.dec(report, inner)
    assert report_plain[13:29].hex() not in wire  # report nonce stays inside


def test_step_on_terminal_session_raises(protocol_lab):
    initiator, responder = protocol_lab
    i_state, m1 = hs.initiator_start(initiator, responder.id)
    i_state.phase = hs.FAILED
    with pytest.raises(ValueError):
        hs.step(initiator, i_state, m1)


def test_initiator_start_without_keys_fails_closed(protocol_lab):
    initiator, _ = protocol_lab
    state, msg = hs.initiator_start(initiator, IMPOSTOR_ID)
    assert state.phase == hs.FAILED
    assert state.fail_reason == hs.SETUP
    assert msg is None


def test_responder_toward_unkeyed_peer_fails_closed(protocol_lab):
    initiator, responder = protocol_lab
    _, m1 = hs.initiator_start(initiator, responder.id)
    r_state = hs.responder_start(responder, IMPOSTOR_ID)
    r_state, out = hs.step(responder, r_state, m1)
    assert r_state.phase == hs.FAILED
    assert r_state.fail_reason == hs.BAD_HMAC
    assert out is None
    assert responder.ctx.counters["inference"] == 0


def test_unexpected_flow_order_fails_closed(protocol_lab):
    initiator, responder = protocol_lab
    i_state, m1 = hs.initiator_start(initiator, responder.id)
    # initiator in SENT1 fed its own first flow: wrong phase pattern
    i_state, out = hs.step(initiator, i_state, m1)
    assert i_state.phase == hs.FAILED
    assert i_state.fail_reason in (hs.BAD_LAYOUT, hs.BAD_HMAC)
    assert out is None


# every non-terminal (role, phase) a session reaches, as the number of
# steps driven after initiator_start, and the flow each one expects
_REACHABLE = [("initiator", hs.SENT1, 1, 2), ("initiator", hs.SENT3, 3, 4),
              ("responder", hs.START, 0, 1), ("responder", hs.SENT2, 1, 3),
              ("responder", hs.SENT4, 3, None)]


@pytest.mark.parametrize("role,phase,driven,fed", [
    (role, phase, driven, k) for role, phase, driven, expected in _REACHABLE
    for k in (1, 2, 3, 4) if k != expected])
def test_out_of_phase_flow_fails_closed(protocol_lab, role, phase, driven,
                                        fed):
    # a real flow under the pair's key, in a phase that expects another one
    # (a responder in SENT4 expects none: run_session hands it a second
    # flow 3 when one slot carries two actions)
    initiator, responder = protocol_lab
    recorded = hs.record_honest_session(initiator, responder)
    i_state, msg = hs.initiator_start(initiator, responder.id)
    r_state = hs.responder_start(responder, initiator.id)
    own = [msg]
    for k in range(1, driven + 1):
        if k % 2:
            r_state, msg = hs.step(responder, r_state, msg)
        else:
            i_state, msg = hs.step(initiator, i_state, msg)
        own.append(msg)
    dev, state = ((initiator, i_state) if role == "initiator"
                  else (responder, r_state))
    assert state.phase == phase
    flow = own[fed - 1] if fed <= len(own) else recorded[fed - 1]
    before = dict(dev.ctx.counters)
    state, out = hs.step(dev, state, flow)
    assert (state.phase, state.fail_reason) == (hs.FAILED, hs.BAD_LAYOUT)
    assert out is None
    assert dev.ctx.counters == before


def test_flow_to_the_wrong_role_fails_closed(protocol_lab):
    # sessions run_session never builds: an initiator in START fed a valid
    # flow 1, and a responder in SENT1 (holding the initiator's N_1) fed a
    # valid flow 2. The tags, ids and echo all check out; only the role
    # says that neither may receive that flow.
    initiator, responder = protocol_lab
    i_state, m1 = hs.initiator_start(initiator, responder.id)
    _, m2 = hs.step(responder, hs.responder_start(responder, initiator.id),
                    m1)
    cases = [(responder, hs.SessionState(role="initiator",
                                         peer_id=initiator.id), m1),
             (initiator, hs.SessionState(role="responder",
                                         peer_id=responder.id,
                                         phase=hs.SENT1,
                                         nonces=dict(i_state.nonces)), m2)]
    for dev, state, flow in cases:
        before = dict(dev.ctx.counters)
        state, out = hs.step(dev, state, flow)
        assert (state.phase, state.fail_reason) == (hs.FAILED, hs.BAD_LAYOUT)
        assert out is None
        assert dev.ctx.counters == before


@pytest.mark.parametrize("slot", [1, 2, 3, 4])
def test_reflected_flow_fails_closed(protocol_lab, slot):
    # a party's own flow k sent back to it, with the outer sender id
    # rewritten to the peer's. One outer key serves both directions, so
    # the tag verifies and only the structure can tell. The sender of
    # flow k awaits flow k + 1: flows 1 and 2 fail its plaintext length,
    # flow 3 (same length as flow 4) its plaintext sender id, before the
    # echo check would see the wrong nonce, and flow 4 its phase, SENT4,
    # which awaits nothing.
    initiator, responder = protocol_lab
    i_state, msg = hs.initiator_start(initiator, responder.id)
    r_state = hs.responder_start(responder, initiator.id)
    for k in range(1, slot):
        if k % 2:
            r_state, msg = hs.step(responder, r_state, msg)
        else:
            i_state, msg = hs.step(initiator, i_state, msg)
    dev, state, peer = ((initiator, i_state, responder) if slot % 2
                        else (responder, r_state, initiator))
    assert msg.sender_id == dev.id
    key = dev.outer_key(peer.id)
    assert sc.hmac_verify(msg.m, key, msg.i_tag)
    plain = sc.dec(msg.m, key)
    if slot < 4:
        assert (len(plain) == hs._PLAIN_LEN[slot + 1]) == (slot == 3)
    before = dict(dev.ctx.counters)
    state, out = hs.step(dev, state, dataclasses.replace(
        msg, sender_id=peer.id))
    assert (state.phase, state.fail_reason) == (hs.FAILED, hs.BAD_LAYOUT)
    assert out is None
    assert dev.ctx.counters == before


# ---------------------------------------------------------------------------
# device sampling

def test_device_cycles_given_time_steps(protocol_lab, bundle, tiny_cfg):
    initiator, _ = protocol_lab
    clock, keystore = initiator.ctx.clock, initiator.keystore
    dev = hs.Device(INITIATOR_ID, bundle.profile, 1234, bundle.qmodel,
                    bundle.calibration.t_opt, keystore, clock,
                    sc.RandomSource(0), agg_width=tiny_cfg.agg_width,
                    time_steps=[5])
    a = dev._sram_view()
    b = dev._sram_view()
    want = trace.sample_traces(bundle.profile, 1234, [5]).data[0]
    assert np.array_equal(a, want) and np.array_equal(b, want)


@pytest.mark.parametrize("n_steps", [5, 300])
def test_device_pool_reads_rows_cyclically(protocol_lab, bundle, monkeypatch,
                                           n_steps):
    initiator, _ = protocol_lab
    clock, keystore = initiator.ctx.clock, initiator.keystore
    steps = (np.arange(n_steps) * 7 + 3)[::-1]
    samples = []

    def counting(*args):
        samples.append(list(args[2]))
        return trace.sample_traces(*args)

    monkeypatch.setattr(hs, "sample_traces", counting)
    dev = hs.Device(INITIATOR_ID, bundle.profile, 99, bundle.qmodel,
                    bundle.calibration.t_opt, keystore, clock,
                    sc.RandomSource(0), time_steps=steps)
    assert samples == [list(steps)]   # every step, sampled at construction
    n_reads = 2 * n_steps + 3
    rows = np.stack([dev._sram_view() for _ in range(n_reads)])
    want = trace.sample_traces(bundle.profile, 99, steps).data
    assert np.array_equal(rows, want[np.arange(n_reads) % n_steps])
    assert len(samples) == 1   # reads never sample again


def test_device_rejects_empty_time_steps(protocol_lab, bundle, tiny_cfg):
    initiator, _ = protocol_lab
    clock, keystore = initiator.ctx.clock, initiator.keystore
    args = (INITIATOR_ID, bundle.profile, 1, bundle.qmodel,
            bundle.calibration.t_opt, keystore, clock, sc.RandomSource(0))
    with pytest.raises(ValueError):
        hs.Device(*args, time_steps=[])
    with pytest.raises(TypeError):   # no stepping mode without steps
        hs.Device(*args)


# ---------------------------------------------------------------------------
# scripted adversaries

def test_adversary_script_validation():
    with pytest.raises(ValueError):
        hs.AdversaryScript([hs.AdversaryAction(kind="steal", step=1)])
    with pytest.raises(ValueError):
        hs.AdversaryScript([hs.AdversaryAction(kind="drop", step=5)])


_MSG = hs.HandshakeMessage(sender_id=INITIATOR_ID, m=bytes(range(48)),
                           i_tag=bytes(range(100, 132)))


@pytest.mark.parametrize("action", [
    hs.AdversaryAction(kind="tamper", step=2, target="tags"),
    hs.AdversaryAction(kind="replay", step=1),
    hs.AdversaryAction(kind="inject", step=3),
    hs.AdversaryAction(kind="impersonate", step=1)],
    ids=["unknown-target", "replay-no-message", "inject-no-message",
         "impersonate-no-sender"])
def test_adversary_script_rejects_incomplete_action(action):
    # an unknown tamper target, a replay or inject without a message, and
    # an impersonation without a fake sender fail when the script is built
    with pytest.raises(ValueError):
        hs.AdversaryScript([action])


@pytest.mark.parametrize("target,field", [("m", "m"), ("tag", "i_tag"),
                                          ("sender", "sender_id")])
@pytest.mark.parametrize("offset", [2, 0])
def test_tamper_flips_one_byte_of_one_field(target, field, offset):
    width = len(getattr(_MSG, field))
    for byte_index in (offset, width + offset):   # indices wrap modulo
        script = hs.AdversaryScript([hs.AdversaryAction(
            kind="tamper", step=2, target=target, byte_index=byte_index,
            xor_mask=0x5A)])
        [(label, got, altered)] = script.transform(2, _MSG, lambda ms: None)
        assert (label, altered) == ("tamper", True)
        want = bytearray(getattr(_MSG, field))
        want[offset] ^= 0x5A
        assert getattr(got, field) == bytes(want)
        for other in {"m", "i_tag", "sender_id"} - {field}:
            assert getattr(got, other) == getattr(_MSG, other)


def test_dropped_flow_stalls_the_session(protocol_lab):
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(kind="drop", step=2)])
    out = hs.run_session(initiator, responder, script)
    assert not out.completed
    assert out.verdict == "stalled"
    assert out.initiator_phase == hs.SENT1
    assert out.responder_phase == hs.SENT2
    assert not out.adversary_win
    assert [e.verdict for e in out.transcript] == ["accepted", "dropped"]


def test_tampered_ciphertext_rejected(protocol_lab):
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(kind="tamper", step=3,
                                                    target="m", byte_index=7)])
    out = hs.run_session(initiator, responder, script)
    assert out.verdict == "failed:%s" % hs.BAD_HMAC
    assert out.responder_phase == hs.FAILED
    assert not out.adversary_win
    assert out.transcript[2].verdict == "rejected:%s" % hs.BAD_HMAC


def test_tampered_tag_rejected(protocol_lab):
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(kind="tamper", step=2,
                                                    target="tag")])
    out = hs.run_session(initiator, responder, script)
    assert out.verdict == "failed:%s" % hs.BAD_HMAC
    assert out.initiator_phase == hs.FAILED
    assert out.responder_phase == hs.SENT2
    assert not out.adversary_win


def test_tampered_sender_field_rejected(protocol_lab):
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(kind="tamper", step=1,
                                                    target="sender")])
    out = hs.run_session(initiator, responder, script)
    assert out.verdict == "failed:%s" % hs.BAD_LAYOUT
    assert not out.adversary_win


def test_impersonation_rejected(protocol_lab):
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(
        kind="impersonate", step=1, fake_sender=IMPOSTOR_ID)])
    out = hs.run_session(initiator, responder, script)
    assert out.verdict == "failed:%s" % hs.BAD_LAYOUT
    assert not out.adversary_win


def test_injected_garbage_rejected(protocol_lab):
    initiator, responder = protocol_lab
    junk = sc.RandomSource(13)
    fake = hs.HandshakeMessage(sender_id=INITIATOR_ID, m=junk.bytes(80),
                               i_tag=junk.bytes(32))
    script = hs.AdversaryScript([hs.AdversaryAction(kind="inject", step=1,
                                                    message=fake)])
    out = hs.run_session(initiator, responder, script)
    assert out.verdict == "failed:%s" % hs.BAD_HMAC
    assert not out.adversary_win


def test_noop_tamper_counts_as_win(protocol_lab):
    # mask 0 leaves the bytes unchanged; the receiver must accept it, and
    # the accounting must honestly score an accepted altered flow as a win
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(kind="tamper", step=3,
                                                    target="m", xor_mask=0)])
    out = hs.run_session(initiator, responder, script)
    assert out.completed
    assert out.adversary_win


def test_replayed_first_flow_is_caught_by_nonce_echo(protocol_lab):
    initiator, responder = protocol_lab
    flows = hs.record_honest_session(initiator, responder)
    script = hs.AdversaryScript([hs.AdversaryAction(kind="replay", step=1,
                                                    message=flows[0])])
    out = hs.run_session(initiator, responder, script)
    # the responder cannot distinguish a same-millisecond replay of flow 1,
    # so it answers; the initiator then sees a stale nonce echo
    assert out.transcript[0].verdict == "accepted"
    assert not out.adversary_win  # first-flow replay is exempt by design
    assert out.verdict == "failed:%s" % hs.BAD_NONCE_ECHO
    assert out.initiator_phase == hs.FAILED


def test_full_session_replay_never_wins(protocol_lab):
    initiator, responder = protocol_lab
    flows = hs.record_honest_session(initiator, responder)
    script = hs.AdversaryScript(
        [hs.AdversaryAction(kind="replay", step=k, message=flows[k - 1])
         for k in (1, 2, 3, 4)])
    out = hs.run_session(initiator, responder, script)
    assert not out.completed
    assert not out.adversary_win
    # every replayed flow after the first is rejected or ignored
    for entry in out.transcript[1:]:
        assert entry.verdict != "accepted"


def test_stale_replay_hits_report_expiry(protocol_lab, tiny_cfg):
    initiator, responder = protocol_lab
    flows = hs.record_honest_session(initiator, responder)
    script = hs.AdversaryScript([
        hs.AdversaryAction(kind="drop", step=1),
        hs.AdversaryAction(kind="delay", step=1,
                           delta_ms=tiny_cfg.expiry_ms + 1),
        hs.AdversaryAction(kind="replay", step=1, message=flows[0]),
    ])
    out = hs.run_session(initiator, responder, script)
    assert out.verdict == "failed:%s" % hs.REPORT_EXPIRED
    assert not out.adversary_win


def test_delayed_report_expires(protocol_lab, tiny_cfg):
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(
        kind="delay", step=1, delta_ms=tiny_cfg.expiry_ms + 1)])
    out = hs.run_session(initiator, responder, script)
    assert out.verdict == "failed:%s" % hs.REPORT_EXPIRED
    assert out.responder_phase == hs.FAILED
    assert not out.adversary_win


def test_delay_within_expiry_still_completes(protocol_lab, tiny_cfg):
    initiator, responder = protocol_lab
    script = hs.AdversaryScript([hs.AdversaryAction(
        kind="delay", step=1, delta_ms=tiny_cfg.expiry_ms)])
    out = hs.run_session(initiator, responder, script)
    assert out.completed
    assert not out.adversary_win  # delays alter timing, not bytes


def test_cached_stale_report_rejected(protocol_lab, tiny_cfg):
    initiator, responder = protocol_lab
    clock = initiator.ctx.clock
    from attestlab.attestor import SAFE, encode_report
    stale = encode_report(initiator.ctx, responder.id, SAFE)
    clock.advance(tiny_cfg.expiry_ms + 1)
    out = hs.run_session(initiator, responder, report_override=stale)
    assert out.verdict == "failed:%s" % hs.REPORT_EXPIRED
    assert not out.adversary_win


def test_future_timestamp_forgery_rejected(protocol_lab, tiny_cfg):
    # a compromised normal world flips IV byte 5 of a stale sealed report,
    # which moves t_ms 2**56 ms into the future
    initiator, responder = protocol_lab
    clock = initiator.ctx.clock
    from attestlab.attestor import SAFE, encode_report
    key = initiator.ctx.inner_key(responder.id)
    wins = 0
    for _ in range(4):
        forged = bytearray(encode_report(initiator.ctx, responder.id, SAFE))
        clock.advance(tiny_cfg.expiry_ms + 1)
        forged[5] ^= 0x01
        t_ms = int.from_bytes(sc.dec(bytes(forged), key)[5:13], "big")
        assert t_ms - clock.now() > 2 ** 55
        out = hs.run_session(initiator, responder,
                             report_override=bytes(forged))
        assert out.verdict == "failed:%s" % hs.REPORT_EXPIRED
        wins += int(out.adversary_win)
    assert wins == 0


def test_unsafe_sender_rejected(protocol_lab, bundle, tiny_cfg):
    initiator, responder = protocol_lab
    clock, keystore = initiator.ctx.clock, initiator.keystore
    unsafe_dev = hs.Device(
        INITIATOR_ID, bundle.profile,
        derive_seed(tiny_cfg.seed, "test-device", "unsafe"), bundle.qmodel,
        -1.0,  # impossible threshold: every self-check reports unsafe
        keystore, clock, sc.RandomSource(3), agg_width=tiny_cfg.agg_width,
        time_steps=bundle.spare_steps(tiny_cfg.twin_eval_traces))
    out = hs.run_session(unsafe_dev, responder)
    assert out.verdict == "failed:%s" % hs.PEER_UNSAFE
    assert out.responder_peer_verdict == 1
    assert not out.adversary_win


def test_record_honest_session_raises_when_blocked(protocol_lab, bundle,
                                                   tiny_cfg):
    initiator, responder = protocol_lab
    clock = initiator.ctx.clock
    lonely = sc.KeyStore()  # no provisioned pairs at all
    dev = hs.Device(INITIATOR_ID, bundle.profile, 77, bundle.qmodel,
                    bundle.calibration.t_opt, lonely, clock,
                    sc.RandomSource(0), agg_width=tiny_cfg.agg_width,
                    time_steps=bundle.spare_steps(tiny_cfg.twin_eval_traces))
    with pytest.raises(RuntimeError, match="did not complete"):
        hs.record_honest_session(dev, responder)
