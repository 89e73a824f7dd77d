"""Each benchmark check accepts a good output and rejects a known-bad one."""

import hashlib
import hmac

import pytest
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

import checks
import run

HEADER = ("fw", "gamma", "tnr_target", "t_opt", "val_tnr", "tnr", "tpr",
          "f1_unsafe", "f1_safe", "auc", "reduction")


def report(rows, macro_override=None):
    """An eval report.txt in the program's format, macro = row means."""
    cols = ("val_tnr", "tnr", "tpr", "f1_unsafe", "f1_safe", "auc")
    macro = {c: sum(r[c] for r in rows) / len(rows) for c in cols}
    macro["reduction_factor"] = sum(r["reduction"] for r in rows) / len(rows)
    macro["accuracy"] = 0.99
    macro.update(macro_override or {})
    lines = ["# cross-firmware detection report", "config_digest=x",
             "seed=1", "\t".join(HEADER)]
    for r in rows:
        lines.append("\t".join([
            "%d" % r["fw"], "%.6f" % r["gamma"], "%.2f" % r["tnr_target"],
            "1e-4", *("%.6f" % r[c] for c in cols),
            "%.4f" % r["reduction"]]))
    lines.append("macro\t" + "\t".join("%s=%.6f" % kv
                                       for kv in sorted(macro.items())))
    return "\n".join(lines) + "\n"


def row(fw, **kw):
    r = dict(fw=fw, gamma=0.1, tnr_target=0.99, val_tnr=0.99, tnr=0.985,
             tpr=0.997, f1_unsafe=0.998, f1_safe=0.95, auc=0.998,
             reduction=3.28)
    r.update(kw)
    return r


TWIN = "# twin transfer report\ntnr=0.983333\ntpr=1.000000\n"


def test_campaign_accepts_good_report():
    rows = [row(i) for i in range(8)]
    rows[3].update(gamma=0.3, tnr_target=0.97)
    rows[5].update(gamma=0.7, tnr_target=0.95)
    assert checks.check_campaign(report(rows), TWIN, 8) == []


@pytest.mark.parametrize("bad", [
    dict(auc=0.96),                       # AUC below 0.97
    dict(gamma=0.25),                     # 0.99 target with a 0.97 gamma
])
def test_campaign_rejects_bad_row(bad):
    rows = [row(i) for i in range(8)]
    rows[2].update(bad)
    assert checks.check_campaign(report(rows), TWIN, 8)


@pytest.mark.parametrize("override", [
    {"accuracy": 0.94}, {"tpr": 0.94}, {"tnr": 0.5},
])
def test_campaign_rejects_bad_macro(override):
    rows = [row(i) for i in range(8)]
    assert checks.check_campaign(report(rows, override), TWIN, 8)


def test_campaign_rejects_weak_twin_and_missing_rows():
    rows = [row(i) for i in range(8)]
    assert checks.check_campaign(report(rows), "tnr=0.99\ntpr=0.97\n", 8)
    assert checks.check_campaign(report(rows[:7]), TWIN, 8)


def test_tnr_shortfalls_are_reported_not_gated():
    rows = [row(i) for i in range(8)]
    assert checks.tnr_shortfalls(report(rows), TWIN) == []
    rows[7].update(tnr_target=0.97, gamma=0.22, tnr=0.948)
    weak_twin = "tnr=0.946667\ntpr=1.000000\n"
    assert checks.check_campaign(report(rows), weak_twin, 8) == []
    assert len(checks.tnr_shortfalls(report(rows), weak_twin)) == 2


def test_honest_checks():
    good = dict(verdicts={"completed": 97, "failed:peer_unsafe": 3},
                wins=0, init_inferences=100, resp_inferences=98,
                resp_accepted=98)
    assert checks.check_honest(**good) == []
    for bad in (dict(wins=1),
                dict(verdicts={"completed": 99, "failed:bad_hmac": 1}),
                dict(init_inferences=99),
                dict(resp_inferences=99)):
        assert checks.check_honest(**dict(good, **bad)), bad
    assert checks.false_alarm_excess(3, 198) == []
    assert checks.false_alarm_excess(20, 180)


def _seal(plain, key, iv):
    p = padding.PKCS7(128).padder()
    e = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return iv + e.update(p.update(plain) + p.finalize()) + e.finalize()


def _session(outer, inner, id_i, id_j, verdict_j=0):
    n = [bytes([k]) * 16 for k in range(1, 5)]
    r_i = _seal(id_i + b"\x00" + bytes(8) + bytes(16), inner, bytes(16))
    r_j = _seal(id_j + bytes([verdict_j]) + bytes(8) + bytes(16), inner,
                bytes(16))
    plains = [id_i + n[0] + r_i, id_j + n[0] + n[1] + r_j,
              id_i + n[1] + n[2], id_j + n[2] + n[3]]
    flows = []
    for k, p in enumerate(plains):
        m = _seal(p, outer, bytes([k]) * 16)
        flows.append((id_i if k % 2 == 0 else id_j, m,
                      hmac.new(outer, m, hashlib.sha256).digest()))
    return flows


def test_flows_checked_without_attestlab():
    outer, inner = b"o" * 16, b"i" * 16
    id_i, id_j = b"\x0a\x00\x00\x01", b"\x0a\x00\x00\x02"
    assert checks.check_flows(_session(outer, inner, id_i, id_j),
                              id_i, id_j, outer, inner) == []
    bad_tag = _session(outer, inner, id_i, id_j)
    bad_tag[2] = (bad_tag[2][0], bad_tag[2][1], bytes(32))
    assert checks.check_flows(bad_tag, id_i, id_j, outer, inner)
    unsafe = _session(outer, inner, id_i, id_j, verdict_j=1)
    assert checks.check_flows(unsafe, id_i, id_j, outer, inner)
    swapped = _session(outer, inner, id_j, id_i)
    assert checks.check_flows(swapped, id_i, id_j, outer, inner)


def test_attack_checks():
    ok = ("tamper", "m", 2, "rejected:bad_hmac", "failed:bad_hmac", False,
          False, 1)
    assert checks.check_attack(*ok) == []
    # wrong reason, a completed session, inference after a flow-1 reject
    assert checks.check_attack("tamper", "sender", 1, "rejected:bad_hmac",
                               "failed:bad_hmac", False, True, 0)
    assert checks.check_attack("drop", None, 4, "dropped", "completed",
                               True, False, 1)
    assert checks.check_attack("fabricate", None, 1, "rejected:bad_hmac",
                               "failed:bad_hmac", False, True, 1)
    # the altered slot may go unreached only after a detector alarm
    assert checks.check_attack("tamper", "tag", 3, "missing",
                               "failed:peer_unsafe", False, False, 1) == []
    assert checks.check_attack("tamper", "tag", 3, "missing", "stalled",
                               False, False, 1)
    assert checks.check_attack("replay", None, 4, "ignored",
                               "failed:peer_unsafe", False, False, 1) == []
    assert checks.check_attack("replay", None, 4, "ignored",
                               "failed:bad_layout", False, False, 1)
    assert checks.check_attack("replay", None, 4, "rejected:bad_layout",
                               "failed:peer_unsafe", False, False, 1) == []
    assert checks.check_attack("replay", None, 4, "accepted",
                               "failed:peer_unsafe", False, False, 1)
    assert checks.check_attack("replay", None, 1, "accepted",
                               "failed:bad_nonce_echo", False, False, 1) == []
    assert checks.check_attack("replay", None, 1, "accepted",
                               "failed:peer_unsafe", False, False, 1)


def test_unsafe_sender_rate():
    assert checks.check_unsafe_senders(95, 100) == []
    assert checks.check_unsafe_senders(94, 100)


def test_cli_checks():
    codes = {"gen": 0, "train": 0, "attest": 0}
    assert checks.check_cli_pass(codes, "outcome=completed report=ab\n") == []
    assert checks.check_cli_pass(dict(codes, train=3), "outcome=completed")
    assert checks.check_cli_pass(codes, "outcome=sender_unsafe")
    a = {"train/model.alm": "1", "gen/fw0/safe.csv": "2"}
    assert checks.check_identical(a, dict(a)) == []
    assert checks.check_identical(a, dict(a, **{"train/model.alm": "3"}))
    assert checks.check_identical(a, {"train/model.alm": "1"})
    assert checks.check_identical({}, {})
    payload = b"float model"
    assert checks.check_source_digest(
        payload, hashlib.sha256(payload).digest()) == []
    assert checks.check_source_digest(payload, bytes(32))


def test_tail_percentile():
    assert run.tail([3, 1, 2]) == 3            # too few samples: slowest
    values = list(range(100))
    assert run.tail(values) == 89              # ten samples beyond it


def test_tracer_spans_self_time_and_restore():
    from attestlab import handshake
    from attestlab import secure_channel as sc
    from tracing import Tracer

    original, refill = sc.hmac_tag, handshake.sample_traces
    key = bytes(16)
    with Tracer() as t:
        assert sc.hmac_tag is not original
        assert handshake.sample_traces is not refill
        assert sc.hmac_verify(b"m", key, original(b"m", key))
    assert sc.hmac_tag is original and handshake.sample_traces is refill
    s = t.summary()
    verify, tag = s["secure_channel.hmac_verify"], s["secure_channel.hmac_tag"]
    assert verify["calls"] == 1 and tag["calls"] == 1
    # the inner hmac_tag span is the verify span's child
    assert verify["self_ns"] == verify["total_ns"] - tag["total_ns"]
    assert tag["self_ns"] == tag["total_ns"]
