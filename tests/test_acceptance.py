"""Acceptance gate: one test per release criterion, one verdict line each.

Run with -v to get a PASSED/FAILED line per criterion. Each test prints
the measured numbers behind its verdict. These tests exercise the full
default configuration, so this file is the slowest in the suite.
"""

import dataclasses
import time

import numpy as np
import pytest

from attestlab import attestor, autoenc, cli, evalkit, handshake, quantize
from attestlab import secure_channel as sc
from attestlab import threshold
from attestlab.attestor import (AttestationContext, OutcomeKind,
                                encode_report, run_attestation)
from attestlab.cli import INITIATOR_ID as ID_A
from attestlab.cli import RESPONDER_ID as ID_B
from attestlab.config import ExperimentConfig
from attestlab.seeds import derive_seed

DETERMINISM_CFG = """\
seed = 11
firmware_count = 2
safe_traces = 120
horizon_factor = 2
traces_per_mutant = 8
severities = 1.0
control_flow_severities = 1.0
data_section_len = 256
n_variables = 12
epochs = 10
batch_size = 32
twin_eval_traces = 40
twin_other_firmware = 1
twin_other_traces = 20
sessions = 2
"""


@pytest.fixture(scope="module")
def campaign():
    """Default 8-firmware suite, built once and reused by several criteria."""
    cfg = ExperimentConfig()
    t0 = time.perf_counter()
    bundles = [evalkit.prepare_firmware(cfg, i)
               for i in range(cfg.firmware_count)]
    result = evalkit.run_experiment(cfg, bundles)
    elapsed = time.perf_counter() - t0
    return cfg, bundles, result, elapsed


def _tnr_levels(errors):
    """Every validation TNR any threshold can achieve on this error set."""
    errors = np.asarray(errors, dtype=np.float64)
    cuts = np.append(np.unique(errors), errors.max() + 1.0)
    return sorted({float(np.mean(errors < c)) for c in cuts})


# --------------------------------------------------------------- criterion 1


def test_criterion_1_calibration_tolerance():
    families = {
        "uniform": lambda g, n: g.random(n),
        "lognormal": lambda g, n: g.lognormal(0.0, 0.75, n),
        "exponential": lambda g, n: g.exponential(1.0, n),
        "bimodal": lambda g, n: np.abs(np.concatenate(
            [g.normal(1.0, 0.1, n // 2), g.normal(3.0, 0.4, n - n // 2)])),
        "heavy_ties": lambda g, n: g.integers(0, 6, n).astype(float) / 4.0,
    }
    runs = exact_runs = 0
    worst_gap = worst_dt = 0.0
    for name, draw in families.items():
        for seed in range(8):
            for n in (400, 1371, 5000):
                errs = draw(np.random.default_rng((seed, n)), n)
                t0 = time.perf_counter()
                calib = threshold.calibrate(errs)
                dt = time.perf_counter() - t0
                assert dt < 1.0, "%s calibration took %.3fs" % (name, dt)
                worst_dt = max(worst_dt, dt)
                assert calib.achieved_tnr == float(
                    np.mean(errs < calib.t_opt))
                if calib.exact:
                    gap = abs(calib.achieved_tnr - calib.tnr_target)
                    assert gap < 0.005, name
                    worst_gap = max(worst_gap, gap)
                    exact_runs += 1
                else:
                    levels = _tnr_levels(errs)
                    below = [r for r in levels
                             if 0.0 < r <= calib.tnr_target]
                    want = max(below) if below else min(
                        r for r in levels if r > calib.tnr_target)
                    assert calib.achieved_tnr == want, name
                runs += 1
    assert exact_runs > 0 and exact_runs < runs  # both branches exercised
    print("CRITERION 1 PASS: %d calibrations (%d exact, worst gap %.6f), "
          "max runtime %.4fs" % (runs, exact_runs, worst_gap, worst_dt))


# --------------------------------------------------------------- criterion 2


def test_criterion_2_tnr_target_bands():
    g = np.random.default_rng(20260825)
    gammas = np.concatenate([
        g.random(600_000),
        g.random(399_993) * 3.0,
        [0.0, 0.2 - 1e-12, 0.2, 0.5 - 1e-12, 0.5, 0.19999999, 10.0],
    ])
    assert gammas.size == 1_000_000
    expected = np.where(gammas < 0.2, 0.99,
                        np.where(gammas < 0.5, 0.97, 0.95))
    got = np.fromiter((threshold.select_tnr_target(x) for x in gammas),
                      dtype=np.float64, count=gammas.size)
    mismatches = int(np.sum(got != expected))
    assert mismatches == 0
    print("CRITERION 2 PASS: %d random gap ratios, 0 band mismatches"
          % gammas.size)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_detection_suite(campaign):
    cfg, _, res, elapsed = campaign
    assert cfg.firmware_count == 8
    assert cfg.safe_traces >= 600
    assert cfg.severities == (0.25, 0.5, 1.0)
    assert res.macro["accuracy"] >= 0.95
    assert res.macro["tpr"] >= 0.95
    for r in res.per_firmware:
        assert r.metrics.tnr >= r.calibration.tnr_target - 0.02, \
            "fw%d tnr %.4f target %.2f" % (r.firmware_index, r.metrics.tnr,
                                           r.calibration.tnr_target)
        assert r.metrics.auc >= 0.97, \
            "fw%d auc %.4f" % (r.firmware_index, r.metrics.auc)
    assert elapsed < 600.0
    print("CRITERION 3 PASS: accuracy %.4f tpr %.4f min_tnr_slack %.4f "
          "min_auc %.4f in %.1fs"
          % (res.macro["accuracy"], res.macro["tpr"],
             min(r.metrics.tnr - r.calibration.tnr_target + 0.02
                 for r in res.per_firmware),
             min(r.metrics.auc for r in res.per_firmware), elapsed))


# --------------------------------------------------------------- criterion 4


def test_criterion_4_twin_transfer():
    cfg = ExperimentConfig()
    t0 = time.perf_counter()
    res = evalkit.twin_transfer(cfg, evalkit.prepare_firmware(cfg, 0))
    elapsed = time.perf_counter() - t0
    assert res.metrics.tnr >= 0.95, "twin tnr %.4f" % res.metrics.tnr
    assert res.metrics.tpr >= 0.98, "twin tpr %.4f" % res.metrics.tpr
    assert elapsed < 120.0
    print("CRITERION 4 PASS: twin tnr %.4f tpr %.4f (%d safe / %d unsafe "
          "traces) in %.1fs" % (res.metrics.tnr, res.metrics.tpr,
                                res.n_twin_safe, res.n_twin_unsafe, elapsed))


# --------------------------------------------------------------- criterion 5


def test_criterion_5a_decision_agreement(campaign):
    _, bundles, _, _ = campaign
    agreements = []
    for b in bundles:
        val = b.dataset.val
        f_err = autoenc.reconstruction_error(
            val, autoenc.reconstruct(b.model, val))
        q_err = evalkit.q_errors(b.qmodel, val)
        t = b.calibration.t_opt
        agreements.append(float(np.mean((f_err >= t) == (q_err >= t))))
    pooled = float(np.mean(agreements))
    assert pooled >= 0.97, "agreement %.4f" % pooled
    print("CRITERION 5a PASS: float/int8 decision agreement %.4f "
          "(per-firmware min %.4f)" % (pooled, min(agreements)))


def test_criterion_5b_payload_reduction(campaign):
    _, bundles, _, _ = campaign
    reports = [quantize.size_report(b.model, b.qmodel) for b in bundles]
    measured = min(r.reduction_factor for r in reports)
    w, b_ = reports[0].n_weights, reports[0].n_biases
    cap = 4.0 * (w + b_) / (w + 4.0 * b_)
    msg = ("payload reduction %.4f is below the required 3.5; with int8 "
           "weights and int32 biases the ratio is bounded by "
           "4(W+B)/(W+4B) = %.4f for this shape (W=%d, B=%d), so 3.5 is "
           "unattainable even with zero serialization overhead"
           % (measured, cap, w, b_))
    print("CRITERION 5b: measured %.4f, architectural ceiling %.4f "
          "(W=%d, B=%d, float %dB -> quant %dB)"
          % (measured, cap, w, b_, reports[0].float_bytes,
             reports[0].quant_bytes))
    assert measured >= 3.5, msg


def test_criterion_5c_output_deviation(campaign):
    _, bundles, _, _ = campaign
    worst = 0.0
    for b in bundles:
        x = b.dataset.train  # the activation-calibration inputs
        f = autoenc.reconstruct(b.model, x)
        q = quantize.q_reconstruct(b.qmodel, x)
        worst = max(worst, float(np.max(np.abs(f - q))))
    assert worst <= 0.05, "max-norm deviation %.4f" % worst
    print("CRITERION 5c PASS: max-norm float/int8 output deviation %.4f"
          % worst)


# --------------------------------------------------------------- criterion 6


def _lattice_ctx(self_id, peer_id, clock, seed, key):
    model = autoenc.init_model("M1", 8, seed=0)
    qm = quantize.quantize_model(
        model, np.random.default_rng(0).random((32, 8)))
    view_rng = np.random.default_rng(seed)
    return AttestationContext(
        self_id=self_id, qmodel=qm, t_opt=np.inf, inner_keys={peer_id: key},
        clock=clock, rng=sc.RandomSource(seed),
        sram_view=lambda: view_rng.integers(0, 256, 32).astype(np.uint8),
        agg_width=4, expiry_ms=5000)


def test_criterion_6_case_lattice():
    key = bytes(range(16))
    checked = 0
    for sender_known in (False, True):
        for case in ("none", "fresh_safe", "fresh_unsafe", "expired",
                     "garbage"):
            for a_self in (False, True):
                clock = sc.SimulatedClock(10_000)
                peer = _lattice_ctx(ID_A, ID_B, clock, 1, key)
                me = _lattice_ctx(ID_B, ID_A, clock, 2, key)
                report = None
                if case == "garbage":
                    report = sc.RandomSource(7).bytes(48)
                elif case == "expired":
                    report = encode_report(peer, ID_B, attestor.SAFE)
                    clock.advance(me.expiry_ms + 1)
                elif case != "none":
                    verdict = (attestor.SAFE if case == "fresh_safe"
                               else attestor.UNSAFE)
                    report = encode_report(peer, ID_B, verdict)

                out = run_attestation(
                    me, sender_id=ID_A if sender_known else None,
                    sender_report=report, self_attest_requested=a_self)

                if not sender_known:
                    want = OutcomeKind.ABORT_NO_SENDER_ID
                elif case == "none" and not a_self:
                    want = OutcomeKind.ABORT_TRIVIAL_INPUT
                elif case == "garbage":
                    want = OutcomeKind.ABORT_INCONSISTENT_ID
                elif case == "expired":
                    want = OutcomeKind.ABORT_EXPIRED_REPORT
                elif case == "fresh_unsafe":
                    want = OutcomeKind.SENDER_UNSAFE
                else:
                    want = OutcomeKind.COMPLETED
                assert out.kind is want, (sender_known, case, a_self)

                # lazy aborts: no inference or encryption off the happy path
                ran_self = want is OutcomeKind.COMPLETED and a_self
                assert me.counters["inference"] == int(ran_self)
                assert me.counters["report_encrypt"] == int(ran_self)
                assert (out.report is not None) == ran_self
                checked += 1
    assert checked == 20
    print("CRITERION 6 PASS: %d lattice cases with lazy-abort counters"
          % checked)


# --------------------------------------------------------------- criterion 7


@pytest.fixture(scope="module")
def protocol_rig(campaign):
    """A fresh device pair per game, on its own key and device streams."""
    cfg, bundles, _, _ = campaign

    def build(tag, unsafe_initiator=False):
        game_cfg = dataclasses.replace(
            cfg, seed=derive_seed(cfg.seed, "accept", tag))
        return cli.provision(game_cfg, bundles[0], unsafe_initiator)

    return build


def _record_completed(initiator, responder, tag, limit=50):
    """Record a completed session, skipping honest false-alarm failures.

    A safe device's self-check trips above the threshold on a small
    fraction of time steps by design, and those sessions fail cleanly.
    The adversary can only replay flows it saw complete.
    """
    for attempt in range(limit):
        try:
            return handshake.record_honest_session(
                initiator, responder, session_id="%s-%d" % (tag, attempt))
        except RuntimeError:
            continue
    raise AssertionError("no completed session within %d attempts" % limit)


def _game_fabrication(rig):
    initiator, responder = rig("fab")
    recorded = _record_completed(initiator, responder, "fab-rec")
    lens = [len(msg.m) for msg in recorded]
    forge = sc.RandomSource(derive_seed(77, "forge"))
    wins = sessions = 0
    for k in range(1000):
        slot = 1 + k % 4
        sender = recorded[slot - 1].sender_id
        fake = handshake.HandshakeMessage(
            sender_id=sender, m=forge.bytes(lens[slot - 1]),
            i_tag=forge.bytes(sc.TAG_LEN))
        script = handshake.AdversaryScript(
            [handshake.AdversaryAction(kind="inject", step=slot,
                                       message=fake)])
        out = handshake.run_session(initiator, responder, script,
                                    session_id="fab-%d" % k)
        assert not out.completed
        wins += int(out.adversary_win)
        sessions += 1
    return "fabrication", sessions, wins


def _game_replay(rig):
    initiator, responder = rig("rep")
    wins = sessions = 0
    for k in range(250):
        recorded = _record_completed(initiator, responder, "rep-rec-%d" % k)
        for slot in (1, 2, 3, 4):
            script = handshake.AdversaryScript(
                [handshake.AdversaryAction(kind="replay", step=slot,
                                           message=recorded[slot - 1])])
            out = handshake.run_session(initiator, responder, script,
                                        session_id="rep-%d-%d" % (k, slot))
            assert not out.completed
            wins += int(out.adversary_win)
            if slot > 1:
                for e in out.transcript:
                    if e.adversary_action == "replay":
                        assert e.verdict != "accepted"
            sessions += 1
    return "replay", sessions, wins


def _game_tamper(rig):
    initiator, responder = rig("tam")
    recorded = _record_completed(initiator, responder, "tam-rec")
    wins = sessions = 0
    for mask in (0x01, 0x10, 0x80):
        for slot in (1, 2, 3, 4):
            spans = (("sender", 4), ("m", len(recorded[slot - 1].m)),
                     ("tag", sc.TAG_LEN))
            for target, width in spans:
                for idx in range(width):
                    script = handshake.AdversaryScript(
                        [handshake.AdversaryAction(
                            kind="tamper", step=slot, target=target,
                            byte_index=idx, xor_mask=mask)])
                    out = handshake.run_session(
                        initiator, responder, script,
                        session_id="tam-%d-%s-%d-%d" % (slot, target, idx,
                                                        mask))
                    assert not out.completed
                    wins += int(out.adversary_win)
                    sessions += 1
    return "tamper", sessions, wins


def _game_expired_report(rig):
    initiator, responder = rig("exp")
    clock = initiator.ctx.clock
    wins = sessions = 0
    for k in range(1000):
        cached = encode_report(initiator.ctx, responder.id, attestor.SAFE)
        clock.advance(initiator.ctx.expiry_ms + 1)
        out = handshake.run_session(initiator, responder,
                                    session_id="exp-%d" % k,
                                    report_override=cached)
        assert out.verdict == "failed:report_expired"
        wins += int(out.adversary_win)
        sessions += 1
    return "expired_report", sessions, wins


def _game_unsafe_sender(rig):
    initiator, responder = rig("uns", unsafe_initiator=True)
    wins = sessions = rejected = 0
    for k in range(1000):
        out = handshake.run_session(initiator, responder,
                                    session_id="uns-%d" % k)
        # count only the responder turning the unsafe initiator away
        rejected += int(out.responder_reason == "peer_unsafe")
        wins += int(out.adversary_win)
        sessions += 1
    assert rejected >= 0.95 * sessions, "%d/%d rejected" % (rejected,
                                                            sessions)
    return "unsafe_sender(%d/%d)" % (rejected, sessions), sessions, wins


def test_criterion_7_protocol_games(protocol_rig):
    t0 = time.perf_counter()
    games = [_game_fabrication(protocol_rig),
             _game_replay(protocol_rig),
             _game_tamper(protocol_rig),
             _game_expired_report(protocol_rig),
             _game_unsafe_sender(protocol_rig)]
    elapsed = time.perf_counter() - t0
    for name, sessions, wins in games:
        assert sessions >= 1000, name
        assert wins == 0, "%s: %d adversary wins" % (name, wins)
    assert elapsed < 180.0
    print("CRITERION 7 PASS: %s, 0 wins anywhere, %.1fs total"
          % (", ".join("%s n=%d" % (n, s) for n, s, _ in games), elapsed))


# --------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(DETERMINISM_CFG, encoding="utf-8")

    def run_chain(root):
        common = ["--config", str(cfg_path), "--out", str(root)]
        assert cli.main(["gen", *common, "--firmware", "0"]) == 0
        safe = str(root / "gen" / "fw0" / "safe.csv")
        assert cli.main(["train", *common, "--traces", safe]) == 0
        assert cli.main(["quantize", *common,
                         "--model", str(root / "train" / "model.alm"),
                         "--traces", safe]) == 0
        assert cli.main(["calibrate", *common,
                         "--model", str(root / "quantize" /
                                        "model-quant.alm"),
                         "--traces", safe]) == 0
        capsys.readouterr()  # drop pipeline chatter, keep only attest output
        assert cli.main(["attest", *common,
                         "--model", str(root / "calibrate" /
                                        "model-calibrated.alm"),
                         "--profile", str(root / "gen" / "fw0" /
                                          "profile.json")]) == 0
        attest_stdout = capsys.readouterr().out
        assert cli.main(["handshake", *common, "--scenario", "honest",
                         "--sessions", "2"]) == 0
        assert cli.main(["eval", *common, "--with-twin"]) == 0
        return attest_stdout

    out_a = run_chain(tmp_path / "a")
    out_b = run_chain(tmp_path / "b")
    assert out_a == out_b  # attest writes no file; its stdout must match

    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    diffs = [str(rel) for rel in files_a
             if ((tmp_path / "a" / rel).read_bytes()
                 != (tmp_path / "b" / rel).read_bytes())]
    assert diffs == []
    print("CRITERION 8 PASS: %d artifacts byte-identical across two runs "
          "of all 7 subcommands" % len(files_a))


# --------------------------------------------------------------- criterion 9


def _auc_pair_count(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return wins / (len(pos) * len(neg))


def test_criterion_9_numerical_core(gradcheck):
    g = np.random.default_rng(99)
    worst = 0.0
    for arch in ("M1", "M2", "M3"):
        model = autoenc.init_model(arch, 8, seed=3, dropout_rate=0.0)
        x = g.random((12, 8))
        y = g.random((12, 8))
        worst = max(worst, gradcheck(model, x, y, step=1e-4))
    assert worst < 1e-3, "gradient mismatch %.2e" % worst

    worst_auc_gap = 0.0
    for seed in range(6):
        gg = np.random.default_rng(seed)
        n = int(gg.integers(10, 201))
        labels = gg.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        if seed % 2:
            scores = gg.integers(0, 5, size=n).astype(np.float64)
        else:
            scores = gg.normal(size=n)
        gap = abs(evalkit.roc_auc(scores, labels)
                  - _auc_pair_count(scores, labels))
        assert gap < 1e-12
        worst_auc_gap = max(worst_auc_gap, gap)
    print("CRITERION 9 PASS: worst gradient mismatch %.2e, worst AUC "
          "oracle gap %.2e" % (worst, worst_auc_gap))
