"""The four benchmark workloads, driven through attestlab's public API.

Each workload provisions itself in `setup()` (called several times; the
last result is used), then runs whole rounds of operations with
`run_round()`, timing each operation alone. Outputs are recorded as the
rounds run and judged by `problems()` after the timed part. The workload
seed is the master seed of every configuration and device.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from attestlab import attestor, cli, evalkit, handshake, model_io, trace
from attestlab import secure_channel as sc
from attestlab.config import build_config
from attestlab.seeds import derive_seed

import checks

ID_I, ID_J, IMPOSTOR = cli.INITIATOR_ID, cli.RESPONDER_ID, cli.IMPOSTOR_ID
A = handshake.AdversaryAction
REJECT_REASONS = ("bad_hmac", "bad_nonce_echo", "bad_layout",
                  "report_expired", "report_inconsistent_id", "peer_unsafe",
                  "setup")


class Workload:
    name = ""
    round_s = 1.0        # one round's duration on the reference machine
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path, clock=perf_counter_ns):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.ops: list[tuple[int, int]] = []   # (start, end) per operation
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []   # outcomes reported, not gated

    def rounds_for(self, seconds: float) -> int:
        """Whole rounds filling `seconds` on the reference machine.

        The count depends only on `seconds`, so every run of one length
        does the same work and wall_s compares across commits.
        """
        return max(self.min_rounds, round(seconds / self.round_s))

    def reset_measurement(self) -> None:
        """Clear what the rounds record; called after the last setup()."""
        self.ops = []
        self.attempted = self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> None:
        raise NotImplementedError

    def problems(self) -> list[str]:
        raise NotImplementedError

    def layer_counts(self) -> dict:
        """Per-layer figures read from the program's outputs and state."""
        return {}

    def _timed(self, fn, *args, **kwargs):
        t0 = self.clock()
        out = fn(*args, **kwargs)
        self.ops.append((t0, self.clock()))
        self.attempted += 1
        return out


def _quiet_cli(argv) -> tuple[int, str]:
    """cli.main with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ------------------------------------------------------------------ campaign

class Campaign(Workload):
    """`attestlab eval --with-twin` on the default configuration.

    Operation k of a run uses master seed seed + k, so no two operations
    of a run share inputs and a cache kept between calls cannot help.
    """
    name = "campaign"
    round_s = 17.0
    min_rounds = 2

    def setup(self):
        self.cfg = build_config(None, {"seed": self.seed})

    def reset_measurement(self):
        super().reset_measurement()
        self.outputs = []

    def run_round(self, r):
        out = self.workdir / ("op%d" % r)
        argv = ["eval", "--with-twin", "--seed", str(self.seed + r),
                "--out", str(out)]
        rc, _ = self._timed(_quiet_cli, argv)
        self.outputs.append((rc, out / "eval"))

    def problems(self):
        found = []
        self.notes = []
        for rc, d in self.outputs:
            if rc != 0:
                found.append("eval exited %d" % rc)
                continue
            report = (d / "report.txt").read_text(encoding="utf-8")
            twin = (d / "twin.txt").read_text(encoding="utf-8")
            found += checks.check_campaign(report, twin,
                                           self.cfg.firmware_count)
            self.notes += checks.tnr_shortfalls(report, twin)
        return found

    def layer_counts(self):
        return {"evalkit.tnr_shortfall_rows": len(self.notes)}


# ---------------------------------------------------------------- handshakes

def provision(cfg, unsafe_initiator: bool = False):
    """Devices as `attestlab handshake` provisions them, from public API.

    A trained firmware-0 detector, KeyStore.generate, and handshake.Device
    objects stepping through the bundle's spare in-horizon steps. With
    unsafe_initiator an extra initiator runs a tamper_data mutant.
    """
    bundle = evalkit.prepare_firmware(cfg, 0, with_mutants=False)
    clock = sc.SimulatedClock(start_ms=cli.CLOCK_START_MS)
    keystore = sc.KeyStore.generate(
        [ID_I, ID_J], sc.RandomSource(derive_seed(cfg.seed, "keys")))
    spare = bundle.spare_steps(cfg.twin_eval_traces)

    def device(dev_id, profile, tag):
        return handshake.Device(
            dev_id, profile, derive_seed(cfg.seed, "hs-device", tag),
            bundle.qmodel, bundle.calibration.t_opt, keystore, clock,
            sc.RandomSource(derive_seed(cfg.seed, "hs-rng", tag)),
            agg_width=cfg.agg_width, expiry_ms=cfg.expiry_ms,
            time_steps=spare)

    devices = {"i": device(ID_I, bundle.profile, "i"),
               "j": device(ID_J, bundle.profile, "j")}
    if unsafe_initiator:
        mutant = trace.mutate_profile(bundle.profile, "tamper_data", 1.0,
                                      derive_seed(cfg.seed, "hs-mutant"))
        devices["u"] = device(ID_I, mutant, "u")
    return devices, keystore, clock


def _flows(outcome):
    return [(bytes.fromhex(e.sender_id), bytes.fromhex(e.payload_hex),
             bytes.fromhex(e.tag_hex)) for e in outcome.transcript]


class _HandshakeWorkload(Workload):
    unsafe_initiator = False
    # A Device fills its SRAM pool on first use and refills it every 256
    # self-checks. Provisioned at the same instant on the same steps, the
    # two devices would refill in the same session until an initiator
    # false alarm puts them out of phase, which on some seeds never
    # happens: op_tail_ms then read ~120 ms (two refills) instead of ~65
    # ms (one). Half a pool of untimed responder self-checks models
    # devices that did not boot in lockstep.
    RESPONDER_HEAD_START = 128

    def setup(self):
        self.cfg = build_config(None, {"seed": self.seed})
        self.devices, self.keystore, self.sim_clock = provision(
            self.cfg, self.unsafe_initiator)
        for _ in range(self.RESPONDER_HEAD_START):
            attestor.self_attest(self.devices["j"].ctx)

    def _inferences(self):
        return {k: d.ctx.counters["inference"]
                for k, d in self.devices.items()}

    def reset_measurement(self):
        super().reset_measurement()
        self.reasons = Counter()
        self._base = self._inferences()

    def _count_reasons(self, outcome):
        for reason in (outcome.initiator_reason, outcome.responder_reason):
            if reason:
                self.reasons[reason] += 1

    def layer_counts(self):
        now = self._inferences()
        inferences = sum(now[k] - self._base[k] for k in now)
        out = {"attestor.inferences_per_session":
               inferences / max(1, self.attempted),
               "attestor.issued_nonces": sum(
                   len(d.ctx.issued_nonces) for d in self.devices.values())}
        for reason in REJECT_REASONS:
            out["handshake.reject." + reason] = self.reasons[reason]
        return out


class HandshakeHonest(_HandshakeWorkload):
    """Honest four-flow sessions; one run_session call per operation."""
    name = "handshake_honest"
    round_s = 0.35
    min_rounds = 4
    SESSIONS = 256

    def reset_measurement(self):
        super().reset_measurement()
        self.verdicts = Counter()
        self.wins = self.accepted = 0
        self.flow_problems = []

    def run_round(self, r):
        ini, res = self.devices["i"], self.devices["j"]
        checked = False
        for k in range(self.SESSIONS):
            out = self._timed(handshake.run_session, ini, res,
                              session_id="h-%d-%d" % (r, k))
            self.verdicts[out.verdict] += 1
            self.wins += int(out.adversary_win)
            self.accepted += int(out.transcript[0].verdict == "accepted")
            self._count_reasons(out)
            if out.completed and not checked:
                checked = True
                self.flow_problems += checks.check_flows(
                    _flows(out), ID_I, ID_J, self.keystore.outer(ID_I, ID_J),
                    self.keystore.inner(ID_I, ID_J))

    def problems(self):
        now = self._inferences()
        init, resp = now["i"] - self._base["i"], now["j"] - self._base["j"]
        self.notes = checks.false_alarm_excess(
            self.verdicts["failed:peer_unsafe"], init + resp)
        return self.flow_problems + checks.check_honest(
            dict(self.verdicts), self.wins, init, resp, self.accepted)

    def layer_counts(self):
        out = super().layer_counts()
        out["attestor.false_alarms"] = self.verdicts["failed:peer_unsafe"]
        return out


def _xor(blob: bytes, index: int, mask: int = 0x01) -> bytes:
    buf = bytearray(blob)
    buf[index] ^= mask
    return bytes(buf)


class HandshakeAdversarial(_HandshakeWorkload):
    """The release-criterion-7 games plus two report forgeries.

    One round: tamper of every byte of the sender, m and tag fields of
    every flow; fabrication, replay, drop and impersonation at every slot;
    a stale replay; expired reports; unsafe-sender sessions; and the
    forgeries report_verdict_flip and report_future_ts.
    """
    name = "handshake_adversarial"
    round_s = 0.6
    min_rounds = 4
    unsafe_initiator = True
    PER_GAME = 8          # sessions per round of the non-exhaustive games

    def setup(self):
        super().setup()
        self.lens = [len(msg.m) for msg in self._record(-1)]

    def reset_measurement(self):
        super().reset_measurement()
        self.records = []     # one tuple of check_attack arguments + win
        self.unsafe = [0, 0, 0]  # rejected, sessions, adversary wins

    def _record(self, r):
        """Flows of one completed honest session (false alarms skipped)."""
        ini, res = self.devices["i"], self.devices["j"]
        for attempt in range(50):
            out = handshake.run_session(ini, res,
                                        session_id="rec-%d-%d" % (r, attempt))
            if out.completed:
                return [handshake.HandshakeMessage(*f) for f in _flows(out)]
        raise RuntimeError("no completed session in 50 attempts")

    def _attack(self, game, slot, actions, initiator="i", report=None):
        ini, res = self.devices[initiator], self.devices["j"]
        before = res.ctx.counters["inference"]
        out = self._timed(handshake.run_session, ini, res,
                          handshake.AdversaryScript(actions),
                          session_id="%s-%d" % (game, slot),
                          report_override=report)
        self._count_reasons(out)
        return out, res.ctx.counters["inference"] - before

    def _game(self, game, slot, actions, target=None, report=None):
        """One attacked session, recorded for check_attack.

        With no actions the attack is the overridden report, so the
        altered flow is flow 1 itself.
        """
        out, resp_inf = self._attack(game, slot, actions, report=report)
        first = out.transcript[0].verdict if out.transcript else "missing"
        altered = [e.verdict for e in out.transcript if e.step == slot
                   and e.adversary_action not in ("passthrough", "delay")]
        if not actions:
            altered = [first]
        self.records.append((game, target, slot,
                             altered[-1] if altered else "missing",
                             out.verdict, out.completed,
                             first.startswith("rejected"), resp_inf,
                             out.adversary_win))

    def run_round(self, r):
        for slot in (1, 2, 3, 4):
            for target, width in (("sender", 4), ("m", self.lens[slot - 1]),
                                  ("tag", sc.TAG_LEN)):
                for idx in range(width):
                    self._game("tamper", slot,
                               [A(kind="tamper", step=slot, target=target,
                                  byte_index=idx)], target)
        forge = sc.RandomSource(derive_seed(self.seed, "forge", r))
        for k in range(self.PER_GAME):
            slot = 1 + k % 4
            fake = handshake.HandshakeMessage(
                sender_id=ID_I if slot % 2 else ID_J,
                m=forge.bytes(self.lens[slot - 1]),
                i_tag=forge.bytes(sc.TAG_LEN))
            self._game("fabricate", slot,
                       [A(kind="inject", step=slot, message=fake)])
        recorded = self._record(r)
        for slot in (1, 2, 3, 4):
            self._game("replay", slot, [A(kind="replay", step=slot,
                                          message=recorded[slot - 1])])
            self._game("drop", slot, [A(kind="drop", step=slot)])
            self._game("impersonate", slot,
                       [A(kind="impersonate", step=slot,
                          fake_sender=IMPOSTOR)])
        stale = self.cfg.expiry_ms + 1
        self.sim_clock.advance(stale)   # the recorded first flow is now stale
        self._game("replay_stale", 1,
                   [A(kind="replay", step=1, message=recorded[0])])
        ini_ctx = self.devices["i"].ctx
        for _ in range(self.PER_GAME):
            cached = attestor.encode_report(ini_ctx, ID_J, attestor.SAFE)
            self.sim_clock.advance(stale)
            self._game("expired_report", 1, [], report=cached)
        for _ in range(self.PER_GAME):
            out, _ = self._attack("unsafe_sender", 1, [], initiator="u")
            self.unsafe[0] += int(out.responder_reason == "peer_unsafe")
            self.unsafe[1] += 1
            self.unsafe[2] += int(out.adversary_win)
        # report forgeries: the normal world alters the TEE's sealed report
        for _ in range(self.PER_GAME):
            # IV byte 4 flips plaintext byte 4, the verdict: unsafe -> safe
            report = _xor(attestor.encode_report(ini_ctx, ID_J,
                                                 attestor.UNSAFE), 4)
            self._forgery("report_verdict_flip", report)
            # IV byte 5 flips the top byte of t_ms: stale -> far future
            report = attestor.encode_report(ini_ctx, ID_J, attestor.SAFE)
            self.sim_clock.advance(stale)
            self._forgery("report_future_ts", _xor(report, 5))

    def _forgery(self, game, report):
        out, _ = self._attack(game, 1, [], report=report)
        if out.transcript[0].verdict == "accepted":
            # the responder took an altered report as genuine
            self.failed += 1

    def problems(self):
        found = []
        for (game, target, slot, altered, verdict, completed, flow1,
             resp_inf, win) in self.records:
            if win:
                found.append("%s slot %d: adversary win" % (game, slot))
            found += checks.check_attack(game, target, slot, altered,
                                         verdict, completed, flow1, resp_inf)
        rejected, sessions, wins = self.unsafe
        if wins:
            found.append("unsafe_sender: %d adversary wins" % wins)
        return found + checks.check_unsafe_senders(rejected, sessions)


# ----------------------------------------------------------------- cli chain

CHAIN_CONFIG = """\
firmware_count = 2
safe_traces = 2000
sessions = 25
"""


class CliChain(Workload):
    """gen -> train -> quantize -> calibrate -> attest -> handshake -> eval.

    One pass of the seven subcommands through cli.main is one operation;
    every run makes at least two passes and compares their artifacts.
    """
    name = "cli_chain"
    round_s = 9.5
    min_rounds = 2

    def setup(self):
        self.cfg_path = self.workdir / "chain.cfg"
        self.cfg_path.write_text(CHAIN_CONFIG + "seed = %d\n" % self.seed,
                                 encoding="utf-8")

    def reset_measurement(self):
        super().reset_measurement()
        self.passes = []

    def _chain(self, root: Path):
        common = ["--config", str(self.cfg_path), "--out", str(root)]
        safe = str(root / "gen" / "fw0" / "safe.csv")
        steps = [
            ("gen", ["gen", *common, "--firmware", "0"]),
            ("train", ["train", *common, "--traces", safe]),
            ("quantize", ["quantize", *common, "--model",
                          str(root / "train" / "model.alm"),
                          "--traces", safe]),
            ("calibrate", ["calibrate", *common, "--model",
                           str(root / "quantize" / "model-quant.alm"),
                           "--traces", safe]),
            ("attest", ["attest", *common, "--model",
                        str(root / "calibrate" / "model-calibrated.alm"),
                        "--profile", str(root / "gen" / "fw0" /
                                         "profile.json")]),
            ("handshake", ["handshake", *common, "--scenario", "honest"]),
            ("eval", ["eval", *common, "--with-twin"]),
        ]
        codes, outs = {}, {}
        for name, argv in steps:
            codes[name], outs[name] = _quiet_cli(argv)
            if codes[name] != 0:
                break
        return codes, outs

    def run_round(self, r):
        root = self.workdir / ("pass%d" % r)
        codes, outs = self._timed(self._chain, root)
        digests = {str(p.relative_to(root)): hashlib.sha256(
            p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}
        found = checks.check_cli_pass(codes, outs.get("attest", ""))
        for name in ("train/model.alm", "quantize/model-quant.alm",
                     "calibrate/model-calibrated.alm"):
            path = root / name
            if not path.is_file():
                found.append("%s was not written" % name)
                continue
            cont = model_io.load_container(str(path))
            if cont.qmodel is not None:
                found += checks.check_source_digest(
                    model_io.float_payload(cont.model),
                    cont.qmodel.source_digest)
        calibrated = root / "calibrate" / "model-calibrated.alm"
        self.passes.append((digests, outs.get("attest", ""), found,
                            calibrated.stat().st_size
                            if calibrated.is_file() else 0))
        shutil.rmtree(root)

    def problems(self):
        found = []
        for digests, attest_out, pass_found, _ in self.passes:
            found += pass_found
        first = self.passes[0]
        for later in self.passes[1:]:
            found += checks.check_identical(first[0], later[0])
            if later[1] != first[1]:
                found.append("attest stdout differs between passes")
        return found

    def layer_counts(self):
        return {"model_io.container_bytes":
                self.passes[-1][3] if self.passes else 0}


WORKLOADS = {w.name: w for w in (Campaign, HandshakeHonest,
                                 HandshakeAdversarial, CliChain)}
