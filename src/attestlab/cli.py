"""Command line front end for the attestation laboratory.

Subcommands mirror the pipeline: gen (training corpora), train (float
autoencoder), quantize (int8 conversion), calibrate (decision threshold),
attest (state machine, one device), handshake (adversarial protocol
sessions), eval (detection campaigns). gen, train, quantize and calibrate
run evalkit's stages, so their container is the detector eval scores.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure.
All artifacts embed the resolved config digest and master seed, and rerunning
a subcommand with the same inputs reproduces them byte for byte. train,
quantize, calibrate and attest exit 3 on an input whose recorded config
digest differs from their own.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path

from . import evalkit, handshake, model_io, quantize, trace
from . import secure_channel as sc
from .attestor import AttestationContext, run_attestation, self_attest
from .config import ExperimentConfig, build_config, config_digest, load_config
from .seeds import derive_seed

DEFAULT_OUT = "attestlab-out"
OUT_ENV_VAR = "ATTESTLAB_OUT"

INITIATOR_ID = bytes.fromhex("0a000001")
RESPONDER_ID = bytes.fromhex("0a000002")
IMPOSTOR_ID = bytes.fromhex("ee00ee1f")
CLOCK_START_MS = 10_000


def _out_root(args) -> Path:
    root = args.out or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT
    return Path(root)


def _outdir(args, sub: str) -> Path:
    d = _out_root(args) / sub
    d.mkdir(parents=True, exist_ok=True)
    return d


def _resolve_config(args) -> ExperimentConfig:
    overrides = {}
    for kv in args.set or []:
        if "=" not in kv:
            raise ValueError("--set expects key=value, got %r" % kv)
        k, v = kv.split("=", 1)
        overrides[k.strip()] = v.strip()
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if args.config:
        return load_config(args.config, overrides)
    return build_config(None, overrides)


def _base_meta(cfg: ExperimentConfig) -> dict:
    return {"config": config_digest(cfg), "seed": cfg.seed}


def _check_config(recorded, cfg: ExperimentConfig, source) -> None:
    """Refuse an input whose recorded config digest is not this run's."""
    if recorded is not None and recorded != config_digest(cfg):
        raise ValueError("%s was made under config %s, but this run's config "
                         "is %s; run every subcommand under one config"
                         % (source, recorded, config_digest(cfg)))


def _load_container(path, cfg: ExperimentConfig) -> model_io.Container:
    cont = model_io.load_container(path)
    _check_config((cont.meta or {}).get("config"), cfg, path)
    return cont


def _dataset_from_csv(path, cfg: ExperimentConfig):
    """(firmware seed, dataset) of a trace CSV that gen wrote: its rows
    split as prepare_firmware splits that firmware's corpus."""
    batch = trace.import_traces(path)
    meta = trace.read_meta(path)
    _check_config(meta.get("config"), cfg, path)
    if "firmware_seed" not in meta:
        raise ValueError("trace file %s has no '# firmware_seed=' line"
                         % path)
    fw_seed = int(meta["firmware_seed"])
    return fw_seed, evalkit.split_corpus(cfg, fw_seed, [batch])


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args, cfg: ExperimentConfig) -> int:
    """Export each firmware's training corpus, as prepare_firmware samples
    it, with the profiles it was sampled from."""
    out = _outdir(args, "gen")
    indices = [args.firmware] if args.firmware is not None \
        else list(range(cfg.firmware_count))
    for i in indices:
        if not 0 <= i < cfg.firmware_count:
            raise ValueError("firmware index %d out of range" % i)
        c = evalkit.sample_corpus(cfg, i)
        fw_dir = out / ("fw%d" % i)
        fw_dir.mkdir(parents=True, exist_ok=True)
        trace.save_profile(fw_dir / "profile.json", c.profile)
        meta = dict(_base_meta(cfg), firmware_index=i,
                    firmware_seed=c.firmware_seed,
                    device_seed=derive_seed(c.firmware_seed, "device", 0))
        trace.export_traces(fw_dir / "safe.csv", c.safe, meta=meta)
        for m_idx, (mp, batch) in enumerate(zip(c.mutants, c.unsafe)):
            name = "%s_%g" % (mp.mutation.kind, mp.mutation.severity)
            trace.save_profile(fw_dir / ("%s_profile.json" % name), mp)
            m_meta = dict(meta, mutation=name, device_seed=derive_seed(
                c.firmware_seed, "device", 0, "mutant", m_idx))
            trace.export_traces(fw_dir / ("%s.csv" % name), batch,
                                meta=m_meta)
        print("gen: firmware %d -> %s (%d safe, %d mutant profiles)"
              % (i, fw_dir, len(c.safe), len(c.mutants)))
    return 0


def cmd_train(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args, "train")
    fw_seed, ds = _dataset_from_csv(args.traces, cfg)
    model = evalkit.train_detector(cfg, fw_seed, ds)
    meta = dict(_base_meta(cfg), arch=cfg.arch,
                final_train_mse=repr(model.train_meta.final_train_mse))
    path = Path(args.model_out) if args.model_out else out / "model.alm"
    model_io.save_container(str(path), model=model,
                            meta={k: str(v) for k, v in meta.items()})
    print("train: %s on %d traces, final mse %.6e -> %s"
          % (cfg.arch, len(ds.train), model.train_meta.final_train_mse, path))
    return 0


def cmd_quantize(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args, "quantize")
    cont = _load_container(args.model, cfg)
    if cont.model is None:
        raise ValueError("container %s has no float model" % args.model)
    _, ds = _dataset_from_csv(args.traces, cfg)
    qmodel = evalkit.quantize_detector(cont.model, ds)
    report = quantize.size_report(cont.model, qmodel)
    meta = dict(cont.meta or {}, **{k: str(v)
                                    for k, v in _base_meta(cfg).items()})
    meta["reduction_factor"] = "%.4f" % report.reduction_factor
    path = Path(args.model_out) if args.model_out else out / "model-quant.alm"
    model_io.save_container(str(path), model=cont.model, qmodel=qmodel,
                            meta=meta)
    print("quantize: %d -> %d payload bytes (factor %.4f) -> %s"
          % (report.float_bytes, report.quant_bytes,
             report.reduction_factor, path))
    return 0


def cmd_calibrate(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args, "calibrate")
    cont = _load_container(args.model, cfg)
    if cont.qmodel is None:
        raise ValueError("container %s has no quantized model" % args.model)
    _, ds = _dataset_from_csv(args.traces, cfg)
    calib = evalkit.calibrate_detector(cont.qmodel, ds)
    meta = dict(cont.meta or {}, **{k: str(v)
                                    for k, v in _base_meta(cfg).items()})
    path = Path(args.model_out) if args.model_out \
        else out / "model-calibrated.alm"
    model_io.save_container(str(path), model=cont.model, qmodel=cont.qmodel,
                            calibration=calib, meta=meta)
    print("calibrate: gamma=%.6f target=%.2f t_opt=%.9e achieved=%.6f "
          "exact=%s -> %s" % (calib.gamma, calib.tnr_target, calib.t_opt,
                              calib.achieved_tnr, calib.exact, path))
    return 0


def _attest_context(args, cfg: ExperimentConfig):
    cont = _load_container(args.model, cfg)
    if cont.qmodel is None or cont.calibration is None:
        raise ValueError("attest needs a container with quantized model "
                         "and calibration sections")
    profile = trace.load_profile(args.profile)
    self_id = bytes.fromhex(args.self_id)
    peer_id = bytes.fromhex(args.peer_id)
    # by default the device that gen sampled, read at its spare steps
    fw_seed = profile.firmware_seed
    device_seed = args.device_seed if args.device_seed is not None \
        else derive_seed(fw_seed, "device", 0)
    steps = itertools.count(args.start_step) if args.start_step is not None \
        else iter(evalkit.step_permutation(cfg, fw_seed)[cfg.safe_traces:])
    inner = sc.RandomSource(derive_seed(cfg.seed, "attest-inner")).bytes(
        sc.KEY_LEN)
    clock = sc.SimulatedClock(start_ms=CLOCK_START_MS)

    def sram_view():
        return trace.sample_traces(profile, device_seed,
                                   [next(steps)]).data[0]

    ctx = AttestationContext(
        self_id=self_id, qmodel=cont.qmodel, t_opt=cont.calibration.t_opt,
        inner_keys={peer_id: inner}, clock=clock,
        rng=sc.RandomSource(derive_seed(cfg.seed, "attest-rng")),
        sram_view=sram_view, agg_width=cfg.agg_width, expiry_ms=cfg.expiry_ms)
    return ctx, peer_id


def cmd_attest(args, cfg: ExperimentConfig) -> int:
    ctx, peer_id = _attest_context(args, cfg)
    if args.no_sender_id:
        outcome = run_attestation(ctx)
        print("outcome=%s" % outcome.kind.value)
        return 0
    if args.validate is not None:
        outcome = run_attestation(ctx, sender_id=peer_id,
                                  sender_report=bytes.fromhex(args.validate))
        print("outcome=%s peer_verdict=%s" % (outcome.kind.value,
                                              outcome.peer_verdict))
        return 0
    verdict, err = self_attest(ctx)
    print("self_verdict=%s error=%.9e t_opt=%.9e"
          % ("safe" if verdict == 0 else "unsafe", err, ctx.t_opt))
    outcome = run_attestation(ctx, sender_id=peer_id,
                              self_attest_requested=True)
    print("outcome=%s report=%s" % (outcome.kind.value,
                                    outcome.report.hex()))
    print("counters inference=%d report_encrypt=%d"
          % (ctx.counters["inference"], ctx.counters["report_encrypt"]))
    return 0


def provision(cfg: ExperimentConfig, bundle: evalkit.FirmwareBundle,
              unsafe_initiator: bool = False):
    """Initiator and responder sharing the bundle's detector, one key store
    and one clock; with unsafe_initiator the initiator runs a mutant."""
    clock = sc.SimulatedClock(start_ms=CLOCK_START_MS)
    keystore = sc.KeyStore.generate(
        [INITIATOR_ID, RESPONDER_ID],
        sc.RandomSource(derive_seed(cfg.seed, "keys")))

    init_profile = bundle.profile
    if unsafe_initiator:
        init_profile = trace.mutate_profile(
            bundle.profile, "tamper_data", 1.0,
            derive_seed(cfg.seed, "hs-mutant"))

    spare = bundle.spare_steps(cfg.twin_eval_traces)

    def device(dev_id, profile, tag):
        return handshake.Device(
            dev_id, profile, derive_seed(cfg.seed, "hs-device", tag),
            bundle.qmodel, bundle.calibration.t_opt, keystore, clock,
            sc.RandomSource(derive_seed(cfg.seed, "hs-rng", tag)),
            agg_width=cfg.agg_width, expiry_ms=cfg.expiry_ms,
            time_steps=spare)

    return (device(INITIATOR_ID, init_profile, "i"),
            device(RESPONDER_ID, bundle.profile, "j"))


_A = handshake.AdversaryAction


def _stale(cfg: ExperimentConfig):
    return _A(kind="delay", step=1, delta_ms=cfg.expiry_ms + 1)


def _inject(cfg, initiator, responder):
    rng = sc.RandomSource(derive_seed(cfg.seed, "forge"))
    return [_A(kind="inject", step=1, message=handshake.HandshakeMessage(
        sender_id=initiator.id, m=rng.bytes(80), i_tag=rng.bytes(sc.TAG_LEN)))]


def _replay(cfg, initiator, responder, delay=()):
    recorded = handshake.record_honest_session(initiator, responder)
    return [*delay, _A(kind="replay", step=1, message=recorded[0])]


# scenario -> (cfg, initiator, responder) -> the adversary's actions
SCENARIOS = {
    "honest": lambda cfg, i, j: [],
    "drop": lambda cfg, i, j: [_A(kind="drop", step=2)],
    "tamper": lambda cfg, i, j: [_A(kind="tamper", step=3, target="m",
                                    byte_index=7)],
    "tamper_tag": lambda cfg, i, j: [_A(kind="tamper", step=2, target="tag",
                                        byte_index=0)],
    "impersonate": lambda cfg, i, j: [_A(kind="impersonate", step=1,
                                         fake_sender=IMPOSTOR_ID)],
    "inject": _inject,
    "replay": _replay,
    "replay_stale": lambda cfg, i, j: _replay(cfg, i, j, [_stale(cfg)]),
    "expired_report": lambda cfg, i, j: [_stale(cfg)],
    "unsafe_sender": lambda cfg, i, j: [],
}


def cmd_handshake(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args, "handshake")
    scenario = args.scenario
    bundle = evalkit.prepare_firmware(cfg, 0, with_mutants=False)
    initiator, responder = provision(
        cfg, bundle, unsafe_initiator=scenario == "unsafe_sender")
    script = handshake.AdversaryScript(
        SCENARIOS[scenario](cfg, initiator, responder))
    n = args.sessions if args.sessions is not None else cfg.sessions

    counts: dict[str, int] = {}
    wins = 0
    path = out / ("%s.jsonl" % scenario)
    with open(path, "w", encoding="utf-8") as f:
        header = dict(_base_meta(cfg), scenario=scenario, sessions=n)
        f.write(json.dumps(header, sort_keys=True) + "\n")
        for k in range(n):
            outcome = handshake.run_session(initiator, responder, script,
                                            session_id="%s-%d" % (scenario, k))
            counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
            wins += int(outcome.adversary_win)
            for e in outcome.transcript:
                f.write(json.dumps(e.__dict__, sort_keys=True) + "\n")
            f.write(json.dumps({"session_id": outcome.session_id,
                                "verdict": outcome.verdict,
                                "adversary_win": outcome.adversary_win},
                               sort_keys=True) + "\n")
    summary = " ".join("%s=%d" % (k, v) for k, v in sorted(counts.items()))
    print("handshake %s: %d sessions, %s, adversary_wins=%d -> %s"
          % (scenario, n, summary, wins, path))
    return 0


def cmd_eval(args, cfg: ExperimentConfig) -> int:
    out = _outdir(args, "eval")
    bundles = evalkit.prepare_all(cfg)
    res = evalkit.run_experiment(cfg, bundles)
    report = evalkit.format_experiment_report(res)
    path = out / "report.txt"
    path.write_text(report, encoding="utf-8")
    print("eval: %d firmware images -> %s" % (len(res.per_firmware), path))
    print("eval macro: tnr=%.4f tpr=%.4f f1_unsafe=%.4f auc=%.4f"
          % (res.macro["tnr"], res.macro["tpr"], res.macro["f1_unsafe"],
             res.macro["auc"]))
    if args.with_twin:
        tw = evalkit.twin_transfer(cfg, bundles[0])
        tw_path = out / "twin.txt"
        tw_path.write_text(evalkit.format_twin_report(tw), encoding="utf-8")
        print("eval twin: tnr=%.4f tpr=%.4f -> %s"
              % (tw.metrics.tnr, tw.metrics.tpr, tw_path))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to key=value config file")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", help="output root (default $%s or ./%s)"
                   % (OUT_ENV_VAR, DEFAULT_OUT))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attestlab",
        description="SRAM-trace attestation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate trace corpora")
    _add_common(p)
    p.add_argument("--firmware", type=int,
                   help="generate only this firmware index")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the float autoencoder")
    _add_common(p)
    p.add_argument("--traces", required=True, help="safe trace CSV")
    p.add_argument("--model-out", help="output container path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="int8-quantize a trained model")
    _add_common(p)
    p.add_argument("--model", required=True, help="float model container")
    p.add_argument("--traces", required=True, help="calibration trace CSV")
    p.add_argument("--model-out", help="output container path")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("calibrate", help="select the decision threshold")
    _add_common(p)
    p.add_argument("--model", required=True, help="quantized model container")
    p.add_argument("--traces", required=True, help="validation trace CSV")
    p.add_argument("--model-out", help="output container path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("attest", help="run the attestation state machine")
    _add_common(p)
    p.add_argument("--model", required=True, help="calibrated container")
    p.add_argument("--profile", required=True, help="firmware profile JSON")
    p.add_argument("--self-id", default="0a000001", help="4-byte hex id")
    p.add_argument("--peer-id", default="0a000002", help="4-byte hex id")
    p.add_argument("--device-seed", type=int,
                   help="SRAM power-up seed (default: the training device)")
    p.add_argument("--start-step", type=int,
                   help="first of consecutive SRAM time steps (default: "
                   "the spare steps, in turn)")
    p.add_argument("--validate", metavar="HEX",
                   help="validate this encrypted report instead")
    p.add_argument("--no-sender-id", action="store_true",
                   help="demonstrate the missing-sender abort")
    p.set_defaults(func=cmd_attest)

    p = sub.add_parser("handshake", help="run adversarial protocol sessions")
    _add_common(p)
    p.add_argument("--scenario", choices=SCENARIOS, default="honest")
    p.add_argument("--sessions", type=int, help="session count override")
    p.set_defaults(func=cmd_handshake)

    p = sub.add_parser("eval", help="run the detection campaign")
    _add_common(p)
    p.add_argument("--with-twin", action="store_true",
                   help="also run the twin transfer experiment")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
