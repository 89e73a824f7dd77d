"""End-to-end tests for the command line front end."""

import argparse
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from attestlab import attestor, cli, evalkit, model_io, trace
from attestlab.config import build_config, config_digest, load_config
from attestlab.seeds import derive_seed

CFG_TEXT = """\
# small pipeline for fast tests
seed = 5
firmware_count = 2
safe_traces = 120
horizon_factor = 2
traces_per_mutant = 8
severities = 1.0
control_flow_severities = 1.0
data_section_len = 256
n_variables = 12
epochs = 15
batch_size = 32
twin_eval_traces = 40
twin_other_firmware = 1
twin_other_traces = 20
sessions = 2
"""

N_MUTANTS = 4  # 3 data kinds x 1 severity + 1 control-flow


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run gen -> train -> quantize -> calibrate once, share the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(CFG_TEXT, encoding="utf-8")
    out = root / "out"
    common = ["--config", str(cfg_path), "--out", str(out)]

    assert cli.main(["gen", *common, "--firmware", "0"]) == 0
    fw_dir = out / "gen" / "fw0"
    safe_csv = fw_dir / "safe.csv"

    assert cli.main(["train", *common, "--traces", str(safe_csv)]) == 0
    model_path = out / "train" / "model.alm"

    assert cli.main(["quantize", *common, "--model", str(model_path),
                     "--traces", str(safe_csv)]) == 0
    quant_path = out / "quantize" / "model-quant.alm"

    assert cli.main(["calibrate", *common, "--model", str(quant_path),
                     "--traces", str(safe_csv)]) == 0
    calib_path = out / "calibrate" / "model-calibrated.alm"

    return {
        "root": root,
        "cfg_path": cfg_path,
        "cfg": load_config(str(cfg_path)),
        "out": out,
        "common": common,
        "fw_dir": fw_dir,
        "safe_csv": safe_csv,
        "model": model_path,
        "quant": quant_path,
        "calib": calib_path,
    }


# ----------------------------------------------------------- gen artifacts


def test_gen_writes_profile_and_corpora(pipeline):
    fw_dir = pipeline["fw_dir"]
    profile, made = trace.load_profile(str(fw_dir / "profile.json"))
    assert made == config_digest(pipeline["cfg"])
    assert profile.data_section_len == 256
    traces = trace.import_traces(str(pipeline["safe_csv"]))
    assert len(traces) == pipeline["cfg"].safe_traces
    assert (traces.labels == "safe").all()
    mutant_csvs = sorted(p.name for p in fw_dir.glob("*.csv")
                         if p.name != "safe.csv")
    assert len(mutant_csvs) == N_MUTANTS
    assert len(list(fw_dir.glob("*_profile.json"))) == N_MUTANTS
    one = trace.import_traces(str(fw_dir / mutant_csvs[0]))
    assert len(one) == pipeline["cfg"].traces_per_mutant
    assert (one.labels == "unsafe").all()


def test_gen_rejects_out_of_range_firmware(pipeline, capsys):
    assert cli.main(["gen", *pipeline["common"], "--firmware", "99"]) == 3
    assert "out of range" in capsys.readouterr().err


def test_gen_is_reproducible(pipeline, tmp_path):
    base = ["gen", "--config", str(pipeline["cfg_path"]), "--firmware", "0"]
    assert cli.main([*base, "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*base, "--out", str(tmp_path / "b")]) == 0
    for name in ("profile.json", "safe.csv", "tamper_data_1_profile.json",
                 "tamper_data_1.csv"):
        a = (tmp_path / "a" / "gen" / "fw0" / name).read_bytes()
        b = (tmp_path / "b" / "gen" / "fw0" / name).read_bytes()
        assert a == b, name
    first = (pipeline["fw_dir"] / "profile.json").read_bytes()
    assert first == (tmp_path / "a" / "gen" / "fw0" / "profile.json"
                     ).read_bytes()


def test_dataset_from_csv_reads_mixed_labels_in_file_order(pipeline,
                                                           tmp_path):
    cfg = pipeline["cfg"]
    safe = trace.import_traces(str(pipeline["safe_csv"]))
    unsafe = trace.import_traces(str(pipeline["fw_dir"] / "tamper_data_1.csv"))
    # unsafe row k follows safe row 2k + 1
    slots = np.concatenate([np.arange(len(safe)),
                            2 * np.arange(len(unsafe)) + 1.5])
    order = np.argsort(slots, kind="stable")
    mixed = trace.TraceBatch(**{
        c: np.concatenate([getattr(safe, c), getattr(unsafe, c)])[order]
        for c in ("data", "time_steps", "device_ids", "firmware_ids",
                  "labels")})
    fw_seed = derive_seed(cfg.seed, "firmware", 0)
    path = tmp_path / "mixed.csv"
    trace.export_traces(path, mixed, meta={"firmware_seed": fw_seed})
    assert trace.import_traces(path).labels[:6].tolist() == \
        ["safe", "safe", "unsafe", "safe", "safe", "unsafe"]

    got_seed, got = cli._dataset_from_csv(str(path), cfg)
    assert got_seed == fw_seed

    def features(batch):
        return trace.aggregate_many(batch.data, cfg.agg_width,
                                    cfg.data_section_len)

    want = trace.build_dataset(features(safe), features(unsafe),
                               ratios=cfg.ratios,
                               seed=derive_seed(fw_seed, "dataset"))
    assert len(got.test_unsafe) == len(unsafe)
    for name in ("train", "val", "test_safe", "test_unsafe"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


# --------------------------------------------- train / quantize / calibrate


def test_train_writes_model_container(pipeline):
    cont = model_io.load_container(str(pipeline["model"]))
    assert cont.model is not None
    assert cont.qmodel is None
    assert cont.meta["config"] == config_digest(pipeline["cfg"])
    assert cont.meta["seed"] == "5"
    assert cont.meta["arch"] == "M1"
    assert float(cont.meta["final_train_mse"]) > 0.0


def test_quantize_adds_integer_model(pipeline):
    cont = model_io.load_container(str(pipeline["quant"]))
    assert cont.model is not None and cont.qmodel is not None
    assert cont.calibration is None
    assert float(cont.meta["reduction_factor"]) > 1.0


def test_calibrate_adds_threshold(pipeline):
    cont = model_io.load_container(str(pipeline["calib"]))
    assert cont.qmodel is not None
    assert cont.calibration is not None
    assert cont.calibration.t_opt > 0.0
    assert cont.calibration.tnr_target in (0.95, 0.97, 0.99)


@pytest.fixture(scope="module")
def bundles(pipeline):
    return [evalkit.prepare_firmware(pipeline["cfg"], i) for i in (0, 1)]


@pytest.mark.parametrize("fw", [0, 1])
def test_chain_builds_the_detector_eval_scores(pipeline, bundles, fw,
                                               tmp_path):
    common = ["--config", str(pipeline["cfg_path"]), "--out", str(tmp_path)]
    csv = str(tmp_path / "gen" / ("fw%d" % fw) / "safe.csv")
    for argv in (["gen", *common, "--firmware", str(fw)],
                 ["train", *common, "--traces", csv],
                 ["quantize", *common, "--traces", csv,
                  "--model", str(tmp_path / "train" / "model.alm")],
                 ["calibrate", *common, "--traces", csv,
                  "--model", str(tmp_path / "quantize" / "model-quant.alm")]):
        assert cli.main(argv) == 0, argv
    cont = model_io.load_container(
        str(tmp_path / "calibrate" / "model-calibrated.alm"))
    b = bundles[fw]
    assert model_io.float_payload(cont.model) == \
        model_io.float_payload(b.model)
    assert model_io.quant_payload(cont.qmodel) == \
        model_io.quant_payload(b.qmodel)
    assert model_io.calibration_payload(cont.calibration) == \
        model_io.calibration_payload(b.calibration)


def test_handshake_retrains_the_chains_detector(pipeline):
    # handshake builds firmware 0 without mutants; the split ignores them
    b = evalkit.prepare_firmware(pipeline["cfg"], 0, with_mutants=False)
    cont = model_io.load_container(str(pipeline["calib"]))
    assert model_io.quant_payload(cont.qmodel) == \
        model_io.quant_payload(b.qmodel)
    assert cont.calibration == b.calibration


def test_train_needs_the_firmware_seed_line(pipeline, tmp_path, capsys):
    bare = tmp_path / "bare.csv"
    trace.export_traces(bare, trace.import_traces(str(pipeline["safe_csv"])),
                        meta={"seed": 5})
    code = cli.main(["train", *pipeline["common"], "--traces", str(bare)])
    assert code == 3
    assert "firmware_seed" in capsys.readouterr().err


def test_quantize_requires_float_model(pipeline, tmp_path, capsys):
    empty = tmp_path / "nofloat.alm"
    model_io.save_container(str(empty), meta={"x": "1"})
    code = cli.main(["quantize", *pipeline["common"], "--model", str(empty),
                     "--traces", str(pipeline["safe_csv"])])
    assert code == 3
    assert "no float model" in capsys.readouterr().err


def test_csv_made_under_another_config_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["gen", "--set", "safe_traces=200", "--firmware", "0",
                     "--out", str(out)]) == 0
    made = config_digest(build_config(None, {"safe_traces": "200"}))
    ours = config_digest(build_config(None, {}))
    capsys.readouterr()
    safe = out / "gen" / "fw0" / "safe.csv"
    code = cli.main(["train", "--traces", str(safe), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert made in err and ours in err
    assert not (out / "train" / "model.alm").exists()


@pytest.mark.parametrize("sub", ["quantize", "calibrate", "attest"])
def test_container_made_under_another_config_exits_3(pipeline, sub, tmp_path,
                                                     capsys):
    argv = {"quantize": ["--model", str(pipeline["model"]),
                         "--traces", str(pipeline["safe_csv"])],
            "calibrate": ["--model", str(pipeline["quant"]),
                          "--traces", str(pipeline["safe_csv"])],
            "attest": ["--model", str(pipeline["calib"]), "--profile",
                       str(pipeline["fw_dir"] / "profile.json")]}[sub]
    code = cli.main([sub, "--config", str(pipeline["cfg_path"]),
                     "--set", "seed=6", "--out", str(tmp_path), *argv])
    assert code == 3
    err = capsys.readouterr().err
    made = config_digest(pipeline["cfg"])
    ours = config_digest(load_config(str(pipeline["cfg_path"]), {"seed": 6}))
    assert made != ours
    assert made in err and ours in err
    # the container is checked before the CSV, so its path is named
    assert Path(argv[1]).name in err


def test_profile_made_under_another_config_exits_3(pipeline, tmp_path,
                                                   capsys):
    other = tmp_path / "other"
    assert cli.main(["gen", "--config", str(pipeline["cfg_path"]),
                     "--set", "n_variables=10", "--firmware", "0",
                     "--out", str(other)]) == 0
    profile = other / "gen" / "fw0" / "profile.json"
    made = config_digest(load_config(str(pipeline["cfg_path"]),
                                     {"n_variables": 10}))
    assert json.loads(profile.read_text(encoding="utf-8"))["config"] == made
    capsys.readouterr()
    code = cli.main(["attest", *pipeline["common"],
                     "--model", str(pipeline["calib"]),
                     "--profile", str(profile)])
    assert code == 3
    err = capsys.readouterr().err
    assert made in err and config_digest(pipeline["cfg"]) in err
    assert str(profile) in err


def test_profile_without_config_key_is_not_checked(pipeline, tmp_path,
                                                   capsys):
    d = json.loads((pipeline["fw_dir"] / "profile.json").read_text(
        encoding="utf-8"))
    assert d.pop("config") == config_digest(pipeline["cfg"])
    bare = tmp_path / "profile.json"
    bare.write_text(json.dumps(d), encoding="utf-8")
    assert trace.load_profile(bare) == (trace.profile_from_dict(d), None)
    assert cli.main(["attest", *pipeline["common"],
                     "--model", str(pipeline["calib"]),
                     "--profile", str(bare)]) == 0
    assert capsys.readouterr().out.startswith("self_verdict=")


# ------------------------------------------------------------------ attest


def _attest(pipeline, *extra):
    return cli.main(["attest", *pipeline["common"],
                     "--model", str(pipeline["calib"]),
                     "--profile", str(pipeline["fw_dir"] / "profile.json"),
                     *extra])


def test_attest_self_flow(pipeline, capsys):
    assert _attest(pipeline) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("self_verdict=")
    assert lines[1].startswith("outcome=completed report=")
    report_hex = lines[1].split("report=", 1)[1]
    assert len(bytes.fromhex(report_hex)) == 48
    # The demo self-check and the state machine each run one inference.
    assert lines[2] == "counters inference=2 report_encrypt=1"


def test_attest_reads_the_training_device_at_its_spare_steps(
        pipeline, bundles, monkeypatch):
    reads = []
    original = trace.sample_traces

    def recording(profile, device_seed, time_steps):
        reads.append((device_seed, list(time_steps)))
        return original(profile, device_seed, time_steps)

    monkeypatch.setattr(trace, "sample_traces", recording)
    ns = argparse.Namespace(model=str(pipeline["calib"]),
                            profile=str(pipeline["fw_dir"] / "profile.json"),
                            self_id="0a000001", peer_id="0a000002",
                            device_seed=None, start_step=None)
    ctx, _ = cli._attest_context(ns, pipeline["cfg"])
    ctx.sram_view()
    ctx.sram_view()
    b = bundles[0]
    device = derive_seed(b.firmware_seed, "device", 0)
    assert reads[0] == (device, [b.spare_steps(1)[0]])
    assert reads == [(device, [k]) for k in b.spare_steps(2)]


def test_attest_validate_round_trip(pipeline, capsys):
    # Encode a report as the peer device, then validate it via the CLI.
    ns = argparse.Namespace(model=str(pipeline["calib"]),
                            profile=str(pipeline["fw_dir"] / "profile.json"),
                            self_id="0a000002", peer_id="0a000001",
                            device_seed=None, start_step=0)
    peer_ctx, my_id = cli._attest_context(ns, pipeline["cfg"])
    report = attestor.encode_report(peer_ctx, my_id, attestor.SAFE)
    assert _attest(pipeline, "--validate", report.hex()) == 0
    out = capsys.readouterr().out
    assert "outcome=completed peer_verdict=0" in out


def test_attest_validate_garbage_report(pipeline, capsys):
    assert _attest(pipeline, "--validate", "00" * 48) == 0
    out = capsys.readouterr().out
    assert "outcome=abort_inconsistent_id peer_verdict=None" in out


def test_attest_without_sender_aborts(pipeline, capsys):
    assert _attest(pipeline, "--no-sender-id") == 0
    assert "outcome=abort_no_sender_id" in capsys.readouterr().out


# --------------------------------------------------------------- handshake


def test_handshake_honest_writes_jsonl(pipeline, tmp_path, capsys):
    code = cli.main(["handshake", "--config", str(pipeline["cfg_path"]),
                     "--out", str(tmp_path), "--scenario", "honest",
                     "--sessions", "2"])
    assert code == 0
    lines = (tmp_path / "handshake" / "honest.jsonl").read_text(
        encoding="utf-8").splitlines()
    # header + 2 sessions x (4 transcript entries + 1 outcome line)
    assert len(lines) == 1 + 2 * 5
    header = json.loads(lines[0])
    assert header["scenario"] == "honest"
    assert header["sessions"] == 2
    assert header["seed"] == 5
    assert header["config"] == config_digest(pipeline["cfg"])
    entry = json.loads(lines[1])
    assert set(entry) == {"session_id", "step", "direction", "sender_id",
                          "payload_hex", "tag_hex", "adversary_action",
                          "verdict"}
    for k in (1, 2):
        outcome = json.loads(lines[5 * k])
        assert outcome["verdict"] == "completed"
        assert outcome["adversary_win"] is False
    assert "adversary_wins=0" in capsys.readouterr().out


def test_handshake_tamper_scenario_fails_closed(pipeline, tmp_path, capsys):
    code = cli.main(["handshake", "--config", str(pipeline["cfg_path"]),
                     "--out", str(tmp_path), "--scenario", "tamper",
                     "--sessions", "1"])
    assert code == 0
    lines = (tmp_path / "handshake" / "tamper.jsonl").read_text(
        encoding="utf-8").splitlines()
    outcome = json.loads(lines[-1])
    assert outcome["verdict"] == "failed:bad_hmac"
    assert outcome["adversary_win"] is False
    assert "adversary_wins=0" in capsys.readouterr().out


def test_bench_provisions_like_the_cli(tiny_cfg, monkeypatch):
    # the bench provisions its own initiator/responder pair; it must be the
    # pair `handshake` runs, or the bench times devices the CLI never builds
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import workloads
    devices, _, _ = workloads.provision(tiny_cfg)
    bundle = evalkit.prepare_firmware(tiny_cfg, 0, with_mutants=False)
    pair = cli.provision(tiny_cfg, bundle)
    ids = (cli.INITIATOR_ID, cli.RESPONDER_ID)
    for bench_dev, cli_dev in zip((devices["i"], devices["j"]), pair):
        assert bench_dev.id == cli_dev.id
        for col in ("data", "time_steps", "device_ids", "firmware_ids",
                    "labels"):
            assert np.array_equal(getattr(bench_dev.sram, col),
                                  getattr(cli_dev.sram, col))
        assert (model_io.quant_payload(bench_dev.ctx.qmodel)
                == model_io.quant_payload(cli_dev.ctx.qmodel))
        assert bench_dev.ctx.t_opt == cli_dev.ctx.t_opt
        assert bench_dev.ctx.rng.bytes(32) == cli_dev.ctx.rng.bytes(32)
        assert bench_dev.ctx.clock.now() == cli_dev.ctx.clock.now()
        assert bench_dev.keystore.outer(*ids) == cli_dev.keystore.outer(*ids)
        assert bench_dev.ctx.inner_keys == cli_dev.ctx.inner_keys


# -------------------------------------------------------------------- eval


def test_eval_writes_reports(pipeline, tmp_path, capsys):
    code = cli.main(["eval", "--config", str(pipeline["cfg_path"]),
                     "--out", str(tmp_path), "--with-twin"])
    assert code == 0
    report = (tmp_path / "eval" / "report.txt").read_text(encoding="utf-8")
    assert report.splitlines()[0] == "# cross-firmware detection report"
    assert "config_digest=%s" % config_digest(pipeline["cfg"]) in report
    twin = (tmp_path / "eval" / "twin.txt").read_text(encoding="utf-8")
    assert twin.splitlines()[0] == "# twin transfer report"
    out = capsys.readouterr().out
    assert "eval macro:" in out
    assert "eval twin:" in out


@pytest.mark.parametrize("setting, message", [
    ("twin_eval_traces=7", "twin_eval_traces must be >= traces_per_mutant"),
    ("firmware_count=1", "needs at least two firmware images"),
])
def test_eval_fails_early_and_writes_nothing(pipeline, setting, message,
                                             tmp_path, capsys, monkeypatch,
                                             time_limit):
    if setting.startswith("firmware_count"):
        # the count is checked before any pipeline is built
        def never(cfg, i):
            raise ValueError("a pipeline was built")
        monkeypatch.setattr(evalkit, "prepare_firmware", never)
    code = cli.main(["eval", "--config", str(pipeline["cfg_path"]),
                     "--set", setting, "--out", str(tmp_path),
                     "--with-twin"])
    assert code == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_eval_without_twin_runs_no_twin_code(pipeline, tmp_path, capsys,
                                             monkeypatch, time_limit):
    def no_twin(cfg, bundle):
        raise ValueError("twin_transfer ran")

    monkeypatch.setattr(evalkit, "twin_transfer", no_twin)
    code = cli.main(["eval", "--config", str(pipeline["cfg_path"]),
                     "--set", "twin_eval_traces=7", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "eval").iterdir()) \
        == ["report.txt"]
    assert "eval twin:" not in capsys.readouterr().out
    assert multiprocessing.active_children() == []


# --------------------------------------------------- config and exit codes


@pytest.mark.parametrize("argv", [
    ["gen", "--set", "seedz=1"],
    ["gen", "--set", "seed=banana"],
    ["gen", "--set", "seed"],
    ["gen", "--set", "noise_factor=-1"],
    ["gen", "--config", "/nonexistent/config.cfg"],
])
def test_config_errors_exit_2(argv, tmp_path, capsys):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--traces", "/nonexistent/safe.csv"],
    ["quantize", "--model", "/nonexistent/model.alm",
     "--traces", "/nonexistent/safe.csv"],
    ["attest", "--model", "/nonexistent/model.alm",
     "--profile", "/nonexistent/profile.json"],
])
def test_missing_files_exit_3(argv, pipeline, tmp_path, capsys):
    code = cli.main([*argv, "--config", str(pipeline["cfg_path"]),
                     "--out", str(tmp_path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_train_on_overlong_csv_field_exits_3(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("device_id,firmware_id,time_step,label,b0\n"
                   '"%s",f,0,safe,1\n' % ("x" * 200_000))
    code = cli.main(["train", "--traces", str(bad), "--config",
                     str(pipeline["cfg_path"]), "--out", str(tmp_path)])
    assert code == 3
    assert "line 2: field larger" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["gen", "train", "quantize", "calibrate",
                                 "attest", "handshake", "eval"])
def test_help_exits_clean(sub):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ----------------------------------------------- output root and overrides


def test_out_env_var_sets_root(pipeline, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "envout"))
    code = cli.main(["gen", "--config", str(pipeline["cfg_path"]),
                     "--firmware", "0"])
    assert code == 0
    assert (tmp_path / "envout" / "gen" / "fw0" / "profile.json").exists()
    assert not (tmp_path / cli.DEFAULT_OUT).exists()


def test_seed_flag_and_set_override_config_file(pipeline, tmp_path):
    cfg_path = str(pipeline["cfg_path"])
    runs = {
        "set": ["gen", "--config", cfg_path, "--set", "seed=9",
                "--firmware", "0", "--out", str(tmp_path / "set")],
        "flag": ["gen", "--config", cfg_path, "--seed", "9",
                 "--firmware", "0", "--out", str(tmp_path / "flag")],
        "file": ["gen", "--config", cfg_path,
                 "--firmware", "0", "--out", str(tmp_path / "file")],
    }
    for argv in runs.values():
        assert cli.main(argv) == 0
    read = lambda k: (tmp_path / k / "gen" / "fw0" / "profile.json"
                      ).read_bytes()
    assert read("set") == read("flag")
    assert read("set") != read("file")
