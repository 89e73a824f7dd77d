"""End-to-end tests for the command line front end."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from attestlab import attestor, cli, evalkit, model_io, trace
from attestlab.config import config_digest, load_config
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
    profile = trace.load_profile(str(fw_dir / "profile.json"))
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
    path = tmp_path / "mixed.csv"
    trace.export_traces(path, mixed)
    assert trace.import_traces(path).labels[:6].tolist() == \
        ["safe", "safe", "unsafe", "safe", "safe", "unsafe"]

    got = cli._dataset_from_csv(str(path), cfg)

    def features(batch):
        return trace.aggregate_many(batch.data, cfg.agg_width,
                                    cfg.data_section_len)

    want = trace.build_dataset(features(safe), features(unsafe),
                               ratios=cfg.ratios,
                               seed=derive_seed(cfg.seed, "cli-dataset"))
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


def test_quantize_requires_float_model(pipeline, tmp_path, capsys):
    empty = tmp_path / "nofloat.alm"
    model_io.save_container(str(empty), meta={"x": "1"})
    code = cli.main(["quantize", *pipeline["common"], "--model", str(empty),
                     "--traces", str(pipeline["safe_csv"])])
    assert code == 3
    assert "no float model" in capsys.readouterr().err


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
