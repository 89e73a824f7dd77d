"""Golden sha256 digests of the pipeline's artifacts on a tiny config.

A change that means to keep behaviour (a refactor, a speed-up) must leave
every digest here unchanged. A change that means to alter an artifact
updates the digest it moves and says why in CHANGES.md.
"""

import hashlib

import pytest

from attestlab import cli, evalkit, trace
from attestlab.config import ExperimentConfig
from attestlab.seeds import derive_seed

CFG_TEXT = """\
# tiny pipeline pinned by golden digests
seed = 13
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

ARTIFACT_DIGESTS = {
    "calibrate/model-calibrated.alm":
        "f0c690c95270d1c6a962133077fdac638acbe6b948596e69442b1cfbb936cdf8",
    "eval/report.txt":
        "e8653490d05a9d140d34053f810be6943d616b9e7b227a4a5b2ecd68253c0c92",
    "eval/twin.txt":
        "4182f9ae14240b308058f08888e749dae533b4d49886042927a6ab59299af75a",
    "handshake/honest.jsonl":
        "fb33ea1e0c8852c323a14c5452f23b0915e423c9041588c1eff992e044c69174",
}

# sample_traces on default-config firmware 0 at steps 0..3999: the safe
# profile and the first mutant of each kind
TRACE_DIGESTS = {
    "safe":
        "b4ec82ee52f561f33b1623be0ee7485bcc6ccfbcaa552bec8064341785d1f8ae",
    "tamper_data":
        "59fdd6c2d66468210f5d95bf6daebfa208998de3de69d0f4f6562f42802b0b6f",
    "tamper_function":
        "f869774c5a4e04667444871469bccc0ac87951d8cd029c331265d62da4c531ca",
    "data_injection":
        "04d1335b3d76b44175713bb99c244f85b983f11a6433bda3810255a5f333cc75",
    "tamper_control_flow":
        "ebf2c6a4b445d948bbd1d8d24e02bee3763715060f0d2131dd4b983437263b64",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """gen -> train -> quantize -> calibrate, one honest handshake run and
    eval --with-twin, all under one output root."""
    root = tmp_path_factory.mktemp("golden")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(CFG_TEXT, encoding="utf-8")
    out = root / "out"
    common = ["--config", str(cfg_path), "--out", str(out)]
    safe_csv = str(out / "gen" / "fw0" / "safe.csv")
    for argv in (
            ["gen", *common, "--firmware", "0"],
            ["train", *common, "--traces", safe_csv],
            ["quantize", *common, "--model", str(out / "train" / "model.alm"),
             "--traces", safe_csv],
            ["calibrate", *common,
             "--model", str(out / "quantize" / "model-quant.alm"),
             "--traces", safe_csv],
            ["handshake", *common, "--scenario", "honest"],
            ["eval", *common, "--with-twin"]):
        assert cli.main(argv) == 0, argv
    return out


@pytest.mark.parametrize("rel", sorted(ARTIFACT_DIGESTS))
def test_artifact_digest(out, rel):
    assert _sha256((out / rel).read_bytes()) == ARTIFACT_DIGESTS[rel]


def _default_profiles() -> dict:
    cfg = ExperimentConfig()
    fw_seed = derive_seed(cfg.seed, "firmware", 0)
    profile = trace.generate_profile(fw_seed, evalkit.layout_spec(cfg))
    profiles = {"safe": profile}
    for mp in evalkit.mutant_profiles(profile, fw_seed, cfg):
        profiles.setdefault(mp.mutation.kind, mp)
    return profiles


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_sample_traces_digest(name):
    cfg = ExperimentConfig()
    device_seed = derive_seed(derive_seed(cfg.seed, "firmware", 0),
                              "device", 0)
    traces = trace.sample_traces(_default_profiles()[name], device_seed,
                                 range(4000))
    data = b"".join(t.data.tobytes() for t in traces)
    assert _sha256(data) == TRACE_DIGESTS[name]
