"""Golden sha256 digests of the pipeline's artifacts on a tiny config.

A change that means to keep behaviour (a refactor, a speed-up) must leave
every digest here unchanged. A change that means to alter an artifact
updates the digest it moves and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from attestlab import cli, evalkit, model_io, quantize, trace
from attestlab.autoenc import TrainConfig, init_model, reconstruct, train
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
        "e92da923c18934aca1fb308550b2e30ab0b87beb317a8d1529f2223e8743f36f",
    "eval/report.txt":
        "e8653490d05a9d140d34053f810be6943d616b9e7b227a4a5b2ecd68253c0c92",
    "eval/twin.txt":
        "4182f9ae14240b308058f08888e749dae533b4d49886042927a6ab59299af75a",
    "gen/fw0/profile.json":
        "cbe0ae475a288093cab65f1a97cf2a48bd6975127c88a1d679455ae81af25cde",
    "gen/fw0/safe.csv":
        "2569314d32cbc56a54415109ff6a52bcebbb180de3190904fb24008ac727a905",
    "gen/fw0/tamper_data_1.csv":
        "bd46655d3fa2fe90faa7013e3d6b12136c627f9a87c751600153b8ef3a9f79a9",
    "gen/fw0/tamper_data_1_profile.json":
        "5c89ae531e712d88b16e752c4207abfa6203a251eb37ad98b36e797e79a89463",
    "handshake/drop.jsonl":
        "8ee1d7695a35fcbed7d9e594ecaad5ed1f8f35fa3ed37a48f84654a3a61fcde6",
    "handshake/expired_report.jsonl":
        "988ad7a8bf6eb5eeeae49fb0da3aabb483d2d1afbeda0354493afd281085753c",
    "handshake/honest.jsonl":
        "fb33ea1e0c8852c323a14c5452f23b0915e423c9041588c1eff992e044c69174",
    "handshake/impersonate.jsonl":
        "c5b39eec8e442157a72e452372e26c3decdfcc0b6661852b7c79890901adfed2",
    "handshake/inject.jsonl":
        "6527cd325eb1355ccdea8cd3f13129ebbba7c8b5461b1637daa02c323d3043ba",
    "handshake/replay.jsonl":
        "384a90ea516dabf2a6ef33e5ebd337308257ed4deddca3c8143c61c218d043ab",
    "handshake/replay_stale.jsonl":
        "ed52261f4ffd449cd011eef8cf4336b153f568de5098281eb2048713f9268be1",
    "handshake/tamper.jsonl":
        "b3a3bfd96fedf9a4862d3f56d4bf66406c6ba6c3112894cbe50771ff16534a31",
    "handshake/tamper_tag.jsonl":
        "7817a9486d5f11766e4c67906cb808a0835caa2332cb57c08ca142e15d42c83d",
    "handshake/unsafe_sender.jsonl":
        "442a616511482eb7a4fe68624db571b937c15b363f5d024cc6f740c46c22fe92",
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

# each architecture at l = 16 after four seeded training epochs: both
# payloads, float and int8 outputs on ten fixed rows, and the loss history
MODEL_DIGESTS = {
    "M1/float_payload":
        "050ad9cffd35c4229350e7ce3773f9d1de6979ebae9ab96b32c5035ac5e9ba36",
    "M1/quant_payload":
        "d185b7de9fc731851f05f4ab4b8bdc721852080c6c7a2bbeb3de5742f78f9fd9",
    "M1/reconstruct":
        "e8797fcbb99e500783f5bc3eb05edeaa189eeb483a79909fe02e4f2c170db994",
    "M1/q_reconstruct":
        "478e64dd84fe363e32b0ec1f71d6a7f9f46c50da958eefb78b2186b5d1c69271",
    "M1/loss_history":
        "47b3f6d036f008b638e877bca2562cac249a83bffde6113c23e21bc8ed1e2483",
    "M2/float_payload":
        "83ffa4fc20ed8dca660bc7b40089fd861af1360157546b607ee3a76c7813d4df",
    "M2/quant_payload":
        "dfa4894eb46347f3db1c76e72ba3202ab721498681e9adba6004b45b1e143514",
    "M2/reconstruct":
        "b738a7fbc78b91f0fb4ddd1bc0095b60de5f226bb3e8f110a687221b7d276f49",
    "M2/q_reconstruct":
        "abd0d07713e833a46393e75613c7bde80371fa0a2806764f8a6706b7eae8b73f",
    "M2/loss_history":
        "0b27bccb2d46071fd652d555388188abb7c9e29e02bc8a6d94193324f85e68a8",
    "M3/float_payload":
        "25ed55b7853330b95bf31777484e7acc48fa62be7c6e7ed056c7604f4033f335",
    "M3/quant_payload":
        "98123692c57c38159099917bd23657af5ca406ad033593617686d62d402d151c",
    "M3/reconstruct":
        "6455f08313c80cd10407815464f16e3fe047c1aa9f7d087f9ad3e2506dcde091",
    "M3/q_reconstruct":
        "b9ae4828ba329c83248b113e33ee0f9a2bfcce864c93a7310731d581385dc115",
    "M3/loss_history":
        "0cb95ead139341fba349f35c632e5b99ba578d43d9032152e331323dc6d31100",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """gen -> train -> quantize -> calibrate, one handshake run per CLI
    scenario and eval --with-twin, all under one output root."""
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
            *(["handshake", *common, "--scenario", name]
              for name in cli.SCENARIOS),
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
    batch = trace.sample_traces(_default_profiles()[name], device_seed,
                                range(4000))
    assert _sha256(batch.data.tobytes()) == TRACE_DIGESTS[name]


def _model_artifacts(arch: str) -> dict:
    g = np.random.default_rng(21)
    clean = g.random((48, 16))
    noisy = clean + 0.1 * g.standard_normal((48, 16))
    model = init_model(arch, 16, seed=5)
    train(model, noisy, clean, TrainConfig(epochs=4, batch_size=16, seed=2))
    qmodel = quantize.quantize_model(model, clean)
    x = g.random((10, 16))
    return {
        "float_payload": model_io.float_payload(model),
        "quant_payload": model_io.quant_payload(qmodel),
        "reconstruct": reconstruct(model, x).tobytes(),
        "q_reconstruct": quantize.q_reconstruct(qmodel, x).tobytes(),
        "loss_history":
            np.asarray(model.train_meta.loss_history).tobytes(),
    }


@pytest.mark.parametrize("arch", ["M1", "M2", "M3"])
def test_model_digests(arch):
    got = {"%s/%s" % (arch, k): _sha256(v)
           for k, v in _model_artifacts(arch).items()}
    assert got == {k: v for k, v in MODEL_DIGESTS.items()
                   if k.startswith(arch + "/")}
