"""Experiment configuration: parsing, validation, digests."""

import dataclasses

import pytest

from attestlab import config
from attestlab.config import ExperimentConfig


def test_defaults():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.seed == 1
    assert cfg.firmware_count == 8
    assert cfg.safe_traces == 2000
    assert cfg.horizon_factor == 2
    assert cfg.traces_per_mutant == 60
    assert cfg.severities == (0.25, 0.5, 1.0)
    assert cfg.data_section_len == 512
    assert cfg.agg_width == 4
    assert cfg.noise_factor == 0.05
    assert cfg.ratios == (0.5, 0.25, 0.25)
    assert cfg.arch == "M1"
    assert cfg.epochs == 100
    assert cfg.batch_size == 64
    assert cfg.learning_rate == 0.005
    assert cfg.dropout == 0.2
    assert cfg.expiry_ms == 5000
    assert cfg.feature_dim == 128


def test_feature_dim_tracks_aggregation():
    cfg = dataclasses.replace(ExperimentConfig(), data_section_len=256,
                              agg_width=8)
    assert cfg.feature_dim == 32


def test_parse_config_text_strips_comments_and_keeps_raw_strings():
    text = ("# comment line\n"
            "seed = 9\n"
            "noise_factor = 0.1  # inline comment\n"
            "severities = 0.5, 1.0\n"
            "arch = M2\n"
            "\n")
    fields = config.parse_config_text(text)
    assert fields == {"seed": "9", "noise_factor": "0.1",
                      "severities": "0.5, 1.0", "arch": "M2"}


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        config.parse_config_text("seed = 1\nnot an assignment\n")


def test_build_config_types_values_per_field():
    cfg = config.build_config({"seed": "9", "noise_factor": "0.1",
                               "severities": "0.5, 1.0", "arch": "M2"})
    assert cfg.seed == 9
    assert cfg.noise_factor == 0.1
    assert cfg.severities == (0.5, 1.0)
    assert cfg.arch == "M2"
    with pytest.raises(ValueError):
        config.build_config({"seed": "banana"})


def test_every_field_type_is_one_the_parser_knows():
    # annotations are strings; an unknown one (say "bool") would parse as
    # the raw text, so "false" would be a truthy value
    types = {f.type for f in dataclasses.fields(ExperimentConfig)}
    assert types <= {"str", "int", "float", "tuple"}


def test_build_config_precedence_and_unknown_keys(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 3\nepochs = 10\n")
    file_fields = config.parse_config_text(path.read_text())
    cfg = config.build_config(file_fields, {"seed": 12})
    assert cfg.seed == 12       # override beats the file
    assert cfg.epochs == 10     # untouched file value survives
    with pytest.raises(ValueError, match="unknown config key"):
        config.build_config({"seedz": 1})


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("firmware_count = 2\nsafe_traces = 200\n")
    cfg = config.load_config(path)
    assert cfg.firmware_count == 2
    assert cfg.safe_traces == 200


@pytest.mark.parametrize("field,value", [
    ("seed", -1),
    ("firmware_count", 0),
    ("safe_traces", 4),
    ("horizon_factor", 1),
    ("traces_per_mutant", 0),
    ("severities", (0.0,)),
    ("severities", (1.5,)),
    ("data_section_len", 510),
    ("agg_width", 0),
    ("frame_size_min", 70),
    ("fill_fraction", 0.7),
    ("noise_factor", -0.01),
    ("ratios", (0.5, 0.4, 0.2)),
    ("arch", "M9"),
    ("epochs", 0),
    ("batch_size", 0),
    ("learning_rate", 0.0),
    ("dropout", 1.0),
    ("expiry_ms", 0),
    ("sessions", 0),
    ("twin_eval_traces", 0),
])
def test_validate_rejects(field, value):
    cfg = dataclasses.replace(ExperimentConfig(), **{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_validate_m3_needs_width_multiple_of_four():
    cfg = dataclasses.replace(ExperimentConfig(), arch="M3",
                              data_section_len=520)
    # feature_dim = 130, not a multiple of 4
    with pytest.raises(ValueError):
        cfg.validate()
    ok = dataclasses.replace(ExperimentConfig(), arch="M3")
    ok.validate()


def test_config_digest_stable_and_sensitive():
    a = ExperimentConfig()
    b = ExperimentConfig()
    c = dataclasses.replace(a, seed=2)
    da, db, dc = (config.config_digest(x) for x in (a, b, c))
    assert da == db
    assert len(da) == 16
    assert int(da, 16) >= 0  # hex string
    assert da != dc
