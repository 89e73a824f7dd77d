"""Experiment configuration: key=value file parsing, overrides, digests.

The config file is flat text, one `key = value` per line, `#` comments.
Tuple-valued keys take comma-separated numbers. CLI flags override file
values; defaults fill the rest. Every artifact embeds the digest of the
fully resolved config plus the master seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1
    # corpus; traces are drawn from a seeded permutation of the step
    # horizon [0, horizon_factor * safe_traces) so held-out devices
    # operate on unseen steps inside the trained envelope
    firmware_count: int = 8
    safe_traces: int = 2000
    horizon_factor: int = 2
    traces_per_mutant: int = 60
    severities: tuple = (0.25, 0.5, 1.0)
    # stack-only tampering leaves no data-section evidence, so by default it
    # is exercised only at full severity (see README on detectability)
    control_flow_severities: tuple = (1.0,)
    # layout
    data_section_len: int = 512
    n_variables: int = 16
    frame_count: int = 6
    frame_size_min: int = 24
    frame_size_max: int = 64
    fill_fraction: float = 0.5
    # features / dataset
    agg_width: int = 4
    noise_factor: float = 0.05
    ratios: tuple = (0.5, 0.25, 0.25)
    # model / training
    arch: str = "M1"
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 0.005
    dropout: float = 0.2
    # protocol
    expiry_ms: int = 5000
    sessions: int = 25
    # twin transfer experiment
    twin_eval_traces: int = 300
    twin_other_firmware: int = 3
    twin_other_traces: int = 200

    @property
    def feature_dim(self) -> int:
        return self.data_section_len // self.agg_width

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("firmware_count", "safe_traces", "traces_per_mutant",
                     "data_section_len", "n_variables", "frame_count",
                     "frame_size_min", "frame_size_max", "agg_width",
                     "epochs", "batch_size", "expiry_ms", "sessions",
                     "twin_eval_traces", "twin_other_firmware",
                     "twin_other_traces"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.frame_size_max < self.frame_size_min:
            raise ValueError("frame_size_max < frame_size_min")
        if self.horizon_factor < 2:
            raise ValueError("horizon_factor must be at least 2 so held-out "
                             "steps exist inside the trained horizon")
        if self.data_section_len % self.agg_width != 0:
            raise ValueError("data_section_len must be a multiple of "
                             "agg_width")
        if self.arch not in ("M1", "M2", "M3"):
            raise ValueError("arch must be M1, M2, or M3")
        if self.arch == "M3" and self.feature_dim % 4 != 0:
            raise ValueError("M3 needs a feature dim divisible by 4")
        if not 0.0 < self.fill_fraction <= 0.6:
            raise ValueError("fill_fraction must be in (0, 0.6]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.noise_factor < 0:
            raise ValueError("noise_factor must be non-negative")
        if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios) \
                or abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError("ratios must be three positives summing to 1")
        for s in tuple(self.severities) + tuple(self.control_flow_severities):
            if not 0.0 < s <= 1.0:
                raise ValueError("severities must be in (0, 1]")
        if self.safe_traces < 8:
            raise ValueError("safe_traces must be at least 8")


def _parse_value(field: dataclasses.Field, raw: str):
    raw = raw.strip()
    if field.type == "int":
        return int(raw)
    if field.type == "float":
        return float(raw)
    if field.type == "tuple":
        parts = [p for p in raw.split(",") if p.strip()]
        return tuple(float(p) for p in parts)
    return raw


def parse_config_text(text: str) -> dict:
    """Raw key -> string map from config file text."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("config line %d: expected key = value" % lineno)
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Defaults <- config file <- explicit overrides, then validation."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    for source in (file_values or {}, overrides or {}):
        for k, v in source.items():
            if k not in fields:
                raise ValueError("unknown config key: %r" % k)
            values[k] = _parse_value(fields[k], str(v))
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return build_config(parse_config_text(f.read()), overrides)


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable short digest of the fully resolved configuration."""
    canon = "".join("%s=%r\n" % (f.name, getattr(cfg, f.name))
                    for f in dataclasses.fields(ExperimentConfig))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
