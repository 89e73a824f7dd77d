"""Shared fixtures: a small trained pipeline reused across test modules."""

import signal

import numpy as np
import pytest

from attestlab import autoenc, cli, evalkit
from attestlab.config import ExperimentConfig


def tiny_config(**overrides) -> ExperimentConfig:
    """Small but fully valid configuration for fast end-to-end tests."""
    base = dict(
        seed=7,
        firmware_count=2,
        safe_traces=160,
        horizon_factor=2,
        traces_per_mutant=12,
        severities=(0.5, 1.0),
        control_flow_severities=(1.0,),
        data_section_len=256,
        n_variables=12,
        epochs=25,
        batch_size=32,
        twin_eval_traces=40,
        twin_other_firmware=1,
        twin_other_traces=30,
        sessions=4,
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    cfg.validate()
    return cfg


@pytest.fixture(scope="session")
def tiny_cfg() -> ExperimentConfig:
    return tiny_config()


@pytest.fixture(scope="session")
def bundle(tiny_cfg):
    """One fully trained, quantized, calibrated firmware pipeline."""
    return evalkit.prepare_firmware(tiny_cfg, 0)


@pytest.fixture()
def time_limit():
    """Fail instead of hanging if a campaign worker is never stopped."""
    def expire(signum, frame):
        raise TimeoutError("run_campaign did not return in time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def protocol_lab(tiny_cfg, bundle):
    """Fresh initiator/responder pair, provisioned as `handshake` does."""
    return cli.provision(tiny_cfg, bundle)


def max_gradient_mismatch(model, x, y, step=1e-4) -> float:
    """Worst relative gap between analytic and central-difference gradients."""
    _, analytic = autoenc.loss_and_grads(model, x, y)
    worst = 0.0
    for i, layer in enumerate(model.layers):
        for name, p in layer.params().items():
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + step
                up, _ = autoenc.loss_and_grads(model, x, y)
                p[ix] = orig - step
                down, _ = autoenc.loss_and_grads(model, x, y)
                p[ix] = orig
                numeric[ix] = (up - down) / (2.0 * step)
            a = analytic[i][name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-6)
            worst = max(worst, float((np.abs(a - numeric) / denom).max()))
    return worst


@pytest.fixture(scope="session")
def gradcheck():
    return max_gradient_mismatch
