"""Detection metrics and end-to-end evaluation campaigns.

run_campaign is the campaign `eval` runs: each firmware's pipeline is
built, and its rows scored under every detector, in a worker process.
prepare_firmware, run_experiment and twin_transfer are its serial
reference, and give the same bytes in one process.

Convention: the unsafe class is the positive class, and a trace is
flagged unsafe when its reconstruction error is at or above the decision
threshold. Rates come in complementary pairs (tpr+fnr=1, tnr+fpr=1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autoenc, quantize, threshold, trace
from .config import ExperimentConfig, config_digest
from .seeds import derive_seed


@dataclass
class MetricsReport:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision: float
    tpr: float
    tnr: float
    fpr: float
    fnr: float
    f1_unsafe: float
    f1_safe: float
    auc: float | None


def _rates(tp: int, tn: int, fp: int, fn: int):
    total = tp + tn + fp + fn
    acc = (tp + tn) / total if total else 0.0
    prec = tp / (tp + fp) if tp + fp else 0.0
    tpr = tp / (tp + fn) if tp + fn else 0.0
    tnr = tn / (tn + fp) if tn + fp else 0.0
    return acc, prec, tpr, tnr


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def roc_auc(scores, labels) -> float:
    """Threshold-free ranking quality via the rank-sum identity.

    Tied scores get averaged ranks, so ties contribute half credit.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    n = s.size
    starts = np.r_[0, np.flatnonzero(np.diff(s) != 0) + 1]
    ends = np.r_[starts[1:], n]
    avg = (starts + ends + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg, ends - starts)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def score(errors, labels, t_opt: float) -> MetricsReport:
    """Confusion counts and rates at a fixed threshold, plus ranking AUC."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if errors.shape != labels.shape:
        raise ValueError("errors and labels must have equal length")
    if errors.size == 0:
        raise ValueError("need at least one sample")
    if not set(np.unique(labels)) <= {0, 1}:
        raise ValueError("labels must be 0 (safe) or 1 (unsafe)")
    pred = errors >= t_opt
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    tn = int(np.sum(~pred & ~actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    acc, prec, tpr, tnr = _rates(tp, tn, fp, fn)
    prec_safe = tn / (tn + fn) if tn + fn else 0.0
    auc = None
    if 0 < tp + fn and 0 < tn + fp:
        auc = roc_auc(errors, labels)
    return MetricsReport(
        tp=tp, tn=tn, fp=fp, fn=fn,
        accuracy=acc, precision=prec,
        tpr=tpr, tnr=tnr, fpr=1.0 - tnr, fnr=1.0 - tpr,
        f1_unsafe=_f1(prec, tpr), f1_safe=_f1(prec_safe, tnr),
        auc=auc)


@dataclass
class FirmwareBundle:
    """Everything the pipeline produces for one firmware image.

    `dataset` is None in the bundles run_campaign's workers send: each
    worker keeps its firmware's features and scores them itself.
    """
    firmware_seed: int
    profile: trace.FirmwareProfile
    mutants: list
    dataset: trace.Dataset | None
    model: autoenc.AutoencoderModel
    qmodel: quantize.QuantizedModel
    calibration: threshold.CalibrationResult
    step_perm: np.ndarray
    corpus_size: int

    def spare_steps(self, count: int) -> np.ndarray:
        """In-horizon steps never used by the training corpus."""
        spare = self.step_perm[self.corpus_size:self.corpus_size + count]
        if len(spare) < count:
            raise ValueError("horizon too small: %d spare steps requested, "
                             "%d available; raise horizon_factor"
                             % (count, len(spare)))
        return spare


def mutant_profiles(profile: trace.FirmwareProfile, fw_seed: int,
                    cfg: ExperimentConfig) -> list:
    plan = [(k, s) for k in ("tamper_data", "tamper_function",
                             "data_injection") for s in cfg.severities]
    plan += [("tamper_control_flow", s) for s in cfg.control_flow_severities]
    out = []
    for kind, sev in plan:
        mseed = derive_seed(fw_seed, "mutant", kind, repr(float(sev)))
        out.append(trace.mutate_profile(profile, kind, float(sev), mseed))
    return out


def layout_spec(cfg: ExperimentConfig) -> trace.LayoutSpec:
    return trace.LayoutSpec(
        data_section_len=cfg.data_section_len,
        n_variables=cfg.n_variables,
        frame_count=cfg.frame_count,
        frame_size_min=cfg.frame_size_min,
        frame_size_max=cfg.frame_size_max,
        fill_fraction=cfg.fill_fraction)


def _features(cfg: ExperimentConfig, profile: trace.FirmwareProfile,
              device_seed: int, time_steps) -> np.ndarray:
    """Block-mean features of the data sections sampled at time_steps."""
    batch = trace.sample_traces(profile, device_seed, time_steps)
    return trace.aggregate_many(batch.data, cfg.agg_width,
                                cfg.data_section_len)


# Rows per q_reconstruct call in q_errors. The default model's products
# (256 x 128 x 8 multiply-adds) then stay at OpenBLAS's threading threshold
# (65536 x 4), so run_campaign's workers, which score side by side, do not
# each start BLAS threads on shared CPUs: with two BLAS threads per worker
# on a 2-vCPU VM, scoring whole splits took 0.4-0.7 s per default
# campaign, and these blocks 0.15-0.19 s. Rows score independently, so
# the errors are the same bytes for any block size.
SCORE_BLOCK_ROWS = 256


def q_errors(qmodel: quantize.QuantizedModel, features: np.ndarray):
    """Per-sample reconstruction error through the integer model, for the
    rows of a feature matrix."""
    errors = []
    for s in range(0, len(features), SCORE_BLOCK_ROWS):
        f = features[s:s + SCORE_BLOCK_ROWS]
        recon = quantize.q_reconstruct(qmodel, f)
        errors.append(autoenc.reconstruction_error(f, recon))
    return np.concatenate(errors or [np.zeros(0)])


# The pipeline's stages. prepare_firmware composes them, and the CLI's
# gen, train, quantize and calibrate each run one, so both build one
# detector from one corpus.

@dataclass
class Corpus:
    """Device 0's traces of one firmware image: the safe batch at the
    sorted training steps, and one batch per mutant at its own draw from
    those steps."""
    firmware_seed: int
    profile: trace.FirmwareProfile
    mutants: list
    step_perm: np.ndarray
    safe: trace.TraceBatch
    unsafe: list


def step_permutation(cfg: ExperimentConfig, fw_seed: int) -> np.ndarray:
    """Seeded order of the step horizon: the first safe_traces steps are
    the training corpus, the rest are spare."""
    horizon = cfg.horizon_factor * cfg.safe_traces
    return np.random.default_rng(derive_seed(fw_seed, "steps")).permutation(
        horizon)


def sample_corpus(cfg: ExperimentConfig, fw_index: int,
                  with_mutants: bool = True) -> Corpus:
    """The corpus prepare_firmware trains firmware fw_index on."""
    fw_seed = derive_seed(cfg.seed, "firmware", fw_index)
    profile = trace.generate_profile(fw_seed, layout_spec(cfg))
    mutants = mutant_profiles(profile, fw_seed, cfg) if with_mutants else []
    step_perm = step_permutation(cfg, fw_seed)
    steps = np.sort(step_perm[:cfg.safe_traces])
    safe = trace.sample_traces(profile, derive_seed(fw_seed, "device", 0),
                               steps)
    unsafe = []
    for m_idx, mp in enumerate(mutants):
        m_dev = derive_seed(fw_seed, "device", 0, "mutant", m_idx)
        m_rng = np.random.default_rng(derive_seed(fw_seed, "mutant-steps",
                                                  m_idx))
        m_steps = m_rng.choice(steps, size=cfg.traces_per_mutant,
                               replace=False)
        unsafe.append(trace.sample_traces(mp, m_dev, np.sort(m_steps)))
    return Corpus(fw_seed, profile, mutants, step_perm, safe, unsafe)


def split_corpus(cfg: ExperimentConfig, fw_seed: int,
                 batches: list[trace.TraceBatch]) -> trace.Dataset:
    """Features of the batches' rows, in order: the safe ones split under
    the firmware's dataset seed, the unsafe ones all in test_unsafe."""
    features = np.concatenate([
        trace.aggregate_many(b.data, cfg.agg_width, cfg.data_section_len)
        for b in batches])
    safe = np.concatenate([b.labels for b in batches]) == "safe"
    return trace.build_dataset(features[safe], features[~safe],
                               ratios=cfg.ratios,
                               seed=derive_seed(fw_seed, "dataset"))


def train_detector(cfg: ExperimentConfig, fw_seed: int,
                   ds: trace.Dataset) -> autoenc.AutoencoderModel:
    """Firmware-seeded init, then training on noisy copies of ds.train."""
    model = autoenc.init_model(cfg.arch, cfg.feature_dim,
                               seed=derive_seed(fw_seed, "init"),
                               dropout_rate=cfg.dropout)
    tc = autoenc.TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                             learning_rate=cfg.learning_rate,
                             seed=derive_seed(fw_seed, "train"))
    noisy = trace.inject_noise(
        ds.train, cfg.noise_factor,
        derive_seed(derive_seed(fw_seed, "dataset"), "noise"))
    autoenc.train(model, noisy, ds.train, tc)
    return model


def quantize_detector(model: autoenc.AutoencoderModel,
                      ds: trace.Dataset) -> quantize.QuantizedModel:
    """The int8 model, its activation ranges taken on ds.train."""
    return quantize.quantize_model(model, ds.train)


def calibrate_detector(qmodel: quantize.QuantizedModel,
                       ds: trace.Dataset) -> threshold.CalibrationResult:
    """The threshold, from the int8 model's errors on ds.val."""
    return threshold.calibrate(q_errors(qmodel, ds.val))


def prepare_firmware(cfg: ExperimentConfig, fw_index: int,
                     with_mutants: bool = True) -> FirmwareBundle:
    """Generate, train, quantize, and calibrate one firmware pipeline."""
    c = sample_corpus(cfg, fw_index, with_mutants)
    ds = split_corpus(cfg, c.firmware_seed, [c.safe, *c.unsafe])
    model = train_detector(cfg, c.firmware_seed, ds)
    qmodel = quantize_detector(model, ds)
    return FirmwareBundle(c.firmware_seed, c.profile, c.mutants, ds, model,
                          qmodel, calibrate_detector(qmodel, ds),
                          c.step_perm, cfg.safe_traces)


@dataclass
class FirmwareResult:
    firmware_index: int
    calibration: threshold.CalibrationResult
    metrics: MetricsReport
    size: quantize.SizeReport


@dataclass
class ExperimentResult:
    config_digest: str
    seed: int
    per_firmware: list[FirmwareResult]
    macro: dict = field(default_factory=dict)


def _macro(per_fw: list[FirmwareResult]) -> dict:
    keys = ("accuracy", "precision", "tpr", "tnr", "fpr", "fnr",
            "f1_unsafe", "f1_safe", "auc")
    out = {}
    for k in keys:
        vals = [getattr(r.metrics, k) for r in per_fw]
        vals = [v for v in vals if v is not None]
        out[k] = float(np.mean(vals)) if vals else None
    out["val_tnr"] = float(np.mean(
        [r.calibration.achieved_tnr for r in per_fw]))
    out["reduction_factor"] = float(np.mean(
        [r.size.reduction_factor for r in per_fw]))
    return out


def _need_two(count: int) -> None:
    if count < 2:
        raise ValueError("cross-firmware evaluation needs at least two "
                         "firmware images")


def firmware_errors(qmodels: list, j: int, ds: trace.Dataset) -> list:
    """Errors of firmware j's rows under every int8 model i, as a list of
    blocks per model: under its own model (i == j) test_safe then
    test_unsafe, under every other model train, val, test_safe and
    test_unsafe."""
    out = []
    for i, qm in enumerate(qmodels):
        parts = ((ds.test_safe, ds.test_unsafe) if i == j else
                 (ds.train, ds.val, ds.test_safe, ds.test_unsafe))
        out.append([q_errors(qm, f) for f in parts])
    return out


def _assemble(cfg: ExperimentConfig, bundles: list[FirmwareBundle],
              errors: list) -> ExperimentResult:
    """The campaign's result from errors[j] = firmware_errors(..., j, ...).

    Detector i's negatives are its own test_safe rows; its positives are
    its own test_unsafe rows, then every split of each other firmware j
    in index order. Rows score independently, so these blocks hold the
    bytes that scoring one stacked matrix per detector would give.
    """
    results = []
    for i, b in enumerate(bundles):
        neg, own_unsafe = errors[i][i]
        foreign = [e for j, blocks in enumerate(errors) if j != i
                   for e in blocks[i]]
        pos = np.concatenate([own_unsafe, *foreign])
        labels = np.concatenate([np.zeros(neg.size, dtype=int),
                                 np.ones(pos.size, dtype=int)])
        metrics = score(np.concatenate([neg, pos]), labels,
                        b.calibration.t_opt)
        results.append(FirmwareResult(
            firmware_index=i, calibration=b.calibration, metrics=metrics,
            size=quantize.size_report(b.model, b.qmodel)))
    res = ExperimentResult(config_digest=config_digest(cfg), seed=cfg.seed,
                           per_firmware=results)
    res.macro = _macro(results)
    return res


def run_experiment(cfg: ExperimentConfig,
                   bundles: list[FirmwareBundle]) -> ExperimentResult:
    """Cross-firmware detection campaign on bundles in hand, in this process.

    Each firmware's detector is scored on its own held-out safe traces
    (negatives) against its own mutants plus every other firmware's
    traces (positives): a detector should accept only its own firmware.
    This is the serial reference of run_campaign, which runs the same
    two steps with the errors computed where the features are.
    """
    _need_two(len(bundles))
    qmodels = [b.qmodel for b in bundles]
    return _assemble(cfg, bundles, [
        firmware_errors(qmodels, j, b.dataset)
        for j, b in enumerate(bundles)])


@dataclass
class TwinResult:
    config_digest: str
    seed: int
    calibration: threshold.CalibrationResult
    metrics: MetricsReport
    n_twin_safe: int
    n_twin_unsafe: int


def twin_transfer(cfg: ExperimentConfig, bundle: FirmwareBundle) -> TwinResult:
    """Train on one device, attest its twin.

    Twins share the firmware's data-section behaviour, so a model
    trained on device A should keep its false-alarm rate on device B
    while still flagging mutated or foreign firmware running on B.
    `bundle` is firmware 0's pipeline.
    """
    if cfg.twin_eval_traces < cfg.traces_per_mutant:
        raise ValueError("twin_eval_traces must be >= traces_per_mutant; "
                         "mutant positives reuse the twin step sample")
    if bundle.firmware_seed != derive_seed(cfg.seed, "firmware", 0):
        raise ValueError("twin_transfer needs firmware 0's bundle")
    fw_seed = bundle.firmware_seed
    twin_seed = derive_seed(fw_seed, "device", 1)
    steps = np.sort(bundle.spare_steps(cfg.twin_eval_traces))
    twin_safe = _features(cfg, bundle.profile, twin_seed, steps)

    pos_feats = []
    for m_idx, mp in enumerate(bundle.mutants):
        if mp.mutation is not None and mp.mutation.kind == "tamper_control_flow":
            continue
        m_dev = derive_seed(fw_seed, "device", 1, "mutant", m_idx)
        pos_feats.append(_features(cfg, mp, m_dev,
                                   steps[:cfg.traces_per_mutant]))
    for k in range(cfg.twin_other_firmware):
        other_seed = derive_seed(cfg.seed, "firmware", cfg.firmware_count + k)
        other = trace.generate_profile(other_seed, layout_spec(cfg))
        o_dev = derive_seed(other_seed, "device", 1)
        pos_feats.append(_features(cfg, other, o_dev,
                                   range(cfg.twin_other_traces)))

    neg = q_errors(bundle.qmodel, twin_safe)
    pos = q_errors(bundle.qmodel, np.concatenate(pos_feats))
    errors = np.concatenate([neg, pos])
    labels = np.concatenate([np.zeros(neg.size, dtype=int),
                             np.ones(pos.size, dtype=int)])
    metrics = score(errors, labels, bundle.calibration.t_opt)
    return TwinResult(config_digest=config_digest(cfg), seed=cfg.seed,
                      calibration=bundle.calibration, metrics=metrics,
                      n_twin_safe=neg.size, n_twin_unsafe=pos.size)


def _campaign_share(cfg: ExperimentConfig, indices, with_twin: bool,
                    conn) -> None:
    """Worker body of run_campaign, in two phases.

    1. Build each index's pipeline and send (True, (bundle, twin)): the
       bundle without its dataset, and firmware 0's TwinResult when
       with_twin, else None.
    2. Receive every int8 model, then send (True, errors) per index, the
       firmware_errors of the features kept from phase 1.

    An exception in either phase is sent as (False, exception).
    """
    try:
        datasets = []
        for i in indices:
            b = prepare_firmware(cfg, i)
            twin = twin_transfer(cfg, b) if with_twin and i == 0 else None
            datasets.append(b.dataset)
            conn.send((True, (replace(b, dataset=None), twin)))
        qmodels = conn.recv()
        for i, ds in zip(indices, datasets):
            conn.send((True, firmware_errors(qmodels, i, ds)))
    except Exception as exc:
        conn.send((False, exc))
    finally:
        conn.close()


def run_campaign(cfg: ExperimentConfig, with_twin: bool = False):
    """(ExperimentResult, TwinResult or None) of the whole campaign, its
    pipelines built and scored in up to one process per CPU.

    With k workers, worker w builds indices w, w + k, ... and keeps their
    features. This thread receives every bundle (without its dataset) in
    index order, sends the list of int8 models to every worker, then
    receives each firmware's error blocks in index order and scores them.
    So the parent never holds a feature matrix, and every byte equals
    run_experiment's and twin_transfer's on `prepare_firmware(cfg, i)`
    bundles, whatever the number of workers. Every worker has sent all
    of its bundles before any is sent a model, so neither side waits on
    the other. A worker's exception is raised here, with its type and
    message, after every worker is stopped.
    """
    _need_two(cfg.firmware_count)
    # imported here: the module costs tens of ms, and only eval needs it
    import multiprocessing

    n = cfg.firmware_count
    k = min(n, len(os.sched_getaffinity(0)))
    # fork: a worker inherits the imported program instead of importing it
    # again; the program runs no threads but OpenBLAS's, which stop at fork
    ctx = multiprocessing.get_context("fork")
    conns, workers = [], []

    def lost(i):
        p = workers[i % k]
        p.join()
        return RuntimeError("firmware %d: its worker exited with code %s"
                            % (i, p.exitcode))

    def receive(i):
        try:
            ok, value = conns[i % k].recv()
        except EOFError:
            raise lost(i) from None
        if not ok:
            raise value
        return value

    try:
        for w in range(k):
            here, there = ctx.Pipe()
            conns.append(here)
            with there:
                p = ctx.Process(target=_campaign_share, daemon=True,
                                args=(cfg, range(w, n, k), with_twin, there))
                p.start()
            workers.append(p)
        built = [receive(i) for i in range(n)]
        bundles = [b for b, _ in built]
        qmodels = [b.qmodel for b in bundles]
        for w, c in enumerate(conns):
            try:
                c.send(qmodels)
            except OSError:
                raise lost(w) from None
        errors = [receive(i) for i in range(n)]
    except BaseException:
        # a worker blocked on a full pipe would never finish on its own
        for p in workers:
            p.terminate()
        raise
    finally:
        for p in workers:
            p.join()
        for c in conns:
            c.close()
    return _assemble(cfg, bundles, errors), built[0][1]


def format_experiment_report(res: ExperimentResult) -> str:
    """Plain-text campaign report, stable across reruns of one config."""
    lines = []
    lines.append("# cross-firmware detection report")
    lines.append("config_digest=%s" % res.config_digest)
    lines.append("seed=%d" % res.seed)
    header = ("fw", "gamma", "tnr_target", "t_opt", "val_tnr", "tnr",
              "tpr", "f1_unsafe", "f1_safe", "auc", "reduction")
    lines.append("\t".join(header))
    for r in res.per_firmware:
        c, m = r.calibration, r.metrics
        lines.append("\t".join([
            "%d" % r.firmware_index,
            "%.6f" % c.gamma,
            "%.2f" % c.tnr_target,
            "%.9e" % c.t_opt,
            "%.6f" % c.achieved_tnr,
            "%.6f" % m.tnr,
            "%.6f" % m.tpr,
            "%.6f" % m.f1_unsafe,
            "%.6f" % m.f1_safe,
            "%.6f" % (m.auc if m.auc is not None else float("nan")),
            "%.4f" % r.size.reduction_factor,
        ]))
    lines.append("macro\t" + "\t".join(
        "%s=%.6f" % (k, v) for k, v in sorted(res.macro.items())
        if v is not None))
    return "\n".join(lines) + "\n"


def format_twin_report(res: TwinResult) -> str:
    m = res.metrics
    lines = [
        "# twin transfer report",
        "config_digest=%s" % res.config_digest,
        "seed=%d" % res.seed,
        "n_twin_safe=%d" % res.n_twin_safe,
        "n_twin_unsafe=%d" % res.n_twin_unsafe,
        "t_opt=%.9e" % res.calibration.t_opt,
        "tnr=%.6f" % m.tnr,
        "tpr=%.6f" % m.tpr,
        "f1_unsafe=%.6f" % m.f1_unsafe,
        "f1_safe=%.6f" % m.f1_safe,
        "auc=%.6f" % (m.auc if m.auc is not None else float("nan")),
    ]
    return "\n".join(lines) + "\n"
