"""Tests for detection metrics and the evaluation campaigns."""

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time

import numpy as np
import pytest

from attestlab import autoenc, cli, evalkit, model_io, quantize, trace
from attestlab.config import config_digest
from attestlab.seeds import derive_seed

from conftest import tiny_config


def _auc_pair_count(scores, labels):
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly.

    Ties count half. Independent of the rank-sum identity under test.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------- roc_auc


def test_roc_auc_perfect_separation_is_one():
    scores = [0.1, 0.2, 0.3, 0.7, 0.8, 0.9]
    labels = [0, 0, 0, 1, 1, 1]
    assert evalkit.roc_auc(scores, labels) == 1.0


def test_roc_auc_reversed_separation_is_zero():
    scores = [0.9, 0.8, 0.1, 0.2]
    labels = [0, 0, 1, 1]
    assert evalkit.roc_auc(scores, labels) == 0.0


def test_roc_auc_all_tied_is_half():
    scores = [5.0] * 8
    labels = [0, 1, 0, 1, 1, 0, 0, 1]
    assert evalkit.roc_auc(scores, labels) == 0.5


def test_roc_auc_single_tie_hand_case():
    # One positive tied with one negative, one clean win, one clean loss:
    # pairs (1.0>0.5)=1, (1.0=1.0)=0.5, (0.2<0.5)=0, (0.2<1.0)=0 -> 1.5/4.
    scores = [0.5, 1.0, 1.0, 0.2]
    labels = [0, 0, 1, 1]
    assert evalkit.roc_auc(scores, labels) == pytest.approx(1.5 / 4.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_roc_auc_matches_pair_count_oracle_with_ties(seed):
    g = np.random.default_rng(seed)
    n_pos = int(g.integers(1, 60))
    n_neg = int(g.integers(1, 60))
    # Small integer scores force heavy ties.
    scores = g.integers(0, 8, size=n_pos + n_neg).astype(np.float64)
    labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
    got = evalkit.roc_auc(scores, labels)
    want = _auc_pair_count(scores, labels)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_roc_auc_matches_pair_count_oracle_continuous(seed):
    g = np.random.default_rng(seed)
    labels = g.integers(0, 2, size=120)
    if labels.sum() in (0, 120):
        labels[0] = 1 - labels[0]
    scores = g.normal(size=120) + 0.8 * labels
    got = evalkit.roc_auc(scores, labels)
    assert got == pytest.approx(_auc_pair_count(scores, labels), abs=1e-12)


def test_roc_auc_invariant_under_monotone_transform():
    g = np.random.default_rng(3)
    labels = np.r_[np.zeros(40, int), np.ones(40, int)]
    scores = g.normal(size=80) + labels
    a = evalkit.roc_auc(scores, labels)
    b = evalkit.roc_auc(np.exp(scores), labels)
    assert a == pytest.approx(b, abs=1e-12)


def test_roc_auc_rejects_single_class_and_length_mismatch():
    with pytest.raises(ValueError, match="both classes"):
        evalkit.roc_auc([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError, match="both classes"):
        evalkit.roc_auc([1.0, 2.0], [0, 0])
    with pytest.raises(ValueError, match="equal length"):
        evalkit.roc_auc([1.0, 2.0, 3.0], [0, 1])


# ------------------------------------------------------------------ score


def test_score_hand_case_one_fp_one_fn():
    errors = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0, 0.4]
    labels = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    m = evalkit.score(errors, labels, t_opt=0.5)
    assert (m.tp, m.tn, m.fp, m.fn) == (4, 4, 1, 1)
    assert m.accuracy == pytest.approx(0.8)
    assert m.precision == pytest.approx(0.8)
    assert m.tpr == pytest.approx(0.8)
    assert m.tnr == pytest.approx(0.8)
    assert m.f1_unsafe == pytest.approx(0.8)
    assert m.f1_safe == pytest.approx(0.8)
    assert m.auc is not None


def test_score_error_at_threshold_counts_as_unsafe():
    m = evalkit.score([0.5, 0.4], [1, 0], t_opt=0.5)
    assert (m.tp, m.tn, m.fp, m.fn) == (1, 1, 0, 0)


def test_score_rate_identities():
    g = np.random.default_rng(8)
    errors = g.random(200)
    labels = g.integers(0, 2, size=200)
    m = evalkit.score(errors, labels, t_opt=0.5)
    assert m.fpr == 1.0 - m.tnr
    assert m.fnr == 1.0 - m.tpr
    assert m.tp + m.fn == int(labels.sum())
    assert m.tn + m.fp == int((labels == 0).sum())


def test_score_single_class_has_no_auc():
    m = evalkit.score([0.1, 0.9], [0, 0], t_opt=0.5)
    assert m.auc is None
    assert m.tpr == 0.0 and m.fnr == 1.0


def test_score_input_validation():
    with pytest.raises(ValueError, match="equal length"):
        evalkit.score([0.1], [0, 1], t_opt=0.5)
    with pytest.raises(ValueError, match="at least one"):
        evalkit.score([], [], t_opt=0.5)
    with pytest.raises(ValueError, match="labels"):
        evalkit.score([0.1, 0.2], [0, 2], t_opt=0.5)


# ------------------------------------------------- mutant plan and q_errors


def test_mutant_profiles_cover_plan(tiny_cfg):
    cfg = tiny_config(severities=(0.25, 0.5, 1.0))
    fw_seed = derive_seed(cfg.seed, "firmware", 0)
    profile = trace.generate_profile(fw_seed, evalkit.layout_spec(cfg))
    mutants = evalkit.mutant_profiles(profile, fw_seed, cfg)
    assert len(mutants) == 10
    plan = [(m.mutation.kind, m.mutation.severity) for m in mutants]
    for kind in ("tamper_data", "tamper_function", "data_injection"):
        for sev in cfg.severities:
            assert (kind, sev) in plan
    assert ("tamper_control_flow", 1.0) in plan
    # Same inputs must give the same mutants.
    again = evalkit.mutant_profiles(profile, fw_seed, cfg)
    assert again == mutants


def test_q_errors_matches_composed_pipeline(bundle, tiny_cfg):
    feats = bundle.dataset.val
    got = evalkit.q_errors(bundle.qmodel, feats)
    recon = quantize.q_reconstruct(bundle.qmodel, feats)
    want = autoenc.reconstruction_error(feats, recon)
    assert np.array_equal(got, want)
    assert got.shape == (feats.shape[0],)


@pytest.mark.parametrize("arch", ["M1", "M3"])
def test_q_errors_rows_score_independently(arch):
    # run_experiment scores each positive block on its own and concatenates
    g = np.random.default_rng(5)
    model = autoenc.init_model(arch, 32, seed=5)
    qm = quantize.quantize_model(model, g.random((64, 32)))
    blocks = [g.random((n, 32)) * 1.5 - 0.2 for n in (700, 1, 333, 2, 1)]
    stacked = evalkit.q_errors(qm, np.vstack(blocks))
    per_block = np.concatenate([evalkit.q_errors(qm, b) for b in blocks])
    assert stacked.tobytes() == per_block.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 10_000])
def test_q_errors_blocks_equal_one_call(monkeypatch, bundle, rows):
    monkeypatch.setattr(evalkit, "SCORE_BLOCK_ROWS", rows)
    feats = bundle.dataset.train
    assert len(feats) > 7
    want = autoenc.reconstruction_error(
        feats, quantize.q_reconstruct(bundle.qmodel, feats))
    assert evalkit.q_errors(bundle.qmodel, feats).tobytes() == want.tobytes()
    assert evalkit.q_errors(bundle.qmodel, feats[:0]).shape == (0,)


# --------------------------------------------------------- prepare_firmware


def test_bundle_step_permutation_covers_horizon(bundle, tiny_cfg):
    horizon = tiny_cfg.horizon_factor * tiny_cfg.safe_traces
    assert np.array_equal(np.sort(bundle.step_perm), np.arange(horizon))
    assert bundle.corpus_size == tiny_cfg.safe_traces


def test_bundle_corpus_interleaves_across_horizon(bundle, tiny_cfg):
    # The training corpus draws from the whole horizon, not a prefix.
    corpus = bundle.step_perm[:bundle.corpus_size]
    assert corpus.max() >= tiny_cfg.safe_traces


def test_spare_steps_disjoint_from_corpus(bundle, tiny_cfg):
    corpus = set(bundle.step_perm[:bundle.corpus_size].tolist())
    spare = bundle.spare_steps(tiny_cfg.twin_eval_traces)
    assert len(spare) == tiny_cfg.twin_eval_traces
    assert not (set(spare.tolist()) & corpus)
    horizon = tiny_cfg.horizon_factor * tiny_cfg.safe_traces
    assert spare.min() >= 0 and spare.max() < horizon


def test_spare_steps_overdraw_raises(bundle, tiny_cfg):
    available = tiny_cfg.safe_traces * (tiny_cfg.horizon_factor - 1)
    with pytest.raises(ValueError, match="horizon too small"):
        bundle.spare_steps(available + 1)


def test_bundle_dataset_and_feature_shapes(bundle, tiny_cfg):
    ds = bundle.dataset
    n = tiny_cfg.safe_traces
    assert ds.train.shape[0] == int(n * tiny_cfg.ratios[0])
    assert ds.val.shape[0] == int(n * tiny_cfg.ratios[1])
    assert ds.test_safe.shape[0] == n - ds.train.shape[0] - ds.val.shape[0]
    n_mutants = (3 * len(tiny_cfg.severities)
                 + len(tiny_cfg.control_flow_severities))
    assert len(bundle.mutants) == n_mutants
    assert ds.test_unsafe.shape[0] == n_mutants * tiny_cfg.traces_per_mutant
    for part in (ds.train, ds.val, ds.test_safe, ds.test_unsafe):
        assert part.shape[1] == tiny_cfg.feature_dim


def test_prepare_firmware_aggregates_each_row_once(monkeypatch, tiny_cfg):
    calls, rows = [], []
    original = trace.aggregate_many

    def counting(data, *args, **kwargs):
        calls.append(data.ndim)
        rows.append(len(data))
        return original(data, *args, **kwargs)

    monkeypatch.setattr(trace, "aggregate_many", counting)
    b = evalkit.prepare_firmware(tiny_cfg, 0)
    assert set(calls) == {2}
    assert sum(rows) == (tiny_cfg.safe_traces
                         + len(b.mutants) * tiny_cfg.traces_per_mutant)


def test_bundle_calibration_is_consistent(bundle):
    calib = bundle.calibration
    assert calib.t_opt > 0.0
    assert calib.tnr_target in (0.95, 0.97, 0.99)
    val_errs = evalkit.q_errors(bundle.qmodel, bundle.dataset.val)
    assert float(np.mean(val_errs < calib.t_opt)) == calib.achieved_tnr


def test_prepare_firmware_is_deterministic(bundle, tiny_cfg):
    again = evalkit.prepare_firmware(tiny_cfg, 0)
    assert np.array_equal(again.step_perm, bundle.step_perm)
    assert again.calibration.t_opt == bundle.calibration.t_opt
    assert np.array_equal(again.qmodel.layers[0].wq,
                          bundle.qmodel.layers[0].wq)
    assert again.profile == bundle.profile


def test_trained_detector_is_the_model_the_container_stores(bundle):
    # train_detector rounds every parameter to f32, so the float payload
    # reloads to the very model that was quantized
    loaded = model_io.parse_float_payload(model_io.float_payload(bundle.model))
    for la, lb in zip(loaded.layers, bundle.model.layers):
        for name, p in lb.params().items():
            assert p.dtype == np.float64
            assert la.params()[name].tobytes() == p.tobytes()
    assert model_io.quant_payload(
        quantize.quantize_model(loaded, bundle.dataset.train)) \
        == model_io.quant_payload(bundle.qmodel)


def test_prepare_firmware_indices_give_distinct_firmware(bundle, tiny_cfg):
    other = evalkit.prepare_firmware(tiny_cfg, 1, with_mutants=False)
    assert other.profile != bundle.profile
    assert other.firmware_seed != bundle.firmware_seed
    assert other.mutants == []


# ----------------------------------------------------------- run_experiment


@pytest.fixture(scope="module")
def two_bundles(bundle, tiny_cfg):
    return [bundle, evalkit.prepare_firmware(tiny_cfg, 1)]


@pytest.fixture(scope="module")
def experiment(tiny_cfg, two_bundles):
    return evalkit.run_experiment(tiny_cfg, two_bundles)


def test_run_experiment_requires_two_firmware(tiny_cfg, bundle):
    with pytest.raises(ValueError, match="at least two"):
        evalkit.run_experiment(tiny_cfg, [bundle])


def test_run_experiment_population_counts(experiment, two_bundles,
                                          tiny_cfg):
    for i, r in enumerate(experiment.per_firmware):
        b = two_bundles[i]
        other = two_bundles[1 - i]
        # every safe trace of the other firmware is a positive
        n_pos = (b.dataset.test_unsafe.shape[0] + tiny_cfg.safe_traces
                 + other.dataset.test_unsafe.shape[0])
        n_neg = b.dataset.test_safe.shape[0]
        assert r.metrics.tp + r.metrics.fn == n_pos
        assert r.metrics.tn + r.metrics.fp == n_neg
        assert r.firmware_index == i


def test_run_experiment_val_tnr_recomputes(experiment, two_bundles):
    for r, b in zip(experiment.per_firmware, two_bundles):
        errs = evalkit.q_errors(b.qmodel, b.dataset.val)
        assert r.calibration.achieved_tnr \
            == float(np.mean(errs < r.calibration.t_opt))


def test_run_experiment_macro_is_mean_of_per_firmware(experiment):
    per = experiment.per_firmware
    for key in ("accuracy", "tpr", "tnr", "auc"):
        want = float(np.mean([getattr(r.metrics, key) for r in per]))
        assert experiment.macro[key] == pytest.approx(want)
    assert experiment.macro["val_tnr"] == pytest.approx(
        float(np.mean([r.calibration.achieved_tnr for r in per])))
    assert set(experiment.macro) == {
        "accuracy", "precision", "tpr", "tnr", "fpr", "fnr",
        "f1_unsafe", "f1_safe", "auc", "val_tnr", "reduction_factor"}


def test_run_experiment_embeds_config_identity(experiment, tiny_cfg):
    assert experiment.config_digest == config_digest(tiny_cfg)
    assert experiment.seed == tiny_cfg.seed


def test_experiment_report_format(experiment, tiny_cfg, two_bundles):
    text = evalkit.format_experiment_report(experiment)
    lines = text.splitlines()
    assert lines[0] == "# cross-firmware detection report"
    assert lines[1] == "config_digest=%s" % config_digest(tiny_cfg)
    assert lines[2] == "seed=%d" % tiny_cfg.seed
    assert lines[3].split("\t")[0] == "fw"
    n_cols = len(lines[3].split("\t"))
    for row in lines[4:4 + len(two_bundles)]:
        assert len(row.split("\t")) == n_cols
    assert lines[-1].startswith("macro\t")
    assert text.endswith("\n")


def test_experiment_report_is_deterministic(tiny_cfg, two_bundles):
    a = evalkit.format_experiment_report(
        evalkit.run_experiment(tiny_cfg, two_bundles))
    b = evalkit.format_experiment_report(
        evalkit.run_experiment(tiny_cfg, two_bundles))
    assert a == b


# ------------------------------------------------------------- run_campaign


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(scope="module")
def three_cfg():
    # three firmware on up to three CPUs: strides of 3, 2 + 1 and 1 + 1 + 1
    return tiny_config(firmware_count=3)


@pytest.fixture(scope="module")
def three_bundles(three_cfg):
    return [evalkit.prepare_firmware(three_cfg, i) for i in range(3)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_campaign_equals_serial_reference(monkeypatch, three_cfg,
                                              three_bundles, cpus,
                                              time_limit):
    _cpus(monkeypatch, cpus)
    res, twin = evalkit.run_campaign(three_cfg, with_twin=True)
    want = evalkit.run_experiment(three_cfg, three_bundles)
    want_twin = evalkit.twin_transfer(three_cfg, three_bundles[0])
    assert res == want and twin == want_twin
    assert evalkit.format_experiment_report(res) \
        == evalkit.format_experiment_report(want)
    assert evalkit.format_twin_report(twin) \
        == evalkit.format_twin_report(want_twin)
    assert multiprocessing.active_children() == []


def test_run_campaign_without_twin_runs_no_twin_code(monkeypatch, tiny_cfg,
                                                     two_bundles, time_limit):
    def no_twin(cfg, bundle):
        raise AssertionError("twin_transfer ran")

    monkeypatch.setattr(evalkit, "twin_transfer", no_twin)
    res, twin = evalkit.run_campaign(tiny_cfg)
    assert twin is None
    assert res == evalkit.run_experiment(tiny_cfg, two_bundles)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 3, 8, None])
def test_run_campaign_strides_over_at_most_one_worker_per_cpu(
        monkeypatch, tmp_path, two_bundles, cpus, time_limit):
    cfg = tiny_config(firmware_count=5)
    if cpus is not None:
        _cpus(monkeypatch, cpus)
    mask = len(os.sched_getaffinity(0))

    def recording(cfg, i):
        (tmp_path / str(i)).write_text(str(os.getpid()))
        return two_bundles[i % 2]

    monkeypatch.setattr(evalkit, "prepare_firmware", recording)
    res, _ = evalkit.run_campaign(cfg)
    pids = [int((tmp_path / str(i)).read_text()) for i in range(5)]
    k = len(set(pids))
    assert k == min(5, mask)
    assert os.getpid() not in pids
    # worker w builds indices w, w + k, ...
    assert all(pids[i] == pids[i % k] for i in range(5))
    assert res == evalkit.run_experiment(
        cfg, [two_bundles[i % 2] for i in range(5)])
    assert multiprocessing.active_children() == []


def test_run_campaign_streams_large_messages_in_index_order(
        monkeypatch, two_bundles, time_limit):
    # every message exceeds a pipe buffer, so a worker sends its next one
    # only once the parent has read the last; reading both phases in index
    # order must still give each firmware's message under its own index
    _cpus(monkeypatch, 2)
    big = 1 << 18
    monkeypatch.setattr(evalkit, "prepare_firmware",
                        lambda cfg, i: dataclasses.replace(
                            two_bundles[i % 2], step_perm=np.full(big, i)))
    monkeypatch.setattr(evalkit, "firmware_errors",
                        lambda qmodels, j, ds: np.full(big, j))
    monkeypatch.setattr(evalkit, "_assemble", lambda cfg, bundles, errors: (
        [int(b.step_perm[0]) for b in bundles],
        [int(e[0]) for e in errors]))
    got, _ = evalkit.run_campaign(tiny_config(firmware_count=5))
    assert got == (list(range(5)), list(range(5)))
    assert multiprocessing.active_children() == []


@pytest.fixture()
def fail_first(monkeypatch, two_bundles):
    """fail_first(phase) makes firmware 0 fail in that phase, while
    firmware 1's worker sends more than a pipe buffer and so blocks in
    send until it is stopped."""
    def install(phase):
        big = dataclasses.replace(two_bundles[1],
                                  step_perm=np.zeros(1 << 20))
        if phase == "build":
            def build(cfg, i):
                if i == 0:
                    raise ValueError("firmware 0 cannot be built")
                return big
            monkeypatch.setattr(evalkit, "prepare_firmware", build)
            return "firmware 0 cannot be built"

        def errors(qmodels, j, ds):
            if j == 0:
                raise ValueError("firmware 0 cannot be scored")
            return [[np.zeros(1 << 20)]]
        monkeypatch.setattr(evalkit, "prepare_firmware",
                            lambda cfg, i: two_bundles[i % 2])
        monkeypatch.setattr(evalkit, "firmware_errors", errors)
        return "firmware 0 cannot be scored"
    return install


@pytest.mark.parametrize("phase", ["build", "score"])
def test_run_campaign_reraises_a_worker_error_and_stops_the_rest(
        monkeypatch, tiny_cfg, fail_first, phase, time_limit):
    _cpus(monkeypatch, 2)
    message = fail_first(phase)
    with pytest.raises(ValueError, match="^%s$" % message):
        evalkit.run_campaign(tiny_cfg)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("phase", ["build", "score"])
def test_run_campaign_reports_a_worker_that_dies(monkeypatch, tiny_cfg,
                                                 two_bundles, phase,
                                                 time_limit):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(evalkit, "prepare_firmware",
                        lambda cfg, i: os._exit(1) if phase == "build"
                        and i == 1 else two_bundles[i])
    real = evalkit.firmware_errors
    monkeypatch.setattr(evalkit, "firmware_errors",
                        lambda q, j, ds: os._exit(1) if j == 1
                        else real(q, j, ds))
    with pytest.raises(RuntimeError,
                       match="^firmware 1: its worker exited with code 1$"):
        evalkit.run_campaign(tiny_cfg)
    assert multiprocessing.active_children() == []


def test_run_campaign_reports_a_worker_that_dies_before_the_models(
        monkeypatch, tiny_cfg, two_bundles, time_limit):
    # firmware 1's worker exits once it has sent its bundle, and the parent
    # sends the models only after that, so its send finds the pipe broken
    _cpus(monkeypatch, 2)
    parent, built = os.getpid(), []
    conn = multiprocessing.connection.Connection
    recv, send = conn.recv, conn.send

    def build(cfg, i):
        built.append(i)
        return two_bundles[i]

    def dying_recv(self):
        if os.getpid() != parent and 1 in built:
            os._exit(1)
        return recv(self)

    def late_send(self, obj):
        if os.getpid() == parent:
            while len(multiprocessing.active_children()) == 2:
                time.sleep(0.01)
        send(self, obj)

    monkeypatch.setattr(evalkit, "prepare_firmware", build)
    monkeypatch.setattr(conn, "recv", dying_recv)
    monkeypatch.setattr(conn, "send", late_send)
    with pytest.raises(RuntimeError,
                       match="^firmware 1: its worker exited with code 1$"):
        evalkit.run_campaign(tiny_cfg)
    assert multiprocessing.active_children() == []


def test_eval_exits_3_on_a_worker_error(monkeypatch, tmp_path, capsys,
                                        fail_first, time_limit):
    _cpus(monkeypatch, 2)
    for phase in ("build", "score"):
        message = fail_first(phase)
        assert cli.main(["eval", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: %s\n" % message
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "eval").exists()


def test_parent_receives_no_features(monkeypatch, tiny_cfg, two_bundles,
                                     time_limit):
    """A guard against sending feature matrices to the parent again:
    beyond each firmware's two models, the parent receives less than a
    tenth of the bytes of that firmware's features."""
    sizes = []

    def counting_recv(self):
        buf = self.recv_bytes()
        sizes.append(len(buf))
        return pickle.loads(buf)

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv",
                        counting_recv)
    evalkit.run_campaign(tiny_cfg, with_twin=True)
    n = tiny_cfg.firmware_count
    # a bundle with the twin result per firmware, then its error blocks
    assert len(sizes) == 2 * n
    for j, b in enumerate(two_bundles):
        features = sum(getattr(b.dataset, f.name).nbytes
                       for f in dataclasses.fields(b.dataset))
        models = len(pickle.dumps(b.model)) + len(pickle.dumps(b.qmodel))
        assert sizes[j] + sizes[n + j] - models < 0.1 * features
    assert multiprocessing.active_children() == []


# ------------------------------------------------------------ twin_transfer


@pytest.fixture(scope="module")
def twin_result(tiny_cfg, bundle):
    return evalkit.twin_transfer(tiny_cfg, bundle)


def test_twin_transfer_population_counts(twin_result, tiny_cfg):
    assert twin_result.n_twin_safe == tiny_cfg.twin_eval_traces
    n_data_mutants = 3 * len(tiny_cfg.severities)
    want_unsafe = (n_data_mutants * tiny_cfg.traces_per_mutant
                   + tiny_cfg.twin_other_firmware
                   * tiny_cfg.twin_other_traces)
    assert twin_result.n_twin_unsafe == want_unsafe
    m = twin_result.metrics
    assert m.tn + m.fp == twin_result.n_twin_safe
    assert m.tp + m.fn == twin_result.n_twin_unsafe


def test_twin_transfer_embeds_config_identity(twin_result, tiny_cfg):
    assert twin_result.config_digest == config_digest(tiny_cfg)
    assert twin_result.seed == tiny_cfg.seed
    assert twin_result.calibration.t_opt > 0.0


def test_twin_transfer_rejects_other_firmware_bundle(tiny_cfg, two_bundles):
    with pytest.raises(ValueError, match="firmware 0"):
        evalkit.twin_transfer(tiny_cfg, two_bundles[1])


def test_twin_transfer_rejects_short_eval_window(bundle):
    cfg = tiny_config(twin_eval_traces=6)
    with pytest.raises(ValueError, match="twin_eval_traces"):
        evalkit.twin_transfer(cfg, bundle)


def test_twin_report_format(twin_result):
    text = evalkit.format_twin_report(twin_result)
    lines = text.splitlines()
    assert lines[0] == "# twin transfer report"
    assert lines[3] == "n_twin_safe=%d" % twin_result.n_twin_safe
    assert lines[4] == "n_twin_unsafe=%d" % twin_result.n_twin_unsafe
    keys = [ln.split("=")[0] for ln in lines[1:]]
    assert keys == ["config_digest", "seed", "n_twin_safe", "n_twin_unsafe",
                    "t_opt", "tnr", "tpr", "f1_unsafe", "f1_safe", "auc"]
    assert text.endswith("\n")
