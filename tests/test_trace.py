"""Trace generator: layouts, mutations, sampling, aggregation, datasets, CSV."""

import csv
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestlab import cli, trace
from attestlab.seeds import derive_seed, rng
from attestlab.trace import LayoutSpec
from test_golden import CFG_TEXT

SPEC = LayoutSpec(data_section_len=256, n_variables=12)


def _profile(seed=7, spec=SPEC):
    return trace.generate_profile(seed, spec)


def _features(p, device_seed, steps):
    """s = 4 block means of the data sections sampled at steps."""
    return trace.aggregate_many(
        trace.sample_traces(p, device_seed, steps).data, s=4,
        length=p.data_section_len)


# ---------------------------------------------------------------------------
# profile generation

def test_generate_profile_deterministic_and_serializable(tmp_path):
    a = _profile()
    b = _profile()
    assert a == b
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    trace.save_profile(p1, a, "digest")
    trace.save_profile(p2, b, "digest")
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_profile_variables_disjoint_and_in_bounds():
    prof = _profile()
    assert len(prof.variables) == SPEC.n_variables
    cursor = 0
    for v in sorted(prof.variables, key=lambda v: v.offset):
        assert v.offset >= cursor
        cursor = v.offset + v.width
    assert cursor <= prof.data_section_len
    assert prof.mutation is None
    assert prof.label == "safe"


def test_generate_profile_seeds_give_distinct_patterns():
    a = _profile(seed=7)
    b = _profile(seed=8)
    a_inits = [v.init_seed for v in a.variables]
    b_inits = [v.init_seed for v in b.variables]
    n = min(len(a_inits), len(b_inits))
    differing = sum(x != y for x, y in zip(a_inits, b_inits))
    assert differing >= 0.25 * n


def test_generate_profile_kind_quota_matches_weights():
    # largest-remainder apportionment of the default weights over 16 slots;
    # exact shares are 9.6, 1.6, 1.6, 3.2 so each count must be its floor
    # or ceiling and the two leftover slots go to tied .6 fractions
    spec = LayoutSpec(data_section_len=512, n_variables=16)
    prof = trace.generate_profile(3, spec)
    counts = {k: 0 for k in trace.VARIABLE_KINDS}
    for v in prof.variables:
        counts[v.kind] += 1
    shares = {"constant": 9.6, "counter": 1.6, "random_walk": 1.6,
              "flag": 3.2}
    for k, share in shares.items():
        assert math.floor(share) <= counts[k] <= math.ceil(share)
    assert sum(counts.values()) == spec.n_variables
    assert counts["flag"] == 3  # .2 fraction never wins a leftover slot
    assert counts == {"constant": 9, "counter": 2, "random_walk": 2,
                      "flag": 3}


def test_generate_profile_layout_overflow_rejected():
    spec = LayoutSpec(data_section_len=16, n_variables=12)
    with pytest.raises(ValueError):
        trace.generate_profile(7, spec)


def test_generate_profile_validates_spec():
    with pytest.raises(ValueError):
        trace.generate_profile(7, LayoutSpec(data_section_len=10))
    with pytest.raises(ValueError):
        trace.generate_profile(7, LayoutSpec(n_variables=0))
    with pytest.raises(ValueError):
        trace.generate_profile(7, LayoutSpec(fill_fraction=0.9))


# ---------------------------------------------------------------------------
# mutations

def test_tamper_data_full_severity_changes_every_variable():
    base = _profile()
    mut = trace.mutate_profile(base, "tamper_data", 1.0, 99)
    assert mut.mutation == trace.Mutation(kind="tamper_data", severity=1.0,
                                          seed=99)
    assert mut.label == "unsafe"
    changed = sum(a.init_seed != b.init_seed
                  for a, b in zip(base.variables, mut.variables))
    assert changed == len(base.variables)


def test_tamper_data_partial_severity_changes_exact_count():
    base = _profile()
    mut = trace.mutate_profile(base, "tamper_data", 0.25, 99)
    changed = sum(a.init_seed != b.init_seed
                  for a, b in zip(base.variables, mut.variables))
    assert changed == math.ceil(0.25 * len(base.variables))
    # offsets, widths, kinds untouched: only values are rewritten
    assert [(v.offset, v.width, v.kind) for v in mut.variables] \
        == [(v.offset, v.width, v.kind) for v in base.variables]


def test_tamper_control_flow_touches_only_stack():
    base = _profile()
    mut = trace.mutate_profile(base, "tamper_control_flow", 1.0, 5)
    assert mut.variables == base.variables
    assert mut.stack != base.stack


def test_data_injection_fills_requested_gap_share():
    base = _profile()
    gaps = sum(length for _, length in trace._gaps(base))
    assert gaps > 0
    mut = trace.mutate_profile(base, "data_injection", 0.5, 11)
    injected = sum(v.width for v in mut.variables) \
        - sum(v.width for v in base.variables)
    assert injected == math.ceil(0.5 * gaps)
    # still non-overlapping
    cursor = 0
    for v in sorted(mut.variables, key=lambda v: v.offset):
        assert v.offset >= cursor
        cursor = v.offset + v.width
    assert cursor <= mut.data_section_len


def test_data_injection_without_gap_rejected():
    base = _profile()
    full = trace.FirmwareProfile(
        firmware_id="full", firmware_seed=1,
        data_section_len=8,
        variables=(trace.Variable(offset=0, width=8, kind="constant",
                                  init_seed=1),),
        stack=base.stack)
    with pytest.raises(ValueError):
        trace.mutate_profile(full, "data_injection", 0.5, 1)


def test_mutate_profile_validates_inputs():
    base = _profile()
    with pytest.raises(ValueError):
        trace.mutate_profile(base, "nonsense", 0.5, 1)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            trace.mutate_profile(base, "tamper_data", bad, 1)


# ---------------------------------------------------------------------------
# sampling

def test_sample_trace_deterministic():
    prof = _profile()
    t1 = trace.sample_traces(prof, device_seed=42, time_steps=[17])
    t2 = trace.sample_traces(prof, device_seed=42, time_steps=[17])
    assert np.array_equal(t1.data, t2.data)
    assert t1.data.shape == (1, prof.data_section_len + prof.stack_len)
    assert t1.data.dtype == np.uint8
    assert list(t1.labels) == ["safe"]


def test_sample_trace_matches_batched_sampling():
    prof = _profile()
    batch = trace.sample_traces(prof, 42, [3, 9, 21])
    single = trace.sample_traces(prof, 42, [9])
    assert np.array_equal(batch.data[1], single.data[0])


def test_sample_traces_fills_columns():
    prof = _profile()
    mut = trace.mutate_profile(prof, "tamper_data", 1.0, 3)
    batch = trace.sample_traces(mut, 42, [8, 2, 5])
    assert len(batch) == 3
    assert batch.time_steps.tolist() == [8, 2, 5]
    assert batch.device_ids.tolist() == ["dev%016x" % 42] * 3
    assert batch.firmware_ids.tolist() == [mut.firmware_id] * 3
    assert batch.labels.tolist() == ["unsafe"] * 3
    empty = trace.sample_traces(prof, 42, [])
    assert len(empty) == 0 and empty.data.shape == (
        0, prof.data_section_len + prof.stack_len)


def test_twins_share_data_section_and_differ_on_stack():
    prof = _profile()
    a = trace.sample_traces(prof, device_seed=1, time_steps=[0]).data[0]
    b = trace.sample_traces(prof, device_seed=2, time_steps=[0]).data[0]
    L = prof.data_section_len
    assert np.array_equal(a[:L], b[:L])
    stack_diff = np.mean(a[L:] != b[L:])
    assert stack_diff >= 0.40


def test_counters_advance_and_constants_hold():
    prof = _profile()
    t0, t1 = trace.sample_traces(prof, 1, [0, 1]).data
    for v in prof.variables:
        sl = slice(v.offset, v.offset + v.width)
        if v.kind == "constant":
            assert np.array_equal(t0[sl], t1[sl])
        elif v.kind == "counter":
            assert np.array_equal((t0[sl].astype(int) + 1) % 256,
                                  t1[sl].astype(int))


def test_random_walk_steps_are_clipped_unit_moves():
    prof = _profile()
    walks = [v for v in prof.variables if v.kind == "random_walk"]
    assert walks
    steps = list(range(64))
    data = trace.sample_traces(prof, 1, steps).data.astype(int)
    for v in walks:
        path = data[:, v.offset:v.offset + v.width]
        deltas = np.diff(path, axis=0)
        assert set(np.unique(deltas)) <= {-1, 0, 1}
        # zero deltas only at the clip boundaries
        stay = deltas == 0
        at_edge = (path[:-1] == 0) | (path[:-1] == 255)
        assert np.all(~stay | at_edge)
        assert path.min() >= 0 and path.max() <= 255


def _clip_loop_walk(firmware_seed, init_seed, width, max_t):
    """Oracle: the per-step np.clip builder the memoized walk replaced."""
    base = rng(firmware_seed, "var", init_seed).integers(
        0, 256, size=width, dtype=np.int64)
    steps = rng(firmware_seed, "walk", init_seed).choice(
        np.array([-1, 1], dtype=np.int64), size=(max_t, width))
    path = np.empty((max_t + 1, width), dtype=np.int64)
    path[0] = base
    cur = base.copy()
    for i in range(max_t):
        cur = np.clip(cur + steps[i], 0, 255)
        path[i + 1] = cur
    return path


def _walk_seed(firmware_seed, width, near, max_t):
    """First init_seed whose walk starts within 16 of near in every byte
    and is clamped there within max_t steps."""
    for init_seed in range(100_000):
        base = rng(firmware_seed, "var", init_seed).integers(
            0, 256, size=width, dtype=np.int64)
        if np.all(np.abs(base - near) <= 16):
            path = _clip_loop_walk(firmware_seed, init_seed, width, max_t)
            if np.all((path == near).any(axis=0)):
                return init_seed
    raise AssertionError("no seed found")


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("near", [0, 255])
def test_random_walk_matches_clip_loop_oracle(width, near):
    fw_seed = 11
    init_seed = _walk_seed(fw_seed, width, near, 5000)
    var = trace.Variable(offset=0, width=width, kind="random_walk",
                         init_seed=init_seed)
    prof = trace.FirmwareProfile(
        firmware_id="walk", firmware_seed=fw_seed, data_section_len=4,
        variables=(var,), stack=trace.StackPattern((8,), 0.5))
    for max_t in (0, 1, 4095, 4096, 5000):
        steps = np.arange(max_t + 1)
        got = trace._variable_values(prof, var, steps)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _clip_loop_walk(fw_seed, init_seed,
                                                   width, max_t))


@pytest.mark.parametrize("k", [0, 1, 7, 4095, 4096])
def test_walk_step_draw_prefix_property(k):
    # a longer draw starts with the shorter one, so a walk path only as
    # long as the largest requested step has the values of any longer one
    def draw(n):
        return rng(3, "walk", 5).choice(np.array([-1, 1], dtype=np.int64),
                                        size=(n, 2))
    assert np.array_equal(draw(8192)[:k], draw(k))


def _accumulate_walk(base, steps):
    """Oracle: the per-step clamp loop the prefix-sum kernel replaced."""
    return np.array(list(itertools.accumulate(
        steps.tolist(), lambda c, d: min(255, max(0, c + d)), initial=base)))


@pytest.mark.parametrize("base", [0, 1, 128, 254, 255])
@pytest.mark.parametrize("runs", [
    [], [1], [-1], [(1, 300), (-1, 300), (1, 300)],
    [(-1, 300), (1, 300), (-1, 300), (1, 300)],
    [(1, 255), (-1, 255), (1, 256), (-1, 256), (1, 2)],
    [(1, 600), (-1, 1), (1, 1), (-1, 600), (1, 1)]],
    ids=["len0", "up1", "down1", "up-down-up", "down-up-down-up", "edges",
         "pinned"])
def test_clamped_walk_kernel_matches_loop(base, runs):
    # forced step runs that hit both clamps several times, lengths 0 and 1
    steps = np.array([d for r in runs
                      for d in ([r] if isinstance(r, int) else [r[0]] * r[1])],
                     dtype=np.int64)
    got = trace._clamped_walk(base, steps)
    want = _accumulate_walk(base, steps)
    assert got.shape == (len(steps) + 1,)
    assert np.array_equal(got, want)
    if len(runs) > 2:
        assert {0, 255} <= set(got.tolist())


@settings(max_examples=60, deadline=None)
@given(base=st.integers(0, 255),
       runs=st.lists(st.tuples(st.sampled_from([-1, 1]), st.integers(1, 400)),
                     max_size=8),
       noise=st.integers(0, 2 ** 32 - 1))
def test_clamped_walk_kernel_property(base, runs, noise):
    # long one-sided runs, each followed by a short random +-1 stretch
    g = np.random.default_rng(noise)
    steps = np.concatenate(
        [np.full(n, d, dtype=np.int64) for d, n in runs]
        + [g.choice(np.array([-1, 1], dtype=np.int64), size=50)])
    assert np.array_equal(trace._clamped_walk(base, steps),
                          _accumulate_walk(base, steps))


def test_sample_traces_independent_of_batching():
    prof = _profile()
    assert any(v.kind == "random_walk" for v in prof.variables)
    mutant = trace.mutate_profile(prof, "tamper_function", 1.0, 4)

    def sample(p, steps):
        return trace.sample_traces(p, 9, steps).data.tobytes()

    for p in (prof, mutant):
        whole = sample(p, range(6000))
        assert sample(p, range(6000)) == whole
        # the two batches draw walk paths of different lengths
        split = sample(p, range(3000)) + sample(p, range(3000, 6000))
        assert split == whole


def test_negative_time_step_rejected():
    with pytest.raises(ValueError):
        trace.sample_traces(_profile(), 1, [-1])


def test_separation_mutants_vs_safe_spread():
    # data-affecting mutants at severity >= 0.25 sit farther from the safe
    # cloud than the 99th percentile of safe-to-safe distances
    prof = _profile()
    steps = range(200)
    safe = _features(prof, 1, steps)
    g = np.random.default_rng(0)
    i = g.integers(0, len(safe), 4000)
    j = g.integers(0, len(safe), 4000)
    keep = i != j
    p99 = np.percentile(
        np.linalg.norm(safe[i[keep]] - safe[j[keep]], axis=1), 99)
    for kind in ("tamper_data", "tamper_function", "data_injection"):
        for sev in (0.25, 0.5, 1.0):
            mp = trace.mutate_profile(prof, kind, sev, 7)
            mut = _features(mp, 2, steps)
            mean_d = np.linalg.norm(
                mut[:, None, :] - safe[None, ::10, :], axis=2).mean()
            assert mean_d > p99, (kind, sev)


def test_mutant_distance_exceeds_twin_distance():
    prof = _profile()
    steps = range(50)
    base = _features(prof, 1, steps)
    twin = _features(prof, 2, steps)
    mut = _features(trace.mutate_profile(prof, "tamper_data", 1.0, 3), 2,
                    steps)
    twin_d = np.linalg.norm(base - twin, axis=1).mean()
    mut_d = np.linalg.norm(base - mut, axis=1).mean()
    assert twin_d == 0.0  # data sections are device independent
    assert mut_d > twin_d


# ---------------------------------------------------------------------------
# aggregation

def _aggregate_oracle(values, s, length=None):
    """Reference: float64 block means of one byte row, summed as floats."""
    buf = np.asarray(values)
    n = len(buf) if length is None else length
    blocks = buf[:n].astype(np.float64).reshape(n // s, s)
    return blocks.sum(axis=1) / (255.0 * s)


def test_aggregate_extremes():
    out = trace.aggregate_many(np.array([0, 0, 0, 0, 255, 255, 255, 255],
                                        dtype=np.uint8), s=4)
    assert np.allclose(out, [0.0, 1.0])


def test_aggregate_hand_value():
    out = trace.aggregate_many(np.array([10, 20, 30, 40], dtype=np.uint8),
                               s=4)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(100.0 / 1020.0)


def test_aggregate_s1_identity_scaling():
    buf = np.arange(16, dtype=np.uint8)
    assert np.allclose(trace.aggregate_many(buf, s=1), buf / 255.0)


def test_aggregate_constant_block_exact():
    buf = np.full(12, 77, dtype=np.uint8)
    assert np.allclose(trace.aggregate_many(buf, s=4), 77.0 / 255.0)


def test_aggregate_length_selection_and_errors():
    buf = np.arange(16, dtype=np.uint8)
    assert trace.aggregate_many(buf, s=4, length=8).shape == (2,)
    assert trace.aggregate_many(np.stack([buf, buf]), s=4,
                                length=8).shape == (2, 2)
    with pytest.raises(ValueError):
        trace.aggregate_many(buf, s=4, length=10)   # not a multiple
    with pytest.raises(ValueError):
        trace.aggregate_many(buf, s=4, length=32)   # longer than the buffer
    with pytest.raises(ValueError):
        trace.aggregate_many(buf, s=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=4,
                max_size=64),
       st.integers(min_value=1, max_value=4))
def test_aggregate_bounds_property(raw, s):
    n = (len(raw) // s) * s
    if n == 0:
        return
    out = trace.aggregate_many(np.array(raw[:n], dtype=np.uint8), s=s)
    assert out.shape == (n // s,)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_aggregate_many_stacks_rows():
    prof = _profile()
    data = trace.sample_traces(prof, 1, range(5)).data
    m = trace.aggregate_many(data, s=4, length=prof.data_section_len)
    assert m.shape == (5, prof.data_section_len // 4)
    assert np.array_equal(m[2], trace.aggregate_many(
        data[2], s=4, length=prof.data_section_len))


@pytest.mark.parametrize("s", [1, 4, 8])
def test_aggregate_many_matches_aggregate_on_mixed_lengths(s):
    # a control-flow mutant's stack makes its rows longer than the safe
    # profile's; only the leading data section is aggregated
    prof = _profile()
    mut = trace.mutate_profile(prof, "tamper_control_flow", 0.5, 0)
    L = prof.data_section_len
    for p in (prof, mut):
        data = trace.sample_traces(p, 1, range(3)).data
        want = np.stack([_aggregate_oracle(row, s, L) for row in data])
        got = trace.aggregate_many(data, s=s, length=L)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        for row in data:
            assert trace.aggregate_many(row, s=s, length=L).tobytes() \
                == _aggregate_oracle(row, s, L).tobytes()
        # past the data section, into the stack
        n = data.shape[1] // s * s
        assert trace.aggregate_many(data, s=s, length=n).tobytes() \
            == np.stack([_aggregate_oracle(r, s, n) for r in data]).tobytes()
    assert (mut.data_section_len + mut.stack_len
            > prof.data_section_len + prof.stack_len)


def test_aggregate_many_errors():
    batch = trace.sample_traces(_profile(), 1, range(2)).data
    n = batch.shape[1]
    assert trace.aggregate_many(batch, s=4).shape == (2, n // 4)
    assert trace.aggregate_many(batch[:0], s=4).shape == (0, n // 4)
    bad = ((dict(s=0), "s must be"),
           (dict(s=4, length=10), "not a positive multiple"),
           (dict(s=4, length=n + 4), "exceeds trace length"))
    for data in (batch, batch[0]):
        for kwargs, message in bad:
            with pytest.raises(ValueError, match=message):
                trace.aggregate_many(data, **kwargs)
    with pytest.raises(ValueError):  # neither a row nor a batch of rows
        trace.aggregate_many(batch[None], s=4)
    with pytest.raises(ValueError):  # rows of unequal length
        trace.aggregate_many([batch[0], batch[1][:-4]], s=4)


# ---------------------------------------------------------------------------
# noise and datasets

def test_inject_noise_zero_factor_identity():
    x = np.random.default_rng(0).random((8, 4))
    assert np.array_equal(trace.inject_noise(x, 0.0, seed=1), x)


def test_inject_noise_bounds_and_mean():
    x = np.zeros((200, 64))
    out = trace.inject_noise(x, 0.1, seed=2)
    delta = out - x
    assert np.all(delta >= 0.0) and np.all(delta < 0.1)
    assert abs(delta.mean() - 0.05) < 0.005


def test_inject_noise_deterministic_and_pure():
    x = np.random.default_rng(3).random((4, 4))
    before = x.copy()
    a = trace.inject_noise(x, 0.2, seed=9)
    b = trace.inject_noise(x, 0.2, seed=9)
    assert np.array_equal(a, b)
    assert np.array_equal(x, before)
    with pytest.raises(ValueError):
        trace.inject_noise(x, -0.1, seed=9)


def test_build_dataset_split_sizes():
    safe = _features(_profile(), 1, range(100))
    ds = trace.build_dataset(safe, seed=4)
    assert ds.train.shape[0] == 50
    assert ds.val.shape[0] == 25
    assert ds.test_safe.shape[0] == 25
    assert ds.test_unsafe.shape == (0, ds.train.shape[1])


def test_training_input_is_noise_on_the_train_split():
    # the noisy matrix prepare_firmware and `train` fit, as build_dataset
    # drew it when it still returned one: sha256 of the same call's bytes
    safe = _features(_profile(), 1, range(100))
    ds = trace.build_dataset(safe, seed=4)
    noisy = trace.inject_noise(ds.train, 0.05, derive_seed(4, "noise"))
    assert noisy.shape == ds.train.shape
    assert np.all(noisy >= ds.train)
    assert hashlib.sha256(noisy.tobytes()).hexdigest() == (
        "4a670d081a1abf963f55b2e968b2c5f4e4ed358051a6413dceb5ede714e7135e")


def test_build_dataset_rows_are_disjoint_and_deterministic():
    safe = _features(_profile(), 1, range(60))
    a = trace.build_dataset(safe, seed=4)
    b = trace.build_dataset(safe, seed=4)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    all_rows = np.vstack([a.train, a.val, a.test_safe])
    assert all_rows.shape == safe.shape
    assert np.array_equal(np.sort(all_rows, axis=0), np.sort(safe, axis=0))


def test_build_dataset_unsafe_goes_to_test():
    prof = _profile()
    mut = trace.mutate_profile(prof, "tamper_data", 1.0, 1)
    unsafe = _features(mut, 1, range(10))
    ds = trace.build_dataset(_features(prof, 1, range(40)), unsafe, seed=4)
    assert ds.test_unsafe.shape[0] == 10
    assert np.array_equal(ds.test_unsafe, unsafe)


def test_build_dataset_validation():
    safe = _features(_profile(), 1, range(20))
    with pytest.raises(ValueError):
        trace.build_dataset(safe[:4])
    with pytest.raises(ValueError):
        trace.build_dataset(safe, ratios=(0.5, 0.5, 0.5))


# ---------------------------------------------------------------------------
# serialization

def test_profile_roundtrip(tmp_path):
    prof = trace.mutate_profile(_profile(), "data_injection", 0.5, 8)
    path = tmp_path / "p.json"
    trace.save_profile(path, prof, "digest")
    assert trace.load_profile(path) == (prof, "digest")


def test_profile_rejects_unknown_format_version():
    d = trace.profile_to_dict(_profile())
    d["format_version"] = 999
    with pytest.raises(ValueError):
        trace.profile_from_dict(d)


def test_trace_csv_roundtrip(tmp_path):
    prof = _profile()
    batch = trace.sample_traces(prof, 5, [4, 0, 9])
    path = tmp_path / "t.csv"
    trace.export_traces(path, batch, meta={"seed": 5})
    back = trace.import_traces(path)
    assert len(back) == 3
    assert back.data.dtype == np.uint8
    for col in ("data", "time_steps", "device_ids", "firmware_ids", "labels"):
        assert np.array_equal(getattr(back, col), getattr(batch, col)), col
    assert path.read_text().startswith("# seed=5\n")


def _interleaved(prof):
    """Safe and tamper_data rows of one width, alternating in file order."""
    mut = trace.mutate_profile(prof, "tamper_data", 1.0, 1)
    safe = trace.sample_traces(prof, 1, range(12))
    unsafe = trace.sample_traces(mut, 2, range(6))
    order = [k for pair in zip(range(6), range(12, 18)) for k in pair] \
        + list(range(6, 12))
    cols = {c: np.concatenate([getattr(safe, c), getattr(unsafe, c)])[order]
            for c in ("data", "time_steps", "device_ids", "firmware_ids",
                      "labels")}
    return trace.TraceBatch(**cols)


def test_import_traces_keeps_per_row_labels(tmp_path):
    batch = _interleaved(_profile())
    assert batch.labels[:4].tolist() == ["safe", "unsafe", "safe", "unsafe"]
    path = tmp_path / "mixed.csv"
    trace.export_traces(path, batch)
    back = trace.import_traces(path)
    assert back.labels.tolist() == batch.labels.tolist()
    assert back.device_ids.tolist() == batch.device_ids.tolist()
    assert np.array_equal(back.data, batch.data)


def test_import_traces_header_only_is_empty_batch(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# seed=1\n"
                    "device_id,firmware_id,time_step,label,b0,b1,b2\n")
    back = trace.import_traces(path)
    assert len(back) == 0
    assert back.data.shape == (0, 3) and back.data.dtype == np.uint8
    assert back.time_steps.shape == back.labels.shape == (0,)


def test_export_traces_rejects_empty_batch(tmp_path):
    with pytest.raises(ValueError, match="no traces"):
        trace.export_traces(tmp_path / "t.csv",
                            trace.sample_traces(_profile(), 1, []))


def test_import_traces_names_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("device_id,firmware_id,time_step,label,b0,b1\n"
                    "d,f,0,safe,1,2\n"
                    "d,f,1,safe,256,2\n")
    with pytest.raises(ValueError, match="line 3"):
        trace.import_traces(path)


def test_import_traces_rejects_bad_label_and_step(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("device_id,firmware_id,time_step,label,b0\n"
                    "d,f,0,sketchy,1\n")
    with pytest.raises(ValueError, match="line 2"):
        trace.import_traces(path)
    path.write_text("device_id,firmware_id,time_step,label,b0\n"
                    "d,f,-3,safe,1\n")
    with pytest.raises(ValueError, match="line 2"):
        trace.import_traces(path)


def test_import_traces_rejects_oversized_byte_value(tmp_path):
    # too large for int64: still the line-numbered range error
    path = tmp_path / "bad.csv"
    path.write_text("device_id,firmware_id,time_step,label,b0,b1\n"
                    "d,f,0,safe,1,2\n"
                    "d,f,1,safe,99999999999999999999,2\n")
    with pytest.raises(ValueError, match="line 3: byte value out of range"):
        trace.import_traces(path)


def test_import_traces_rejects_non_integer_byte_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("device_id,firmware_id,time_step,label,b0\n"
                    "d,f,0,safe,1.5\n")
    with pytest.raises(ValueError, match="line 2: non-integer byte value"):
        trace.import_traces(path)


def test_import_traces_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("device,firmware_id,time_step,label,b0\nd,f,0,safe,1\n")
    with pytest.raises(ValueError, match="line 1"):
        trace.import_traces(path)


def test_import_traces_names_line_of_overlong_field(tmp_path):
    # csv.reader refuses a field over csv.field_size_limit()
    huge = '"%s"' % ("x" * (csv.field_size_limit() + 1))
    path = tmp_path / "bad.csv"
    path.write_text("# a=1\ndevice_id,firmware_id,time_step,label,b0\n"
                    "d,f,0,safe,1\n%s,f,1,safe,2\n" % huge)
    with pytest.raises(ValueError, match="^line 4: field larger"):
        trace.import_traces(path)
    path.write_text("# a=1\n%s,firmware_id\n" % huge)
    with pytest.raises(ValueError, match="^line 2: field larger"):
        trace.import_traces(path)


# ---------------------------------------------------------------------------
# CSV fast paths against the per-row oracles they replaced

_COLUMNS = ("data", "time_steps", "device_ids", "firmware_ids", "labels")


def _import_oracle(path):
    """Oracle: the per-row csv.reader importer (one line counted per row)."""
    with open(path, encoding="utf-8", newline="") as f:
        lineno = 0
        line = f.readline()
        while line.startswith("#"):
            lineno += 1
            line = f.readline()
        lineno += 1
        header = next(csv.reader([line])) if line else []
        if header[:4] != ["device_id", "firmware_id", "time_step", "label"]:
            raise ValueError("line %d: bad header" % lineno)
        width = len(header) - 4
        if width < 1 or header[4:] != ["b%d" % i for i in range(width)]:
            raise ValueError("line %d: bad byte column names" % lineno)
        fields, rows = [], []
        for row in csv.reader(f):
            lineno += 1
            if len(row) != 4 + width:
                raise ValueError("line %d: expected %d fields, got %d"
                                 % (lineno, 4 + width, len(row)))
            try:
                step = int(row[2])
            except ValueError:
                raise ValueError("line %d: time_step is not an integer"
                                 % lineno) from None
            if step < 0:
                raise ValueError("line %d: negative time_step" % lineno)
            if row[3] not in trace.LABELS:
                raise ValueError("line %d: label must be safe|unsafe" % lineno)
            try:
                data = np.array(row[4:], dtype=np.int64)
                if ((data < 0) | (data > 255)).any():
                    raise OverflowError
            except ValueError:
                raise ValueError("line %d: non-integer byte value"
                                 % lineno) from None
            except OverflowError:
                raise ValueError("line %d: byte value out of range 0..255"
                                 % lineno) from None
            fields.append((row[0], row[1], step, row[3]))
            rows.append(data)
    device_ids, firmware_ids, steps, labels = \
        np.array(fields, dtype=object).reshape(len(fields), 4).T
    return trace.TraceBatch(
        data=np.array(rows, dtype=np.uint8).reshape(len(rows), width),
        time_steps=steps.astype(np.int64), device_ids=device_ids.astype(str),
        firmware_ids=firmware_ids.astype(str), labels=labels.astype(str))


def _assert_imports_like_oracle(path):
    """Same five columns (values, dtypes, shapes) or the same exception."""
    try:
        want = _import_oracle(path)
    except Exception as exc:  # the oracle's exact error is the spec
        with pytest.raises(type(exc)) as got:
            trace.import_traces(path)
        assert str(got.value) == str(exc)
        return
    got = trace.import_traces(path)
    for col in _COLUMNS:
        a, b = getattr(got, col), getattr(want, col)
        assert a.dtype == b.dtype and a.shape == b.shape, col
        assert np.array_equal(a, b), col


@pytest.fixture(scope="module")
def golden_gen(tmp_path_factory):
    """The gen CSVs of the golden-digest config."""
    root = tmp_path_factory.mktemp("gen")
    (root / "tiny.cfg").write_text(CFG_TEXT, encoding="utf-8")
    for fw in ("0", "1"):
        assert cli.main(["gen", "--config", str(root / "tiny.cfg"),
                         "--out", str(root / "out"), "--firmware", fw]) == 0
    paths = sorted((root / "out" / "gen").rglob("*.csv"))
    assert len(paths) == 10
    return paths


def test_import_traces_matches_oracle_on_golden_csvs(golden_gen):
    for path in golden_gen:
        assert path.read_bytes().endswith(b"\r\n")
        _assert_imports_like_oracle(path)


HEAD = "device_id,firmware_id,time_step,label,b0,b1,b2"
EDGE_FILES = {
    "canonical": HEAD + "\r\nd,f,0,safe,0,9,255\r\nd,f,1,unsafe,10,99,100\r\n",
    "lf_only": HEAD + "\nd,f,0,safe,0,9,255\nd,f,1,unsafe,10,99,100\n",
    "mixed_endings": HEAD + "\r\nd,f,0,safe,1,2,3\nd,f,1,safe,4,5,6\r\n",
    "quoted_ids": HEAD + '\r\n"d,1",f,0,safe,1,2,3\r\n'
                  'd,"f,""x""",1,safe,4,5,6\r\n',
    "quoted_id_shifts_fields": HEAD + '\r\n"d,f",0,safe,1,2,3\r\n',
    "quoted_byte": HEAD + '\r\nd,f,0,safe,"1",2,3\r\n',
    "no_final_newline": HEAD + "\r\nd,f,0,safe,1,2,3\r\nd,f,1,safe,4,5,6",
    "header_only": "# seed=1\n" + HEAD + "\r\n",
    "header_no_newline": HEAD,
    "comments_only": "# a=1\n# b=2\n",
    "empty": "",
    "blank_body_line": HEAD + "\r\nd,f,0,safe,1,2,3\r\n\r\n"
                       "d,f,1,safe,4,5,6\r\n",
    "trailing_blank_line": HEAD + "\r\nd,f,0,safe,1,2,3\r\n\r\n",
    "mixed_labels": HEAD + "\r\na,f,0,unsafe,1,2,3\r\nb,g,7,safe,4,5,6\r\n",
    "too_few_cells": HEAD + "\r\nd,f,0,safe,1,2\r\n",
    "too_many_cells": HEAD + "\r\nd,f,0,safe,1,2,3,4\r\n",
    "bad_label": HEAD + "\r\nd,f,0,Safe,1,2,3\r\n",
    "empty_ids": HEAD + "\r\n,,0,safe,1,2,3\r\n",
    "hash_id": HEAD + "\r\n#d,f,0,safe,1,2,3\r\n",
    "lone_cr": HEAD + "\rd,f,0,safe,1,2,3\rd,f,1,safe,4,5,6\r",
    "unicode_id": HEAD + "\r\nd\u00e9v,f\u4e00,3,safe,1,2,3\r\n",
    "bad_header": "device,firmware_id,time_step,label,b0\r\nd,f,0,safe,1\r\n",
    "bad_byte_names": "device_id,firmware_id,time_step,label,b1\r\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_import_traces_matches_oracle_on_edge_files(tmp_path, name):
    path = tmp_path / "t.csv"
    path.write_bytes(EDGE_FILES[name].encode("utf-8"))
    _assert_imports_like_oracle(path)


def _long_batch(rows=1500, width=300):
    data = np.random.default_rng(3).integers(0, 256, size=(rows, width),
                                             dtype=np.uint8)
    return trace.TraceBatch(
        data=data, time_steps=np.arange(rows, dtype=np.int64) * 7,
        device_ids=np.array(["dev%d" % (i % 3) for i in range(rows)]),
        firmware_ids=np.full(rows, "fw"),
        labels=np.array([trace.LABELS[i % 5 == 0] for i in range(rows)]))


@pytest.mark.parametrize("bad_row", [None, 0, 1499])
def test_import_traces_matches_oracle_past_one_block(tmp_path, bad_row):
    # more than one block; a bad last row is only seen after whole blocks
    # were parsed, and the error must still name its line
    path = tmp_path / "long.csv"
    trace.export_traces(path, _long_batch(), meta={"k": "v"})
    assert path.stat().st_size > trace._CSV_BLOCK_CHARS
    if bad_row is not None:
        lines = path.read_bytes().split(b"\r\n")  # [meta + header, rows]
        lines[1 + bad_row] = lines[1 + bad_row].rpartition(b",")[0] + b",256"
        path.write_bytes(b"\r\n".join(lines))
    _assert_imports_like_oracle(path)
    if bad_row is not None:
        with pytest.raises(ValueError, match="line %d: byte value out"
                           % (3 + bad_row)):
            trace.import_traces(path)


# "\u0663" is an Arabic-Indic 3 (int() reads it); "\u00b2" is a superscript
# 2 (str.isdigit() is true, int() refuses it)
CELL_FORMS = [" 5", "+5", "1_0", "05", "\u0663", "\u00b2", "5.0", "", "256",
              "-1", "99999999999999999999", "18446744073709551621", "0005",
              "7"]


@pytest.mark.parametrize("column", ["b1", "time_step"])
@pytest.mark.parametrize("cell", CELL_FORMS)
def test_import_traces_matches_oracle_on_cell_forms(tmp_path, cell, column):
    row = {"time_step": "4", "b1": "2"}
    row[column] = cell
    path = tmp_path / "t.csv"
    path.write_bytes(("%s\r\nd,f,1,safe,0,1,2\r\nd,f,%s,safe,1,%s,3\r\n"
                      % (HEAD, row["time_step"], row["b1"])).encode("utf-8"))
    _assert_imports_like_oracle(path)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(CELL_FORMS + ["0", "255", "12"]),
                              min_size=3, max_size=3), max_size=5),
       ending=st.sampled_from(["\r\n", "\n"]),
       labels=st.lists(st.sampled_from(["safe", "unsafe", "bad"]),
                       min_size=5, max_size=5))
def test_import_traces_matches_oracle_fuzz(tmp_path_factory, rows, ending,
                                           labels):
    body = "".join("d%d,f,%d,%s,%s%s" % (i, i, labels[i], ",".join(r), ending)
                   for i, r in enumerate(rows))
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_bytes(("# s=1\n" + HEAD + ending + body).encode("utf-8"))
    _assert_imports_like_oracle(path)


def test_import_traces_names_physical_line_after_multiline_field(tmp_path):
    # the quoted device id spans lines 2-3, so the bad label is on line 5
    path = tmp_path / "t.csv"
    path.write_bytes(b"device_id,firmware_id,time_step,label,b0\r\n"
                     b'"dev\r\nice",f,0,safe,1\r\n'
                     b"d,f,1,safe,2\r\n"
                     b"d,f,2,sketchy,3\r\n")
    with pytest.raises(ValueError, match="^line 5: label must be safe"):
        trace.import_traces(path)
    path.write_bytes(b"# a=1\n" + path.read_bytes())
    with pytest.raises(ValueError, match="^line 6: label must be safe"):
        trace.import_traces(path)


def _export_oracle(path, batch, meta=None):
    """Oracle: the csv.writer row loop the table-driven exporter replaced."""
    width = batch.data.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as f:
        for k in sorted(meta or {}):
            f.write("# %s=%s\n" % (k, (meta or {})[k]))
        w = csv.writer(f)
        w.writerow(["device_id", "firmware_id", "time_step", "label"]
                   + ["b%d" % i for i in range(width)])
        for dev, fw, step, label, row in zip(
                batch.device_ids, batch.firmware_ids,
                batch.time_steps.tolist(), batch.labels, batch.data.tolist()):
            w.writerow([dev, fw, step, label] + row)


def _quoted_ids_batch():
    ids = ["a,b", 'q"t', "new\nline", "cr\rx", " sp", "", "plain", "\u00e9"]
    n = len(ids)
    return trace.TraceBatch(
        data=np.arange(n * 2, dtype=np.uint8).reshape(n, 2) * 37,
        time_steps=np.arange(n, dtype=np.int64), device_ids=np.array(ids),
        firmware_ids=np.array(ids[::-1]), labels=np.full(n, "unsafe"))


@pytest.mark.parametrize("make", [
    lambda: trace.TraceBatch(
        data=np.array([[0], [255], [7]], dtype=np.uint8),
        time_steps=np.array([0, 1, 2]), device_ids=np.full(3, "d"),
        firmware_ids=np.full(3, "f"), labels=np.full(3, "safe")),
    lambda: trace.sample_traces(_profile(), 1, [3]),
    _long_batch,
    _quoted_ids_batch],
    ids=["width1", "one_row", "past_one_block", "quoted_ids"])
def test_export_traces_matches_oracle(tmp_path, make):
    batch = make()
    trace.export_traces(tmp_path / "new.csv", batch, meta={"seed": 3})
    _export_oracle(tmp_path / "old.csv", batch, meta={"seed": 3})
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()
