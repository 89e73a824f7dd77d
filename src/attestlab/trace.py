"""Synthetic SRAM trace generation, mutation, aggregation, and dataset assembly.

A firmware profile pins a data-section layout (typed variables at fixed
offsets) plus a stack usage pattern. A trace is one full SRAM snapshot at a
given time step: the data section is a deterministic function of
(firmware_seed, time_step), the stack mixes device power-up noise with
firmware-written frames. Feature extraction averages consecutive byte blocks
so the downstream detector sees values in [0, 1].
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace

import numpy as np

from .seeds import derive_seed, rng

VARIABLE_KINDS = ("constant", "counter", "random_walk", "flag")
MUTATION_KINDS = ("tamper_data", "tamper_function", "tamper_control_flow",
                  "data_injection")
LABELS = ("safe", "unsafe")

PROFILE_FORMAT_VERSION = 1

_CSV_HEAD = ["device_id", "firmware_id", "time_step", "label"]
_CSV_BLOCK_CHARS = 1 << 20  # ~350 default-config rows; bounds memory only
_BYTE_CELLS = np.array([",%d" % i for i in range(256)], dtype=object)


@dataclass(frozen=True)
class Variable:
    offset: int
    width: int
    kind: str
    init_seed: int


@dataclass(frozen=True)
class StackPattern:
    frame_sizes: tuple[int, ...]
    fill_fraction: float


@dataclass(frozen=True)
class Mutation:
    kind: str
    severity: float
    seed: int


@dataclass(frozen=True)
class LayoutSpec:
    """Knobs for random profile generation."""
    data_section_len: int = 512
    n_variables: int = 16
    frame_count: int = 6
    frame_size_min: int = 24
    frame_size_max: int = 64
    fill_fraction: float = 0.5
    # apportioned over VARIABLE_KINDS; constants dominate real data
    # sections, and keeping dynamic variables scarce keeps safe error
    # distributions tight enough for stable threshold transfer
    kind_weights: tuple[float, ...] = (0.60, 0.10, 0.10, 0.20)


@dataclass(frozen=True)
class FirmwareProfile:
    firmware_id: str
    firmware_seed: int
    data_section_len: int
    variables: tuple[Variable, ...]
    stack: StackPattern
    mutation: Mutation | None = None

    @property
    def stack_len(self) -> int:
        raw = sum(self.stack.frame_sizes)
        return raw + (-raw) % 4

    @property
    def label(self) -> str:
        return "unsafe" if self.mutation is not None else "safe"


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """SRAM snapshots as columns: row i of the (n, width) uint8 `data`
    matrix was read at time_steps[i]; ids and labels are per-row strings."""
    data: np.ndarray
    time_steps: np.ndarray
    device_ids: np.ndarray
    firmware_ids: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class Dataset:
    train: np.ndarray
    val: np.ndarray
    test_safe: np.ndarray
    test_unsafe: np.ndarray


def _kind_widths(generator: np.random.Generator, kind: str) -> int:
    # other kinds take no draw: one more would shift every later profile field
    if kind == "constant":
        return int(generator.choice([4, 8, 12, 16]))
    return 2


def _kind_quota(weights, n: int) -> list[int]:
    """Largest-remainder apportionment of n variables over the kinds."""
    w = np.asarray(weights, dtype=np.float64)
    raw = w / w.sum() * n
    counts = np.floor(raw).astype(int)
    order = np.argsort(-(raw - counts), kind="stable")
    for i in order[:n - int(counts.sum())]:
        counts[i] += 1
    return [int(c) for c in counts]


def _place_variables(generator: np.random.Generator, kinds_widths: list,
                     data_section_len: int) -> list[Variable]:
    total = sum(w for _, w, _ in kinds_widths)
    free = data_section_len - total
    if free < 0:
        raise ValueError("variables (%d bytes) exceed data section (%d bytes)"
                         % (total, data_section_len))
    nslots = len(kinds_widths) + 1
    gaps = generator.multinomial(free, [1.0 / nslots] * nslots)
    variables = []
    offset = 0
    for (kind, width, init_seed), gap in zip(kinds_widths, gaps[:-1]):
        offset += int(gap)
        variables.append(Variable(offset=offset, width=width, kind=kind,
                                  init_seed=init_seed))
        offset += width
    return variables


def generate_profile(firmware_seed: int, spec: LayoutSpec = LayoutSpec(),
                     firmware_id: str | None = None) -> FirmwareProfile:
    """Deterministically derive a firmware profile from its seed."""
    if spec.data_section_len < 4 or spec.data_section_len % 4 != 0:
        raise ValueError("data_section_len must be a positive multiple of 4")
    if spec.n_variables < 1:
        raise ValueError("need at least one variable")
    if not 0.0 < spec.fill_fraction <= 0.6:
        raise ValueError("fill_fraction must be in (0, 0.6] to keep twin "
                         "stacks distinguishable")
    g = rng(firmware_seed, "profile")
    counts = _kind_quota(spec.kind_weights, spec.n_variables)
    kinds = [k for k, c in zip(VARIABLE_KINDS, counts) for _ in range(c)]
    g.shuffle(kinds)
    kinds_widths = []
    for kind in kinds:
        width = _kind_widths(g, kind)
        kinds_widths.append((kind, width, int(g.integers(2 ** 62))))
    variables = _place_variables(g, kinds_widths, spec.data_section_len)
    sizes = tuple(int(g.integers(spec.frame_size_min, spec.frame_size_max + 1))
                  for _ in range(spec.frame_count))
    stack = StackPattern(frame_sizes=sizes, fill_fraction=spec.fill_fraction)
    fid = firmware_id or "fw%016x" % (firmware_seed & (2 ** 64 - 1))
    return FirmwareProfile(firmware_id=fid, firmware_seed=firmware_seed,
                           data_section_len=spec.data_section_len,
                           variables=tuple(variables), stack=stack)


def _gaps(profile: FirmwareProfile) -> list[tuple[int, int]]:
    """Unused (offset, length) intervals of the data section."""
    out = []
    cursor = 0
    for v in sorted(profile.variables, key=lambda v: v.offset):
        if v.offset > cursor:
            out.append((cursor, v.offset - cursor))
        cursor = v.offset + v.width
    if cursor < profile.data_section_len:
        out.append((cursor, profile.data_section_len - cursor))
    return out


def mutate_profile(base: FirmwareProfile, kind: str, severity: float,
                   seed: int) -> FirmwareProfile:
    """Derive an unsafe profile by tampering with the base firmware."""
    if kind not in MUTATION_KINDS:
        raise ValueError("unknown mutation kind: %r" % kind)
    if not 0.0 < severity <= 1.0:
        raise ValueError("severity must be in (0, 1]")
    g = rng(base.firmware_seed, "mutate", kind, seed)
    mutation = Mutation(kind=kind, severity=severity, seed=seed)
    fid = "%s-%s-%g" % (base.firmware_id, kind, severity)

    if kind == "tamper_data":
        n = len(base.variables)
        k = math.ceil(severity * n)
        picked = set(int(i) for i in g.choice(n, size=k, replace=False))
        variables = []
        for i, v in enumerate(base.variables):
            if i in picked:
                new_seed = int(g.integers(2 ** 62))
                while new_seed == v.init_seed:
                    new_seed = int(g.integers(2 ** 62))
                v = replace(v, init_seed=new_seed)
            variables.append(v)
        return replace(base, firmware_id=fid, variables=tuple(variables),
                       mutation=mutation)

    if kind == "tamper_function":
        ops = max(1, math.ceil(severity * len(base.variables) / 2))
        kinds_widths = [(v.kind, v.width, v.init_seed) for v in base.variables]
        weights = np.asarray(LayoutSpec().kind_weights, dtype=float)
        weights = weights / weights.sum()
        for _ in range(ops):
            if len(kinds_widths) > 2 and g.random() < 0.5:
                del kinds_widths[int(g.integers(len(kinds_widths)))]
            else:
                vk = VARIABLE_KINDS[int(g.choice(len(VARIABLE_KINDS), p=weights))]
                entry = (vk, _kind_widths(g, vk), int(g.integers(2 ** 62)))
                kinds_widths.insert(int(g.integers(len(kinds_widths) + 1)), entry)
        variables = _place_variables(g, kinds_widths, base.data_section_len)
        return replace(base, firmware_id=fid, variables=tuple(variables),
                       mutation=mutation)

    if kind == "tamper_control_flow":
        sizes = []
        for z in base.stack.frame_sizes:
            scale = 1.0 + severity * (g.random() - 0.5)
            sizes.append(max(8, int(round(z * scale))))
        if severity >= 0.5:
            sizes.append(max(8, int(g.integers(16, 64))))
        fill = float(np.clip(base.stack.fill_fraction
                             + severity * 0.2 * (g.random() - 0.5), 0.1, 0.6))
        stack = StackPattern(frame_sizes=tuple(sizes), fill_fraction=fill)
        return replace(base, firmware_id=fid, stack=stack, mutation=mutation)

    # data_injection
    gaps = _gaps(base)
    total_gap = sum(n for _, n in gaps)
    if total_gap == 0:
        raise ValueError("data section has no unused gap to inject into")
    needed = math.ceil(severity * total_gap)
    order = list(g.permutation(len(gaps)))
    injected = []
    for gi in order:
        if needed <= 0:
            break
        off, length = gaps[gi]
        take = min(needed, length)
        start = off + int(g.integers(0, length - take + 1))
        injected.append(Variable(offset=start, width=take, kind="constant",
                                 init_seed=int(g.integers(2 ** 62))))
        needed -= take
    variables = tuple(sorted(base.variables + tuple(injected),
                             key=lambda v: v.offset))
    return replace(base, firmware_id=fid, variables=variables,
                   mutation=mutation)


def _clamped_walk(base: int, steps: np.ndarray) -> np.ndarray:
    """[base, c_1, ..., c_n] with c_t = min(255, max(0, c_{t-1} + steps[t-1])).

    Until the other clamp binds, c_t = S_t - min(0, min_{s<=t} S_s) with S
    the start plus the step prefix sums (a one-sided Skorokhod map), or its
    mirror image; reaching the other clamp takes 255 steps or more."""
    out = np.full(len(steps) + 1, base, dtype=np.int64)
    t, start, sign = 0, base, 1  # the active clamp is at 0 in this frame
    while t < len(steps):
        s = start + np.cumsum(sign * steps[t:])
        c = s - np.minimum(np.minimum.accumulate(s), 0)
        end = int(np.argmax(c > 255)) + 1 if c.max() > 255 else len(c)
        seg = np.minimum(c[:end], 255)
        out[t + 1:t + 1 + end] = seg if sign > 0 else 255 - seg
        t, start, sign = t + end, 0, -sign
    return out


def _walk_path(firmware_seed: int, init_seed: int, width: int,
               length: int) -> np.ndarray:
    """(length + 1, width) uint8 path of one random walk.

    Each column starts at the variable's base value and takes +-1 steps,
    clamped to [0, 255]. Steps are drawn in one batch, so the first k rows
    are the same for every length >= k: a path as long as the largest
    requested step gives the values that any longer one would.
    """
    base = rng(firmware_seed, "var", init_seed).integers(
        0, 256, size=width, dtype=np.int64)
    steps = rng(firmware_seed, "walk", init_seed).choice(
        np.array([-1, 1], dtype=np.int64), size=(length, width))
    cols = [_clamped_walk(int(b), col) for b, col in zip(base, steps.T)]
    return np.array(cols, dtype=np.uint8).T


def _variable_values(profile: FirmwareProfile, var: Variable,
                     time_steps: np.ndarray) -> np.ndarray:
    """(T, width) uint8 values of one variable at the requested steps."""
    if var.kind == "random_walk":
        return _walk_path(profile.firmware_seed, var.init_seed, var.width,
                          int(time_steps.max(initial=0)))[time_steps]
    g = rng(profile.firmware_seed, "var", var.init_seed)
    base = g.integers(0, 256, size=var.width, dtype=np.int64)
    t = time_steps[:, None]

    if var.kind == "constant":
        vals = np.broadcast_to(base, (len(time_steps), var.width))
    elif var.kind == "counter":
        vals = (base + t) % 256
    elif var.kind == "flag":
        period = int(g.integers(4, 33))
        phase = int(g.integers(period))
        on = ((time_steps + phase) % period) < period // 2
        vals = np.where(on[:, None], base ^ 0x01, base)
    else:
        raise ValueError("unknown variable kind: %r" % var.kind)
    return vals.astype(np.uint8)


def _data_sections(profile: FirmwareProfile,
                   time_steps: np.ndarray) -> np.ndarray:
    out = np.zeros((len(time_steps), profile.data_section_len), dtype=np.uint8)
    for var in profile.variables:
        out[:, var.offset:var.offset + var.width] = \
            _variable_values(profile, var, time_steps)
    return out


def _stacks(profile: FirmwareProfile, device_seed: int,
            time_steps: np.ndarray) -> np.ndarray:
    stack_len = profile.stack_len
    dev = rng(device_seed, profile.firmware_seed, "stack-init")
    init = dev.integers(0, 256, size=stack_len, dtype=np.uint8)
    out = np.broadcast_to(init, (len(time_steps), stack_len)).copy()
    t = time_steps[:, None]
    offset = 0
    for k, size in enumerate(profile.stack.frame_sizes):
        filled = math.ceil(profile.stack.fill_fraction * size)
        fg = rng(profile.firmware_seed, "frame", k)
        fbase = fg.integers(0, 256, size=filled, dtype=np.int64)
        out[:, offset:offset + filled] = ((fbase + t) % 256).astype(np.uint8)
        offset += size
    return out


def sample_traces(profile: FirmwareProfile, device_seed: int,
                  time_steps) -> TraceBatch:
    """Sample SRAM snapshots at the given time steps (vectorized)."""
    steps = np.asarray(list(time_steps), dtype=np.int64)
    if (steps < 0).any():
        raise ValueError("time steps must be non-negative")
    data = np.concatenate([_data_sections(profile, steps),
                           _stacks(profile, device_seed, steps)], axis=1)
    n = len(steps)
    return TraceBatch(
        data=data, time_steps=steps,
        device_ids=np.full(n, "dev%016x" % (device_seed & (2 ** 64 - 1))),
        firmware_ids=np.full(n, profile.firmware_id),
        labels=np.full(n, profile.label))


def aggregate_many(data, s: int = 4, length: int | None = None) -> np.ndarray:
    """Average consecutive s-byte blocks of a byte row, or of each row of a
    2-D batch, into [0, 1] features.

    Block i covers bytes [i*s, (i+1)*s); feature = block sum / (255 * s).
    `length` selects the leading byte span to use (defaults to the full
    row) and must be a positive multiple of s. Each partial block sum is
    an integer of at most 255 * s, so the float64 sums are exact.
    """
    if s < 1:
        raise ValueError("block width s must be >= 1")
    buf = np.asarray(data)
    if buf.ndim not in (1, 2):
        raise ValueError("expected a byte row or a 2-D batch of rows")
    n = buf.shape[-1] if length is None else int(length)
    if n < s or n % s != 0:
        raise ValueError("aggregation length %d is not a positive multiple "
                         "of s=%d" % (n, s))
    if n > buf.shape[-1]:
        raise ValueError("aggregation length exceeds trace length")
    blocks = buf[..., :n].reshape(buf.shape[:-1] + (n // s, s))
    return blocks.sum(axis=-1, dtype=np.float64) / (255.0 * s)


def inject_noise(x: np.ndarray, n_f: float, seed: int) -> np.ndarray:
    """Additive uniform noise: x + n_f * eps with eps ~ U[0, 1)."""
    if n_f < 0:
        raise ValueError("noise factor must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    eps = np.random.default_rng(seed).random(x.shape)
    return x + n_f * eps


def build_dataset(safe: np.ndarray, unsafe: np.ndarray | None = None, *,
                  ratios: tuple[float, float, float] = (0.5, 0.25, 0.25),
                  seed: int = 0) -> Dataset:
    """Shuffle and split safe feature rows; all unsafe rows go to test.

    Split sizes are floor(r * n) for train and val, remainder to test.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios) \
            or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be three positive numbers summing to 1")
    if len(safe) < 8:
        raise ValueError("need at least 8 safe traces to split")
    if unsafe is None:
        unsafe = np.zeros((0, safe.shape[1]))
    order = np.random.default_rng(derive_seed(seed, "split")).permutation(
        len(safe))
    safe = safe[order]
    n = len(safe)
    n_train = int(ratios[0] * n)
    n_val = int(ratios[1] * n)
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise ValueError("split produced an empty partition")
    train = safe[:n_train]
    val = safe[n_train:n_train + n_val]
    test_safe = safe[n_train + n_val:]
    return Dataset(train=train, val=val, test_safe=test_safe,
                   test_unsafe=unsafe)


# ---------------------------------------------------------------------------
# serialization

def profile_to_dict(profile: FirmwareProfile) -> dict:
    return {"format_version": PROFILE_FORMAT_VERSION, **asdict(profile)}


def profile_from_dict(d: dict) -> FirmwareProfile:
    if d.get("format_version") != PROFILE_FORMAT_VERSION:
        raise ValueError("unsupported profile format version: %r"
                         % d.get("format_version"))
    fields = {k: v for k, v in d.items() if k != "format_version"}
    stack, mutation = d["stack"], d.get("mutation")
    fields.update(
        variables=tuple(Variable(**v) for v in d["variables"]),
        stack=StackPattern(**dict(stack,
                                  frame_sizes=tuple(stack["frame_sizes"]))),
        mutation=None if mutation is None else Mutation(**mutation))
    return FirmwareProfile(**fields)


def save_profile(path, profile: FirmwareProfile) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(profile_to_dict(profile), f, indent=2)
        f.write("\n")


def load_profile(path) -> FirmwareProfile:
    with open(path, encoding="utf-8") as f:
        return profile_from_dict(json.load(f))


def export_traces(path, batch: TraceBatch, meta: dict | None = None):
    """Write traces as CSV: device_id,firmware_id,time_step,label,b0,...

    Optional meta entries go into leading '# key=value' comment lines.
    """
    if not len(batch):
        raise ValueError("no traces to export")
    width = batch.data.shape[1]
    heads = []  # text fields as csv.writer quotes them; bytes need none
    csv.writer(SimpleNamespace(write=heads.append)).writerows(zip(
        batch.device_ids, batch.firmware_ids, batch.time_steps.tolist(),
        batch.labels))
    block = max(1, _CSV_BLOCK_CHARS // (4 * width))
    with open(path, "w", encoding="utf-8", newline="") as f:
        for k in sorted(meta or {}):
            f.write("# %s=%s\n" % (k, (meta or {})[k]))
        csv.writer(f).writerow(_CSV_HEAD + ["b%d" % i for i in range(width)])
        for i in range(0, len(heads), block):
            cells = _BYTE_CELLS[batch.data[i:i + block]].tolist()
            f.write("".join(h[:-2] + "".join(c) + "\r\n"
                            for h, c in zip(heads[i:i + block], cells)))


def read_meta(path) -> dict:
    """The '# key=value' lines at the head of a trace CSV, as strings."""
    with open(path, encoding="utf-8", newline="") as f:
        pairs = (line[1:].partition("=") for line in
                 itertools.takewhile(lambda line: line.startswith("#"), f))
        return {k.strip(): v.strip() for k, _, v in pairs}


def _canonical_block(lines: list, width: int):
    """(fields, (n, width) uint8) of rows in the exporter's form, or None."""
    fields, cells = [], []
    for line in lines:
        parts = line[:-2].split(",", 4)
        if not line.endswith("\r\n") or '"' in line or len(parts) != 5 \
                or not (parts[2].isascii() and parts[2].isdigit()) \
                or parts[3] not in LABELS or parts[4].count(",") != width - 1:
            return None
        fields.append((parts[0], parts[1], int(parts[2]), parts[3]))
        cells.append(parts[4])
    text = ",".join(cells)
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    cell_len = np.diff(np.flatnonzero(raw == ord(",")), prepend=-1,
                       append=len(raw)) - 1
    if cell_len.min() < 1 or cell_len.max() > 3 \
            or ((raw - ord("0") > 9) & (raw != ord(","))).any():
        return None
    data = np.fromstring(text, dtype=np.int64, sep=",")
    return None if data.max() > 255 else \
        (fields, data.astype(np.uint8).reshape(len(lines), width))


def _parse_rows(f, width: int, header_line: int):
    """Per-row csv.reader parse; errors name the physical line."""
    fields, rows = [], []
    reader = csv.reader(f)
    try:
        for row in reader:
            lineno = header_line + reader.line_num
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
            if row[3] not in LABELS:
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
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ValueError("line %d: %s" % (header_line + reader.line_num,
                                          exc)) from None
    return fields, [np.array(rows, dtype=np.uint8).reshape(len(rows), width)]


def import_traces(path) -> TraceBatch:
    """Read a trace CSV; raises ValueError naming the offending line."""
    with open(path, encoding="utf-8", newline="") as f:
        lineno = 0
        line = f.readline()
        while line.startswith("#"):
            lineno += 1
            line = f.readline()
        lineno += 1
        try:
            header = next(csv.reader([line])) if line else []
        except csv.Error as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
        if header[:4] != _CSV_HEAD:
            raise ValueError("line %d: bad header" % lineno)
        width = len(header) - 4
        if width < 1 or header[4:] != ["b%d" % i for i in range(width)]:
            raise ValueError("line %d: bad byte column names" % lineno)
        body = f.tell()
        fields, blocks = [], [np.zeros((0, width), dtype=np.uint8)]
        while (lines := f.readlines(_CSV_BLOCK_CHARS)) and \
                (block := _canonical_block(lines, width)):
            fields += block[0]
            blocks.append(block[1])
        if lines:  # a row not in the exporter's form: reread row by row
            f.seek(body)
            fields, blocks = _parse_rows(f, width, lineno)
    device_ids, firmware_ids, steps, labels = \
        np.array(fields, dtype=object).reshape(len(fields), 4).T
    return TraceBatch(
        data=np.concatenate(blocks), time_steps=steps.astype(np.int64),
        device_ids=device_ids.astype(str),
        firmware_ids=firmware_ids.astype(str), labels=labels.astype(str))
