"""In-memory spans around the public functions of each attestlab layer.

The tracer wraps functions from outside the package: it replaces every
module attribute of `attestlab` that is bound to a traced function (for
example both `trace.sample_traces` and `handshake.sample_traces`) with a
wrapper that records one span per call: name, start, end, parent, the
module whose binding was called, and for batch functions the row count.
Nothing inside `src/` changes; `uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# defining module -> public functions traced in it
TRACED = {
    "trace": ("sample_traces", "aggregate_many", "build_dataset",
              "export_traces", "import_traces"),
    "autoenc": ("train",),
    "quantize": ("quantize_model", "q_reconstruct"),
    "threshold": ("calibrate",),
    "evalkit": ("prepare_firmware", "run_experiment", "twin_transfer",
                "q_errors", "score"),
    "attestor": ("run_attestation", "self_attest", "validate_report",
                 "encode_report"),
    "secure_channel": ("enc", "dec", "hmac_tag", "hmac_verify"),
    "handshake": ("initiator_start", "step", "run_session"),
    "model_io": ("save_container", "load_container"),
    "cli": ("cmd_gen", "cmd_train", "cmd_quantize", "cmd_calibrate",
            "cmd_attest", "cmd_handshake", "cmd_eval"),
}

# functions whose second positional argument is a row batch (a 1-D
# argument is one row)
_BATCH_ARG = {"quantize.q_reconstruct": 1, "evalkit.q_errors": 1}


def _span_name(module: str, func: str) -> str:
    if module == "cli":
        return "cli." + func[len("cmd_"):]
    return "%s.%s" % (module, func)


class Tracer:
    """Records spans while installed; keeps them in memory until dumped."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        # one row per span: name index, site index, start_ns, end_ns,
        # parent span index (-1 at top level), batch rows (-1 if none)
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def _wrap(self, func, name: str, site: str):
        name_ix, site_ix = self._intern(name), self._intern(site)
        batch_arg = _BATCH_ARG.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            rows = -1
            if batch_arg is not None and len(args) > batch_arg:
                x = args[batch_arg]
                rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
            row = [name_ix, site_ix, 0, 0,
                   stack[-1] if stack else -1, rows]
            ix = len(spans)
            spans.append(row)
            stack.append(ix)
            row[2] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every attestlab module attribute bound to a traced function."""
        targets = {}
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module("attestlab." + mod_name)
            for f in funcs:
                targets[id(getattr(mod, f))] = _span_name(mod_name, f)
        mods = {name[len("attestlab."):]: mod
                for name, mod in list(sys.modules.items())
                if name.startswith("attestlab.")}
        for site, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                name = targets.get(id(value))
                if name is None:
                    continue
                self._patched.append((mod, attr, value))
                setattr(mod, attr, self._wrap(value, name, site))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ analysis

    def summary(self, factor=None) -> dict:
        """name -> {calls, total_ns, self_ns, durations_ns, sites, rows}.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly in one thread, so children never
        overlap each other. factor(start, end), when given, rescales each
        duration (see speed.SpeedProbe.scaler).
        """
        durs = [end - start for _, _, start, end, _, _ in self.spans]
        if factor is not None:
            durs = [d * factor(row[2], row[3])
                    for d, row in zip(durs, self.spans)]
        child_ns = [0] * len(self.spans)
        for k, row in enumerate(self.spans):
            if row[4] >= 0:
                child_ns[row[4]] += durs[k]
        out: dict[str, dict] = {}
        for k, (name_ix, site_ix, start, end, _, rows) in \
                enumerate(self.spans):
            s = out.setdefault(self.names[name_ix], {
                "calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": [],
                "sites": [], "rows": []})
            dur = durs[k]
            s["calls"] += 1
            s["total_ns"] += dur
            s["self_ns"] += dur - child_ns[k]
            s["durations_ns"].append(dur)
            s["sites"].append(self.names[site_ix])
            s["rows"].append(rows)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: names table plus one row per span."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": self.names,
                       "columns": ["name", "site", "start_ns", "end_ns",
                                   "parent", "rows"],
                       "spans": self.spans}, f, separators=(",", ":"))
