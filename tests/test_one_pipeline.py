"""Only evalkit builds a detector.

`evalkit.prepare_firmware` and the CLI's gen, train, quantize and calibrate
run the same stage functions, so the container the CLI writes is the
detector the campaign scores. A second module that splits, initialises,
trains, quantizes or calibrates on its own would start a second pipeline;
this test fails on any call to those functions from elsewhere under src/.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))

PIPELINE_CALLS = {("autoenc", "init_model"), ("autoenc", "train"),
                  ("trace", "inject_noise"), ("trace", "build_dataset"),
                  ("quantize", "quantize_model"), ("threshold", "calibrate")}
OWNER = "evalkit.py"


def pipeline_calls(source: str) -> list:
    """(line, "module.function") of each call to a pipeline function,
    through a module alias (`autoenc.train(...)`) or a from-import
    (`train(...)` after `from .autoenc import train`)."""
    tree = ast.parse(source)
    modules, functions = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    modules[a.asname] = a.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.ImportFrom):
            origin = (node.module or "").rsplit(".", 1)[-1]
            for a in node.names:
                name = a.asname or a.name
                if (origin, a.name) in PIPELINE_CALLS:
                    functions[name] = (origin, a.name)
                else:
                    modules[name] = a.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        target = None
        if isinstance(f, ast.Name):
            target = functions.get(f.id)
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            target = (modules.get(f.value.id), f.attr)
        if target in PIPELINE_CALLS:
            found.append((node.lineno, "%s.%s" % target))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SRC if p.name != OWNER],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_evalkit_builds_a_detector(path):
    assert pipeline_calls(path.read_text(encoding="utf-8")) == []


def test_evalkit_owns_every_pipeline_call():
    owner = pipeline_calls((ROOT / "src" / "attestlab" / OWNER).read_text(
        encoding="utf-8"))
    assert {name for _, name in owner} == \
        {"%s.%s" % c for c in PIPELINE_CALLS}


def test_pipeline_call_check_catches_each_form():
    src = ("from . import autoenc, quantize as q\n"
           "from .threshold import calibrate as cal\n"
           "import attestlab.trace as tr\n"
           "autoenc.train(m)\nq.quantize_model(m, x)\ncal(e)\n"
           "tr.build_dataset(s)\nmodel.train()\nautoenc.reconstruct(m, x)\n")
    assert pipeline_calls(src) == [(4, "autoenc.train"),
                                   (5, "quantize.quantize_model"),
                                   (6, "threshold.calibrate"),
                                   (7, "trace.build_dataset")]
