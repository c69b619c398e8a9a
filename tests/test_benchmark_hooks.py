"""The traced benchmark (perfbench/spans.py) rebinds pufsim functions by
name from outside the package. A name it rebinds must exist, and every
binding it replaces must be restored when tracing ends; otherwise pruning
or renaming a function shows up only as a crashed benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return vars(owner)[name]


def test_tracer_rebinds_and_restores_every_hooked_name():
    spans = _load_spans()
    hooked = [(module, attr) for module, attr, _, _ in spans.SPANS]
    hooked += [("pufsim.signature", "noise_stream"),
               ("pufsim.harness", "unbiased_sequences")]
    names = {attr for _, attr in hooked}
    assert {"compute_report", "noise_stream", "unbiased_sequences"} <= names
    assert set(spans.TESTS) <= names

    originals = {key: _binding(*key) for key in hooked}
    modules = [importlib.import_module(m) for m in spans._MODULES]
    before = [dict(vars(m)) for m in modules]
    with spans.Tracer().installed():
        for key, original in originals.items():
            assert _binding(*key) is not original, key
    for key, original in originals.items():
        assert _binding(*key) is original, key
    for module, saved in zip(modules, before):
        current = vars(module)
        changed = [k for k, v in saved.items() if current.get(k) is not v]
        assert not changed, (module.__name__, changed)
