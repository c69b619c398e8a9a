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


def test_traced_run_records_every_layer(tmp_path, capsys):
    # a pipeline stage that bound a callee early, in a closure or a default
    # argument, would slip past the rebinding and zero that layer's numbers
    from pufsim import cli
    from pufsim.config import ExperimentConfig, SessionConfig, save

    config = ExperimentConfig(
        num_devices=20, cells_per_device=128, master_seed=7,
        temperature_anchors=((25.0, 0.0), (85.0, 0.05)),
        sessions=(SessionConfig("enroll", 25.0, 1.0, trials=3, target_ber=0.02),),
        sweep_temperatures=(45.0,), nist_tests=("frequency", "runs"),
    ).validate()
    save(config, tmp_path / "config.json")
    with _load_spans().Tracer().installed() as tracer:
        assert cli.main(["run", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "run")]) == 0
    layers = {
        "harness.save_population", "harness.save_golden", "harness.manifest_add",
        "signature.read", "signature.to_binary", "signature.to_csv",
        "signature.enroll", "signature.mask",
        "metrics.compute_report", "metrics.robustness_sweep",
    }
    assert layers - set(tracer.by_name()) == set()
