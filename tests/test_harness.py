"""End-to-end pipeline: artifact persistence, manifests, determinism,
failure isolation, run comparison, and the command-line surface."""

import io
import json
import os
import struct

import numpy as np
import pytest

from pufsim.cli import main
from pufsim.config import ExperimentConfig, SessionConfig, preset
from pufsim.errors import InvalidArgumentError, InvalidSpecError, StageError
from pufsim.harness import (
    compare_runs,
    load_golden,
    load_population,
    run_experiment,
    save_golden,
    save_population,
    unbiased_sequences,
)
from pufsim.metrics import hd_histogram_from_counts, inter_hd_details
from pufsim.population import (
    _TAG_LOCAL,
    PlacementConfig,
    PopulationSpec,
    builtin_placement,
    generate_population,
    inject_position_bias,
    iter_device_mismatch,
)
from pufsim.signature import (
    GoldenSignature,
    SignatureSet,
    eliminate_biased_positions,
    enroll_golden,
    read_signatures,
)


def _config(**kw):
    base = dict(
        num_devices=20,
        cells_per_device=128,
        master_seed=7,
        temperature_anchors=((25.0, 0.0), (85.0, 0.05)),
        sessions=(SessionConfig("enroll", 25.0, 1.0, trials=3, target_ber=0.02),),
        nist_tests=("frequency", "runs"),
    )
    base.update(kw)
    return ExperimentConfig(**base).validate()


def _artifact_hashes(manifest):
    return {a["name"]: a["sha256"] for a in manifest.artifacts}


# -- pipeline ------------------------------------------------------------------

def test_run_produces_complete_manifest(tmp_path):
    manifest, path = run_experiment(_config(), out_dir=str(tmp_path))
    assert manifest.status == "complete"
    assert manifest.error is None
    names = {a["name"] for a in manifest.artifacts}
    assert {"config", "population", "signatures_enroll", "golden", "mask",
            "metrics", "report", "nist"} <= names
    for a in manifest.artifacts:
        assert (tmp_path / a["path"]).exists()
    saved = json.loads((tmp_path / "manifest.json").read_text())
    assert saved["status"] == "complete"
    assert saved["config_digest"] == manifest.config_digest


def test_reruns_are_content_identical(tmp_path):
    m1, _ = run_experiment(_config(), out_dir=str(tmp_path / "a"))
    m2, _ = run_experiment(_config(), out_dir=str(tmp_path / "b"))
    assert _artifact_hashes(m1) == _artifact_hashes(m2)


def test_thread_count_does_not_change_artifacts(tmp_path):
    m1, _ = run_experiment(_config(threads=1), out_dir=str(tmp_path / "t1"))
    m4, _ = run_experiment(_config(threads=4), out_dir=str(tmp_path / "t4"))
    h1, h4 = _artifact_hashes(m1), _artifact_hashes(m4)
    # the recorded config differs in its threads field, and nothing else may
    assert h1.pop("config") != h4.pop("config")
    assert h1 == h4


def test_seed_override_changes_outputs(tmp_path):
    m1, _ = run_experiment(_config(), out_dir=str(tmp_path / "a"))
    m2, _ = run_experiment(_config(master_seed=8), out_dir=str(tmp_path / "b"))
    h1, h2 = _artifact_hashes(m1), _artifact_hashes(m2)
    assert h1["population"] != h2["population"]
    assert m2.master_seed == 8


def test_failing_stage_preserves_earlier_artifacts(tmp_path):
    # sweep point outside the anchor hull: refused at the sweep stage
    config = _config(sweep_temperatures=(100.0,))
    with pytest.raises(StageError) as err:
        run_experiment(config, out_dir=str(tmp_path))
    assert err.value.stage == "sweep"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"]["stage"] == "sweep"
    # everything before the failure is intact and loadable
    assert (tmp_path / "metrics.json").exists()
    json.loads((tmp_path / "metrics.json").read_text())
    assert not (tmp_path / "sweep.json").exists()


def test_readout_stage_failure_tagged(tmp_path):
    # enroll environment outside the anchor hull; validate() would catch
    # this up front, so skip it to exercise the stage tag
    bad = ExperimentConfig(
        num_devices=20,
        cells_per_device=128,
        master_seed=7,
        temperature_anchors=((25.0, 0.0), (45.0, 0.01)),
        sessions=(SessionConfig("enroll", 85.0, 1.0, trials=1),),
        nist_tests=("frequency", "runs"),
    )
    with pytest.raises(StageError) as err:
        run_experiment(bad, out_dir=str(tmp_path))
    assert err.value.stage == "readout"


def test_metrics_payload_shape(tmp_path):
    run_experiment(_config(), out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "metrics.json").read_text())
    entry = payload["sessions"]["enroll"]
    assert {"inter_hd_percent", "intra_hd_percent", "ones_fraction",
            "hd_histogram", "masked"} <= set(entry)
    assert entry["masked"]["effective_length"] <= 128
    report = (tmp_path / "report.txt").read_text()
    assert "session enroll" in report


def test_non_enroll_histogram_describes_trial_zero_rows(tmp_path):
    # paper-fpga's "repeat" session scores its trial-0 rows; its histogram
    # must describe those rows, not the enrollment golden bits
    config = preset("paper-fpga")
    run_experiment(config, out_dir=str(tmp_path))
    entry = json.loads((tmp_path / "metrics.json").read_text())["sessions"]["repeat"]
    rows = SignatureSet.from_binary(tmp_path / "signatures_repeat.bin").bits[:, 0, :]
    percent, raw = inter_hd_details(rows)
    want = hd_histogram_from_counts(raw, rows.shape[1],
                                    config.histogram_bucket_percent)
    assert entry["hd_histogram"] == {f"{k:g}": v for k, v in want.items()}
    assert entry["inter_hd_percent"] == percent


def test_cli_metrics_matches_run_entry(tmp_path, capsys):
    # with one enrollment trial the golden bits are the trial-0 rows, so
    # `pufsim metrics` on the run's own artifacts must rebuild its entry
    config = _config(
        sessions=(SessionConfig("enroll", 25.0, 1.0, trials=1, target_ber=0.02),)
    )
    run = tmp_path / "run"
    run_experiment(config, out_dir=str(run))
    out = tmp_path / "metrics"
    assert main(["metrics", str(run / "signatures_enroll.bin"), "--out", str(out),
                 "--golden", str(run / "golden.bin"),
                 "--mask", str(run / "mask.json")]) == 0
    want = json.loads((run / "metrics.json").read_text())["sessions"]["enroll"]
    got = json.loads((out / "metrics.json").read_text())["sessions"]["input"]
    assert got == want
    assert got["hd_histogram"] and "masked" in got


def test_cli_metrics_unmasked_entry_ignores_file_mask(tmp_path, capsys):
    # trial 2 disagrees with the majority at positions 4..15 of every
    # device: 72 of 288 bits, 16 of them among the 144 kept by the mask
    golden = np.random.default_rng(3).integers(0, 2, size=(6, 16), dtype=np.uint8)
    bits = np.repeat(golden[:, None, :], 3, axis=1)
    bits[:, 2, 4:] ^= 1
    mask = np.zeros(16, dtype=np.uint8)
    mask[:8] = 1
    entries = {}
    for name, sigs in (("plain", SignatureSet(bits)),
                       ("carried", SignatureSet(bits, mask))):
        sigs.to_binary(tmp_path / f"{name}.bin")
        out = tmp_path / name
        assert main(["metrics", str(tmp_path / f"{name}.bin"), "--out", str(out)]) == 0
        entries[name] = json.loads((out / "metrics.json").read_text())["sessions"]["input"]
    capsys.readouterr()
    plain, carried = entries["plain"], entries["carried"]
    assert plain["intra_hd_percent"] == carried["intra_hd_percent"] == 25.0
    assert plain["inter_hd_percent"] == carried["inter_hd_percent"]
    assert "masked" not in plain
    # the file's own mask stands in for --mask
    assert carried["masked"]["effective_length"] == 8
    assert carried["masked"]["intra_hd_percent"] == 100.0 * 24 / 144


def test_cli_mask_rejects_non_binary(tmp_path, capsys):
    run_experiment(_config(), out_dir=str(tmp_path))
    path = tmp_path / "mask.json"
    for text in (json.dumps({"mask": "2" + "1" * 127}), json.dumps({"kept": 3}),
                 json.dumps([1, 0]), "not json"):
        path.write_text(text)
        capsys.readouterr()
        assert main(["metrics", str(tmp_path / "signatures_enroll.bin"),
                     "--out", str(tmp_path), "--mask", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[mask]" in err and str(path) in err


def test_randomness_modes(tmp_path):
    per_sig = _config(
        num_devices=80,
        cells_per_device=512,
        nist_tests=None,
        randomness_mode="per-signature",
        masking_enabled=False,
    )
    run_experiment(per_sig, out_dir=str(tmp_path / "per"))
    payload = json.loads((tmp_path / "per" / "nist.json").read_text())
    assert payload["num_sequences"] == 80
    assert "aggregate" in payload
    # per-sequence p-values live in nist.csv only
    assert "per_sequence" not in payload
    assert (tmp_path / "per" / "nist.csv").read_text().count("\n") > 80
    # 512-bit signatures cannot host a rank test; the concatenated stream can
    assert "rank_concatenated" in payload

    concat = _config(randomness_mode="concatenated", masking_enabled=False)
    run_experiment(concat, out_dir=str(tmp_path / "cat"))
    payload = json.loads((tmp_path / "cat" / "nist.json").read_text())
    assert payload["num_sequences"] == 1
    assert "aggregate" not in payload


def test_rank_concatenated_follows_nist_tests(tmp_path):
    # "rank_concatenated" is a rank verdict, so a test list without rank
    # (the empty list runs no test at all) gives none
    for tests, has_rank in ((None, True), ((), False), (("frequency",), False)):
        config = _config(num_devices=80, cells_per_device=512, nist_tests=tests,
                         randomness_mode="per-signature", masking_enabled=False)
        out = tmp_path / str(len(tests or "all"))
        run_experiment(config, out_dir=str(out))
        payload = json.loads((out / "nist.json").read_text())
        assert ("rank_concatenated" in payload) == has_rank, tests


def test_randomness_block_size_does_not_change_results(tmp_path, monkeypatch):
    from pufsim import randomness

    config = _config(num_devices=30, cells_per_device=512, nist_tests=None,
                     masking_enabled=False)
    outputs = []
    # blocks of 1 row, 7 rows (the last one partial) and all rows
    for rows in (1, 7, 30):
        monkeypatch.setattr(randomness, "_BLOCK_BITS", rows * 512)
        out = tmp_path / str(rows)
        run_experiment(config, out_dir=str(out))
        outputs.append(((out / "nist.csv").read_bytes(),
                        (out / "nist.json").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_nist_ascii_mixed_lengths(tmp_path, capsys):
    from pufsim.randomness import aggregate_suite, run_suite

    rng = np.random.default_rng(3)
    seqs = [rng.integers(0, 2, size=n, dtype=np.uint8)
            for n in (200, 150, 200, 1100, 150, 200)]
    path = tmp_path / "seqs.txt"
    path.write_text("".join("".join(map(str, s)) + "\n" for s in seqs))
    out = tmp_path / "out"
    assert main(["nist", str(path), "--format", "ascii", "--out", str(out)]) == 0
    # every row holds exactly what run_suite gives its sequence alone, in
    # input order; the aggregate covers the tests every length ran
    singles = [run_suite(s) for s in seqs]
    want = "sequence,test,p_value,passed\n" + "".join(
        f"{i},{name},{r.p_value!r},{int(r.passed)}\n"
        for i, res in enumerate(singles) for name, r in res.items())
    assert (out / "nist.csv").read_text() == want
    stdout = capsys.readouterr().out
    assert sum(line.startswith("seq ") for line in stdout.splitlines()) == want.count("\n") - 1
    agg = aggregate_suite(singles)
    assert "longest-run" in agg.rows and "dft" not in agg.rows  # dft: 1100 only
    for name in agg.rows:
        assert f"  {name:24s}  passing {agg.passing_string(name)}  " in stdout


def test_compare_runs(tmp_path):
    _, a = run_experiment(_config(), out_dir=str(tmp_path / "a"))
    _, b = run_experiment(_config(master_seed=99), out_dir=str(tmp_path / "b"))
    deltas = compare_runs(a, b)
    entry = deltas["sessions"]["enroll"]
    assert "inter_hd_percent_delta" in entry
    assert "masked_intra_hd_percent_delta" in entry
    same = compare_runs(a, a)
    assert same["sessions"]["enroll"]["inter_hd_percent_delta"] == 0.0


def test_compare_runs_missing_artifact(tmp_path):
    _, a = run_experiment(_config(), out_dir=str(tmp_path / "a"))
    _, b = run_experiment(_config(), out_dir=str(tmp_path / "b"))
    os.remove(tmp_path / "b" / "metrics.json")
    with pytest.raises(InvalidArgumentError) as err:
        compare_runs(a, b)
    assert "metrics.json" in str(err.value)


# -- snapshot formats ------------------------------------------------------------

def test_population_snapshot_round_trip(tmp_path):
    config = _config(bias={"positions": [[0, 0]], "offset": 0.2})
    population = generate_population(config.build_population_spec())
    path = tmp_path / "pop.bin"
    save_population(path, population)
    back = load_population(path)
    assert back.spec == population.spec
    assert np.array_equal(back.mismatch, population.mismatch)
    assert np.array_equal(back.bias_offsets, population.bias_offsets)


def test_population_snapshot_keeps_injected_bias(tmp_path):
    # the injected offsets travel in the spec, so they survive a round trip
    spec = PopulationSpec(
        num_devices=4, cells_per_device=1024, sigma_mismatch=0.25,
        weights=(0.0, 0.6, 0.8), placement=builtin_placement("d2"),
        master_seed=3,
    )
    population = inject_position_bias(generate_population(spec), {(0, 0): 0.5})
    path = tmp_path / "pop.bin"
    save_population(path, population)
    back = load_population(path)
    assert back.spec.bias_map == {(0, 0): 0.5}
    assert back.spec == population.spec
    assert np.array_equal(back.bias_offsets, population.bias_offsets)
    assert np.count_nonzero(back.bias_offsets) == 1
    assert np.array_equal(back.mismatch, population.mismatch)


def _rewrite_population_meta(path, edit, version=2):
    data = path.read_bytes()
    (size,) = struct.unpack("<I", data[6:10])
    blob = edit(data[10:10 + size])
    path.write_bytes(data[:4] + struct.pack("<HI", version, len(blob)) + blob)


def test_population_snapshot_rejects_foreign_meta(tmp_path):
    population = generate_population(_config().build_population_spec())
    path = tmp_path / "pop.bin"

    def tamper(blob):
        meta = json.loads(blob)
        digest = meta["mismatch_sha256"]
        meta["mismatch_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        return json.dumps(meta).encode()

    def drop_seed(blob):
        meta = json.loads(blob)
        del meta["master_seed"]
        return json.dumps(meta).encode()

    def drop_digest(blob):
        meta = json.loads(blob)
        del meta["mismatch_sha256"]
        return json.dumps(meta).encode()

    for edit, why in ((tamper, "sha256"),
                      (drop_seed, "master_seed"),
                      (drop_digest, "lacks key 'mismatch_sha256'"),
                      (lambda blob: blob[:-1], "meta"),
                      (lambda blob: b"[1, 2]", "meta")):
        save_population(path, population)
        _rewrite_population_meta(path, edit)
        with pytest.raises(InvalidArgumentError) as err:
            load_population(path)
        assert str(path) in str(err.value) and why in str(err.value)
    # a version-1 snapshot stored component arrays; it is refused by name
    save_population(path, population)
    _rewrite_population_meta(path, lambda blob: blob, version=1)
    with pytest.raises(InvalidArgumentError) as err:
        load_population(path)
    assert str(path) in str(err.value) and "version 1" in str(err.value)


def test_golden_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    golden = GoldenSignature(
        bits=rng.integers(0, 2, size=(4, 32), dtype=np.uint8),
        counts=rng.integers(3, 6, size=(4, 32), dtype=np.uint8),
        trials=5,
    )
    path = tmp_path / "golden.bin"
    save_golden(path, golden)
    back = load_golden(path)
    assert back.trials == 5
    assert np.array_equal(back.bits, golden.bits)
    assert np.array_equal(back.counts, golden.counts)
    assert np.array_equal(back.stability, golden.stability)


@pytest.mark.parametrize("trials", [1, 2, 5, 255, 256])
def test_golden_snapshot_round_trip_from_enrollment(tmp_path, trials):
    # per-position flip rates from 0 to 0.5 give a spread of agreement
    # counts, so the mask keeps some positions and drops others
    d, n = 8, 24
    rng = np.random.default_rng(trials)
    base = rng.integers(0, 2, size=(d, 1, n), dtype=np.uint8)
    flips = rng.random((d, trials, n)) < np.linspace(0.0, 0.5, n)
    sigs = SignatureSet(base ^ flips)
    golden = enroll_golden(sigs)
    path = tmp_path / "golden.bin"
    save_golden(path, golden)
    itemsize = 1 if trials <= 255 else 2
    counts_bytes = d * n * itemsize if trials > 1 else 0
    assert path.stat().st_size == 20 + d * n // 8 + counts_bytes
    back = load_golden(path)
    assert back.counts.dtype == np.dtype(f"u{itemsize}")
    assert np.array_equal(back.bits, golden.bits)
    assert np.array_equal(back.stability, golden.stability)
    assert np.array_equal(
        eliminate_biased_positions(sigs, golden=back),
        eliminate_biased_positions(sigs, golden=golden),
    )


def test_golden_snapshot_rejects_version_1(tmp_path):
    # version 1 stored .npy arrays of bits and float64 stability
    buf = io.BytesIO()
    np.save(buf, np.ones((4, 32), dtype=np.uint8))
    np.save(buf, np.full((4, 32), 0.75))
    path = tmp_path / "golden.bin"
    path.write_bytes(b"PUFG" + struct.pack("<H", 1) + buf.getvalue())
    with pytest.raises(InvalidArgumentError) as err:
        load_golden(path)
    assert str(path) in str(err.value) and "version 1" in str(err.value)


def test_golden_snapshot_rejects_impossible_counts(tmp_path):
    header = b"PUFG" + struct.pack("<HHIII", 2, 0, 2, 3, 8)
    path = tmp_path / "golden.bin"
    # a count above the trial count, and a zero trial count
    for data in (header + b"\x00\x00" + bytes([3] * 15 + [4]),
                 header[:-12] + struct.pack("<III", 2, 0, 8) + b"\x00\x00"):
        path.write_bytes(data)
        with pytest.raises(InvalidArgumentError) as err:
            load_golden(path)
        assert str(path) in str(err.value)


def test_snapshot_magic_rejected(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(InvalidArgumentError):
        load_population(path)
    with pytest.raises(InvalidArgumentError):
        load_golden(path)


def _assert_bad_lengths_rejected(load, path):
    data = path.read_bytes()
    for bad, why in ((data[:-1], "truncated"),
                     (data[: len(data) // 2], ""),
                     (data[:5], "truncated"),
                     (data + b"\x00", f"declares {len(data)} bytes")):
        path.write_bytes(bad)
        with pytest.raises(InvalidArgumentError) as err:
            load(path)
        assert str(path) in str(err.value)
        assert why in str(err.value) and f"found {len(bad)}" in str(err.value)


def test_population_snapshot_rejects_bad_length(tmp_path):
    population = generate_population(_config().build_population_spec())
    path = tmp_path / "pop.bin"
    save_population(path, population)
    _assert_bad_lengths_rejected(load_population, path)


def test_golden_snapshot_rejects_bad_length(tmp_path):
    golden = GoldenSignature(bits=np.ones((4, 32), dtype=np.uint8),
                             counts=np.full((4, 32), 3, dtype=np.uint8), trials=4)
    path = tmp_path / "golden.bin"
    save_golden(path, golden)
    _assert_bad_lengths_rejected(load_golden, path)


def test_unbiased_sequences_properties():
    seqs = list(unbiased_sequences(3, 1000, master_seed=5))
    assert len(seqs) == 3 and all(s.shape == (1000,) for s in seqs)
    again = list(unbiased_sequences(3, 1000, master_seed=5))
    assert all(np.array_equal(a, b) for a, b in zip(seqs, again))
    mean = np.mean([s.mean() for s in seqs])
    assert abs(mean - 0.5) < 0.05


def _counter_block_bits(seed, device, nbits):
    """Reference: the top bits of the first nbits raw words of a Philox
    keyed (seed, local tag) and set directly to device's first counter
    block, d * ceil(nbits / 4)."""
    key = np.array([seed, _TAG_LOCAL], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=device * -(-nbits // 4))
    return (bitgen.random_raw(nbits) >> np.uint64(63)).astype(np.uint8)


@pytest.mark.parametrize("nbits", [1, 3, 4, 5, 1000, 100_001])
def test_unbiased_sequences_read_each_devices_counter_blocks(nbits):
    seed = 2**64 - 3  # above 2**63, where a float key would lose low bits
    seqs = list(unbiased_sequences(8, nbits, master_seed=seed))
    for device in (0, 1, 7):
        assert seqs[device].dtype == np.uint8
        np.testing.assert_array_equal(seqs[device],
                                      _counter_block_bits(seed, device, nbits))
    # by construction, the signs of a pure-local population's mismatch
    spec = PopulationSpec(8, nbits, 0.25, (0.0, 0.0, 1.0),
                          PlacementConfig("flat", nbits, 1, (0,) * nbits, ()), seed)
    for seq, mismatch in zip(seqs, iter_device_mismatch(spec), strict=True):
        np.testing.assert_array_equal(seq, mismatch > 0)


def test_unbiased_sequences_prefix_does_not_depend_on_count():
    nine = list(unbiased_sequences(9, 1001, master_seed=44))
    five = list(unbiased_sequences(5, 1001, master_seed=44))
    assert all(np.array_equal(a, b) for a, b in zip(nine[:5], five, strict=True))


def test_unbiased_bit_is_the_sign_of_the_ndtri_mismatch():
    # u = ((word >> 12) + 1/2) * 2**-52 is the open 52-bit grid; the top
    # bit is set exactly when sigma * ndtri(u) > 0
    from scipy.special import ndtri

    grid = np.array([0, 1, 2**51 - 2, 2**51 - 1, 2**51, 2**51 + 1, 2**52 - 1],
                    dtype=np.uint64)
    words = np.concatenate([grid << np.uint64(12),
                            (grid << np.uint64(12)) | np.uint64(0xFFF)])
    rng = np.random.default_rng(20261018)
    words = np.concatenate([words, rng.integers(0, 2**64, size=100_000,
                                                dtype=np.uint64)])
    u = ((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
    assert np.all((u > 0) & (u < 1))
    np.testing.assert_array_equal((words >> np.uint64(63)).astype(bool),
                                  0.25 * ndtri(u) > 0)


@pytest.mark.parametrize("args", [(0, 10, 1), (1, 0, 1), (1, 10, 2**64), (1, 10, -1)])
def test_unbiased_sequences_reject_bad_arguments(args):
    with pytest.raises(InvalidSpecError):
        next(unbiased_sequences(*args))


def test_unbiased_sequences_accept_the_largest_seed():
    (seq,) = unbiased_sequences(1, 10, master_seed=2**64 - 1)
    np.testing.assert_array_equal(seq, _counter_block_bits(2**64 - 1, 0, 10))


# -- command line ------------------------------------------------------------------

def test_cli_full_run_and_compare(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    from pufsim.config import save

    save(_config(), config_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b),
                 "--seed", "99"]) == 0
    assert main(["compare", str(out_a / "manifest.json"),
                 str(out_b / "manifest.json")]) == 0
    out = capsys.readouterr().out
    assert "inter_hd_percent_delta" in out


def test_cli_run_rejects_stage_setting_before_any_artifact(tmp_path, capsys):
    from dataclasses import replace

    from pufsim.config import save

    config_path = tmp_path / "config.json"
    # bypass validate() so the file holds the bad setting
    save(replace(preset("d1"), histogram_bucket_percent=0.0), config_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert "histogram_bucket_percent" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_stage_chain(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    from pufsim.config import save

    save(_config(), config_path)
    out = str(tmp_path / "w")
    assert main(["generate", "--config", str(config_path), "--out", out]) == 0
    assert main(["readout", "--config", str(config_path), "--out", out,
                 "--population", os.path.join(out, "population.bin")]) == 0
    sig_path = os.path.join(out, "signatures_enroll.bin")
    assert main(["enroll", sig_path, "--out", out]) == 0
    assert main(["mask", sig_path, "--out", out, "--bias-threshold", "0.4"]) == 0
    assert main(["metrics", sig_path, "--out", out,
                 "--golden", os.path.join(out, "golden.bin"),
                 "--mask", os.path.join(out, "mask.json")]) == 0
    assert main(["nist", sig_path, "--out", out]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path), "--out", out]) == 1
    err = capsys.readouterr().err
    assert "sweep" in err  # config has no sweep points: stage-tagged failure


def test_cli_stage_chain_writes_run_bytes(tmp_path, capsys):
    # one enrollment trial makes the golden bits the trial-0 rows, so
    # `pufsim metrics` rebuilds run's enrollment entry; 12 devices and 11
    # trials put two-digit indices in the signature CSV
    from pufsim.config import save

    config = _config(num_devices=12, sweep_temperatures=(45.0,), sessions=(
        SessionConfig("enroll", 25.0, 1.0, trials=1, target_ber=0.02),
        SessionConfig("hot", 85.0, 1.0, trials=11)))
    config_path = tmp_path / "config.json"
    save(config, config_path)
    run, chain = tmp_path / "run", tmp_path / "chain"
    run_experiment(config, run)
    sel = ["--config", str(config_path), "--out", str(chain)]
    pop, sig = str(chain / "population.bin"), str(chain / "signatures_enroll.bin")
    for argv in (["generate", *sel], ["readout", *sel, "--population", pop],
                 ["enroll", sig, "--out", str(chain)],
                 ["mask", sig, "--out", str(chain)],
                 ["metrics", sig, "--out", str(chain),
                  "--golden", str(chain / "golden.bin"),
                  "--mask", str(chain / "mask.json")],
                 ["sweep", *sel, "--population", pop]):
        assert main(argv) == 0, argv
    stdout = capsys.readouterr().out
    names = ["population.bin", "golden.bin", "mask.json", "sweep.json"] + [
        f"signatures_{s}.{ext}" for s in ("enroll", "hot") for ext in ("bin", "csv")]
    for name in names:
        assert (chain / name).read_bytes() == (run / name).read_bytes(), name
    want = json.loads((run / "metrics.json").read_text())["sessions"]["enroll"]
    got = json.loads((chain / "metrics.json").read_text())["sessions"]["input"]
    assert got == want and "masked" in got
    report = (chain / "report.txt").read_text()
    assert report.startswith("signature quality report") and report in stdout


def test_cli_nist_fails_when_no_test_fits(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("0101011\n01\n")
    out = tmp_path / "out"
    assert main(["nist", str(path), "--format", "ascii", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error [randomness] ")
    assert "7 bits" in captured.err and "at least 100" in captured.err
    assert "aggregate" not in captured.out
    assert not (out / "nist.csv").exists()


def test_cli_errors(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "configure" in err
    assert main(["enroll", str(tmp_path / "missing.bin"),
                 "--out", str(tmp_path)]) == 1
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--preset", "d4"]) == 1


def test_cli_output_dir_env(tmp_path, monkeypatch, capsys):
    # every subcommand writes under --out, else the config's output_dir,
    # else $PUFSIM_OUT_DIR
    from pufsim.config import save

    config_path = tmp_path / "config.json"
    save(_config(), config_path)
    target = tmp_path / "from-env"
    monkeypatch.setenv("PUFSIM_OUT_DIR", str(target))
    assert main(["generate", "--config", str(config_path)]) == 0
    assert (target / "population.bin").exists()

    cfgdir = tmp_path / "cfgdir"
    save(_config(output_dir=str(cfgdir), sweep_temperatures=(45.0,)), config_path)
    for command in ("generate", "readout", "sweep"):
        assert main([command, "--config", str(config_path)]) == 0, command
    assert sorted(p.name for p in cfgdir.iterdir()) == [
        "population.bin", "signatures_enroll.bin", "signatures_enroll.csv",
        "sweep.json"]
    assert main(["run", "--config", str(config_path)]) == 0
    assert (cfgdir / "manifest.json").exists()
    flag = tmp_path / "flag"
    assert main(["generate", "--config", str(config_path), "--out", str(flag)]) == 0
    assert (flag / "population.bin").exists()
    assert sorted(p.name for p in target.iterdir()) == ["population.bin"]


def test_cli_threads_flag_matches_single_thread(tmp_path):
    config_path = tmp_path / "config.json"
    from pufsim.config import save

    save(_config(), config_path)
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "t4"), "--threads", "4"]) == 0
    a = json.loads((tmp_path / "t1" / "manifest.json").read_text())
    b = json.loads((tmp_path / "t4" / "manifest.json").read_text())
    ha = {x["name"]: x["sha256"] for x in a["artifacts"]}
    hb = {x["name"]: x["sha256"] for x in b["artifacts"]}
    # the recorded config differs in its threads field; every signature,
    # population, golden, mask, metric, and battery artifact must not
    ha.pop("config")
    hb.pop("config")
    assert ha == hb
