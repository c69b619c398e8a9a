"""Config schema: serialization round-trips, version gating, validation,
and the built-in presets."""

import dataclasses
import json

import pytest

from pufsim.config import (
    PRESET_NAMES,
    ExperimentConfig,
    SessionConfig,
    config_digest,
    from_dict,
    load,
    parse,
    preset,
    save,
    serialize,
    to_dict,
)
from pufsim.errors import InvalidArgumentError, InvalidSpecError


def _sample_config():
    return ExperimentConfig(
        num_devices=12,
        cells_per_device=64,
        placement="single-region",
        master_seed=321,
        temperature_anchors=((0.0, 0.08), (25.0, 0.0), (85.0, 0.16)),
        sessions=(
            SessionConfig("enroll", 25.0, 1.0, trials=1),
            SessionConfig("hot", 85.0, 1.0, trials=4),
        ),
        sweep_temperatures=(0.0, 85.0),
        bias={"positions": [[0, 0], [1, 2]], "offset": 0.125},
    ).validate()


def test_round_trip_equality():
    config = _sample_config()
    assert parse(serialize(config)) == config
    assert from_dict(json.loads(json.dumps(to_dict(config)))) == config
    # an empty test list (run no battery test) is not None (run every test)
    for tests in ((), None, ("runs",)):
        config = dataclasses.replace(preset("d2"), nist_tests=tests).validate()
        assert parse(serialize(config)) == config


def test_save_load_round_trip(tmp_path):
    config = _sample_config()
    path = tmp_path / "config.json"
    save(config, path)
    assert load(path) == config


def test_digest_stable_and_seed_sensitive():
    a = _sample_config()
    assert config_digest(a) == config_digest(_sample_config())
    b = dataclasses.replace(a, master_seed=99)
    assert config_digest(a) != config_digest(b)


def test_schema_major_rejected():
    data = to_dict(_sample_config())
    data["schema_version"] = "2.0"
    with pytest.raises(InvalidSpecError):
        from_dict(data)
    data["schema_version"] = "1.7"  # minor bump is fine
    from_dict(data)
    data["schema_version"] = "abc"
    with pytest.raises(InvalidSpecError):
        from_dict(data)


def test_unknown_keys_rejected():
    data = to_dict(_sample_config())
    data["turbo"] = True
    with pytest.raises(InvalidSpecError):
        from_dict(data)


def test_session_validation():
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(
            sessions=(SessionConfig("a", 25.0, 1.0), SessionConfig("a", 25.0, 1.0)),
            enroll_session="a",
        ).validate()
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(sessions=(SessionConfig("a", 25.0, 1.0),),
                         enroll_session="missing").validate()
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(
            sessions=(SessionConfig("enroll", 25.0, 1.0, trials=0),)
        ).validate()


def test_environment_outside_hull_rejected_at_validate():
    # no anchors at all: any non-reference session environment must fail
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(
            sessions=(SessionConfig("enroll", 85.0, 1.0),),
        ).validate()
    # a target_ber session skips the hull check
    ExperimentConfig(
        sessions=(
            SessionConfig("enroll", 25.0, 1.0),
            SessionConfig("stress", 85.0, 1.0, target_ber=0.1),
        ),
    ).validate()


def test_bad_scalar_fields():
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(num_devices=0).validate()
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(threads=0).validate()
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(alpha=0.0).validate()
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(randomness_mode="sometimes").validate()
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(placement="hexagon").validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("histogram_bucket_percent", 0.0),
        ("histogram_bucket_percent", -1.0),
        ("sweep_trials", 0),
        ("nist_tests", ("frequency", "poker")),
        ("bias_threshold", 0.0),
        ("bias_threshold", 0.6),
        ("stability_threshold", 0.5),
        ("stability_threshold", 1.1),
    ],
)
def test_stage_settings_rejected_at_validate(field, value):
    with pytest.raises(InvalidSpecError, match=field.split("_")[0]):
        dataclasses.replace(preset("d1"), **{field: value}).validate()
    data = to_dict(preset("d1"))
    data[field] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(InvalidSpecError):
        from_dict(data)


@pytest.mark.parametrize(
    "field,text,error",
    [
        ("sigma_mismatch", "NaN", InvalidSpecError),
        ("sigma_mismatch", "Infinity", InvalidSpecError),
        ("weights", "[NaN, 0.0, 1.0]", InvalidSpecError),
        ("weights", "[0.0, Infinity, 1.0]", InvalidSpecError),
        ("bias", '{"positions": [[0, 0]], "offset": NaN}', InvalidSpecError),
        ("bias", '{"positions": [[0, 0]], "offset": Infinity}', InvalidSpecError),
        ("bias", '{"entries": [[0, 1, -Infinity]]}', InvalidSpecError),
        ("bias_noise_coupling", "NaN", InvalidArgumentError),
        ("bias_noise_coupling", "Infinity", InvalidArgumentError),
    ],
    ids=["sigma-nan", "sigma-inf", "weight-nan", "weight-inf", "offset-nan",
         "offset-inf", "entry-inf", "coupling-nan", "coupling-inf"],
)
def test_non_finite_model_parameters_rejected_at_load(tmp_path, field, text, error):
    # json reads NaN and Infinity; a model built from them would read
    # constant bits instead of failing
    data = to_dict(_sample_config())
    data[field] = "@"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data).replace('"@"', text))
    with pytest.raises(error):
        load(path)


def test_mask_thresholds_ignored_without_masking():
    config = dataclasses.replace(
        preset("d1"), masking_enabled=False, bias_threshold=0.9,
        stability_threshold=0.1,
    )
    assert config.validate() is config


def test_session_seed_derivation():
    config = _sample_config()
    seeds = {config.session_seed(i) for i in range(8)}
    assert len(seeds) == 8  # distinct per session index
    assert config.session_seed(0) == config.session_seed(0)
    other = dataclasses.replace(config, master_seed=5)
    assert other.session_seed(0) != config.session_seed(0)


def test_bias_map_building():
    config = _sample_config()
    placement = config.build_placement()
    bias = config.build_bias_map(placement)
    assert bias == {(0, 0): 0.125, (1, 2): 0.125}
    entries = ExperimentConfig(bias={"entries": [[0, 1, -0.5]]})
    assert entries.build_bias_map(entries.build_placement()) == {(0, 1): -0.5}
    with pytest.raises(InvalidSpecError):
        ExperimentConfig(bias={"positions": [[0, 0]]}).build_bias_map(placement)


def test_custom_placement_dict():
    config = ExperimentConfig(
        cells_per_device=6,
        placement={
            "grid_width": 3,
            "grid_height": 2,
            "region_of": [0, 0, 0, 1, 1, 1],
            "adjacency": [[0, 1]],
        },
    ).validate()
    placement = config.build_placement()
    assert placement.region_sizes() == {0: 3, 1: 3}
    assert placement.adjacency == ((0, 1),)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate_and_round_trip(name):
    config = preset(name)
    config.validate()
    assert parse(serialize(config)) == config


def test_preset_shapes():
    sim = preset("paper-sim")
    assert (sim.num_devices, sim.cells_per_device) == (10000, 64)
    assert sim.randomness_mode == "concatenated"
    board = preset("paper-fpga")
    assert (board.num_devices, board.cells_per_device) == (10, 5120)
    assert board.get_session("repeat")[1].target_ber == pytest.approx(0.0307)
    placement = board.build_placement()
    assert placement.region_sizes() == {r: 1024 for r in range(5)}
    for name in ("d1", "d2", "d3", "d4"):
        p = preset(name)
        assert p.cells_per_device == 1024
        w_g, w_r, w_l = p.weights
        assert w_g == 0.0 and w_r == pytest.approx(0.3)
        assert w_g**2 + w_r**2 + w_l**2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        preset("d9")
