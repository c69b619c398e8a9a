"""Population generation: determinism, variance budget, regional
correlation structure, placement geometry, and bias injection.

Correlation targets: cells of one region share the regional draw exactly;
cells of adjacent regions correlate at half the regional variance share
(each region's effective draw is an equal-power mix of its own draw and
the shared cluster draw); unrelated cells are independent. Statistical
assertions use 3-standard-error bands around these values.
"""

import ast
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from pufsim import population
from pufsim.errors import InvalidArgumentError, InvalidSpecError
from pufsim.population import (
    BUILTIN_PLACEMENTS,
    DevicePopulation,
    PlacementConfig,
    PopulationSpec,
    builtin_placement,
    generate_population,
    inject_position_bias,
    iter_device_mismatch,
    regional_overlap_score,
)

PURE_LOCAL = (0.0, 0.0, 1.0)


def _spec(devices=50, cells=1024, weights=PURE_LOCAL, placement="d1",
          seed=99, sigma=0.25, bias_map=None):
    if isinstance(placement, str):
        placement = builtin_placement(placement)
    return PopulationSpec(
        num_devices=devices,
        cells_per_device=placement.num_cells if cells is None else cells,
        sigma_mismatch=sigma,
        weights=weights,
        placement=placement,
        master_seed=seed,
        bias_map=bias_map,
    )


# -- determinism ---------------------------------------------------------------

def test_same_spec_same_population():
    a = generate_population(_spec())
    b = generate_population(_spec())
    assert np.array_equal(a.mismatch, b.mismatch)
    assert np.array_equal(a.bias_offsets, b.bias_offsets)
    for dev, idx in ((0, 0), (17, 511), (49, 1023)):
        assert a.cell(dev, idx) == b.cell(dev, idx)


def test_different_seed_different_population():
    a = generate_population(_spec(seed=1))
    b = generate_population(_spec(seed=2))
    assert not np.array_equal(a.mismatch, b.mismatch)


def test_devices_are_prefix_stable():
    # adding devices must not change earlier devices' draws
    small = generate_population(_spec(devices=10))
    large = generate_population(_spec(devices=25))
    assert np.array_equal(small.mismatch, large.mismatch[:10])


def _reference_normals(seed, tag, device, k):
    """Reference draw: the first k raw words of a bare Philox keyed
    (seed, tag) and set to device's first counter block, d * ceil(k / 4),
    through ndtri on the open 52-bit grid ((word >> 12) + 1/2) * 2**-52."""
    key = np.array([seed, tag], dtype=np.uint64)
    words = np.random.Philox(key=key, counter=device * -(-k // 4)).random_raw(k)
    return ndtri(((words >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52)


FLAT_13 = PlacementConfig("flat", 13, 1, (0,) * 13, ())


def test_device_streams_are_counter_addressed():
    # component tag 4 (local) of device d reads Philox key (seed, 4) from
    # counter block d * ceil(k / 4), so a device's draws never depend on
    # the others; with pure-local weights the mismatch is exactly sigma
    # times that draw. 2**64 - 3 needs an exact uint64 key; 13 cells and
    # the one global draw leave part of each device's last block unused.
    for seed in (99, 2**64 - 3):
        for placement in ("d1", FLAT_13):
            spec = _spec(devices=5, cells=None, placement=placement, seed=seed)
            k = spec.cells_per_device
            pop = generate_population(spec)
            for dev in (0, 3, 4):
                np.testing.assert_array_equal(
                    pop.mismatch[dev], 0.25 * _reference_normals(seed, 4, dev, k))
                # zero-weight components are not drawn
                for idx in (0, 7, k - 1):
                    cell = pop.cell(dev, idx)
                    assert cell.global_component == cell.regional_component == 0.0
            # the global component (tag 1) has one draw per device
            pop = generate_population(replace(spec, weights=(1.0, 0.0, 0.0)))
            for dev in (0, 3, 4):
                (g,) = _reference_normals(seed, 1, dev, 1)
                np.testing.assert_array_equal(pop.mismatch[dev], np.full(k, 0.25 * g))
                assert pop.cell(dev, k - 1).global_component == g


def test_iter_matches_generate(monkeypatch):
    # 40 devices of 1024 local draws span more than one 2**15-word draw
    assert 40 * 1024 > population._DRAW_WORDS
    drawn = []
    for devices in (6, 40):
        for weights in (PURE_LOCAL, (0.6, 0.0, 0.8), (0.0, 0.3, math.sqrt(0.91)),
                        (0.2, 0.4, math.sqrt(1 - 0.04 - 0.16))):
            spec = _spec(devices=devices, weights=weights, placement="d2", seed=5)
            pop = generate_population(spec)
            streamed = np.stack(list(iter_device_mismatch(spec)))
            np.testing.assert_array_equal(streamed, pop.mismatch)
            # one-device draws of cell() recombine to the mismatch exactly
            w_g, w_r, w_l = spec.weights
            for dev, idx in ((devices - 1, 700), (0, 0), (devices // 2, 1023)):
                c = pop.cell(dev, idx)
                assert pop.mismatch[dev, idx] == 0.25 * (
                    w_g * c.global_component + w_r * c.regional_component
                    + w_l * c.local_component)
            drawn.append((spec, pop.mismatch))
    # one device per chunk: every component spans many draws
    monkeypatch.setattr(population, "_DRAW_WORDS", 4)
    for spec, mismatch in drawn:
        np.testing.assert_array_equal(generate_population(spec).mismatch, mismatch)


def _stream_calls(tree):
    """(line, enclosing function, callee) of every call that builds,
    moves or reads a Philox bit generator, or derives a seed."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "attr", getattr(callee, "id", None))
            if name in ("Philox", "advance", "jumped", "random_raw", "SeedSequence"):
                found.append((node.lineno, func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_population_addresses_streams():
    # counter offsets and row widths live in population.keyed_philox and
    # stream_rows, every draw is made in population.py, and every derived
    # seed comes from population.derived_seed
    stray = []
    for path in sorted(pathlib.Path(population.__file__).parent.glob("*.py")):
        if path.name == "population.py":
            continue
        for line, func, name in _stream_calls(ast.parse(path.read_text())):
            stray.append(f"{path.name}:{line} {name} in {func}")
    assert stray == []


def test_population_leaves_caller_mismatch_writable():
    spec = _spec(devices=2, cells=1024)
    mismatch = np.zeros((2, 1024))
    pop = DevicePopulation(spec, mismatch)
    mismatch[0, 0] = 1.0
    assert not pop.mismatch.flags.writeable
    with pytest.raises(ValueError):
        pop.mismatch[0, 1] = 1.0


# -- variance budget -------------------------------------------------------------

def test_global_weight_one_gives_constant_device():
    pop = generate_population(_spec(devices=8, weights=(1.0, 0.0, 0.0)))
    for dev in range(8):
        assert np.ptp(pop.mismatch[dev]) == 0.0
    # and distinct devices still differ
    assert np.ptp(pop.mismatch[:, 0]) > 0


def _cell_correlation(placement, weights):
    """Mismatch correlation between every pair of one device's cells:
    w_g^2, plus w_r^2 within a region and w_r^2 / 2 between regions of
    one adjacency component; 1 on the diagonal."""
    region = np.asarray(placement.region_of)
    comp_of = placement.adjacency_components()
    comp = np.array([comp_of.get(r, -1 - r) for r in placement.region_of])
    shared = np.where(region[:, None] == region[None, :], 1.0,
                      np.where(comp[:, None] == comp[None, :], 0.5, 0.0))
    rho = weights[0] ** 2 + weights[1] ** 2 * shared
    np.fill_diagonal(rho, 1.0)
    return rho


def test_total_variance_matches_budget():
    # squared weights sum to 1, so Var(mismatch) = sigma^2 regardless of split
    sigma, d, n = 0.25, 600, 1024
    for weights in (PURE_LOCAL, (0.0, 0.3, math.sqrt(0.91)),
                    (0.5, 0.5, math.sqrt(0.5))):
        spec = _spec(devices=d, cells=n, weights=weights, placement="d3",
                     sigma=sigma, seed=11)
        pop = generate_population(spec)
        var = float(pop.mismatch.var())
        # mixed weights leave fewer independent draws: the mean of x^2 over
        # one device's cells has variance 2 sigma^4 sum(rho_ij^2) / n^2, and
        # the d devices are independent
        rho = _cell_correlation(spec.placement, weights)
        sd = sigma**2 * math.sqrt(2 * d * float((rho**2).sum())) / (d * n)
        assert abs(var - sigma**2) < 6 * sd


def test_mismatch_is_zero_mean():
    pop = generate_population(_spec(devices=400, cells=1024, seed=3))
    se = 0.25 / math.sqrt(400 * 1024)
    assert abs(float(pop.mismatch.mean())) < 4 * se


# -- regional correlation structure ----------------------------------------------

def test_same_region_draw_identical():
    spec = _spec(devices=4, weights=(0.0, 0.3, math.sqrt(0.91)), placement="d3")
    pop = generate_population(spec)
    for dev in range(4):
        regional = [pop.cell(dev, idx).regional_component for idx in range(48)]
        # d3: cells 0..15 form region 0
        assert regional[:16] == [regional[0]] * 16
        # region 2 (cells 32..47) carries a different draw
        assert regional[32] != regional[0]


def test_adjacent_and_unrelated_region_correlation():
    # tiny 4-cell layout: regions (0, 0, 1, 2), edge only between 0 and 1
    placement = PlacementConfig("tiny", 2, 2, (0, 0, 1, 2), ((0, 1),))
    w_r = math.sqrt(0.5)
    spec = PopulationSpec(
        num_devices=20000,
        cells_per_device=4,
        sigma_mismatch=1.0,
        weights=(0.0, w_r, math.sqrt(0.5)),
        placement=placement,
        master_seed=77,
    )
    pop = generate_population(spec)
    corr = np.corrcoef(pop.mismatch.T)
    se3 = 3.0 / math.sqrt(spec.num_devices)
    assert abs(corr[0, 1] - w_r**2) < se3          # same region
    assert abs(corr[0, 2] - 0.5 * w_r**2) < se3    # adjacent regions
    assert abs(corr[0, 3]) < se3                   # no relation
    assert abs(corr[2, 3]) < se3


def test_adjacency_sharing_preserves_unit_variance():
    placement = PlacementConfig("tiny", 2, 2, (0, 0, 1, 2), ((0, 1),))
    spec = PopulationSpec(
        num_devices=20000,
        cells_per_device=4,
        sigma_mismatch=1.0,
        weights=(0.0, 1.0, 0.0),
        placement=placement,
        master_seed=78,
    )
    pop = generate_population(spec)
    var = pop.mismatch.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 3 * math.sqrt(2.0 / spec.num_devices))


# -- placement geometry ------------------------------------------------------------

def test_builtin_geometry():
    d1 = builtin_placement("d1")
    assert (d1.grid_width, d1.grid_height) == (32, 32)
    assert set(d1.region_of) == {0} and d1.adjacency == ()

    d2 = builtin_placement("d2")
    sizes = d2.region_sizes()
    assert len(sizes) == 16 and set(sizes.values()) == {64}
    assert d2.adjacency == tuple((r, r + 1) for r in range(0, 16, 2))

    d3 = builtin_placement("d3")
    assert (d3.grid_width, d3.grid_height) == (16, 64)
    sizes = d3.region_sizes()
    assert len(sizes) == 64 and set(sizes.values()) == {16}
    assert len(d3.adjacency) == 32

    d4 = builtin_placement("d4")
    assert d4.region_of == d3.region_of and d4.adjacency == ()

    with pytest.raises(InvalidArgumentError):
        builtin_placement("d5")


def test_overlap_scores_exact():
    total_pairs = 1024 * 1023 // 2
    assert regional_overlap_score(builtin_placement("d1")) == 1.0
    assert regional_overlap_score(builtin_placement("d2")) == pytest.approx(
        (16 * (64 * 63 // 2) + 8 * 64 * 64) / total_pairs, abs=1e-15
    )
    assert regional_overlap_score(builtin_placement("d3")) == pytest.approx(
        (64 * (16 * 15 // 2) + 32 * 16 * 16) / total_pairs, abs=1e-15
    )
    assert regional_overlap_score(builtin_placement("d4")) == pytest.approx(
        64 * (16 * 15 // 2) / total_pairs, abs=1e-15
    )


def test_overlap_scores_strictly_ordered():
    scores = [regional_overlap_score(builtin_placement(k)) for k in BUILTIN_PLACEMENTS]
    assert scores == sorted(scores, reverse=True)
    assert len(set(scores)) == len(scores)


def test_placement_validation():
    with pytest.raises(InvalidSpecError):
        PlacementConfig("bad", 2, 2, (0, 0, 0), ())  # wrong cell count
    with pytest.raises(InvalidSpecError):
        PlacementConfig("bad", 2, 2, (0, 0, 1, 1), ((0, 0),))  # self edge
    with pytest.raises(InvalidSpecError):
        PlacementConfig("bad", 2, 2, (0, 0, 1, 1), ((0, 7),))  # unknown region
    # undirected normalization: (1, 0) stored as (0, 1)
    p = PlacementConfig("ok", 2, 2, (0, 0, 1, 1), ((1, 0),))
    assert p.adjacency == ((0, 1),)


@pytest.mark.parametrize("region_of,adjacency", [
    ((0.5, 1.7), ()),  # int() would regroup the cells as regions 0 and 1
    ((0, 1), ((0.2, 1.9),)),
    ((0, True), ()),
    (("0", 1), ()),
    ((0, 1), ((0, "1"),)),
])
def test_placement_refuses_non_integer_region_ids(region_of, adjacency):
    with pytest.raises(InvalidSpecError, match="must be an integer"):
        PlacementConfig("custom", 2, 1, region_of, adjacency)


def test_placement_accepts_numpy_and_negative_region_ids():
    p = PlacementConfig("custom", 2, 1, np.array([0, -1]), ((np.int64(0), -1),))
    assert p.region_of == (0, -1) and p.adjacency == ((-1, 0),)
    assert all(type(r) is int for r in p.region_of + p.adjacency[0])


def test_adjacency_components():
    d2 = builtin_placement("d2")
    comp = d2.adjacency_components()
    assert len(comp) == 16 and len(set(comp.values())) == 8
    assert comp[0] == comp[1] and comp[2] == comp[3] and comp[0] != comp[2]
    chained = PlacementConfig("c", 3, 1, (0, 1, 2), ((0, 1), (1, 2)))
    comp = chained.adjacency_components()
    assert comp[0] == comp[1] == comp[2] == 0


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        _spec(weights=(0.5, 0.5, 0.5))  # squared sum != 1
    with pytest.raises(InvalidSpecError):
        _spec(weights=(-0.3, 0.0, math.sqrt(0.91)))
    with pytest.raises(InvalidSpecError):
        _spec(cells=100)  # placement says 1024
    with pytest.raises(InvalidSpecError):
        _spec(seed=2**64)
    with pytest.raises(InvalidSpecError):
        _spec(sigma=0.0)


def test_cell_accessor():
    pop = generate_population(_spec(devices=2, placement="d3", cells=1024))
    cell = pop.cell(1, 17)
    assert cell.position == (1, 1)  # 16-wide grid
    assert cell.region == 1
    assert cell.local_component == _reference_normals(99, 4, 1, 1024)[17]
    assert cell.global_component == cell.regional_component == 0.0
    assert pop.mismatch[1, 17] == 0.25 * cell.local_component
    # mixed weights: the components recombine to the stored mismatch
    w_g, w_r, w_l = 0.2, 0.4, math.sqrt(1 - 0.04 - 0.16)
    pop = generate_population(_spec(devices=3, weights=(w_g, w_r, w_l),
                                    placement="d2", seed=5))
    for dev, idx in ((0, 0), (2, 700)):
        c = pop.cell(dev, idx)
        # d2: region r = idx // 64 mixes its own draw (tag 2, 16 regions)
        # with its pair's cluster draw (tag 3, 8 pairs)
        region = idx // 64
        own = _reference_normals(5, 2, dev, 16)[region]
        cluster = _reference_normals(5, 3, dev, 8)[region // 2]
        assert c.global_component == _reference_normals(5, 1, dev, 1)[0]
        assert c.regional_component == np.sqrt(0.5) * own + np.sqrt(0.5) * cluster
        assert c.local_component == _reference_normals(5, 4, dev, 1024)[idx]
        assert pop.mismatch[dev, idx] == pytest.approx(
            0.25 * (w_g * c.global_component + w_r * c.regional_component
                    + w_l * c.local_component), rel=1e-12)


# -- bias injection ------------------------------------------------------------------

def test_inject_bias_sets_only_listed_positions():
    pop = generate_population(_spec(devices=3))
    biased = inject_position_bias(pop, {(0, 0): 0.5, (2, 3): -0.25})
    assert biased.bias_offsets[0] == 0.5
    assert biased.bias_offsets[2 * 32 + 3] == -0.25
    assert np.count_nonzero(biased.bias_offsets) == 2
    # original untouched, mismatch shared
    assert np.count_nonzero(pop.bias_offsets) == 0
    assert biased.mismatch is pop.mismatch
    # the offsets are the spec's: the merged map lands in spec.bias_map
    assert pop.spec.bias_map is None
    assert biased.spec.bias_map == {(0, 0): 0.5, (2, 3): -0.25}
    again = inject_position_bias(biased, {(2, 3): 0.125, (1, 1): 0.75})
    assert again.spec.bias_map == {(0, 0): 0.5, (2, 3): 0.125, (1, 1): 0.75}
    assert np.count_nonzero(again.bias_offsets) == 3
    # an empty map leaves the spec as it was (bias_map None, not {})
    assert inject_position_bias(pop, {}).spec == pop.spec


def test_inject_bias_rejects_outside_grid():
    pop = generate_population(_spec(devices=2))
    with pytest.raises(InvalidArgumentError):
        inject_position_bias(pop, {(32, 0): 0.5})
    with pytest.raises(InvalidArgumentError):
        inject_position_bias(pop, {(0, 32): 0.5})


def test_bias_map_via_spec():
    pop = generate_population(_spec(devices=2, bias_map={(1, 1): 0.7}))
    assert pop.bias_offsets[33] == 0.7
