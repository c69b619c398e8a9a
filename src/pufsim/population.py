"""Seeded generation of simulated device populations with decomposed
mismatch (global / regional / local), spatial placement, and optional
systematic position bias.

Mismatch decomposition. Each cell's static mismatch is

    sigma * (w_g * G_d  +  w_r * R_{d,region}  +  w_l * L_{d,cell})

with independent standard-normal draws: G_d per device, R per (device,
region), L per (device, cell), and w_g^2 + w_r^2 + w_l^2 = 1 so total
variance is sigma^2 for any weight split. Regions joined by an adjacency
edge share half the regional variance: their regional draw becomes
sqrt(0.5) * own + sqrt(0.5) * cluster, where the cluster draw is common to
the adjacency component. The built-in placements use disjoint region pairs,
so "adjacent" and "same component" coincide and two adjacent regions
correlate at exactly w_r^2 / 2 while unrelated regions stay uncorrelated.

Randomness derivation. Each mismatch component has one keyed Philox
counter generator, key = (master_seed, component tag), in the manner of
Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11).
Device d reads its component from counter (0, 0, d, 0): the device index
sits in a high word of the 256-bit counter, so a device's draws start at
a fixed place whatever the ziggurat normal sampler consumed for other
devices, and never reach the next device's counter. Components with
zero weight are not drawn. Results are therefore reproducible
bit-for-bit regardless of generation order, device count or thread
count.

A population is thus a pure function of its `PopulationSpec`. It keeps
only the combined mismatch and the bias offsets derived from
`spec.bias_map`; `DevicePopulation.cell` re-draws one device to report
its components, and a population snapshot stores the spec plus a digest
of the mismatch instead of the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidArgumentError, InvalidSpecError
from .kernels import read_only

_TAG_GLOBAL = 1
_TAG_REGIONAL = 2
_TAG_CLUSTER = 3
_TAG_LOCAL = 4

BUILTIN_PLACEMENTS = ("d1", "d2", "d3", "d4")


def keyed_philox(seed: int, tag: int) -> np.random.Philox:
    """Philox bit generator keyed by (seed, tag), at counter 0.

    The key is a uint64 array: in a plain list, a seed of 2**63 or more
    would pass through float64 and lose its low bits.
    """
    return np.random.Philox(key=np.array([seed, tag], dtype=np.uint64))


class _DeviceStreams:
    """One keyed Philox per component tag, re-pointed per device.

    `normals(tag, device, size, out)` draws what a fresh
    `keyed_philox(master_seed, tag)` set to counter (0, 0, device, 0)
    would.
    Each tag keeps the state dict of its fresh generator, and only its
    counter word 2 is rewritten per device: setting that state costs a
    few microseconds, where constructing a new generator costs about five
    times as much.
    """

    def __init__(self, master_seed: int):
        self._seed = int(master_seed)
        self._gens = {}

    def normals(self, tag: int, device: int, size=None, out=None):
        entry = self._gens.get(tag)
        if entry is None:
            bitgen = keyed_philox(self._seed, tag)
            # the state getter returns copies, so this dict stays ours
            entry = self._gens[tag] = (np.random.Generator(bitgen), bitgen.state)
        gen, state = entry
        state["state"]["counter"][2] = device
        gen.bit_generator.state = state
        return gen.standard_normal(size, out=out)


@dataclass(frozen=True)
class PlacementConfig:
    """Grid geometry, cell-to-region assignment, and region adjacency."""

    kind: str
    grid_width: int
    grid_height: int
    region_of: tuple  # region id per cell index, row-major
    adjacency: tuple  # undirected edges as sorted (region, region) pairs

    def __post_init__(self):
        n = self.grid_width * self.grid_height
        if self.grid_width <= 0 or self.grid_height <= 0:
            raise InvalidSpecError("grid dimensions must be positive")
        region_of = tuple(int(r) for r in self.region_of)
        if len(region_of) != n:
            raise InvalidSpecError(
                f"region assignment covers {len(region_of)} cells, grid has {n}"
            )
        edges = set()
        for a, b in self.adjacency:
            a, b = int(a), int(b)
            if a == b:
                raise InvalidSpecError("adjacency must be irreflexive")
            edges.add((min(a, b), max(a, b)))
        regions = set(region_of)
        for a, b in edges:
            if a not in regions or b not in regions:
                raise InvalidSpecError(f"adjacency edge ({a}, {b}) names unknown region")
        object.__setattr__(self, "region_of", region_of)
        object.__setattr__(self, "adjacency", tuple(sorted(edges)))

    @property
    def num_cells(self) -> int:
        return self.grid_width * self.grid_height

    def region_sizes(self) -> dict:
        sizes: dict = {}
        for r in self.region_of:
            sizes[r] = sizes.get(r, 0) + 1
        return sizes

    def adjacency_components(self) -> dict:
        """Map each region touched by an edge to a component index.

        Components are connected components of the adjacency graph,
        numbered in order of their smallest region id. Regions with no
        edges are absent (they keep an unshared regional draw).
        """
        neighbors: dict = {}
        for a, b in self.adjacency:
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)
        comp: dict = {}
        idx = 0
        for start in sorted(neighbors):
            if start in comp:
                continue
            stack = [start]
            while stack:
                r = stack.pop()
                if r in comp:
                    continue
                comp[r] = idx
                stack.extend(neighbors[r] - comp.keys())
            idx += 1
        return comp


def builtin_placement(kind: str) -> PlacementConfig:
    """The four built-in 1024-cell placements.

    d1: one 32x32 block, a single region (everything overlaps).
    d2: 32x32 block split into 16 row-pair regions of 64 cells, with
        consecutive regions paired as adjacent.
    d3: 64x16 block, one region per 16-cell row, consecutive rows paired
        as adjacent.
    d4: d3's regions with no adjacency at all (least overlap).
    """
    kind = kind.lower()
    if kind == "d1":
        return PlacementConfig("d1", 32, 32, (0,) * 1024, ())
    if kind == "d2":
        region_of = tuple((i // 32) // 2 for i in range(1024))
        edges = tuple((r, r + 1) for r in range(0, 16, 2))
        return PlacementConfig("d2", 32, 32, region_of, edges)
    if kind in ("d3", "d4"):
        region_of = tuple(i // 16 for i in range(1024))
        edges = tuple((r, r + 1) for r in range(0, 64, 2)) if kind == "d3" else ()
        return PlacementConfig(kind, 16, 64, region_of, edges)
    raise InvalidArgumentError(f"unknown builtin placement {kind!r}")


def regional_overlap_score(placement: PlacementConfig) -> float:
    """Fraction of within-device cell pairs that share a region or sit in
    adjacent regions."""
    n = placement.num_cells
    total_pairs = n * (n - 1) // 2
    sizes = placement.region_sizes()
    same = sum(s * (s - 1) // 2 for s in sizes.values())
    adjacent = sum(sizes[a] * sizes[b] for a, b in placement.adjacency)
    return (same + adjacent) / total_pairs


@dataclass(frozen=True)
class CellParams:
    """Decomposed mismatch draws and placement data of one cell."""

    global_component: float
    regional_component: float
    local_component: float
    position: tuple
    region: int


@dataclass(frozen=True)
class PopulationSpec:
    num_devices: int
    cells_per_device: int
    sigma_mismatch: float
    weights: tuple  # (w_g, w_r, w_l)
    placement: PlacementConfig
    master_seed: int
    bias_map: Optional[dict] = None  # (row, col) -> offset

    def __post_init__(self):
        if self.num_devices <= 0 or self.cells_per_device <= 0:
            raise InvalidSpecError("population sizes must be positive")
        if not (0 < self.sigma_mismatch < math.inf):
            raise InvalidSpecError("sigma_mismatch must be positive and finite")
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3 or not all(0 <= x < math.inf for x in w):
            raise InvalidSpecError("weights must be three non-negative finite values")
        if abs(w[0] ** 2 + w[1] ** 2 + w[2] ** 2 - 1.0) > 1e-9:
            raise InvalidSpecError(
                "squared weights must sum to 1 (total variance budget)"
            )
        if self.placement.num_cells != self.cells_per_device:
            raise InvalidSpecError(
                f"placement has {self.placement.num_cells} cells, "
                f"spec declares {self.cells_per_device}"
            )
        if not (0 <= int(self.master_seed) < 2**64):
            raise InvalidSpecError("master_seed must fit in 64 unsigned bits")
        object.__setattr__(self, "weights", w)
        if self.bias_map is not None:
            if not all(math.isfinite(float(v)) for v in self.bias_map.values()):
                raise InvalidSpecError("bias offsets must be finite")
            object.__setattr__(self, "bias_map", dict(self.bias_map) or None)


def _bias_offsets(spec: PopulationSpec) -> np.ndarray:
    placement = spec.placement
    offsets = np.zeros(spec.cells_per_device)
    for pos, value in (spec.bias_map or {}).items():
        row, col = pos
        if not (0 <= row < placement.grid_height and 0 <= col < placement.grid_width):
            raise InvalidArgumentError(f"bias position {pos} outside grid")
        offsets[row * placement.grid_width + col] = float(value)
    return offsets


class DevicePopulation:
    """Immutable set of simulated devices: the spec, the combined
    mismatch, and the per-position systematic offsets applied at readout
    (derived from `spec.bias_map`).

    The population is a pure function of its spec, so the component draws
    are not kept; `cell` re-draws one device to report them.
    """

    def __init__(self, spec: PopulationSpec, mismatch: np.ndarray):
        self.spec = spec
        self.mismatch = read_only(mismatch)
        self.bias_offsets = read_only(_bias_offsets(spec))

    @property
    def num_devices(self) -> int:
        return self.spec.num_devices

    @property
    def cells_per_device(self) -> int:
        return self.spec.cells_per_device

    def cell(self, device: int, index: int) -> CellParams:
        spec = self.spec
        placement = spec.placement
        g, regional, local = _one_device(
            spec, _RegionTables(placement), _DeviceStreams(spec.master_seed), device
        )
        return CellParams(
            global_component=float(g[0, 0]),
            regional_component=float(regional[0, index]),
            local_component=float(local[0, index]),
            position=(index // placement.grid_width, index % placement.grid_width),
            region=placement.region_of[index],
        )


class _RegionTables:
    """Precomputed index arrays mapping cells to regional draw slots."""

    def __init__(self, placement: PlacementConfig):
        region_ids = sorted(set(placement.region_of))
        id_to_slot = {r: k for k, r in enumerate(region_ids)}
        comp_map = placement.adjacency_components()
        self.num_regions = len(region_ids)
        self.num_components = (max(comp_map.values()) + 1) if comp_map else 0
        # per region slot: component index, or -1 for an unshared region
        self.comp_of_slot = np.array(
            [comp_map.get(r, -1) for r in region_ids], dtype=np.int64
        )
        self.slot_of_cell = np.array(
            [id_to_slot[r] for r in placement.region_of], dtype=np.int64
        )

    def regional_per_cell(self, own: np.ndarray, cluster: np.ndarray) -> np.ndarray:
        eff = own.copy()
        shared = self.comp_of_slot >= 0
        if shared.any():
            eff[shared] = np.sqrt(0.5) * own[shared] + np.sqrt(0.5) * cluster[
                self.comp_of_slot[shared]
            ]
        return eff[self.slot_of_cell]


def _combine(spec: PopulationSpec, parts, shape) -> np.ndarray:
    """sigma * (w_g * global + w_r * regional + w_l * local) over the
    components of nonzero weight, broadcast to shape.

    Dropping a zero-weight term leaves every sum unchanged, and each
    element goes through the same operations whether it is computed for
    one device or for the whole population."""
    total = None
    for w, part in zip(spec.weights, parts):
        if w:
            term = w * part
            total = term if total is None else total + term
    return spec.sigma_mismatch * np.broadcast_to(total, shape)


def _draw_device(
    spec: PopulationSpec, tables: _RegionTables, streams: _DeviceStreams,
    device: int, parts: tuple, row: int,
) -> None:
    """Write one device's components into row `row` of parts = (global
    (rows, 1), regional (rows, n), local (rows, n)); a component of zero
    weight is not drawn and its array is not touched."""
    g, regional, local = parts
    w_g, w_r, w_l = spec.weights
    if w_g:
        streams.normals(_TAG_GLOBAL, device, out=g[row])
    if w_r:
        own = streams.normals(_TAG_REGIONAL, device, tables.num_regions)
        cluster = (
            streams.normals(_TAG_CLUSTER, device, tables.num_components)
            if tables.num_components
            else np.empty(0)
        )
        regional[row] = tables.regional_per_cell(own, cluster)
    if w_l:
        streams.normals(_TAG_LOCAL, device, out=local[row])


def _one_device(
    spec: PopulationSpec, tables: _RegionTables, streams: _DeviceStreams, device: int
) -> tuple:
    """One device's (global, regional, local) draws, each of one row; a
    component of zero weight reads as zeros."""
    n = spec.cells_per_device
    parts = (np.zeros((1, 1)), np.zeros((1, n)), np.zeros((1, n)))
    _draw_device(spec, tables, streams, device, parts, 0)
    return parts


def generate_population(spec: PopulationSpec) -> DevicePopulation:
    """Generate the full population described by spec.

    Identical specs (including seed) produce bit-identical populations;
    distinct master seeds produce statistically independent ones.
    Components of zero weight get no array at all.
    """
    tables = _RegionTables(spec.placement)
    streams = _DeviceStreams(spec.master_seed)
    d, n = spec.num_devices, spec.cells_per_device
    parts = tuple(
        np.empty((d, width)) if w else None
        for w, width in zip(spec.weights, (1, n, n))
    )
    for dev in range(d):
        _draw_device(spec, tables, streams, dev, parts, dev)
    return DevicePopulation(spec, _combine(spec, parts, (d, n)))


def iter_device_mismatch(spec: PopulationSpec) -> Iterator[np.ndarray]:
    """Yield each device's combined mismatch vector without materializing
    the population; identical values to generate_population(spec).mismatch.
    """
    tables = _RegionTables(spec.placement)
    streams = _DeviceStreams(spec.master_seed)
    shape = (1, spec.cells_per_device)
    for dev in range(spec.num_devices):
        yield _combine(spec, _one_device(spec, tables, streams, dev), shape)[0]


def inject_position_bias(
    population: DevicePopulation, bias_map: dict
) -> DevicePopulation:
    """Return a population whose listed positions carry the given
    systematic offsets (applied at readout); unlisted positions keep
    their current offsets. The merged map becomes the new spec's
    `bias_map`, the mismatch array is shared, and the input population
    is not modified."""
    spec = population.spec
    merged = {**(spec.bias_map or {}), **bias_map}
    return DevicePopulation(replace(spec, bias_map=merged), population.mismatch)
