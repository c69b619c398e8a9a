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

Randomness derivation. Every counter-addressed draw (the mismatch, the
readout noise, the battery's simulated sequences) is a row of a keyed
Philox stream, key = (seed, stream tag), in the manner of Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11); the tags are listed
below. A stream of k raw 64-bit words per row pads each row to whole
counter blocks, `row_width(k)` = 4 * ceil(k / 4) words, so any row range
is one contiguous draw from a computed counter (`keyed_philox`,
`stream_rows`), the same for every draw order and range size. Mismatch
component `tag` has row d for device d, and its k draws are the row's
first k words, each turned into a standard normal by inverse transform on
the open 52-bit grid, ndtri(((word >> 12) + 1/2) * 2**-52), which never
reaches 0 or 1. Components with zero weight are not drawn.

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
from .kernels import check_int, read_only
from .special import ndtri

# stream tags, keyed by the master seed (1-4) or a session seed (5)
_TAG_GLOBAL = 1
_TAG_REGIONAL = 2
_TAG_CLUSTER = 3
_TAG_LOCAL = 4
_TAG_READOUT = 5

# seed keys: session i reads at derived_seed(master seed, _TAG_SESSION, i),
# and the sweep's reads derive from the seed of session _SWEEP_SESSION
_TAG_SESSION = 101
_SWEEP_SESSION = 10_000

_SEED_MAX = 2**64 - 1  # a seed keys Philox as one uint64 word

BUILTIN_PLACEMENTS = ("d1", "d2", "d3", "d4")


# raw words per chunk of devices that a component draws (256 KiB); bounds
# the draw's working memory, whatever the population size
_DRAW_WORDS = 1 << 15


def row_width(k: int) -> int:
    """Raw 64-bit words per row of a stream of k words per row: whole
    4-word counter blocks, 4 * ceil(k / 4)."""
    return -(-k // 4) * 4


def keyed_philox(seed: int, tag: int, row: int = 0, k: int = 4) -> np.random.Philox:
    """Philox bit generator keyed by (seed, tag), positioned at the first
    counter block of row `row` of a stream of k words per row.

    The key is a uint64 array: in a plain list, a seed of 2**63 or more
    would pass through float64 and lose its low bits.
    """
    bitgen = np.random.Philox(key=np.array([seed, tag], dtype=np.uint64))
    return bitgen.advance(row * row_width(k) // 4)


def derived_seed(seed: int, *key: int) -> int:
    """The first uint64 word of SeedSequence(seed, spawn_key=key)."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def stream_rows(seed: int, tag: int, first: int, rows: int, k: int) -> np.ndarray:
    """Rows first .. first + rows - 1 of stream (seed, tag) of k words per
    row, as a (rows, row_width(k)) uint64 array; the words past k in a row
    are padding."""
    width = row_width(k)
    return keyed_philox(seed, tag, first, k).random_raw(rows * width).reshape(rows, width)


def _normals(seed: int, tag: int, first: int, rows: int, k: int) -> np.ndarray:
    """The (rows, k) standard normals of devices first .. first + rows - 1
    of component `tag`: the first k words of each device's row, through
    ndtri(((word >> 12) + 1/2) * 2**-52)."""
    out = np.empty((rows, k))
    words = stream_rows(seed, tag, first, rows, k)
    words >>= 12
    np.add(words[:, :k], 0.5, out=out)
    out *= 2.0**-52
    ndtri(out, out=out)
    return out


@dataclass(frozen=True)
class PlacementConfig:
    """Grid geometry, cell-to-region assignment, and region adjacency."""

    kind: str
    grid_width: int
    grid_height: int
    region_of: tuple  # region id per cell index, row-major
    adjacency: tuple  # undirected edges as sorted (region, region) pairs

    def __post_init__(self):
        check_int(self.grid_width, "grid_width", 1, error=InvalidSpecError)
        check_int(self.grid_height, "grid_height", 1, error=InvalidSpecError)
        n = self.grid_width * self.grid_height
        region_of = tuple(check_int(r, "region id", -math.inf, error=InvalidSpecError)
                          for r in self.region_of)
        if len(region_of) != n:
            raise InvalidSpecError(
                f"region assignment covers {len(region_of)} cells, grid has {n}"
            )
        edges = set()
        for a, b in self.adjacency:
            a, b = (check_int(r, "adjacency region", -math.inf, error=InvalidSpecError)
                    for r in (a, b))
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
        check_int(self.num_devices, "num_devices", 1, error=InvalidSpecError)
        check_int(self.cells_per_device, "cells_per_device", 1, error=InvalidSpecError)
        check_int(self.master_seed, "master_seed", 0, _SEED_MAX, InvalidSpecError)
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
        object.__setattr__(self, "weights", w)
        if self.bias_map is not None:
            if not all(math.isfinite(float(v)) for v in self.bias_map.values()):
                raise InvalidSpecError("bias offsets must be finite")
            for row, col in self.bias_map:
                check_int(row, "bias row", 0, self.placement.grid_height - 1,
                          InvalidSpecError)
                check_int(col, "bias column", 0, self.placement.grid_width - 1,
                          InvalidSpecError)
            object.__setattr__(self, "bias_map", dict(self.bias_map) or None)


def _bias_offsets(spec: PopulationSpec) -> np.ndarray:
    offsets = np.zeros(spec.cells_per_device)
    for (row, col), value in (spec.bias_map or {}).items():
        offsets[row * spec.placement.grid_width + col] = float(value)
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
        g, regional, local = _draw_range(
            spec, _RegionTables(placement), device, device + 1
        )
        return CellParams(
            global_component=0.0 if g is None else float(g[0, 0]),
            regional_component=0.0 if regional is None else float(regional[0, index]),
            local_component=0.0 if local is None else float(local[0, index]),
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
        # region slots in an adjacency component, and that component
        comp_of_slot = np.array(
            [comp_map.get(r, -1) for r in region_ids], dtype=np.int64
        )
        self.shared = np.flatnonzero(comp_of_slot >= 0)
        self.comp_of_shared = comp_of_slot[self.shared]
        self.slot_of_cell = np.array(
            [id_to_slot[r] for r in placement.region_of], dtype=np.int64
        )

    def regional_per_cell(self, own: np.ndarray, cluster) -> np.ndarray:
        """Effective regional draw of each cell, (rows, cells), from the
        own draws (rows, regions) and cluster draws (rows, components);
        `own` is overwritten."""
        if self.shared.size:
            half = np.sqrt(0.5)
            own[:, self.shared] = (
                half * own[:, self.shared] + half * cluster[:, self.comp_of_shared]
            )
        return own[:, self.slot_of_cell]


def _combine(spec: PopulationSpec, parts, shape, out=None) -> np.ndarray:
    """sigma * (w_g * global + w_r * regional + w_l * local) over the
    components of nonzero weight, broadcast to shape, written into `out`
    when given. The parts are scaled and summed in place, in that order:
    only the global part is narrower than shape, and it comes first.

    Dropping a zero-weight term leaves every sum unchanged, and each
    element goes through the same operations whether it is computed for
    one device or for the whole population."""
    total = None
    for w, part in zip(spec.weights, parts):
        if w:
            part *= w
            total = part if total is None else np.add(total, part, out=part)
    return np.multiply(spec.sigma_mismatch, np.broadcast_to(total, shape), out=out)


def _draw_range(
    spec: PopulationSpec, tables: _RegionTables, first: int, stop: int
) -> tuple:
    """Components (global (rows, 1), regional (rows, n), local (rows, n))
    of devices first .. stop - 1; a component of zero weight is not drawn
    and reads None."""
    seed, rows, n = spec.master_seed, stop - first, spec.cells_per_device
    w_g, w_r, w_l = spec.weights
    g = _normals(seed, _TAG_GLOBAL, first, rows, 1) if w_g else None
    regional = None
    if w_r:
        own = _normals(seed, _TAG_REGIONAL, first, rows, tables.num_regions)
        cluster = (
            _normals(seed, _TAG_CLUSTER, first, rows, tables.num_components)
            if tables.num_components
            else None
        )
        regional = tables.regional_per_cell(own, cluster)
    local = _normals(seed, _TAG_LOCAL, first, rows, n) if w_l else None
    return g, regional, local


def _mismatch_chunks(spec: PopulationSpec, out=None) -> Iterator[np.ndarray]:
    """Yield the combined mismatch of each chunk of about _DRAW_WORDS cells
    in device order, written into the chunk's rows of `out` when given."""
    d, n = spec.num_devices, spec.cells_per_device
    tables = _RegionTables(spec.placement)
    step = max(1, _DRAW_WORDS // n)
    for lo in range(0, d, step):
        hi = min(lo + step, d)
        yield _combine(spec, _draw_range(spec, tables, lo, hi), (hi - lo, n),
                       out=None if out is None else out[lo:hi])


def generate_population(spec: PopulationSpec) -> DevicePopulation:
    """Generate the full population described by spec.

    Identical specs (including seed) produce bit-identical populations;
    distinct master seeds produce statistically independent ones.
    Components of zero weight are not drawn. Devices are drawn and
    combined in chunks of about _DRAW_WORDS cells, straight into the
    (d, n) output, so the working memory beyond it stays bounded.
    """
    mismatch = np.empty((spec.num_devices, spec.cells_per_device))
    for _ in _mismatch_chunks(spec, out=mismatch):
        pass
    return DevicePopulation(spec, mismatch)


def iter_device_mismatch(spec: PopulationSpec) -> Iterator[np.ndarray]:
    """Yield each device's combined mismatch vector without materializing
    the population: the rows of generate_population's chunks."""
    for chunk in _mismatch_chunks(spec):
        yield from chunk


def unbiased_sequences(num_sequences: int, nbits: int, master_seed: int):
    """Yield noiseless power-up bit sequences of unbiased simulated
    devices (pure local mismatch), one device per sequence.

    Sequence d is row d of the local stream of `master_seed` with nbits
    words per row, bit i the top bit of word i: the sign of cell i's
    mismatch sigma * ndtri(u), u = ((word >> 12) + 1/2) * 2**-52, since
    ndtri(u) > 0 exactly when word >> 12 >= 2**51. So the sequences are
    `iter_device_mismatch(spec) > 0` of a pure-local spec of nbits cells.

    Each sequence is one draw of its whole row of words; the heap lift in
    pufsim.randomness keeps a 1e5-bit row's draw on pages already faulted
    in.
    """
    check_int(num_sequences, "num_sequences", 1, error=InvalidSpecError)
    check_int(nbits, "nbits", 1, error=InvalidSpecError)
    seed = check_int(master_seed, "master_seed", 0, _SEED_MAX, InvalidSpecError)
    for device in range(num_sequences):
        words = stream_rows(seed, _TAG_LOCAL, device, 1, nbits)[0]
        words >>= 63
        yield words[:nbits].astype(np.uint8)


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
