"""Occupancy-grid mapping and grid path planning.

The grid accumulates range-sensor evidence (hit counts, after Moravec and
Elfes): the cell containing a ray endpoint collects a hit, cells the ray
crosses on the way lose one (floor zero), and anything a ray ever touched
counts as observed. A whole survey is folded in one call, from the
arrays the range sensor returns (each ray's origin, direction, reading
and in-range flag): its rays walk the grid in lockstep, as numpy lanes
that are dropped once their walk is over, and each cell's events fold in
scan and ray order where that order matters, so the floor binds exactly
as if the scans came one at a time. A cell is occupied once its hit
count reaches the threshold, unknown if never observed, free
otherwise. Downstream stages consume binary occupancy: a majority median
filter knocks out isolated noise cells (ties resolve to occupied and
windows truncate at the border, so border walls survive), inflation grows
obstacles by a euclidean disc so a point planner respects the robot's
body, and an A-star search with a euclidean heuristic plans over the
result.

Cells are addressed as (ix, iy) with ix along +x; arrays index [iy, ix].
Path costs are in cell units: 1 per axis step, sqrt(2) per diagonal.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import RobotGeometry
from .sim import IrReadings

__all__ = [
    "FREE",
    "GridPath",
    "InvalidEndpoint",
    "NoPath",
    "OCCUPIED",
    "OccupancyGrid",
    "PlanningError",
    "UNKNOWN",
    "astar",
    "grid_header_text",
    "grid_to_pgm",
    "inflate",
    "ingest_ir_scan",
    "median_filter",
    "save_grid",
    "traverse_ray",
]

FREE = 0
UNKNOWN = 127
OCCUPIED = 255

_SQRT2 = math.sqrt(2.0)


class PlanningError(Exception):
    """Base class for planning failures."""


class NoPath(PlanningError):
    """The frontier was exhausted without reaching the goal."""


class InvalidEndpoint(PlanningError):
    """Start or goal is out of bounds, occupied, or unknown."""


class OccupancyGrid:
    """Hit-count occupancy grid over a rectangle of the world plane."""

    def __init__(self, resolution: float, origin: tuple[float, float],
                 width: int, height: int, occupied_threshold: int = 2):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if width < 1 or height < 1:
            raise ValueError("grid must be at least 1x1 cells")
        if occupied_threshold < 1:
            raise ValueError("occupied_threshold must be at least 1")
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))
        self.width = int(width)
        self.height = int(height)
        self.occupied_threshold = int(occupied_threshold)
        self.hits = np.zeros((height, width), dtype=np.int32)
        self.observed = np.zeros((height, width), dtype=bool)
        self.skipped_readings = 0

    def clone_empty(self) -> "OccupancyGrid":
        return OccupancyGrid(self.resolution, self.origin, self.width,
                             self.height, self.occupied_threshold)

    def cell_of(self, x: float, y: float) -> tuple[int, int] | None:
        """Cell containing the world point, or None when outside."""
        (cell,) = _cell_ids(self, np.array([x], dtype=float), np.array([y], dtype=float))
        return None if cell < 0 else (int(cell) % self.width, int(cell) // self.width)

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        return (self.origin[0] + (cell[0] + 0.5) * self.resolution,
                self.origin[1] + (cell[1] + 0.5) * self.resolution)

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def occupancy(self) -> np.ndarray:
        """Binary occupancy: hit count at or beyond the threshold."""
        return self.hits >= self.occupied_threshold

    def states(self) -> np.ndarray:
        """Per-cell state byte: FREE, UNKNOWN, or OCCUPIED."""
        out = np.full((self.height, self.width), FREE, dtype=np.uint8)
        out[~self.observed] = UNKNOWN
        out[self.occupancy()] = OCCUPIED
        return out


def _cell_ids(grid: OccupancyGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat row-major id of the cell containing each world point, -1 outside;
    int32 unless the grid has too many cells for it."""
    dtype = np.int32 if grid.width * grid.height < 2**31 else np.int64
    # A point far off a fine grid divides to infinity; where() leaves it out.
    with np.errstate(all="ignore"):
        u = (x - grid.origin[0]) / grid.resolution
        v = (y - grid.origin[1]) / grid.resolution
        inside = (0 <= u) & (u < grid.width) & (0 <= v) & (v < grid.height)
        return np.where(inside, np.floor(v) * grid.width + np.floor(u), -1).astype(dtype)


def _walk(grid: OccupancyGrid, x0: np.ndarray, y0: np.ndarray,
          x1: np.ndarray, y1: np.ndarray):
    """Walk the segments (x0[i], y0[i]) -> (x1[i], y1[i]) cell by cell, in lockstep.

    Every start must lie in the grid. Yields ``(lanes, cells)`` once per
    step while any ray walks, the start cells first: ``cells[j]`` is the
    flat id of the cell that ray ``lanes[j]`` entered, or the grid's cell
    count where that ray's walk is over. A ray steps along the axis whose
    next cell edge is nearer, x on exact ties (Amanatides and Woo), and
    stops in its end cell, once both next edges lie past the segment's
    end, on leaving the grid, or after width + height + 4 steps.
    """
    width, height = grid.width, grid.height
    res, (ox, oy) = grid.resolution, grid.origin
    cell, end = _cell_ids(grid, x0, y0), _cell_ids(grid, x1, y1)
    ix, iy = cell % width, cell // width
    dx, dy = x1 - x0, y1 - y0
    ahead_x, ahead_y = dx > 0, dy > 0
    step_x = np.where(ahead_x, 1, -1).astype(cell.dtype)
    step_y = np.where(ahead_y, width, -width).astype(cell.dtype)
    # Steps along each axis that stay in the grid; one more leaves it.
    left_x = np.where(ahead_x, width - 1 - ix, ix)
    left_y = np.where(ahead_y, height - 1 - iy, iy)
    with np.errstate(all="ignore"):
        t_max_x = np.where(dx != 0.0, (ox + (ix + ahead_x) * res - x0) / dx, np.inf)
        t_max_y = np.where(dy != 0.0, (oy + (iy + ahead_y) * res - y0) / dy, np.inf)
        t_dx = np.where(dx != 0.0, res / np.abs(dx), np.inf)
        t_dy = np.where(dy != 0.0, res / np.abs(dy), np.inf)
    lanes = np.arange(len(cell))
    walking = np.ones(len(cell), dtype=bool)
    yield lanes, cell.copy()   # the steps below change cell in place
    for _ in range(width + height + 4):
        walking &= cell != end
        walking &= ~((t_max_x > 1.0) & (t_max_y > 1.0))
        on_x = walking & (t_max_x <= t_max_y)
        on_y = walking ^ on_x
        cell += step_x * on_x
        cell += step_y * on_y
        left_x -= on_x
        left_y -= on_y
        with np.errstate(all="ignore"):
            t_max_x = np.where(on_x, t_max_x + t_dx, t_max_x)
            t_max_y = np.where(on_y, t_max_y + t_dy, t_max_y)
        walking &= (left_x >= 0) & (left_y >= 0)
        live = int(np.count_nonzero(walking))
        if not live:
            return
        # Drop the finished lanes once a quarter of the lanes have finished,
        # keeping a few as padding: the lane count is 2**k or 3 * 2**k, so
        # few sizes ever occur. Numpy caches freed buffers under 1 KB by
        # size, and arbitrary sizes would fill that cache, a few MB over a
        # few hundred surveys.
        size = 1 << (live - 1).bit_length()
        size = 3 * size // 4 if 3 * size >= 4 * live else size
        if 4 * size <= 3 * len(walking):
            keep = np.argsort(~walking, kind="stable")[:size]
            lanes, cell, end, walking = lanes[keep], cell[keep], end[keep], walking[keep]
            step_x, step_y, left_x, left_y = step_x[keep], step_y[keep], left_x[keep], left_y[keep]
            t_max_x, t_max_y, t_dx, t_dy = t_max_x[keep], t_max_y[keep], t_dx[keep], t_dy[keep]
        yield lanes, np.where(walking, cell, width * height)


def traverse_ray(grid: OccupancyGrid, x0: float, y0: float,
                 x1: float, y1: float) -> list[tuple[int, int]]:
    """Cells crossed from (x0, y0) to (x1, y1) inclusive, in visit order:
    the one-ray call of the walk that ingests a survey."""
    if grid.cell_of(x0, y0) is None:
        return []
    ends = [np.array([v], dtype=float) for v in (x0, y0, x1, y1)]
    return [(int(c) % grid.width, int(c) // grid.width)
            for _, (c,) in _walk(grid, *ends)]


def ingest_ir_scan(grid: OccupancyGrid, readings: IrReadings,
                   geometry: RobotGeometry) -> int:
    """Fold a survey of range scans into the grid; returns readings skipped.

    ``readings`` holds one scan per row, one reading per sensor ray of
    ``geometry``. An in-range reading frees every crossed cell (hit count
    minus one, floor zero) and adds a hit to the endpoint cell. An
    out-of-range reading frees along the ray out to the sensor's maximum
    range. Readings whose endpoint lies outside the grid are skipped
    entirely and counted. The result equals ingesting the scans one at a
    time.
    """
    if readings.value.shape[1:] != (len(geometry.ir_ray_angles),):
        raise ValueError("one reading per sensor ray expected")
    x0, y0, cos, sin, value, hit = (a.ravel() for a in readings)
    reach = np.where(hit, value, geometry.ir_range_max)
    x1, y1 = x0 + reach * cos, y0 + reach * sin
    end = _cell_ids(grid, x1, y1)
    walked = (_cell_ids(grid, x0, y0) >= 0) & ~(hit & (end < 0))
    skipped = len(hit) - int(np.count_nonzero(walked))
    x0, y0, x1, y1, hit, end = (a[walked] for a in (x0, y0, x1, y1, hit, end))

    # Frees commute, so a cell no ray ends on drops to max(0, c - frees).
    # One bin past the grid's cells collects the lanes whose walk is over.
    # The steps' cells are counted once a grid's worth has gathered, so a
    # fine grid costs no whole-grid count per step.
    counts = grid.hits.ravel()
    visits = np.zeros(counts.size + 1, dtype=np.int64)
    hit_cell = np.zeros(counts.size + 1, dtype=bool)
    hit_cell[end[hit]] = True
    rays_kept, cells_kept, pending, pending_size = [], [], [], 0
    for lanes, cells in _walk(grid, x0, y0, x1, y1):
        pending.append(cells)
        pending_size += len(cells)
        if pending_size >= counts.size:
            visits += np.bincount(np.concatenate(pending), minlength=visits.size)
            pending, pending_size = [], 0
        ids = np.flatnonzero(hit_cell.take(cells))
        rays_kept.append(lanes[ids])
        cells_kept.append(cells[ids])
    if pending:
        visits += np.bincount(np.concatenate(pending), minlength=visits.size)
    new = np.maximum(counts - visits[:-1], 0)
    seen = visits[:-1] > 0
    seen[end[hit]] = True

    # The cells that take hits fold in scan and ray order. Their walked
    # events are frees, but for a hit ray entering its own end cell: that is
    # its hit, which every hit ray adds. An event is c -> max(a, c + b), a
    # free (0, -1) and a hit (-inf, +1). A ray visits a cell once, so sorted
    # by cell and ray, a cell's maps compose to one: b sums the b's, and a
    # is the max over frees of the b's after them.
    rays, cells = np.concatenate(rays_kept), np.concatenate(cells_kept)
    free = ~(hit[rays] & (cells == end[rays]))
    hits = np.flatnonzero(hit)
    rays, cells = np.r_[rays[free], hits], np.r_[cells[free], end[hits]]
    b = np.where(np.arange(len(rays)) < len(rays) - len(hits), -1, 1)
    order = np.lexsort((rays, cells))
    cells, b = cells[order], b[order]
    starts = np.diff(cells, prepend=-1) != 0
    first = np.flatnonzero(starts)
    sums, total = np.cumsum(b), np.add.reduceat(b, first)
    after = (total + sums[first] - b[first])[np.cumsum(starts) - 1] - sums
    a = np.maximum.reduceat(np.where(b < 0, after, np.iinfo(np.int64).min), first)
    cells = cells[first]
    new[cells] = np.maximum(a, counts[cells] + total)
    grid.hits[...] = new.reshape(grid.hits.shape)
    grid.observed |= seen.reshape(grid.observed.shape)
    grid.skipped_readings += skipped
    return skipped


def _shift(di: int, dj: int, h: int,
           w: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """(destination, source) index pairs of an h x w array such that
    cell [i, j] of the source lands on cell [i + di, j + dj]."""
    return ((slice(max(0, di), min(h, h + di)), slice(max(0, dj), min(w, w + dj))),
            (slice(max(0, -di), min(h, h - di)), slice(max(0, -dj), min(w, w - dj))))


def _window_sums(mask: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (sum over window, cells present) with border truncation."""
    h, w = mask.shape
    # An offset of a whole grid side or more reaches no cell.
    half_r, half_c = min(window // 2, h - 1), min(window // 2, w - 1)
    total = np.zeros((h, w), dtype=np.int32)
    present = np.zeros((h, w), dtype=np.int32)
    values = mask.astype(np.int32)
    ones = np.ones((h, w), dtype=np.int32)
    for di in range(-half_r, half_r + 1):
        for dj in range(-half_c, half_c + 1):
            dst, src = _shift(di, dj, h, w)
            total[dst] += values[src]
            present[dst] += ones[src]
    return total, present


def median_filter(grid: OccupancyGrid, window: int = 3) -> OccupancyGrid:
    """Majority vote of binary occupancy over each window neighborhood.

    Windows truncate at the border and exact ties resolve to occupied,
    so a wall hugging the grid edge survives while an isolated hit in the
    open is removed. Unknown cells vote free but stay unknown in the
    output. The result is a fresh grid whose hit counts are normalized to
    the threshold (occupied) or zero.
    """
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be odd and at least 3")
    occ_sum, present = _window_sums(grid.occupancy(), window)
    occupied = 2 * occ_sum >= present
    out = grid.clone_empty()
    out.hits[occupied] = grid.occupied_threshold
    out.observed = grid.observed.copy()
    out.hits[~out.observed] = 0
    out.skipped_readings = grid.skipped_readings
    return out


def inflate(grid: OccupancyGrid, margin: float) -> OccupancyGrid:
    """Grow every occupied cell by a euclidean disc of the given radius.

    A cell becomes occupied when its center lies within ``margin`` of an
    occupied cell's center; inflated cells count as observed.
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    occ = grid.occupancy()
    h, w = occ.shape
    # An offset of a whole grid side or more reaches no cell.
    reach = margin / grid.resolution + 1e-9
    reach_r, reach_c = int(min(reach, h - 1)), int(min(reach, w - 1))
    # Row by row, the occupied cells left of column boundary c (0 to w),
    # stored at c + reach_c and edge-padded by reach_c on each side: a
    # row's dilation by a half-width compares two column windows of it.
    counts = np.zeros((h, w + 1 + 2 * reach_c), dtype=np.int32)
    np.cumsum(occ, axis=1, dtype=np.int32, out=counts[:, reach_c + 1:reach_c + 1 + w])
    counts[:, reach_c + 1 + w:] = counts[:, reach_c + w:reach_c + w + 1]
    inflated = occ.copy()
    half = reach_c
    for d in range(reach_r + 1):
        # The disc's half-width at row offset d, which shrinks as d grows.
        while half >= 0 and math.hypot(d, half) * grid.resolution > margin + 1e-9:
            half -= 1
        if half < 0:
            break
        dilated = (counts[:, reach_c + half + 1:reach_c + half + 1 + w]
                   > counts[:, reach_c - half:reach_c - half + w])
        for di in {d, -d}:
            dst, src = _shift(di, 0, h, w)
            inflated[dst] |= dilated[src]
    out = grid.clone_empty()
    out.hits = grid.hits.copy()
    out.hits[inflated] = np.maximum(out.hits[inflated], grid.occupied_threshold)
    out.observed = grid.observed | inflated
    out.skipped_readings = grid.skipped_readings
    return out


@dataclass(frozen=True)
class GridPath:
    """Planned cell sequence with its cost in cell units."""

    cells: tuple[tuple[int, int], ...]
    cost: float
    expanded: tuple[tuple[int, int], ...] = field(default=(), repr=False)


def astar(grid: OccupancyGrid, start: tuple[int, int],
          goal: tuple[int, int]) -> GridPath:
    """Minimum-cost 8-connected path from start to goal.

    Axis steps cost 1, diagonals sqrt(2); a diagonal is forbidden when
    both cells it squeezes between are occupied. Unknown cells are
    untraversable. The euclidean heuristic is admissible and consistent
    for these costs; ties break on smaller heuristic, then lexicographic
    cell index, so results are deterministic.
    """
    states = grid.states()

    def free(cell):
        return grid.in_bounds(cell) and states[cell[1], cell[0]] == FREE

    def occupied(cell):
        return grid.in_bounds(cell) and states[cell[1], cell[0]] == OCCUPIED

    for name, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise InvalidEndpoint(f"{name} {cell} is outside the grid")
        if not free(cell):
            raise InvalidEndpoint(f"{name} {cell} is not a free cell")

    def heuristic(cell):
        return math.hypot(cell[0] - goal[0], cell[1] - goal[1])

    g_cost = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    frontier = [(heuristic(start), heuristic(start), start)]
    closed: set[tuple[int, int]] = set()
    expanded: list[tuple[int, int]] = []

    while frontier:
        _, _, cell = heapq.heappop(frontier)
        if cell in closed:
            continue
        closed.add(cell)
        expanded.append(cell)
        if cell == goal:
            path = [cell]
            while path[-1] != start:
                path.append(parent[path[-1]])
            path.reverse()
            return GridPath(tuple(path), g_cost[goal], tuple(expanded))
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nxt = (cx + dx, cy + dy)
                if not free(nxt) or nxt in closed:
                    continue
                if dx != 0 and dy != 0:
                    if occupied((cx + dx, cy)) and occupied((cx, cy + dy)):
                        continue
                    step = _SQRT2
                else:
                    step = 1.0
                tentative = g_cost[cell] + step
                if tentative < g_cost.get(nxt, math.inf):
                    g_cost[nxt] = tentative
                    parent[nxt] = cell
                    h = heuristic(nxt)
                    heapq.heappush(frontier, (tentative + h, h, nxt))
    raise NoPath(f"no route from {start} to {goal}")


def grid_to_pgm(grid: OccupancyGrid) -> bytes:
    """Binary PGM image of the cell states, row 0 (smallest y) first."""
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + grid.states().tobytes()


def grid_header_text(grid: OccupancyGrid) -> str:
    """Sidecar header describing geometry the image cannot carry."""
    return (
        f"resolution_mm {grid.resolution:g}\n"
        f"origin_mm {grid.origin[0]:g} {grid.origin[1]:g}\n"
        f"width_cells {grid.width}\n"
        f"height_cells {grid.height}\n"
        f"occupied_threshold {grid.occupied_threshold}\n"
    )


def save_grid(grid: OccupancyGrid, stem: str | Path) -> tuple[Path, Path]:
    """Write <stem>.pgm and <stem>.txt; returns both paths."""
    stem = Path(stem)
    pgm = stem.with_suffix(".pgm")
    txt = stem.with_suffix(".txt")
    pgm.write_bytes(grid_to_pgm(grid))
    txt.write_text(grid_header_text(grid), encoding="ascii")
    return pgm, txt

