"""Occupancy-grid mapping and grid path planning.

The grid accumulates range-sensor evidence (hit counts, after Moravec and
Elfes): the cell containing a ray endpoint collects a hit, cells the ray
crosses on the way lose one (floor zero), and anything a ray ever touched
counts as observed. A whole survey is folded in one call: the events of
every ray are applied in scan and ray order to flat copies of the hit
counts and the observed mask, which are written back once, so the floor
binds exactly as if the scans came one at a time. A cell is occupied
once its hit count reaches the threshold, unknown if never observed, free
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
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Posture, RobotGeometry

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
        # Bounds first: a point far off a fine grid divides to infinity.
        u = (x - self.origin[0]) / self.resolution
        v = (y - self.origin[1]) / self.resolution
        if 0 <= u < self.width and 0 <= v < self.height:
            return math.floor(u), math.floor(v)
        return None

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


def traverse_ray(grid: OccupancyGrid, x0: float, y0: float,
                 x1: float, y1: float) -> list[tuple[int, int]]:
    """Cells crossed from (x0, y0) to (x1, y1) inclusive, in visit order.

    Steps cell to cell along the segment (Amanatides and Woo); when the
    segment leaves the grid the walk stops at the boundary. Exact boundary
    crossings step the x axis first, which keeps visit order deterministic.
    """
    start = grid.cell_of(x0, y0)
    if start is None:
        return []
    end = grid.cell_of(x1, y1)
    end_x, end_y = (-1, -1) if end is None else end
    ix, iy = start
    cells = [start]
    width, height = grid.width, grid.height
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    res, (ox, oy) = grid.resolution, grid.origin
    if dx != 0.0:
        nx = ox + (ix + (step_x > 0)) * res
        t_max_x, t_dx = (nx - x0) / dx, res / abs(dx)
    else:
        t_max_x, t_dx = math.inf, math.inf
    if dy != 0.0:
        ny = oy + (iy + (step_y > 0)) * res
        t_max_y, t_dy = (ny - y0) / dy, res / abs(dy)
    else:
        t_max_y, t_dy = math.inf, math.inf

    for _ in range(width + height + 4):
        if ix == end_x and iy == end_y:
            break
        if t_max_x > 1.0 and t_max_y > 1.0:
            break
        if t_max_x <= t_max_y:
            ix += step_x
            if not 0 <= ix < width:
                break
            t_max_x += t_dx
        else:
            iy += step_y
            if not 0 <= iy < height:
                break
            t_max_y += t_dy
        cells.append((ix, iy))
    return cells


def ingest_ir_scan(grid: OccupancyGrid, poses: Sequence[Posture],
                   readings: Sequence[Sequence[float | None]],
                   geometry: RobotGeometry) -> int:
    """Fold a survey of 5-ray range scans into the grid; returns readings skipped.

    ``readings[i]`` is the scan taken at ``poses[i]``. An in-range reading
    frees every crossed cell (hit count minus one, floor zero) and adds a
    hit to the endpoint cell. A None reading frees along the ray out to the
    sensor's maximum range. Readings whose endpoint lies outside the grid
    are skipped entirely and counted. The result equals ingesting the
    scans one at a time.
    """
    if len(poses) != len(readings):
        raise ValueError("one scan per pose expected")
    angles = geometry.ir_ray_angles
    if any(len(scan) != len(angles) for scan in readings):
        raise ValueError("one reading per sensor ray expected")
    width = grid.width
    # Flat row-major copies of hits and observed: the events fold into them
    # in scan and ray order, and the grid's arrays are written once.
    counts = grid.hits.ravel().tolist()
    seen = bytearray(len(counts))
    skipped = 0
    for pose, scan in zip(poses, readings):
        for reading, ray_angle in zip(scan, angles):
            angle = pose.theta + ray_angle
            reach = geometry.ir_range_max if reading is None else float(reading)
            ex = pose.x + reach * math.cos(angle)
            ey = pose.y + reach * math.sin(angle)
            end_cell = grid.cell_of(ex, ey)
            if reading is not None and end_cell is None:
                skipped += 1
                continue
            ray = traverse_ray(grid, pose.x, pose.y, ex, ey)
            if not ray:
                skipped += 1
                continue
            if reading is not None and ray[-1] == end_cell:
                ray.pop()    # the endpoint takes a hit, not a free
            for ix, iy in ray:
                cell = iy * width + ix
                count = counts[cell]
                counts[cell] = count - 1 if count > 0 else 0
                seen[cell] = 1
            if reading is not None:
                cell = end_cell[1] * width + end_cell[0]
                counts[cell] += 1
                seen[cell] = 1
    grid.hits[...] = np.reshape(counts, grid.hits.shape)
    grid.observed |= np.frombuffer(seen, dtype=bool).reshape(grid.observed.shape)
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
    inflated = occ.copy()
    for di in range(-reach_r, reach_r + 1):
        for dj in range(-reach_c, reach_c + 1):
            if di == 0 and dj == 0:
                continue
            if math.hypot(di, dj) * grid.resolution > margin + 1e-9:
                continue
            dst, src = _shift(di, dj, h, w)
            inflated[dst] |= occ[src]
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

