from __future__ import annotations

import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim.core import Posture, RobotGeometry
from swarmsim.planning import (
    FREE,
    OCCUPIED,
    UNKNOWN,
    GridPath,
    InvalidEndpoint,
    NoPath,
    OccupancyGrid,
    _shift,
    astar,
    grid_header_text,
    grid_to_pgm,
    inflate,
    ingest_ir_scan,
    median_filter,
    traverse_ray,
)
from swarmsim import sim
from swarmsim.sim import IrReadings, Rect, Segment, SensorNoise, World, sample_ir

GEOM = RobotGeometry()
SQRT2 = math.sqrt(2.0)


def open_grid(width=20, height=20, res=50.0):
    g = OccupancyGrid(res, (0.0, 0.0), width, height)
    g.observed[:] = True
    return g


def xyt(poses):
    """The x, y and theta lists of the poses, as sample_ir takes them."""
    return [p.x for p in poses], [p.y for p in poses], [p.theta for p in poses]


def recorded(poses, scans, geometry=GEOM):
    """IrReadings of given scans, one per pose, None out of range; each ray
    points along pose.theta + bearing, as sample_ir casts it."""
    rows = [[(p.x, p.y, math.cos(p.theta + b), math.sin(p.theta + b),
              math.nan if r is None else r, r is not None)
             for r, b in zip(scan, geometry.ir_ray_angles)]
            for p, scan in zip(poses, scans)]
    *fields, in_range = np.array(rows, dtype=float).transpose(2, 0, 1)
    return IrReadings(*fields, in_range.astype(bool))


def occupy(grid, *cells):
    for ix, iy in cells:
        grid.hits[iy, ix] = grid.occupied_threshold
        grid.observed[iy, ix] = True


# --- Dijkstra oracle (no heuristic, same movement rules) -------------------------


def dijkstra_field(grid, source):
    """Cost-to-source for every reachable free cell."""
    states = grid.states()

    def free(c):
        return (0 <= c[0] < grid.width and 0 <= c[1] < grid.height
                and states[c[1], c[0]] == FREE)

    def occupied(c):
        return (0 <= c[0] < grid.width and 0 <= c[1] < grid.height
                and states[c[1], c[0]] == OCCUPIED)

    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, math.inf):
            continue
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nxt = (cx + dx, cy + dy)
                if not free(nxt):
                    continue
                if dx != 0 and dy != 0:
                    if occupied((cx + dx, cy)) and occupied((cx, cy + dy)):
                        continue
                    step = SQRT2
                else:
                    step = 1.0
                nd = d + step
                if nd < dist.get(nxt, math.inf) - 1e-12:
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    return dist


def assert_valid_path(grid, path: GridPath, start, goal):
    states = grid.states()
    assert path.cells[0] == start and path.cells[-1] == goal
    assert len(set(path.cells)) == len(path.cells)
    cost = 0.0
    for a, b in zip(path.cells, path.cells[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        assert max(abs(dx), abs(dy)) == 1
        assert states[b[1], b[0]] == FREE
        if dx != 0 and dy != 0:
            both = (states[a[1], a[0] + dx] == OCCUPIED
                    and states[a[1] + dy, a[0]] == OCCUPIED)
            assert not both
            cost += SQRT2
        else:
            cost += 1.0
    assert path.cost == pytest.approx(cost, abs=1e-9)


def random_grid(rng, density=0.2, size=20):
    g = open_grid(size, size)
    block = rng.random((size, size)) < density
    g.hits[block] = g.occupied_threshold
    return g


# --- ray traversal and scan ingestion ----------------------------------------------


def test_traverse_straight_ray():
    g = open_grid()
    cells = traverse_ray(g, 25.0, 25.0, 275.0, 25.0)
    assert cells == [(i, 0) for i in range(6)]


def test_traverse_respects_grid_boundary():
    g = open_grid(4, 4)
    cells = traverse_ray(g, 25.0, 25.0, 1000.0, 25.0)
    assert cells == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_traverse_steps_x_first_on_exact_ties():
    # A diagonal through cell corners ties at every corner.
    cells = traverse_ray(open_grid(), 0.0, 0.0, 100.0, 100.0)
    assert cells == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]


def test_cell_of_a_grid_of_more_cells_than_int32_counts():
    # Built without its arrays, which would take 16 GB.
    g = object.__new__(OccupancyGrid)
    g.resolution, g.origin, g.width, g.height = 1.0, (0.0, 0.0), 70_000, 70_000
    assert g.cell_of(69_999.5, 69_999.5) == (69_999, 69_999)
    assert g.cell_of(70_000.0, 0.0) is None


def test_traverse_outside_start_is_empty():
    assert traverse_ray(open_grid(), -10.0, 0.0, 100.0, 0.0) == []


def test_ingest_wall_ahead_single_hit():
    g = OccupancyGrid(50.0, (0.0, 0.0), 20, 20)
    pose = Posture(25.0, 25.0, 0.0)
    ingest_ir_scan(g, recorded([pose], [(500.0, None, None, None, None)]), GEOM)
    assert g.hits[0, 10] == 1              # endpoint cell, 500 mm ahead
    assert all(g.hits[0, i] == 0 for i in range(10))
    assert all(g.observed[0, i] for i in range(11))


def test_ingest_additivity_and_threshold():
    g = OccupancyGrid(50.0, (0.0, 0.0), 20, 20)
    pose = Posture(25.0, 25.0, 0.0)
    scan = (500.0, None, None, None, None)
    ingest_ir_scan(g, recorded([pose], [scan]), GEOM)
    assert not g.occupancy()[0, 10]
    ingest_ir_scan(g, recorded([pose], [scan]), GEOM)
    assert g.hits[0, 10] == 2
    assert g.occupancy()[0, 10]


def test_ingest_out_of_range_frees_without_hits():
    g = OccupancyGrid(50.0, (0.0, 0.0), 40, 40)
    pose = Posture(25.0, 25.0, 0.0)
    ingest_ir_scan(g, recorded([pose], [(None,) * 5]), GEOM)
    assert g.hits.sum() == 0
    # Forward ray observed out to the 1500 mm range limit.
    assert all(g.observed[0, i] for i in range(31))


def test_ingest_crossing_ray_erodes_hits():
    g = OccupancyGrid(50.0, (0.0, 0.0), 20, 20)
    g.hits[0, 5] = 2
    g.observed[0, 5] = True
    ingest_ir_scan(g, recorded([Posture(25.0, 25.0, 0.0)],
                               [(500.0, None, None, None, None)]), GEOM)
    assert g.hits[0, 5] == 1               # crossed once, one hit removed
    ingest_ir_scan(g, recorded([Posture(25.0, 25.0, 0.0)],
                               [(500.0, None, None, None, None)]), GEOM)
    assert g.hits[0, 5] == 0
    ingest_ir_scan(g, recorded([Posture(25.0, 25.0, 0.0)],
                               [(500.0, None, None, None, None)]), GEOM)
    assert g.hits[0, 5] == 0               # floor at zero


def test_ingest_endpoint_outside_grid_skipped():
    g = OccupancyGrid(50.0, (0.0, 0.0), 10, 10)
    pose = Posture(400.0, 25.0, 0.0)
    skipped = ingest_ir_scan(g, recorded([pose], [(500.0, None, None, None, None)]), GEOM)
    assert skipped == 1
    assert g.skipped_readings == 1
    assert g.hits.sum() == 0


def test_ingest_wrong_arity():
    with pytest.raises(ValueError):
        ingest_ir_scan(open_grid(), recorded([Posture(25, 25, 0)], [(None,) * 4]), GEOM)


# --- the batched survey against a per-scan, per-cell reference -----------------------


def reference_cast(world, ox, oy, angle):
    """Nearest hit along a ray, one edge at a time."""
    dx, dy = math.cos(angle), math.sin(angle)
    best = math.inf
    for ax, ay, bx, by in world.obstacle_edges():
        ex, ey = bx - ax, by - ay
        denom = dx * ey - dy * ex
        if abs(denom) < 1e-12:
            continue
        t = ((ax - ox) * ey - (ay - oy) * ex) / denom
        s = ((ax - ox) * dy - (ay - oy) * dx) / denom
        if t >= 0.0 and 0.0 <= s <= 1.0 and t < best:
            best = t
    return best


def reference_sample_ir(world, pose, geometry, noise, rng):
    """One scan, one scalar noise draw per in-range ray."""
    readings = []
    for bearing in geometry.ir_ray_angles:
        d = reference_cast(world, pose.x, pose.y, pose.theta + bearing)
        if geometry.ir_range_min <= d <= geometry.ir_range_max:
            readings.append(max(0.0, d + noise.ir_sigma * rng.standard_normal()))
        else:
            readings.append(None)
    return readings


def reference_cell_of(grid, x, y):
    """The cell containing a point, or None; bounds first, so a point far
    off a fine grid never reaches floor()."""
    u = (x - grid.origin[0]) / grid.resolution
    v = (y - grid.origin[1]) / grid.resolution
    if 0 <= u < grid.width and 0 <= v < grid.height:
        return math.floor(u), math.floor(v)
    return None


def reference_traverse(grid, x0, y0, x1, y1):
    start = reference_cell_of(grid, x0, y0)
    if start is None:
        return []
    end = reference_cell_of(grid, x1, y1)
    ix, iy = start
    cells = [(ix, iy)]
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    res, (ox, oy) = grid.resolution, grid.origin
    if dx != 0.0:
        t_max_x = (ox + (ix + (step_x > 0)) * res - x0) / dx
        t_dx = res / abs(dx)
    else:
        t_max_x, t_dx = math.inf, math.inf
    if dy != 0.0:
        t_max_y = (oy + (iy + (step_y > 0)) * res - y0) / dy
        t_dy = res / abs(dy)
    else:
        t_max_y, t_dy = math.inf, math.inf
    for _ in range(grid.width + grid.height + 4):
        if (ix, iy) == end or min(t_max_x, t_max_y) > 1.0:
            break
        if t_max_x <= t_max_y:
            ix += step_x
            t_max_x += t_dx
        else:
            iy += step_y
            t_max_y += t_dy
        if not grid.in_bounds((ix, iy)):
            break
        cells.append((ix, iy))
    return cells


def reference_ingest(grid, pose, readings, geometry):
    """One scan, folded into the arrays one cell at a time."""
    for reading, bearing in zip(readings, geometry.ir_ray_angles):
        angle = pose.theta + bearing
        reach = geometry.ir_range_max if reading is None else float(reading)
        ex = pose.x + reach * math.cos(angle)
        ey = pose.y + reach * math.sin(angle)
        end_cell = reference_cell_of(grid, ex, ey)
        assert grid.cell_of(ex, ey) == end_cell
        if reading is not None and end_cell is None:
            grid.skipped_readings += 1
            continue
        cells = reference_traverse(grid, pose.x, pose.y, ex, ey)
        assert traverse_ray(grid, pose.x, pose.y, ex, ey) == cells
        if not cells:
            grid.skipped_readings += 1
            continue
        for ix, iy in cells:
            if reading is not None and (ix, iy) == end_cell:
                continue
            grid.hits[iy, ix] = max(0, grid.hits[iy, ix] - 1)
            grid.observed[iy, ix] = True
        if reading is not None:
            grid.hits[end_cell[1], end_cell[0]] += 1
            grid.observed[end_cell[1], end_cell[0]] = True


def _coord(lo, hi, origin, res):
    """A float in [lo, hi], often exactly on a cell edge."""
    edges = [origin + k * res for k in range(math.ceil((lo - origin) / res),
                                             math.floor((hi - origin) / res) + 1)]
    edges = [e for e in edges if lo <= e <= hi]
    values = st.floats(lo, hi)
    return st.one_of(st.sampled_from(edges), values) if edges else values


# Axis-aligned rays come from a heading plus a bearing that sum to a
# multiple of pi/2 (exactly axis-aligned at 0 and pi).
ANGLES = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2,
                                    math.pi / 4, 2 * math.pi / 5]),
                   st.floats(-math.pi, math.pi))


@st.composite
def surveys(draw):
    res = draw(st.sampled_from([10.0, 25.0, 37.0, 50.0]))
    width, height = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    gx, gy = (draw(st.integers(-8, 8)) * res + draw(st.sampled_from([0.0, 0.5, 13.0])),
              draw(st.integers(-8, 8)) * res)
    grid = OccupancyGrid(res, (gx, gy), width, height,
                         occupied_threshold=draw(st.integers(1, 3)))
    grid.hits[...] = np.reshape(draw(st.lists(st.integers(0, 3), min_size=width * height,
                                              max_size=width * height)),
                                (height, width))
    grid.observed[...] = grid.hits > 0
    # The world may reach past the grid, so rays and endpoints leave it.
    x0 = gx + draw(st.floats(-400.0, width * res / 2))
    y0 = gy + draw(st.floats(-400.0, height * res / 2))
    x1 = x0 + draw(st.floats(res, width * res + 800.0))
    y1 = y0 + draw(st.floats(res, height * res + 800.0))
    xs, ys = _coord(x0, x1, gx, res), _coord(y0, y1, gy, res)
    rects = []
    for _ in range(draw(st.integers(0, 3))):
        rx, ry = draw(xs), draw(ys)
        rects.append(Rect(rx, ry, rx + draw(st.floats(1.0, 300.0)),
                          ry + draw(st.floats(1.0, 300.0))))
    segments = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = (draw(xs), draw(ys)), (draw(xs), draw(ys))
        if a != b:
            segments.append(Segment(*a, *b))
    world = World(Rect(x0, y0, x1, y1), tuple(rects), tuple(segments))
    poses = draw(st.lists(st.builds(Posture, xs, ys, ANGLES), min_size=1, max_size=6))
    range_min = draw(st.sampled_from([0.0, 50.0, 200.0]))
    geometry = RobotGeometry(
        ir_range_min=range_min,
        ir_range_max=range_min + draw(st.floats(1.0, 2000.0)),
        ir_ray_angles=tuple(draw(st.lists(ANGLES, min_size=5, max_size=5))))
    noise = SensorNoise(ir_sigma=draw(st.sampled_from([0.0, 1.0, 60.0])))
    return grid, world, poses, geometry, noise, draw(st.integers(0, 2**32))


def striped_grid(res, threshold, width=16, height=16):
    """A grid, 16 x 16 by default, with hits on every third column of
    alternate rows."""
    grid = OccupancyGrid(res, (0.0, 0.0), width, height, occupied_threshold=threshold)
    grid.hits[1::2, ::3] = threshold
    grid.observed[...] = grid.hits > 0
    return grid


@settings(max_examples=300, deadline=None)
@given(surveys(), st.integers(1, 8))
@example((open_grid(4, 4), World(Rect(0.0, 0.0, 1000.0, 200.0)),
          [Posture(50.0, 50.0, 0.0), Posture(100.0, 100.0, math.pi)],
          RobotGeometry(ir_range_min=0.0), SensorNoise(ir_sigma=1.0), 3), 256)
# Lanes that finish at many different steps, so the walk drops finished
# lanes several times. Along the bottom wall, each forward ray is out of
# range; the first crosses the whole grid, while the rays down and down-left
# end on the wall in their first cell and the rays back end at the left wall.
@example((striped_grid(10.0, 1), World(Rect(0.0, 0.0, 1000.0, 1000.0)),
          [Posture(5.0 + 20.0 * k, 5.0, 0.0) for k in range(8)],
          RobotGeometry(ir_range_min=0.0, ir_range_max=300.0,
                        ir_ray_angles=(0.0, math.pi, -math.pi / 2, -math.pi / 2,
                                       -3 * math.pi / 4)),
          SensorNoise(ir_sigma=0.0), 5), 3)
# Forward rays from a column of poses end on a diagonal wall, each a few
# cells further than the last; the rays back end in their first cell.
@example((striped_grid(25.0, 2),
          World(Rect(0.0, 0.0, 400.0, 400.0), segments=(Segment(50.0, 0.0, 400.0, 350.0),)),
          [Posture(12.5, 12.5 + 50.0 * k, 0.0) for k in range(8)],
          RobotGeometry(ir_range_min=0.0), SensorNoise(ir_sigma=1.0), 7), 256)
# A fine grid with few rays: the walk's cells are counted once, after
# well over a hundred steps.
@example((striped_grid(10.0, 2, 200, 150),
          World(Rect(0.0, 0.0, 2000.0, 1500.0), (Rect(1400.0, 600.0, 1500.0, 900.0),)),
          [Posture(1000.0, 750.0, 0.0), Posture(300.0, 400.0, math.pi / 4)],
          GEOM, SensorNoise(ir_sigma=1.0), 11), 256)
def test_batched_survey_matches_per_scan_reference(case, cast_chunk):
    grid, world, poses, geometry, noise, seed = case
    expected = OccupancyGrid(grid.resolution, grid.origin, grid.width, grid.height,
                             grid.occupied_threshold)
    expected.hits, expected.observed = grid.hits.copy(), grid.observed.copy()
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    # Small chunks put the cast's chunk boundaries inside the drawn survey.
    with mock.patch.object(sim, "_CAST_CHUNK", cast_chunk):
        readings = sample_ir(world, *xyt(poses), geometry, noise, rng)
    skipped = ingest_ir_scan(grid, readings, geometry)
    for pose, scan in zip(poses, readings.scans()):
        assert scan == reference_sample_ir(world, pose, geometry, noise, reference_rng)
        reference_ingest(expected, pose, scan, geometry)

    assert np.array_equal(grid.hits, expected.hits)
    assert np.array_equal(grid.observed, expected.observed)
    assert skipped == grid.skipped_readings == expected.skipped_readings
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("x, y, theta, reach", [
    (126.07324423855148, 708.8727735262626, -0.20943951023931962, 740.0997101238701),
    (343.6021383024037, 74.06193499957914, 0.6850353838711707, 783.0584671572672),
])
def test_endpoint_the_walk_stops_short_of_still_gets_its_hit(x, y, theta, reach):
    # The endpoint lies on a cell edge, and rounding ends the walk one cell
    # before the cell that contains it; that last crossed cell is freed.
    grid = OccupancyGrid(50.0, (0.0, 0.0), 20, 20)
    grid.hits[...] = 1
    expected = OccupancyGrid(50.0, (0.0, 0.0), 20, 20)
    expected.hits[...] = 1
    pose = Posture(x, y, theta)
    ex, ey = x + reach * math.cos(theta), y + reach * math.sin(theta)
    end = grid.cell_of(ex, ey)
    assert traverse_ray(grid, x, y, ex, ey)[-1] != end
    ingest_ir_scan(grid, recorded([pose], [(reach, None, None, None, None)]), GEOM)
    reference_ingest(expected, pose, (reach, None, None, None, None), GEOM)
    assert grid.hits[end[1], end[0]] == 2
    assert np.array_equal(grid.hits, expected.hits)
    assert np.array_equal(grid.observed, expected.observed)


# The fold keeps the order of events only on cells that take a hit: from
# (25, 25) a 250 mm reading ends in cell (5, 0) and a 500 mm one crosses it.
HIT_5, CROSS_5 = (250.0, None, None, None, None), (500.0, None, None, None, None)


@pytest.mark.parametrize("scans, expected", [((HIT_5, CROSS_5), 0), ((CROSS_5, HIT_5), 1)])
def test_a_hit_cell_folds_its_events_in_scan_order(scans, expected):
    g = OccupancyGrid(50.0, (0.0, 0.0), 20, 20)
    skipped = ingest_ir_scan(g, recorded([Posture(25.0, 25.0, 0.0)] * 2, scans), GEOM)
    assert g.hits[0, 5] == expected        # 0 -> 1 -> 0, or 0 -> 0 -> 1
    assert g.hits[0, 10] == 1 and g.observed[0, :11].all()
    assert skipped == 0 and type(skipped) is int


@pytest.mark.parametrize("crossings", [1, 2, 3, 5])
def test_a_cell_with_no_hits_drains_by_its_frees(crossings):
    g = OccupancyGrid(50.0, (0.0, 0.0), 20, 20)
    g.hits[0, 5] = 3
    ingest_ir_scan(g, recorded([Posture(25.0, 25.0, 0.0)] * crossings, [CROSS_5] * crossings),
                   GEOM)
    assert g.hits[0, 5] == max(0, 3 - crossings)
    assert g.hits[0, 10] == crossings


# --- median filter ------------------------------------------------------------------


def test_median_removes_isolated_cell():
    g = open_grid(11, 11)
    occupy(g, (5, 5))
    out = median_filter(g, 3)
    assert not out.occupancy().any()


def test_median_keeps_solid_block_center():
    g = open_grid(11, 11)
    occupy(g, *[(x, y) for x in (4, 5, 6) for y in (4, 5, 6)])
    out = median_filter(g, 3)
    assert out.occupancy()[5, 5]


def test_median_removes_interior_thin_wall():
    # A 1-cell wall in the open carries only 3 occupied cells per full
    # window, below the 5-of-9 majority, so a true median erases it.
    g = open_grid(12, 12)
    occupy(g, *[(x, 6) for x in range(1, 11)])
    out = median_filter(g, 3)
    assert not out.occupancy().any()


def test_median_keeps_border_wall():
    # On the grid edge the window truncates to 6 cells; 3 occupied is a
    # tie and ties resolve occupied, so border walls survive.
    g = open_grid(12, 12)
    occupy(g, *[(x, 0) for x in range(1, 11)])
    out = median_filter(g, 3)
    assert all(out.occupancy()[0, x] for x in range(2, 10))
    assert not out.occupancy()[0, 0]
    assert not out.occupancy()[0, 11]


def test_median_fills_single_gap_in_thick_wall():
    g = open_grid(12, 12)
    occupy(g, *[(x, y) for x in range(1, 11) for y in (5, 6)])
    g.hits[5, 4] = 0                       # knock a hole in the lower row
    out = median_filter(g, 3)
    assert out.occupancy()[5, 4]


def test_median_unknown_cells_stay_unknown():
    g = open_grid(9, 9)
    occupy(g, *[(x, y) for x in (3, 4, 5) for y in (3, 4, 5)])
    g.observed[4, 4] = False
    out = median_filter(g, 3)
    assert out.states()[4, 4] == UNKNOWN
    assert out.states()[3, 4] == OCCUPIED


def test_median_window_validation():
    g = open_grid(5, 5)
    for bad in (2, 4, 1, 0):
        with pytest.raises(ValueError):
            median_filter(g, bad)


def test_median_iteration_settles_into_short_cycle():
    # Synchronous majority voting over symmetric neighborhoods always ends
    # in a fixed point or a two-cycle; plain idempotence does not hold, so
    # that is the strongest convergence claim worth freezing.
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = random_grid(rng, density=0.3, size=20)
        g.observed &= rng.random((20, 20)) < 0.9
        prev2, prev1 = None, g.states()
        cur = g
        for _ in range(40):
            cur = median_filter(cur, 3)
            s = cur.states()
            if np.array_equal(s, prev1):
                break
            if prev2 is not None and np.array_equal(s, prev2):
                break
            prev2, prev1 = prev1, s
        else:
            raise AssertionError("median iteration failed to settle")


def test_median_never_occupies_against_majority():
    rng = np.random.default_rng(9)
    g = random_grid(rng, density=0.4, size=15)
    out = median_filter(g, 3)
    occ = g.occupancy()
    for iy in range(15):
        for ix in range(15):
            if out.occupancy()[iy, ix] and not occ[iy, ix]:
                window = occ[max(0, iy - 1): iy + 2, max(0, ix - 1): ix + 2]
                assert 2 * window.sum() >= window.size


# --- inflation ----------------------------------------------------------------------


def test_inflate_zero_margin_is_identity():
    rng = np.random.default_rng(10)
    g = random_grid(rng)
    out = inflate(g, 0.0)
    assert np.array_equal(out.states(), g.states())


def test_inflate_one_cell_disc_is_four_neighbors():
    g = open_grid(9, 9)
    occupy(g, (4, 4))
    out = inflate(g, 50.0)
    want = {(4, 4), (3, 4), (5, 4), (4, 3), (4, 5)}
    got = {(ix, iy) for iy, ix in zip(*np.nonzero(out.occupancy()))}
    assert got == want


def test_inflate_diagonal_reach():
    g = open_grid(9, 9)
    occupy(g, (4, 4))
    out = inflate(g, 50.0 * SQRT2 + 1e-6)
    assert out.occupancy()[3, 3] and out.occupancy()[5, 5]
    assert not out.occupancy()[4, 6]       # two cells straight is 100 mm


def test_inflate_claims_unknown_cells():
    g = OccupancyGrid(50.0, (0.0, 0.0), 5, 5)
    occupy(g, (2, 2))
    g.hits[2, 2] = 2
    out = inflate(g, 50.0)
    assert out.states()[2, 1] == OCCUPIED
    assert out.states()[0, 0] == UNKNOWN


def test_inflate_monotone_in_margin():
    rng = np.random.default_rng(11)
    g = random_grid(rng, density=0.15)
    previous = g.occupancy()
    for margin in (50.0, 100.0, 200.0):
        nxt = inflate(g, margin).occupancy()
        assert (nxt | previous == nxt).all()
        previous = nxt


def reference_inflated_mask(grid, margin):
    """The occupancy inflate marks: one OR of the whole grid per offset of
    the disc."""
    occ = grid.occupancy()
    h, w = occ.shape
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
    return inflated


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 40), height=st.integers(1, 40),
       density=st.sampled_from((0.0, 0.01, 0.1, 0.5, 1.0)),
       res=st.sampled_from((0.5, 1.0, 3.0, 25.0, 50.0)),
       cells=st.floats(0.0, 45.0),
       nudge=st.sampled_from((0.0, 1e-9, -1e-9, 2e-9, -2e-9, -7.5e-10)),
       seed=st.integers(0, 2**32))
@example(width=9, height=9, density=0.1, res=0.5, cells=3.0, nudge=-7.5e-10, seed=1)
@example(width=9, height=9, density=0.1, res=3.0, cells=2.0, nudge=-2e-9, seed=2)
def test_inflate_matches_the_per_offset_reference(width, height, density, res, cells,
                                                  nudge, seed):
    # Margins on and next to a disc's cell distances, where the 1e-9 slack
    # decides, on grids finer and coarser than 1 mm: at 0.5 mm a margin of
    # 1.5 - 7.5e-10 mm passes the distance test for three cells but not the
    # reach bound, and at 3 mm one of 6 - 2e-9 mm the other way round.
    grid = OccupancyGrid(res, (0.0, 0.0), width, height)
    grid.observed[:] = True
    block = np.random.default_rng(seed).random((height, width)) < density
    grid.hits[block] = grid.occupied_threshold
    margin = max(0.0, cells * res + nudge)
    out = inflate(grid, margin)
    expected = reference_inflated_mask(grid, margin)
    np.testing.assert_array_equal(out.occupancy(), expected)
    np.testing.assert_array_equal(out.observed, grid.observed | expected)


def test_offsets_past_the_grid_change_nothing():
    # A window or margin wider than the grid reaches no further cell.
    g = random_grid(np.random.default_rng(5), density=0.3, size=6)
    g.hits[0, 0] = g.occupied_threshold
    np.testing.assert_array_equal(median_filter(g, 99).hits,
                                  median_filter(g, 11).hits)
    assert inflate(g, 1e6 * g.resolution).occupancy().all()
    fine = OccupancyGrid(5e-324, (0.0, 0.0), 6, 6)
    assert fine.cell_of(1.0, 0.0) is None
    assert inflate(fine, 80.0).occupancy().sum() == 0


# --- A-star -------------------------------------------------------------------------


def test_astar_diagonal_line():
    g = open_grid(3, 3)
    path = astar(g, (0, 0), (2, 2))
    assert path.cells == ((0, 0), (1, 1), (2, 2))
    assert path.cost == pytest.approx(2 * SQRT2, abs=1e-12)


def test_astar_straight_line():
    g = open_grid(5, 5)
    path = astar(g, (0, 0), (0, 4))
    assert path.cost == pytest.approx(4.0, abs=1e-12)
    assert path.cells == ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4))


def test_astar_no_corner_cutting():
    g = open_grid(2, 2)
    occupy(g, (1, 0), (0, 1))
    with pytest.raises(NoPath):
        astar(g, (0, 0), (1, 1))
    # One blocker alone leaves the diagonal legal.
    g2 = open_grid(2, 2)
    occupy(g2, (1, 0))
    assert astar(g2, (0, 0), (1, 1)).cost == pytest.approx(SQRT2)


def test_astar_goes_around_walls():
    g = open_grid(7, 7)
    occupy(g, *[(3, y) for y in range(6)])
    path = astar(g, (0, 3), (6, 3))
    assert_valid_path(g, path, (0, 3), (6, 3))
    assert all(ix != 3 or iy == 6 for ix, iy in path.cells)


def test_astar_invalid_endpoints():
    g = open_grid(5, 5)
    occupy(g, (2, 2))
    g.observed[4, 4] = False
    with pytest.raises(InvalidEndpoint):
        astar(g, (2, 2), (0, 0))
    with pytest.raises(InvalidEndpoint):
        astar(g, (0, 0), (4, 4))
    with pytest.raises(InvalidEndpoint):
        astar(g, (0, 0), (9, 9))


def test_astar_deterministic():
    rng = np.random.default_rng(12)
    g = random_grid(rng)
    states = g.states()
    free_cells = [(ix, iy) for iy in range(20) for ix in range(20)
                  if states[iy, ix] == FREE]
    start, goal = free_cells[0], free_cells[-1]
    first = astar(g, start, goal)
    again = astar(g, start, goal)
    assert first.cells == again.cells
    assert first.expanded == again.expanded
    assert first.cost == again.cost


def test_astar_matches_dijkstra_on_100_random_grids():
    rng = np.random.default_rng(100)
    solved = 0
    attempts = 0
    while solved < 100:
        attempts += 1
        assert attempts < 600, "random instance generation is stuck"
        g = random_grid(rng, density=0.2, size=20)
        states = g.states()
        free_cells = [(ix, iy) for iy in range(20) for ix in range(20)
                      if states[iy, ix] == FREE]
        i, j = rng.choice(len(free_cells), size=2, replace=False)
        start, goal = free_cells[i], free_cells[j]
        field = dijkstra_field(g, start)
        if goal not in field:
            continue
        solved += 1
        path = astar(g, start, goal)
        assert_valid_path(g, path, start, goal)
        # Step costs mix integers with sqrt(2) multiples; distinct mixes on
        # a 20x20 grid differ by far more than this tolerance, so approx
        # equality here pins the exact same optimal cost.
        assert path.cost == pytest.approx(field[goal], abs=1e-9)
    assert solved == 100


def test_astar_heuristic_admissible_on_expanded_cells():
    rng = np.random.default_rng(200)
    checked = 0
    while checked < 10:
        g = random_grid(rng, density=0.2, size=20)
        states = g.states()
        free_cells = [(ix, iy) for iy in range(20) for ix in range(20)
                      if states[iy, ix] == FREE]
        i, j = rng.choice(len(free_cells), size=2, replace=False)
        start, goal = free_cells[i], free_cells[j]
        to_goal = dijkstra_field(g, goal)
        if start not in to_goal:
            continue
        checked += 1
        path = astar(g, start, goal)
        for cell in path.expanded:
            h = math.hypot(cell[0] - goal[0], cell[1] - goal[1])
            assert h <= to_goal[cell] + 1e-9


def test_path_cost_monotone_under_inflation():
    g = open_grid(20, 20)
    occupy(g, *[(10, y) for y in range(2, 18)])
    start, goal = (2, 10), (18, 10)
    last_cost = 0.0
    blocked = False
    for margin in (0.0, 50.0, 100.0, 150.0, 200.0, 450.0):
        inflated = inflate(g, margin)
        try:
            cost = astar(inflated, start, goal).cost
        except NoPath:
            blocked = True
            continue
        except InvalidEndpoint:
            blocked = True
            continue
        assert not blocked, "a path reappeared after a larger margin blocked it"
        assert cost >= last_cost - 1e-9
        last_cost = cost
    assert blocked


# --- pipeline soundness ---------------------------------------------------------------


def arena_world():
    # 2000 x 1500 arena split by a 60 mm thick wall with a 300 mm doorway.
    # The wall straddles the cell boundary at x = 750 so both faces map into
    # adjacent columns. The doorway edges cut through cell interiors; those
    # half-covered edge cells may erode under the median vote, which still
    # leaves solid wall within one cell of the true opening.
    bounds = Rect(0.0, 0.0, 2000.0, 1500.0)
    lower = Rect(720.0, 0.0, 780.0, 575.0)
    upper = Rect(720.0, 875.0, 780.0, 1500.0)
    return World(bounds, rects=(lower, upper))


def point_rect_distance(px, py, rect):
    dx = max(rect.x0 - px, 0.0, px - rect.x1)
    dy = max(rect.y0 - py, 0.0, py - rect.y1)
    return math.hypot(dx, dy)


def clearance(px, py, world):
    walls = min(px - world.bounds.x0, world.bounds.x1 - px,
                py - world.bounds.y0, world.bounds.y1 - py)
    return min([walls] + [point_rect_distance(px, py, r) for r in world.rects])


def build_arena_map():
    world = arena_world()
    grid = OccupancyGrid(50.0, (0.0, 0.0), 41, 31)
    noise = SensorNoise.noiseless()
    rng = np.random.default_rng(0)
    # Survey strips parallel to the dividing wall. Poses keep 250 mm of
    # clearance so no ray ever falls below the sensor's near limit, which
    # would report None and carve false free space through the obstacle.
    poses = []
    for x in (400.0, 1100.0, 1400.0, 1700.0):
        for gy in range(1, 7):
            y = 200.0 * gy + 50.0
            if clearance(x, y, world) < 250.0:
                continue
            for k in range(24):
                poses.append(Posture(x, y, k * math.pi / 12.0))
    ingest_ir_scan(grid, sample_ir(world, *xyt(poses), GEOM, noise, rng), GEOM)
    return world, grid


@pytest.fixture(scope="module")
def arena_map():
    return build_arena_map()


def test_pipeline_clearance_property(arena_map):
    world, grid = arena_map
    filtered = median_filter(grid, 3)
    planner_grid = inflate(filtered, GEOM.body_radius + 20.0)
    start = planner_grid.cell_of(250.0, 750.0)
    goal = planner_grid.cell_of(1750.0, 750.0)
    path = astar(planner_grid, start, goal)
    assert_valid_path(planner_grid, path, start, goal)
    min_clear = min(
        clearance(*planner_grid.cell_center(cell), world)
        for cell in path.cells
    )
    assert min_clear >= GEOM.body_radius - planner_grid.resolution


def test_pipeline_excessive_inflation_blocks(arena_map):
    world, grid = arena_map
    filtered = median_filter(grid, 3)
    closed = inflate(filtered, 220.0)
    start = closed.cell_of(250.0, 750.0)
    goal = closed.cell_of(1750.0, 750.0)
    with pytest.raises(NoPath):
        astar(closed, start, goal)


# --- serialization ---------------------------------------------------------------------


def test_grid_image_layout():
    g = OccupancyGrid(50.0, (0.0, 0.0), 3, 2)
    occupy(g, (1, 0))
    g.hits[0, 1] = 2
    g.observed[1, 2] = True
    data = grid_to_pgm(g)
    assert data.startswith(b"P5\n3 2\n255\n")
    raster = data[len(b"P5\n3 2\n255\n"):]
    assert list(raster) == [UNKNOWN, OCCUPIED, UNKNOWN, UNKNOWN, UNKNOWN, FREE]


def test_grid_header_contents():
    g = OccupancyGrid(50.0, (-100.0, 25.0), 4, 6)
    text = grid_header_text(g)
    assert "resolution_mm 50" in text
    assert "origin_mm -100 25" in text
    assert "width_cells 4" in text
    assert "height_cells 6" in text


def test_grid_validation():
    with pytest.raises(ValueError):
        OccupancyGrid(0.0, (0, 0), 5, 5)
    with pytest.raises(ValueError):
        OccupancyGrid(50.0, (0, 0), 0, 5)
    with pytest.raises(ValueError):
        OccupancyGrid(50.0, (0, 0), 5, 5, occupied_threshold=0)
