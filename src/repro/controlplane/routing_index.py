"""A uniform-grid spatial index over DT-participant positions.

``Controller.closest_switch`` is the control plane's hottest query: the
facade resolves every data identifier's destination through it, and the
brute-force scan is O(participants) per call.  This index buckets the
participant positions into a uniform grid and answers nearest-neighbor
queries by expanding-ring search, which is O(1) amortized for
positions spread over the unit square (CVT-regulated positions are by
construction).

Exactness contract: :meth:`closest` returns the same switch as the
brute-force rule — minimal ``(euclidean(pos, point), pos.x, pos.y)``
key — for every query point.  Candidate keys use the same
correctly-rounded ``math.hypot`` the brute force uses, and the ring
search only stops once the next ring's geometric lower bound (minus a
safety margin for float rounding in the bound itself) strictly exceeds
the best distance, so boundary ties are never cut off.

The grid geometry (origin, cell size, dimensions) is fixed at
construction, but membership is not: :meth:`insert` and :meth:`remove`
update the index in place so switch joins and leaves never force a
rebuild — only a full ``recompute`` (which moves every position) does.
Points inserted outside the original bounding box are clamped into a
border cell; the ring search stays exact because such a point is
geometrically even farther from the query than its cell's boundary, so
the ring lower bound still under-estimates its distance.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import TIE_BAND, Point, squared_distance_block

#: Bound on one ``closest_many`` distance-matrix chunk, in elements
#: (256 KB of float64 a temporary): larger chunks are no faster and
#: showed up in peak RSS.
_CHUNK_ELEMENTS = 32_768

#: Safety margin subtracted from the ring lower bound: the bound is
#: computed with a handful of float additions whose rounding error is
#: orders of magnitude below this, so shaving it can only make the
#: search examine one extra ring, never miss the true nearest.
_BOUND_MARGIN = 1e-9


class RoutingIndex:
    """Nearest-participant index with in-place membership updates.

    Parameters
    ----------
    participants:
        DT-participant switch ids, in ``dt_participants()`` order.
    positions:
        Virtual position of every participant (distinct points — the
        control plane deduplicates them).
    """

    def __init__(self, participants: Sequence[int],
                 positions: Dict[int, Point]) -> None:
        self._nodes: List[int] = list(participants)
        self._xs: List[float] = []
        self._ys: List[float] = []
        for node in self._nodes:
            x, y = positions[node]
            self._xs.append(float(x))
            self._ys.append(float(y))
        #: node id -> slot in the parallel arrays (live nodes only;
        #: removed slots become unreferenced tombstones).
        self._slot: Dict[int, int] = {
            node: i for i, node in enumerate(self._nodes)
        }
        #: Live ``(ids, (n, 2) positions)`` arrays for
        #: :meth:`closest_many`, built on first use and dropped by
        #: :meth:`insert` / :meth:`remove`.
        self._live: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: In-place update counters (observability + locality tests).
        self.inserts = 0
        self.removes = 0
        n = len(self._nodes)
        if n == 0:
            self._grid: Dict[Tuple[int, int], List[int]] = {}
            self._gx = self._gy = 1
            self._x0 = self._y0 = 0.0
            self._cell = 1.0
            return
        x0, x1 = min(self._xs), max(self._xs)
        y0, y1 = min(self._ys), max(self._ys)
        # ~1 point per cell on average: g ≈ sqrt(n) per axis.
        g = max(1, int(math.sqrt(n)))
        extent = max(x1 - x0, y1 - y0)
        cell = extent / g if extent > 0.0 else 1.0
        self._x0, self._y0 = x0, y0
        self._cell = cell
        self._gx = max(1, min(g, int((x1 - x0) / cell) + 1))
        self._gy = max(1, min(g, int((y1 - y0) / cell) + 1))
        self._grid = {}
        for i in range(n):
            key = self._cell_of(self._xs[i], self._ys[i])
            self._grid.setdefault(key, []).append(i)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, node: int) -> bool:
        return node in self._slot

    def nodes(self) -> List[int]:
        """Live participant ids (unordered membership view)."""
        return list(self._slot)

    def insert(self, node: int, position: Point) -> None:
        """Add one participant in place (O(1)).

        The grid geometry is kept; a position outside the original
        bounding box lands in the nearest border cell, which preserves
        the ring search's exactness (see module docstring).
        """
        if node in self._slot:
            raise ValueError(f"participant {node} already indexed")
        x, y = float(position[0]), float(position[1])
        slot = len(self._nodes)
        self._nodes.append(node)
        self._xs.append(x)
        self._ys.append(y)
        self._slot[node] = slot
        self._grid.setdefault(self._cell_of(x, y), []).append(slot)
        self._live = None
        self.inserts += 1

    def remove(self, node: int) -> None:
        """Drop one participant in place (O(cell occupancy))."""
        slot = self._slot.pop(node, None)
        if slot is None:
            raise ValueError(f"participant {node} not indexed")
        key = self._cell_of(self._xs[slot], self._ys[slot])
        cell = self._grid.get(key, [])
        cell.remove(slot)
        if not cell:
            self._grid.pop(key, None)
        self._live = None
        self.removes += 1

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        ix = int((x - self._x0) / self._cell)
        iy = int((y - self._y0) / self._cell)
        if ix < 0:
            ix = 0
        elif ix >= self._gx:
            ix = self._gx - 1
        if iy < 0:
            iy = 0
        elif iy >= self._gy:
            iy = self._gy - 1
        return ix, iy

    def closest(self, point: Point, drop: Optional[int] = None) -> int:
        """The participant nearest to ``point`` under the paper's
        ``(distance, x, y)`` tie-break rule (``drop``, when given, is
        passed over: the answer once it has left).

        Raises
        ------
        ValueError
            If the index is empty (no DT participants).
        """
        if not self._slot:
            raise ValueError("routing index has no participants")
        skip = self._slot.get(drop, -1)
        px = float(point[0])
        py = float(point[1])
        cx, cy = self._cell_of(px, py)
        grid = self._grid
        xs = self._xs
        ys = self._ys
        best_i = -1
        best_d = math.inf
        best_x = best_y = 0.0
        # Rings must reach every in-bounds cell even when the query's
        # clamped cell sits in a corner.
        max_ring = max(cx, self._gx - 1 - cx, cy, self._gy - 1 - cy)
        for ring in range(max_ring + 1):
            if ring > 0 and best_i >= 0:
                # Everything in this ring lies outside the box of cells
                # already examined; its boundary distance lower-bounds
                # every remaining candidate.  Ties (lb == best_d) must
                # keep searching: the (x, y) tie-break could still
                # prefer a boundary point.
                bx0 = self._x0 + (cx - ring + 1) * self._cell
                bx1 = self._x0 + (cx + ring) * self._cell
                by0 = self._y0 + (cy - ring + 1) * self._cell
                by1 = self._y0 + (cy + ring) * self._cell
                lb = min(px - bx0, bx1 - px, py - by0, by1 - py)
                if lb - _BOUND_MARGIN > best_d:
                    break
            for ix, iy in self._ring_cells(cx, cy, ring):
                for i in grid.get((ix, iy), ()):
                    if i == skip:
                        continue
                    x = xs[i]
                    y = ys[i]
                    d = math.hypot(x - px, y - py)
                    if d > best_d:
                        continue
                    if d < best_d or (x, y) < (best_x, best_y):
                        best_i = i
                        best_d = d
                        best_x = x
                        best_y = y
        return self._nodes[best_i]

    def closest_many(self, points: np.ndarray,
                     drop: Optional[int] = None) -> np.ndarray:
        """:meth:`closest` of every row of ``(n, 2)`` ``points``, as an
        int64 array: one squared-distance matrix against the live
        participants (``drop`` passed over), from the shared
        ``squared_distance_block`` kernel, and an ``argmin`` per row
        chunk.

        The matrix's ``dx² + dy²`` and :meth:`closest`'s ``math.hypot``
        round differently in the last bits, so only a clear winner is
        trusted: a row whose two best distances sit within ``TIE_BAND``
        goes to the exact :meth:`closest`, which keeps the
        ``(distance, x, y)`` tie-break bit-exact.
        """
        if not self._slot:
            raise ValueError("routing index has no participants")
        if self._live is None:
            slots = np.fromiter(self._slot.values(), dtype=np.int64,
                                count=len(self._slot))
            sites = np.empty((len(slots), 2))
            sites[:, 0] = np.asarray(self._xs)[slots]
            sites[:, 1] = np.asarray(self._ys)[slots]
            self._live = (
                np.fromiter(self._slot, dtype=np.int64, count=len(slots)),
                sites)
        ids, sites = self._live
        if drop is not None:
            keep = ids != drop
            ids, sites = ids[keep], sites[keep]
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        winners = np.empty(len(points), dtype=np.int64)
        rows = max(1, _CHUNK_ELEMENTS // len(ids))
        for start in range(0, len(points), rows):
            chunk = points[start:start + rows]
            square = squared_distance_block(chunk, sites)
            best = square.argmin(axis=1)
            winners[start:start + rows] = ids[best]
            # The runner-up, by masking the winner out (``inf`` when
            # there is no other participant: never within the band).
            at = np.arange(len(chunk))
            nearest = square[at, best]
            square[at, best] = np.inf
            close = np.sqrt(square.min(axis=1)) - np.sqrt(nearest)
            for f in np.flatnonzero(close <= TIE_BAND).tolist():
                winners[start + f] = self.closest(
                    (chunk[f, 0], chunk[f, 1]), drop)
        return winners

    def nearer(self, site: Point, points: np.ndarray,
               winners: np.ndarray) -> np.ndarray:
        """Per row, as a bool array: does ``site`` beat participant
        ``winners[k]`` as the nearest to ``points[k]`` under the
        ``(distance, x, y)`` rule?  With ``winners`` from
        :meth:`closest_many`, that says whether a participant at
        ``site`` would win the row — a joiner's rows, or a leaver's
        before it left — without changing the index.  As there, a row
        within ``TIE_BAND`` is decided by ``math.hypot`` keys."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        holders, at = np.unique(winners, return_inverse=True)
        slots = [self._slot[node] for node in holders.tolist()]
        wx = np.asarray(self._xs)[slots][at]
        wy = np.asarray(self._ys)[slots][at]
        sx, sy = float(site[0]), float(site[1])
        px, py = points[:, 0], points[:, 1]
        gap = (np.sqrt((wx - px) ** 2 + (wy - py) ** 2)
               - np.sqrt((sx - px) ** 2 + (sy - py) ** 2))
        result = gap > 0
        for k in np.flatnonzero(np.abs(gap) <= TIE_BAND).tolist():
            x, y, qx, qy = wx[k], wy[k], px[k], py[k]
            result[k] = ((math.hypot(sx - qx, sy - qy), sx, sy)
                         < (math.hypot(x - qx, y - qy), x, y))
        return result

    def _ring_cells(self, cx: int, cy: int, ring: int):
        """In-bounds cells at Chebyshev distance ``ring`` from the
        center cell."""
        gx, gy = self._gx, self._gy
        if ring == 0:
            if 0 <= cx < gx and 0 <= cy < gy:
                yield cx, cy
            return
        x_lo, x_hi = cx - ring, cx + ring
        y_lo, y_hi = cy - ring, cy + ring
        for ix in range(max(0, x_lo), min(gx - 1, x_hi) + 1):
            if 0 <= y_lo < gy:
                yield ix, y_lo
            if y_hi != y_lo and 0 <= y_hi < gy:
                yield ix, y_hi
        for iy in range(max(0, y_lo + 1), min(gy - 1, y_hi - 1) + 1):
            if 0 <= x_lo < gx:
                yield x_lo, iy
            if x_hi != x_lo and 0 <= x_hi < gx:
                yield x_hi, iy
