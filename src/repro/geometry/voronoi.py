"""Voronoi partition helpers and the CVT energy (paper Section IV-B).

The C-regulation algorithm treats the unit square as the domain, the
switch positions as Voronoi sites, and iterates the sites toward the
centroids of their cells.  Working with exact Voronoi cell polygons is
unnecessary: the paper itself uses a *sampling* estimate ("the number of
sample points is 1000 in each iteration"), so this module provides
Monte-Carlo estimates of cell membership, cell centroids, cell areas and
the CVT energy

    F = sum_i  integral_{R_i} rho(r) |r - q_i|^2 dr

for a uniform density rho.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .primitives import Point


#: Bound on one nearest-site block, in ``(sample, site)`` cells, so
#: million-sample workloads stay within a bounded memory footprint.
_BLOCK_CELLS = 8_000_000


def squared_distance_block(points: np.ndarray,
                           sites: np.ndarray) -> np.ndarray:
    """``(k, n)`` squared distances from ``(k, 2)`` ``points`` to
    ``(n, 2)`` ``sites``: the one nearest-site kernel.

    ``dx * dx + dy * dy`` is computed in place on two 2-D arrays, one
    ``(k, n)`` block and one temporary, never a ``(k, n, 2)`` tensor.
    Callers bound ``k`` by chunking.

    Raises
    ------
    ValueError
        If ``sites`` is not ``(n >= 1, 2)`` or ``points`` not
        ``(k, 2)``.
    """
    if sites.ndim != 2 or sites.shape[1] != 2 or len(sites) == 0:
        raise ValueError(
            f"sites must be an (n >= 1, 2) point array, got shape "
            f"{sites.shape}")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(
            f"samples must be a (k, 2) point array, got shape "
            f"{points.shape}")
    square = points[:, 0:1] - sites[:, 0]
    dy = points[:, 1:2] - sites[:, 1]
    square *= square
    dy *= dy
    square += dy
    return square


def _nearest(samples: np.ndarray, sites: Sequence[Point], reduce
             ) -> np.ndarray:
    """``reduce(block, axis=1)`` of every sample's row of squared
    site distances, one bounded block at a time (at least one, so an
    empty batch is still checked)."""
    site_arr = np.asarray(sites, dtype=float)
    samples = np.asarray(samples, dtype=float)
    chunk = max(1, _BLOCK_CELLS // max(1, len(site_arr)))
    return np.concatenate([
        reduce(squared_distance_block(samples[start:start + chunk],
                                      site_arr), axis=1)
        for start in range(0, max(1, len(samples)), chunk)])


def _check_nonempty(per_sample: np.ndarray) -> None:
    if len(per_sample) == 0:
        raise ValueError("an estimate needs at least one sample")


def assign_to_sites(samples: np.ndarray, sites: Sequence[Point]) -> np.ndarray:
    """Index of the nearest site for each sample point.

    Parameters
    ----------
    samples:
        ``(k, 2)`` array of sample points.
    sites:
        Sequence of ``n >= 1`` site positions.

    Returns
    -------
    ``(k,)`` integer array of site indices.  Ties broken by lowest index
    (numpy argmin), which is measure-zero for random samples.

    Raises
    ------
    ValueError
        On the shapes :func:`squared_distance_block` rejects.
    """
    return _nearest(samples, sites, np.argmin)


def sample_unit_square(k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` uniform samples from the unit square."""
    if k <= 0:
        raise ValueError(f"sample count must be positive, got {k}")
    return rng.uniform(0.0, 1.0, size=(k, 2))


def estimate_cell_centroids(
    sites: Sequence[Point], samples: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo centroids of each site's Voronoi cell.

    Returns ``(centroids, counts)``: an ``(n, 2)`` float array and the
    ``(n,)`` sample count of each cell.  A site whose cell received no
    samples keeps its own position as the centroid and gets count 0.
    """
    site_arr = np.asarray(sites, dtype=float)
    samples = np.asarray(samples, dtype=float)
    owners = assign_to_sites(samples, site_arr)
    n = len(site_arr)
    counts = np.bincount(owners, minlength=n)
    sums = np.empty((n, 2))
    sums[:, 0] = np.bincount(owners, weights=samples[:, 0], minlength=n)
    sums[:, 1] = np.bincount(owners, weights=samples[:, 1], minlength=n)
    centroids = site_arr.copy()
    np.divide(sums, counts[:, None], out=centroids,
              where=counts[:, None] > 0)
    return centroids, counts


def estimate_cell_areas(sites: Sequence[Point],
                        samples: np.ndarray) -> np.ndarray:
    """Monte-Carlo areas of the Voronoi cells within the unit square
    (``ValueError`` on an empty batch)."""
    owners = assign_to_sites(samples, sites)
    _check_nonempty(owners)
    counts = np.bincount(owners, minlength=len(sites))
    return counts / len(samples)


def cvt_energy(sites: Sequence[Point], samples: np.ndarray) -> float:
    """Monte-Carlo estimate of the CVT energy for uniform density
    (``ValueError`` on an empty batch).

    Lower is better; the global minimizer is a centroidal Voronoi
    tessellation.
    """
    nearest = _nearest(samples, sites, np.min)
    _check_nonempty(nearest)
    return float(nearest.mean())


def cell_load_distribution(
    sites: Sequence[Point], positions: np.ndarray
) -> Dict[int, int]:
    """Number of data positions falling into each site's cell.

    This is exactly the quantity the load-balance experiments measure:
    how many data items (positions in the unit square) each switch
    attracts.
    """
    owners = assign_to_sites(positions, sites)
    counts = np.bincount(owners, minlength=len(sites))
    return {i: int(counts[i]) for i in range(len(sites))}
