"""The C-regulation algorithm (paper Section IV-B, Algorithm 1).

C-regulation refines the M-position coordinates toward a Centroidal
Voronoi Tessellation (CVT) of the unit square so that, when data
positions are uniform in the square, every switch attracts roughly the
same load.  It is a Monte-Carlo Lloyd iteration:

* each iteration draws ``samples_per_iteration`` uniform points (the
  paper uses 1000);
* every sample is assigned to its nearest site;
* each site moves toward the centroid of its samples;
* iterate for ``iterations`` rounds (the paper's parameter ``T``), or
  stop early when the estimated CVT energy falls below
  ``energy_threshold``.

A relaxation factor blends the old position with the sampled centroid,
which keeps single-iteration noise from undoing the distance-preserving
structure of the M-position embedding; ``relaxation=1.0`` is pure Lloyd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..geometry import (
    Point,
    cvt_energy,
    estimate_cell_centroids,
    sample_unit_square,
)


@dataclass
class CRegulationResult:
    """Outcome of a C-regulation run.

    Attributes
    ----------
    sites:
        Refined switch positions (the paper's ``Q*``), as tuples of
        Python floats.
    iterations_run:
        Number of iterations actually executed (may be fewer than the
        requested ``T`` when ``energy_threshold`` triggers early stop).
    energy_history:
        Estimated CVT energy after each iteration, measured on a fresh
        held-out Monte-Carlo batch (useful for the convergence
        ablation).  Without ``energy_threshold`` nothing reads it while
        the sites move, so it is computed on first read, from the kept
        per-iteration sites and the same held-out stream drawn in the
        same order: the same list, paid for only by its readers.
    """

    sites: List[Point]
    iterations_run: int = 0
    _energies: Optional[List[float]] = field(default=None, repr=False)
    _replay: Optional[Callable[[], List[float]]] = field(
        default=None, repr=False)

    @property
    def energy_history(self) -> List[float]:
        if self._energies is None:
            self._energies = self._replay() if self._replay else []
            self._replay = None
        return self._energies


#: A sampler draws ``k`` points from the data-position density: it takes
#: ``(k, rng)`` and returns a ``(k, 2)`` array inside the unit square.
Sampler = "Callable[[int, np.random.Generator], np.ndarray]"


def _draw(sampler, k: int, rng: np.random.Generator) -> np.ndarray:
    """One sampler batch, refused unless it is ``(k, 2)``-shaped,
    finite and inside the unit square (a NaN would win every
    ``argmin`` and poison a site; a point outside drags one out)."""
    samples = np.asarray(sampler(k, rng), dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(
            f"sampler must return a (k, 2) array, got shape "
            f"{samples.shape}"
        )
    if not (samples.min() >= 0.0 and samples.max() <= 1.0):
        raise ValueError(
            "sampler must return finite points inside the unit square")
    return samples


def c_regulation(
    sites: Sequence[Point],
    iterations: int = 50,
    samples_per_iteration: int = 1000,
    energy_threshold: Optional[float] = None,
    relaxation: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    sampler=None,
) -> CRegulationResult:
    """Refine ``sites`` toward a CVT of the unit square.

    Parameters
    ----------
    sites:
        Initial positions (from :func:`repro.embedding.m_position`).
    iterations:
        The paper's ``T``.  ``T = 0`` returns the input unchanged, which
        is exactly the GRED-NoCVT variant.
    samples_per_iteration:
        Monte-Carlo sample count per iteration (paper: 1000).
    energy_threshold:
        Optional early-stop threshold on the estimated CVT energy.  The
        estimate is computed on a held-out sample batch, not the batch
        the sites were just fitted to, so the stopping rule is unbiased.
    relaxation:
        Blend factor in ``(0, 1]``: ``new = (1 - r) * old + r * centroid``.
    rng:
        Random generator; defaults to a fixed seed for reproducibility.
    sampler:
        Optional density sampler ``(k, rng) -> (k, 2) array`` realizing
        the paper's general density function rho (Equation 2).  The
        default is the uniform density matching SHA-256 data positions;
        deployments using locality-preserving (non-uniform) position
        mappings pass a sampler matching their data density so that the
        CVT equalizes *weighted* load.

    Returns
    -------
    :class:`CRegulationResult`

    Raises
    ------
    ValueError
        On a bad parameter, a non-finite input site, or a sampler batch
        that is not ``(k, 2)``, not finite or not inside the unit
        square.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if samples_per_iteration <= 0:
        raise ValueError(
            f"samples_per_iteration must be positive, got "
            f"{samples_per_iteration}"
        )
    if not 0.0 < relaxation <= 1.0:
        raise ValueError(f"relaxation must be in (0, 1], got {relaxation}")
    if rng is None:
        rng = np.random.default_rng(0)

    if sampler is None:
        sampler = sample_unit_square
    current = np.array([(float(p[0]), float(p[1])) for p in sites],
                       dtype=float).reshape(-1, 2)
    if not np.isfinite(current).all():
        raise ValueError("sites must be finite")
    # The early-stop energy must be measured on samples the sites were
    # NOT fitted to this iteration: evaluating on the training batch
    # biases the estimate low (each site just moved to the centroid of
    # exactly these points) and fires ``energy_threshold`` prematurely.
    # A spawned child stream supplies held-out batches without
    # perturbing the main stream that drives the site trajectory.
    eval_rng = rng.spawn(1)[0]
    energies: List[float] = []
    trajectory: List[np.ndarray] = []
    iterations_run = 0
    for _ in range(iterations):
        samples = _draw(sampler, samples_per_iteration, rng)
        centroids, counts = estimate_cell_centroids(current, samples)
        current = np.where(
            (counts > 0)[:, None],
            (1.0 - relaxation) * current + relaxation * centroids,
            current)
        iterations_run += 1
        if energy_threshold is None:
            trajectory.append(current)
            continue
        energy = cvt_energy(
            current, _draw(sampler, samples_per_iteration, eval_rng))
        energies.append(energy)
        if energy <= energy_threshold:
            break
    result = CRegulationResult(
        sites=[(x, y) for x, y in current.tolist()],
        iterations_run=iterations_run)
    if energy_threshold is not None:
        result._energies = energies
    else:
        result._replay = lambda: [
            cvt_energy(moved,
                       _draw(sampler, samples_per_iteration, eval_rng))
            for moved in trajectory]
    return result
