"""Theoretical companions to the measured results.

The paper appeals to known results ("Theoretical analysis shows the
correctness and efficiency of GRED"); this module provides the closed
forms the experiments are compared against:

* expected Chord lookup hops ``~ (1/2) log2 n``;
* the balls-into-bins maximum load (the best an oblivious uniform
  placement can do — what GRED's ``H(d) mod s`` approaches under a
  perfect CVT);
* consistent-hashing arc-length imbalance (why plain Chord's max/avg
  is so much worse than balls-into-bins);
* average Delaunay degree (< 6) — why GRED's per-switch state is
  effectively constant.

``tests/test_theory.py`` checks the *measured* systems against these
predictions.
"""

from __future__ import annotations

import math


def expected_chord_hops(num_nodes: int) -> float:
    """Expected overlay hops of a Chord lookup: ``(1/2) log2 n``.

    Stoica et al., Theorem IV.5: lookups take ``O(log n)`` messages,
    with the constant ~1/2 in expectation.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if num_nodes == 1:
        return 0.0
    return 0.5 * math.log2(num_nodes)


def expected_max_load_balls_in_bins(num_balls: int,
                                    num_bins: int) -> float:
    """Approximate expected maximum bin load for uniform placement.

    Two regimes (Raab & Steger):

    * heavy loading (``m >> n log n``):
      ``m/n + sqrt(2 (m/n) ln n)``;
    * light loading (``m ~ n``): ``ln n / ln ln n`` scale.

    Used to annotate the load-balance experiments: GRED with a perfect
    CVT approaches this bound; Chord exceeds it because ring arcs are
    uneven.
    """
    if num_balls < 0 or num_bins <= 0:
        raise ValueError("need num_balls >= 0 and num_bins > 0")
    if num_balls == 0:
        return 0.0
    mean = num_balls / num_bins
    log_n = math.log(max(num_bins, 2))
    if mean >= log_n:
        return mean + math.sqrt(2.0 * mean * log_n)
    # Light loading: ln n / ln ln n (guard the double log).
    ll = math.log(max(log_n, math.e))
    return log_n / ll


def expected_max_avg_balls_in_bins(num_balls: int,
                                   num_bins: int) -> float:
    """The max/avg ratio corresponding to
    :func:`expected_max_load_balls_in_bins`."""
    mean = num_balls / num_bins
    if mean == 0:
        raise ValueError("no balls placed")
    return expected_max_load_balls_in_bins(num_balls, num_bins) / mean


def expected_max_avg_consistent_hashing(num_nodes: int) -> float:
    """Expected max/avg for plain consistent hashing (one ring position
    per node), driven by the largest arc.

    With ``n`` uniform ring positions, the largest arc is ``~ ln n / n``
    of the circle while the mean is ``1/n``, so for many keys
    ``max/avg -> ln n`` (arc lengths dominate key-sampling noise).
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if num_nodes == 1:
        return 1.0
    return math.log(num_nodes)


def average_delaunay_degree(num_sites: int) -> float:
    """Average vertex degree of a planar Delaunay triangulation.

    Euler's formula bounds edges by ``3n - 3 - h`` (``h`` hull points),
    so the average degree is strictly below 6 and approaches it from
    below as ``n`` grows; the ``h ~ O(log n)`` hull of uniform points
    gives ``6 - O(log n / n)``.
    """
    if num_sites < 1:
        raise ValueError(f"num_sites must be >= 1, got {num_sites}")
    if num_sites < 3:
        return float(num_sites - 1)
    hull = max(3.0, math.log(num_sites))
    edges = 3.0 * num_sites - 3.0 - hull
    return 2.0 * edges / num_sites

