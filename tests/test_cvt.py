"""Unit tests for the C-regulation algorithm."""

import hashlib
import struct

import numpy as np
import pytest

from repro import GredNetwork, brite_waxman_graph
from repro.embedding import c_regulation
from repro.geometry import cvt_energy, sample_unit_square


def clustered_sites(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(p) for p in rng.uniform(0.45, 0.55, size=(n, 2))]


class TestCRegulation:
    def test_zero_iterations_is_identity(self):
        sites = clustered_sites()
        result = c_regulation(sites, iterations=0)
        assert result.sites == sites
        assert result.iterations_run == 0
        assert result.energy_history == []

    def test_energy_decreases_overall(self):
        sites = clustered_sites()
        result = c_regulation(sites, iterations=40,
                              rng=np.random.default_rng(1))
        history = result.energy_history
        assert history[-1] < history[0]

    def test_energy_much_lower_than_initial(self):
        sites = clustered_sites()
        eval_rng = np.random.default_rng(99)
        samples = sample_unit_square(20000, eval_rng)
        before = cvt_energy(sites, samples)
        result = c_regulation(sites, iterations=50,
                              rng=np.random.default_rng(2))
        after = cvt_energy(result.sites, samples)
        assert after < before / 2

    def test_sites_stay_in_unit_square(self):
        result = c_regulation(clustered_sites(), iterations=30,
                              rng=np.random.default_rng(3))
        for x, y in result.sites:
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0

    def test_single_site_converges_to_center(self):
        result = c_regulation([(0.05, 0.05)], iterations=30,
                              samples_per_iteration=5000,
                              rng=np.random.default_rng(4))
        assert result.sites[0] == pytest.approx((0.5, 0.5), abs=0.03)

    def test_energy_threshold_stops_early(self):
        result = c_regulation(clustered_sites(), iterations=200,
                              energy_threshold=1.0,  # trivially satisfied
                              rng=np.random.default_rng(5))
        assert result.iterations_run == 1

    def test_relaxation_dampens_movement(self):
        sites = clustered_sites()
        full = c_regulation(sites, iterations=1,
                            rng=np.random.default_rng(6))
        damped = c_regulation(sites, iterations=1, relaxation=0.1,
                              rng=np.random.default_rng(6))
        move_full = sum(
            np.hypot(a[0] - b[0], a[1] - b[1])
            for a, b in zip(sites, full.sites)
        )
        move_damped = sum(
            np.hypot(a[0] - b[0], a[1] - b[1])
            for a, b in zip(sites, damped.sites)
        )
        assert move_damped < move_full / 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            c_regulation([(0.5, 0.5)], iterations=-1)
        with pytest.raises(ValueError):
            c_regulation([(0.5, 0.5)], samples_per_iteration=0)
        with pytest.raises(ValueError):
            c_regulation([(0.5, 0.5)], relaxation=0.0)
        with pytest.raises(ValueError):
            c_regulation([(0.5, 0.5)], relaxation=1.5)

    def test_deterministic_with_seeded_rng(self):
        sites = clustered_sites()
        r1 = c_regulation(sites, iterations=10,
                          rng=np.random.default_rng(7))
        r2 = c_regulation(sites, iterations=10,
                          rng=np.random.default_rng(7))
        assert r1.sites == r2.sites
        assert r1.energy_history == r2.energy_history

    def test_more_iterations_not_worse(self):
        """T=50 must balance cell areas at least as well as T=5 —
        the paper's Fig. 10(c) trend."""
        from repro.geometry import estimate_cell_areas

        sites = clustered_sites(n=16)
        eval_samples = sample_unit_square(40000,
                                          np.random.default_rng(11))
        short = c_regulation(sites, iterations=5,
                             rng=np.random.default_rng(8))
        long = c_regulation(sites, iterations=50,
                            rng=np.random.default_rng(8))
        spread_short = estimate_cell_areas(short.sites,
                                           eval_samples).std()
        spread_long = estimate_cell_areas(long.sites, eval_samples).std()
        assert spread_long <= spread_short * 1.1


class TestHeldOutEnergy:
    """The early-stop energy must come from a held-out batch (the
    regression where evaluating on the training batch biased the
    estimate low and fired ``energy_threshold`` prematurely)."""

    def test_history_measured_on_held_out_batch(self):
        result = c_regulation(clustered_sites(12), iterations=1,
                              samples_per_iteration=500,
                              rng=np.random.default_rng(9))
        # Replay the stream protocol: site updates consume the main
        # stream, the energy estimate a spawned child stream.
        main = np.random.default_rng(9)
        eval_rng = main.spawn(1)[0]
        train = sample_unit_square(500, main)
        held_out = sample_unit_square(500, eval_rng)
        assert result.energy_history[0] == \
            cvt_energy(result.sites, held_out)
        assert result.energy_history[0] != \
            cvt_energy(result.sites, train)

    def test_training_batch_energy_is_biased_low(self):
        iterations, n = 5, 200
        result = c_regulation(clustered_sites(20), iterations=iterations,
                              samples_per_iteration=n,
                              rng=np.random.default_rng(11))
        main = np.random.default_rng(11)
        eval_rng = main.spawn(1)[0]
        for _ in range(iterations):
            train = sample_unit_square(n, main)
            sample_unit_square(n, eval_rng)
        # Sites were just moved to the centroids of ``train``: the
        # training-batch estimate underestimates the true energy.
        assert cvt_energy(result.sites, train) < \
            result.energy_history[-1]

    def test_threshold_compares_against_held_out_estimate(self):
        probe = c_regulation(clustered_sites(12), iterations=1,
                             samples_per_iteration=500,
                             rng=np.random.default_rng(4))
        threshold = probe.energy_history[0]
        stopped = c_regulation(clustered_sites(12), iterations=50,
                               samples_per_iteration=500,
                               energy_threshold=threshold,
                               rng=np.random.default_rng(4))
        assert stopped.iterations_run == 1
        assert stopped.energy_history == probe.energy_history


class TestEnergyOnRead:
    """Without ``energy_threshold`` the history is computed when it is
    first read; the threshold test above shows it equals the inline
    one."""

    def test_reading_twice_gives_equal_lists(self):
        result = c_regulation(clustered_sites(), iterations=6,
                              rng=np.random.default_rng(12))
        first = list(result.energy_history)
        assert len(first) == 6
        assert result.energy_history == first


#: sha-256 over ``(id, x, y)`` packed as ``<qdd`` in switch-id order of
#: the positions a 200-switch Waxman build (4 servers a switch,
#: ``cvt_iterations=20``, seed 0) computed before C-regulation moved
#: to one nearest-site kernel and an array Lloyd step.
WAXMAN_200_POSITIONS = (
    "4a4764ef3cfe5c632cb714d705758363edea0cbfbe6274e92100c3d78a38f423")


def test_a_build_keeps_its_positions_bit_for_bit():
    topology, _ = brite_waxman_graph(200, min_degree=3,
                                     rng=np.random.default_rng(0))
    net = GredNetwork(topology, servers_per_switch=4, cvt_iterations=20,
                      seed=0)
    positions = net.controller.positions
    digest = hashlib.sha256()
    for node in sorted(positions):
        x, y = positions[node]
        assert type(x) is float and type(y) is float, (node, x, y)
        digest.update(struct.pack("<qdd", node, x, y))
    assert digest.hexdigest() == WAXMAN_200_POSITIONS
