"""Tests for the locality-preserving / non-uniform-density extension.

The paper's CVT energy (Equation 2) admits a general density rho; the
default SHA-256 position mapping makes rho uniform.  These tests cover
the extension points: a custom ``position_fn`` on the network and a
matching ``density_sampler`` for C-regulation.
"""

import hashlib

import numpy as np
import pytest

from repro import GredNetwork
from repro.controlplane import ControlPlaneError, Controller, ControllerConfig
from repro.edge import attach_uniform
from repro.embedding import c_regulation
from repro.metrics import max_avg_ratio
from repro.topology import brite_waxman_graph, grid_graph


def clustered_sampler(k, rng):
    """Data density concentrated in the lower-left quadrant."""
    return np.clip(rng.normal(loc=0.25, scale=0.1, size=(k, 2)),
                   0.0, 1.0)


def clustered_position(data_id: str):
    """A deterministic locality-preserving position mapping matching
    :func:`clustered_sampler`'s density."""
    digest = hashlib.sha256(data_id.encode()).digest()
    u1 = int.from_bytes(digest[0:8], "big") / 2 ** 64
    u2 = int.from_bytes(digest[8:16], "big") / 2 ** 64
    u3 = int.from_bytes(digest[16:24], "big") / 2 ** 64
    u4 = int.from_bytes(digest[24:32], "big") / 2 ** 64
    # Box-Muller onto the same N(0.25, 0.1) density as the sampler.
    z1 = np.sqrt(-2 * np.log(u1 + 1e-12)) * np.cos(2 * np.pi * u2)
    z2 = np.sqrt(-2 * np.log(u3 + 1e-12)) * np.cos(2 * np.pi * u4)
    return (float(np.clip(0.25 + 0.1 * z1, 0.0, 1.0)),
            float(np.clip(0.25 + 0.1 * z2, 0.0, 1.0)))


class TestCustomSampler:
    def test_sampler_pulls_sites_toward_density(self):
        rng = np.random.default_rng(0)
        sites = [tuple(p) for p in rng.uniform(0, 1, size=(12, 2))]
        result = c_regulation(sites, iterations=40,
                              sampler=clustered_sampler,
                              rng=np.random.default_rng(1))
        centroid = np.mean(result.sites, axis=0)
        assert centroid[0] < 0.42
        assert centroid[1] < 0.42

    def test_bad_sampler_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            c_regulation([(0.5, 0.5)], iterations=1,
                         sampler=lambda k, rng: np.zeros((k, 3)))

    @pytest.mark.parametrize("sampler", [
        lambda k, rng: np.full((k, 2), np.nan),
        lambda k, rng: np.full((k, 2), np.inf),
        lambda k, rng: rng.uniform(5.0, 6.0, size=(k, 2)),
        lambda k, rng: rng.uniform(-1.0, 0.5, size=(k, 2)),
    ], ids=["nan", "inf", "far-square", "below-origin"])
    def test_bad_sampler_batch_rejected(self, sampler):
        """A NaN wins every ``argmin`` (one NaN site); a batch outside
        the unit square drags a site out of it."""
        with pytest.raises(ValueError, match="inside the unit square"):
            c_regulation([(0.2, 0.2), (0.8, 0.8)], iterations=3,
                         sampler=sampler)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sites_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            c_regulation([(0.2, 0.2), (bad, 0.8)], iterations=3)

    def test_controller_refuses_a_bad_sampler_unchanged(self):
        topology = grid_graph(3, 3)
        servers = attach_uniform(topology.nodes(), 1)
        nan_sampler = lambda k, rng: np.full((k, 2), np.nan)  # noqa: E731
        with pytest.raises(ControlPlaneError, match="unit square"):
            Controller(topology, servers, ControllerConfig(
                cvt_iterations=5, density_sampler=nan_sampler))
        controller = Controller(topology, servers,
                                ControllerConfig(cvt_iterations=5))
        before = dict(controller.positions)
        controller.config.density_sampler = (
            lambda k, rng: rng.uniform(5.0, 6.0, size=(k, 2)))
        with pytest.raises(ControlPlaneError, match="unit square"):
            controller.recompute()
        assert controller.positions == before

    def test_uniform_default_unchanged(self):
        sites = [(0.3, 0.3), (0.7, 0.7)]
        a = c_regulation(sites, iterations=5,
                         rng=np.random.default_rng(2))
        b = c_regulation(sites, iterations=5, sampler=None,
                         rng=np.random.default_rng(2))
        assert a.sites == b.sites


class TestCustomPositionFn:
    def test_placement_respects_custom_positions(self):
        topology = grid_graph(3, 3)
        servers = attach_uniform(topology.nodes(), 2)
        net = GredNetwork(topology, servers, cvt_iterations=10, seed=0,
                          position_fn=clustered_position)
        for i in range(10):
            data_id = f"geo-{i}"
            record = net.place(data_id, payload=i,
                               entry_switch=0).primary
            expected = net.controller.closest_switch(
                clustered_position(data_id))
            assert record.destination_switch == expected
            assert net.retrieve(data_id, entry_switch=4).found

    def test_density_matched_cvt_improves_weighted_balance(self):
        """With clustered data, density-matched C-regulation must beat
        uniform C-regulation on switch-level load balance."""
        topology, _ = brite_waxman_graph(
            40, min_degree=3, rng=np.random.default_rng(5))

        def switch_loads(net):
            counts = {sw: 0 for sw in net.switch_ids()}
            for i in range(4000):
                counts[net.destination_switch(f"wl-{i}")] += 1
            return list(counts.values())

        uniform_net = GredNetwork(
            topology, attach_uniform(topology.nodes(), 1),
            cvt_iterations=60, seed=0,
            position_fn=clustered_position,
        )
        matched_net = GredNetwork(
            topology, attach_uniform(topology.nodes(), 1),
            cvt_iterations=60, seed=0,
            position_fn=clustered_position,
            density_sampler=clustered_sampler,
        )
        uniform_ratio = max_avg_ratio(switch_loads(uniform_net))
        matched_ratio = max_avg_ratio(switch_loads(matched_net))
        assert matched_ratio < uniform_ratio

    def test_default_position_fn_is_sha(self):
        from repro.hashing import data_position

        topology = grid_graph(2, 2)
        net = GredNetwork(topology, attach_uniform(topology.nodes(), 1),
                          cvt_iterations=0)
        assert net._position_fn is data_position
