"""Golden regression tests.

Pin the end-to-end behavior of a fixed-seed deployment: topology
generation, embedding, CVT, DT, rule compilation and greedy routing are
all deterministic, so these exact values must never change
accidentally.  If a deliberate algorithm change shifts them, update the
goldens in the same commit and call it out in the changelog.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import GredNetwork, attach_uniform, brite_waxman_graph
from repro.metrics import measure_gred_stretch, summarize

GOLDEN_DESTINATIONS = {
    "golden-0": (22, 5),
    "golden-1": (13, 4),
    "golden-2": (16, 1),
    "golden-3": (10, 1),
    "golden-4": (23, 3),
    "golden-5": (21, 2),
    "golden-6": (1, 1),
    "golden-7": (1, 1),
    "golden-8": (4, 1),
    "golden-9": (11, 1),
    "golden-10": (3, 1),
    "golden-11": (5, 1),
}
GOLDEN_STRETCH_MEAN = 1.187075
GOLDEN_POSITION_DIGEST = "b9df0bc6d9161a71"


@pytest.fixture(scope="module")
def golden_net(reference_engine):
    # Goldens pin the reference engine; the restored twin in
    # ``test_snapshot_preserves_goldens`` walks the compiled plane.
    topology, _ = brite_waxman_graph(
        24, min_degree=3, rng=np.random.default_rng(2024))
    return reference_engine(
        GredNetwork(topology, attach_uniform(topology.nodes(), 3),
                    cvt_iterations=25, seed=11))


class TestGolden:
    def test_destinations_and_hops(self, golden_net):
        for data_id, (dest, hops) in GOLDEN_DESTINATIONS.items():
            assert golden_net.destination_switch(data_id) == dest
            route = golden_net.route_for(data_id, entry_switch=0)
            assert route.destination_switch == dest
            assert route.physical_hops == hops

    def test_stretch_mean(self, golden_net):
        summary = summarize(measure_gred_stretch(
            golden_net, 50, np.random.default_rng(99)))
        assert summary.mean == pytest.approx(GOLDEN_STRETCH_MEAN,
                                             abs=1e-6)

    def test_position_digest(self, golden_net):
        positions = {
            k: (round(v[0], 12), round(v[1], 12))
            for k, v in golden_net.controller.positions.items()
        }
        digest = hashlib.sha256(
            json.dumps(sorted(positions.items())).encode()
        ).hexdigest()[:16]
        assert digest == GOLDEN_POSITION_DIGEST

    def test_p4_agrees_with_goldens(self, golden_net):
        from oracles.p4 import P4Network

        p4 = P4Network(golden_net.controller)
        for data_id, (dest, _) in GOLDEN_DESTINATIONS.items():
            assert p4.route_for(data_id, 0).destination_switch == dest

    def test_snapshot_preserves_goldens(self, golden_net):
        from repro.io import from_snapshot, to_snapshot

        restored = from_snapshot(to_snapshot(golden_net))
        for data_id, (dest, hops) in GOLDEN_DESTINATIONS.items():
            route = restored.route_for(data_id, entry_switch=0)
            assert route.destination_switch == dest
            assert route.physical_hops == hops
