"""Tests for the SMACOF stress-majorization embedding (ablation A4)."""

import math

import numpy as np
import pytest

from repro.embedding import (
    EmbeddingError,
    classical_mds,
    kruskal_stress,
    smacof,
    smacof_position,
)
from repro.graph import all_pairs_hop_matrix
from repro.topology import grid_graph, ring_graph


def pairwise(x):
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.linalg.norm(x[i] - x[j])
    return out


class TestSmacof:
    def test_recovers_planar_configuration(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(12, 2))
        dist = pairwise(pts)
        coords = smacof(dist)
        assert np.allclose(pairwise(coords), dist, atol=1e-4)

    def test_single_point(self):
        coords = smacof(np.zeros((1, 1)))
        assert coords.shape == (1, 2)

    def test_never_worse_than_classical_on_stress(self):
        """SMACOF starts from the classical solution and minimizes raw
        stress, so its stress cannot exceed classical's (beyond
        numerical noise)."""
        for seed in range(3):
            from repro.topology import brite_waxman_graph

            g, _ = brite_waxman_graph(
                25, min_degree=3, rng=np.random.default_rng(seed))
            matrix, _ = all_pairs_hop_matrix(g)
            classical = classical_mds(matrix)
            improved = smacof(matrix)

            def raw_stress(x):
                e = pairwise(x)
                iu = np.triu_indices(matrix.shape[0], k=1)
                return ((matrix[iu] - e[iu]) ** 2).sum()

            assert raw_stress(improved) <= raw_stress(classical) + 1e-9

    def test_ring_stays_circular(self):
        g = ring_graph(16)
        matrix, _ = all_pairs_hop_matrix(g)
        coords = smacof(matrix)
        radii = np.linalg.norm(coords - coords.mean(axis=0), axis=1)
        assert radii.std() / radii.mean() < 0.1

    def test_invalid_inputs(self):
        with pytest.raises(EmbeddingError):
            smacof(np.zeros((2, 3)))
        with pytest.raises(EmbeddingError):
            smacof(np.array([[0.0, np.inf], [np.inf, 0.0]]))
        with pytest.raises(EmbeddingError):
            smacof(np.zeros((3, 3)), initial=np.zeros((2, 2)))

    def test_custom_initialization(self):
        g = grid_graph(3, 3)
        matrix, _ = all_pairs_hop_matrix(g)
        rng = np.random.default_rng(1)
        init = rng.uniform(0, 1, size=(9, 2))
        coords = smacof(matrix, initial=init)
        assert coords.shape == (9, 2)

    def test_position_pipeline_in_unit_square(self):
        g = grid_graph(4, 4)
        matrix, _ = all_pairs_hop_matrix(g)
        for x, y in smacof_position(matrix):
            assert 0.0 <= x <= 1.0
            assert 0.0 <= y <= 1.0


class TestControllerBackend:
    def test_smacof_backend_builds_working_network(self):
        from repro import GredNetwork
        from repro.controlplane import Controller, ControllerConfig
        from repro.edge import attach_uniform

        g = grid_graph(3, 3)
        controller = Controller(
            g, attach_uniform(g.nodes(), 2),
            config=ControllerConfig(cvt_iterations=5,
                                    embedding="smacof"),
        )
        assert len(controller.positions) == 9

    def test_unknown_backend_rejected(self):
        from repro.controlplane import (
            ControlPlaneError,
            Controller,
            ControllerConfig,
        )
        from repro.edge import attach_uniform

        g = grid_graph(2, 2)
        with pytest.raises(ControlPlaneError, match="unknown embedding"):
            Controller(g, attach_uniform(g.nodes(), 1),
                       config=ControllerConfig(embedding="bogus"))

    def test_ablation_runner_shape(self, catalogued):
        from repro.experiments import run_embedding_methods

        rows = run_embedding_methods(sizes=(20,), num_items=30)
        catalogued("A4", rows)
        methods = {r["embedding"] for r in rows}
        assert methods == {"classical", "smacof"}
        smacof_row = next(r for r in rows
                          if r["embedding"] == "smacof")
        classical_row = next(r for r in rows
                             if r["embedding"] == "classical")
        assert smacof_row["stress"] <= classical_row["stress"] + 0.05
