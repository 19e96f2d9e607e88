"""Unit tests for repro.core.scheduler."""

import networkx as nx
import numpy as np
import pytest

from repro import GraphPairScheduler, SchedulerError, UniformPairScheduler


class TestUniformPairScheduler:
    def test_rejects_tiny_population(self):
        with pytest.raises(SchedulerError):
            UniformPairScheduler(1)

    def test_pairs_are_distinct(self, rng):
        scheduler = UniformPairScheduler(10)
        initiators, responders = scheduler.sample_pairs(rng, 5000)
        assert np.all(initiators != responders)
        assert initiators.min() >= 0 and initiators.max() < 10
        assert responders.min() >= 0 and responders.max() < 10

    def test_rejects_negative_count(self, rng):
        with pytest.raises(SchedulerError):
            UniformPairScheduler(5).sample_pairs(rng, -1)

    def test_marginal_is_uniform(self, rng):
        """Each agent appears as initiator with frequency ≈ 1/n."""
        n = 5
        scheduler = UniformPairScheduler(n)
        initiators, responders = scheduler.sample_pairs(rng, 50_000)
        for arr in (initiators, responders):
            freq = np.bincount(arr, minlength=n) / arr.size
            assert np.allclose(freq, 1.0 / n, atol=0.01)

    def test_joint_is_uniform_over_ordered_pairs(self, rng):
        n = 4
        scheduler = UniformPairScheduler(n)
        initiators, responders = scheduler.sample_pairs(rng, 120_000)
        codes = initiators * n + responders
        counts = np.bincount(codes, minlength=n * n).reshape(n, n)
        off_diagonal = counts[~np.eye(n, dtype=bool)]
        expected = 120_000 / (n * (n - 1))
        assert np.all(np.abs(off_diagonal - expected) < 5 * np.sqrt(expected))


class TestGraphPairScheduler:
    def test_path_graph_only_samples_edges(self, rng):
        graph = nx.path_graph(4)  # edges: 0-1, 1-2, 2-3
        scheduler = GraphPairScheduler(graph)
        assert scheduler._edge_u.size == 3
        initiators, responders = scheduler.sample_pairs(rng, 2000)
        pairs = {tuple(sorted(p)) for p in zip(initiators, responders)}
        assert pairs <= {(0, 1), (1, 2), (2, 3)}

    def test_orientation_is_random(self, rng):
        graph = nx.path_graph(2)
        scheduler = GraphPairScheduler(graph)
        initiators, _ = scheduler.sample_pairs(rng, 2000)
        fraction = initiators.mean()
        assert 0.4 < fraction < 0.6

    def test_rejects_empty_graph(self):
        with pytest.raises(SchedulerError):
            GraphPairScheduler(nx.empty_graph(5))

    def test_rejects_bad_labels(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(SchedulerError):
            GraphPairScheduler(graph)

    def test_rejects_self_loops(self):
        graph = nx.complete_graph(3)
        graph.add_edge(0, 0)
        with pytest.raises(SchedulerError):
            GraphPairScheduler(graph)

    def test_complete_constructor(self, rng):
        scheduler = GraphPairScheduler.complete(5)
        assert scheduler.n == 5
        assert scheduler._edge_u.size == 10
        initiators, responders = scheduler.sample_pairs(rng, 100)
        assert np.all(initiators != responders)
