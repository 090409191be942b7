"""Tests for the synthetic graph generators (R-MAT, power-law, catalog)."""
import numpy as np
import pytest

from repro.graphgen.catalog import (
    ALL_REAL,
    ALL_SYNTH,
    PAPER_GRAPHS,
    RMAT_GRAPHS,
    SOCIAL_GRAPHS,
    WEB_GRAPHS,
    standin_edges,
    standin_shape,
)
from repro.graphgen.powerlaw import chung_lu, community_powerlaw
from repro.graphgen.rmat import rmat_edges
from repro.graphgen.tiny import OPTIMALITY_GRAPHS, toy_graph
from repro.core.stream import degrees_np


class TestRmat:
    def test_shape_and_dtype(self):
        e = rmat_edges(8, 1000, seed=1)
        assert e.ndim == 2 and e.shape[1] == 2
        assert e.dtype == np.int64

    def test_vertex_range(self):
        e = rmat_edges(6, 500, seed=2)
        assert e.min() >= 0 and e.max() < 2**6

    def test_no_self_loops(self):
        e = rmat_edges(7, 2000, seed=3)
        assert (e[:, 0] != e[:, 1]).all()

    def test_deterministic(self):
        a = rmat_edges(8, 1000, seed=4)
        b = rmat_edges(8, 1000, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self):
        a = rmat_edges(8, 1000, seed=4)
        b = rmat_edges(8, 1000, seed=5)
        assert not np.array_equal(a, b)

    def test_skewed_degree_distribution(self):
        e = rmat_edges(10, 20000, seed=6)
        deg = degrees_np(e)
        deg = deg[deg > 0]
        # R-MAT hubs: max degree far above the mean
        assert deg.max() > 10 * deg.mean()

    def test_invalid_probs_raise(self):
        with pytest.raises(ValueError):
            rmat_edges(5, 100, a=0.6, b=0.3, c=0.3)

    @pytest.mark.parametrize("scale,m", [(4, 50), (6, 300), (9, 4000)])
    def test_sizes(self, scale, m):
        e = rmat_edges(scale, m, seed=0)
        # self-loop removal may drop a few edges
        assert 0.8 * m <= len(e) <= m


class TestChungLu:
    def test_exact_edge_count(self):
        e = chung_lu(500, 3000, rho=2.2, seed=0)
        assert len(e) == 3000

    def test_no_self_loops(self):
        e = chung_lu(300, 2000, rho=2.0, seed=1)
        assert (e[:, 0] != e[:, 1]).all()

    def test_deterministic(self):
        np.testing.assert_array_equal(
            chung_lu(200, 1000, rho=2.5, seed=3), chung_lu(200, 1000, rho=2.5, seed=3)
        )

    def test_low_ids_are_hubs(self):
        e = chung_lu(1000, 20000, rho=1.8, seed=2)
        deg = degrees_np(e, 1000)
        assert deg[:10].mean() > deg[500:].mean() * 3

    @pytest.mark.parametrize("rho", [1.2, 1.8, 2.4, 3.0])
    def test_smaller_rho_more_skew(self, rho):
        e = chung_lu(2000, 30000, rho=rho, seed=5)
        deg = degrees_np(e, 2000).astype(float)
        # normalized max degree grows as rho shrinks; just check skew exists
        assert deg.max() > deg.mean()


class TestCommunityPowerlaw:
    def test_exact_edge_count(self):
        e = community_powerlaw(400, 3000, n_communities=10, seed=0)
        assert len(e) == 3000

    def test_no_self_loops(self):
        e = community_powerlaw(400, 3000, n_communities=10, seed=0)
        assert (e[:, 0] != e[:, 1]).all()

    def test_deterministic(self):
        a = community_powerlaw(300, 2000, n_communities=8, seed=9)
        b = community_powerlaw(300, 2000, n_communities=8, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_invalid_communities_raise(self):
        with pytest.raises(ValueError):
            community_powerlaw(100, 500, n_communities=0)

    def test_hub_pool_targets_hubs(self):
        # hub-mediated bridging: inter-community dst only in the top pool
        e = community_powerlaw(
            1000, 10000, n_communities=25, p_intra=0.9,
            hub_fraction=0.0, hub_pool_frac=0.01, seed=4,
        )
        deg = degrees_np(e, 1000)
        assert deg[:10].sum() > deg[-100:].sum()

    def test_shuffle_window_preserves_multiset(self):
        a = community_powerlaw(300, 2000, n_communities=8, shuffle_window=0, seed=5)
        b = community_powerlaw(300, 2000, n_communities=8, shuffle_window=64, seed=5)
        key = lambda x: sorted(map(tuple, x))
        assert key(a) == key(b)


class TestCatalog:
    def test_counts(self):
        assert len(ALL_REAL) == 11
        assert len(ALL_SYNTH) == 6
        assert len(SOCIAL_GRAPHS) == 4
        assert len(WEB_GRAPHS) == 7

    @pytest.mark.parametrize("name", ALL_REAL + ALL_SYNTH)
    def test_standin_generates(self, name):
        e = standin_edges(name, "test")
        assert len(e) > 100
        assert (e[:, 0] != e[:, 1]).all()

    @pytest.mark.parametrize("name", ALL_REAL)
    def test_shape_matches_spec(self, name):
        n_v, n_e = standin_shape(name, "test")
        e = standin_edges(name, "test")
        assert len(e) == n_e
        assert len(np.unique(e)) <= n_v * 1.05

    @pytest.mark.parametrize("preset", ["test", "bench", "full"])
    def test_preset_scaling(self, preset):
        _, n_e = standin_shape("LJ", preset)
        assert n_e >= 500

    def test_presets_ordered(self):
        sizes = [standin_shape("OK", p)[1] for p in ("test", "bench", "full")]
        assert sizes[0] < sizes[1] < sizes[2]

    @pytest.mark.parametrize("name", ALL_REAL + ALL_SYNTH)
    def test_deterministic(self, name):
        a = standin_edges(name, "test")
        b = standin_edges(name, "test")
        np.testing.assert_array_equal(a, b)

    def test_rmat_ladder_density_increases(self):
        e1 = standin_edges("G1", "test")
        e3 = standin_edges("G3", "test")
        assert len(e3) > len(e1)

    def test_paper_stats_transcribed(self):
        assert PAPER_GRAPHS["OK"]["rho"] == 2.13
        assert RMAT_GRAPHS["G6"]["e_full"] > RMAT_GRAPHS["G4"]["e_full"]


class TestTiny:
    def test_toy_graph_shape(self):
        e = toy_graph()
        assert len(e) == 14
        assert len(np.unique(e)) == 12

    def test_optimality_graph_shapes(self):
        shapes = {}
        for name in OPTIMALITY_GRAPHS:
            e = standin_edges(name)
            shapes[name] = (len(np.unique(e)), len(e))
        assert shapes == {"G_alpha": (7, 12), "G_beta": (8, 15), "G_gamma": (10, 12)}

    def test_optimality_graphs_deterministic(self):
        for name in OPTIMALITY_GRAPHS:
            # the paper fixes their shape, so the preset does not scale them
            np.testing.assert_array_equal(standin_edges(name), standin_edges(name, "test"))
