"""End-to-end tests for the S5P pipeline (numpy core + Spark entry)."""
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.baselines.api import PARTITIONERS, run_partitioner_spark
from repro.core.clustering import skewness_aware_clustering
from repro.core.game import stackelberg_game
from repro.core.postprocess import assign_edges, max_load
from repro.core.s5p import s5p_partition_np
from repro.core.stream import edges_to_df
from repro.core.theta import CMSTheta, ExactTheta
from repro.graphgen.catalog import standin_edges
from repro.metrics import (
    load_balance,
    load_balance_np,
    replication_factor,
    replication_factor_np,
)


@pytest.fixture(scope="module")
def lj():
    return standin_edges("LJ", "test")


class TestPipeline:
    @pytest.mark.parametrize("name", ["LJ", "IN", "OK", "G1", "G4"])
    @pytest.mark.parametrize("k", [4, 16])
    def test_valid_partitioning(self, name, k):
        e = standin_edges(name, "test")
        part, stats = s5p_partition_np(e, k)
        assert len(part) == len(e)
        assert 0 <= part.min() and part.max() < k
        assert stats.n_clusters > 0

    def test_equals_stages_composed(self, lj):
        k = 8
        cl = skewness_aware_clustering(lj, k)
        theta = CMSTheta()
        theta.add_pairs(*cl.cut_pairs)
        game = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, theta.pairs(), k
        )
        staged = assign_edges(cl.edge_cu, cl.edge_cv, cl.edge_is_head, game.c2p, k)
        part, _ = s5p_partition_np(lj, k)
        np.testing.assert_array_equal(part, staged)

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_balance_constraint(self, lj, k):
        part, _ = s5p_partition_np(lj, k)
        cap = max_load(len(lj), k)
        assert np.bincount(part, minlength=k).max() <= cap

    def test_deterministic(self, lj):
        a, _ = s5p_partition_np(lj, 8)
        b, _ = s5p_partition_np(lj, 8)
        np.testing.assert_array_equal(a, b)

    def test_stats_populated(self, lj):
        _, st = s5p_partition_np(lj, 8)
        assert st.n_vertices > 0
        assert st.n_edges == len(lj)
        assert st.n_head_clusters > 0
        assert st.game_converged
        assert st.delta > 0
        assert set(st.timings) == {"clustering", "theta", "game", "postprocess"}

    def test_cms_close_to_exact(self, lj):
        # Figure 9 flavor: the CMS trades ~nothing in RF
        p_cms, _ = s5p_partition_np(lj, 8, use_cms=True)
        p_exact, _ = s5p_partition_np(lj, 8, use_cms=False)
        rf_cms = replication_factor_np(lj, p_cms, 8)
        rf_exact = replication_factor_np(lj, p_exact, 8)
        assert abs(rf_cms - rf_exact) / rf_exact < 0.25

    def test_two_stage_at_least_as_good_on_web(self):
        # Figure 7(d): two-stage ≤ one-stage RF (allow small noise)
        e = standin_edges("IN", "test")
        p2, _ = s5p_partition_np(e, 16)
        p1, _ = s5p_partition_np(e, 16, one_stage=True)
        rf2 = replication_factor_np(e, p2, 16)
        rf1 = replication_factor_np(e, p1, 16)
        assert rf2 <= rf1 * 1.1

    def test_bounded_variant_runs(self, lj):
        part, st = s5p_partition_np(lj, 8, bounded=True)
        assert len(part) == len(lj)
        # S5P-B has no maxLoad → balance may exceed τ=1
        assert replication_factor_np(lj, part, 8) >= 1.0

    def test_beta_sensitivity_direction(self, lj):
        # Figure 12(a): RF is not wildly sensitive to β around 1
        rfs = []
        for beta in (0.5, 1.0, 2.0):
            p, _ = s5p_partition_np(lj, 8, beta=beta)
            rfs.append(replication_factor_np(lj, p, 8))
        assert max(rfs) / min(rfs) < 1.5

    def test_batch_parallel_quality_close(self, lj):
        p_seq, _ = s5p_partition_np(lj, 8, batch_size=1)
        p_par, _ = s5p_partition_np(lj, 8, batch_size=256)
        rf_seq = replication_factor_np(lj, p_seq, 8)
        rf_par = replication_factor_np(lj, p_par, 8)
        assert abs(rf_par - rf_seq) / rf_seq < 0.35

    def test_empty_rounds_cap(self, lj):
        _, st = s5p_partition_np(lj, 8, max_rounds=2)
        assert st.game_rounds <= 2


#: ``s5p_partition_np`` options per pinned variant.
VARIANTS = {
    "default": {},
    "bounded": dict(bounded=True),
    "one_stage": dict(one_stage=True),
    "use_cms=False": dict(use_cms=False),
    "tau=0.8": dict(tau=0.8),
}

#: (graph, preset, k, variant) -> first 16 hex digits of the SHA-256 of the
#: partition's and of ``GameResult.c2p``'s bytes. Pinned from the
#: numpy-scalar loops that the Python-list loops replaced; the ``bench``
#: cells stream more than one conversion chunk.
PINNED = {
    ("LJ", "test", 8, "default"): ("7fe4ccbb0e40460e", "9c5955cd11f8c48a"),
    ("LJ", "test", 8, "bounded"): ("34dcaf8b317a7e61", "641af5001577ba86"),
    ("LJ", "test", 8, "one_stage"): ("92411a52813d5e4f", "813911a19c74194d"),
    ("LJ", "test", 8, "use_cms=False"): ("b5ae51538a8abdaf", "a122273629ca93f3"),
    ("LJ", "test", 8, "tau=0.8"): ("353ed0b7874f571f", "9c5955cd11f8c48a"),
    ("LJ", "test", 64, "default"): ("09f3fa2aa0c46f20", "30ff8210c4fc4611"),
    ("LJ", "test", 64, "bounded"): ("34dcaf8b317a7e61", "641af5001577ba86"),
    ("LJ", "test", 64, "one_stage"): ("24950f8798290978", "168f5f28f3664d81"),
    ("LJ", "test", 64, "use_cms=False"): ("72722b46648ab28d", "4c0512ca3f3e8134"),
    ("LJ", "test", 64, "tau=0.8"): ("16f9ba38dee1e8ac", "30ff8210c4fc4611"),
    ("IN", "test", 8, "default"): ("2258f7a00a7ccf48", "2d725f5990cdb34f"),
    ("IN", "test", 8, "bounded"): ("ca9753de207a6012", "a6333c599706efb6"),
    ("IN", "test", 8, "one_stage"): ("f0b6982aa035c7d4", "47dbef7986c95593"),
    ("IN", "test", 8, "use_cms=False"): ("cb71fc259c4608f4", "421eb051823f866d"),
    ("IN", "test", 8, "tau=0.8"): ("d4ab26d0b16e568d", "2d725f5990cdb34f"),
    ("IN", "test", 64, "default"): ("9aaf18f1c472ee1d", "bcbf9a18c263483d"),
    ("IN", "test", 64, "bounded"): ("9f36442ace6fdf66", "e5600066854b10fb"),
    ("IN", "test", 64, "one_stage"): ("ff7036e5044d40c3", "65d280d386e3cca1"),
    ("IN", "test", 64, "use_cms=False"): ("5ed201a80d6fe692", "f30ac11d7ba455e2"),
    ("IN", "test", 64, "tau=0.8"): ("8371db03ba675baa", "bcbf9a18c263483d"),
    ("OK", "test", 8, "default"): ("4cd130fcc3f8ed4d", "fa976347a58c0aa3"),
    ("OK", "test", 8, "bounded"): ("bc2b98a86c68c912", "5db99eb3ff3889d9"),
    ("OK", "test", 8, "one_stage"): ("e6d5bd0d2e5d8341", "1a8344aab2240ee0"),
    ("OK", "test", 8, "use_cms=False"): ("1b92c7c34db6da24", "4cb3896f350d9dd4"),
    ("OK", "test", 8, "tau=0.8"): ("37864600bfc82772", "fa976347a58c0aa3"),
    ("OK", "test", 64, "default"): ("344af97ff9ebd644", "1bafb5187ca1e17b"),
    ("OK", "test", 64, "bounded"): ("bc2b98a86c68c912", "5db99eb3ff3889d9"),
    ("OK", "test", 64, "one_stage"): ("3574fe150bb33b83", "2daecbafc46154a6"),
    ("OK", "test", 64, "use_cms=False"): ("ab56ffb3b37efe68", "bf98ce8bbd3a41c5"),
    ("OK", "test", 64, "tau=0.8"): ("dc2f796c639117cc", "1bafb5187ca1e17b"),
    ("IN", "bench", 64, "default"): ("79ca87bb43753ace", "a9cfc79d17f21a63"),
    ("LJ", "bench", 64, "default"): ("fa5b5907ee9114a1", "fce07d72d9f55a26"),
}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


class TestBitIdentity:
    @pytest.mark.parametrize("name,preset,k,variant", sorted(PINNED))
    def test_pinned_digests(self, name, preset, k, variant):
        e = standin_edges(name, preset)
        kw = VARIANTS[variant]
        part, _ = s5p_partition_np(e, k, **kw)
        bounded = kw.get("bounded", False)
        cl = skewness_aware_clustering(
            e, k, kappa=np.inf if bounded else None, use_local_degrees=not bounded
        )
        theta = CMSTheta() if kw.get("use_cms", True) else ExactTheta()
        theta.add_pairs(*cl.cut_pairs)
        game = stackelberg_game(
            cl.n_clusters, cl.cluster_sizes, cl.cluster_is_head, theta.pairs(), k,
            one_stage=kw.get("one_stage", False),
        )
        assert (_digest(part), _digest(game.c2p)) == PINNED[name, preset, k, variant]


def _traced_peak(fn):
    """``fn()``'s result and the ``tracemalloc`` peak (bytes) of the call."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestRobustness:
    @pytest.mark.parametrize("name", ["S5P", "2PS-L", "CLUGP"])
    def test_sparse_vertex_id(self, name):
        # State is sized by the largest id: the Python-list state of the
        # clustering kernel must stay within what the numpy arrays it
        # replaced took (48.6 MiB for S5P).
        e = np.array([[0, 1], [1, 10**6], [2, 0]], dtype=np.int64)
        part, peak = _traced_peak(lambda: PARTITIONERS[name](e, 4))
        assert len(part) == len(e)
        assert 0 <= part.min() and part.max() < 4
        assert peak < 50 * 2**20

    def test_theta_peak_memory(self):
        # Θ is fed one stream chunk at a time, so the peak is one chunk's
        # gathers and codes beside the store: 1.33× the edge array on IN
        # bench at k=64, against 2.86× for one block of the whole stream.
        e = standin_edges("IN", "bench")
        cl = skewness_aware_clustering(e, 64)

        def feed():
            theta = CMSTheta()
            for cu, cv in cl.cut_pair_blocks():
                theta.add_pairs(cu, cv)

        _, peak = _traced_peak(feed)
        assert peak < 1.6 * e.nbytes

    def test_s5p_peak_memory(self):
        # Θ and Alg. 3 hold O(chunk) per-edge state, cluster sizes are
        # counted per vertex and cluster ids are int32: 1.40× the edge
        # array on LJ full at k=64, against 2.95× with whole-stream
        # gathers and int64 tables.
        e = standin_edges("LJ", "full")
        (part, _), peak = _traced_peak(lambda: s5p_partition_np(e, 64))
        assert len(part) == len(e)
        assert peak < 2.0 * e.nbytes

    def test_s5p_bench_peak_memory(self):
        # The spark-cell graph: 2.06× the edge array on IN bench at k=64
        # (the clustering pass's peak), against 3.54× with whole-stream
        # per-edge state after Alg. 1.
        e = standin_edges("IN", "bench")
        (part, _), peak = _traced_peak(lambda: s5p_partition_np(e, 64))
        assert len(part) == len(e)
        assert peak < 2.5 * e.nbytes

    def test_clugp_peak_memory(self):
        # CLUGP's peak is its one-stage game; the per-edge state before
        # and after it is O(chunk): 6.87× the edge array on LJ full at
        # k=64, against 7.41× with whole-stream gathers and int64 tables.
        e = standin_edges("LJ", "full")
        part, peak = _traced_peak(lambda: PARTITIONERS["CLUGP"](e, 64))
        assert len(part) == len(e)
        assert peak < 7.1 * e.nbytes

    def test_stage_peaks(self, lj):
        # Recorded only under tracemalloc, and never reset: a peak set
        # before the run stays in every stage's reading.
        _, stats = s5p_partition_np(lj, 8)
        assert stats.stage_peaks == {}
        held = 4 * 2**20

        def run():
            np.ones(held, dtype=np.uint8)  # allocated and freed before S5P
            return s5p_partition_np(lj, 8)

        (_, stats), peak = _traced_peak(run)
        peaks = list(stats.stage_peaks.values())
        assert list(stats.stage_peaks) == list(stats.timings)
        assert held <= peaks[0] and peaks == sorted(peaks) and peaks[-1] <= peak

    @pytest.mark.parametrize("use_cms", [True, False])
    def test_empty_stream(self, use_cms):
        empty = np.zeros((0, 2), dtype=np.int64)
        part, stats = s5p_partition_np(empty, 8, use_cms=use_cms)
        assert len(part) == 0 and part.dtype == np.int64
        assert stats.n_clusters == 0 and stats.theta_bytes >= 0
        assert len(PARTITIONERS["CLUGP"](empty, 8)) == 0

    def test_replication_factor_np_peak_memory(self):
        # One (vertex, partition) code per edge end and one sort of it:
        # 2.25× the edge array on IN full, against 4.25× for building
        # the codes from concatenated, widened copies of the columns.
        e = standin_edges("IN", "full")
        part, _ = s5p_partition_np(e, 64)
        rf, peak = _traced_peak(lambda: replication_factor_np(e, part, 64))
        assert rf > 1
        assert peak < 3.25 * e.nbytes

    @pytest.mark.parametrize("name", ["LJ", "IN", "OK"])
    def test_unused_ids_do_not_move_the_partition(self, name):
        # ξ = β·2|E|/|V| counts the vertices with an edge, so ids that
        # no edge uses do not lower it, nor the reported |V|.
        e = standin_edges(name, "test")
        part, stats = s5p_partition_np(e, 8)
        spread, spread_stats = s5p_partition_np(3 * e + 1, 8)
        np.testing.assert_array_equal(part, spread)
        assert stats.n_vertices == spread_stats.n_vertices == len(np.unique(e))


class TestSparkEntry:
    def test_assignment_dataframe(self, spark, lj):
        edges_df = edges_to_df(spark, lj)
        assign, stats = run_partitioner_spark(spark, edges_df, "S5P", 8)
        assert assign.columns == ["eid", "partition"]
        assert assign.count() == len(lj)
        assert stats.name == "S5P" and stats.k == 8

    def test_spark_metrics_match_numpy(self, spark, lj):
        edges_df = edges_to_df(spark, lj)
        assign, _ = run_partitioner_spark(spark, edges_df, "S5P", 8)
        part = assign.toPandas().sort_values("eid")["partition"].to_numpy()
        assert replication_factor(edges_df, assign) == pytest.approx(
            replication_factor_np(lj, part, 8)
        )
        assert load_balance(assign, 8) == pytest.approx(load_balance_np(part, 8))
