"""Tests for the Θ stores (exact vs CMS-backed inter-cluster counts)."""
import numpy as np
import pytest

from repro.core.theta import CMSTheta, ExactTheta, decode_pairs, pair_codes
from repro.sketch.cms import CountMinSketch


class TestPairCodes:
    def test_unordered(self):
        a = pair_codes(np.array([3]), np.array([7]))
        b = pair_codes(np.array([7]), np.array([3]))
        assert a[0] == b[0]

    def test_roundtrip(self):
        lo, hi = decode_pairs(pair_codes(np.array([3, 10]), np.array([7, 2])))
        np.testing.assert_array_equal(lo, [3, 2])
        np.testing.assert_array_equal(hi, [7, 10])

    def test_distinct_pairs_distinct_codes(self):
        ci = np.array([1, 1, 2, 5])
        cj = np.array([2, 3, 3, 6])
        assert len(np.unique(pair_codes(ci, cj))) == 4


class TestExactTheta:
    def test_counts(self):
        th = ExactTheta()
        th.add_pairs(np.array([1, 1, 2]), np.array([2, 2, 1]))
        assert th.query(1, 2) == 3
        assert th.query(2, 1) == 3

    def test_missing_pair_zero(self):
        th = ExactTheta()
        th.add_pairs(np.array([1]), np.array([2]))
        assert th.query(3, 4) == 0

    def test_incremental_adds(self):
        th = ExactTheta()
        th.add_pairs(np.array([1]), np.array([2]))
        th.add_pairs(np.array([2]), np.array([1]))
        assert th.query(1, 2) == 2

    def test_pairs_listing(self):
        th = ExactTheta()
        th.add_pairs(np.array([5, 1]), np.array([2, 9]))
        lo, hi, w = th.pairs()
        assert set(zip(lo, hi)) == {(2, 5), (1, 9)}
        assert (w == 1).all()


class TestCMSTheta:
    def test_never_underestimates_exact(self):
        g = np.random.default_rng(0)
        ci = g.integers(0, 50, 2000)
        cj = g.integers(0, 50, 2000)
        keep = ci != cj
        ci, cj = ci[keep], cj[keep]
        exact = ExactTheta()
        approx = CMSTheta(eps=0.01, nu=0.01)
        exact.add_pairs(ci, cj)
        approx.add_pairs(ci, cj)
        _, _, we = exact.pairs()
        _, _, wa = approx.pairs()
        assert (wa >= we).all()

    def test_same_pair_set_as_exact(self):
        ci = np.array([1, 3, 1])
        cj = np.array([2, 4, 2])
        exact, approx = ExactTheta(), CMSTheta()
        exact.add_pairs(ci, cj)
        approx.add_pairs(ci, cj)
        le, he, _ = exact.pairs()
        la, ha, _ = approx.pairs()
        assert set(zip(le, he)) == set(zip(la, ha))

    def test_query_matches_pairs(self):
        g = np.random.default_rng(3)
        th = CMSTheta()
        th.add_pairs(g.integers(0, 40, 2000), g.integers(40, 80, 2000))
        for lo, hi, w in zip(*th.pairs()):
            assert th.query(int(hi), int(lo)) == w
        # every sketch cell is non-zero, so only the seen-pair lookup gives 0
        assert th.query(1000, 1001) == 0

    def test_sketch_equals_per_insert_feed(self):
        # CMS linearity: posting each batch's distinct pairs with their
        # counts leaves the same table as hashing every insert singly
        g = np.random.default_rng(4)
        batches = [(g.integers(0, 30, 3000), g.integers(30, 60, 3000)) for _ in range(2)]
        th, exact = CMSTheta(eps=0.05, nu=0.01, seed=11), ExactTheta()
        ref = CountMinSketch(eps=0.05, nu=0.01, seed=11)
        for ci, cj in batches:
            th.add_pairs(ci, cj)
            exact.add_pairs(ci, cj)
            ref.add_batch(pair_codes(ci, cj))
        np.testing.assert_array_equal(th.cms.table, ref.table)
        assert th.cms.total == ref.total == 6000
        lo, hi, _ = th.pairs()
        le, he, _ = exact.pairs()
        np.testing.assert_array_equal(lo, le)
        np.testing.assert_array_equal(hi, he)

    def test_cms_memory_constant(self):
        # the count table never grows with the number of pairs
        th = CMSTheta(eps=0.1, nu=0.01)
        base = th.nbytes
        g = np.random.default_rng(1)
        th.add_pairs(g.integers(0, 1000, 5000), g.integers(1000, 2000, 5000))
        assert th.nbytes == base

    def test_exact_memory_grows(self):
        th = ExactTheta()
        g = np.random.default_rng(1)
        th.add_pairs(g.integers(0, 1000, 500), g.integers(1000, 2000, 500))
        base = th.nbytes
        th.add_pairs(g.integers(2000, 3000, 500), g.integers(3000, 4000, 500))
        assert th.nbytes > base

    def test_cms_formal_guarantee(self):
        # per-query overestimate ≤ ε·N with probability ≥ 1-ν
        g = np.random.default_rng(2)
        ci = g.integers(0, 200, 20000)
        cj = g.integers(0, 200, 20000)
        keep = ci != cj
        ci, cj = ci[keep], cj[keep]
        exact, approx = ExactTheta(), CMSTheta(eps=0.1, nu=0.01)
        exact.add_pairs(ci, cj)
        approx.add_pairs(ci, cj)
        _, _, we = exact.pairs()
        _, _, wa = approx.pairs()
        n = approx.cms.total
        frac_violating = ((wa - we) > 0.1 * n).mean()
        assert frac_violating <= 0.02  # 2·ν slack
