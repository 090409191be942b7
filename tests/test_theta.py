"""Tests for the Θ stores (exact vs CMS-backed inter-cluster counts)."""
import numpy as np
import pytest

from repro.core.theta import CMSTheta, ExactTheta, decode_pairs, pair_codes


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


def _counts(th) -> dict[tuple[int, int], int]:
    """The store's Θ counts by (lower, higher) cluster id, read from pairs()."""
    return {(int(lo), int(hi)): int(w) for lo, hi, w in zip(*th.pairs())}


class TestExactTheta:
    def test_counts(self):
        # (2, 1) and (1, 2) are one unordered pair
        th = ExactTheta()
        th.add_pairs(np.array([1, 1, 2]), np.array([2, 2, 1]))
        assert _counts(th) == {(1, 2): 3}

    def test_missing_pair_zero(self):
        th = ExactTheta()
        th.add_pairs(np.array([1]), np.array([2]))
        assert _counts(th).get((3, 4), 0) == 0

    def test_incremental_adds(self):
        th = ExactTheta()
        th.add_pairs(np.array([1, 5]), np.array([2, 6]))
        th.add_pairs(np.array([2, 0]), np.array([1, 3]))
        assert _counts(th) == {(0, 3): 1, (1, 2): 2, (5, 6): 1}

    def test_batches_equal_one_batch(self):
        # merging each batch's distinct pairs keeps the exact counts of
        # posting every pair at once
        g = np.random.default_rng(5)
        ci, cj = g.integers(0, 30, 3000), g.integers(0, 30, 3000)
        whole, parts = ExactTheta(), ExactTheta()
        whole.add_pairs(ci, cj)
        for block in np.array_split(np.arange(3000), 4):
            parts.add_pairs(ci[block], cj[block])
        for a, b in zip(whole.pairs(), parts.pairs()):
            np.testing.assert_array_equal(a, b)

    def test_pairs_listing(self):
        th = ExactTheta()
        th.add_pairs(np.array([5, 1]), np.array([2, 9]))
        lo, hi, w = th.pairs()
        assert set(zip(lo, hi)) == {(2, 5), (1, 9)}
        assert (w == 1).all()


def _per_insert_cms(th: CMSTheta, inserts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Reference CMS with ``th``'s hash rows: every insert is posted singly,
    and each key's estimate is the minimum of its cells.

    Row r maps x to ((a_r·x + b_r) mod 2^64) mod (2^61 − 1) mod w, the
    uint64 wrap-around written out in Python integers.
    """
    rows = [(int(a), int(b)) for a, b in zip(th._a, th._b)]

    def cells(x: int) -> list[int]:
        return [((a * x + b) % 2**64) % (2**61 - 1) % th.width for a, b in rows]

    table = np.zeros((th.depth, th.width), dtype=np.int64)
    for x in inserts.tolist():
        for r, c in enumerate(cells(x)):
            table[r, c] += 1
    return np.array([min(table[r, c] for r, c in enumerate(cells(x))) for x in keys.tolist()])


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

    def test_sketch_equals_per_insert_feed(self):
        # CMS linearity: hashing each stored (pair, count) entry once
        # gives the same estimates as a sketch fed every insert singly
        g = np.random.default_rng(4)
        batches = [(g.integers(0, 30, 3000), g.integers(30, 60, 3000)) for _ in range(2)]
        th, exact = CMSTheta(eps=0.05, nu=0.01, seed=11), ExactTheta()
        for ci, cj in batches:
            th.add_pairs(ci, cj)
            exact.add_pairs(ci, cj)
        inserts = np.concatenate([pair_codes(ci, cj) for ci, cj in batches])
        lo, hi, w = th.pairs()
        le, he, _ = exact.pairs()
        np.testing.assert_array_equal(lo, le)
        np.testing.assert_array_equal(hi, he)
        np.testing.assert_array_equal(w, _per_insert_cms(th, inserts, pair_codes(lo, hi)))

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
        n = len(ci)
        frac_violating = ((wa - we) > 0.1 * n).mean()
        assert frac_violating <= 0.02  # 2·ν slack
