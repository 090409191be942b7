"""Tests for the Count-Min Sketch behind :class:`CMSTheta` (paper
parameterization, error bounds against the exact counts)."""
import numpy as np
import pytest

from repro.core.theta import CMSTheta, ExactTheta


def _feed(th, ci, cj, batches=1) -> np.ndarray:
    """Post (ci, cj) to ``th`` in ``batches`` blocks; return its Θ weights."""
    for block in np.array_split(np.arange(len(ci)), batches):
        th.add_pairs(ci[block], cj[block])
    return th.pairs()[2]


def _random_pairs(seed: int, n_clusters: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    g = np.random.default_rng(seed)
    ci, cj = g.integers(0, n_clusters, n), g.integers(0, n_clusters, n)
    keep = ci != cj
    return ci[keep], cj[keep]


class TestParameterization:
    def test_paper_config_dimensions(self):
        # Section 4.4: eps=0.1, nu=0.01 → w=⌈e/0.1⌉, d=⌈ln 100⌉
        th = CMSTheta(eps=0.1, nu=0.01)
        assert th.width == 28  # ceil(e/0.1) = ceil(27.18)
        assert th.depth == 5   # ceil(ln 100) = ceil(4.6)

    @pytest.mark.parametrize("eps,w", [(0.5, 6), (0.1, 28), (0.01, 272)])
    def test_width_formula(self, eps, w):
        assert CMSTheta(eps=eps).width == w

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_params_raise(self, bad):
        with pytest.raises(ValueError):
            CMSTheta(eps=bad)
        with pytest.raises(ValueError):
            CMSTheta(nu=bad)

    def test_memory_footprint_is_w_x_d(self):
        th = CMSTheta(eps=0.1, nu=0.01)
        assert th.nbytes == th.width * th.depth * 8


class TestCounting:
    def test_never_underestimates(self):
        ci, cj = _random_pairs(0, 60, 5000)
        est = _feed(CMSTheta(eps=0.01, nu=0.01), ci, cj, batches=5)
        assert (est >= _feed(ExactTheta(), ci, cj)).all()

    def test_error_bound_holds_for_most_keys(self):
        # overestimate ≤ eps·N for at least a 1 − 2·nu share of the pairs
        ci, cj = _random_pairs(1, 150, 20000)
        est = _feed(CMSTheta(eps=0.05, nu=0.01), ci, cj, batches=4)
        overshoot = est - _feed(ExactTheta(), ci, cj)
        assert (overshoot > 0.05 * len(ci)).mean() <= 0.02

    def test_empty_batch_noop(self):
        th = CMSTheta()
        th.add_pairs(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        lo, hi, w = th.pairs()
        assert len(lo) == len(hi) == len(w) == 0

    def test_deterministic_given_seed(self):
        ci, cj = _random_pairs(3, 40, 2000)
        a = _feed(CMSTheta(seed=5), ci, cj)
        b = _feed(CMSTheta(seed=5), ci, cj)
        np.testing.assert_array_equal(a, b)

    def test_smaller_eps_smaller_error(self):
        ci, cj = _random_pairs(2, 300, 50000)
        exact = _feed(ExactTheta(), ci, cj)
        errs = [float((_feed(CMSTheta(eps=eps), ci, cj) - exact).mean()) for eps in (0.5, 0.05)]
        assert errs[1] <= errs[0]
