"""Tests for the Section-2.3 skewness metrics (Table 2 machinery)."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.stream import edges_to_df
from repro.graphgen.catalog import standin_edges
from repro.graphgen.powerlaw import chung_lu
from repro.skew.metrics import (
    pearson_skew,
    planarization_rho3,
    regression_rho,
    skewness_metrics,
)


class TestRegressionRho:
    def test_recovers_generator_exponent_roughly(self):
        e = chung_lu(20000, 200000, rho=2.2, seed=0)
        from repro.core.stream import degrees_np

        rho = regression_rho(degrees_np(e))
        assert 1.2 < rho < 3.2

    def test_monotone_in_generator_rho(self):
        from repro.core.stream import degrees_np

        rhos = []
        for r in (1.5, 2.5):
            e = chung_lu(20000, 200000, rho=r, seed=1)
            rhos.append(regression_rho(degrees_np(e)))
        assert rhos[0] < rhos[1]

    def test_degenerate_returns_nan(self):
        assert np.isnan(regression_rho(np.array([3, 3, 3])))

    def test_same_bits_in_fresh_processes(self):
        # Spark hands the degree vector over in no fixed order: each
        # process fits a differently shuffled copy of it.
        src = str(Path(regression_rho.__code__.co_filename).parents[2])
        code = (
            "import sys; import numpy as np\n"
            "from repro.core.stream import degrees_np\n"
            "from repro.graphgen.catalog import standin_edges\n"
            "from repro.skew.metrics import regression_rho\n"
            "deg = degrees_np(standin_edges('OK', 'bench'))\n"
            "deg = np.random.default_rng(int(sys.argv[1])).permutation(deg)\n"
            "print(regression_rho(deg).hex())\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        bits = [
            subprocess.run(
                [sys.executable, "-c", code, str(seed)],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for seed in (0, 1)
        ]
        assert bits[0] == bits[1] != ""


class TestPearson:
    def test_symmetric_distribution_zeroish(self):
        g = np.random.default_rng(0)
        d = g.normal(100, 10, 10000).round().astype(int)
        rho1, rho2 = pearson_skew(d)
        assert abs(rho2) < 0.2

    def test_right_skewed_positive(self):
        d = np.concatenate([np.ones(1000), np.full(10, 1000)]).astype(int)
        rho1, rho2 = pearson_skew(d)
        assert rho1 > 0 and rho2 > 0

    def test_constant_degrees_zero(self):
        assert pearson_skew(np.full(10, 5)) == (0.0, 0.0)


class TestRho3:
    def test_formula(self):
        assert planarization_rho3(10, 50) == 50 - 24
        # a sparse graph can have negative planarization skewness
        assert planarization_rho3(100, 50) < 0


class TestSparkMetrics:
    def test_skewness_metrics_on_standin(self, spark):
        e = standin_edges("LJ", "test")
        m = skewness_metrics(edges_to_df(spark, e))
        assert m["n_edges"] == len(e)
        assert m["n_vertices"] == len(np.unique(e))
        assert m["rho"] > 0
        assert m["rho3"] == planarization_rho3(m["n_vertices"], m["n_edges"])

    def test_social_more_pearson_skew_than_uniformish(self, spark):
        g = np.random.default_rng(3)
        uniform = np.stack(
            [g.integers(0, 500, 4000), g.integers(0, 500, 4000)], axis=1
        )
        uniform = uniform[uniform[:, 0] != uniform[:, 1]]
        m_u = skewness_metrics(edges_to_df(spark, uniform))
        m_s = skewness_metrics(edges_to_df(spark, standin_edges("OK", "test")))
        assert m_s["rho2"] > m_u["rho2"]
