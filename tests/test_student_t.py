"""The stdlib Student-t against its oracles.

scipy (a dev dependency since the runtime stopped importing it) is the
oracle over the grid; the literals are 50-digit mpmath values, which is what
decides near ``p = ½`` where ``scipy.stats.t.ppf`` itself is 1.8e-10 off.
"""

import math

import pytest

from repro.analysis import welch_t
from repro.core import ConfigurationError
from repro.core.student_t import t_ppf, t_sf

DFS = [*range(1, 201), 500, 1000, 2499, 1e4, 1e5, 2.5, 7.3]
UPPER = [0.55, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.99999]
REL = 1e-12


class TestLiterals:
    @pytest.mark.parametrize("p, df, expected", [
        (0.975, 9, 2.262157162798205),
        (0.975, 119, 1.9800998764569395),
        (0.995, 2, 9.92484320091829),
        (0.975, 1e5, 1.9599877075346093),
        (0.5000001, 9, 2.5770877222914437e-07),
    ])
    def test_quantiles(self, p, df, expected):
        assert t_ppf(p, df) == pytest.approx(expected, rel=REL)

    def test_median_and_cauchy_closed_forms(self):
        assert t_ppf(0.5, 7) == 0.0
        assert t_sf(0.0, 7) == 0.5
        for p in (0.6, 0.75, 0.99, 0.99999):
            assert t_ppf(p, 1) == pytest.approx(
                1.0 / math.tan(math.pi * (1.0 - p)), rel=REL)
        assert t_sf(1e-6, 1) == pytest.approx(
            0.5 - math.atan(1e-6) / math.pi, rel=REL)

    def test_antisymmetric(self):
        for df in (1, 2.5, 9, 1e4):
            for p in UPPER:
                assert t_ppf(p, df) == -t_ppf(1.0 - p, df)
                t = t_ppf(p, df)
                assert t_sf(-t, df) == pytest.approx(1.0 - t_sf(t, df),
                                                     rel=REL)

    def test_monotone_in_p_and_df(self):
        ps = [1.0 - p for p in reversed(UPPER)] + [0.5] + UPPER
        for df in (1, 3, 30, 1e5):
            qs = [t_ppf(p, df) for p in ps]
            assert qs == sorted(qs) and len(set(qs)) == len(qs)
        for p in UPPER:  # heavier tails at smaller df
            qs = [t_ppf(p, df) for df in (1, 2, 2.5, 5, 30, 1000, 1e5)]
            assert qs == sorted(qs, reverse=True)

    def test_sf_inverts_ppf(self):
        for df in (1, 4, 60, 2499, 1e5):
            for p in UPPER:
                assert t_sf(t_ppf(p, df), df) == pytest.approx(1.0 - p,
                                                               rel=1e-11)


class TestAgainstScipy:
    def test_ppf_over_the_grid(self):
        t = pytest.importorskip("scipy.stats").t
        for df in DFS:
            for p in UPPER + [1.0 - p for p in UPPER]:
                assert t_ppf(p, df) == pytest.approx(float(t.ppf(p, df)),
                                                     rel=REL), (p, df)

    def test_sf_over_the_grid(self):
        t = pytest.importorskip("scipy.stats").t
        for df in DFS:
            for x in (1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0):
                for signed in (x, -x):
                    assert t_sf(signed, df) == pytest.approx(
                        float(t.sf(signed, df)), rel=REL), (signed, df)
            # scipy's own sf is 3e-11 off this close to the median (see the
            # Cauchy closed form above), so it is the looser side here
            assert t_sf(1e-6, df) == pytest.approx(float(t.sf(1e-6, df)),
                                                   rel=1e-10)

    def test_welch_matches_ttest_ind(self):
        stats = pytest.importorskip("scipy.stats")
        import numpy as np

        rng = np.random.default_rng(2009)
        for a, b in [(rng.normal(0.0, 1.0, 30), rng.normal(0.3, 2.0, 45)),
                     (rng.normal(5.0, 1.0, 10), rng.normal(5.0, 1.0, 10)),
                     ([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 9.0, 12.0])]:
            ref = stats.ttest_ind(a, b, equal_var=False)
            t, p = welch_t(a, b)
            assert t == pytest.approx(float(ref.statistic), rel=REL)
            assert p == pytest.approx(float(ref.pvalue), rel=REL)


def test_out_of_range_inputs_raise():
    # Tally / t_quantile / welch_t are covered where they live
    # (test_campaign.py, test_analysis.py)
    for p, df in [(0.0, 9), (1.0, 9), (math.nan, 9), (0.975, 0.5)]:
        with pytest.raises(ConfigurationError):
            t_ppf(p, df)
    with pytest.raises(ConfigurationError):
        t_sf(1.0, 0)
