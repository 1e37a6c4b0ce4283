import numpy as np
import pytest

from gpgmc.diagnostics import ess, summarize


class TestESS:
    def test_iid_chain(self):
        rng = np.random.default_rng(1)
        chain = rng.standard_normal((10_000, 2))
        vals, flags = ess(chain)
        assert not flags.any()
        assert np.all(vals >= 8000) and np.all(vals <= 12_000)

    def test_ar1_matches_analytic_value(self):
        rng = np.random.default_rng(1)
        B, phi = 50_000, 0.5
        x = np.empty(B)
        x[0] = rng.standard_normal()
        eps = rng.standard_normal(B)
        for t in range(1, B):
            x[t] = phi * x[t - 1] + eps[t]
        vals, _ = ess(x[:, None])
        assert abs(vals[0] - B / 3) / (B / 3) < 0.15

    def test_constant_coordinate_flagged(self):
        chain = np.column_stack([np.ones(500), np.random.default_rng(2).standard_normal(500)])
        vals, flags = ess(chain)
        assert vals[0] == 1.0 and flags[0]
        assert not flags[1]

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        chain = np.cumsum(rng.standard_normal((5000, 2)), axis=0) * 0.1 \
            + rng.standard_normal((5000, 2))
        a, _ = ess(chain)
        b, _ = ess(chain * np.array([17.0, -0.03]) + np.array([5.0, -2.0]))
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_thinning_iid_halves_ess(self):
        rng = np.random.default_rng(4)
        chain = rng.standard_normal((20_000, 1))
        full, _ = ess(chain)
        half, _ = ess(chain[::2])
        assert abs(half[0] - full[0] / 2) / (full[0] / 2) < 0.2

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            ess(np.zeros((5, 2)))


class TestSummarize:
    def test_self_baseline_speedup_is_one(self):
        rng = np.random.default_rng(8)
        chain = rng.standard_normal((5000, 2))
        base = summarize(chain, 2.0, 0.5)
        summary = summarize(chain, 2.0, 0.5, baseline=base)
        assert summary.speedup == pytest.approx(1.0)

    def test_schema_fields(self):
        rng = np.random.default_rng(9)
        summary = summarize(rng.standard_normal((1000, 3)), 4.0, 0.7)
        row = summary.row()
        assert list(row.keys()) == ["AP", "s/iter", "ESS_min", "ESS_med",
                                    "ESS_max", "minESS/s", "spdup"]
        assert summary.min_ess_per_sec == pytest.approx(summary.ess_min / 4.0)
        assert summary.ess_min <= summary.ess_med <= summary.ess_max

    def test_degenerate_single_sample(self):
        summary = summarize(np.zeros((1, 2)), 0.0, 1.0)
        assert summary.ess_min == 1.0
        assert summary.ess_flagged
