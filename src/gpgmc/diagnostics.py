"""Chain quality metrics: effective sample size and the summary table row.

ESS uses the initial-monotone-positive-sequence truncation of the summed
autocorrelations: paired autocovariances are accumulated until the first
negative pair and enforced non-increasing.  All functions are pure and
operate on completed chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ess", "ChainSummary", "summarize"]


def _autocov(x: np.ndarray) -> np.ndarray:
    n = x.size
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real
    return acov / n


def ess(chain: np.ndarray):
    """Per-dimension effective sample size of a (B, D) chain.

    Returns ``(ess, constant_flags)``; a constant coordinate gets ESS 1 and a
    raised flag.  Values are clamped to [1, B].
    """
    chain = np.atleast_2d(np.asarray(chain, dtype=float))
    if chain.ndim == 2 and chain.shape[0] == 1 and chain.shape[1] > 1:
        chain = chain.T
    B, dim = chain.shape
    if B < 10:
        raise ValueError("need at least 10 samples for an ESS estimate")
    out = np.empty(dim)
    flags = np.zeros(dim, dtype=bool)
    for d in range(dim):
        acov = _autocov(chain[:, d])
        if acov[0] <= 0:
            out[d] = 1.0
            flags[d] = True
            continue
        rho = acov / acov[0]
        # paired sums rho_{2k} + rho_{2k+1}, truncated at first negative,
        # then enforced monotone non-increasing
        pairs = []
        k = 0
        while 2 * k + 1 < B:
            g = rho[2 * k] + rho[2 * k + 1]
            if g <= 0:
                break
            pairs.append(g)
            k += 1
        running = np.inf
        total = 0.0
        for g in pairs:
            running = min(running, g)
            total += running
        tau = max(2.0 * total - 1.0, 1e-12)
        out[d] = min(max(B / tau, 1.0), float(B))
    return out, flags


@dataclass
class ChainSummary:
    """Table row: acceptance, cost per step, ESS spread, efficiency, speedup."""

    acceptance: float
    sec_per_iter: float
    ess_min: float
    ess_med: float
    ess_max: float
    min_ess_per_sec: float
    wall_seconds: float
    ess_flagged: bool = False
    speedup: float | None = None

    def row(self) -> dict:
        return {
            "AP": self.acceptance,
            "s/iter": self.sec_per_iter,
            "ESS_min": self.ess_min,
            "ESS_med": self.ess_med,
            "ESS_max": self.ess_max,
            "minESS/s": self.min_ess_per_sec,
            "spdup": self.speedup if self.speedup is not None else 1.0,
        }


def summarize(chain: np.ndarray, wall_seconds: float, acceptance: float,
              baseline: ChainSummary | None = None) -> ChainSummary:
    """Efficiency summary of a finished chain (optionally vs a baseline)."""
    chain = np.atleast_2d(np.asarray(chain, dtype=float))
    B = chain.shape[0]
    if B < 10:
        # too short for an autocorrelation estimate; degenerate summary
        ess_vals = np.ones(max(chain.shape[1], 1))
        flags = np.ones_like(ess_vals, dtype=bool)
    else:
        ess_vals, flags = ess(chain)
    min_ess = float(ess_vals.min())
    per_sec = min_ess / wall_seconds if wall_seconds > 0 else float("nan")
    summary = ChainSummary(
        acceptance=float(acceptance),
        sec_per_iter=wall_seconds / B if B else float("nan"),
        ess_min=min_ess,
        ess_med=float(np.median(ess_vals)),
        ess_max=float(ess_vals.max()),
        min_ess_per_sec=per_sec,
        wall_seconds=float(wall_seconds),
        ess_flagged=bool(flags.any()),
    )
    if baseline is not None and np.isfinite(baseline.min_ess_per_sec) \
            and baseline.min_ess_per_sec > 0:
        summary.speedup = summary.min_ess_per_sec / baseline.min_ess_per_sec
    return summary
