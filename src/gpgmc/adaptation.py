"""Online refinement of the emulator design via regenerative adaptation.

The chain alternates emulator-driven geometric steps with an independence
sampler whose proposal is a Gaussian mixture over the design points.  The
independence kernel is split as T = S*Q + (1-S)*R; whenever the Bernoulli
regeneration indicator fires, the design may be refreshed from the finished
tour with a greedy mutual-information criterion, the emulator and proposal
rebuilt, and the next state drawn from Q, all without disturbing the target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cholesky, qr, solve_triangular, LinAlgError
from scipy.special import logsumexp

from . import kernels, samplers
from .emulator import (DesignSet, Emulator, Hyperparameters, NUGGET_DEFAULT,
                       build_emulator, per_datum_gram)
from .errors import (AllDegenerate, IllConditioned, OptimFailed,
                     RejectionBudgetExhausted, TooFewPoints)
from .geometry import EmulatedGeometry
from .mle import fit_hyperparameters

__all__ = ["GaussianMixtureProposal", "build_mixture_proposal", "regen_log_prob",
           "regen_prob", "sample_Q", "maxmin_filter", "mice_select",
           "mice_refine", "MICEConfig", "RegenSchedule", "CandidatePool",
           "AdaptiveGPeSampler"]

LOG2PI = np.log(2.0 * np.pi)
# tour points set aside to score a refreshed design, and the most tour
# points offered to MICE as candidates
HOLDOUT_SIZE = 20
POOL_CAP = 200
# chain log(pi/q) values whose median is the split constant of a probe
PROBE_WINDOW = 25


# -- independence proposal -------------------------------------------------

class GaussianMixtureProposal:
    """Mixture of Gaussians centred at design points.

    Component precisions are the sampler's metric at the centres (Fisher
    matrix plus prior precision); the mixture weights are the relative
    posterior probabilities exp(-U) of the centres, normalized by
    log-sum-exp.
    """

    def __init__(self, centers: np.ndarray, precisions: np.ndarray,
                 potentials: np.ndarray):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.precisions = np.asarray(precisions, dtype=float)
        neg_u = -np.asarray(potentials, dtype=float)
        self.log_weights = neg_u - logsumexp(neg_u)
        self._chols = np.stack([cholesky(P, lower=True) for P in self.precisions])
        self._logdets = 2.0 * np.log(
            np.diagonal(self._chols, axis1=1, axis2=2)).sum(axis=1)

    @property
    def n_components(self) -> int:
        return self.centers.shape[0]

    def logpdf(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        dim = theta.size
        diff = theta[None, :] - self.centers
        quad = np.einsum("ni,nij,nj->n", diff, self.precisions, diff)
        comps = self.log_weights + 0.5 * self._logdets - 0.5 * dim * LOG2PI \
            - 0.5 * quad
        return float(logsumexp(comps))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        i = rng.choice(self.n_components, p=np.exp(self.log_weights))
        z = rng.standard_normal(self.centers.shape[1])
        # precision = L L' so covariance = L^-T L^-1 and x = c + L^-T z
        return self.centers[i] + solve_triangular(self._chols[i].T, z, lower=False)


def build_mixture_proposal(emulator: Emulator,
                           precision_floor: np.ndarray) -> GaussianMixtureProposal:
    """Mixture proposal over the emulator's design points.

    Centre precisions are the empirical Fisher matrices at the design points
    (exact slices of the generalized Fisher matrix when the design carries
    per-datum gradients, emulated otherwise) plus ``precision_floor``, the
    prior precision, as in the sampler metric: a rank-deficient Fisher
    matrix alone would give the component near-infinite spread along its
    null space and the independence kernel would never accept.
    """
    design = emulator.design
    dim = design.dim
    n = design.n
    if design.gfi is not None and design.has_gradients:
        # the gradient rows of point i are n + k n + i, k < D
        rows = n + n * np.arange(dim) + np.arange(n)[:, None]
        efis = design.gfi[rows[:, :, None], rows[:, None, :]]
    elif design.gfi is not None:
        efis = emulator.predict_efi(design.points)
    else:
        raise AllDegenerate("design carries no per-datum information for precisions")
    precisions = 0.5 * (efis + efis.transpose(0, 2, 1)) + precision_floor
    return GaussianMixtureProposal(design.points, precisions, design.potentials)


# -- regeneration ------------------------------------------------------------

def regen_log_prob(log_w_t: float, log_w_t1: float, log_c: float) -> float:
    """Log regeneration probability for an accepted independence move.

    ``log_w`` values are log(pi_unnorm/q) at the old and new states.  The
    split-kernel construction guarantees the result is <= 0; a tiny positive
    float residue is clamped.
    """
    log_r = min(0.0, log_c - log_w_t) + min(0.0, log_w_t1 - log_c) \
        - min(0.0, log_w_t1 - log_w_t)
    return min(0.0, log_r)


def regen_prob(log_pi_t, log_q_t, log_pi_t1, log_q_t1, log_c) -> float:
    """Regeneration probability r in [0, 1] from log densities."""
    return float(np.exp(regen_log_prob(log_pi_t - log_q_t,
                                       log_pi_t1 - log_q_t1, log_c)))


def sample_Q(rng: np.random.Generator, log_pi_fn, proposal: GaussianMixtureProposal,
             log_c: float, max_tries: int = 500):
    """Draw from the regeneration kernel Q by rejection from the proposal.

    Accepts a draw theta ~ q with probability min{1, pi(theta)/(c q(theta))}.
    Returns ``(theta, log_pi, n_tries)``; raises RejectionBudgetExhausted when
    the budget runs out (the constant c was badly chosen).
    """
    for tries in range(1, max_tries + 1):
        theta = proposal.sample(rng)
        log_pi = log_pi_fn(theta)
        log_acc = log_pi - log_c - proposal.logpdf(theta)
        if np.log(rng.random()) < min(0.0, log_acc):
            return theta, log_pi, tries
    raise RejectionBudgetExhausted(f"no Q draw accepted in {max_tries} tries")


# -- candidate management ------------------------------------------------

def maxmin_filter(candidates: np.ndarray, radius: float,
                  existing: np.ndarray | None = None) -> np.ndarray:
    """Greedy distance filter; returns indices of retained candidates.

    A candidate survives iff it is farther than ``radius`` from every point
    kept so far and from every existing design point.  Deterministic in the
    input order.  Each kept point strikes out, in one vectorized pass, the
    later candidates within ``radius`` of it.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    free = np.ones(candidates.shape[0], dtype=bool)
    if existing is not None:
        for p in np.atleast_2d(existing):
            free &= _row_norms(candidates - p) > radius
    kept: list[int] = []
    for j in range(candidates.shape[0]):
        if free[j]:
            kept.append(j)
            free[j + 1:] &= _row_norms(candidates[j + 1:] - candidates[j]) > radius
    return np.array(kept, dtype=int)


def _row_norms(diff):
    """Euclidean norm of each row, bitwise ``np.linalg.norm`` of that row:
    one dot product per row through matmul, as ``norm`` takes for a vector
    (``norm(..., axis=1)`` sums the squares in another order)."""
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


# -- MICE ------------------------------------------------------------------

# the smoothing nugget of the candidate set in MICE denominators
CAND_NUGGET = 1e-4


@dataclass
class MICEConfig:
    init_keep: int = 5
    maxmin_radius: float = 0.2
    max_size: int = 40


def _first_copies(points):
    """Index of each row's first exact copy, and the number of distinct rows."""
    _, first, inverse = np.unique(points, axis=0, return_index=True,
                                  return_inverse=True)
    return first[inverse.reshape(-1)], first.size


def _kriging_variances(points, rho, nugget, eval_points=None):
    """Unscaled kriging variances of value observations at ``points``, from
    one factorization of the set.

    With ``eval_points``, the variance at each of them given the whole set;
    without, entry j is the variance at point j given the others.  With
    K = L L' the correlation of the set plus ``nugget`` on its diagonal,
    W = L^-1 H its basis and v = L^-1 k(x):

    * given the set, the variance is 1 - |v|^2 + |R^-T (h(x) - W'v)|^2,
      with W = Q_W R a QR factorization (H' K^-1 H = R'R);
    * given the others, the variance of point j plus the nugget is 1/Q_jj
      (Rasmussen & Williams 2006, sec. 5.4.2), with Q_jj the squared norm
      of column j of Z' L^-1 and Z an orthonormal basis of the complement
      of W (the trailing columns of Q_W).

    Sums of squares keep both accurate where the basis Gram is near
    singular.  Simple kriging (no |R^-T ...|^2 term, Q_jj the squared norm
    of column j of L^-1) applies when the conditioning set has fewer than
    q + 1 points or fewer than q distinct ones, or when W'W does not
    factorize.  Raises LinAlgError when K does not factorize, which needs a
    zero nugget.
    """
    m, dim = points.shape
    q = 1 + 2 * dim
    loo = eval_points is None
    if loo and m == 1:
        return np.array([1.0 + nugget])  # nothing to condition on
    K = kernels.tilde_corr(points, rho, False)
    K[np.diag_indices_from(K)] += nugget
    L = cholesky(K, lower=True)
    rep, n_distinct = _first_copies(points)
    if loo:
        # leaving out a point without a copy leaves one distinct point fewer
        n_cond, n_distinct = m - 1, n_distinct - (np.bincount(rep)[rep] == 1)
        V = solve_triangular(L, np.eye(m), lower=True)  # L^-1
        var = np.einsum("ij,ij->j", V, V)  # Q_jj
    else:
        n_cond = m
        V = solve_triangular(L, kernels.cross_corr(eval_points, 0, points, rho,
                                                   False).T, lower=True)
        var = 1.0 - np.einsum("ij,ij->j", V, V)
    if n_cond >= q + 1:
        W = solve_triangular(L, kernels.basis(points, 0), lower=True)
        try:
            cholesky(W.T @ W, lower=True)
            Q_W, R = qr(W)
            if loo:
                Z = Q_W[:, q:].T @ V
                universal = np.einsum("ij,ij->j", Z, Z)
            else:
                G = solve_triangular(R[:q], kernels.basis(eval_points, 0).T
                                     - W.T @ V, trans="T")
                universal = var + np.einsum("ij,ij->j", G, G)
            var = np.where(n_distinct >= q, universal, var)
        except LinAlgError:
            pass  # keep the simple-kriging variance
    if loo:
        with np.errstate(divide="ignore"):
            var = 1.0 / var - nugget
    return np.maximum(var, 0.0)


def mice_select(design: DesignSet, candidates: np.ndarray, rho: np.ndarray):
    """Greedy mutual-information pick from a candidate set.

    Maximizes the ratio of the predictive variance given the design (design
    nugget) to the predictive variance given the remaining candidates
    (smoothing nugget ``CAND_NUGGET``; Beck & Guillas 2016).  Each comes
    from one factorization (:func:`_kriging_variances`): numerators of the
    design, denominators of the candidates.  Design points count as value
    observations, gradients or not.  Exact duplicate candidates share the
    score of their first copy, and ties break to the lowest candidate index.
    A candidate correlation that does not factorize (coincident candidates
    with a zero smoothing nugget) leaves every denominator degenerate.
    Returns ``(index, ratios)``.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    num = _kriging_variances(design.points, rho, NUGGET_DEFAULT, candidates)
    try:
        den = _kriging_variances(candidates, rho, CAND_NUGGET)
    except (LinAlgError, ValueError):  # ValueError: non-finite candidates
        raise AllDegenerate("candidate correlation does not factorize") from None
    ok = (den > 1e-14) & np.isfinite(num) & np.isfinite(den)
    ratios = np.divide(num, den, out=np.full(num.shape, -np.inf), where=ok)
    ratios = ratios[_first_copies(candidates)[0]]
    if not np.any(np.isfinite(ratios)):
        raise AllDegenerate("all candidate denominators degenerate")
    return int(np.argmax(ratios)), ratios


@dataclass
class CandidatePool:
    """Scored candidates: previous samples with recycled evaluations, and
    optionally each one's per-datum value row, an (N,) array, in a sequence."""

    points: np.ndarray
    potentials: np.ndarray
    per_datum: list[np.ndarray] | np.ndarray | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.potentials = np.asarray(self.potentials, dtype=float)


def mice_refine(design: DesignSet, pool: CandidatePool, cfg: MICEConfig,
                rho: np.ndarray, rows=None):
    """Refresh the design from a candidate pool, one greedy pick at a time,
    at the inverse squared lengthscales ``rho`` the caller fitted.

    Keeps the ``init_keep`` most recently added design points, returns the
    remaining design points to the candidate pool, then grows the design by
    repeated :func:`mice_select` until ``max_size`` is reached or every
    candidate is degenerate.  Picks are indices into one array of points;
    the refined design is assembled once, at the end.  Stored potentials
    and per-datum rows are recycled; no new target evaluations happen here.
    Given ``rows``, the design points' per-datum value rows, and a pool with
    rows, the refined design gets the Gram of its rows, which ``info["rows"]``
    lists by reference.  Gradient information is dropped: refined designs
    are value-based.  Returns ``(DesignSet, info)``.
    """
    use_pd = rows is not None and pool.per_datum is not None

    if design.n >= cfg.max_size:
        return design, {"added": 0, "final_size": design.n, "rows": rows}

    # order: the kept design points, then the pool, then the recycled design
    # points; candidates are filtered in pool-then-recycled order, which
    # decides ties
    keep = min(cfg.init_keep, design.n)
    recycled = design.n - keep
    points = np.vstack([design.points[recycled:], pool.points,
                        design.points[:recycled]])
    potentials = np.concatenate([design.potentials[recycled:], pool.potentials,
                                 design.potentials[:recycled]])
    chosen = list(range(keep))
    # drop candidates indistinct from the kept design or each other
    cand = keep + maxmin_filter(points[keep:], 1e-9, existing=points[:keep])

    while len(chosen) < cfg.max_size and cand.size > 0:
        current = DesignSet(points=points[chosen], potentials=potentials[chosen])
        try:
            j, _ = mice_select(current, points[cand], rho)
        except AllDegenerate:
            break
        chosen.append(int(cand[j]))
        cand = np.delete(cand, j)

    gfi = chosen_rows = None
    if use_pd:
        all_rows = [*rows[recycled:], *pool.per_datum, *rows[:recycled]]
        chosen_rows = [all_rows[i] for i in chosen]
        gfi = per_datum_gram(np.array(chosen_rows))
    refined = DesignSet(points=points[chosen], potentials=potentials[chosen],
                        gfi=gfi)
    info = {"added": len(chosen) - keep, "final_size": refined.n,
            "rows": chosen_rows}
    return refined, info


def _holdout_mspe(emulator: Emulator, holdout) -> float:
    points, potentials = holdout
    pred = emulator.predict(points, 0).mean
    return float(np.mean((pred - potentials)**2))


# -- adaptive outer loop -------------------------------------------------

@dataclass
class RegenSchedule:
    """When to probe for regenerations and when to stop adapting.

    ``adaptation_active`` False turns the chain into a plain alternating
    sampler (no probes, design never mutates).  ``refine`` False keeps the
    regeneration probes and Q-restarts but never refreshes the design, which
    gives genuine i.i.d. tours under the fixed split constant
    ``AdaptiveGPeSampler.log_c``.  While refining, every probe instead takes
    its split constant from the median of the chain's last ``PROBE_WINDOW``
    log(pi/q) values, so early regenerations cannot be strangled by a
    constant calibrated to a bad initial design; the split identity holds
    for any per-step constant, so the target is untouched.

    A refresh needs ``min_pool`` tour points.  It sets ``HOLDOUT_SIZE`` of
    them aside, offers at most ``POOL_CAP`` of the rest to
    :func:`mice_refine`, and stops adaptation once the refreshed design's
    holdout MSPE falls below ``stop_mspe_rel`` times the holdout variance,
    or after ``max_adaptations`` refreshes.
    """

    test_interval: int = 20
    adaptation_active: bool = True
    refine: bool = True
    stop_mspe_rel: float = 1e-2
    max_adaptations: int = 10
    min_pool: int = 10

    def __post_init__(self):
        if self.test_interval < 1:
            raise ValueError("test_interval must be >= 1")


@dataclass
class AdaptEvent:
    iteration: int
    kind: str
    design_size: int
    holdout_mspe: float = np.nan


class _PerDatumRecorder:
    """Target adapter that captures per-datum values of each potential call."""

    def __init__(self, target):
        self.target = target
        self.last_values = None

    def __getattr__(self, name):
        return getattr(self.target, name)

    def potential(self, theta):
        u, values = self.target.potential_per_datum(theta)
        self.last_values = values
        return u


class AdaptiveGPeSampler:
    """Alternating emulator-driven/independence sampler with regeneration.

    One ``step`` performs a geometric kernel transition and, every
    ``test_interval`` iterations, an independence-sampler transition on which
    regeneration is evaluated.  While adaptation is active, a regeneration
    triggers a design refresh from the finished tour, an emulator/proposal
    rebuild, and a restart draw from the regeneration kernel Q.

    ``rows`` are the design points' per-datum value rows, which refreshes
    recycle beside the tour's; a design holds only their Gram, so rows not
    given cost one exact call per design point here.  A value design
    without a Gram takes it from the rows.

    The lengthscales are fitted on the design's values at the start (unless
    ``hyper`` is given) and again by each refresh, whose MICE picks are made
    at them; a refit that fails keeps the current ones.  A refresh builds
    one emulator, which its holdout scores.

    ``events`` records regenerations, refreshes, exhausted Q draws and, as
    ``mle_warn``, every lengthscale fit (the start's or a refresh's) that did
    not converge.
    """

    def __init__(self, target, design: DesignSet, integrator_cfg,
                 kernel: str = "hmc", schedule: RegenSchedule | None = None,
                 mice_cfg: MICEConfig | None = None,
                 rng: np.random.Generator | None = None,
                 hyper: Hyperparameters | None = None,
                 tune: bool = False, target_accept: float = 0.7, rows=None):
        if kernel not in ("hmc", "rhmc", "lmc"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.raw_target = target
        self.target = _PerDatumRecorder(target)
        self.kernel = kernel
        # private copies: step-size tuning and the end of adaptation change
        # them, and the caller's objects stay as given
        self.cfg = replace(integrator_cfg)
        self.schedule = replace(schedule) if schedule is not None else RegenSchedule()
        self.mice_cfg = mice_cfg or MICEConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.tuner = samplers.DualAveraging(integrator_cfg.step_size,
                                            target=target_accept) if tune else None

        self.iteration = 0
        self.n_regenerations = 0
        self.n_adaptations = 0
        self.events: list[AdaptEvent] = []
        self._tour_points: list[np.ndarray] = []
        self._tour_potentials: list[float] = []
        self._tour_pd: list[np.ndarray] = []
        self._logw_history: deque[float] = deque(maxlen=PROBE_WINDOW)
        self.last_holdout_mspe = np.nan

        if rows is None:
            rows = [target.potential_per_datum(p)[1] for p in design.points]
        if design.gfi is None and not design.has_gradients:
            design = replace(design, gfi=per_datum_gram(np.array(rows)))
        self.design = design
        self._design_rows = rows
        self.hyper = hyper if hyper is not None else self._fit()
        self._rebuild()

    # -- assembly --------------------------------------------------------

    def _rebuild(self):
        self.emulator = build_emulator(self.design, self.hyper)
        floor = self.raw_target.prior_precision()
        self.geometry = EmulatedGeometry(self.emulator, floor)
        self.proposal = build_mixture_proposal(self.emulator, floor)
        # the fixed split constant: median of log(pi/q) over the design points
        self.log_c = float(np.median(
            [-u - self.proposal.logpdf(p)
             for u, p in zip(self.design.potentials, self.design.points)]))
        # ratios recorded under the previous proposal are meaningless now
        self._logw_history.clear()

    def _fit(self) -> Hyperparameters:
        """Lengthscales fitted on the current design's values, restarts drawn
        from ``self.rng``; an ``mle_warn`` event when the fit did not
        converge."""
        hyper, info = fit_hyperparameters(
            DesignSet(points=self.design.points,
                      potentials=self.design.potentials), rng=self.rng)
        if info["warn"]:
            self.events.append(AdaptEvent(self.iteration, "mle_warn",
                                          self.design.n))
        return hyper

    def _record_tour(self, theta, potential, per_datum):
        self._tour_points.append(np.array(theta))
        self._tour_potentials.append(float(potential))
        if per_datum is not None:
            self._tour_pd.append(np.array(per_datum))

    # -- kernels -----------------------------------------------------------

    def _gpe_step(self, state):
        step = {"hmc": samplers.hmc_step, "rhmc": samplers.rhmc_step,
                "lmc": samplers.lmc_step}[self.kernel]
        new_state, info = step(state, self.target, self.geometry, self.cfg)
        if info.accepted:
            self._record_tour(new_state.theta, new_state.potential,
                              self.target.last_values)
        if self.tuner is not None:
            if self.schedule.adaptation_active:
                self.cfg.step_size = self.tuner.update(info.alpha)
            else:
                self.cfg.step_size = self.tuner.tuned_step
        return new_state, info

    def _independence_step(self, state):
        prop = self.proposal.sample(self.rng)
        log_q_prop = self.proposal.logpdf(prop)
        u_prop = self.target.potential(prop)
        pd_prop = self.target.last_values
        log_q_cur = self.proposal.logpdf(state.theta)
        log_w_cur = -state.potential - log_q_cur
        log_w_prop = -u_prop - log_q_prop
        self._logw_history.append(log_w_cur)
        accept = np.log(self.rng.random()) < min(0.0, log_w_prop - log_w_cur)
        if not accept:
            # the proposal's potential was paid for at the Metropolis test;
            # recycle it as a candidate even though the move was rejected
            self._record_tour(prop, u_prop, pd_prop)
            return state, False
        new_state = samplers.ChainState(prop, u_prop, state.rng)
        self._record_tour(prop, u_prop, pd_prop)
        if self.schedule.adaptation_active:
            log_c = float(np.median(self._logw_history)) \
                if self.schedule.refine else self.log_c
            log_r = regen_log_prob(log_w_cur, log_w_prop, log_c)
            if np.log(self.rng.random()) < log_r:
                new_state = self._on_regeneration(new_state, log_c)
        return new_state, True

    def _on_regeneration(self, state, log_c):
        self.n_regenerations += 1
        self.events.append(AdaptEvent(self.iteration, "regen", self.design.n,
                                      self.last_holdout_mspe))
        return self._adapt(state, log_c)

    def _clear_tour(self):
        self._tour_points.clear()
        self._tour_potentials.clear()
        self._tour_pd.clear()

    def _adapt(self, state, log_c):
        if self.schedule.refine:
            pool, holdout = self._collect_pool()
            if pool is None:
                # the tour was too thin to refresh: design and rho, and with
                # them the emulator, proposal and split constant, stay; the
                # probe window restarts, as at every regeneration
                self._logw_history.clear()
            else:
                self.events.append(AdaptEvent(self.iteration, "adapt_start",
                                              self.design.n))
                try:
                    rho = self._fit().rho
                except (OptimFailed, TooFewPoints, IllConditioned):
                    rho = self.hyper.rho
                new_design, info = mice_refine(self.design, pool, self.mice_cfg,
                                               rho, rows=self._design_rows)
                q = 1 + 2 * self.design.dim
                if new_design.n > q + 2:
                    self.design, self.hyper = new_design, Hyperparameters(rho=rho)
                    self._design_rows = info["rows"]
                self._clear_tour()
                self.n_adaptations += 1
                if self.tuner is not None:
                    # the refreshed emulator changes the energy landscape the
                    # step size was tuned against
                    self.tuner = samplers.DualAveraging(
                        max(self.cfg.step_size, 1e-4), target=self.tuner.target)
                self._rebuild()
                if holdout is not None:
                    self.last_holdout_mspe = _holdout_mspe(self.emulator, holdout)
                    var = float(np.var(holdout[1]))
                    if self.last_holdout_mspe <= self.schedule.stop_mspe_rel * var:
                        self.schedule.adaptation_active = False
                if self.n_adaptations >= self.schedule.max_adaptations:
                    self.schedule.adaptation_active = False
                self.events.append(AdaptEvent(self.iteration, "adapt_done",
                                              self.design.n, self.last_holdout_mspe))
        # restart from the regeneration kernel, with the split constant that
        # fired the probe
        try:
            theta, log_pi, _ = sample_Q(
                self.rng, lambda t: -self.target.potential(t), self.proposal,
                log_c)
            restart = samplers.ChainState(np.asarray(theta), -log_pi, state.rng)
            self._record_tour(restart.theta, restart.potential,
                              self.target.last_values)
            return restart
        except RejectionBudgetExhausted:
            self.events.append(AdaptEvent(self.iteration, "q_exhausted",
                                          self.design.n))
            return state

    def _collect_pool(self):
        pts = self._tour_points
        if len(pts) < max(3, self.schedule.min_pool):
            return None, None
        points = np.array(pts)
        potentials = np.array(self._tour_potentials)
        # reserve a spread holdout before thinning
        nh = min(HOLDOUT_SIZE, max(0, len(pts) - 5))
        hold_idx = np.linspace(0, len(pts) - 1, nh).astype(int) if nh >= 3 else []
        hold_mask = np.zeros(len(pts), dtype=bool)
        hold_mask[hold_idx] = True
        holdout = (points[hold_mask], potentials[hold_mask]) if nh >= 3 else None
        # the pool is chosen on the points alone, as tour indices; the
        # per-datum rows of the kept indices are passed by reference
        idx = np.flatnonzero(~hold_mask)
        if idx.size > POOL_CAP:
            idx = idx[np.linspace(0, idx.size - 1, POOL_CAP).astype(int)]
        idx = idx[maxmin_filter(points[idx], self.mice_cfg.maxmin_radius)]
        if idx.size == 0:
            return None, holdout
        pd = None
        if len(self._tour_pd) == len(pts):
            pd = [self._tour_pd[i] for i in idx]
        return CandidatePool(points[idx], potentials[idx], pd), holdout

    # -- public ------------------------------------------------------------

    def step(self, state):
        """One outer iteration; returns (state, info_dict)."""
        self.iteration += 1
        state, info = self._gpe_step(state)
        regen_before = self.n_regenerations
        indep_accept = None
        if self.iteration % self.schedule.test_interval == 0:
            state, indep_accept = self._independence_step(state)
        return state, {
            "accepted": info.accepted,
            "alpha": info.alpha,
            "indep_accepted": indep_accept,
            "regenerated": self.n_regenerations > regen_before,
        }
