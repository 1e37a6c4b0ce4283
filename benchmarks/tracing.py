"""Call counters and spans installed around gpgmc's public functions.

Nothing in the package changes: every hook is a wrapper set on the module or
class attribute through which the package looks the name up at call time.
``cli`` and ``adaptation`` bind ``build_emulator``, ``fit_hyperparameters``,
``load_design``, ``save_design``, ``summarize`` and the step functions at
import, so those names are wrapped in each namespace that binds them, and
every call goes through exactly one wrapper.

Two modes:

* untraced (``Recorder(traced=False)``): only the exact target's evaluation
  methods, the transition kernels, and the adaptive sampler's independence
  probes and Q draws are wrapped, with counters and no spans.  The
  end-to-end metrics come from this mode.
* traced (``Recorder(traced=True)``): every layer below is wrapped and each
  call records a span ``(name, start_ns, end_ns, parent, transition)`` kept in
  memory and written out when the round ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# evaluation methods of the exact targets; the paper's unit of model cost
TARGET_METHODS = ("potential", "potential_grad", "per_datum",
                  "potential_per_datum", "fisher", "fisher_derivs")
# the methods an exact acceptance test goes through
POTENTIAL_METHODS = ("potential", "potential_per_datum")
STEP_FUNCTIONS = ("rwm_step", "hmc_step", "rhmc_step", "lmc_step")


class Recorder:
    """Counters, spans and the transition clock of one workload round."""

    def __init__(self, traced: bool, burnin: int):
        self.traced = traced
        self.burnin = burnin
        self.calls = Counter()
        self.spans: list = []
        self._stack: list[int] = []
        self.transition = -1
        self.transitions = 0
        self.accepted = 0
        self.divergent = 0
        self.retained_start_ns = None
        # exact evaluations: all outermost calls, and the potentials asked
        # for once sampling has begun (acceptance tests, probes, Q tries)
        self.target_depth = 0
        self.step_depth = 0
        self.target_evals = 0
        self.sampling_potentials = 0
        self.candidates_scored = 0
        self.q_tries = 0
        self.emulated_points = 0
        self.step_points = 0
        self._last_emulated = None
        self._last_point = None
        self._installed: list = []

    # -- installation ----------------------------------------------------

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` with a wrapper counting calls to ``name``."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[name] += 1
            if before is not None:
                before(args)
            if rec.traced:
                idx = len(rec.spans)
                parent = rec._stack[-1] if rec._stack else -1
                rec.spans.append(None)
                rec._stack.append(idx)
                t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if after is not None:
                    after(args, None)
                raise
            finally:
                if rec.traced:
                    t1 = time.perf_counter_ns()
                    rec._stack.pop()
                    rec.spans[idx] = (name, t0, t1, parent, rec.transition)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def install(self):
        from gpgmc import (adaptation, cli, elliptic, emulator, geometry,
                           kernels, mle, samplers, targets)

        for cls in (targets.BBDTarget, targets.GaussianTarget,
                    elliptic.EllipticTarget):
            for meth in TARGET_METHODS:
                if meth in cls.__dict__:
                    self.wrap(cls, meth, f"targets.{meth}",
                              before=self._target_enter(meth),
                              after=self._target_exit)
        for ns in (cli, samplers):
            for fname in STEP_FUNCTIONS:
                self.wrap(ns, fname, "samplers.step",
                          before=self._step_enter, after=self._step_exit)
        self.wrap(adaptation.AdaptiveGPeSampler, "_independence_step",
                  "adaptation.independence")
        self.wrap(adaptation, "sample_Q", "adaptation.sample_Q",
                  after=self._sample_q_exit)
        if not self.traced:
            return

        self.wrap(elliptic.EllipticTarget, "solve", "elliptic.solve")
        self.wrap(elliptic.KLExpansion, "__init__", "elliptic.kl")
        for cls in (geometry.ExactGeometry, geometry.EmulatedGeometry):
            emulated = cls is geometry.EmulatedGeometry
            for meth in ("grad", "metric_and_derivs"):
                self.wrap(cls, meth, f"geometry.{meth}",
                          before=self._geometry_enter(emulated))
        for meth in ("predict", "predict_metric_bundle", "linear_map"):
            self.wrap(emulator.Emulator, meth, f"emulator.{meth}")
        self.wrap(cli, "build_emulator", "emulator.build")
        self.wrap(cli, "save_design", "emulator.save_design")
        self.wrap(cli, "load_design", "emulator.load_design")
        self.wrap(adaptation, "build_emulator", "emulator.build@adaptation")
        self.wrap(kernels, "cross_corr", "kernels.cross_corr")
        self.wrap(kernels, "tilde_corr", "kernels.tilde_corr")
        for ns in (cli, adaptation):
            self.wrap(ns, "fit_hyperparameters", "mle.fit")
        for fname in ("profile_loglik", "profile_loglik_grad",
                      "profile_loglik_hess"):
            self.wrap(mle, fname, "mle.loglik")
        self.wrap(adaptation, "mice_select", "adaptation.mice_select",
                  before=self._mice_enter)
        for ns in (cli, adaptation):
            self.wrap(ns, "mice_refine", "adaptation.mice_refine")
        self.wrap(adaptation, "build_mixture_proposal",
                  "adaptation.build_mixture_proposal")
        self.wrap(adaptation.AdaptiveGPeSampler, "_on_regeneration",
                  "adaptation.regeneration")
        for fname in ("run", "design_cmd", "run_single_chain", "build_target"):
            self.wrap(cli, fname, f"cli.{fname}")
        self.wrap(cli, "summarize", "diagnostics.summarize")

    # -- hooks -----------------------------------------------------------

    def _target_enter(self, meth):
        def before(args):
            if self.target_depth == 0:
                self.target_evals += 1
                if meth in POTENTIAL_METHODS and self.transitions:
                    self.sampling_potentials += 1
            self.target_depth += 1
        return before

    def _target_exit(self, args, out):
        self.target_depth -= 1

    def _step_enter(self, args):
        if self.transitions == self.burnin:
            self.retained_start_ns = time.perf_counter_ns()
        self.transition = self.transitions
        self.transitions += 1
        self.step_depth += 1

    def _step_exit(self, args, out):
        self.step_depth -= 1
        self.transition = -1
        if out is not None:
            info = out[1]
            self.accepted += int(info.accepted)
            self.divergent += int(info.divergent)

    def _geometry_enter(self, emulated):
        # one point = queries on one position array: _ManifoldPoint asks for
        # the metric and then the gradient of the same array
        def before(args):
            theta = args[1]
            key = (id(theta), theta.tobytes())
            if self.step_depth and key != self._last_point:
                self.step_points += 1
            self._last_point = key
            if emulated:
                if key != self._last_emulated:
                    self.emulated_points += 1
                self._last_emulated = key
        return before

    def _mice_enter(self, args):
        self.candidates_scored += len(args[1])

    def _sample_q_exit(self, args, out):
        # an exhausted budget raises after max_tries exact evaluations
        # (500 unless passed positionally, as adaptation does not)
        self.q_tries += int(out[2]) if out is not None else (
            int(args[4]) if len(args) > 4 else 500)

    # -- output ----------------------------------------------------------

    def counts(self) -> dict:
        return {
            "transitions": self.transitions,
            "accepted": self.accepted,
            "divergent": self.divergent,
            "target_evals": self.target_evals,
            "sampling_potentials": self.sampling_potentials,
            "probes": self.calls["adaptation.independence"],
            "q_tries": self.q_tries,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,transition\n")
            for name, t0, t1, parent, tr in self.spans:
                fh.write(f"{name},{t0},{t1},{parent},{tr}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the spans and counters of a traced round."""
        n = len(self.spans)
        child_ns = [0] * n
        total = Counter()
        for name, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ns = Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            self_ns[name.split(".", 1)[0]] += t1 - t0 - child_ns[i]

        calls = self.calls

        def per_call(name, scale):
            return total[name] / calls[name] / scale if calls[name] else 0.0

        def secs(*names):
            return sum(total[nm] for nm in names) / 1e9

        builds = ("emulator.build", "emulator.build@adaptation")
        transitions = max(self.transitions, 1)
        return {
            "targets.evals": self.target_evals,
            "targets.self_s": self_ns["targets"] / 1e9,
            "targets.potential_grad.us": per_call("targets.potential_grad", 1e3),
            "targets.potential.us": per_call("targets.potential", 1e3),
            "elliptic.solve.calls": calls["elliptic.solve"],
            "elliptic.solve.ms": per_call("elliptic.solve", 1e6),
            "elliptic.self_s": self_ns["elliptic"] / 1e9,
            "geometry.grad.calls": calls["geometry.grad"],
            "geometry.grad.us": per_call("geometry.grad", 1e3),
            "geometry.metric_and_derivs.calls": calls["geometry.metric_and_derivs"],
            "geometry.metric_and_derivs.us": per_call("geometry.metric_and_derivs", 1e3),
            "emulator.predict.us": per_call("emulator.predict", 1e3),
            "emulator.predict_metric_bundle.us":
                per_call("emulator.predict_metric_bundle", 1e3),
            "emulator.linear_maps_per_point":
                calls["emulator.linear_map"] / self.emulated_points
                if self.emulated_points else 0.0,
            "emulator.build.calls": sum(calls[nm] for nm in builds),
            "emulator.build.s": secs(*builds),
            "emulator.save_design.s": secs("emulator.save_design"),
            "emulator.load_design.s": secs("emulator.load_design"),
            "kernels.cross_corr.calls": calls["kernels.cross_corr"],
            "kernels.cross_corr.s": secs("kernels.cross_corr"),
            "kernels.tilde_corr.calls": calls["kernels.tilde_corr"],
            "kernels.tilde_corr.s": secs("kernels.tilde_corr"),
            "mle.fit.calls": calls["mle.fit"],
            "mle.fit.s": secs("mle.fit"),
            "mle.loglik_evals": calls["mle.loglik"],
            "adaptation.mice_select.calls": calls["adaptation.mice_select"],
            "adaptation.mice_select.s": secs("adaptation.mice_select"),
            "adaptation.candidates_scored": self.candidates_scored,
            "adaptation.regenerations": calls["adaptation.regeneration"],
            "adaptation.refreshes": calls["adaptation.mice_refine"],
            "adaptation.sample_Q.tries": self.q_tries,
            "adaptation.rebuild.s": secs("emulator.build@adaptation",
                                         "adaptation.build_mixture_proposal"),
            "samplers.transitions": self.transitions,
            "samplers.self_s": self_ns["samplers"] / 1e9,
            "samplers.accept_rate": self.accepted / transitions,
            "samplers.divergent": self.divergent,
            "samplers.points_per_transition": self.step_points / transitions,
            "cli.self_s": self_ns["cli"] / 1e9,
            "cli.target_builds": calls["cli.build_target"],
            "diagnostics.summarize.s": secs("diagnostics.summarize"),
        }
