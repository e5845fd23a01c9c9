"""The benchmark's three seeded workloads.

Each workload has a set-up (simulate the inputs, build the model) and an
operation (one seeded fit) that it repeats for the measured time. Both go
through the public calls the CLI ``simulate -> fit -> evaluate`` path
makes. Every stage is timed as a span named ``<layer>.<stage>``.

* ``gam-fit``: the CLI default fit, gam-hill ``IndividualGamModel`` on a
  1500-row panel. Gradient cost scales with rows (NB2 likelihood and Hill
  curve per row), so hot-path work on the additive model shows here.
* ``longitudinal-fit``: the same panel under longitudinal-hill
  ``LongitudinalNbModel``, whose likelihood runs over grouped sufficient
  statistics. Same sampler, different gradient: a change to the additive
  model alone should not move it.
* ``brc-map``: the rate-consistency surface model, 829 parameters, fitted
  by L-BFGS in ``warm_start_point``. No NUTS and BLAS-bound HSGP
  matmuls: a sampler change should not move it.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from contactfatigue import cli
from contactfatigue.domain import build_design, load_survey_csv
from contactfatigue.evaluation import mape
from contactfatigue.inference import (SamplerConfig, sample_model,
                                      warm_start_point)
from contactfatigue.models import (FatigueSpec, ModelSpec, build_model,
                                   make_brc_data)
from contactfatigue.models.assemble import brc_surface_config
from contactfatigue.pipeline import WaveFit, cell_weights, poststratified_mean
from contactfatigue.simulator import (ScenarioConfig, SurfaceScenario,
                                      panel_to_csv, simulate_brc_surface,
                                      simulate_panel)

from diagnostics import summarize_draws
from hostspeed import HostSpeed, MatvecSpeed
from tracing import CountingModel, Tracer

# Correctness tolerances, outside what the short fits gave on seeds 1-10
# (de-biased mean error up to 5.7 %, surface MAPE up to 1.8 %). Keeping
# the fatigue term in the mean shifts it by about 11 % on these panels,
# so a lost de-bias is caught by comparing with the un-debiased mean.
DEBIASED_MEAN_TOL_PCT = 10.0
SURFACE_MAPE_TOL_PCT = 10.0
FLOW_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Input and sampler sizes; ``FULL`` is measured, ``SMOKE`` tested."""

    waves: int
    panel_size: int
    chains: int
    warmup: int
    sampling: int
    surface_m: int


# One chain: a 2-chain longitudinal-hill fit took 55-73 s, too long for the
# benchmark's time budget. Warmup 100 is the sampler's minimum.
FULL = Size(waves=5, panel_size=300, chains=1, warmup=100, sampling=50,
            surface_m=40)
SMOKE = Size(waves=3, panel_size=40, chains=1, warmup=100, sampling=10,
             surface_m=6)


@dataclass
class Op:
    """Outcome of one seeded fit."""

    seed: int
    error: str = ""                     # exception type when it raised
    traceback: str = ""
    failed_checks: list[str] = field(default_factory=list)
    digest: str = ""
    fit_s: float = 0.0                  # sample_model or warm_start_point
    grads: int = 0
    rejects: int = 0
    windows: list[tuple] = field(default_factory=list)
    layer_stats: dict = field(default_factory=dict)  # traced runs only
    values: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.error or self.failed_checks)


class Stages:
    """Wall time of named stages, a list of samples per name."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.samples.setdefault(name, []).append(
                time.perf_counter() - t0)


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _check(op: Op, name: str, ok: bool) -> None:
    if not ok:
        op.failed_checks.append(name)


def _run_fit(op: Op, proxy: CountingModel, call, tracer: Tracer | None):
    """Time ``call`` and its gradients through ``proxy``; record what it
    raised. The host-speed reference timed inside is not fit time."""
    before = tracer.snapshot() if tracer else {}
    t0 = time.perf_counter()
    result = None
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - a raising fit is a failed op
        op.error = type(exc).__name__
        op.traceback = traceback.format_exc()
    proxy.close_window()
    op.fit_s = time.perf_counter() - t0 - proxy.reference_s
    op.grads, op.rejects = proxy.calls, proxy.rejects
    op.windows = proxy.windows
    if tracer:
        op.layer_stats = Tracer.delta(before, tracer.snapshot())
    return result


class PanelWorkload:
    """simulate -> CSV -> load -> design -> model, then NUTS fits."""

    sampling = True     # NUTS fits
    speed = HostSpeed   # the reference that tracks the fit's gradients

    def __init__(self, model_name: str, size: Size, workdir: str):
        self.model_name = model_name
        self.size = size
        self.workdir = workdir

    def setup(self, seed: int, stage: Stages) -> str:
        size = self.size
        with stage("simulator.panel_s"):
            records, truth = simulate_panel(ScenarioConfig(
                waves=size.waves, panel_size=size.panel_size, seed=seed))
        fd, path = tempfile.mkstemp(dir=self.workdir, suffix=".csv")
        os.close(fd)
        try:
            with stage("simulator.csv_write_s"):
                panel_to_csv(records, path)
            with stage("domain.load_s"):
                loaded, _report = load_survey_csv(
                    path, cli.scenario_schema(),
                    rng=np.random.default_rng([seed, 104729]))
        finally:
            os.unlink(path)
        values = cli.read_config(None, {"seed": seed})
        spec = cli.model_spec_for(self.model_name, values)
        features = (cli.gam_feature_spec()
                    if spec.family == "individual_gam"
                    else cli.scenario_feature_spec())
        with stage("domain.design_s"):
            design = build_design(loaded, features)
        with stage("models.build_s"):
            self.model = build_model(spec, design)

        index = {tuple(k): i for i, k in enumerate(truth.record_keys)}
        rows = [index[(r.participant_id, r.wave)] for r in loaded]
        self.truth_ff = np.asarray(truth.lambda_fatigue_free)[rows]
        self.weights = cell_weights(loaded)
        self.truth_mean = float(self.weights @ self.truth_ff)
        self.rows = design.n
        self.wave = int(loaded[0].wave)
        return digest(np.column_stack([design.y, design.x, design.age,
                                       design.repeat]))

    def run(self, op: Op, tracer: Tracer | None,
            host: HostSpeed | None, stage: Stages) -> None:
        size = self.size
        cfg = SamplerConfig(chains=size.chains, warmup=size.warmup,
                            sampling=size.sampling, seed=op.seed, threads=1)
        proxy = CountingModel(self.model, tracer, host)
        result = _run_fit(op, proxy, lambda: sample_model(
            proxy, cfg, compute_pointwise=False), tracer)
        if result is None:
            return
        post, _diag = result
        op.digest = digest(post.draws)
        iters = size.chains * (size.warmup + size.sampling)
        op.values.update({
            "grads_per_iter": proxy.calls / iters,
            "step_size": float(np.mean(post.step_sizes)),
            "divergences": int(post.divergent.sum())})
        finite = bool(np.all(np.isfinite(post.draws)))
        last_logp = [self.model.logp_grad(post.draws[c, -1])[0]
                     for c in range(post.n_chains)] if finite else [np.nan]
        _check(op, "finite_draws", finite)
        _check(op, "finite_log_density", bool(np.all(np.isfinite(last_logp))))
        if op.failed_checks:
            return
        min_ess, max_rhat = summarize_draws(post.draws)
        op.values.update({"min_ess_bulk": min_ess, "max_rhat": max_rhat})

        # the de-biased population mean, as ``fit_wave`` and the CLI's
        # debias-sequence path produce it
        fit = WaveFit(wave=self.wave, draws=post, diagnostics=_diag,
                      model=self.model, posterior_means=post.point(np.mean),
                      posterior_medians=post.point(np.median),
                      prior_provenance="initial")
        with stage("pipeline.poststrat_s"):
            est = poststratified_mean(fit, self.weights, debias=True)
        biased = poststratified_mean(fit, self.weights, debias=False)
        lam = np.exp([self.model.predict_log_intensity(t, debias=True)
                      for t in post.stacked()])
        err = 100.0 * abs(est.median - self.truth_mean) / self.truth_mean
        biased_err = (100.0 * abs(biased.median - self.truth_mean)
                      / self.truth_mean)
        intensity_mape = mape(np.median(lam, axis=0), self.truth_ff)
        op.values.update({"debiased_mean_err_pct": err,
                          "biased_mean_err_pct": biased_err,
                          "intensity_mape_pct": intensity_mape})
        _check(op, "debiased_mean", err <= DEBIASED_MEAN_TOL_PCT)
        # whatever the Monte Carlo noise, removing the fatigue term must
        # bring the mean closer to the fatigue-free truth
        _check(op, "debias_toward_truth", err < biased_err)


class BrcWorkload:
    """simulate surface -> BRC cells -> model, then an L-BFGS MAP fit."""

    sampling = False    # an L-BFGS MAP fit
    speed = MatvecSpeed

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, stage: Stages) -> str:
        with stage("simulator.surface_s"):
            sim = simulate_brc_surface(SurfaceScenario(seed=seed))
        with stage("models.brc_data_s"):
            data = make_brc_data(
                y=sim["y"], wave=sim["wave"], repeat=sim["repeat"],
                age=sim["age"], band=sim["band"],
                n_participants=sim["n_participants"], s_prop=sim["s_prop"],
                population=sim["population"], bands=sim["bands"])
        spec = ModelSpec(family="aggregated_brc",
                         fatigue=FatigueSpec(kind="independent",
                                             max_repeat=data.max_repeat),
                         hsgp_surface=brc_surface_config(self.size.surface_m))
        with stage("models.build_s"):
            self.model = build_model(spec, data)
        self.population = sim["population"]
        self.m_true = sim["m_true"]
        self.wave = data.waves[0]
        return digest(np.concatenate([data.y, data.log_offset_cell,
                                       data.log_pop_row]))

    def run(self, op: Op, tracer: Tracer | None,
            host: HostSpeed | None, stage: Stages) -> None:
        proxy = CountingModel(self.model, tracer, host)
        x = _run_fit(op, proxy, lambda: warm_start_point(proxy, seed=op.seed),
                     tracer)
        if op.error:
            return
        _check(op, "map_found", x is not None)
        if x is None:
            return
        op.digest = digest(x)
        logp = self.model.logp_grad(x)[0]
        _check(op, "finite_point", bool(np.all(np.isfinite(x))))
        _check(op, "finite_log_density", bool(np.isfinite(logp)))
        if op.failed_checks:
            return
        n_age = self.m_true.shape[0]
        a, b = np.meshgrid(np.arange(n_age), np.arange(n_age), indexing="ij")
        log_m = self.model.predict_log_m(
            x, "all", self.wave, a.ravel(), b.ravel(), self.population
        ).reshape(n_age, n_age)
        log_pop = np.log(self.population.get("all"))
        # P_a m(a, b) = P_b m(b, a) on the whole age grid
        flow = log_pop[:, None] + log_m - (log_pop[:, None] + log_m).T
        flow_rel = float(np.max(np.abs(np.expm1(flow))))
        surface_mape = mape(np.exp(log_m), self.m_true)
        op.values.update({"flow_identity_rel": flow_rel,
                          "surface_mape_pct": surface_mape})
        _check(op, "flow_identity", flow_rel <= FLOW_IDENTITY_TOL)
        _check(op, "surface_mape", surface_mape <= SURFACE_MAPE_TOL_PCT)


def make(name: str, size: Size, workdir: str):
    if name == "gam-fit":
        return PanelWorkload("gam-hill", size, workdir)
    if name == "longitudinal-fit":
        return PanelWorkload("longitudinal-hill", size, workdir)
    if name == "brc-map":
        return BrcWorkload(size)
    raise ValueError(f"unknown workload {name!r}")

