"""Seeded Monte Carlo experiments: ensemble simulation, empirical mean-square
error curves, bound domination and concentration validation, CSV export.

Experiments are deterministic functions of their spec. All paths are
simulated in one batch from counter-based streams keyed by path index, each
filter runs once, vectorized over that batch, and reductions happen on the
per-path arrays in path order. Results depend on no grouping of the paths.
"""

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ._version import __version__
from .checks import check_integer, is_finite_real
from .errors import ExperimentDivergenceError
from .filters import make_filter_config, run_continuous_ensemble
from .models import builtin_contractive3d, builtin_integrated_velocity, builtin_linear, simulate_paths
from .stability import (
    continuous_concentration_threshold,
    continuous_mse_bound,
    contractive_certificate,
    integrated_velocity_certificate,
)

DIVERGENCE_LIMIT = 0.01


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of a Monte Carlo experiment.

    ``workers`` is validated (at least 1) but has no effect: every run is
    one batch on the calling thread.
    """

    model: str = "contractive3d"
    model_params: dict = field(default_factory=dict)
    filters: tuple = ("ekf",)
    dt: float = 0.01
    horizon: float = 10.0
    trajectories: int = 100
    seed: int = 1
    deltas: tuple = (0.5, 1.0, 2.0, 3.0)
    checkpoint_every: float = 0.5
    workers: int = 1
    average_from: float = 2.0
    domination_from: float = 1.0
    certificate: str = "auto"
    preset: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.model_params, dict):
            raise ValueError(f"model_params must be an object of keyword arguments, got {self.model_params!r}")
        for name, low in (("trajectories", 1), ("workers", 1), ("seed", None)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low))
        for name in ("dt", "horizon", "checkpoint_every", "average_from", "domination_from"):
            if not is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.dt <= 0 or self.horizon < self.dt:
            raise ValueError("need dt > 0 and horizon >= dt")
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.certificate not in ("auto", "none"):
            raise ValueError("certificate must be 'auto' or 'none'")
        if isinstance(self.filters, str) or not self.filters:
            raise ValueError(f"filters must be a nonempty list of filter kinds, got {self.filters!r}")
        repeated = [kind for i, kind in enumerate(self.filters) if kind in self.filters[:i]]
        if repeated:
            raise ValueError(f"filters name {repeated[0]!r} more than once: {list(self.filters)!r}")
        if not (isinstance(self.deltas, (list, tuple)) and all(is_finite_real(d) and d > 0 for d in self.deltas)):
            raise ValueError(f"deltas must be a list of positive finite numbers, got {self.deltas!r}")
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["filters"] = list(self.filters)
        out["deltas"] = list(self.deltas)
        return out


# Pinned benchmark presets: the fully observed contractive 3-d model under the ekf and ukf, and the
# integrated velocity model under the ekf, whose limiting certificate is judged from t = 2.
PRESETS = {
    "fig1": dict(model="contractive3d", filters=("ekf", "ukf"), dt=0.01, horizon=10.0,
                 trajectories=1000, seed=1, deltas=(0.5, 1.0, 2.0, 3.0),
                 checkpoint_every=0.5, average_from=2.0, domination_from=1.0),
    "fig2": dict(model="integrated_velocity", filters=("ekf",), dt=0.01, horizon=10.0,
                 trajectories=1000, seed=1, deltas=(0.5, 1.0, 2.0, 3.0),
                 checkpoint_every=0.5, average_from=2.0, domination_from=2.0),
}


def preset_spec(name, **overrides):
    """The spec of the :data:`PRESETS` entry ``name``; overrides replace individual fields."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (available: {sorted(PRESETS)})")
    return ExperimentSpec(preset=name, **{**PRESETS[name], **overrides})


def build_model(spec):
    """Instantiate the spec's model by name; a ``ValueError`` names ``model_params`` when a key is missing or unknown or a value has the wrong type."""
    builder = {"contractive3d": builtin_contractive3d, "integrated_velocity": builtin_integrated_velocity,
               "linear": builtin_linear}.get(spec.model)
    if builder is None:
        raise ValueError(f"unknown model {spec.model!r}; custom models go through the library API")
    accepted = inspect.signature(builder).parameters
    missing = [name for name, p in accepted.items() if p.default is p.empty and name not in spec.model_params]
    unknown = sorted(set(spec.model_params) - set(accepted))
    problems = [f"{what} {', '.join(keys)}" for what, keys in (("missing", missing), ("unknown", unknown)) if keys]
    if problems:
        raise ValueError(f"model_params for {spec.model!r}: {'; '.join(problems)} "
                         f"(accepted: {', '.join(accepted) or 'none'})")
    for name, value in spec.model_params.items():
        if isinstance(accepted[name].default, float) and not is_finite_real(value):
            raise ValueError(f"model_params for {spec.model!r}: {name} must be a finite number, "
                             f"not {type(value).__name__} {value!r}")
    try:
        return builder(**spec.model_params)
    except TypeError as exc:
        raise ValueError(f"model_params for {spec.model!r}: {exc}") from exc


@dataclass
class ExperimentResult:
    """Everything an experiment produced, in path-index-deterministic form.

    ``exceedance`` holds one row per filter, checkpoint and delta, counted
    over the paths that never diverged: ``filter``, ``t``, ``delta``,
    ``threshold``, ``frequency``, ``limit`` and its verdict ``passed``.
    """

    spec: ExperimentSpec
    times: np.ndarray
    empirical_mse: dict
    mse_stderr: dict
    bound_curve: dict
    time_averaged_mse: dict
    max_trace_P: dict
    exceedance: list
    checkpoint_times: np.ndarray
    checkpoint_err_sq: dict
    certificates: dict
    divergence_counts: dict
    alive_counts: dict
    bound_dominates: dict
    warnings: list


def certificate_for(model, config):
    """The certificate of the filter of ``config`` on ``model``, as ``certify`` prints it.

    Integrated-velocity models get the limiting velocity certificate, every
    other model the contractive one; both read the filter from
    ``config.functional``. Raises :class:`CertificateError` (a
    :class:`ValueError`) when the model does not meet its hypotheses.
    """
    if model.name == "integrated_velocity":
        return integrated_velocity_certificate(model, config)
    return contractive_certificate(model, config)


def claim_time(cert, t):
    """The times whose certificate values stand for checks at ``t``, a time or an array of them.

    A certificate claims its bounds from the settle time ``T`` on. Checks
    before ``T`` use the values at ``T``, so no check window is shortened;
    this is the one place that reads ``T``.
    """
    return np.maximum(t, cert.T)


def window_start(start, times):
    """``start``, or 0 when it lies past the last of ``times``: no average or verdict is over zero times."""
    return start if start <= times[-1] else 0.0


def _exceedance_rows(kind, cert, err_sq, times, deltas):
    """Filter ``kind``'s checkpoint-major rows: threshold at ``claim_time(cert, t)``, share meeting it, verdict.

    ``err_sq`` has one counted path per row and one checkpoint of ``times`` per
    column. A row passes when its share is within ``exp(-delta)`` plus three
    binomial standard errors over ``len(err_sq)`` paths: the one exceedance verdict.
    """
    thr = continuous_concentration_threshold(cert, claim_time(cert, times)[:, None], deltas)
    frequency = (err_sq[:, :, None] >= thr).mean(axis=0)
    limit = np.array([math.exp(-delta) for delta in deltas])  # exported; np.exp may differ in the last bit
    passed = frequency <= limit + 3.0 * np.sqrt(limit * (1.0 - limit) / len(err_sq))
    return [{"filter": kind, "t": float(times[i]), "delta": float(deltas[j]), "threshold": float(thr[i, j]),
             "frequency": float(frequency[i, j]), "limit": float(limit[j]), "passed": bool(passed[i, j])}
            for i, j in np.ndindex(thr.shape)]


def run_experiment(spec, model=None, certificates=None, configs=None):
    """Run the Monte Carlo experiment described by ``spec``.

    Per trajectory: simulate the model, run every requested filter on the
    same measurement record, and record squared estimation errors. Raises
    :class:`ExperimentDivergenceError` (with the result attached) when more
    than one percent of paths diverge for any filter.

    ``model``, ``certificates`` and ``configs`` override the spec-derived
    defaults for library callers; the CLI always goes through the spec.
    """
    model = build_model(spec) if model is None else model
    warnings = []
    n_steps = int(round(spec.horizon / spec.dt))
    times = np.arange(n_steps + 1) * spec.dt

    cp_stride = int(round(spec.checkpoint_every / spec.dt))
    if abs(cp_stride * spec.dt - spec.checkpoint_every) > 1e-9:
        raise ValueError("checkpoint_every must be a multiple of dt")
    cp_idx = np.arange(0, n_steps + 1, cp_stride)
    cp_times = times[cp_idx]

    if configs is None:
        configs = {kind: make_filter_config(kind, model) for kind in spec.filters}
    elif set(configs) != set(spec.filters):
        raise ValueError("configs must cover exactly the spec's filter kinds")
    certs = dict.fromkeys(spec.filters)
    for kind in spec.filters:
        if certificates and kind in certificates:
            certs[kind] = certificates[kind]
        elif spec.certificate == "auto":
            try:
                certs[kind] = certificate_for(model, configs[kind])
            except ValueError as exc:
                warnings.append(f"no certificate for {kind}: {exc}")

    _, states, incr, _ = simulate_paths(model, spec.dt, spec.horizon, spec.seed, spec.trajectories)

    empirical, stderr, bounds, averages, traces = {}, {}, {}, {}, {}
    cp_err, div_counts, alive_counts = {}, {}, {}
    dominates = dict.fromkeys(spec.filters)
    exceedance = []
    for kind in spec.filters:
        run = run_continuous_ensemble(model, configs[kind], states, incr, spec.dt)
        err = run.err_sq
        cps = err[:, cp_idx]
        # the loop freezes a path whose simulated truth turns non-finite, so
        # a path that died in simulation has diverged for every filter
        alive = run.diverged < 0
        n_alive = int(alive.sum())
        cert = certs[kind]
        bounds[kind] = None if cert is None else continuous_mse_bound(cert, claim_time(cert, times))
        cp_err[kind] = cps
        div_counts[kind] = int((~alive).sum())
        alive_counts[kind] = n_alive
        if n_alive == 0:
            empirical[kind] = np.full(times.shape, np.nan)
            stderr[kind] = np.full(times.shape, np.nan)
            averages[kind] = float("nan")
            traces[kind] = float("nan")
            continue
        mse = err[alive].mean(axis=0)
        second = (err[alive] ** 2).mean(axis=0)
        se = np.sqrt(np.maximum(second - mse**2, 0.0) / n_alive)
        empirical[kind] = mse
        stderr[kind] = se
        averages[kind] = float(mse[times >= window_start(spec.average_from, times)].mean())
        traces[kind] = float(run.trace_max[alive].max())
        if cert is None:
            continue
        sel = times >= window_start(spec.domination_from, times)
        dominates[kind] = bool(np.all(mse[sel] <= bounds[kind][sel] + 3.0 * se[sel]))
        exceedance += _exceedance_rows(kind, cert, cps[alive], cp_times, spec.deltas)

    result = ExperimentResult(
        spec=spec,
        times=times,
        empirical_mse=empirical,
        mse_stderr=stderr,
        bound_curve=bounds,
        time_averaged_mse=averages,
        max_trace_P=traces,
        exceedance=exceedance,
        checkpoint_times=cp_times,
        checkpoint_err_sq=cp_err,
        certificates=certs,
        divergence_counts=div_counts,
        alive_counts=alive_counts,
        bound_dominates=dominates,
        warnings=warnings,
    )
    worst = max(div_counts.values()) / spec.trajectories
    if worst > DIVERGENCE_LIMIT:
        raise ExperimentDivergenceError(
            f"{worst:.1%} of paths diverged (limit {DIVERGENCE_LIMIT:.0%})", result=result
        )
    return result


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return repr(float(x))


def export_result(result, directory):
    """Write ``mse.csv``, ``exceedance.csv`` and ``experiment.json``.

    The CSV layout is one empirical and one bound column per filter kind, in
    spec order: ``time,mse_<k1>,bound_<k1>,mse_<k2>,bound_<k2>,...``. Floats
    are written in shortest round-trip form, so re-exporting the same result
    is byte-identical.
    """
    if result.times.size == 0:
        raise ValueError("result has no time points to export")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    mse_path = directory / "mse.csv"
    header = ["time"]
    for kind in result.spec.filters:
        header += [f"mse_{kind}", f"bound_{kind}"]
    lines = [",".join(header)]
    for i, t in enumerate(result.times):
        row = [_fmt(t)]
        for kind in result.spec.filters:
            row.append(_fmt(result.empirical_mse[kind][i]))
            bc = result.bound_curve[kind]
            row.append("nan" if bc is None else _fmt(bc[i]))
        lines.append(",".join(row))
    mse_path.write_text("\n".join(lines) + "\n")
    written.append(mse_path)

    ex_path = directory / "exceedance.csv"
    lines = ["filter,t,delta,frequency,limit"]
    for row in result.exceedance:
        lines.append(",".join([
            row["filter"], _fmt(row["t"]), _fmt(row["delta"]),
            _fmt(row["frequency"]), _fmt(row["limit"]),
        ]))
    ex_path.write_text("\n".join(lines) + "\n")
    written.append(ex_path)

    meta = {
        "library_version": __version__,
        "spec": result.spec.to_dict(),
        "seed": result.spec.seed,
        "certificates": {
            kind: (None if cert is None else cert.to_dict())
            for kind, cert in result.certificates.items()
        },
        "time_averaged_mse": result.time_averaged_mse,
        "max_trace_P": result.max_trace_P,
        "divergence_counts": result.divergence_counts,
        "alive_counts": result.alive_counts,
        "bound_dominates": result.bound_dominates,
        "warnings": result.warnings,
    }
    meta_path = directory / "experiment.json"
    meta_path.write_text(json.dumps(_jsonable(meta), sort_keys=True, indent=2) + "\n")
    written.append(meta_path)
    return written


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
