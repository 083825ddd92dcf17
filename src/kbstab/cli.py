"""Batch front-end: certificate reports, Monte Carlo runs, and a property suite.

Exit codes: 0 success, 1 malformed config or flags, 2 certificate or
validation failure, 3 runtime divergence. All stochastic output is fully
determined by ``--seed``. ``--workers`` is accepted and has no effect: a run
is one batch on one thread.
"""

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .checks import check_integer
from .errors import CertificateError, ConfigError, ExperimentDivergenceError
from .filters import FILTER_KINDS, make_filter_config
from .functionals import assumption_inputs, check_assumption_continuous, check_assumption_discrete
from .harness import (
    PRESETS,
    ExperimentSpec,
    build_model,
    certificate_for,
    claim_time,
    export_result,
    preset_spec,
    run_experiment,
    window_start,
)
from .matrix_measures import log_norm_mu, log_norm_nu, spectral_norm
from .models import builtin_contractive3d, builtin_integrated_velocity, philox
from .quadrature import check_degree_two_exactness, gauss_hermite_rule, unscented_rule
from .stability import chi_square_moment_bound, gaussian_norm_moment, gronwall_continuous

# the spec's fields, a single ``filter`` and the export directory ``out``
_CONFIG_KEYS = {f.name for f in fields(ExperimentSpec)} | {"filter", "out"}
_VALIDATE_KEYS = {"preset", "seed"}


def _load_config(path, accepted):
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(raw) - accepted)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)} "
                          f"(accepted: {', '.join(sorted(accepted))})")
    return raw


def _merged_options(args, accepted=_CONFIG_KEYS):
    """Config file first, then command-line flags override field by field."""
    opts = _load_config(args.config, accepted) if args.config else {}
    if "filter" in opts:
        opts["filters"] = [opts.pop("filter")]
    flag_map = {key: getattr(args, key, None)
                for key in ("model", "preset", "trajectories", "dt", "horizon", "seed", "workers", "out")}
    if getattr(args, "filter", None):
        flag_map["filters"] = list(args.filter)
    for key, value in flag_map.items():
        if value is not None:
            opts[key] = value
    return opts


def _spec_from_options(opts):
    out = opts.pop("out", None)
    preset = opts.pop("preset", None)
    try:
        spec = preset_spec(preset, **opts) if preset else ExperimentSpec(**opts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if out is not None:
        try:
            Path(out).mkdir(parents=True, exist_ok=True)
        except (TypeError, OSError) as exc:
            raise ConfigError(f"cannot use {out!r} as the output directory: {exc}") from exc
    return spec, out


def cmd_certify(args):
    spec, out = _spec_from_options(_merged_options(args))
    try:
        model = build_model(spec)
        configs = {kind: make_filter_config(kind, model) for kind in spec.filters}
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    code = 0
    for kind, config in configs.items():
        try:
            cert = certificate_for(model, config)
        except CertificateError as exc:
            which = f" for filter={kind}" if len(configs) > 1 else ""
            print(f"certificate unavailable{which}: failed hypothesis: {exc.hypothesis}")
            print(f"  {exc}")
            code = 2
            continue
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        print(f"certificate for model={model.name} filter={kind}")
        print(cert.format_text())
        if out:
            path = Path(out) / f"certificate_{kind}.json"
            path.write_text(cert.to_json() + "\n")
            print(f"wrote {path}")
    return code


def cmd_simulate(args):
    opts = _merged_options(args)
    spec, out = _spec_from_options(opts)
    try:
        result = run_experiment(spec)
    except ExperimentDivergenceError as exc:
        print(f"divergence: {exc}")
        return 3
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    for kind in spec.filters:
        avg = result.time_averaged_mse[kind]
        dom = result.bound_dominates[kind]
        verdict = "no certificate" if dom is None else ("bound holds" if dom else "BOUND VIOLATED")
        checked = window_start(spec.domination_from, result.times)
        claimed = checked if dom is None else claim_time(result.certificates[kind], checked)
        if claimed > checked:
            verdict += f", checked from t = {checked:.3g}, claimed from t = {claimed:.3g}"
        print(f"{kind}: time-averaged MSE = {avg:.6g} ({verdict}, "
              f"diverged {result.divergence_counts[kind]}/{spec.trajectories})")
    for warning in result.warnings:
        print(f"warning: {warning}")
    if out:
        for path in export_result(result, out):
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Validation suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _check(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _exactness_checks(rules):
    out = []
    for label, rule in rules:
        report = check_degree_two_exactness(rule, tol=1e-9)
        detail = (f"residuals: weights {report.weight_sum_residual:.2e}, "
                  f"mean {report.mean_residual:.2e}, cov {report.covariance_residual:.2e}")
        out.append(_check(f"exactness[{label}]", report.passed, detail))
    return out


def _matrix_inequality_checks(seed, count=10000, dim=4):
    gen = philox(seed, 10)
    A = gen.standard_normal((count, dim, dim))
    B = gen.standard_normal((count, dim, dim))
    x = gen.standard_normal((count, dim))
    muA, muB, muAB = log_norm_mu(A), log_norm_mu(B), log_norm_mu(A + B)
    nuA, nuB, nuAB = log_norm_nu(A), log_norm_nu(B), log_norm_nu(A + B)
    tol = 1e-9
    sub = np.all(muAB <= muA + muB + tol) and np.all(nuAB >= nuA + nuB - tol)
    quad = np.einsum("bi,bij,bj->b", x, A, x)
    nrm2 = np.einsum("bi,bi->b", x, x)
    sandwich = np.all(quad <= muA * nrm2 + tol * np.maximum(1, nrm2)) and np.all(
        quad >= nuA * nrm2 - tol * np.maximum(1, nrm2))
    Bpsd = B @ np.swapaxes(B, 1, 2)
    trB = np.einsum("bii->b", Bpsd)
    trAB = np.einsum("bij,bji->b", A, Bpsd)
    trace_ok = np.all(trAB <= muA * trB + 1e-7 * np.maximum(1, np.abs(muA * trB))) and np.all(
        trAB >= nuA * trB - 1e-7 * np.maximum(1, np.abs(nuA * trB)))
    mu_vs_norm = np.all(muA <= np.linalg.svd(A, compute_uv=False)[:, 0] + tol)
    return [
        _check("lognorm.subadditivity", sub, f"{count} random pairs"),
        _check("lognorm.quadratic_sandwich", sandwich, f"{count} random (A, x)"),
        _check("lognorm.trace_inequality", trace_ok, f"{count} random (A, B>=0)"),
        _check("lognorm.mu_below_spectral", mu_vs_norm, f"{count} random matrices"),
    ]


def _assumption_checks(seed, samples):
    """One-sided consistency checks of the ``ekf``, ``ukf`` and ``gh`` functionals on two drifts, in both time models.

    Each functional is the one :func:`make_filter_config` builds for the
    drift's model; the checks are labelled ``ekf``, ``ut`` and ``gh3``.

    Each (drift, time model) pair draws one sample set, the continuous one
    at ``seed`` and the discrete one at ``seed + 1``, and its three
    functionals share it. A set is released before the next is drawn, so
    only one is alive at a time.
    """
    out = []
    for model in (builtin_contractive3d(), builtin_integrated_velocity()):
        name, f, jac, dim = model.name, model.f, model.jac_f, model.dim_x
        variants = [(label, make_filter_config(kind, model).functional)
                    for label, kind in (("ekf", "ekf"), ("ut", "ukf"), ("gh3", "gh"))]
        jf = float(np.max(spectral_norm(jac(philox(seed, 11).uniform(-6, 6, size=(4096, dim))))))
        times = [
            ("cont", check_assumption_continuous, (model.known_M_f, model.known_N_f), seed),
            ("disc", check_assumption_discrete, (jf,), seed + 1),
        ]
        results = {}
        for time, check, constants, set_seed in times:
            inputs = assumption_inputs(dim, samples, set_seed)
            for label, F in variants:
                rep = check(F, f, *constants, inputs=inputs)
                results[time, label] = _check(
                    f"assumption.{time}[{name},{label}]", rep.passed,
                    f"worst violation {rep.worst_violation:.3e} with C_g={rep.c_g_used:.4g}")
            del inputs
        out += [results[time, label] for label, _ in variants for time in ("cont", "disc")]
    return out


def _gronwall_check(seed, count=100):
    """Euler paths of ``x' = alpha x + beta`` against their Gronwall envelope.

    The envelope is built and compared 20 paths at a time, so its
    temporaries stay a fifth of the Euler array's size.
    """
    alpha, beta_c, x0 = philox(seed, 12).uniform([0.1, 0.0, 0.0], [3.0, 2.0, 5.0], size=(count, 3)).T
    alpha = -alpha
    dt, n = 1e-3, 2000
    x = np.empty((count, n + 1))
    x[:, 0] = x0
    for k in range(n):
        x[:, k + 1] = x[:, k] + dt * (alpha * x[:, k] + beta_c)
    t = np.arange(1, n + 1) * dt
    worst = -np.inf
    for r in range(0, count, 20):
        blk = slice(r, r + 20)
        env = gronwall_continuous(x0[blk, None], alpha[blk, None], beta_c[blk, None], t)
        np.subtract(x[blk, 1:], env, out=env)
        worst = np.maximum(worst, env.max())
    return [_check("gronwall.euler_domination", worst <= 10 * dt, f"worst overshoot {worst:.2e}")]


def _moment_bound_check(seed, dim=3):
    """Compare exact Gaussian norm moments with ``chi_square_moment_bound``.

    For ``X ~ N(m, P)``, ``E[||X||^{2n}]`` comes from the cumulants
    ``kappa_j = 2^{j-1} (j-1)! (tr P^j + j m^T P^{j-1} m)`` of ``||X||^2``
    (``gaussian_norm_moment``), so the check carries no sampling error. It
    covers ``n = 1, 2, 3`` for one mean with a random ``P`` and for the
    standard normal.
    """
    A = philox(seed, 13).standard_normal((dim, dim))
    cases = [("", np.array([0.5, -1.0, 0.25])[:dim], A @ A.T / dim), ("zero-mean ", 0, np.eye(dim))]
    ok, details = True, []
    for label, m, P in cases:
        for n in (1, 2, 3):
            exact = gaussian_norm_moment(m, P, n) ** (1.0 / n)
            bnd = chi_square_moment_bound(m, P, n)
            ok &= exact <= bnd
            details.append(f"{label}n={n}: {exact:.3g} <= {bnd:.3g}")
    return [_check("gaussian.moment_bound", ok, "; ".join(details))]


def validation_suite(seed=0, samples=10000, rules=None, preset=None, preset_overrides=None):
    """Assemble and run the full property suite; returns CheckResults.

    ``rules`` replaces the default exactness battery (used to inject
    deliberately corrupted rules). With ``preset`` set, the corresponding
    Monte Carlo experiment runs end-to-end and each filter's exceedance
    rows at the mid-horizon and final checkpoints, over the experiment's
    delta grid, become one check that passes when every row does;
    ``preset_overrides`` shrinks the run for smoke testing.
    """
    if rules is None:
        rules = [(f"ut_d{d}", unscented_rule(d)) for d in (1, 2, 3, 5)]
        rules += [("gh_1x5", gauss_hermite_rule(1, 5)), ("gh_2x4", gauss_hermite_rule(2, 4)),
                  ("gh_3x3", gauss_hermite_rule(3, 3))]
    checks = _exactness_checks(rules)
    checks += _matrix_inequality_checks(seed, count=10000)
    checks += _assumption_checks(seed, samples)
    checks += _gronwall_check(seed)
    checks += _moment_bound_check(seed)
    if preset:
        spec = preset_spec(preset, **(preset_overrides or {}))
        result = run_experiment(spec)
        cp = result.checkpoint_times
        picked = {float(cp[len(cp) // 2]), float(cp[-1])}
        for kind in spec.filters:
            if result.certificates[kind] is None:
                checks.append(_check(f"concentration[{preset},{kind}]", False, "no certificate"))
                continue
            rows = [r for r in result.exceedance if r["filter"] == kind and r["t"] in picked]
            ok = all(r["passed"] for r in rows)
            worst = max(r["frequency"] - r["limit"] for r in rows)
            checks.append(_check(
                f"concentration[{preset},{kind}]", ok,
                f"worst frequency excess {worst:+.4f} over {len(rows)} cells"))
    return checks


def cmd_validate(args):
    opts = _merged_options(args, _VALIDATE_KEYS)
    preset = opts.pop("preset", None)
    try:
        seed = check_integer("seed", opts.pop("seed", 0))
        if preset:
            preset_spec(preset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    checks = validation_suite(seed=seed, preset=preset)
    report = {"checks": [c.to_dict() for c in checks], "all_pass": all(c.passed for c in checks)}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["all_pass"] else 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are config errors (exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="kbstab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kbstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--preset", choices=tuple(PRESETS), help="pinned benchmark preset")

    def add_model(p):
        p.add_argument("--model", help="model name: contractive3d | integrated_velocity | linear")
        p.add_argument("--filter", action="append", choices=FILTER_KINDS,
                       help="filter kind (repeatable)")
        p.add_argument("--out", help="output directory")

    p_cert = sub.add_parser("certify", help="construct and print a stability certificate")
    add_common(p_cert)
    add_model(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment and export results")
    add_common(p_sim)
    add_model(p_sim)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--trajectories", type=int)
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--workers", type=int, help="accepted (at least 1) and has no effect")
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run the property suite")
    add_common(p_val)
    p_val.add_argument("--seed", type=int)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
