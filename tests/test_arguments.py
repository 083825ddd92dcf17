"""Two tables of bad arguments: every public entry point names the number, size, shape or matrix it rejects.

Each argument is fed NaN, both infinities, ``True``, ``"1"`` and ``None`` (and
``2.5`` where an integer belongs; a matrix gets them as one entry, or as a
bool matrix). The entry point must raise a ``ValueError`` whose message
starts with the argument's name, by the rules of :mod:`kbstab.checks`. Each
array the API sizes is also fed one of another shape, and the message must
read ``<name> must have shape ..., got ...``.
"""

import dataclasses

import math
import re

import numpy as np
import pytest

from kbstab import (
    AssumptionInputs,
    CubatureRule,
    ExperimentSpec,
    Functional,
    assumption_inputs,
    builtin_contractive3d,
    builtin_discrete_linear,
    builtin_integrated_velocity,
    builtin_linear,
    check_assumption_continuous,
    check_assumption_discrete,
    check_degree_two_exactness,
    contractive_certificate,
    eval_mean,
    eval_riccati_cont,
    eval_riccati_disc,
    chi_square_moment_bound,
    gauss_hermite_rule,
    gaussian_norm_moment,
    integrated_velocity_certificate,
    log_norm_mu,
    log_norm_nu,
    make_filter_config,
    matrix_sqrt,
    required_inflation,
    run_continuous_ensemble,
    run_discrete_ensemble,
    run_experiment,
    simulate_discrete_paths,
    simulate_paths,
    spectral_norm,
    unscented_rule,
)
from kbstab.functionals import eval_drift_batch, eval_mean_batch
from kbstab.matrix_measures import log_norm_range

NUMBER = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True, "'1'": "1", "None": None}
INTEGER = {**NUMBER, "2.5": 2.5}
IS_NUMBER, IS_INTEGER = "a finite number, got ", "an integer, got "


def matrix(good):
    """Bad forms of the valid matrix ``good``: one entry NaN or infinite, its bool cast, text and ``None``."""
    good = np.asarray(good, dtype=float)
    bad = {}
    for label, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        bad[f"{label}-entry"] = good.copy()
        bad[f"{label}-entry"].flat[0] = value
    return {**bad, "bool": good.astype(bool), "'1'": "1", "None": None}


def optional(values):
    """``values`` without ``None``, for an argument whose ``None`` asks for its default."""
    return {label: value for label, value in values.items() if value is not None}


def linear(build, name, value):
    args = dict(A=-0.5 * np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
    return build(**{**args, name: value})


def tuned(name, value):
    return make_filter_config("ekf", builtin_contractive3d(), **{name: value})


def small_spec(**change):
    return ExperimentSpec(**{"trajectories": 2, "horizon": 0.1, "checkpoint_every": 0.05, **change})


def velocity_paths(**change):
    return simulate_paths(builtin_integrated_velocity(), **{"dt": 0.05, "horizon": 0.1, "seed": 0, "n_paths": 1,
                                                             **change})


def discrete_paths(**change):
    model = builtin_discrete_linear(0.5 * np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1))
    return simulate_discrete_paths(model, **{"steps": 2, "seed": 0, "n_paths": 1, **change})


def continuous_run(dt=0.1, states=np.zeros((1, 2, 2)), increments=np.zeros((1, 2, 1)), config=None):
    model = builtin_integrated_velocity()
    return run_continuous_ensemble(model, config or make_filter_config("ekf", model), states, increments, dt)


def single_pair(evaluate, **change):
    return evaluate(Functional("sigma", unscented_rule(2)), lambda x: x, **{"x": np.zeros(2), "P": np.eye(2), **change})


def moment_of(moment, **change):
    return moment(**{"m": np.ones(2), "P": np.eye(2), "n": 2, **change})


def assumption(check, **change):
    constants = {"m_g": 1.0, "n_g": -1.0} if check is check_assumption_continuous else {"jf_norm": 0.5}
    return check(Functional("ekf"), lambda x: x, inputs=assumption_inputs(1, samples=10), **{**constants, **change})


# (entry point, argument, bad values, what the message says after "<argument> must be ", call)
CASES = [
    (unscented_rule, "dim", INTEGER, IS_INTEGER, lambda v: unscented_rule(v)),
    (unscented_rule, "kappa", optional(NUMBER), IS_NUMBER, lambda v: unscented_rule(2, v)),
    (gauss_hermite_rule, "dim", INTEGER, IS_INTEGER, lambda v: gauss_hermite_rule(v, 3)),
    (gauss_hermite_rule, "order", INTEGER, IS_INTEGER, lambda v: gauss_hermite_rule(2, v)),
    (check_degree_two_exactness, "tol", NUMBER, IS_NUMBER,
     lambda v: check_degree_two_exactness(unscented_rule(2), tol=v)),
    (check_degree_two_exactness, "rule", NUMBER, "a CubatureRule, got ", lambda v: check_degree_two_exactness(v)),
    (matrix_sqrt, "P", matrix(np.eye(2)), IS_NUMBER, matrix_sqrt),
    (log_norm_range, "A", matrix(np.eye(2)), IS_NUMBER, log_norm_range),
    (log_norm_mu, "A", matrix([[1.0, 2.0], [0.0, 1.0]]), IS_NUMBER, log_norm_mu),
    (log_norm_nu, "A", matrix(np.eye(2)), IS_NUMBER, log_norm_nu),
    (spectral_norm, "A", matrix(np.ones((3, 2, 2))), IS_NUMBER, spectral_norm),
    *((make_filter_config, name, optional(matrix(good)), IS_NUMBER, lambda v, name=name: tuned(name, v))
      for name, good in (("Q_tuned", np.eye(3)), ("x0_hat", np.zeros(3)), ("P0", np.eye(3)))),
    *((builtin_integrated_velocity, name, NUMBER, IS_NUMBER,
       lambda v, name=name: builtin_integrated_velocity(**{name: v}))
      for name in ("a1", "a2", "q1", "q2", "h", "r")),
    *((build, name, (optional if name in ("mu0", "Sigma0") else dict)(matrix(good)), IS_NUMBER,
       lambda v, build=build, name=name: linear(build, name, v))
      for build in (builtin_linear, builtin_discrete_linear)
      for name, good in (("A", np.eye(2)), ("Q", np.eye(2)), ("H", np.eye(2)), ("R", np.eye(2)),
                         ("mu0", np.zeros(2)), ("Sigma0", np.eye(2)))),
    (simulate_paths, "dt", NUMBER, IS_NUMBER, lambda v: velocity_paths(dt=v)),
    (simulate_paths, "horizon", NUMBER, IS_NUMBER, lambda v: velocity_paths(horizon=v)),
    *((simulate_paths, name, INTEGER, IS_INTEGER, lambda v, name=name: velocity_paths(**{name: v}))
      for name in ("seed", "n_paths", "first_path")),
    *((simulate_discrete_paths, name, INTEGER, IS_INTEGER, lambda v, name=name: discrete_paths(**{name: v}))
      for name in ("steps", "seed", "n_paths", "first_path")),
    (run_continuous_ensemble, "dt", NUMBER, IS_NUMBER, continuous_run),
    *((evaluate, name, values, IS_NUMBER, lambda v, evaluate=evaluate, name=name: single_pair(evaluate, **{name: v}))
      for evaluate in (eval_mean, eval_riccati_cont, eval_riccati_disc)
      for name, values in (("x", matrix(np.zeros(2))), ("P", matrix(np.eye(2))))),
    (required_inflation, "target_lambda", NUMBER, IS_NUMBER, lambda v: required_inflation(builtin_contractive3d(), v)),
    *((moment, name, values, says, lambda v, moment=moment, name=name: moment_of(moment, **{name: v}))
      for moment in (gaussian_norm_moment, chi_square_moment_bound)
      for name, values, says in (("m", matrix(np.ones(2)), IS_NUMBER), ("P", matrix(np.eye(2)), IS_NUMBER),
                                 ("n", INTEGER, IS_INTEGER))),
    *((check, name, optional(NUMBER) if name == "c_g" else NUMBER, IS_NUMBER,
       lambda v, check=check, name=name: assumption(check, **{name: v}))
      for check, names in ((check_assumption_continuous, ("m_g", "n_g", "c_g")),
                           (check_assumption_discrete, ("jf_norm", "c_g")))
      for name in names),
    *((assumption_inputs, name, INTEGER, IS_INTEGER,
       lambda v, name=name: assumption_inputs(**{"dim": 1, "samples": 10, name: v}))
      for name in ("dim", "samples", "seed")),
    (assumption_inputs, "box", NUMBER, "two finite numbers low < high, got ",
     lambda v: assumption_inputs(1, samples=10, box=(v, 1.0))),
    *((ExperimentSpec, name, NUMBER, IS_NUMBER, lambda v, name=name: small_spec(**{name: v}))
      for name in ("dt", "horizon", "checkpoint_every", "average_from", "domination_from")),
    (ExperimentSpec, "deltas", NUMBER, IS_NUMBER, lambda v: small_spec(deltas=(1.0, v))),
    *((ExperimentSpec, name, INTEGER, IS_INTEGER, lambda v, name=name: small_spec(**{name: v}))
      for name in ("trajectories", "workers", "seed")),
]


@pytest.mark.parametrize("name, value, says, call", [
    pytest.param(name, value, says, call, id=f"{entry.__name__}-{name}-{label}")
    for entry, name, values, says, call in CASES
    for label, value in values.items()
])
def test_bad_argument_named(name, value, says, call):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {re.escape(says)}"):
        call(value)


def batch_pair(evaluate, x=np.zeros((4, 2)), P=np.tile(np.eye(2)[:, :, None], (1, 1, 4)), **kwargs):
    return evaluate(Functional("sigma", unscented_rule(2)), g=lambda z: z, x=x, P=P, **kwargs)


def velocity_certificate(**change):
    model = dataclasses.replace(builtin_integrated_velocity(), **change)
    return integrated_velocity_certificate(model, make_filter_config("ekf", model))


def triple(**change):
    return AssumptionInputs(**{"x": np.zeros((10, 2)), "x_alt": np.zeros((10, 2)), "P": np.zeros((10, 2, 2)), **change})


SMALL = builtin_discrete_linear(0.5 * np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1))
SIZE_3 = make_filter_config("ekf", builtin_contractive3d())
EVALUATORS = {"eval_mean": eval_mean, "eval_riccati_cont": eval_riccati_cont, "eval_riccati_disc": eval_riccati_disc}

# (id, argument, what the message says after "<argument> must have shape ", call)
SHAPE_CASES = [
    *((f"{build.__name__}-{name}", name, says, lambda build=build, name=name, value=value: linear(build, name, value))
      for build in (builtin_linear, builtin_discrete_linear)
      for name, value, says in (("H", np.ones(2), "(any, any), got (2,)"), ("mu0", np.zeros(3), "(2,), got (3,)"),
                                ("Q", np.eye(3), "(2, 2), got (3, 3)"), ("R", np.eye(1), "(2, 2), got (1, 1)"),
                                ("Sigma0", np.eye(3), "(2, 2), got (3, 3)"), ("A", np.eye(3), "(2, 2), got (3, 3)"))),
    *((f"make_filter_config-{name}", name, says, lambda name=name, value=value: tuned(name, value))
      for name, value, says in (("Q_tuned", np.eye(2), "(3, 3), got (2, 2)"), ("P0", np.eye(4), "(3, 3), got (4, 4)"),
                                ("x0_hat", np.zeros(2), "(3,), got (2,)"))),
    ("run_continuous_ensemble-states-2d", "states", "(any, any, 2), got (2, 2)",
     lambda: continuous_run(states=np.zeros((2, 2)))),
    ("run_continuous_ensemble-states-wrong-d", "states", "(any, any, 2), got (1, 2, 3)",
     lambda: continuous_run(states=np.zeros((1, 2, 3)))),
    ("run_continuous_ensemble-increments", "increments", "(1, 2, 1), got (1, 2, 2)",
     lambda: continuous_run(increments=np.zeros((1, 2, 2)))),
    ("run_continuous_ensemble-x0_hat", "x0_hat", "(2,), got (3,)", lambda: continuous_run(config=SIZE_3)),
    ("run_discrete_ensemble-measurements", "measurements", "(1, 3, 1), got (1, 2, 1)",
     lambda: run_discrete_ensemble(SMALL, make_filter_config("ekf", SMALL), np.zeros((1, 3, 1)), np.zeros((1, 2, 1)))),
    ("run_experiment-x0_hat", "x0_hat", "(3,), got (2,)",
     lambda: run_experiment(small_spec(filters=("ekf",)), configs={"ekf": make_filter_config("ekf", linear(
         builtin_linear, "A", -0.5 * np.eye(2)))})),
    *((f"{label}-x-0d", "x", "(any,), got ()", lambda evaluate=evaluate: single_pair(evaluate, x=np.float64(0.0)))
      for label, evaluate in EVALUATORS.items()),
    *((f"{label}-x-3d", "x", "(any, any), got (1, 1, 2)",
       lambda evaluate=evaluate: single_pair(evaluate, x=np.zeros((1, 1, 2)), P=np.eye(2)[None]))
      for label, evaluate in EVALUATORS.items()),
    *((f"{label}-x-of-another-size", "x", "(any, 2), got (1, 3)",
       lambda evaluate=evaluate: single_pair(evaluate, x=np.zeros(3), P=np.eye(3)))
      for label, evaluate in EVALUATORS.items()),
    *((f"{label}-P-single", "P", "(2, 2), got (3, 3)", lambda evaluate=evaluate: single_pair(evaluate, P=np.eye(3)))
      for label, evaluate in EVALUATORS.items()),
    *((f"{label}-P-of-a-batch", "P", "(4, 2, 2), got (2, 2)",
       lambda evaluate=evaluate: single_pair(evaluate, x=np.zeros((4, 2))))
      for label, evaluate in EVALUATORS.items()),
    ("eval_mean_batch-P", "P", "(2, 2, 4), got (2, 2, 3)",
     lambda: batch_pair(eval_mean_batch, P=np.tile(np.eye(2)[:, :, None], (1, 1, 3)))),
    ("eval_drift_batch-root", "root", "(2, 2, 4), got (2, 2, 3)",
     lambda: batch_pair(eval_drift_batch, time="cont", root=np.tile(np.eye(2)[:, :, None], (1, 1, 3)))),
    ("AssumptionInputs-x", "x", "(any, any), got (10,)", lambda: triple(x=np.zeros(10))),
    ("AssumptionInputs-x_alt", "x_alt", "(10, 2), got (10, 3)", lambda: triple(x_alt=np.zeros((10, 3)))),
    ("AssumptionInputs-P", "P", "(10, 2, 2), got (9, 2, 2)", lambda: triple(P=np.zeros((9, 2, 2)))),
    ("check_assumption_continuous-inputs", "inputs", "(any, 3), got (10, 1)",
     lambda: check_assumption_continuous(Functional("sigma", unscented_rule(3)), lambda x: x, 1.0, -1.0,
                                         inputs=assumption_inputs(1, samples=10))),
    ("CubatureRule-points", "points", "(2, any), got (2,)",
     lambda: CubatureRule(points=[1.0, -1.0], weights=[0.5, 0.5])),
    ("matrix_sqrt-P", "P", "(any, any), got (2, 2, 2)", lambda: matrix_sqrt(np.stack([np.eye(2)] * 2))),
    ("contractive_certificate-x0_hat", "x0_hat", "(3,), got (2,)",
     lambda: contractive_certificate(builtin_contractive3d(), make_filter_config("ekf", linear(
         builtin_linear, "A", -0.5 * np.eye(2))))),
    ("integrated_velocity_certificate-R", "R", "(1, 1), got (2, 2)",
     lambda: velocity_certificate(H=np.eye(2), R=np.eye(2))),
    ("integrated_velocity_certificate-H", "H", "(1, 2), got (1, 3)",
     lambda: velocity_certificate(H=np.ones((1, 3)), Q=np.eye(3), mu0=np.zeros(3), Sigma0=np.eye(3))),
    *((f"{moment.__name__}-{name}", name, says, lambda moment=moment, change=change: moment_of(moment, **change))
      for moment in (gaussian_norm_moment, chi_square_moment_bound)
      for name, change, says in (("m", {"m": np.ones(3)}, "(2,), got (3,)"),
                                 ("P", {"P": np.stack([np.eye(2)] * 2)}, "(any, any), got (2, 2, 2)"))),
]


@pytest.mark.parametrize("name, says, call", [pytest.param(*case[1:], id=case[0]) for case in SHAPE_CASES])
def test_bad_shape_named(name, says, call):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must have shape {re.escape(says)}$"):
        call()


def test_any_shape_of_the_right_size_accepted():
    # a mean or initial estimate is read as a flat vector, so a row of the right size is one
    model = linear(builtin_linear, "mu0", np.zeros((1, 2)))
    assert model.mu0.shape == (2,)
    assert make_filter_config("ekf", model, x0_hat=np.zeros((2, 1))).x0_hat.shape == (2,)
    assert moment_of(gaussian_norm_moment, m=np.ones((1, 2))) == moment_of(gaussian_norm_moment)
