import dataclasses
import json
import math
import threading

import numpy as np
import pytest

from kbstab import (
    ContinuousCertificate,
    ContinuousModel,
    ExperimentSpec,
    builtin_linear,
    continuous_concentration_threshold,
    continuous_mse_bound,
    contractive_certificate,
    export_result,
    make_filter_config,
    preset_spec,
    run_experiment,
)
from kbstab import harness
from kbstab.errors import ExperimentDivergenceError
from kbstab.filters import run_continuous_ensemble
from kbstab.harness import build_model
from kbstab.models import simulate_paths


def small_spec(**kw):
    base = dict(model="contractive3d", filters=("ekf",), dt=0.02, horizon=2.0,
                trajectories=40, seed=3, checkpoint_every=0.5)
    base.update(kw)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_basic_shapes(self):
        spec = small_spec(filters=("ekf", "ukf"))
        result = run_experiment(spec)
        n = int(round(spec.horizon / spec.dt)) + 1
        for kind in spec.filters:
            assert result.empirical_mse[kind].shape == (n,)
            assert result.bound_curve[kind].shape == (n,)
            assert result.checkpoint_err_sq[kind].shape == (40, 5)
            assert np.all(result.empirical_mse[kind] >= 0)
        assert result.divergence_counts == {"ekf": 0, "ukf": 0}

    def test_error_decay_with_offset_initialization(self):
        # nearly noiseless model: the filter pulls a wrong initial guess onto
        # the true trajectory, so the squared error decays from the offset
        model = builtin_linear(np.zeros((1, 1)), Q=1e-10 * np.eye(1), H=np.eye(1),
                               R=1e-4 * np.eye(1), mu0=np.array([1.0]),
                               Sigma0=1e-12 * np.eye(1))
        config = make_filter_config("ekf", model, Q_tuned=1e-6 * np.eye(1),
                                    x0_hat=np.zeros(1), P0=0.01 * np.eye(1))
        spec = ExperimentSpec(model="linear", trajectories=1, dt=1e-3, horizon=5.0,
                              seed=0, certificate="none")
        result = run_experiment(spec, model=model, configs={"ekf": config})
        mse = result.empirical_mse["ekf"]
        assert mse[0] == pytest.approx(1.0, abs=1e-6)
        assert mse[-1] <= 1e-3

    def test_time_average_window(self):
        spec = small_spec(average_from=1.0)
        result = run_experiment(spec)
        window = result.times >= 1.0
        assert result.time_averaged_mse["ekf"] == pytest.approx(
            float(result.empirical_mse["ekf"][window].mean()))

    def test_auto_certificate_attached(self):
        result = run_experiment(small_spec())
        cert = result.certificates["ekf"]
        assert cert is not None and cert.lam == pytest.approx(0.5947)

    def test_certified_trace_bound_holds_along_runs(self):
        result = run_experiment(small_spec(filters=("ekf", "ukf"), trajectories=60))
        for kind in ("ekf", "ukf"):
            cert = result.certificates[kind]
            assert result.max_trace_P[kind] <= cert.lambda_P + 1e-6

    def test_uncertifiable_model_warns(self):
        spec = ExperimentSpec(model="linear",
                              model_params=dict(A=[[0.5]], Q=[[1.0]], H=[[1.0]], R=[[1.0]]),
                              trajectories=5, dt=0.05, horizon=1.0, seed=1)
        result = run_experiment(spec)
        assert result.bound_curve["ekf"] is None
        assert any("no certificate" in w for w in result.warnings)

    def test_divergence_raises_with_result(self):
        spec = ExperimentSpec(model="linear",
                              model_params=dict(A=[[50.0]], Q=[[1.0]], H=[[1.0]], R=[[1.0]]),
                              trajectories=10, dt=0.5, horizon=200.0, seed=2)
        with pytest.raises(ExperimentDivergenceError) as info:
            run_experiment(spec)
        result = info.value.result
        assert result is not None
        assert result.divergence_counts["ekf"] == 10

    def test_invalid_checkpoint_spacing(self):
        with pytest.raises(ValueError):
            run_experiment(small_spec(checkpoint_every=0.03))

    def test_estimator_consistency_variance_halves(self):
        # doubling the number of trajectories should roughly halve the
        # variance of the time-averaged error across replicate seeds
        def averages(n_paths, seed0):
            vals = []
            for s in range(20):
                spec = small_spec(trajectories=n_paths, seed=seed0 + 1000 * s,
                                  dt=0.05, horizon=3.0)
                vals.append(run_experiment(spec).time_averaged_mse["ekf"])
            return np.asarray(vals)

        small = averages(20, 1)
        big = averages(40, 50)
        ratio = small.var(ddof=1) / big.var(ddof=1)
        # 3 standard errors of a log variance ratio with 19 dof per side
        slack = 3.0 * np.sqrt(4.0 / 19.0)
        assert np.log(2.0) - slack <= np.log(ratio) <= np.log(2.0) + slack


class TestValidityWindow:
    """Before its settle time ``T`` a certificate's values at ``T`` stand in."""

    def test_settle_time_inside_run(self):
        spec = small_spec(domination_from=0.0)
        model = build_model(spec)
        contractive = contractive_certificate(model, make_filter_config("ekf", model))
        cert = dataclasses.replace(contractive, T=0.5)
        result = run_experiment(spec, certificates={"ekf": cert})
        curve, times = result.bound_curve["ekf"], result.times
        before = times <= cert.T
        assert before.sum() > 1
        assert np.all(curve[before] == continuous_mse_bound(cert, cert.T))
        assert np.array_equal(curve[~before],
                              [continuous_mse_bound(cert, t) for t in times[~before]])
        rows = result.exceedance
        assert [(row["t"], row["delta"]) for row in rows] == [
            (t, delta) for t in result.checkpoint_times for delta in spec.deltas]
        assert rows[0]["t"] == 0.0
        for row in rows:
            assert row["threshold"] == continuous_concentration_threshold(
                cert, max(row["t"], cert.T), row["delta"])

    def test_domination_judged_from_domination_from(self):
        # flat level 0.5 from T = 2 on: the run's errors peak above it near
        # t = 1.2 but meet it at T, so only the spec's window sees a violation
        spec = small_spec(domination_from=0.0)
        cert = ContinuousCertificate(lam=1.0, lambda_P=10.0, T=2.0, C_lambda=0.0, u=1.0,
                                     rho=-1.0, C_T=0.0, e_T_sq=0.0, provenance="user")
        result = run_experiment(spec, certificates={"ekf": cert})
        mse, se = result.empirical_mse["ekf"], result.mse_stderr["ekf"]
        curve, times = result.bound_curve["ekf"], result.times

        def holds(start):
            sel = times >= start
            return bool(np.all(mse[sel] <= curve[sel] + 3.0 * se[sel]))

        assert holds(cert.T) and not holds(spec.domination_from)
        assert result.bound_dominates["ekf"] is False

    def test_window_past_the_horizon_is_the_whole_run(self):
        # a planted bound of 5e-13 that every path's error exceeds: with both
        # windows starting after the last time, the verdict still sees them
        spec = small_spec(trajectories=20, horizon=1.0, domination_from=50.0, average_from=50.0)
        cert = ContinuousCertificate(lam=1.0, lambda_P=10.0, T=0.0, C_lambda=0.0, u=1e-12,
                                     rho=-1.0, C_T=0.0, e_T_sq=0.0, provenance="user")
        result = run_experiment(spec, certificates={"ekf": cert})
        assert result.bound_dominates["ekf"] is False
        assert result.time_averaged_mse["ekf"] == float(result.empirical_mse["ekf"].mean())
        assert harness.window_start(50.0, result.times) == 0.0
        assert harness.window_start(0.5, result.times) == 0.5


class TestWorkers:
    def test_worker_count_does_not_change_results(self, tmp_path):
        spec1 = small_spec(trajectories=50, workers=1, filters=("ekf", "ukf", "gh"))
        spec4 = small_spec(trajectories=50, workers=4, filters=("ekf", "ukf", "gh"))
        r1, r4 = run_experiment(spec1), run_experiment(spec4)
        for kind in spec1.filters:
            assert np.array_equal(r1.empirical_mse[kind], r4.empirical_mse[kind])
            assert np.array_equal(r1.checkpoint_err_sq[kind], r4.checkpoint_err_sq[kind])
        d1, d4 = tmp_path / "w1", tmp_path / "w4"
        export_result(r1, d1)
        export_result(r4, d4)
        assert (d1 / "mse.csv").read_bytes() == (d4 / "mse.csv").read_bytes()
        assert (d1 / "exceedance.csv").read_bytes() == (d4 / "exceedance.csv").read_bytes()
        # experiment.json echoes the spec, so it differs in spec.workers and nowhere else
        m1, m4 = (json.loads((d / "experiment.json").read_text()) for d in (d1, d4))
        assert (m1["spec"].pop("workers"), m4["spec"].pop("workers")) == (1, 4)
        assert m1 == m4

    def test_one_batch_on_the_calling_thread(self, monkeypatch):
        calls = {"simulate": 0, "ensemble": [], "threads": 0}
        simulate, ensemble, start = (harness.simulate_paths, harness.run_continuous_ensemble,
                                     threading.Thread.start)

        def count_simulate(*args, **kwargs):
            calls["simulate"] += 1
            return simulate(*args, **kwargs)

        def count_ensemble(model, config, *args, **kwargs):
            calls["ensemble"].append(config.functional.kind)
            return ensemble(model, config, *args, **kwargs)

        def count_start(thread):
            calls["threads"] += 1
            return start(thread)

        monkeypatch.setattr(harness, "simulate_paths", count_simulate)
        monkeypatch.setattr(harness, "run_continuous_ensemble", count_ensemble)
        monkeypatch.setattr(threading.Thread, "start", count_start)
        run_experiment(small_spec(workers=4, filters=("ekf", "ukf")))
        assert calls == {"simulate": 1, "ensemble": ["ekf", "sigma"], "threads": 0}


class TestConcentrationCheck:
    """Every exceedance row carries its verdict, counted over the paths that never diverged."""

    def test_rows_and_pass(self):
        result = run_experiment(small_spec(trajectories=60, horizon=3.0, deltas=(0.5, 2.0)))
        rows = [r for r in result.exceedance if r["t"] in (1.0, 3.0)]
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= row["frequency"] <= 1.0
            assert row["passed"]

    def test_vacuous_delta(self):
        result = run_experiment(small_spec(trajectories=30, horizon=2.0, deltas=(0.01,)))
        (row,) = [r for r in result.exceedance if r["t"] == 2.0]
        assert row["frequency"] <= 1.0 and row["passed"]

    def test_large_delta_zero_frequency(self):
        result = run_experiment(small_spec(trajectories=30, horizon=2.0, deltas=(30.0,)))
        (row,) = [r for r in result.exceedance if r["t"] == 2.0]
        assert row["frequency"] == 0.0

    def test_rows_count_only_paths_that_never_diverged(self):
        # a cubic drift blows most paths up; 6 of them diverge after the last
        # checkpoint (t = 2) and must not be counted there either
        model = ContinuousModel(dim_x=1, dim_y=1, f=lambda x: x**3, jac_f=lambda x: 3 * x[..., None] ** 2,
                                Q=np.eye(1), H=np.eye(1), R=np.eye(1), mu0=np.zeros(1),
                                Sigma0=0.5 * np.eye(1), name="cubic")
        config = make_filter_config("ekf", model)
        cert = contractive_certificate(model, config, m_f=-1.0, n_f=-1.0)
        spec = small_spec(dt=0.01, horizon=2.3, trajectories=400)
        with pytest.raises(ExperimentDivergenceError) as exc:
            run_experiment(spec, model=model, certificates={"ekf": cert})
        result = exc.value.result
        _, states, incr, _ = simulate_paths(model, spec.dt, spec.horizon, spec.seed, spec.trajectories)
        alive = run_continuous_ensemble(model, config, states, incr, spec.dt).diverged < 0
        cps = result.checkpoint_err_sq["ekf"]
        assert alive.sum() == 22 and (~np.isnan(cps).any(axis=1)).sum() == 28
        assert len(result.exceedance) == len(result.checkpoint_times) * len(spec.deltas)
        for row in result.exceedance:
            i = list(result.checkpoint_times).index(row["t"])
            frequency = float((cps[alive, i] >= row["threshold"]).mean())
            assert row["frequency"] == frequency
            slack = 3.0 * math.sqrt(row["limit"] * (1.0 - row["limit"]) / 22)
            assert row["passed"] == (frequency <= row["limit"] + slack)
        (cell,) = [r for r in result.exceedance if r["t"] == 2.0 and r["delta"] == 1.0]
        assert cell["frequency"] == 0.0 and cell["passed"]


class TestExport:
    def test_schema_and_reexport(self, tmp_path):
        result = run_experiment(small_spec(filters=("ekf", "ukf")))
        files = export_result(result, tmp_path / "a")
        header = (tmp_path / "a" / "mse.csv").read_text().splitlines()[0]
        assert header == "time,mse_ekf,bound_ekf,mse_ukf,bound_ukf"
        export_result(result, tmp_path / "b")
        for name in ("mse.csv", "exceedance.csv", "experiment.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert len(files) == 3

    def test_metadata_contents(self, tmp_path):
        result = run_experiment(small_spec())
        export_result(result, tmp_path)
        meta = json.loads((tmp_path / "experiment.json").read_text())
        assert meta["spec"]["seed"] == 3
        assert meta["library_version"]
        assert meta["certificates"]["ekf"]["lambda"] == pytest.approx(0.5947)

    def test_empty_result_rejected(self, tmp_path):
        result = run_experiment(small_spec())
        result.times = np.array([])
        with pytest.raises(ValueError):
            export_result(result, tmp_path)


class TestBuildModel:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            build_model(ExperimentSpec(model="pendulum"))

    def test_contractive3d_takes_no_params(self):
        with pytest.raises(ValueError):
            build_model(ExperimentSpec(model="contractive3d", model_params={"q": 1.0}))

    def test_preset_unknown(self):
        with pytest.raises(ValueError):
            preset_spec("fig9")
