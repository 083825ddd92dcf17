import json

import numpy as np
import pytest

from kbstab import (
    ExperimentSpec,
    builtin_linear,
    concentration_check,
    export_result,
    make_filter_config,
    preset_spec,
    run_experiment,
)
from kbstab.errors import ExperimentDivergenceError
from kbstab.harness import build_model


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


class TestConcentrationCheck:
    def test_rows_and_pass(self):
        spec = small_spec(trajectories=60, horizon=3.0)
        result = run_experiment(spec)
        cert = result.certificates["ekf"]
        rows = concentration_check(result, cert, [1.0, 3.0], [0.5, 2.0])
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= row["frequency"] <= 1.0
            assert row["passed"]

    def test_vacuous_delta(self):
        spec = small_spec(trajectories=30, horizon=2.0)
        result = run_experiment(spec)
        cert = result.certificates["ekf"]
        rows = concentration_check(result, cert, [2.0], [0.01])
        assert rows[0]["frequency"] <= 1.0 and rows[0]["passed"]

    def test_large_delta_zero_frequency(self):
        spec = small_spec(trajectories=30, horizon=2.0)
        result = run_experiment(spec)
        cert = result.certificates["ekf"]
        rows = concentration_check(result, cert, [2.0], [30.0])
        assert rows[0]["frequency"] == 0.0

    def test_unretained_time_rejected(self):
        result = run_experiment(small_spec())
        cert = result.certificates["ekf"]
        with pytest.raises(ValueError):
            concentration_check(result, cert, [0.77], [1.0])

    def test_needs_kind_when_ambiguous(self):
        result = run_experiment(small_spec(filters=("ekf", "ukf")))
        cert = result.certificates["ekf"]
        with pytest.raises(ValueError):
            concentration_check(result, cert, [1.0], [1.0])
        rows = concentration_check(result, cert, [1.0], [1.0], kind="ekf")
        assert rows


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
