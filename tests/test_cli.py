import json

import pytest

from kbstab.cli import CheckResult, main, validation_suite
from kbstab.quadrature import CubatureRule, unscented_rule


class TestCertify:
    def test_contractive_ekf(self, capsys):
        code = main(["certify", "--model", "contractive3d", "--filter", "ekf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda           0.5947" in out
        assert "2.552" in out
        assert "C_lambda         0.0" in out

    def test_velocity_preset(self, capsys):
        code = main(["certify", "--model", "integrated_velocity", "--preset", "paper"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda_12" in out
        lam_p = float([l for l in out.splitlines() if l.startswith("lambda_P")][0].split()[-1])
        assert 0.15 <= lam_p <= 0.19

    def test_failed_hypothesis_reported(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "integrated_velocity",
                                   "model_params": {"a2": 10.0, "r": 5.0}}))
        code = main(["certify", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 2
        assert "failed hypothesis" in out

    @staticmethod
    def _linear_config(tmp_path, **params):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "linear", "model_params": params}))
        return str(cfg)

    def test_contractive_linear_config(self, tmp_path, capsys):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        cfg = self._linear_config(tmp_path, A=[[-1.0, 0.0], [0.0, -1.0]], Q=eye, H=eye, R=eye)
        assert main(["certify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "model=linear" in out
        assert "lambda           1.0\n" in out

    def test_expanding_linear_config(self, tmp_path, capsys):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        cfg = self._linear_config(tmp_path, A=[[0.5, 0.0], [0.0, 0.5]], Q=eye, H=eye, R=eye)
        assert main(["certify", "--config", cfg]) == 2
        assert "failed hypothesis: contractivity" in capsys.readouterr().out

    def test_linear_without_params(self, tmp_path, capsys):
        assert main(["certify", "--config", self._linear_config(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_writes_certificate_file(self, tmp_path, capsys):
        code = main(["certify", "--model", "contractive3d", "--filter", "ukf",
                     "--out", str(tmp_path)])
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["C_lambda"] == pytest.approx(4.867, abs=1e-3)


class TestSimulate:
    def test_deterministic_reruns(self, tmp_path, capsys):
        args = ["simulate", "--model", "contractive3d", "--filter", "ekf",
                "--trajectories", "1", "--dt", "0.05", "--horizon", "1.0", "--seed", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("mse.csv", "exceedance.csv", "experiment.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_summary_line(self, capsys):
        code = main(["simulate", "--model", "contractive3d", "--filter", "ekf",
                     "--trajectories", "5", "--dt", "0.05", "--horizon", "1.0", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "time-averaged MSE" in out
        assert "bound holds" in out
        assert "claimed from" not in out

    def test_summary_line_names_claim_window(self, capsys):
        # the velocity certificate claims its bound from T = 7.68 on, and the
        # run checks it from domination_from = 1 against its value at T
        code = main(["simulate", "--model", "integrated_velocity", "--filter", "ekf",
                     "--trajectories", "5", "--dt", "0.05", "--horizon", "1.0", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound holds, checked from t = 1, claimed from t = 7.68," in out

    def test_divergence_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "linear",
            "model_params": {"A": [[50.0]], "Q": [[1.0]], "H": [[1.0]], "R": [[1.0]]},
            "trajectories": 5, "dt": 0.5, "horizon": 200.0, "seed": 2,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "contractive3d", "filters": ["ekf"],
                                   "trajectories": 2, "dt": 0.05, "horizon": 0.5,
                                   "seed": 1}))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(out_dir)]) == 0
        meta = json.loads((out_dir / "experiment.json").read_text())
        assert meta["spec"]["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "contractive3d", "stepsize": 0.1}))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "stepsize" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg)]) == 1

    def test_invalid_model_params_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "integrated_velocity",
                                   "model_params": {"a2": -1.0}}))
        assert main(["certify", "--config", str(cfg)]) == 1
        cfg.write_text(json.dumps({"model": "integrated_velocity",
                                   "model_params": {"nonsense": 1.0},
                                   "trajectories": 2, "dt": 0.05, "horizon": 0.5}))
        assert main(["simulate", "--config", str(cfg)]) == 1


class TestModelParams:
    """Missing or unknown ``model_params`` keys are config errors that name the keys."""

    @pytest.mark.parametrize("command", ["certify", "simulate"])
    @pytest.mark.parametrize("model, params, named", [
        ("linear", {}, ["A", "Q", "H", "R"]),
        ("linear", {"A": [[-1.0]], "Q": [[1.0]], "H": [[1.0]]}, ["missing R"]),
        ("integrated_velocity", {"a2": 1.0, "nonsense": 1.0}, ["unknown nonsense"]),
        ("contractive3d", {"q": 1.0}, ["unknown q"]),
    ])
    def test_keys_named(self, command, model, params, named, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "model_params": params,
                                   "trajectories": 2, "dt": 0.05, "horizon": 0.5}))
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: model_params")
        for text in named:
            assert text in captured.err
        assert "Traceback" not in captured.err and "positional argument" not in captured.err
        assert "unexpected keyword" not in captured.err


class TestUsageErrors:
    """Malformed flags exit 1 with a config error; exit 2 stays reserved for failed checks."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--filter", "pf"],
        ["simulate", "--trajectories", "abc"],
        ["simulate", "--preset", "paper"],
        ["validate", "--preset", "paper"],
        [],
    ])
    def test_usage_error_is_config_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""

    def test_paper_preset_offered_only_to_certify(self, capsys):
        for command, offered in (("certify", True), ("simulate", False), ("validate", False)):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            assert ("paper" in capsys.readouterr().out) == offered, command


class TestValidate:
    def test_corrupted_rule_fails_suite(self):
        rule = unscented_rule(2)
        bad = CubatureRule(dim=2, points=rule.points, weights=rule.weights * 1.1)
        checks = validation_suite(samples=500, moment_draws=10**4,
                                  rules=[("ok", rule), ("bad", bad)])
        by_name = {c.name: c for c in checks}
        assert not by_name["exactness[bad]"].passed
        assert by_name["exactness[ok]"].passed
        assert any(not c.passed for c in checks)

    def test_reduced_suite_passes(self):
        checks = validation_suite(samples=2000, moment_draws=10**5)
        failures = [c.name for c in checks if not c.passed]
        assert failures == []

    def test_preset_concentration_check_appended(self):
        checks = validation_suite(
            samples=500, moment_draws=10**4, preset="fig1",
            preset_overrides=dict(trajectories=60, horizon=3.0, dt=0.02))
        names = [c.name for c in checks]
        assert "concentration[fig1,ekf]" in names
        assert "concentration[fig1,ukf]" in names
        assert all(c.passed for c in checks if c.name.startswith("concentration"))

    def test_unknown_preset_is_config_error(self, capsys, monkeypatch, tmp_path):
        import kbstab.cli as cli

        ran = []
        monkeypatch.setattr(cli, "validation_suite", lambda **kw: ran.append(kw) or [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig9"}))
        for argv in (["validate", "--preset", "paper"], ["validate", "--config", str(cfg)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("config error:")
            assert captured.out == ""
        assert ran == []

    def test_exit_codes(self, capsys, monkeypatch):
        import kbstab.cli as cli

        monkeypatch.setattr(cli, "validation_suite",
                            lambda **kw: [CheckResult("stub", True, "")])
        assert main(["validate"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"]

        monkeypatch.setattr(cli, "validation_suite",
                            lambda **kw: [CheckResult("stub", False, "broken")])
        assert main(["validate"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["all_pass"]
