import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbstab import cli
from kbstab.cli import _CONFIG_KEYS, CheckResult, build_parser, main, validation_suite
from kbstab.filters import FILTER_KINDS
from kbstab.harness import PRESETS
from kbstab.models import philox
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
        code = main(["certify", "--model", "integrated_velocity"])
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
        assert out.splitlines()[0] == "certificate unavailable: failed hypothesis: contraction rate"

    def test_failed_hypothesis_names_each_filter(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "integrated_velocity",
                                   "model_params": {"a2": 10.0, "r": 5.0}, "filters": ["ekf", "ukf"]}))
        assert main(["certify", "--config", str(cfg)]) == 2
        heads = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
        assert heads == [f"certificate unavailable for filter={kind}: failed hypothesis: contraction rate"
                         for kind in ("ekf", "ukf")]

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
        cert = json.loads((tmp_path / "certificate_ukf.json").read_text())
        assert cert["C_lambda"] == pytest.approx(4.867, abs=1e-3)

    def test_certifies_every_filter_in_order(self, tmp_path, capsys):
        assert main(["certify", "--preset", "fig1", "--filter", "ekf"]) == 0
        ekf_only = capsys.readouterr().out
        assert main(["certify", "--preset", "fig1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("certificate for")]
        assert headers == ["certificate for model=contractive3d filter=ekf",
                           "certificate for model=contractive3d filter=ukf"]
        assert out.startswith(ekf_only)
        for kind, c_lambda in (("ekf", 0.0), ("ukf", 4.867)):
            cert = json.loads((tmp_path / f"certificate_{kind}.json").read_text())
            assert cert["C_lambda"] == pytest.approx(c_lambda, abs=1e-3)


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
        # the velocity certificate claims its bound from T = 7.71 on, and the
        # run checks it from domination_from = 1 against its value at T
        code = main(["simulate", "--model", "integrated_velocity", "--filter", "ekf",
                     "--trajectories", "5", "--dt", "0.05", "--horizon", "1.0", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound holds, checked from t = 1, claimed from t = 7.71," in out

    def test_summary_line_names_the_window_start_used(self, capsys):
        # domination_from = 1 lies past the horizon, so the whole run is checked
        code = main(["simulate", "--model", "integrated_velocity", "--filter", "ekf",
                     "--trajectories", "5", "--dt", "0.05", "--horizon", "0.5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checked from t = 0, claimed from t = 7.71," in out

    def test_checkpoint_grid_with_no_time_after_zero_is_named(self, tmp_path, capsys):
        # checkpoints every 1.0 over a horizon of 0.5 leave only t = 0, where the
        # error is the initial law's: the run goes on, and says so on stdout and
        # in experiment.json
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trajectories": 5, "dt": 0.05, "horizon": 0.5, "checkpoint_every": 1.0}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        warning = ("checkpoint_every = 1 exceeds the horizon 0.5: "
                   "concentration is checked only at t = 0, on the initial law")
        assert f"warning: {warning}" in capsys.readouterr().out.splitlines()
        assert json.loads((tmp_path / "out" / "experiment.json").read_text())["warnings"] == [warning]

    def test_divergence_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "linear",
            "model_params": {"A": [[50.0]], "Q": [[1.0]], "H": [[1.0]], "R": [[1.0]]},
            "trajectories": 5, "dt": 0.5, "horizon": 200.0, "seed": 2,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 3

    def test_run_larger_than_memory_is_config_error(self, capsys, traced_peak):
        # a billion paths over 100,000 steps would hold 8 x 100,001 x 1e9 x
        # (2 + 1 + 1) bytes; the preflight refuses before anything large exists
        codes = []
        argv = ["simulate", "--preset", "fig2", "--trajectories", "1000000000", "--horizon", "1000"]
        peak = traced_peak(lambda: codes.append(main(argv)))
        assert codes == [1]
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: the run would hold 3.2e+06 GB at once")
        assert "physical memory" in captured.err
        assert captured.out == ""
        assert peak <= 1e6

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
    """A ``model_params`` that is no object, misses or adds a key, or has a wrong-typed value is a config error naming it."""

    @pytest.mark.parametrize("command", ["certify", "simulate"])
    @pytest.mark.parametrize("model, params, named", [
        ("linear", {}, ["A", "Q", "H", "R"]),
        ("linear", {"A": [[-1.0]], "Q": [[1.0]], "H": [[1.0]]}, ["missing R"]),
        ("integrated_velocity", {"a2": 1.0, "nonsense": 1.0}, ["unknown nonsense"]),
        ("contractive3d", {"q": 1.0}, ["unknown q"]),
        ("integrated_velocity", [1], ["[1]"]),
        ("integrated_velocity", None, ["None"]),
        ("integrated_velocity", {"a1": "x"}, ["'integrated_velocity': a1 must be a finite number, got 'x'"]),
        ("integrated_velocity", {"a1": True}, ["'integrated_velocity': a1 must be a finite number, got True"]),
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
        # validate takes only --config, --preset and --seed
        ["validate", "--model", "nonsense"],
        ["validate", "--filter", "gh"],
        ["validate", "--trajectories", "5"],
        ["validate", "--dt", "-7"],
        ["validate", "--horizon", "1.0"],
        ["validate", "--workers", "0"],
        ["validate", "--out", "results"],
        ["validate", "--trajectories", "5", "--dt", "-7", "--model", "nonsense", "--filter", "gh",
         "--workers", "0", "--out", "results"],
        # certify reads no run flags
        ["certify", "--trajectories", "5"],
        ["certify", "--dt", "0.1"],
        ["certify", "--horizon", "1.0"],
        ["certify", "--workers", "2"],
        ["certify", "--seed", "3"],
        ["certify", "--filter", "ekf", "--filter", "ukf", "--trajectories", "5", "--dt", "3", "--workers", "3"],
        # no preset is called paper
        ["certify", "--preset", "paper"],
    ])
    def test_usage_error_is_config_error(self, argv, capsys, monkeypatch):
        import kbstab.cli as cli

        ran = []
        monkeypatch.setattr(cli, "validation_suite", lambda **kw: ran.append(kw) or [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""
        assert ran == []

    def test_paper_preset_offered_only_to_certify(self, capsys):
        # "paper" is no preset, and no subcommand offers it
        for command in ("certify", "simulate", "validate"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            assert "paper" not in capsys.readouterr().out, command


class TestRunValues:
    """Run values that cannot describe a run are config errors naming the field, before any work."""

    @pytest.mark.parametrize("config, field", [
        ({"horizon": math.inf}, "horizon"),
        ({"horizon": math.nan}, "horizon"),
        ({"horizon": 1.005}, "horizon"),
        ({"dt": math.inf}, "dt"),
        ({"dt": -math.inf}, "dt"),
        ({"checkpoint_every": 0}, "checkpoint_every"),
        ({"checkpoint_every": -0.5}, "checkpoint_every"),
        ({"checkpoint_every": math.inf}, "checkpoint_every"),
        ({"checkpoint_every": 0.015}, "checkpoint_every"),
        ({"deltas": [1.0, 0.0]}, "deltas"),
        ({"deltas": [-1.0]}, "deltas"),
        ({"trajectories": 2.5}, "trajectories"),
        ({"filters": []}, "filters"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_rejected(self, command, config, field, capsys, monkeypatch, tmp_path):
        import kbstab.cli as cli

        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: ran.append(spec))
        monkeypatch.setattr(cli, "certificate_for", lambda *args: ran.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {field} ")
        assert captured.out == ""
        assert ran == []

    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_repeated_filter_rejected(self, command, capsys, monkeypatch, tmp_path):
        import kbstab.cli as cli

        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: ran.append(spec))
        monkeypatch.setattr(cli, "certificate_for", lambda *args: ran.append(args))
        argv = [command, "--filter", "ukf", "--filter", "ekf", "--filter", "ukf", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: filters name 'ukf' more than once")
        assert captured.out == ""
        assert ran == []
        assert not (tmp_path / "out").exists()

    def test_non_finite_initial_mean_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "linear", "trajectories": 2, "horizon": 0.1,
                                   "model_params": {**LINEAR, "mu0": [math.nan]}}))
        for command in ("simulate", "certify"):
            assert main([command, "--config", str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: model_params for 'linear': mu0 must be a finite number")
            assert captured.out == ""

    def test_singular_measurement_noise_named_alike(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "linear", "trajectories": 2, "horizon": 0.1,
                                   "model_params": {**LINEAR, "R": [[0.0]]}}))
        errors = []
        for command in ("simulate", "certify"):
            assert main([command, "--config", str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0].startswith("config error: R must be positive definite")
        assert errors[0] == errors[1]

    def test_infinite_horizon_flag(self, capsys):
        assert main(["simulate", "--horizon", "inf"]) == 1
        assert capsys.readouterr().err.startswith("config error: horizon must be a finite number")

    def test_output_path_through_a_file(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        assert main(["certify", "--out", str(tmp_path / "file" / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot use")


NAN, INF = math.nan, math.inf
LINEAR = {"A": [[-1.0]], "Q": [[1.0]], "H": [[1.0]], "R": [[1.0]]}
# Per config key: values valid in any config, and values that are invalid,
# non-finite or wrongly typed in any config. Valid runs stay small: at most
# 3 trajectories over a horizon of at most 0.2.
FUZZ_VALUES = {
    "model": (["contractive3d", "integrated_velocity"], ["linear", "nonsense", 3, None, ["linear"]]),
    "model_params": ([{}], [{"a2": -1.0}, {"a2": NAN}, {"a2": INF}, {"a2": "x"}, LINEAR,
                            {**LINEAR, "A": [[NAN]]}, "x", [1], None]),
    "filter": (["ekf", "gh"], ["pf", 3, None, ["ekf"]]),
    "filters": ([["ekf"], ["ukf", "adf"], ["gh", "ekf"]], [[], ["pf"], "ekf", 3, None, [["ekf"]]]),
    "preset": (["fig1", "fig2", None], ["fig9", 1, ["fig1"]]),
    "trajectories": ([1, 3], [0, -2, NAN, INF, 2.5, "3", None, True]),
    "dt": ([0.05, 0.1], [0.0, -0.1, NAN, INF, -INF, "0.1", None, [0.1]]),
    "horizon": ([0.1, 0.2], [0.001, -1.0, NAN, INF, "1", None]),
    "seed": ([0, 7, -3, 2**70], [1.5, NAN, INF, "abc", None, True]),
    "workers": ([1, 2], [0, -1, NAN, INF, 1.5, "2", None]),
    "deltas": ([[0.5, 1.0], [2.0], []], [[0.0], [-1.0], [NAN], [INF], "abc", 3, [None], None]),
    "checkpoint_every": ([0.1, 0.2], [0.0, -0.5, NAN, INF, "0.1", None]),
    "average_from": ([0.0, 0.1, 5.0, -1.0], [NAN, INF, "x", None]),
    "domination_from": ([0.0, 0.1, 5.0, -1.0], [NAN, -INF, "x", None]),
    "certificate": (["auto", "none"], ["maybe", 1, None]),
    "out": (["out", None], ["file/out", 3, ["out"]]),
}
# Always set, so that no preset's 1000 paths over 10 time units can run.
ALWAYS = ["trajectories", "horizon"]


def test_choices_are_the_library_tables():
    # --preset and --filter offer exactly the preset table and the filter kinds
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    offered = {}
    for command, sub in commands.items():
        for action in sub._actions:
            for option in ("--preset", "--filter"):
                if option in action.option_strings:
                    offered[command, option] = tuple(action.choices)
    assert offered == {("certify", "--preset"): tuple(PRESETS), ("certify", "--filter"): FILTER_KINDS,
                       ("simulate", "--preset"): tuple(PRESETS), ("simulate", "--filter"): FILTER_KINDS,
                       ("validate", "--preset"): tuple(PRESETS)}


def test_config_keys_are_the_fuzzed_keys():
    # the accepted keys are derived from ExperimentSpec; the fuzz table names each one
    assert _CONFIG_KEYS == set(FUZZ_VALUES)


@pytest.mark.parametrize("bad_key", [None, *sorted(FUZZ_VALUES)])
@pytest.mark.parametrize("command", ["simulate", "certify"])
@settings(max_examples=25)
@given(data=st.data())
def test_fuzzed_config_files(command, bad_key, data):
    # a config file of valid values, with at most one key (bad_key) set to a
    # bad value: a bad file ends in a config error on stderr (exit 1) and
    # never a traceback, a good one in exit 0, 2 or 3
    optional = sorted(set(FUZZ_VALUES) - set(ALWAYS))
    keys = sorted(data.draw(st.sets(st.sampled_from(optional)))) + ALWAYS
    config = {key: data.draw(st.sampled_from(FUZZ_VALUES[key][0])) for key in keys}
    if bad_key:
        config[bad_key] = data.draw(st.sampled_from(FUZZ_VALUES[bad_key][1]))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("")
        if isinstance(config.get("out"), str):
            config["out"] = str(Path(tmp) / config["out"])
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("config error:") == (code == 1)
    # a "filter" key replaces "filters", bad or not
    rejected = bad_key is not None and not (bad_key == "filters" and "filter" in config)
    assert code == 1 if rejected else code in (0, 2, 3)


class TestSeeds:
    """A seed that is not an integer is a config error, not a traceback or a silent truncation."""

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, 2.0, None])
    @pytest.mark.parametrize("command", ["validate", "simulate", "certify"])
    def test_non_integer_seed_rejected(self, command, seed, capsys, monkeypatch, tmp_path):
        import kbstab.cli as cli

        ran = []
        monkeypatch.setattr(cli, "validation_suite", lambda **kw: ran.append(kw) or [])
        monkeypatch.setattr(cli, "run_experiment", lambda spec: ran.append(spec))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        assert main([command, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: seed must be an integer")
        assert captured.out == ""
        assert ran == []


class TestValidate:
    def test_corrupted_rule_fails_suite(self):
        rule = unscented_rule(2)
        bad = CubatureRule(points=rule.points, weights=rule.weights * 1.1)
        checks = validation_suite(samples=500, rules=[("ok", rule), ("bad", bad)])
        by_name = {c.name: c for c in checks}
        assert not by_name["exactness[bad]"].passed
        assert by_name["exactness[ok]"].passed
        assert any(not c.passed for c in checks)

    def test_reduced_suite_passes(self):
        checks = validation_suite(samples=2000)
        failures = [c.name for c in checks if not c.passed]
        assert failures == []

    def test_lemma_check_details_at_seed_7(self):
        by_name = {c.name: c for c in validation_suite(seed=7)}
        assert by_name["gronwall.euler_domination"].detail == "worst overshoot 3.33e-04"
        assert by_name["gaussian.moment_bound"].detail == (
            "n=1: 4.97 <= 55.4; n=2: 6.63 <= 105; n=3: 8.43 <= 156; zero-mean n=1: 3 <= 5; "
            "zero-mean n=2: 3.87 <= 10; zero-mean n=3: 4.72 <= 15")
        assert by_name["gronwall.euler_domination"].passed and by_name["gaussian.moment_bound"].passed

    def test_assumption_check_details_at_seed_7(self):
        # continuous sets are drawn at the seed and discrete ones at seed + 1
        worst = {
            "cont[contractive3d,ekf]": "-1.378e-02 with C_g=0",
            "disc[contractive3d,ekf]": "-1.967e-02 with C_g=0",
            "cont[contractive3d,ut]": "-4.717e-02 with C_g=3.91",
            "disc[contractive3d,ut]": "-2.105e-01 with C_g=4.57",
            "cont[contractive3d,gh3]": "-4.717e-02 with C_g=3.91",
            "disc[contractive3d,gh3]": "-2.105e-01 with C_g=4.57",
            "cont[integrated_velocity,ekf]": "-2.292e-04 with C_g=0",
            "disc[integrated_velocity,ekf]": "-1.149e-04 with C_g=0",
            "cont[integrated_velocity,ut]": "-5.704e-03 with C_g=2.059",
            "disc[integrated_velocity,ut]": "-9.831e-03 with C_g=1.871",
            "cont[integrated_velocity,gh3]": "-5.704e-03 with C_g=2.059",
            "disc[integrated_velocity,gh3]": "-9.831e-03 with C_g=1.871",
        }
        checks = [c for c in validation_suite(seed=7) if c.name.startswith("assumption.")]
        assert [c.name for c in checks] == [f"assumption.{key}" for key in worst]
        assert [c.detail for c in checks] == [f"worst violation {value}" for value in worst.values()]
        assert all(c.passed for c in checks)

    def test_assumption_checks_draw_each_set_once(self, monkeypatch):
        import kbstab.cli as cli
        import kbstab.functionals as functionals

        calls = {"draw": 0, "cont": 0, "disc": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(functionals, "_sample_inputs", counting("draw", functionals._sample_inputs))
        monkeypatch.setattr(cli, "check_assumption_continuous", counting("cont", cli.check_assumption_continuous))
        monkeypatch.setattr(cli, "check_assumption_discrete", counting("disc", cli.check_assumption_discrete))
        validation_suite(samples=200)
        assert calls == {"draw": 4, "cont": 6, "disc": 6}
        # no set outlives its call
        validation_suite(samples=200)
        assert calls == {"draw": 8, "cont": 12, "disc": 12}

    def test_assumption_checks_hold_one_set_at_a_time(self, traced_peak):
        # peaked at 6.71 MB (numpy 2.4); the bound leaves 4% over it. Keeping
        # both sets of a drift alive through its checks peaked at 7.91 MB
        from kbstab.cli import _assumption_checks

        _assumption_checks(7, 10)
        assert traced_peak(_assumption_checks, 7, 10000) <= 7.0e6

    def test_preset_concentration_check_appended(self):
        checks = validation_suite(
            samples=500, preset="fig1",
            preset_overrides=dict(trajectories=60, horizon=3.0, dt=0.02))
        names = [c.name for c in checks]
        assert "concentration[fig1,ekf]" in names
        assert "concentration[fig1,ukf]" in names
        assert all(c.passed for c in checks if c.name.startswith("concentration"))

    def test_lone_checkpoint_is_judged_once(self):
        # horizon 0.2 under fig1's checkpoint_every of 0.5 leaves t = 0 as the only
        # checkpoint; it is both the mid-horizon and the final one, and its rows
        # count once: one cell per delta of the preset's grid (4), not 8
        checks = validation_suite(seed=3, preset="fig1", preset_overrides=dict(horizon=0.2, trajectories=40))
        concentration = [c for c in checks if c.name.startswith("concentration")]
        assert [c.name for c in concentration] == ["concentration[fig1,ekf]", "concentration[fig1,ukf]"]
        assert len(PRESETS["fig1"]["deltas"]) == 4
        for c in concentration:
            assert c.detail.endswith(" over 4 cells"), c.detail

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

    @pytest.mark.parametrize("config, key", [
        ({"model": "contractive3d"}, "model"),
        ({"seed": 3, "trajectories": 5}, "trajectories"),
        ({"preset": "fig1", "workers": 2}, "workers"),
        ({"out": "results"}, "out"),
    ])
    def test_run_config_keys_rejected(self, config, key, capsys, monkeypatch, tmp_path):
        import kbstab.cli as cli

        ran = []
        monkeypatch.setattr(cli, "validation_suite", lambda **kw: ran.append(kw) or [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert f"unknown config keys: {key} " in captured.err
        assert captured.out == ""
        assert ran == []

    def test_config_preset_and_seed_accepted(self, capsys, monkeypatch, tmp_path):
        import kbstab.cli as cli

        ran = []
        monkeypatch.setattr(cli, "validation_suite", lambda **kw: ran.append(kw) or [])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "fig2", "seed": 4}))
        assert main(["validate", "--config", str(cfg), "--seed", "5"]) == 0
        assert ran == [{"seed": 5, "preset": "fig2"}]

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


class TestMatrixChecks:
    """``cli._matrix_inequality_checks`` walks its draws in chunks of ``MATRIX_CHECK_CHUNK``."""

    NAMES = ["lognorm.subadditivity", "lognorm.quadratic_sandwich", "lognorm.trace_inequality",
             "lognorm.mu_below_spectral"]

    @staticmethod
    def chunk_count():
        return -(-10000 // cli.MATRIX_CHECK_CHUNK)

    def test_chunks_take_every_draw_once_in_order(self, monkeypatch):
        seen = []
        norm = cli.spectral_norm
        monkeypatch.setattr(cli, "spectral_norm", lambda A: seen.append(A.copy()) or norm(A))
        checks = cli._matrix_inequality_checks(5)
        assert [c.name for c in checks] == self.NAMES and all(c.passed for c in checks)
        assert len(seen) == self.chunk_count() > 1
        assert all(len(A) <= cli.MATRIX_CHECK_CHUNK for A in seen)
        assert np.array_equal(np.concatenate(seen), philox(5, 10).standard_normal((10000, 4, 4)))

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_a_violation_in_one_chunk_fails_the_check(self, monkeypatch, where):
        # the norm under-reports on one matrix of one chunk; the check must see it
        target = 0 if where == "first" else self.chunk_count() - 1
        calls = []
        norm = cli.spectral_norm

        def planted(A):
            out = norm(A)
            if len(calls) == target:
                out[len(out) // 2] = -1.0
            calls.append(len(A))
            return out

        monkeypatch.setattr(cli, "spectral_norm", planted)
        verdicts = {c.name: c.passed for c in cli._matrix_inequality_checks(5)}
        assert len(calls) == self.chunk_count()
        assert verdicts == {name: name != "lognorm.mu_below_spectral" for name in self.NAMES}
