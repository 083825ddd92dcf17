"""Every export and report stays as pinned in ``tests/data/`` (see ``tests/pins.py``).

On the platform that made the pins the files must match byte for byte; on
any other platform, as the same text with each number within 1e-12
relative, since the bits depend on the BLAS kernels.
"""

import json

import pytest
from pins import DATA, experiment_files, platform_tag, quad_narrow_spec, same_numbers, stdout_of

from kbstab import run_experiment


@pytest.fixture(scope="module")
def assert_pinned():
    same_platform = platform_tag() == json.loads((DATA / "platform.json").read_text())

    def check(text, path):
        pinned = (DATA / path).read_text()
        if same_platform:
            assert text == pinned, f"{path} differs from its pin"
        else:
            assert same_numbers(text, pinned), f"{path} differs from its pin beyond 1e-12 relative"

    return check


@pytest.fixture(scope="module")
def quad_narrow_result():
    return run_experiment(quad_narrow_spec())


@pytest.mark.parametrize("case", ["fig1", "fig2", "quad_narrow"])
def test_experiment_exports_are_pinned(case, request, assert_pinned):
    # the presets reuse the session's runs, so only the quad_narrow run is extra work
    for name, text in experiment_files(request.getfixturevalue(f"{case}_result")).items():
        assert_pinned(text, f"exports/{case}/{name}")


def test_validate_report_is_pinned(assert_pinned):
    assert_pinned(stdout_of(["validate", "--seed", "7"]), "validate_seed7.json")


def test_numbers_compare_within_1e12_relative():
    assert same_numbers("t,0.5,x1.25e-3\n", "t,0.5,x1.25e-3\n")
    assert same_numbers("mse 1.0000000000001", "mse 1.0")
    assert not same_numbers("mse 1.000000000001", "mse 1.0")
    assert not same_numbers("mse 1.0", "bound 1.0")
    assert not same_numbers("mse 1.0, 2.0", "mse 1.0")
