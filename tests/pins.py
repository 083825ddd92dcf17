"""The pinned outputs in ``tests/data/``: how they are made, and how they are compared.

``tests/test_pinned_outputs.py`` checks that a change leaves every export
as it was. Regenerate the files only in a change that states an output
change, with the numbers that moved, by running

    PYTHONPATH=src python3 tests/pins.py

It writes ``certify --preset fig1|fig2`` stdout, ``validate --seed 7``
stdout, the ``mse.csv``, ``exceedance.csv`` and ``experiment.json`` of the
fig1 and fig2 presets and of a small ``gh`` + ``adf`` run, and the platform
tag of the machine that made them. Floating-point bits depend on the BLAS
kernels, so the files are compared byte for byte only where the tag
matches, and elsewhere as the same text with each number within 1e-12
relative.
"""

import contextlib
import ctypes
import io
import json
import platform
import re
import tempfile
from pathlib import Path

import numpy as np

from kbstab import ExperimentSpec, export_result, preset_spec, run_experiment
from kbstab.cli import main

DATA = Path(__file__).parent / "data"
EXPORTS = ("mse.csv", "exceedance.csv", "experiment.json")
# a number standing alone: not the 3 of contractive3d, the 12 of lambda_12 or the 0.1 of 0.1.0
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?![\w.])")


def quad_narrow_spec():
    """Wide rules on a narrow batch: ``gh`` and ``adf`` on 24 contractive3d paths over 100 steps."""
    return ExperimentSpec(model="contractive3d", filters=("gh", "adf"), trajectories=24, dt=0.01,
                          horizon=1.0, seed=7)


def experiment_files(result):
    """``{name: text}`` of the files :func:`~kbstab.export_result` writes for ``result``."""
    with tempfile.TemporaryDirectory() as out:
        export_result(result, out)
        return {name: (Path(out) / name).read_text() for name in EXPORTS}


def stdout_of(argv):
    """What ``kbstab argv`` prints; it must exit 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def _blas_core():
    """The kernel family a wheel's OpenBLAS picked for this CPU at load time, or ``None`` if unreadable.

    ``numpy.show_config`` names the build's target core, but a build with
    ``DYNAMIC_ARCH`` picks its kernels per CPU, and the kernels set the bits.
    """
    for lib in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def platform_tag():
    """The numpy version, the BLAS name, version and build from ``numpy.show_config``, its core and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "machine": platform.machine(), "blas_core": _blas_core(),
            "blas": " ".join(str(blas.get(key)) for key in ("name", "version", "openblas configuration"))}


def same_numbers(got, want):
    """Whether ``got`` is ``want``'s text with every number within 1e-12 relative."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    a, b = (np.array([float(x) for x in NUMBER.findall(text)]) for text in (got, want))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-12 * np.abs(b)))


def outputs():
    """``{path under tests/data: text}`` of every pinned output, made afresh."""
    files = {f"certify_{preset}.txt": stdout_of(["certify", "--preset", preset]) for preset in ("fig1", "fig2")}
    files["validate_seed7.json"] = stdout_of(["validate", "--seed", "7"])
    runs = {"fig1": preset_spec("fig1", workers=1), "fig2": preset_spec("fig2", workers=1),
            "quad_narrow": quad_narrow_spec()}
    for case, spec in runs.items():
        for name, text in experiment_files(run_experiment(spec)).items():
            files[f"exports/{case}/{name}"] = text
    files["platform.json"] = json.dumps(platform_tag(), indent=2, sort_keys=True) + "\n"
    return files


if __name__ == "__main__":
    for path, text in outputs().items():
        (DATA / path).parent.mkdir(parents=True, exist_ok=True)
        (DATA / path).write_text(text)
        print(DATA / path)
