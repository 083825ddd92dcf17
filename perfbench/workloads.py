"""The benchmark's workloads and the checks on their outputs.

Each workload is one ``kbstab`` command line. The seed is appended with
``--seed``, and simulate workloads export to ``--out``. After every
invocation the workload's check turns the exit code and outputs into an
:class:`Outcome`: how many attempts were made, how many failed, what went
wrong and a digest of the outputs, which must be identical across repeats.

An attempt is one (path, filter) pair of a Monte Carlo run, or one property
check of ``validate``. A diverged pair is a failed attempt. A failed output
check fails every attempt of its invocation.
"""

import hashlib
import json
from dataclasses import dataclass, field

DT = 0.01
# A reference MSE is met within this share of it; filters named in ``agree``
# must have time-averaged MSEs within this share of their mean.
MSE_REL_TOL = 0.15
AGREE_REL_TOL = 0.01


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list
    digest: str


@dataclass(frozen=True)
class Simulate:
    """A ``kbstab simulate`` workload and its expected outputs.

    ``mse_ref`` maps a filter to the time-averaged MSE it must reach within
    ``MSE_REL_TOL``; ``agree`` names filters whose time-averaged MSEs must
    agree within ``AGREE_REL_TOL`` of their mean.
    """

    name: str
    args: tuple
    filters: tuple
    paths: int
    steps: int
    workers: int = 1
    max_diverged_frac: float = 0.0
    mse_ref: dict = field(default_factory=dict)
    agree: tuple = ()

    @property
    def work(self):
        """Filter steps per invocation: paths x steps x filters."""
        return self.paths * self.steps * len(self.filters)

    work_unit = "filter steps"

    def argv(self, seed, out_dir):
        filters = [a for kind in self.filters for a in ("--filter", kind)]
        return ["simulate", *self.args, *filters, "--trajectories", str(self.paths),
                "--dt", str(DT), "--horizon", str(self.steps * DT), "--workers", str(self.workers),
                "--seed", str(seed), "--out", str(out_dir)]

    def check(self, code, stdout, out_dir):
        attempted = self.paths * len(self.filters)
        try:
            meta = json.loads((out_dir / "experiment.json").read_text())
            digest = hashlib.sha256(
                (out_dir / "mse.csv").read_bytes() + (out_dir / "exceedance.csv").read_bytes()
            ).hexdigest()
        except (OSError, ValueError) as exc:
            return Outcome(attempted, attempted, [f"exit {code}, outputs unreadable: {exc}"], "")
        problems = [] if code == 0 else [f"exit code {code}"]
        spec = meta["spec"]
        if spec["trajectories"] != self.paths or tuple(spec["filters"]) != self.filters:
            problems.append("spec in experiment.json differs from the workload")
        diverged = sum(meta["divergence_counts"].get(k, self.paths) for k in self.filters)
        if diverged > self.max_diverged_frac * attempted:
            problems.append(f"{diverged} of {attempted} (path, filter) pairs diverged")
        mse = meta["time_averaged_mse"]
        for kind in self.filters:
            if meta["bound_dominates"].get(kind) is not True:
                problems.append(f"{kind}: bound does not dominate")
        for kind, ref in self.mse_ref.items():
            if not abs(mse[kind] - ref) <= MSE_REL_TOL * ref:
                problems.append(f"{kind}: time-averaged MSE {mse[kind]:.6g} not within "
                                f"{MSE_REL_TOL:.0%} of {ref}")
        if self.agree:
            values = [mse[k] for k in self.agree]
            mean = sum(values) / len(values)
            if not max(values) - min(values) <= AGREE_REL_TOL * mean:
                problems.append(f"{'/'.join(self.agree)} MSEs {values} disagree by more than "
                                f"{AGREE_REL_TOL:.0%}")
        return Outcome(attempted, attempted if problems else diverged, problems, digest)


@dataclass(frozen=True)
class Validate:
    """The ``kbstab validate`` property suite without a preset."""

    name: str
    checks: int
    workers = 1
    work_unit = "property checks"

    @property
    def work(self):
        return self.checks

    def argv(self, seed, out_dir):
        return ["validate", "--seed", str(seed)]

    def check(self, code, stdout, out_dir):
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        try:
            report = json.loads(stdout)
            checks = report["checks"]
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(self.checks, self.checks, [f"exit {code}, report unreadable: {exc}"], digest)
        problems = [] if code == 0 else [f"exit code {code}"]
        failed_checks = [c["name"] for c in checks if not c["passed"]]
        if failed_checks or report.get("all_pass") is not True:
            problems.append(f"failed checks: {failed_checks}")
        if len(checks) != self.checks:
            problems.append(f"{len(checks)} checks reported, expected {self.checks}")
        attempted = max(len(checks), self.checks)
        return Outcome(attempted, attempted if problems else 0, problems, digest)


# Sizes are cut down from the presets so that one invocation takes about half
# a second to two seconds on two cores; README.md gives the reasons for each
# workload.
WORKLOADS = {
    w.name: w
    for w in (
        Simulate(
            name="fig1",
            args=("--preset", "fig1"),
            filters=("ekf", "ukf"),
            paths=500,
            steps=250,
            workers=2,
            mse_ref={"ekf": 1.058, "ukf": 1.128},
        ),
        Simulate(
            name="fig2",
            args=("--preset", "fig2"),
            filters=("ekf",),
            paths=1000,
            steps=400,
            max_diverged_frac=0.01,
        ),
        Simulate(
            name="quad_narrow",
            args=("--model", "contractive3d"),
            filters=("gh", "adf"),
            paths=24,
            steps=100,
            agree=("gh", "adf"),
        ),
        Validate(
            name="validate",
            checks=25,
        ),
    )
}
