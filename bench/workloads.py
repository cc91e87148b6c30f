"""The three workloads: what one operation is, how it runs, how it is checked.

cli-complete   `hrerank` as one subprocess per request on complete matrices
lib-incomplete in-process `hre_rank` on reachable incomplete matrices
mc-small       in-process `run_experiment` on survey-sized matrices

Each workload's `ops` list is one pass: a fixed set of requests.  A timed
run repeats whole passes and averages each request's times over them, so
every run and every commit measures the same requests and each percentile
compares like with like.  A traced run executes exactly one pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import calibrate
import oracle
from inputs import case_digest_parts, digest, make_case, matrix_text, rounded

REQUEST_TIMEOUT_S = 150

# `python -m hrerank` that reports its own peak RSS (VmHWM) as the last line
# of stderr.  The kernel's rusage figures would not do: a child's ru_maxrss
# starts from its parent's footprint at fork, so it would track the
# benchmark's memory, not the request's.
CHILD = """import runpy, sys
try:
    runpy.run_module("hrerank", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
"""


@dataclass(frozen=True)
class Op:
    kind: str  # request kind, e.g. "rank-hre-r1"; used for per-kind counts
    key: str   # the input the request reads
    argv: tuple = ()


class Workload:
    """Defaults shared by the workloads; `ops` is one pass, set by `setup`."""

    ops: list
    subprocesses = False  # True: peak RSS is the children's, not the benchmark's
    reference_nominal_s = calibrate.KERNEL_S  # nominal time of one `reference` sample

    def __init__(self, root, env):
        self.root, self.env = root, env

    def reference(self) -> list[float]:
        """Times of the workload's reference computation, run between requests."""
        return calibrate.reference_seconds(0.04)

    def decode(self, op, result):
        return result

    def verify_setup(self):
        return []


class CliComplete(Workload):
    """Matrix files at n=200 (noise 0.3, 1 and 3 references), a noise-0
    control at n=200, and an n=50 matrix for `cop` against the weights that
    `rank` returned for it during set-up.  Each request kind runs once per
    pass, so that a pass of eight requests at about 1.5 s each runs at
    least twice in a 30-second run."""

    name = "cli-complete"
    subprocesses = True
    reference_nominal_s = calibrate.PROGRAM_S
    CASES = {
        "big1": ("complete", 200, 0.3, 1),
        "big3": ("complete", 200, 0.3, 3),
        "zero3": ("complete", 200, 0.0, 3),
        "cop3": ("complete", 50, 0.3, 3),
    }
    ORDER = [
        ("rank", "hre", "big1"), ("rank", "ev", "big3"), ("diagnose", None, "big1"),
        ("rank", "min-error", "big3"), ("cop", None, "cop3"), ("rank", "gm", "big1"),
        ("rank", "hre", "big3"), ("rank", "hre", "zero3"),
    ]

    def reference(self):
        return [calibrate.program_seconds()]

    def setup(self, seed, workdir):
        self._kscan = {}
        self.child_peak_mb = []
        self.cases = {k: make_case(seed, *spec) for k, spec in self.CASES.items()}
        folder = workdir / f"{self.name}-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, case in self.cases.items():
            self.paths[key] = folder / f"{key}.txt"
            self.paths[key].write_text(matrix_text(case), encoding="utf-8")
        self.warmup = {}
        for key in ("cop3",):
            out = self.run(Op("warmup", key, ("rank", "--method", "hre", "--json", "--input", str(self.paths[key]))))
            self.warmup[key] = json.loads(out)
            weights = folder / f"{key}.weights.txt"
            weights.write_text("".join(f"{v!r}\n" for v in self.warmup[key]["weights"]), encoding="utf-8")
            self.paths[key + ".weights"] = weights
        self.ops = []
        for command, method, key in self.ORDER:
            argv = [command, "--json", "--input", str(self.paths[key])]
            if command == "rank":
                argv += ["--method", method]
            if command == "cop":
                argv += ["--weights", str(self.paths[key + ".weights"])]
            case = self.cases[key]
            kind = f"{command}-{method}-r{len(case.references)}" if method else command
            if case.noise == 0:
                kind += "-control"
            self.ops.append(Op(kind, key, tuple(argv)))

    def input_digest(self):
        return digest(part for key in sorted(self.cases) for part in case_digest_parts(self.cases[key]))

    def verify_setup(self):
        return [p for key, payload in self.warmup.items() for p in self._check_rank(key, payload)]

    def run(self, op):
        """One request through the package's `__main__`, as `python -m hrerank`."""
        proc = subprocess.run([sys.executable, "-c", CHILD, *op.argv], cwd=self.root, env=self.env,
                              capture_output=True, timeout=REQUEST_TIMEOUT_S)
        *messages, peak = proc.stderr.decode(errors="replace").splitlines() or [""]
        if peak.startswith("VmHWM:"):
            self.child_peak_mb.append(int(peak.split()[1]) / 1024)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {' '.join(messages)[-200:]}")
        return proc.stdout

    def run_in_process(self, op):
        from hrerank import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue()[-200:]}")
        return out.getvalue()

    def _kscan_for(self, key):
        if key not in self._kscan:
            self._kscan[key] = oracle.koczkodaj(oracle.prepare(self.cases[key].matrix, {}))
        return self._kscan[key]

    def _check_rank(self, key, payload):
        case, method = self.cases[key], payload["method"]
        diag = payload["diagnostics"]
        if method == "ev":
            problems = oracle.check_ev(case, payload["weights"], diag["error"])
        elif method == "gm":
            problems = oracle.check_gm(case, payload["weights"], diag["error"])
        else:
            problems = oracle.check_weights(case, payload["weights"], payload["path"], diag["error"])
            if method == "min-error" and payload["path"] != "min-error":
                problems.append(f"min-error request took path {payload['path']!r}")
        if payload["normalized"] != (method in ("ev", "gm")):
            problems.append("unexpected normalization flag")
        return problems + oracle.check_indices(case, diag["ci"], diag["koczkodaj"], kscan=self._kscan_for(key))

    def decode(self, op, out):
        """Parsed output; a cop report is reduced to its counts (it can be tens of MB)."""
        payload = json.loads(out)
        if op.argv[0] == "cop":
            payload = {"checked": payload["quadruples_checked"], "pop": len(payload["pop_violations"]),
                       "poip": len(payload["poip_violations"]), "satisfies": payload["satisfies_cop"]}
        return payload

    def check(self, op, payload):
        case = self.cases[op.key]
        if op.argv[0] == "rank":
            return self._check_rank(op.key, payload)
        if op.argv[0] == "diagnose":
            shape = (payload["n"], payload["complete"], payload["reciprocal"], payload["reachable"],
                     payload["unreachable"], payload["issues"])
            problems = [] if shape == (case.n, True, True, True, [], []) else [f"diagnose fields {shape}"]
            return problems + oracle.check_indices(case, payload["ci"], payload["koczkodaj"],
                                                   payload["triads_evaluated"], kscan=self._kscan_for(op.key))
        return oracle.check_cop(case, self.warmup[op.key]["weights"], payload["checked"],
                                payload["pop"], payload["poip"], payload["satisfies"])

    def answer(self, op, payload):
        if op.argv[0] == "rank":
            return rounded(payload["weights"])
        if op.argv[0] == "diagnose":
            return rounded([payload["ci"], payload["koczkodaj"]])
        return f"{payload['checked']},{payload['pop']},{payload['poip']}"


class LibIncomplete(Workload):
    """50%-missing patterns at n=50 and n=100 (noise 0.1 and 0.3) and rings at
    n=10, 30 and 60 (noise 0.1), each with 1 and 3 references, plus a
    noise-0 n=100 pattern as a truth control.  The n=60 rings need more
    Jacobi iterations than the solver allows and fail today; they stay in.

    Seven cases cost under 0.2 s (the noise-0 control converges at once),
    four (the n=60 rings, the 1-reference n=50 patterns) about 0.5 s and
    four (the noisy n=100 patterns) 1-2.5 s.  The median, the 8th of 15, is
    therefore one of the middle group, well clear of the cheap group below.
    """

    name = "lib-incomplete"
    reference_nominal_s = calibrate.SWEEP_S
    ORDER = [
        ("half", 100, 0.1, 1), ("ring", 10, 0.1, 1), ("half", 50, 0.1, 1), ("ring", 60, 0.1, 1),
        ("half", 100, 0.3, 1), ("ring", 30, 0.1, 1), ("half", 50, 0.3, 1), ("half", 100, 0.1, 3),
        ("ring", 10, 0.1, 3), ("half", 50, 0.1, 3), ("ring", 60, 0.1, 3), ("half", 100, 0.3, 3),
        ("ring", 30, 0.1, 3), ("half", 50, 0.3, 3), ("half", 100, 0.0, 3),
    ]

    def reference(self):
        return [calibrate.sweep_seconds()]

    def setup(self, seed, workdir):
        from hrerank import PcMatrix, Problem

        self.cases, self.problems, self.ops = {}, {}, []
        for spec in self.ORDER:
            case = make_case(seed, *spec)
            grid = tuple(tuple(None if np.isnan(v) else float(v) for v in row) for row in case.matrix)
            self.cases[case.label] = case
            self.problems[case.label] = Problem(PcMatrix(grid), case.references)
            kind = f"{spec[0]}-n{spec[1]}-r{spec[3]}" + ("-control" if case.noise == 0 else "")
            self.ops.append(Op(kind, case.label))
        self.run(self.ops[1])  # warm-up on the smallest ring

    def input_digest(self):
        return digest(part for op in self.ops for part in case_digest_parts(self.cases[op.key]))

    def run(self, op):
        from hrerank import hre_rank

        return hre_rank(self.problems[op.key])

    run_in_process = run

    def check(self, op, outcome):
        return oracle.check_weights(self.cases[op.key], outcome.weights_raw.values, outcome.path, outcome.error)

    def answer(self, op, outcome):
        return rounded(outcome.weights_raw.values)


class McSmall(Workload):
    """One operation is one trial seed through `run_experiment` across the four
    noise levels, for each (n, references) setting below.  A pass holds
    PASS trial seeds derived from the benchmark seed."""

    name = "mc-small"
    NOISE = (0.02, 0.1, 0.3, 0.8)
    SETTINGS = ((5, 1), (5, 3), (9, 1), (9, 3))
    PASS = 96

    def setup(self, seed, workdir):
        self.seed = seed
        self.ops = [self._op(i) for i in range(self.PASS)]
        self.run(self._op(-1))  # warm-up on a seed no measured operation uses

    def _op(self, i):
        return Op("trial", str(self.seed * 1_000_000 + i))

    def input_digest(self):
        return digest([repr((self.NOISE, self.SETTINGS))] + [op.key for op in self.ops])

    def run(self, op):
        from hrerank import ExperimentConfig, run_experiment

        return [run_experiment(ExperimentConfig(n=n, trials=1, noise_levels=self.NOISE,
                                                reference_count=r, seed=int(op.key)))
                for n, r in self.SETTINGS]

    run_in_process = run

    def check(self, op, results):
        return [p for (n, r), records in zip(self.SETTINGS, results)
                for p in oracle.check_mc(n, r, self.NOISE, records)]

    def answer(self, op, results):
        return ";".join(rounded(v for rec in records for v in (rec.koczkodaj, rec.distance))
                        for records in results)


WORKLOADS = {w.name: w for w in (CliComplete, LibIncomplete, McSmall)}
