"""hrerank benchmark: one closed-loop client, one workload per interpreter.

    python3 bench/run.py --workload cli-complete --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

Run it from the root of a checkout; it imports the package from ``src/``
and writes scratch files, spans and a result file under ``.bench_work/``.
With ``--trace 0`` it runs whole passes over the workload's requests for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it runs
one pass in process, first untraced and then traced, and reports the
per-layer metrics.
Metric names and units come from BENCHMARK.json.  The last line of standard
output is the result as one JSON object.  Every answer is checked by the
independent oracle in ``oracle.py``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; children inherit it

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import oracle
from inputs import digest
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_PASSES = 2
REFERENCE_EVERY_S = 0.5  # seconds between reference computations
IMPORT_PROBES = 5


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_import_seconds(env) -> float:
    """Time of `import hrerank` inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import hrerank; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def metadata(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = sorted((SRC / "hrerank").glob("*.py"))
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_digest": digest(part for p in sources for part in (p.name, p.read_bytes())),
    }


def own_peak_mb() -> float:
    """This interpreter's peak RSS since exec (VmHWM).

    Not ru_maxrss, which also counts the parent's footprint at fork.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) of the sample with exactly ten samples above it.

    With fewer than 20 samples that would fall below the median, so the
    upper median is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[n // 2], 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def call(fn, op):
    start = time.perf_counter()
    try:
        result, error = fn(op), None
    except Exception as exc:  # a failed operation is data, not a benchmark crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


class Verdicts:
    """Oracle verdicts, failure counts and the answer digest, fed one outcome
    at a time as passes over `workload.ops` run.

    A repeat of a request whose earlier answer the oracle accepted is checked
    by comparing its rounded answer with that one, and goes to the oracle
    only if it differs.  Wrong answers to the set-up requests count as
    wrong, not as attempted.
    """

    def __init__(self, workload):
        self.workload = workload
        setup_problems = workload.verify_setup()
        self.attempted, self.failed, self.wrong = 0, 0, len(setup_problems)
        self.notes, self.errors, self.answers, self.accepted = setup_problems[:5], Counter(), [], {}

    def add(self, slot, op, result, error) -> None:
        workload, problems = self.workload, []
        if error is None:
            try:
                payload = workload.decode(op, result)
                answer = workload.answer(op, payload)
                if self.accepted.get(slot) != answer:
                    problems = workload.check(op, payload)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc}"]
            if problems:
                self.wrong += 1
                self.notes.append(f"{op.kind} {op.key}: {problems[0]}")
                answer = "wrong"
            else:
                self.accepted[slot] = answer
        else:
            self.errors[f"{op.kind} {op.key}: {error.splitlines()[0][:160]}"] += 1
            answer = "error:" + error.split(":")[0]
        self.failed += bool(error or problems)
        if self.attempted < len(workload.ops):
            self.answers.append(f"{op.kind}|{op.key}|{answer}")
        self.attempted += 1

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong, "notes": self.notes[:20],
                "errors": dict(self.errors), "answer_digest": digest(self.answers)}


def timed(workload, args) -> tuple[dict, dict]:
    """Set up SETUP_REPEATS times, then run whole passes over the workload's
    requests for about ``--seconds`` of request time (at least MIN_PASSES).

    The host's speed drifts, within a run and from run to run, by up to a
    factor of two.  So each request's time is its mean over the passes, and
    every time metric is scaled by the workload's reference computation,
    timed between requests: by its nominal time over its mean measured
    time.  The unscaled figures are kept in the result file.
    """
    reference_s, setups = [], []
    for _ in range(SETUP_REPEATS):
        reference_s += workload.reference()
        import_s = fresh_import_seconds(workload.env)
        start = time.perf_counter()
        workload.setup(args.seed, WORK)
        setups.append(import_s + time.perf_counter() - start)

    ops = workload.ops
    verdicts = Verdicts(workload)
    passes = []  # per pass, each request's wall time
    last_reference = time.perf_counter()
    # Another pass starts while at least half of it fits in --seconds.
    while len(passes) < MIN_PASSES or sum(map(sum, passes)) * (1 + 0.5 / len(passes)) < args.seconds:
        passes.append([])
        for i, op in enumerate(ops):
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                reference_s += workload.reference()
                last_reference = time.perf_counter()
            seconds, result, error = call(workload.run, op)
            passes[-1].append(seconds)
            verdicts.add(i, op, result, error)
            del result
    children_mb = workload.child_peak_mb[-verdicts.attempted:] if workload.subprocesses else []
    peak_rss_mb = statistics.median(children_mb) if children_mb else own_peak_mb()

    checked = verdicts.summary()
    request_s = [statistics.fmean(times) for times in zip(*passes)]
    speed = workload.reference_nominal_s / statistics.fmean(reference_s)
    tail_s, tail_p = tail(request_s)
    raw = {
        "latency_p50_s": statistics.median(request_s),
        "latency_tail_s": tail_s,
        "ops_per_s": len(ops) / sum(request_s),
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "latency_p50_s": raw["latency_p50_s"] * speed,
        "latency_tail_s": raw["latency_tail_s"] * speed,
        "ops_per_s": raw["ops_per_s"] / speed,
        "fail_ratio": checked["failed"] / checked["attempted"],
        "setup_s": raw["setup_s"] * speed,
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind = defaultdict(list)
    for op, seconds in zip(ops, request_s):
        by_kind[op.kind].append(seconds)
    extra = {"tail_percentile": tail_p, "samples": len(request_s),
             "unscaled": raw, "host_speed_factor": speed, "reference_s": reference_s, "pass_s": passes,
             "setup_runs_s": setups, "child_peak_mb": children_mb,
             "latency_p50_s_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())}}
    return metrics, dict(checked, **extra)


def layer_metrics(names, tracer: Tracer, n_ops: int, import_s: float, overhead: float) -> dict:
    self_s, calls = tracer.self_times()
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "cli.import_s": import_s,
        "trace.overhead_ratio": overhead,
        "matrix_core.parse_matrix.tokens": c["parse_matrix.tokens"],
        "baselines.principal_eigen.iterations": c["principal_eigen.iterations"],
        "diagnostics.triads_evaluated": c["triads_evaluated"],
        "diagnostics.cop_check.quadruples": c["cop_check.quadruples"],
        "hre_solver.solve_linear.singular": c["solve_linear.singular"],
        "hre_solver.direct.admissible_ratio": ratio(c["direct.accepted"], c["direct.attempted"]),
        "hre_solver.jacobi_iterate.iterations": c["jacobi.iterations"],
        "hre_solver.jacobi_iterate.converged_ratio": ratio(c["jacobi.converged"], c["jacobi.runs"]),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.startswith("hre_solver.path."):
            values[name] = c["path." + name.removeprefix("hre_solver.path.")]
        elif name.endswith(".self_s"):
            values[name] = self_s[name.removesuffix(".self_s")] / n_ops
        elif name.endswith(".calls_per_op"):
            values[name] = calls[name.removesuffix(".calls_per_op")] / n_ops
        elif name.endswith(".calls"):
            values[name] = calls[name.removesuffix(".calls")]
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values


def traced(workload, args, names) -> tuple[dict, dict]:
    workload.setup(args.seed, WORK)
    import_s = statistics.median(fresh_import_seconds(workload.env) for _ in range(IMPORT_PROBES))
    ops = workload.ops
    tracer = Tracer()
    outcomes, plain, spans_s = [], [], []
    for idx, op in enumerate(ops):  # untraced and traced back to back, so drift cancels
        plain.append(call(workload.run_in_process, op)[0])
        tracer.install()
        tracer.begin(idx)
        try:
            seconds, result, error = call(workload.run_in_process, op)
        finally:
            tracer.end()
            tracer.uninstall()
        spans_s.append(seconds)
        outcomes.append((op, result, error))

    overhead = statistics.median(spans_s) / statistics.median(plain)
    verdicts = Verdicts(workload)
    for idx, (op, result, error) in enumerate(outcomes):
        verdicts.add(idx, op, result, error)
    checked = verdicts.summary()
    per_kind, kind_ops = defaultdict(Counter), Counter(op.kind for op in ops)
    for span in tracer.spans:
        per_kind[ops[span.op].kind][span.name] += 1
    calls_per_op = {k: {label: n / kind_ops[k] for label, n in sorted(ctr.items())} for k, ctr in per_kind.items()}
    spans_file = WORK / f"spans-{workload.name}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"ops": [[op.kind, op.key] for op in ops], "spans": tracer.dump()}))
    metrics = layer_metrics(names, tracer, len(ops), import_s, overhead)
    extra = {"calls_per_op_by_kind": calls_per_op, "spans_file": str(spans_file.relative_to(ROOT)),
             "untraced_p50_s": statistics.median(plain), "traced_p50_s": statistics.median(spans_s)}
    return metrics, dict(checked, **extra)


def report(workload_name, args, metrics, details, units, meta) -> dict:
    print(f"workload {workload_name}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        unit = units.get(name, "ratio" if name == "fail_ratio" else "")
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{details['tail_percentile']:.1f} of {details['samples']} requests)"
        elif name == "fail_ratio":
            note = f"  ({details['failed']} of {details['attempted']}; wrong answers {details['wrong']})"
        print(f"  {name:<44} {value:<14.6g} {unit}{note}")
    kinds = details.get("calls_per_op_by_kind")
    if kinds:
        print("  matrix_core.validate calls per op by request kind: "
              + ", ".join(f"{k}={v.get('matrix_core.validate', 0):g}" for k, v in sorted(kinds.items())))
    for line in list(details["errors"].items())[:5]:
        print(f"  failed: {line[0]} (x{line[1]})")
    for note in details["notes"][:5]:
        print(f"  wrong: {note}")
    print(f"  input digest {details['input_digest']}  answer digest {details['answer_digest']}")
    print("  " + "  ".join(f"{k}={v}" for k, v in meta.items() if k != "blas_threads")
          + f"  blas_threads={meta['blas_threads']['OPENBLAS_NUM_THREADS']}")
    result = {
        "correct": details["wrong"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    record = dict(result, workload=workload_name, trace=args.trace, meta=meta, details=details,
                  all_metrics=metrics)
    (WORK / f"result-{workload_name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result


def run_all(args) -> int:
    """Each workload in its own interpreter, then one summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if proc.returncode == 0:
            results[name] = json.loads(proc.stdout.splitlines()[-1])
    rows = {m: v["unit"] for r in results.values() for m, v in r["metrics"].items()}
    print(f"{'metric':<44}{'unit':<10}" + "".join(f"{w:>16}" for w in results))
    for m, unit in rows.items():
        print(f"{m:<44}{unit:<10}" + "".join(f"{r['metrics'][m]['value']:>16.6g}" for r in results.values()))
    print(f"{'fail_ratio':<44}{'ratio':<10}" + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for r in results.values()))
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file() or not (SRC / "hrerank" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding BENCHMARK.json and src/hrerank", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_file.read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    import hrerank

    if Path(hrerank.__file__).resolve().parent != (SRC / "hrerank").resolve():
        print(f"error: imported hrerank from {hrerank.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    oracle.self_check()
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, child_env())
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, details = traced(workload, args, list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, details = timed(workload, args)
    details["input_digest"] = workload.input_digest()
    result = report(args.workload, args, metrics, details, units, metadata(args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
