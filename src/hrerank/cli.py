"""Command-line front end: rank, diagnose, cop and mc subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .baselines import WeightVector, ev_weights, gm_weights
from .diagnostics import InconsistencyReport, cop_check, estimation_error, inconsistency_report
from .errors import HreError, ParseError, ValidationError
from .matrix_core import Problem, is_reachable, parse_matrix, preprocess, validate

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SOLVER_ERROR = 2


def _converted(kind, text: str):
    try:
        return kind(text)
    except ValueError:  # argparse would name the calling function in its message
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _converted(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _noise_levels(text: str) -> tuple[float, ...]:
    # only the conversion; `ExperimentConfig` checks the levels' range
    return tuple(_converted(float, part) for part in text.split(",") if part != "")


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _shown(value, render=_fmt) -> str:
    """A printed value the request may lack: CI, K or the path."""
    return "n/a" if value is None else render(value)


def _print_list(title: str, items) -> None:
    if items:
        print(f"{title}:")
        for item in items:
            print(f"  - {item}")


def _load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read())


def _load_weights(path: str, n: int) -> WeightVector:
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            cut = raw.find("#")
            text = (raw[:cut] if cut >= 0 else raw).strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(f"invalid weight '{text}'", line_no) from None
    if len(values) != n:
        raise ParseError(f"expected {n} weights, got {len(values)}", 1)
    return WeightVector(tuple(values))


def _cmd_rank(args) -> int:
    problem = _load_problem(args.input)
    warnings: list[str] = []
    if args.method in ("hre", "min-error") and not problem.references:
        problem = Problem(problem.matrix, {1: 1.0})
        notice = "no reference concepts given; concept 1 fixed at weight 1"
        print(f"notice: {notice}", file=sys.stderr)
        warnings.append(notice)

    prepared = preprocess(problem)  # the one validation of this request
    path: str | None
    error: float | None = None  # the printed vector's mean error, once known
    if args.method == "hre":
        from .hre_solver import hre_rank  # `diagnose`, `cop`, `ev` and `gm` never load it

        outcome = hre_rank(prepared, max_iterations=args.iterations)
        weights, path, error = outcome.weights_raw, outcome.path, outcome.error
        warnings += outcome.warnings
    else:
        warnings += [str(i) for i in prepared.warnings]
        if args.method == "ev":
            weights, path = ev_weights(problem.matrix), None
        elif args.method == "gm":
            weights, path = gm_weights(problem.matrix), None
        else:
            from .min_error_solver import solve_min_error  # only this method loads it

            weights, path = solve_min_error(prepared).weights_raw, "min-error"
    if args.normalize and not weights.normalized:  # ev and gm weights already sum to 1
        weights, error = weights.normalize(), None
    if error is None:  # `hre_rank` scored its answer on the same problem
        _, error = estimation_error(prepared.problem, weights)

    indices = inconsistency_report(problem.matrix, prepared.problem.matrix)  # the matrix `preprocess` restored
    if args.json:
        payload = {
            "method": args.method,
            "path": path,
            "weights": list(weights.values),
            "normalized": weights.normalized,
            "diagnostics": {
                "ci": indices.saaty_ci,
                "koczkodaj": indices.koczkodaj,
                "error": error,
            },
            "warnings": warnings,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"method: {args.method}")
        print(f"path: {_shown(path, str)}")
        print("weights (normalized):" if weights.normalized else "weights:")
        for i, value in enumerate(weights.values, start=1):
            print(f"  c{i}  {_fmt(value)}")
        print(f"CI: {_shown(indices.saaty_ci)}")
        print(f"K: {_shown(indices.koczkodaj)}")
        print(f"estimation error: {_fmt(error)}")
        _print_list("warnings", warnings)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    problem = _load_problem(args.input)
    report = validate(problem)
    matrix = problem.matrix
    complete = matrix.is_complete()
    reciprocal = not any(i.category == "non-reciprocal-pair" for i in report.issues)
    # a fatal input is not scanned: no CI, no K, no triad
    indices = inconsistency_report(matrix) if report.ok else InconsistencyReport(None, None, 0)
    reachable, unreachable = is_reachable(problem) if problem.references else (None, ())
    issues = [str(i) for i in report.issues]

    if args.json:
        payload = {
            "n": matrix.n,
            "complete": complete,
            "reciprocal": reciprocal,
            "ci": indices.saaty_ci,
            "koczkodaj": indices.koczkodaj,
            "triads_evaluated": indices.triads_evaluated,
            "reachable": reachable,
            "unreachable": list(unreachable),
            "issues": issues,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"n: {matrix.n}")
        print(f"complete: {'yes' if complete else 'no'}")
        print(f"reciprocal: {'yes' if reciprocal else 'no'}")
        print(f"CI: {_shown(indices.saaty_ci)}")
        print(f"K: {_shown(indices.koczkodaj)} (triads evaluated: {indices.triads_evaluated})")
        if reachable is None:
            print("reachability: n/a (no reference concepts)")
        elif reachable:
            print("reachability: ok")
        else:
            print(f"reachability: unreachable concepts: {', '.join(f'c{i}' for i in unreachable)}")
        _print_list("issues", issues)
    return EXIT_OK if report.ok else EXIT_INPUT_ERROR


def _cmd_cop(args) -> int:
    problem = _load_problem(args.input)
    report = validate(Problem(problem.matrix))  # COP needs no reference, so no reachability
    if not report.ok:
        raise ValidationError(report)
    weights = _load_weights(args.weights, problem.n)
    result = cop_check(problem.matrix, weights)
    from .cop_writer import write_json, write_text  # only `cop` loads it

    (write_json if args.json else write_text)(result, sys.stdout)
    return EXIT_OK


def _cmd_mc(args) -> int:
    from .montecarlo import ExperimentConfig, run_experiment, summarize, write_csv  # only `mc` loads it

    config = ExperimentConfig(
        n=args.n,
        trials=args.trials,
        noise_levels=args.noise,
        reference_count=args.refs,
        seed=args.seed,
    )
    # an unwritable --out fails here, before the first trial; appending to a file truncates nothing
    open(args.out, "a", encoding="utf-8").close()
    records = run_experiment(config)
    write_csv(records, args.out)
    for s in summarize(records):
        print(
            f"noise {s.noise_level:g}: solved {s.solved}/{s.trials}, "
            f"mean K {_fmt(s.mean_koczkodaj)}, mean distance {_fmt(s.mean_distance)}"
        )
    print(f"results written to {args.out}", file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hrerank", description="Priority weights from pairwise comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="derive a weight vector")
    rank.add_argument("--input", required=True, help="matrix file")
    rank.add_argument("--method", required=True, choices=["hre", "ev", "gm", "min-error"])
    rank.add_argument("--iterations", type=_positive_int, default=10,
                      help="early iterates the best-iterate fallback compares (>= 1): the first ones, or as many "
                      "from the first with every estimate when none of those has one")
    rank.add_argument("--normalize", action="store_true", help="rescale weights to sum 1")
    rank.add_argument("--json", action="store_true")
    rank.set_defaults(func=_cmd_rank)

    diagnose = sub.add_parser("diagnose", help="inconsistency and structure report")
    diagnose.add_argument("--input", required=True)
    diagnose.add_argument("--json", action="store_true")
    diagnose.set_defaults(func=_cmd_diagnose)

    cop = sub.add_parser("cop", help="check order preservation of a weight vector")
    cop.add_argument("--input", required=True)
    cop.add_argument("--weights", required=True, help="file with one weight per line")
    cop.add_argument("--json", action="store_true")
    cop.set_defaults(func=_cmd_cop)

    mc = sub.add_parser("mc", help="noise-vs-divergence experiment")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--trials", type=int, required=True)
    mc.add_argument("--noise", type=_noise_levels, required=True, help="comma-separated noise levels")
    mc.add_argument("--refs", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--out", required=True, help="CSV output path")
    mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (status 0) or the usage error (status 2)
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except ValidationError as exc:
        for issue in exc.report.fatal_issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:  # the reader closed stdout; the process entry ends quietly (`hrerank.__main__`)
        raise
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except HreError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
