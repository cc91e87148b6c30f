"""Command-line front end: rank, diagnose, cop and mc subcommands."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .baselines import WeightVector, ev_weights, gm_weights
from .diagnostics import CopReport, cop_check, estimation_error, inconsistency_report
from .errors import HreError, ParseError, ValidationError
from .matrix_core import Problem, is_reachable, parse_matrix, preprocess, validate

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_SOLVER_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # bad flags are an input problem: report on stderr, exit 1 (not argparse's 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _fmt(value: float) -> str:
    return format(value, ".6g")


# `cop --json` layout, as json.dumps(payload, indent=2) writes it; each {} is one column.  A POP
# violation lists the first failed pair, then the second one if both failed, framed as in _PAIR_JSON.
_POP_JSON = (
    '    {\n      "quadruple": [\n        {},\n        {},\n        {},\n        {}\n      ],\n'
    '      "failed_pairs": [\n        [\n          {},\n          {}\n        ]{}{}{}{}{}\n      ]\n    }'
)
_PAIR_JSON = (",\n        [\n          ", ",\n          ", "\n        ]")
_POIP_JSON = (
    '    {\n      "quadruple": [\n        {},\n        {},\n        {},\n        {}\n      ],\n'
    '      "lhs": {},\n      "rhs": {}\n    }'
)

# `cop` text layout, one line per violation
_POP_TEXT = "  - ({},{}) vs ({},{}): mu(c{}) <= mu(c{}){}{}{}{}{}"
_PAIR_TEXT = (", mu(c", ") <= mu(c", ")")
_POIP_TEXT = "  - ({},{}) vs ({},{}): mu(c{})/mu(c{}) = {} <= mu(c{})/mu(c{}) = {}"


def _json_float(value: float) -> str:
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _json_list(key: str, body: str) -> str:
    return f'  "{key}": [\n{body}\n  ]' if body else f'  "{key}": []'


def _formatted(values: np.ndarray, fmt) -> np.ndarray:
    """fmt of every entry, as an object array of str of the same shape.

    Each distinct bit pattern is formatted once: grouping by == would merge
    0.0 with -0.0, which print differently.
    """
    keys, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    table = np.array([fmt(v) for v in keys.view(values.dtype).tolist()], dtype=object)
    return table[inverse.reshape(values.shape)]


def _join_rows(template: str, columns, sep: str) -> str:
    """One copy of the template per row, its n-th {} replaced by the row's entry of the n-th column,
    joined by sep; the pieces are interleaved by list slice assignment and joined once.

    ``columns`` are equally long object arrays of str, one per {} of the
    template; any other brace in it is literal text.
    """
    pieces = template.split("{}")
    rows, width = len(columns[0]), 2 * len(columns) + 1
    out = [sep + pieces[0]] * (rows * width)
    for f, column in enumerate(columns):
        out[2 * f + 1 :: width] = column.tolist()
        out[2 * f + 2 :: width] = [pieces[f + 1]] * rows
    if rows:
        out[0] = pieces[0]
    return "".join(out)


def _pop_columns(result: CopReport, frame: tuple[str, str, str]) -> list[np.ndarray]:
    """The columns of the POP templates: i, j, k, l, the first failed pair, and the second one framed
    by ``frame`` where both pairs failed (empty strings elsewhere)."""
    i, j, k, l = _formatted(result.pop_quadruples, str).T
    head, tail = result.pop_failed.T
    both, blank = head & tail, np.full(len(head), "", dtype=object)
    second = (frame[0], k, frame[1], l, frame[2])
    return [i, j, k, l, np.where(head, i, k), np.where(head, j, l), *(np.where(both, part, blank) for part in second)]


def _cop_json(result: CopReport) -> str:
    """The report with the bytes of json.dumps(payload, indent=2), rendered column by column.

    With ``indent`` set, json falls back to its pure-Python encoder, which is
    slow on the hundreds of thousands of violations a mid-sized matrix can have.
    """
    pop = _join_rows(_POP_JSON, _pop_columns(result, _PAIR_JSON), ",\n")
    q = _formatted(result.poip_quadruples, str)
    ratios = _formatted(np.stack((result.lhs, result.rhs)), _json_float)
    poip = _join_rows(_POIP_JSON, [*q.T, *ratios], ",\n")
    return (
        f'{{\n  "satisfies_cop": {"true" if result.satisfies_cop else "false"},\n'
        f'  "quadruples_checked": {result.quadruples_checked},\n'
        f'{_json_list("pop_violations", pop)},\n{_json_list("poip_violations", poip)}\n}}'
    )


def _cop_text(result: CopReport) -> str:
    """The human-readable report, one line per violation, rendered column by column."""
    lines = [f"quadruples checked: {result.quadruples_checked}"]
    if len(result.pop_quadruples):
        lines += ["POP violations:", _join_rows(_POP_TEXT, _pop_columns(result, _PAIR_TEXT), "\n")]
    else:
        lines.append("POP violations: none")
    if len(result.poip_quadruples):
        i, j, k, l = _formatted(result.poip_quadruples, str).T
        lhs, rhs = _formatted(np.stack((result.lhs, result.rhs)), _fmt)
        lines += ["POIP violations:", _join_rows(_POIP_TEXT, [i, j, k, l, i, j, lhs, k, l, rhs], "\n")]
    else:
        lines.append("POIP violations: none")
    lines.append(f"satisfies COP: {'yes' if result.satisfies_cop else 'no'}")
    return "\n".join(lines)


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
            from .min_error_solver import UNVERIFIED_MINIMUM, solve_min_error  # only this method loads it

            result = solve_min_error(prepared)
            weights, path = result.weights_raw, "min-error"
            if not result.verified_minimum:
                warnings.append(UNVERIFIED_MINIMUM)
    if args.normalize and not weights.normalized:  # ev and gm weights already sum to 1
        weights, error = weights.normalize(), None
    if error is None:  # `hre_rank` scored its answer on the same problem
        _, error = estimation_error(prepared.problem, weights)

    indices = inconsistency_report(problem.matrix)
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
        print(f"path: {path if path is not None else 'n/a'}")
        print("weights (normalized):" if weights.normalized else "weights:")
        for i, value in enumerate(weights.values, start=1):
            print(f"  c{i}  {_fmt(value)}")
        print(f"CI: {_fmt(indices.saaty_ci) if indices.saaty_ci is not None else 'n/a'}")
        print(f"K: {_fmt(indices.koczkodaj) if indices.koczkodaj is not None else 'n/a'}")
        print(f"estimation error: {_fmt(error)}")
        if warnings:
            print("warnings:")
            for w in warnings:
                print(f"  - {w}")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    problem = _load_problem(args.input)
    report = validate(problem)
    fatal = not report.ok

    matrix = problem.matrix
    complete = matrix.is_complete()
    reciprocity_warnings = [i for i in report.issues if i.category == "non-reciprocal-pair"]
    indices = inconsistency_report(matrix) if not fatal else None
    reachable, unreachable = is_reachable(problem) if problem.references else (None, ())

    if args.json:
        payload = {
            "n": matrix.n,
            "complete": complete,
            "reciprocal": not reciprocity_warnings,
            "ci": indices.saaty_ci if indices else None,
            "koczkodaj": indices.koczkodaj if indices else None,
            "triads_evaluated": indices.triads_evaluated if indices else 0,
            "reachable": reachable,
            "unreachable": list(unreachable),
            "issues": [str(i) for i in report.issues],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"n: {matrix.n}")
        print(f"complete: {'yes' if complete else 'no'}")
        print(f"reciprocal: {'yes' if not reciprocity_warnings else 'no'}")
        if indices and indices.saaty_ci is not None:
            print(f"CI: {_fmt(indices.saaty_ci)}")
        else:
            print("CI: n/a")
        if indices and indices.koczkodaj is not None:
            print(f"K: {_fmt(indices.koczkodaj)} (triads evaluated: {indices.triads_evaluated})")
        else:
            print(f"K: n/a (triads evaluated: {indices.triads_evaluated if indices else 0})")
        if reachable is None:
            print("reachability: n/a (no reference concepts)")
        elif reachable:
            print("reachability: ok")
        else:
            print(f"reachability: unreachable concepts: {', '.join(f'c{i}' for i in unreachable)}")
        if report.issues:
            print("issues:")
            for issue in report.issues:
                print(f"  - {issue}")
    return EXIT_INPUT_ERROR if fatal else EXIT_OK


def _cmd_cop(args) -> int:
    problem = _load_problem(args.input)
    report = validate(Problem(problem.matrix))  # COP needs no reference, so no reachability
    if not report.ok:
        raise ValidationError(report)
    weights = _load_weights(args.weights, problem.n)
    result = cop_check(problem.matrix, weights)

    print(_cop_json(result) if args.json else _cop_text(result))
    return EXIT_OK


def _cmd_mc(args) -> int:
    from .montecarlo import ExperimentConfig, run_experiment, summarize, write_csv  # only `mc` loads it

    noise_levels = tuple(float(part) for part in args.noise.split(",") if part != "")
    config = ExperimentConfig(
        n=args.n,
        trials=args.trials,
        noise_levels=noise_levels,
        reference_count=args.refs,
        seed=args.seed,
    )
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
    parser = _Parser(prog="hrerank", description="Priority weights from pairwise comparisons")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="derive a weight vector")
    rank.add_argument("--input", required=True, help="matrix file")
    rank.add_argument("--method", required=True, choices=["hre", "ev", "gm", "min-error"])
    rank.add_argument("--iterations", type=_positive_int, default=10, help="fallback iteration budget (>= 1)")
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
    mc.add_argument("--noise", required=True, help="comma-separated noise levels")
    mc.add_argument("--refs", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--out", required=True, help="CSV output path")
    mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError:
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except ValidationError as exc:
        for issue in exc.report.fatal_issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except HreError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
