import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hrerank import WeightVector, estimation_error, ev_weights, parse_matrix, preprocess
from hrerank.cli import main

from _support import (
    DATA_DIR,
    GOLDEN_DIR,
    cop_check_loop,
    cop_payload,
    cop_text_oracle,
    noisy_consistent,
    singular_direct_problem,
)

# golden cases: name -> (exit code, CLI arguments); paths resolved against tests/data
GOLDEN_CASES = {
    "rank_ex1_hre_human.txt": (0, ["rank", "--input", "example1.txt", "--method", "hre", "--normalize"]),
    "rank_ex1_hre.json": (0, ["rank", "--input", "example1.txt", "--method", "hre", "--normalize", "--json"]),
    "rank_ex1_ev_human.txt": (0, ["rank", "--input", "example1.txt", "--method", "ev"]),
    "rank_ex1_gm.json": (0, ["rank", "--input", "example1.txt", "--method", "gm", "--json"]),
    "rank_ex2_hre.json": (0, ["rank", "--input", "example2.txt", "--method", "hre", "--json"]),
    "rank_ex2_minerr.json": (0, ["rank", "--input", "example2.txt", "--method", "min-error", "--json"]),
    "rank_ex2_minerr_human.txt": (0, ["rank", "--input", "example2.txt", "--method", "min-error", "--normalize"]),
    "rank_ex2gap_hre.json": (0, ["rank", "--input", "example2_gap.txt", "--method", "hre", "--json"]),
    "rank_ex2gap_minerr_human.txt": (0, ["rank", "--input", "example2_gap.txt", "--method", "min-error"]),
    "rank_ex3_hre_human.txt": (0, ["rank", "--input", "example3.txt", "--method", "hre", "--normalize"]),
    "rank_ex3_ev.json": (0, ["rank", "--input", "example3.txt", "--method", "ev", "--json"]),
    "rank_ex4_hre_human.txt": (0, ["rank", "--input", "example4.txt", "--method", "hre", "--normalize"]),
    "rank_ex4_hre.json": (0, ["rank", "--input", "example4.txt", "--method", "hre", "--normalize", "--json"]),
    "rank_noref_hre_human.txt": (0, ["rank", "--input", "example1_noref.txt", "--method", "hre"]),
    "diagnose_ex1_human.txt": (0, ["diagnose", "--input", "example1.txt"]),
    "diagnose_ex2.json": (0, ["diagnose", "--input", "example2.txt", "--json"]),
    "diagnose_ex3_human.txt": (0, ["diagnose", "--input", "example3.txt"]),
    "diagnose_ex4_human.txt": (0, ["diagnose", "--input", "example4.txt"]),
    "diagnose_noref_human.txt": (0, ["diagnose", "--input", "example1_noref.txt"]),
    "diagnose_noref.json": (0, ["diagnose", "--input", "example1_noref.txt", "--json"]),
    "diagnose_unreachable_human.txt": (1, ["diagnose", "--input", "unreachable.txt"]),
    "diagnose_unreachable.json": (1, ["diagnose", "--input", "unreachable.txt", "--json"]),
    "diagnose_nonpositive_human.txt": (1, ["diagnose", "--input", "nonpositive.txt"]),
    "diagnose_nonpositive.json": (1, ["diagnose", "--input", "nonpositive.txt", "--json"]),
    "cop_ex1_ev_human.txt": (0, ["cop", "--input", "example1.txt", "--weights", "ex1_ev_weights.txt"]),
    "cop_ex1_ev.json": (0, ["cop", "--input", "example1.txt", "--weights", "ex1_ev_weights.txt", "--json"]),
    "cop_ex3_hre_human.txt": (0, ["cop", "--input", "example3.txt", "--weights", "ex3_hre_weights.txt"]),
}


def resolve(args):
    out = list(args)
    for flag in ("--input", "--weights"):
        if flag in out:
            position = out.index(flag) + 1
            out[position] = str(DATA_DIR / out[position])
    return out


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name, capsys):
    expected_code, args = GOLDEN_CASES[name]
    args = resolve(args)
    code, out, _ = run_cli(args, capsys)
    assert code == expected_code
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert out == expected
    # byte-identical on a second run
    code2, out2, _ = run_cli(args, capsys)
    assert code2 == expected_code and out2 == out


FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def run_fresh(args):
    """``python -m hrerank args`` in a new interpreter: (exit code, stdout bytes, hrerank modules it imported)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hrerank", *args],
                          env=FRESH_ENV, capture_output=True, timeout=120)
    # -X importtime writes "import time: self | cumulative | name" to stderr for each module imported
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines() if line.startswith("import time:")}
    return proc.returncode, proc.stdout, {name for name in names if name.startswith("hrerank.")}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES) + ["mc_small_stdout.txt"])
def test_golden_output_from_a_fresh_interpreter(name, tmp_path):
    # in process, earlier tests have imported every module; only a new interpreter shows a missing import
    csv = tmp_path / "mc.csv"
    expected_code, args = GOLDEN_CASES[name] if name in GOLDEN_CASES else (0, TestMc.ARGS + ["--out", str(csv)])
    code, out, modules = run_fresh(resolve(args))
    assert code == expected_code
    expected = (GOLDEN_DIR / name).read_bytes()
    assert out == expected
    if args[0] == "mc":
        assert csv.read_bytes() == (GOLDEN_DIR / "mc_small.csv").read_bytes()
        return
    assert "hrerank.montecarlo" not in modules
    assert ("hrerank.cop_writer" in modules) == (args[0] == "cop")  # only `cop` renders a COP report
    if args[0] != "rank":
        assert "hrerank.hre_solver" not in modules
    elif args[args.index("--method") + 1] == "hre" and (b"path: direct" in out or b'"path": "direct"' in out):
        assert "hrerank.min_error_solver" not in modules


@pytest.mark.parametrize("command", [[], ["rank"], ["diagnose"], ["cop"], ["mc"]], ids=["hrerank", "rank", "diagnose", "cop", "mc"])
def test_help_exits_zero_from_a_fresh_interpreter(command):
    code, out, _ = run_fresh([*command, "--help"])
    assert code == 0
    assert out.startswith(b"usage: hrerank")


def test_help_returns_zero_in_process(capsys):
    code, out, err = run_cli(["--help"], capsys)
    assert code == 0 and out.startswith("usage: hrerank") and err == ""


def test_import_loads_no_submodule():
    code = "import sys, hrerank; print(sorted(m for m in sys.modules if m.startswith('hrerank.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=FRESH_ENV, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_solver_import_raises_no_deprecation_warning():
    # on numpy 2 the Jacobi step's kernel must come from numpy._core, not the deprecated numpy.core alias
    code = "import hrerank.hre_solver"
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", code],
                          env=FRESH_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name", [n for n in sorted(GOLDEN_CASES) if n.endswith(".json")]
)
def test_json_outputs_parse_and_keep_key_order(name, capsys):
    _, out, _ = run_cli(resolve(GOLDEN_CASES[name][1]), capsys)
    payload = json.loads(out)
    if name.startswith("rank"):
        assert list(payload) == ["method", "path", "weights", "normalized", "diagnostics", "warnings"]
        assert list(payload["diagnostics"]) == ["ci", "koczkodaj", "error"]
    elif name.startswith("diagnose"):
        assert list(payload) == [
            "n", "complete", "reciprocal", "ci", "koczkodaj",
            "triads_evaluated", "reachable", "unreachable", "issues",
        ]
    else:
        assert list(payload) == [
            "satisfies_cop", "quadruples_checked", "pop_violations", "poip_violations",
        ]


def test_human_and_json_agree_numerically(capsys):
    _, human, _ = run_cli(resolve(GOLDEN_CASES["rank_ex1_hre_human.txt"][1]), capsys)
    _, as_json, _ = run_cli(resolve(GOLDEN_CASES["rank_ex1_hre.json"][1]), capsys)
    payload = json.loads(as_json)
    for line, value in zip(
        [l for l in human.splitlines() if l.startswith("  c")], payload["weights"]
    ):
        shown = float(line.split()[1])
        assert abs(shown - value) <= 1e-6 * max(1.0, abs(value))


class TestMc:
    ARGS = ["mc", "--n", "5", "--trials", "5", "--noise", "0,0.5", "--refs", "1", "--seed", "7"]

    def test_golden_csv_and_summary(self, tmp_path, capsys):
        out_path = tmp_path / "mc.csv"
        code, out, err = run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / "mc_small_stdout.txt").read_text(encoding="utf-8")
        assert out_path.read_text(encoding="utf-8") == (
            GOLDEN_DIR / "mc_small.csv"
        ).read_text(encoding="utf-8")
        assert str(out_path) in err

    def test_rerun_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _, out1, _ = run_cli(self.ARGS + ["--out", str(a)], capsys)
        _, out2, _ = run_cli(self.ARGS + ["--out", str(b)], capsys)
        assert out1 == out2
        assert a.read_bytes() == b.read_bytes()

    def test_bad_parameters(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["mc", "--n", "5", "--trials", "5", "--noise", "0.1", "--refs", "9",
             "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 1
        assert "reference_count" in err

    @pytest.mark.parametrize("noise", ["nan", "inf", "1e400", ",", "1000"])
    def test_bad_noise_levels_write_nothing(self, noise, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            ["mc", "--n", "5", "--trials", "2", "--noise", noise, "--refs", "1",
             "--seed", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("noise, bad", [("abc", "abc"), ("0.1,x", "x")])
    def test_noise_level_that_is_not_a_number_is_a_usage_error(self, noise, bad, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            ["mc", "--n", "5", "--trials", "2", "--noise", noise, "--refs", "1",
             "--seed", "1", "--out", str(out_path)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"hrerank mc: error: argument --noise: invalid float value: '{bad}'"
        assert not out_path.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("noise", ["400", "709.78"])
    def test_overflowing_noise_leaves_trials_unsolved(self, noise, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, out, _ = run_cli(
            ["mc", "--n", "9", "--trials", "2", "--noise", noise, "--refs", "1",
             "--seed", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out.startswith(f"noise {noise}: solved 0/2, mean K 1,")
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",nan,false") for row in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_level_without_a_defined_triad_writes_nan(self, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            ["mc", "--n", "3", "--trials", "1", "--noise", "709.782712893384", "--refs", "1",
             "--seed", "17626", "--out", str(out_path)],
            capsys,
        )
        assert code == 0 and "error" not in err
        assert out == "noise 709.783: solved 0/1, mean K nan, mean distance nan\n"
        rows = out_path.read_text(encoding="utf-8").splitlines()[1:]
        assert rows == ["17626052878,3,709.782712893384,nan,nan,false"]

    def test_unwritable_output(self, tmp_path, capsys):
        code, _, err = run_cli(
            self.ARGS + ["--out", str(tmp_path / "missing" / "x.csv")], capsys
        )
        assert code == 1
        assert "error" in err


# inputs whose numbers leave the float range on the way to weights
EXTREME_INPUTS = {
    "big": "3\n1 1e-10 1e-10\n1e10 1 2\n1e10 0.5 1\nref 1 1e300\n",  # constants overflow
    "huge": "3\n1 1 1\n1 1 1e200\n1 1e-200 1\nref 1 1.0\n",  # squares overflow; power iteration does not converge
    "big308": "3\n1 1 1\n1 1 1\n1 1 1\nref 1 1e308\n",  # the weights' sum overflows
    "sum": "4\n1 1 1 1\n1 1 1 1e154\n1 1 1 1e154\n1 1e-154 1e-154 1\nref 1 1.0\n",  # a sum of squares overflows
    "tiny": "3\n1 1e30 ?\n1e-30 1 1e-30\n? 1e30 1\nref 1 1e-300\n",  # the Jacobi limit underflows
    "huge_inc": "4\n1 1e200 1 ?\n1e-200 1 1e200 ?\n1 1e-200 1 1\n? ? 1 1\nref 1 1.0\n",  # a triad underflows
}


def _problem_text(problem) -> str:
    """A matrix file that parses back to ``problem`` (complete matrices only)."""
    rows = "".join(" ".join(map(repr, row)) + "\n" for row in problem.matrix.array.tolist())
    refs = "".join(f"ref {c} {w!r}\n" for c, w in sorted(problem.references.items()))
    return f"{problem.n}\n{rows}{refs}"


# one input per route of `rank`: method, input (a file in tests/data or an EXTREME_INPUTS key), the path it takes
RANK_ROUTES = [
    ("hre", "example1.txt", "direct"),
    ("hre", "example4.txt", "jacobi"),
    ("hre", "singular_direct", "min-error"),
    ("hre", "huge", "best-iterate"),
    ("min-error", "example2.txt", "min-error"),
]


def _route_text(source):
    if source.endswith(".txt"):
        return (DATA_DIR / source).read_text(encoding="utf-8")
    if source == "singular_direct":
        return _problem_text(singular_direct_problem())
    return EXTREME_INPUTS[source]


@pytest.mark.parametrize("method, source, path", RANK_ROUTES)
def test_plain_answer_prints_its_own_error(method, source, path, tmp_path, capsys):
    # `hre` prints the error `hre_rank` computed; it must be the one the printed weights have
    text = _route_text(source)
    file = tmp_path / "input.txt"
    file.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["rank", "--input", str(file), "--method", method, "--json"], capsys)
    assert code == 0, err
    plain = json.loads(out)
    assert plain["path"] == path
    _, error = estimation_error(preprocess(parse_matrix(text)).problem, WeightVector(plain["weights"]))
    assert plain["diagnostics"]["error"] == error


@pytest.mark.parametrize("method, source, path", RANK_ROUTES)
def test_normalize_prints_the_unit_sum_of_the_plain_answer(method, source, path, tmp_path, capsys):
    text = _route_text(source)
    file = tmp_path / "input.txt"
    file.write_text(text, encoding="utf-8")
    args = ["rank", "--input", str(file), "--method", method, "--json"]
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    plain = json.loads(out)
    code, out, err = run_cli(args + ["--normalize"], capsys)
    assert code == 0, err
    scaled = json.loads(out)
    assert plain["path"] == scaled["path"] == path
    assert (plain["normalized"], scaled["normalized"]) == (False, True)
    expected = WeightVector(plain["weights"]).normalize()
    assert scaled["weights"] == list(expected.values)
    _, error = estimation_error(preprocess(parse_matrix(text)).problem, expected)
    assert scaled["diagnostics"]["error"] == error


class TestErrorPaths:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, method",
        [("big", "hre"), ("big", "min-error"), ("huge", "min-error"), ("sum", "min-error"), ("tiny", "hre")],
    )
    def test_out_of_range_solve_is_a_solver_error(self, name, method, tmp_path, capsys):
        path = tmp_path / f"{name}.txt"
        path.write_text(EXTREME_INPUTS[name], encoding="utf-8")
        code, out, err = run_cli(["rank", "--input", str(path), "--method", method], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("solver error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["big", "huge", "sum"])
    def test_least_squares_beyond_the_float_range_says_so(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.txt"
        path.write_text(EXTREME_INPUTS[name], encoding="utf-8")
        code, out, err = run_cli(["rank", "--input", str(path), "--method", "min-error"], capsys)
        assert (code, out, err) == (2, "", "solver error: linear system leaves the float range\n")

    def test_failed_ladder_says_why_each_rung_failed(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(EXTREME_INPUTS["big"], encoding="utf-8")
        code, out, err = run_cli(["rank", "--input", str(path), "--method", "hre"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "solver error: direct solve failed: linear system leaves the float range; "
            "least-squares heuristic failed: linear system leaves the float range; "
            "no admissible iterate among the 1 examined: 1 with a weight that is not positive and finite\n"
        )

    def test_unconverged_power_iteration_leaves_ci_unset(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(EXTREME_INPUTS["huge"], encoding="utf-8")
        code, out, _ = run_cli(["rank", "--input", str(path), "--method", "hre"], capsys)
        assert code == 0
        lines = out.splitlines()
        start = lines.index("weights:") + 1
        assert lines[start : start + 3] == ["  c1  1", "  c2  5e+199", "  c3  0.5"]
        assert "CI: n/a" in lines and "K: 1" in lines
        code, out, _ = run_cli(["rank", "--input", str(path), "--method", "hre", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == [1.0, 5e199, 0.5]
        assert payload["diagnostics"]["ci"] is None
        code, out, _ = run_cli(["diagnose", "--input", str(path)], capsys)
        assert code == 0
        assert "CI: n/a" in out.splitlines()

    def test_unconverged_power_iteration_is_a_solver_error_for_ev(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(EXTREME_INPUTS["huge"], encoding="utf-8")
        code, out, err = run_cli(["rank", "--input", str(path), "--method", "ev"], capsys)
        assert code == 2
        assert out == ""
        assert err == "solver error: power iteration did not converge in 10000 iterations\n"

    @pytest.mark.parametrize("method", ["hre", "min-error"])
    @pytest.mark.parametrize("normalize, printed", [(False, "1e+308"), (True, "0.333333")])
    def test_weights_summing_beyond_the_float_range(self, method, normalize, printed, tmp_path, capsys):
        path = tmp_path / "big308.txt"
        path.write_text(EXTREME_INPUTS["big308"], encoding="utf-8")
        args = ["rank", "--input", str(path), "--method", method] + ["--normalize"] * normalize
        code, out, err = run_cli(args, capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("  c")] == [f"  c{i}  {printed}" for i in (1, 2, 3)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_triad_counts_as_one(self, tmp_path, capsys):
        path = tmp_path / "huge_inc.txt"
        path.write_text(EXTREME_INPUTS["huge_inc"], encoding="utf-8")
        code, out, _ = run_cli(["diagnose", "--input", str(path)], capsys)
        assert code == 0
        assert "K: 1 (triads evaluated: 1)" in out.splitlines()
        code, out, _ = run_cli(["rank", "--input", str(path), "--method", "hre"], capsys)
        assert code == 0
        assert "K: 1" in out.splitlines()

    def test_incomplete_matrix_is_a_solver_error_for_ev(self, capsys):
        code, _, err = run_cli(
            ["rank", "--input", str(DATA_DIR / "example4.txt"), "--method", "ev"], capsys
        )
        assert code == 2
        assert "incomplete matrix" in err

    def test_incomplete_matrix_is_a_solver_error_for_gm(self, capsys):
        code, _, err = run_cli(
            ["rank", "--input", str(DATA_DIR / "example4.txt"), "--method", "gm"], capsys
        )
        assert code == 2
        assert "incomplete matrix" in err

    @pytest.mark.parametrize("method, rule", [
        ("min-error", "every ratio of an unknown concept must be specified"),  # the averaging system reads those rows only
        ("ev", "every ratio must be specified"),  # EV reads the whole matrix
    ])
    def test_incomplete_matrix_error_names_the_ratios_the_method_reads(self, method, rule, capsys):
        code, out, err = run_cli(["rank", "--input", str(DATA_DIR / "example4.txt"), "--method", method], capsys)
        assert (code, out, err) == (2, "", f"solver error: incomplete matrix: {rule}\n")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(
            ["rank", "--input", str(DATA_DIR / "bad_token.txt"), "--method", "hre"], capsys
        )
        assert code == 1
        assert "line 3" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            ["rank", "--input", str(DATA_DIR / "nope.txt"), "--method", "hre"], capsys
        )
        assert code == 1

    def test_usage_error_is_input_error(self, capsys):
        # argparse's usage line above the message varies between Python versions
        code, out, err = run_cli(
            ["rank", "--input", str(DATA_DIR / "example1.txt"), "--method", "bogus"], capsys
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("hrerank rank: error: argument --method: invalid choice")

    def test_missing_subcommand_is_input_error(self, capsys):
        code, out, err = run_cli([], capsys)
        assert (code, out) == (1, "")
        assert "hrerank: error:" in err

    def test_wrong_weight_count(self, capsys):
        code, _, err = run_cli(
            ["cop", "--input", str(DATA_DIR / "example1.txt"),
             "--weights", str(DATA_DIR / "ex3_hre_weights.txt")],
            capsys,
        )
        assert code == 1
        assert "expected 5 weights" in err

    def test_negative_weight_in_file(self, tmp_path, capsys):
        bad = tmp_path / "weights.txt"
        bad.write_text("1.0\n-2.0\n1.0\n1.0\n1.0\n", encoding="utf-8")
        code, _, err = run_cli(
            ["cop", "--input", str(DATA_DIR / "example1.txt"), "--weights", str(bad)],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("rows, location", [
        ("1 2 0 / 1/2 1 3 / 4 1/3 1", "nonpositive-entry at (1,3)"),
        ("1 1e400 2 / 1/2 1 3 / 1/2 1/3 1", "nonpositive-entry at (1,2)"),
        ("2 2 2 / 1/2 1 3 / 1/2 1/3 1", "bad-diagonal at (1,1)"),
    ], ids=["zero-entry", "overflowing-entry", "diagonal-of-2"])
    def test_cop_refuses_a_matrix_that_rank_refuses(self, tmp_path, capsys, rows, location):
        matrix, weights = tmp_path / "m.txt", tmp_path / "w.txt"
        matrix.write_text("3\n" + rows.replace(" / ", "\n") + "\n", encoding="utf-8")
        weights.write_text("1\n1\n1\n", encoding="utf-8")
        for args in (["cop", "--input", str(matrix), "--weights", str(weights)],
                     ["rank", "--input", str(matrix), "--method", "hre"]):
            code, out, err = run_cli(args, capsys)
            assert (code, out) == (1, "")
            assert f"error: {location}" in err

    @pytest.mark.parametrize("command", ["rank", "diagnose"])
    def test_nan_token_is_rejected_with_its_location(self, tmp_path, capsys, command):
        bad = tmp_path / "nan.txt"
        bad.write_text("2\n1 nan\n1 1\nref 1 1.0\n", encoding="utf-8")
        args = [command, "--input", str(bad)] + (["--method", "hre"] if command == "rank" else [])
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert "line 2, column 3" in err
        assert out == ""

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_iteration_budget_below_one_is_a_usage_error(self, capsys, budget):
        code, out, err = run_cli(
            ["rank", "--input", str(DATA_DIR / "example4.txt"), "--method", "hre",
             "--iterations", budget],
            capsys,
        )
        assert code == 1
        assert "--iterations" in err and out == ""

    def test_iteration_budget_that_is_not_an_integer_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            ["rank", "--input", str(DATA_DIR / "example4.txt"), "--method", "hre", "--iterations", "abc"], capsys
        )
        assert (code, out) == (1, "")
        assert "argument --iterations: invalid int value: 'abc'" in err  # as `mc --n x` says it
        assert "_positive_int" not in err

    def test_fatal_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 -3\n1 1\nref 1 1.0\n", encoding="utf-8")
        code, _, err = run_cli(["rank", "--input", str(bad), "--method", "hre"], capsys)
        assert code == 1
        assert "nonpositive-entry" in err


@pytest.mark.parametrize("gap, restores", [(False, 1), (True, 1)])
def test_rank_scans_the_matrix_it_restored(gap, restores, tmp_path, capsys, monkeypatch):
    # the references define m12 = 0.01, against 1 everywhere else: a triad scan that saw that
    # ratio would report K 0.99 instead of 0
    from hrerank import diagnostics, matrix_core

    restore, calls = matrix_core.restore_reciprocity, []

    def counted(matrix):
        calls.append(matrix)
        return restore(matrix)

    monkeypatch.setattr(matrix_core, "restore_reciprocity", counted)
    monkeypatch.setattr(diagnostics, "restore_reciprocity", counted)
    m12 = "?" if gap else "1"
    path = tmp_path / "m.txt"
    path.write_text(f"4\n1 {m12} 1 1\n{m12} 1 1 1\n1 1 1 1\n1 1 1 1\nref 1 1.0\nref 2 100.0\n", encoding="utf-8")
    code, out, _ = run_cli(["rank", "--input", str(path), "--method", "hre", "--json"], capsys)
    assert code == 0
    # a provided ratio between the references is warned about; a missing one stays missing, and is scanned so
    assert [w.split(" at ")[0] for w in json.loads(out)["warnings"]] == ([] if gap else ["known-known-mismatch"] * 2)
    assert len(calls) == restores
    assert json.loads(out)["diagnostics"]["koczkodaj"] == 0.0
    code, out, _ = run_cli(["diagnose", "--input", str(path), "--json"], capsys)
    assert code == 0 and json.loads(out)["koczkodaj"] == 0.0


def test_auto_reference_designation(tmp_path, capsys):
    # same file as example1 but with no ref line: concept 1 gets weight 1
    text = (DATA_DIR / "example1.txt").read_text(encoding="utf-8")
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("ref")) + "\n"
    no_ref = tmp_path / "noref.txt"
    no_ref.write_text(stripped, encoding="utf-8")

    code, out, err = run_cli(
        ["rank", "--input", str(no_ref), "--method", "hre", "--normalize", "--json"], capsys
    )
    assert code == 0
    assert "concept 1 fixed at weight 1" in err
    payload = json.loads(out)

    code, ref_out, _ = run_cli(
        ["rank", "--input", str(DATA_DIR / "example1.txt"), "--method", "hre",
         "--normalize", "--json"],
        capsys,
    )
    reference_payload = json.loads(ref_out)
    assert payload["weights"] == reference_payload["weights"]
    assert any("concept 1" in w for w in payload["warnings"])


def test_min_error_answers_an_all_reference_problem(tmp_path, capsys):
    path = tmp_path / "all_refs.txt"
    path.write_text("2\n1 2\n1/2 1\nref 1 1.0\nref 2 0.5\n", encoding="utf-8")
    payloads = {}
    for method in ("hre", "min-error"):
        code, out, err = run_cli(["rank", "--input", str(path), "--method", method, "--json"], capsys)
        assert code == 0, err
        payloads[method] = json.loads(out)
    assert payloads["min-error"]["path"] == "min-error"
    assert payloads["min-error"]["weights"] == payloads["hre"]["weights"] == [1.0, 0.5]
    assert payloads["min-error"]["warnings"] == []


def test_ev_does_not_need_references(tmp_path, capsys):
    text = (DATA_DIR / "example1.txt").read_text(encoding="utf-8")
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("ref")) + "\n"
    no_ref = tmp_path / "noref.txt"
    no_ref.write_text(stripped, encoding="utf-8")
    code, out, err = run_cli(["rank", "--input", str(no_ref), "--method", "ev"], capsys)
    assert code == 0
    assert "notice" not in err


def test_large_cop_report_matches_oracles(tmp_path, capsys):
    # the goldens hold a handful of violations; this input has thousands of both kinds
    matrix, _ = noisy_consistent(30, random.Random(30), 0.5)
    text = "30\n" + "".join(" ".join(map(repr, row)) + "\n" for row in matrix.array.tolist()) + "ref 1 1.0\n"
    weights = ev_weights(matrix).values
    (tmp_path / "m.txt").write_text(text, encoding="utf-8")
    (tmp_path / "w.txt").write_text("".join(f"{v!r}\n" for v in weights), encoding="utf-8")
    expected = cop_check_loop(parse_matrix(text).matrix, WeightVector(weights))
    assert len(expected.pop_violations) > 1000 and len(expected.poip_violations) > 1000
    args = ["cop", "--input", str(tmp_path / "m.txt"), "--weights", str(tmp_path / "w.txt")]
    assert run_cli(args + ["--json"], capsys) == (0, json.dumps(cop_payload(expected), indent=2) + "\n", "")
    assert run_cli(args, capsys) == (0, cop_text_oracle(expected) + "\n", "")
