import math
import random
import warnings

import pytest

from hrerank import (
    ParseError,
    PcMatrix,
    Prepared,
    Problem,
    ValidationError,
    hre_rank,
    is_reachable,
    parse_matrix,
    preprocess,
    validate,
)
from hrerank.matrix_core import restore_reciprocity

from _support import entry, fill_known_ratios, is_reciprocal, random_reciprocal


class TestParse:
    def test_example1_entries(self, example1):
        m = example1.matrix
        assert m.n == 5
        assert entry(m, 1, 2) == 2.0
        assert entry(m, 2, 1) == 0.5
        assert entry(m, 4, 5) == 7.0
        assert entry(m, 3, 1) == 1.0 / 3.0  # fraction token
        assert example1.references == {1: 1.0}

    def test_trivial_two_by_two(self):
        problem = parse_matrix("2\n1 1\n1 1\nref 1 1.0\n")
        assert problem.matrix.entries == ((1.0, 1.0), (1.0, 1.0))
        assert problem.references == {1: 1.0}

    def test_example4_missing_pattern(self, example4):
        m = example4.matrix
        absent = {
            (i, j)
            for i in range(1, 5)
            for j in range(1, 5)
            if entry(m, i, j) is None
        }
        assert absent == {(1, 3), (1, 4), (2, 1), (2, 4), (3, 1), (3, 2), (3, 4), (4, 2)}
        assert example4.references == {1: 1.0}

    def test_separators_and_comments(self):
        text = "3  # size\n1, 2,\t4   # row\n1/2 1 2\n0.25, 1/2, 1\nref 2 3.5 # fixed\n"
        problem = parse_matrix(text)
        assert entry(problem.matrix, 1, 3) == 4.0
        assert entry(problem.matrix, 3, 1) == 0.25
        assert problem.references == {2: 3.5}

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty input"),
            ("x\n", "must be an integer"),
            ("1\n1\n", "at least 2"),
            ("2 2\n1 1\n1 1\n", "single matrix size"),
            ("2\n1 1 1\n1 1\n", "row 1 has 3 values"),
            ("2\n1 1\n", "expected 2 matrix rows"),
            ("2\n1 oops\n1 1\n", "invalid value 'oops'"),
            ("2\n1 1/0\n1 1\n", "zero denominator"),
            ("2\n1 1\n1 1\njunk 1 1\n", "expected 'ref' line"),
            ("2\n1 1\n1 1\nref 1\n", "exactly: ref"),
            ("2\n1 1\n1 1\nref 3 1.0\n", "outside 1..2"),
            ("2\n1 1\n1 1\nref 0 1.0\n", "outside 1..2"),
            ("2\n1 1\n1 1\nref 1 1.0\nref 1 2.0\n", "duplicate reference"),
            ("2\n1 1\n1 1\nref 1 -2\n", "positive"),
            ("2\n1 1\n1 1\nref 1 w\n", "invalid reference weight"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_matrix(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan"])
    def test_nan_token_is_not_a_missing_entry(self, token):
        with pytest.raises(ParseError) as err:
            parse_matrix(f"2\n1 {token}\n1 1\n")
        assert (err.value.line, err.value.column) == (2, 3)
        assert "'?'" in str(err.value)

    def test_nan_fraction_is_refused_by_entry_after_parsing(self):
        huge = f"{'9' * 400}/{'9' * 400}"  # inf over inf
        text = f"3\n1 2 ?\n? 1 {huge}\n1 {huge} 1\nref 1 1.0\n"
        with pytest.raises(ValueError, match=r"^entry \(2,3\) is NaN; use None for a missing comparison$") as err:
            parse_matrix(text)
        assert not isinstance(err.value, ParseError)
        with pytest.raises(ParseError, match="expected 'ref' line"):  # a syntax error anywhere is reported first
            parse_matrix(text + "junk\n")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("3\n1 2 3\n1/2 1 oops\n1/3 1 1\n")
        assert err.value.line == 3
        assert err.value.column == 7


class TestValidate:
    def test_example3_nonreciprocal_warning(self, example3):
        report = validate(example3)
        assert report.ok
        warnings = [i for i in report.issues if i.category == "non-reciprocal-pair"]
        assert len(warnings) == 1
        assert warnings[0].location == "(1,4)"

    def test_negative_entry_is_fatal(self):
        matrix = PcMatrix(((1.0, -1.0), (1.0, 1.0)))
        report = validate(Problem(matrix))
        assert not report.ok
        assert report.fatal_issues[0].category == "nonpositive-entry"

    @pytest.mark.parametrize("value", [0.0, -2.0, math.inf, -math.inf])
    def test_nonpositive_and_infinite_entries_are_fatal(self, value):
        report = validate(Problem(PcMatrix(((1.0, value), (1.0, 1.0)))))
        assert [(i.location, i.category) for i in report.fatal_issues] == [("(1,2)", "nonpositive-entry")]

    def test_bad_and_missing_diagonal(self):
        report = validate(Problem(PcMatrix(((2.0, 1.0), (1.0, None)))))
        categories = [i.category for i in report.fatal_issues]
        assert categories.count("bad-diagonal") == 2

    def test_example4_with_reference_is_ok(self, example4):
        report = validate(example4)
        assert report.ok

    def test_unreachable_concept_is_fatal(self):
        rows = (
            (1.0, 2.0, 3.0, None),
            (0.5, 1.0, 1.0, None),
            (1 / 3, 1.0, 1.0, None),
            (None, None, None, 1.0),
        )
        problem = Problem(PcMatrix(rows), {1: 1.0})
        report = validate(problem)
        assert [i.category for i in report.fatal_issues] == ["unreachable-concept"]
        ok, unreachable = is_reachable(problem)
        assert (ok, unreachable) == (False, (4,))


class TestRestoreReciprocity:
    def test_example3_geometric_mean(self, example3):
        restored = restore_reciprocity(example3.matrix)
        assert entry(restored, 1, 4) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert entry(restored, 4, 1) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        # all other entries untouched
        for i in range(1, 5):
            for j in range(1, 5):
                if (i, j) not in ((1, 4), (4, 1)):
                    assert entry(restored, i, j) == entry(example3.matrix, i, j)

    def test_reciprocal_matrix_is_fixpoint(self):
        # powers of two give bit-exact reciprocals, so the output is identical
        rows = ((1.0, 2.0, 8.0), (0.5, 1.0, 4.0), (0.125, 0.25, 1.0))
        matrix = PcMatrix(rows)
        assert restore_reciprocity(matrix).entries == rows

    def test_extreme_reciprocal_pair_is_fixpoint(self):
        # m12 / m21 = 1e600 overflows and m21 / m12 underflows; the roots are taken first there
        rows = ((1.0, 1e300, 4.0), (1e-300, 1.0, 0.5), (0.25, 2.0, 1.0))
        matrix = PcMatrix(rows)
        assert is_reciprocal(matrix) and not validate(Problem(matrix)).issues
        restored = restore_reciprocity(matrix)
        assert entry(restored, 1, 2) == pytest.approx(1e300, rel=2**-52)
        assert entry(restored, 2, 1) == 1e-300
        assert [row[2] for row in restored.entries] == [4.0, 0.5, 1.0]  # every other entry keeps its bits
        assert restored.entries[2] == rows[2]
        assert restore_reciprocity(restored) == restored

    def test_extreme_pair_leaves_other_pairs_alone(self):
        # the (1,3) and (2,3) pairs are not reciprocal, and sqrt(a / b) differs from sqrt(a) / sqrt(b) on them
        plain = ((1.0, 1.0, 3.0), (1.0, 1.0, 1.8), (0.2, 0.3, 1.0))
        extreme = ((1.0, 1e300, 3.0), (1e-300, 1.0, 1.8), (0.2, 0.3, 1.0))
        expected = restore_reciprocity(PcMatrix(plain)).entries
        restored = restore_reciprocity(PcMatrix(extreme)).entries
        assert [row[2] for row in restored] == [row[2] for row in expected]
        assert restored[2] == expected[2]

    def test_one_sided_pair_completed(self):
        rows = ((1.0, 4.0, 1.0), (None, 1.0, 1.0), (1.0, 1.0, 1.0))
        restored = restore_reciprocity(PcMatrix(rows))
        assert entry(restored, 1, 2) == 4.0
        assert entry(restored, 2, 1) == 0.25

    def test_random_properties(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randint(2, 6)
            grid = [[None] * n for _ in range(n)]
            for i in range(n):
                grid[i][i] = 1.0
            for i in range(n):
                for j in range(i + 1, n):
                    shape = rng.random()
                    if shape < 0.25:
                        continue  # fully missing pair
                    if shape < 0.5:
                        grid[i][j] = math.exp(rng.uniform(-2, 2))
                    elif shape < 0.75:
                        grid[j][i] = math.exp(rng.uniform(-2, 2))
                    else:
                        grid[i][j] = math.exp(rng.uniform(-2, 2))
                        grid[j][i] = math.exp(rng.uniform(-2, 2))
            matrix = PcMatrix(tuple(tuple(row) for row in grid))
            once = restore_reciprocity(matrix)
            twice = restore_reciprocity(once)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    a, b = entry(once, i, j), entry(twice, i, j)
                    either_input = entry(matrix, i, j) is not None or entry(matrix, j, i) is not None
                    # presence pattern becomes the symmetric closure of the input's
                    assert (a is not None) == either_input
                    if a is None:
                        assert b is None
                        continue
                    # idempotent to a relative 1e-15
                    assert abs(a - b) <= 1e-15 * abs(a)
                    if i != j:
                        assert abs(a * entry(once, j, i) - 1.0) <= 1e-12


class TestReachability:
    def test_example4_is_reachable(self, example4):
        restored = Problem(restore_reciprocity(example4.matrix), example4.references)
        assert is_reachable(restored) == (True, ())

    def test_complete_matrix_always_reachable(self):
        rng = random.Random(3)
        matrix = random_reciprocal(5, rng)
        assert is_reachable(Problem(matrix, {3: 2.0})) == (True, ())

    def test_no_references_means_everything_unreachable(self):
        matrix = random_reciprocal(3, random.Random(1))
        ok, unreachable = is_reachable(Problem(matrix))
        assert not ok
        assert unreachable == (1, 2, 3)


def test_preprocess_raises_on_fatal_issue():
    problem = Problem(PcMatrix(((1.0, -2.0), (0.5, 1.0))), {1: 1.0})
    with pytest.raises(ValidationError):
        preprocess(problem)


def test_preprocess_collects_warnings(example3):
    prepared, issues = preprocess(example3)
    assert is_reciprocal(prepared.matrix)
    assert [i.category for i in issues] == ["non-reciprocal-pair"]


def test_preprocess_keeps_the_restored_matrix_and_the_fill_warnings(example2):
    grid = [list(row) for row in example2.matrix.entries]
    grid[1][2] = 1.0  # contradicts the 5/7 the references define
    problem = Problem(PcMatrix(grid), example2.references)
    ready = preprocess(problem)
    prepared, issues = ready
    assert prepared.matrix == restore_reciprocity(problem.matrix)  # unfilled
    filled, fill_issues = fill_known_ratios(Problem(prepared.matrix, problem.references))
    assert [(i.location, i.category) for i in fill_issues] == [
        ("(2,3)", "known-known-mismatch"), ("(3,2)", "known-known-mismatch"),
    ]
    assert issues == validate(problem).warnings + fill_issues
    # no solver reads a ratio between two references
    assert hre_rank(Prepared(filled, issues)) == hre_rank(ready)


def test_is_reciprocal_rejects_undefined_products_without_warning():
    # inf * 0 is NaN, which compares false against any tolerance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_reciprocal(PcMatrix([[1.0, math.inf], [0.0, 1.0]]))
        assert not is_reciprocal(PcMatrix([[1.0, 1e300], [1e300, 1.0]]))  # the product overflows
        assert is_reciprocal(PcMatrix([[1.0, 1e300], [1e-300, 1.0]]))
        assert is_reciprocal(PcMatrix([[1.0, None], [None, 1.0]]))
        assert not is_reciprocal(PcMatrix([[1.0, 2.0], [None, 1.0]]))


def test_pc_matrix_rejects_nan_with_its_location():
    with pytest.raises(ValueError, match=r"\(2,1\) is NaN"):
        PcMatrix(((1.0, 2.0), (math.nan, 1.0)))


def test_pc_matrix_finds_a_nan_among_missing_entries():
    rows = ((1.0, None, 2.0), (None, 1.0, None), (0.5, math.nan, 1.0))
    with pytest.raises(ValueError, match=r"entry \(3,2\) is NaN; use None for a missing comparison"):
        PcMatrix(rows)
    assert entry(PcMatrix(((1.0, None, 2.0), (None, 1.0, None), (0.5, None, 1.0))), 3, 2) is None
    assert PcMatrix(((1.0, None), (None, 1.0))).entries == ((1.0, None), (None, 1.0))


def test_pc_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PcMatrix(((1.0,),))
    with pytest.raises(ValueError):
        PcMatrix(((1.0, 1.0), (1.0,)))


def test_problem_rejects_bad_references():
    matrix = PcMatrix(((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        Problem(matrix, {3: 1.0})
    with pytest.raises(ValueError):
        Problem(matrix, {1: -1.0})
