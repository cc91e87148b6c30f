"""Regenerate the CLI golden files: python tests/_make_goldens.py

Review the diff before committing; these files pin the CLI contract.
A command that emits a warning (numpy's RuntimeWarning included) is
refused: a golden run must print nothing but its output.
"""

import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hrerank.cli import main

from _support import GOLDEN_DIR
from test_cli import GOLDEN_CASES, TestMc, resolve


def capture(args, expected_code=0) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    if code != expected_code:
        raise SystemExit(f"golden command exited {code}, not {expected_code}: {args}")
    if caught:
        raise SystemExit(f"golden command warned ({caught[0].category.__name__}: {caught[0].message}): {args}")
    return buffer.getvalue()


def run() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (code, args) in GOLDEN_CASES.items():
        (GOLDEN_DIR / name).write_text(capture(resolve(args), code), encoding="utf-8")
        print(f"wrote {name}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "mc.csv"
        stdout = capture(TestMc.ARGS + ["--out", str(out)])
        (GOLDEN_DIR / "mc_small_stdout.txt").write_text(stdout, encoding="utf-8")
        (GOLDEN_DIR / "mc_small.csv").write_text(
            out.read_text(encoding="utf-8"), encoding="utf-8"
        )
        print("wrote mc_small_stdout.txt, mc_small.csv")


if __name__ == "__main__":
    run()
