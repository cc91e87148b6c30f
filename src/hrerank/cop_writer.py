"""`hrerank cop` output: a COP report as JSON or as text, written chunk by chunk as it is rendered.

Only the `cop` subcommand imports this module.  A chunk holds at most
CHUNK violations, so the text held at one time is bounded whatever the
size of the report.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .cli import _fmt
from .diagnostics import CopReport

CHUNK = 4096  # violations rendered and written at a time

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


def _floats(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """fmt of each distinct bit pattern of values, as an object array of str, and each value's index into it.

    Grouping by bits, not by ==, keeps 0.0 and -0.0 apart, which print differently.
    """
    keys, codes = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return np.array([fmt(v) for v in keys.view(values.dtype).tolist()], dtype=object), codes.reshape(values.shape)


def _write_rows(out, frame: tuple[str, str, str], template: str, count: int, columns_of, sep: str) -> None:
    """Write count copies of the template, joined by sep, between frame[0] and frame[1] (frame[2] when count is 0).

    ``columns_of(rows)`` gives the chunk's columns for a slice of rows:
    equally long object arrays of str, the n-th of which fills the n-th {}
    of each copy; any other brace in the template is literal text.  A
    chunk's pieces are interleaved by list slice assignment and written as
    one string.
    """
    if not count:
        out.write(frame[2])
        return
    out.write(frame[0])
    pieces = template.split("{}")
    width = 2 * len(pieces) - 1
    for start in range(0, count, CHUNK):
        columns = columns_of(slice(start, start + CHUNK))
        rows = len(columns[0])
        parts = [sep + pieces[0]] * (rows * width)
        for f, column in enumerate(columns):
            parts[2 * f + 1 :: width] = column.tolist()
            parts[2 * f + 2 :: width] = [pieces[f + 1]] * rows
        if not start:
            parts[0] = pieces[0]
        out.write("".join(parts))
    out.write(frame[1])


def _pop_columns(result: CopReport, ints: np.ndarray, frame: tuple[str, str, str]):
    """The POP templates' columns for a slice of rows: i, j, k, l, the first failed pair, and the second one
    framed by ``frame`` where both pairs failed (empty strings elsewhere)."""

    def columns(rows: slice) -> list[np.ndarray]:
        i, j, k, l = ints[result.pop_quadruples[rows].T]
        head, tail = result.pop_failed[rows].T
        both, blank = head & tail, np.full(len(head), "", dtype=object)
        second = (frame[0], k, frame[1], l, frame[2])
        return [i, j, k, l, np.where(head, i, k), np.where(head, j, l), *(np.where(both, part, blank) for part in second)]

    return columns


def _ints(result: CopReport) -> np.ndarray:
    """str of every concept index up to the report's largest, indexed by the index."""
    top = max(result.pop_quadruples.max(initial=0), result.poip_quadruples.max(initial=0))
    return np.array([str(v) for v in range(top + 1)], dtype=object)


def _frame(key: str) -> tuple[str, str, str]:
    """How json.dumps(indent=2) frames the list under key: its opening, its closing, and an empty list."""
    return f'  "{key}": [\n', "\n  ]", f'  "{key}": []'


def write_json(result: CopReport, out) -> None:
    """Write the bytes of json.dumps(payload, indent=2) and one newline, as print writes them.

    With ``indent`` set, json falls back to its pure-Python encoder, which is
    slow on the hundreds of thousands of violations a mid-sized matrix can have.
    """
    ints, q = _ints(result), result.poip_quadruples
    ratios, codes = _floats(np.stack((result.lhs, result.rhs)), _json_float)

    def poip_columns(rows: slice) -> list[np.ndarray]:
        return [*ints[q[rows].T], *ratios[codes[:, rows]]]

    out.write(f'{{\n  "satisfies_cop": {"true" if result.satisfies_cop else "false"},\n'
              f'  "quadruples_checked": {result.quadruples_checked},\n')
    pop_columns = _pop_columns(result, ints, _PAIR_JSON)
    _write_rows(out, _frame("pop_violations"), _POP_JSON, len(result.pop_quadruples), pop_columns, ",\n")
    out.write(",\n")
    _write_rows(out, _frame("poip_violations"), _POIP_JSON, len(q), poip_columns, ",\n")
    out.write("\n}\n")


def write_text(result: CopReport, out) -> None:
    """Write the human-readable report, one line per violation, each line ended by a newline."""
    ints, q = _ints(result), result.poip_quadruples
    ratios, codes = _floats(np.stack((result.lhs, result.rhs)), _fmt)

    def poip_columns(rows: slice) -> list[np.ndarray]:
        (i, j, k, l), (lhs, rhs) = ints[q[rows].T], ratios[codes[:, rows]]
        return [i, j, k, l, i, j, lhs, k, l, rhs]

    out.write(f"quadruples checked: {result.quadruples_checked}\n")
    pop_columns = _pop_columns(result, ints, _PAIR_TEXT)
    pop_frame = ("POP violations:\n", "\n", "POP violations: none\n")
    _write_rows(out, pop_frame, _POP_TEXT, len(result.pop_quadruples), pop_columns, "\n")
    poip_frame = ("POIP violations:\n", "\n", "POIP violations: none\n")
    _write_rows(out, poip_frame, _POIP_TEXT, len(q), poip_columns, "\n")
    out.write(f"satisfies COP: {'yes' if result.satisfies_cop else 'no'}\n")
