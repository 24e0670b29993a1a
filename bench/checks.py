"""Output checks for the benchmark's shapsim runs, and the drift statistic.

Each checker takes the bytes a CLI run wrote and the parameters it was asked
for, raises :class:`CheckError` on the first broken invariant, and otherwise
returns the amount of work the output proves was done (P-samples or DP
boundary rows).  The invariants hold at any seed, so every run is checked;
byte identity against recorded digests is checked separately.
"""

from __future__ import annotations

import hashlib
import math
from statistics import fmean


class CheckError(ValueError):
    """A run's output broke an invariant of its subcommand."""


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines(data: bytes) -> list[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckError(f"output is not UTF-8: {exc}") from None
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    lines = text[:-1].split("\n")
    if not lines or lines[0] != "# schema-version: 1":
        raise CheckError("missing '# schema-version: 1' first line")
    return lines


def _split_table(lines: list[str], header: str) -> tuple[dict[str, str], list[list[str]]]:
    """Comment ``key = value`` pairs before ``header``, and the rows after it."""
    comments: dict[str, str] = {}
    for i, line in enumerate(lines[1:], start=1):
        if line == header:
            return comments, [row.split(",") for row in lines[i + 1:]]
        if not line.startswith("# ") or " = " not in line:
            raise CheckError(f"line {i + 1}: expected a comment or the header {header!r}")
        key, value = line[2:].split(" = ", 1)
        comments[key] = value
    raise CheckError(f"header {header!r} not found")


def _num(cell: str, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CheckError(f"{what}: {cell!r} is not a number") from None


def _int(cell: str, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise CheckError(f"{what}: {cell!r} is not an integer") from None


def check_simulate(data: bytes, *, R: int, seed: int) -> int:
    """``j,Y,Z,dev`` rows and an ``R,V,x_honest,eps_hat,seed`` trailer.

    The trailer's ``R`` is the requested count and the row count, ``V`` is
    the sum of the ``dev`` column, and ``x_honest`` is the mean of ``Y - Z``.
    """
    lines = _lines(data)
    if len(lines) < 4 or lines[1] != "j,Y,Z,dev" or lines[-2] != "# trailer: R,V,x_honest,eps_hat,seed":
        raise CheckError("simulate output lacks its header or trailer")
    trailer = lines[-1].split(",")
    if len(trailer) != 5:
        raise CheckError(f"trailer has {len(trailer)} fields, expected 5")
    rows = [line.split(",") for line in lines[2:-2]]
    r_out = _int(trailer[0], "trailer R")
    if r_out != R or len(rows) != R:
        raise CheckError(f"trailer R={r_out} with {len(rows)} rows; requested R={R}")
    if _int(trailer[4], "trailer seed") != seed:
        raise CheckError(f"trailer seed {trailer[4]} != requested {seed}")
    dev_sum = 0
    x_sum = 0.0
    scale = 0.0
    for j, row in enumerate(rows, start=1):
        if len(row) != 4 or _int(row[0], "j") != j:
            raise CheckError(f"row {j} is malformed: {','.join(row)!r}")
        y, z, dev = _num(row[1], "Y"), _num(row[2], "Z"), _int(row[3], "dev")
        if z < 0 or dev < 0:
            raise CheckError(f"row {j}: negative Z or dev")
        dev_sum += dev
        x_sum += y - z
        scale += abs(y) + abs(z)
    if _int(trailer[1], "trailer V") != dev_sum:
        raise CheckError(f"trailer V={trailer[1]} but the dev column sums to {dev_sum}")
    x_honest = _num(trailer[2], "trailer x_honest")
    mean = x_sum / R
    # Y and Z are printed to 12 significant digits, so the mean of their
    # difference matches x_honest only to that precision.
    if abs(x_honest - mean) > 1e-9 * max(1.0, scale / R):
        raise CheckError(f"x_honest={x_honest!r} but mean(Y - Z)={mean!r}")
    return R


def check_cdf(data: bytes, *, M: int) -> int:
    """``M`` rows sorted by ``eps_hat``, with ``cum_fraction`` ending at 1.

    Returns the run-sample count ``R * M`` read from the comments.
    """
    comments, rows = _split_table(_lines(data), "eps_hat,cum_fraction")
    if _int(comments.get("M", ""), "comment M") != M or len(rows) != M:
        raise CheckError(f"{len(rows)} rows (comment M={comments.get('M')}); requested M={M}")
    R = _int(comments.get("R", ""), "comment R")
    prev = -math.inf
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise CheckError(f"row {i + 1} is malformed: {','.join(row)!r}")
        eps_hat, frac = _num(row[0], "eps_hat"), _num(row[1], "cum_fraction")
        if eps_hat < prev or eps_hat < 0:
            raise CheckError(f"row {i + 1}: eps_hat {eps_hat!r} out of order")
        if abs(frac - (i + 1) / M) > 1e-11:
            raise CheckError(f"row {i + 1}: cum_fraction {frac!r} != {(i + 1) / M!r}")
        prev = eps_hat
    if rows[-1][1] != "1":
        raise CheckError(f"last cum_fraction is {rows[-1][1]!r}, not 1")
    return R * M


def check_dp_table(data: bytes, *, R: int, C: int) -> int:
    """``R * (C + 1)`` rows on the ``(T, c)`` grid, ``E_worst`` not increasing in ``c``."""
    comments, rows = _split_table(_lines(data), "T,c,E_worst")
    if _int(comments.get("C", ""), "comment C") != C or len(rows) != R * (C + 1):
        raise CheckError(f"{len(rows)} rows (comment C={comments.get('C')}); "
                         f"expected R*(C+1)={R * (C + 1)}")
    for i, row in enumerate(rows):
        T, c = divmod(i, C + 1)
        if len(row) != 3 or _int(row[0], "T") != T or _int(row[1], "c") != c:
            raise CheckError(f"row {i + 1} is not (T={T}, c={c}): {','.join(row)!r}")
        value = _num(row[2], "E_worst")
        if not math.isfinite(value):
            raise CheckError(f"row {i + 1}: E_worst is not finite")
        # Rounding to 12 digits is monotone, so the printed values keep
        # the table's order exactly.
        if c > 0 and value > prev:
            raise CheckError(f"E_worst increases in c at T={T}, c={c}")
        prev = value
    return R


def drift(costs: list[float]) -> float:
    """Mean cost of the last tenth of items divided by that of the first tenth.

    A per-item cost that does not grow with the item index reads near 1; a
    cost linear in the index (a quadratic total) reads near the ratio of the
    last tenth's mean position to the first tenth's.  Returns 0.0 when there
    are no items or the first tenth cost nothing.
    """
    if not costs:
        return 0.0
    k = max(1, len(costs) // 10)
    first = fmean(costs[:k])
    return fmean(costs[-k:]) / first if first > 0 else 0.0
