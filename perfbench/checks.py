"""Output checks.  Each returns a list of problems; an empty list passes.

The CLI checks re-derive what they can from the printed output alone (the
knockoff+ threshold from the printed statistics, the budget from the
workload's settings) rather than trusting the package's own helpers.
"""

from __future__ import annotations

import csv
import math

SWEEP_COLUMNS = (
    "n", "method", "stat", "trials", "fdr_hat", "fdr_se",
    "power_hat", "power_se", "eps_total", "delta_total", "failures",
)

# Reference tolerances.  Sweep CSVs carry 6 significant digits; a rounding
# change may move the last one, while one flipped selection moves power by
# at least 1/(trials * k), far beyond REL_TOL.  CLI statistics are the noisy
# estimate folded into W, so a rounding-level change in the estimate stays
# many orders below STAT_RTOL.
REL_TOL = 1e-5
STAT_RTOL = 1e-6


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _threshold(record) -> float:
    """The CLI prints an infinite threshold (nothing selected) as "inf"."""
    return math.inf if record["threshold"] == "inf" else float(record["threshold"])


def parse_sweep_csv(path):
    """Rows of a sweep CSV as dicts, or raise ValueError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != SWEEP_COLUMNS:
            raise ValueError(f"unexpected header {header}")
        rows = []
        for fields in reader:
            if len(fields) != len(SWEEP_COLUMNS):
                raise ValueError(f"row has {len(fields)} fields: {fields}")
            row = dict(zip(SWEEP_COLUMNS, fields))
            for key in ("n", "trials", "failures"):
                row[key] = int(row[key])
            for key in ("fdr_hat", "fdr_se", "power_hat", "power_se", "eps_total", "delta_total"):
                row[key] = float(row[key])
            rows.append(row)
    return rows


def check_sweep_rows(rows, n_grid, trials: int, totals) -> list:
    """Invariants of one sweep report.

    ``totals`` maps n to the (eps, delta) the sweep must charge per trial.
    """
    problems = []
    if sorted(r["n"] for r in rows) != sorted(n_grid):
        problems.append(f"rows cover n={[r['n'] for r in rows]}, expected {sorted(n_grid)}")
    for r in rows:
        if r["trials"] + r["failures"] != trials:
            problems.append(f"n={r['n']}: trials+failures={r['trials'] + r['failures']} != {trials}")
        for key in ("fdr_hat", "power_hat"):
            if not (math.isfinite(r[key]) and 0.0 <= r[key] <= 1.0):
                problems.append(f"n={r['n']}: {key}={r[key]} outside [0, 1]")
        eps, delta = totals[r["n"]]
        if not (_close(r["eps_total"], eps, REL_TOL) and _close(r["delta_total"], delta, REL_TOL)):
            problems.append(
                f"n={r['n']}: budget ({r['eps_total']}, {r['delta_total']}) != ({eps}, {delta})"
            )
    return problems


def knockoff_plus_threshold(w, q: float) -> float:
    """Smallest t in {|W_j| > 0} with (1 + #{W <= -t}) / max(#{W >= t}, 1) <= q."""
    for t in sorted({abs(v) for v in w if v != 0.0}):
        n_neg = sum(1 for v in w if v <= -t)
        n_pos = sum(1 for v in w if v >= t)
        if (1 + n_neg) / max(n_pos, 1) <= q:
            return t
    return math.inf


def check_run_output(record, q: float, eps: float, delta: float, p: int) -> list:
    """Invariants of one `dpknockoff run` JSON record."""
    w = [float(v) for v in record["statistics"]]
    if len(w) != p or not all(math.isfinite(v) for v in w):
        return [f"expected {p} finite statistics, got {len(w)}"]
    problems = []
    threshold = _threshold(record)
    expected_t = knockoff_plus_threshold(w, q)
    if threshold != expected_t:
        problems.append(f"threshold {threshold} != knockoff+ threshold {expected_t}")
    expected_sel = sorted(j for j, v in enumerate(w) if v >= expected_t)
    if sorted(record["selected"]) != expected_sel:
        problems.append(f"selected {record['selected']} != {{j : W_j >= T}} = {expected_sel}")
    total = record["total_privacy"]
    if not (_close(total["eps"], eps, 1e-12) and _close(total["delta"], delta, 1e-12)):
        problems.append(f"total_privacy {total} != (eps={eps}, delta={delta})")
    return problems


def compare_sweep_reference(rows, ref_rows) -> list:
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        for key in SWEEP_COLUMNS:
            a, b = row[key], ref[key]
            same = _close(a, b, REL_TOL) if isinstance(b, float) else a == b
            if not same:
                problems.append(f"n={ref['n']}: {key}={a}, reference {b}")
    return problems


def compare_run_reference(record, ref) -> list:
    problems = []
    if sorted(record["selected"]) != sorted(ref["selected"]):
        problems.append(f"selected {record['selected']}, reference {ref['selected']}")
    if not _close(_threshold(record), _threshold(ref), STAT_RTOL):
        problems.append(f"threshold {record['threshold']}, reference {ref['threshold']}")
    w, w_ref = record["statistics"], ref["statistics"]
    scale = max(abs(v) for v in w_ref)
    if len(w) != len(w_ref) or not all(
        _close(a, b, STAT_RTOL, STAT_RTOL * scale) for a, b in zip(w, w_ref)
    ):
        problems.append("statistics differ from the reference")
    return problems
