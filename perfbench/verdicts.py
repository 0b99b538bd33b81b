"""Suite CSVs read back, and verdicts compared with a committed reference.

A reference lists `suite,check_id,verdict` for every check of a workload.
A check fails when its verdict is FAIL, when it is missing, or when its
check id or verdict differs from the reference; a suite whose CSV is
missing (it raised) fails every reference check it owns.  Defects are read
and recorded, never compared.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SUITES


@dataclass
class SuiteOutput:
    checks: list[tuple[str, str, str]] = field(default_factory=list)  # id, verdict, defect
    meta: dict[str, str] = field(default_factory=dict)


def read_outputs(out_dir: Path) -> dict[str, SuiteOutput]:
    """The checks and `# meta` lines of every suite CSV present in out_dir."""
    outputs = {}
    for suite in SUITES:
        path = Path(out_dir) / f"{suite}.csv"
        if not path.is_file():
            continue
        so = SuiteOutput()
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if row and row[0].startswith("# "):
                    so.meta[row[0][2:]] = row[1]
                elif row and row[0] == suite:
                    so.checks.append((row[1], row[5], row[3]))
        outputs[suite] = so
    return outputs


def load_reference(path: Path) -> list[tuple[str, str, str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["suite", "check_id", "verdict"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [tuple(r) for r in rows[1:]]


def write_reference(path: Path, outputs: dict[str, SuiteOutput]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["suite", "check_id", "verdict"])
        for suite in SUITES:
            for check_id, verdict, _ in outputs[suite].checks:
                w.writerow([suite, check_id, verdict])


def compare(reference: list[tuple[str, str, str]],
            outputs: dict[str, SuiteOutput]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) of one run against the reference.

    Attempted counts every reference check plus every produced check the
    reference does not list; the latter always fail.
    """
    produced = {(s, cid): verdict for s, so in outputs.items() for cid, verdict, _ in so.checks}
    listed = {(s, cid) for s, cid, _ in reference}
    reasons = []
    for suite, cid, want in reference:
        got = produced.get((suite, cid))
        if got is None:
            reasons.append(f"{suite}/{cid}: missing" + ("" if suite in outputs else " (no CSV)"))
        elif got != want or got != "pass":
            reasons.append(f"{suite}/{cid}: verdict {got}, reference {want}")
    extra = [(s, cid) for s, so in outputs.items() for cid, _, _ in so.checks
             if (s, cid) not in listed]
    rows = sum(len(so.checks) for so in outputs.values())
    extra += [("*", "duplicate check id")] * (rows - len(produced))
    reasons += [f"{s}/{cid}: not in reference" for s, cid in extra]
    return len(reference) + len(extra), len(reasons), reasons
