"""Self-test of the benchmark at a tiny size:  python3 bench/selftest.py

For each workload: the generator is deterministic in its seed, one `report`
on its inputs passes every check, and the checks catch planted errors in the
output (a corrupted score, a swapped label, a dropped row, a wrong summary
mean). Last, run.py must refuse to run, without printing a result, where the
program's sources are missing. Exits 0 when all of this holds.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import reference
from run import BENCH, Report

SCALE = 0.05
SEED = 1


def _digest(directory: Path) -> str:
    """Hash of the generated files; run.conf differs only by the directory named."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name != "run.conf":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def _corrupt_value(rows):
    r = next(r for r in rows if r["status"] == "ok")
    r["value"] = f"{float(r['value']) - 0.01:.6f}"
    return rows


def _swap_label(rows):
    r = rows[0]
    r["label"] = "legitimate" if r["label"] == "fake" else "fake"
    return rows


def _drop_row(rows):
    return rows[1:]


def _shift_mean(rows):
    rows[0]["fake_mean"] = f"{float(rows[0]['fake_mean']) + 1e-5:.6f}"
    return rows


PLANTED = [("scores", _corrupt_value), ("scores", _swap_label), ("scores", _drop_row),
           ("summary", _shift_mean)]


def check_workload(workload: str, work: Path) -> list[str]:
    failures = []
    a = gen.generate(workload, SEED, work / "a", SCALE)
    b = gen.generate(workload, SEED, work / "b", SCALE)
    c = gen.generate(workload, SEED + 1, work / "c", SCALE)
    if _digest(work / "a") != _digest(work / "b") or a.docs != b.docs:
        failures.append("same seed gave different inputs")
    if [d.text for d in a.docs] == [d.text for d in c.docs]:
        failures.append("another seed gave the same corpus")

    expected = reference.Expected(a)
    run = Report(a, work, "plain")
    if not run.ok:
        return failures + [f"report exited {run.rc}; see {work / 'stderr.txt'}"]
    problems = reference.check_outputs(a, expected, run.out, SEED, sample_size=3)
    failures += [f"clean output flagged: {p}" for p in problems]

    method = expected.methods[0]
    for target, edit in PLANTED:
        planted = work / "planted"
        shutil.rmtree(planted, ignore_errors=True)
        shutil.copytree(run.out, planted)
        name = f"scores_{method}.csv" if target == "scores" else "summary.csv"
        _edit_csv(planted / name, edit)
        if not reference.check_outputs(a, expected, planted, SEED, sample_size=3):
            failures.append(f"planted error not caught: {edit.__name__} in {name}")
    return failures


def check_bare_directory(work: Path) -> list[str]:
    """run.py next to no program must exit non-zero and print no result."""
    bare = work / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "isot", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    root = BENCH / "work" / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    failures = []
    for workload in gen.WORKLOADS:
        found = check_workload(workload, root / workload)
        print(f"{workload}: {'ok' if not found else 'FAIL'}")
        failures += [f"{workload}: {f}" for f in found]
    found = check_bare_directory(root)
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    failures += found
    for f in failures:
        print(f"  {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
