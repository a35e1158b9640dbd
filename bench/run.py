"""Benchmark of `newscoherence report` on seeded, generated inputs.

    python3 bench/run.py --workload isot --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes, as a table

One run generates the workload's inputs from `--seed`, runs one `report`
as a warm-up whose outputs are checked against bench/reference.py, then
repeats `report`, each time in a fresh process, until `--seconds` have
passed. Every repeat must write byte-for-byte the outputs that were checked.

--trace 0 prints the end-to-end metrics: total_s (process start to exit), the
fastest over the repeats, and docs_per_s (documents / total_s); setup_s (time
inside the set-up calls of the same processes) and peak_rss_mb (the report
process's own high-water mark, VmHWM; the rusage of a child also counts the
parent it was forked from), medians over the repeats. On a shared host other
tenants only ever add time to a repeat, so the fastest repeat is the steadiest
estimate of the program's own cost; see bench/README.md, "Noise".
--trace 1 alternates an untraced and a traced repeat and prints the
per-module medians plus trace.overhead_s; the spans of the last traced
repeat are written to bench/work/<workload>/spans.json.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 60
# numpy's BLAS would otherwise start a spinning thread per core at import,
# which competes with the measured thread for the host's two cores.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}

END_TO_END = {"total_s": "s", "setup_s": "s", "docs_per_s": "docs/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "corpus.load_s": "s", "corpus.segment_s": "s",
    "corpus.sentences": "count", "corpus.tokens": "count",
    "embeddings.load_s": "s", "embeddings.load_mb_per_s": "MB/s", "embeddings.vectors": "count",
    "esa.kb_read_s": "s", "esa.build_s": "s", "esa.load_s": "s",
    "esa.concepts": "count", "esa.nnz": "count",
    "entitylink.gazetteer_s": "s", "entitylink.link_s": "s", "entitylink.mentions": "count",
    "coherence.embedding_s": "s", "coherence.esa_s": "s", "coherence.entity_s": "s",
    "coherence.embedding_pairs_per_s": "pairs/s", "coherence.esa_pairs_per_s": "pairs/s",
    "coherence.entity_pairs_per_s": "pairs/s",
    "coherence.pairs": "count", "coherence.undefined": "count",
    "stats.compare_s": "s", "stats.hist_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}
# Documents scored with the plain-Python reference on each checked run.
SAMPLE_SIZE = {"isot": 4, "esa-kb": 3, "long-parallel": 1}


class Report:
    """One `report` process: wall time, exit code and its timing file."""

    def __init__(self, inputs: gen.Inputs, work: Path, mode: str):
        out, timing = work / "out", work / f"timing-{mode}.json"
        shutil.rmtree(out, ignore_errors=True)
        timing.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode, "--timing", str(timing),
               "--", "report", "--config", str(inputs.config_path), "--out-dir", str(out)]
        env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD_BLAS)
        with open(work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
            # A blocking wait, so the exit is seen at once; a timer kills a hung child.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                self.rc = proc.wait()
            finally:
                watchdog.cancel()
            self.total_s = time.perf_counter() - start
        self.out = out
        self.timing = json.loads(timing.read_text()) if timing.is_file() else None
        self.ok = self.rc == 0 and self.timing is not None

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _fastest(values: list[float]) -> float:
    return min(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = BENCH / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(workload, seed, work / "inputs")
    expected = reference.Expected(inputs)

    # Warm-up: fills the file cache and byte-code cache; its outputs are checked.
    first = Report(inputs, work, "plain")
    attempted, failed = 1, 0 if first.ok else 1
    problems = []
    if first.ok:
        problems = reference.check_outputs(inputs, expected, first.out, seed,
                                           SAMPLE_SIZE[workload])
        if not first.timing["wrapped"]:
            problems.append("no set-up call of the program was found to time setup_s")
        checked = first.digest()
    else:
        problems.append(f"warm-up report exited {first.rc}; see {work / 'stderr.txt'}")
        checked = None

    # Repeats: whole rounds only, and none that would end past `seconds`
    # (judged by the longest round so far), so a run lasts about `seconds`.
    plain: list[Report] = []
    traced: list[Report] = []
    modes = ["plain", "trace"] if trace else ["plain"]
    longest = first.total_s * len(modes)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        for mode in modes if rounds % 2 == 0 else modes[::-1]:
            r = Report(inputs, work, mode)
            attempted += 1
            if not r.ok:
                failed += 1
                continue
            if r.digest() != checked:
                problems.append(f"{mode} repeat {rounds}: outputs differ from the checked ones")
            (traced if mode == "trace" else plain).append(r)
        rounds += 1
        longest = max(longest, time.perf_counter() - round_start)

    n_docs = len(inputs.docs)
    if trace:
        metrics = {name: _median([r.timing["metrics"][name] for r in traced])
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (_median([r.total_s for r in traced])
                                       - _median([r.total_s for r in plain]))
        if traced:
            (work / "spans.json").write_text(json.dumps(traced[-1].timing["spans"], indent=1))
        units = PER_LAYER
    else:
        total = _fastest([r.total_s for r in plain])
        metrics = {
            "total_s": total,
            "setup_s": _median([r.timing["setup_s"] for r in plain]),
            "docs_per_s": n_docs / total if total else 0.0,
            "peak_rss_mb": _median([r.timing["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END
    (work / "repeats.json").write_text(json.dumps({
        mode: [{"total_s": r.total_s, "setup_s": r.timing["setup_s"],
                "peak_rss_mb": r.timing["peak_rss_mb"]} for r in reports]
        for mode, reports in (("plain", plain), ("trace", traced))}, indent=1))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of `newscoherence report`.")
    ap.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "newscoherence" / "cli.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'newscoherence'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    summary = {}
    for workload in gen.WORKLOADS:
        for trace in (False, True):
            res = run(workload, args.seed, args.seconds, trace)
            summary[f"{workload}/trace{int(trace)}"] = res
            print(f"{workload} (trace {int(trace)}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
