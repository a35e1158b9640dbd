"""Run `newscoherence` in this process with timing spans around module calls.

    python3 bench/child.py --mode plain|trace --timing OUT.json -- report --config ...

The program is imported from the checkout's `src/`. Before `cli.main` runs,
the functions named in SETUP_TARGETS or TRACE_TARGETS are wrapped, in every
`newscoherence` module that holds a reference to them, by a wrapper that
records a span: name, start, end, parent span. `--mode plain` wraps only the set-up calls (vector
tables, gazetteer and aliases, ESA index), which are called a handful of times
per run, so its cost is nil; it times `setup_s` in the untraced run.
`--mode trace` wraps every target and derives the per-module metrics.

Counts (sentences, mentions, pairs, ...) are read after `main` returns, from
references kept at each call, so counting adds nothing to any span.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (module, function, span name); a target the program no longer has is skipped.
SETUP_TARGETS = [
    ("embeddings", "load_vectors_text", "embeddings.load"),
    ("entitylink", "build_gazetteer", "entitylink.gazetteer"),
    ("entitylink", "load_aliases", "entitylink.aliases"),
    ("esa", "load_index", "esa.load"),
    ("esa", "build_esa_index", "esa.build"),
    ("cli", "_load_kb", "esa.kb_read"),
]
TRACE_TARGETS = SETUP_TARGETS + [
    ("corpus", "load_csv", "corpus.load"),
    ("corpus", "load_jsonl", "corpus.load"),
    ("corpus", "segment_corpus", "corpus.segment"),
    ("entitylink", "link_corpus", "entitylink.link"),
    ("coherence", "score_corpus", "coherence.score"),
    ("stats", "compare", "stats.compare"),
    ("stats", "build_histogram", "stats.hist"),
]
SETUP_SPANS = {name for _, _, name in SETUP_TARGETS}
METHODS = ("embedding", "esa", "entity")


class Tracer:
    """Spans kept in memory; a thread-local stack gives each span its parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        stack = self._stack()
        span = {"id": len(self.spans), "name": name,
                "parent": stack[-1] if stack else None, "attrs": attrs or {}}
        self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        span["_args"], span["_result"] = args, result
        if name in ("corpus.segment", "entitylink.link"):
            # Keep the per-document lists this call produced; a later call
            # replaces them, so counting now-or-later sees this call's work.
            docs = (args[0] if args else kwargs["corpus"]).documents
            span["_docs"] = ([d.sentences for d in docs] if name == "corpus.segment"
                             else [d.entity_mentions for d in docs])
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if name == "coherence.score":
                attrs = {"method": kwargs.get("method", args[1] if len(args) > 1 else "")}
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper


def install(tracer: Tracer, targets) -> list[str]:
    """Wrap each target everywhere the package refers to it; return those found."""
    import newscoherence.cli  # noqa: F401  (imports every module of the package)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "newscoherence" or n.startswith("newscoherence.")]
    found = []
    for mod_name, fn_name, span_name in targets:
        mod = sys.modules.get(f"newscoherence.{mod_name}")
        original = getattr(mod, fn_name, None) if mod else None
        if original is None:
            continue
        wrapper = tracer.wrap(span_name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
        found.append(span_name)
    return found


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _nnz(index) -> int:
    # Today's index is a dict of dicts; the roadmap plans a sparse matrix.
    inverted = getattr(index, "inverted", None)
    if isinstance(inverted, dict):
        return sum(len(row) for row in inverted.values())
    return int(getattr(inverted, "nnz", 0))


def setup_seconds(spans: list[dict]) -> float:
    """Wall time covered by set-up calls; a call inside another counts once."""
    return _covered([(s["start"], s["end"]) for s in spans if s["name"] in SETUP_SPANS])


def layer_metrics(spans: list[dict], root: dict) -> dict[str, float]:
    """Per-module metrics of one traced run (see bench/README.md for the map)."""
    def total(name, **attrs):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name
                   and all(s["attrs"].get(k) == v for k, v in attrs.items()))

    def of(name):
        return [s for s in spans if s["name"] == name]

    m: dict[str, float] = {}
    m["corpus.load_s"] = total("corpus.load")
    m["corpus.segment_s"] = total("corpus.segment")
    m["corpus.sentences"] = sum(len(x) for s in of("corpus.segment") for x in s["_docs"])
    m["corpus.tokens"] = sum(len(sent.tokens) for s in of("corpus.segment")
                             for x in s["_docs"] for sent in x)
    m["embeddings.load_s"] = total("embeddings.load")
    mb = sum(os.path.getsize(s["_args"][0]) for s in of("embeddings.load")) / 1e6
    m["embeddings.load_mb_per_s"] = mb / m["embeddings.load_s"] if mb else 0.0
    m["embeddings.vectors"] = sum(len(s["_result"]) for s in of("embeddings.load"))
    m["esa.kb_read_s"] = total("esa.kb_read")
    m["esa.build_s"] = total("esa.build")
    m["esa.load_s"] = total("esa.load")
    indexes = [s["_result"] for s in of("esa.build") + of("esa.load")]
    m["esa.concepts"] = sum(len(ix.concepts) for ix in indexes)
    m["esa.nnz"] = sum(_nnz(ix) for ix in indexes)
    m["entitylink.gazetteer_s"] = total("entitylink.gazetteer") + total("entitylink.aliases")
    m["entitylink.link_s"] = total("entitylink.link")
    m["entitylink.mentions"] = sum(len(x) for s in of("entitylink.link") for x in s["_docs"])
    pairs = undefined = 0
    for method in METHODS:
        t = total("coherence.score", method=method)
        scores = [x for s in of("coherence.score") if s["attrs"]["method"] == method
                  for x in s["_result"]]
        n_pairs = sum(x.pair_count for x in scores)
        pairs += n_pairs
        undefined += sum(1 for x in scores if not x.ok)
        m[f"coherence.{method}_s"] = t
        m[f"coherence.{method}_pairs_per_s"] = n_pairs / t if t else 0.0
    m["coherence.pairs"] = pairs
    m["coherence.undefined"] = undefined
    m["stats.compare_s"] = total("stats.compare")
    m["stats.hist_s"] = total("stats.hist")
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == root["id"]]
    m["cli.self_s"] = (root["end"] - root["start"]) - _covered(children)
    return m


def peak_rss_mb() -> float:
    """High-water resident set of this process since exec, from /proc/self/status.

    getrusage() would also count the memory of the parent this process was
    forked from, which exec records as this process's peak.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("plain", "trace"), required=True)
    ap.add_argument("--timing", required=True, help="JSON file for spans and metrics")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(SRC))
    from newscoherence import cli

    tracer = Tracer()
    found = install(tracer, TRACE_TARGETS if args.mode == "trace" else SETUP_TARGETS)
    rc = tracer.call("cli.report", cli.main, (argv,), {})
    root = tracer.spans[0]
    out = {"rc": rc, "mode": args.mode, "wrapped": found, "peak_rss_mb": peak_rss_mb(),
           "setup_s": setup_seconds(tracer.spans)}
    if args.mode == "trace" and rc == 0:
        out["metrics"] = layer_metrics(tracer.spans, root)
    out["spans"] = [{k: v for k, v in s.items() if not k.startswith("_")}
                    for s in tracer.spans]
    Path(args.timing).write_text(json.dumps(out), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
