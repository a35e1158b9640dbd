"""Expected outputs, computed from the generator's ground truth, and the checks.

Nothing here goes through the program: sentences, tokens and entity
placements come from the generator, the vectors and tf-idf weights are the
numbers it wrote. Two references are kept:

* `Expected` scores every document with NumPy/SciPy, through the identity
  mean pairwise cosine = (|S|^2 - K) / (K (K - 1)), S the sum of the K unit
  row vectors; it backs the per-row, summary and direction checks.
* `plain_score()` scores one document with the definition itself, a double
  loop over sentence pairs in plain Python; it is run on a seeded sample of
  documents per method and must agree with both the CSV and `Expected`.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy import stats as sps

from gen import Inputs

CSV_TOL = 5e-7 + 1e-9  # half a unit in the 6th decimal, plus float noise


def _unit_rows_coherence(rows: np.ndarray) -> float:
    u = rows / np.linalg.norm(rows, axis=1)[:, None]
    s = u.sum(axis=0)
    k = len(u)
    return (float(s @ s) - k) / (k * (k - 1))


def _entity_ids(doc) -> list[str]:
    return list(dict.fromkeys(doc.entities))


class Expected:
    """Per method: doc id -> (element count K, value or None when K < 2)."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.methods = inputs.params["methods"].split(",")
        if inputs.words is not None:
            self._words = inputs.words.index()
        if inputs.entities is not None:
            self._entities = inputs.entities.index()
        if inputs.esa_rows is not None:
            self._esa_vocab, self._esa_w = _esa_matrix(inputs)
        self.scores: dict[str, dict[str, tuple[int, float | None]]] = {}
        for m in self.methods:
            self.scores[m] = {d.id: getattr(self, f"_{m}")(d) for d in inputs.docs}

    def _embedding(self, doc):
        index = self._words
        m = self.inputs.words.matrix
        rows = []
        for toks in doc.sentences:
            hits = [index[t] for t in toks if t in index]
            if hits:
                v = m[hits].mean(axis=0)
                if np.any(v):
                    rows.append(v)
        return self._finish(rows)

    def _entity(self, doc):
        index = self._entities
        m = self.inputs.entities.matrix
        rows = [m[index[e]] for e in _entity_ids(doc) if np.any(m[index[e]])]
        return self._finish(rows)

    def _esa(self, doc):
        vocab, w = self._esa_vocab, self._esa_w
        data, ri, ci = [], [], []
        for r, toks in enumerate(doc.sentences):
            for t in toks:
                if t in vocab:
                    data.append(1.0)
                    ri.append(r)
                    ci.append(vocab[t])
        counts = sparse.csr_matrix((data, (ri, ci)), shape=(len(doc.sentences), len(vocab)))
        reps = (counts @ w).toarray()
        rows = [r for r in reps if r.any()]
        return self._finish(rows)

    @staticmethod
    def _finish(rows):
        if len(rows) < 2:
            return len(rows), None
        return len(rows), _unit_rows_coherence(np.array(rows))

    def values(self, method: str, label: str) -> list[float]:
        """Defined reference values of one label, in document order."""
        values = (self.scores[method][d.id][1] for d in self.inputs.docs if d.label == label)
        return [v for v in values if v is not None]


def _esa_matrix(inputs: Inputs):
    """token -> row, and the tokens x concepts tf-idf matrix."""
    vocab = {t: i for i, t in enumerate(inputs.esa_rows)}
    data, ri, ci = [], [], []
    for t, row in inputs.esa_rows.items():
        for c, w in row.items():
            data.append(w)
            ri.append(vocab[t])
            ci.append(c)
    shape = (len(vocab), len(inputs.esa_concepts))
    return vocab, sparse.csr_matrix((data, (ri, ci)), shape=shape)


# --- plain-Python reference: the definition, one document at a time -------------

def _dense_cos(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))


def _sparse_cos(u: dict, v: dict) -> float:
    dot = sum(w * v[c] for c, w in u.items() if c in v)
    return dot / (math.sqrt(sum(w * w for w in u.values())) *
                  math.sqrt(sum(w * w for w in v.values())))


def _mean_pairwise(reps, cos) -> tuple[int, float | None]:
    k = len(reps)
    if k < 2:
        return k, None
    sims = [cos(reps[i], reps[j]) for i in range(k) for j in range(i + 1, k)]
    return k, sum(sims) / len(sims)


def plain_score(inputs: Inputs, method: str, doc) -> tuple[int, float | None]:
    """Score one document from the ground truth with lists, dicts and loops only."""
    if method == "entity":
        table = dict(zip(inputs.entities.tokens, inputs.entities.matrix.tolist()))
        reps = [table[e] for e in _entity_ids(doc) if any(table[e])]
        return _mean_pairwise(reps, _dense_cos)
    if method == "embedding":
        table = dict(zip(inputs.words.tokens, inputs.words.matrix.tolist()))
        reps = []
        for toks in doc.sentences:
            vecs = [table[t] for t in toks if t in table]
            if vecs:
                mean = [sum(col) / len(vecs) for col in zip(*vecs)]
                if any(mean):
                    reps.append(mean)
        return _mean_pairwise(reps, _dense_cos)
    reps = []
    for toks in doc.sentences:
        acc: dict[int, float] = {}
        for t in toks:
            for c, w in inputs.esa_rows.get(t, {}).items():
                acc[c] = acc.get(c, 0.0) + w
        if acc:
            reps.append(acc)
    return _mean_pairwise(reps, _sparse_cos)


# --- checks on the program's output directory ----------------------------------

def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_outputs(inputs: Inputs, exp: Expected, out: Path, sample_seed: int,
                  sample_size: int) -> list[str]:
    """Every way the output directory disagrees with the reference, as messages."""
    problems: list[str] = []
    docs = {d.id: d for d in inputs.docs}
    rng = random.Random(sample_seed)
    for method in exp.methods:
        path = out / f"scores_{method}.csv"
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        rows = _read_csv(path)
        ids = [r["doc_id"] for r in rows]
        if sorted(ids) != sorted(docs) or len(set(ids)) != len(ids):
            problems.append(f"{path.name}: rows are not one per input document")
        lo = 0.0 if method == "esa" else -1.0
        for r in rows:
            d = docs.get(r["doc_id"])
            if d is None:
                continue
            where = f"{path.name} {r['doc_id']}"
            if r["label"] != d.label:
                problems.append(f"{where}: label {r['label']!r}, input says {d.label!r}")
            if r["method"] != method:
                problems.append(f"{where}: method {r['method']!r}")
            k, pairs = int(r["element_count"]), int(r["pair_count"])
            ok = r["status"] == "ok"
            if ok != (k >= 2) or (ok and pairs != k * (k - 1) // 2) or (not ok and r["value"]):
                problems.append(f"{where}: K={k} pairs={pairs} status={r['status']}")
                continue
            k_ref, v_ref = exp.scores[method][d.id]
            if k != k_ref:
                problems.append(f"{where}: K={k}, reference K={k_ref}")
                continue
            if ok:
                v = float(r["value"])
                if not lo <= v <= 1.0:
                    problems.append(f"{where}: value {v} outside [{lo}, 1]")
                if abs(v - v_ref) > CSV_TOL:
                    problems.append(f"{where}: value {v}, reference {v_ref:.9f}")
        by_id = {r["doc_id"]: r for r in rows}
        for doc_id in rng.sample(sorted(docs), min(sample_size, len(docs))):
            k, v = plain_score(inputs, method, docs[doc_id])
            k_ref, v_ref = exp.scores[method][doc_id]
            r = by_id.get(doc_id)
            if k != k_ref or (v is None) != (v_ref is None) or \
                    (v is not None and abs(v - v_ref) > 1e-9):
                problems.append(f"{method} {doc_id}: plain reference {v} != vectorised {v_ref}")
            elif r is not None and v is not None and abs(float(r["value"]) - v) > CSV_TOL:
                problems.append(f"{method} {doc_id}: CSV {r['value']}, plain reference {v:.9f}")
    problems += _check_summary(exp, out / "summary.csv")
    for method in exp.methods:
        problems += _check_hist(out / f"hist_{method}.tsv")
    if not (out / "report.md").is_file():
        problems.append("report.md: missing")
    return problems


def _check_summary(exp: Expected, path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    rows = {r["method"]: r for r in _read_csv(path)}
    problems = []
    for method in exp.methods:
        r = rows.get(method)
        if r is None:
            problems.append(f"{path.name}: no row for {method}")
            continue
        fake, legit = exp.values(method, "fake"), exp.values(method, "legitimate")
        t = sps.ttest_ind(fake, legit, equal_var=False)
        want = {
            "fake_n": (len(fake), 0), "legit_n": (len(legit), 0),
            "fake_mean": (statistics.fmean(fake), CSV_TOL),
            "fake_sd": (statistics.pstdev(fake), CSV_TOL),
            "legit_mean": (statistics.fmean(legit), CSV_TOL),
            "legit_sd": (statistics.pstdev(legit), CSV_TOL),
            "t": (float(t.statistic), CSV_TOL + 1e-9 * abs(t.statistic)),
            "dof": (float(t.df), 5e-3 + 1e-9 * t.df),
        }
        for key, (value, tol) in want.items():
            if abs(float(r[key]) - value) > tol:
                problems.append(f"{path.name} {method}: {key} {r[key]}, reference {value:.9g}")
        if not float(r["fake_mean"]) < float(r["legit_mean"]):
            problems.append(f"{path.name} {method}: fake mean is not below legitimate mean")
    return problems


def _check_hist(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    lines = [ln.split("\t") for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")][1:]
    problems = []
    for col, label in ((2, "fake"), (3, "legitimate")):
        total = sum(float(ln[col]) for ln in lines)
        if abs(total - 100.0) > 5e-5 * len(lines) + 1e-9:
            problems.append(f"{path.name}: {label} percentages sum to {total}")
    return problems
