"""Seeded, download-free inputs for the coherence benchmark.

Every workload is made from one integer seed: corpora (ISOT-style CSV or
JSONL), word2vec-text vector tables, an alias TSV, a knowledge-base JSONL or a
prebuilt `ESA1` index. The generator keeps its own ground truth (each
document's label, sentences, tokens and entity placements, the vectors as
written, and the knowledge base's tf-idf) so that outputs can be checked
without going through the program.

Topic model. Words are pseudo-words (consonant-vowel syllables ending in a
consonant), so none is a stopword or an abbreviation the segmenter guards.
Each word is either a topic word or a background word. A token is out of
every vocabulary with probability `p_oov`, a background word with
probability P_BACKGROUND, drawn from a Zipf curve over the background list
(exponent ZIPF_BACKGROUND), else a word of the sentence's topic, drawn from a
Zipf curve over that topic (ZIPF_TOPIC). A legitimate document keeps its main
topic in each sentence with probability P_MAIN_LEGIT; a fake one with
P_MAIN_FAKE and otherwise takes a random topic, and each entity mention is an
entity of its sentence's topic. So a fake document's sentences and entities
are less alike: that is how fake documents are made less coherent. Word and
entity vectors are a topic centroid plus Gaussian noise. A knowledge-base
concept is an article about one topic: a share `p_kb_topic` of its tokens are
that topic's words, the rest background words from the same Zipf curve, so
frequent background words reach many concepts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
FINALS = "klmnrst"

# Per-workload sizes; `scale` in generate() shrinks counts for the self-test.
WORKLOADS: dict[str, dict] = {
    "isot": dict(
        corpus_format="csv",
        methods="embedding,entity",
        workers=1,
        n_fake=100,
        n_legit=100,
        sentences=(12, 28),
        tokens=(14, 28),
        topics=16,
        topic_words=250,
        background_words=1500,
        table_only_words=7500,
        oov_words=200,
        p_oov=0.03,
        dim=300,
        entities_per_topic=60,
        entity_dim=100,
        alias_fraction=0.4,
        mentions_mean=5.0,
        kb_concepts=0,
        briefs=3,
    ),
    "esa-kb": dict(
        corpus_format="jsonl",
        methods="esa",
        workers=1,
        n_fake=15,
        n_legit=15,
        sentences=(12, 28),
        tokens=(14, 28),
        topics=16,
        topic_words=120,
        background_words=600,
        table_only_words=0,
        oov_words=100,
        p_oov=0.03,
        dim=0,
        entities_per_topic=0,
        entity_dim=0,
        alias_fraction=0.0,
        mentions_mean=0.0,
        kb_concepts=2000,
        kb_tokens=(50, 120),
        p_kb_topic=0.75,
        kb_format="jsonl",
        briefs=1,
    ),
    "long-parallel": dict(
        corpus_format="jsonl",
        methods="embedding,esa,entity",
        workers=2,
        n_fake=3,
        n_legit=3,
        sentences=(100, 106),
        tokens=(14, 28),
        topics=8,
        topic_words=150,
        background_words=600,
        table_only_words=300,
        oov_words=100,
        p_oov=0.03,
        dim=300,
        entities_per_topic=30,
        entity_dim=100,
        alias_fraction=0.4,
        mentions_mean=25.0,
        kb_concepts=500,
        kb_tokens=(50, 120),
        p_kb_topic=0.95,
        kb_format="esa1",
        briefs=0,
    ),
}

# Shared by every workload.
P_BACKGROUND = 0.4
ZIPF_BACKGROUND = 1.0
ZIPF_TOPIC = 0.9
P_MAIN_LEGIT = 0.85
P_MAIN_FAKE = 0.5
TOPIC_WEIGHT = 1.0  # centroid scale against unit-variance noise
BACKGROUND_WEIGHT = 0.3  # shared direction of background words


@dataclass
class Doc:
    id: str
    label: str  # "fake" | "legitimate"
    title: str
    sentences: list[list[str]]  # lowercase tokens, as the tokenizer must see them
    entities: list[str]  # entity id of each planted mention, in text order
    text: str = ""


@dataclass
class Table:
    """A vector table as written: token -> row of `matrix` (values exact)."""

    tokens: list[str]
    matrix: np.ndarray

    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}


@dataclass
class Inputs:
    workload: str
    seed: int
    params: dict
    docs: list[Doc]
    words: Table | None = None
    entities: Table | None = None
    # ESA ground truth: token -> {concept id: tf-idf weight}, every KB token present.
    esa_rows: dict[str, dict[int, float]] | None = None
    esa_concepts: list[str] = field(default_factory=list)
    esa_df: dict[str, int] = field(default_factory=dict)
    config_path: Path | None = None
    files: dict[str, Path] = field(default_factory=dict)


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


def _word_pool(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct pseudo-words of two or three syllables plus a final consonant."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        syllables = int(rng.integers(2, 4))
        w = "".join(
            CONSONANTS[int(rng.integers(len(CONSONANTS)))] + VOWELS[int(rng.integers(len(VOWELS)))]
            for _ in range(syllables)
        ) + FINALS[int(rng.integers(len(FINALS)))]
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _vectors(rng: np.random.Generator, centroids: np.ndarray, topic_of: np.ndarray,
             weight: np.ndarray) -> np.ndarray:
    """Centroid of each row's topic (scaled) plus noise, rounded to 6 decimals.

    Rounding here means the written text and the kept matrix are the same
    numbers, so the reference sees exactly what the program parses.
    """
    dim = centroids.shape[1]
    noise = rng.standard_normal((len(topic_of), dim))
    m = noise + weight[:, None] * centroids[topic_of]
    return np.round(m * 1e6) / 1e6


def _write_vectors(path: Path, table: Table) -> None:
    rows, dim = table.matrix.shape
    fmt = " ".join(["%.6f"] * dim)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{rows} {dim}\n")
        for token, row in zip(table.tokens, table.matrix):
            f.write(token + " " + fmt % tuple(row) + "\n")


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> Inputs:
    """Write every input file of `workload` under `out_dir` and return the ground truth."""
    p = dict(WORKLOADS[workload])
    if scale != 1.0:
        for key, floor in (("n_fake", 3), ("n_legit", 3), ("topic_words", 20),
                           ("background_words", 40), ("table_only_words", 0),
                           ("oov_words", 5), ("entities_per_topic", 4), ("kb_concepts", 20)):
            p[key] = _scaled(p[key], scale, floor if p[key] else 0)
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload=workload, seed=seed, params=p, docs=[])

    n_topics = p["topics"]
    n_topic_words = p["topic_words"] * n_topics
    n_entities = p["entities_per_topic"] * n_topics
    n_aliases = int(n_entities * p["alias_fraction"])
    pool = _word_pool(rng, n_topic_words + p["background_words"] + p["table_only_words"]
                      + p["oov_words"] + 2 * n_entities + n_aliases + 200)
    topic_words = [pool[t * p["topic_words"]:(t + 1) * p["topic_words"]] for t in range(n_topics)]
    at = n_topic_words
    background = pool[at:at + p["background_words"]]
    at += p["background_words"]
    table_only = pool[at:at + p["table_only_words"]]
    at += p["table_only_words"]
    oov = pool[at:at + p["oov_words"]]
    at += p["oov_words"]
    name_tokens = pool[at:at + 2 * n_entities]
    at += 2 * n_entities
    alias_tokens = pool[at:at + n_aliases]
    at += n_aliases
    title_words = pool[at:]

    # Entities: two capitalised name tokens each; some also have a one-token alias.
    entity_ids = [f"{name_tokens[2 * i].capitalize()}_{name_tokens[2 * i + 1].capitalize()}"
                  for i in range(n_entities)]
    entity_topic = [i // p["entities_per_topic"] for i in range(n_entities)]
    alias_of = {alias_tokens[j].capitalize(): entity_ids[j * n_entities // n_aliases]
                for j in range(n_aliases)}
    surfaces_of: dict[str, list[str]] = {e: [e.replace("_", " ")] for e in entity_ids}
    for surface, e in alias_of.items():
        surfaces_of[e].append(surface)

    bg_cdf = _zipf_cdf(len(background), ZIPF_BACKGROUND)
    topic_cdf = _zipf_cdf(p["topic_words"], ZIPF_TOPIC)

    def sentence_tokens(topic: int, length: int) -> list[str]:
        kinds = rng.random(length)
        bg = _draw(rng, bg_cdf, length)
        tw = _draw(rng, topic_cdf, length)
        out = []
        for k, b, t in zip(kinds, bg, tw):
            if k < p["p_oov"]:
                out.append(oov[int(rng.integers(len(oov)))])
            elif k < p["p_oov"] + P_BACKGROUND:
                out.append(background[int(b)])
            else:
                out.append(topic_words[topic][int(t)])
        return out

    # Documents. Sentence counts are spread evenly over the range and shuffled, so the
    # amount of work (sentences, pairs) is the same for every seed.
    labelled = []
    lo, hi = p["sentences"]
    for label, n in (("fake", p["n_fake"]), ("legitimate", p["n_legit"])):
        briefs = min(p["briefs"], n - 2)
        counts = [1] * briefs + [int(c) for c in np.linspace(lo, hi, n - briefs).round()]
        rng.shuffle(counts)
        labelled += [(label, i, k) for i, k in enumerate(counts)]
    for label, i, k in labelled:
        main = int(rng.integers(n_topics))
        p_main = P_MAIN_LEGIT if label == "legitimate" else P_MAIN_FAKE
        topics = [main if rng.random() < p_main else int(rng.integers(n_topics))
                  for _ in range(k)]
        words = [sentence_tokens(t, int(rng.integers(p["tokens"][0], p["tokens"][1] + 1)))
                 for t in topics]
        # Entity mentions: placed inside sentences, entity of the sentence's topic.
        placed: dict[int, list[tuple[int, str, str]]] = {}
        n_mentions = int(rng.poisson(p["mentions_mean"])) if n_entities else 0
        for _ in range(n_mentions):
            s = int(rng.integers(k))
            t = topics[s]
            e = entity_ids[t * p["entities_per_topic"] + int(rng.integers(p["entities_per_topic"]))]
            forms = surfaces_of[e]
            surface = forms[int(rng.integers(len(forms)))]
            pos = int(rng.integers(1, len(words[s]) + 1))
            placed.setdefault(s, []).append((pos, surface, e))
        sentences, entities, texts = [], [], []
        for s, ws in enumerate(words):
            items: list[tuple[str, str | None]] = [(w, None) for w in ws]
            # Insert from the right so earlier positions stay valid. At most one
            # mention per gap, so an ordinary word always separates two mentions
            # and the linker's longest match cannot join them.
            taken: set[int] = set()
            for pos, surface, e in sorted(placed.get(s, []), reverse=True):
                if pos in taken:
                    continue
                taken.add(pos)
                items.insert(pos, (surface, e))
            toks: list[str] = []
            shown: list[str] = []
            for j, (w, e) in enumerate(items):
                if e is not None:
                    entities.append(e)
                    toks.extend(w.lower().split())
                    shown.append(w)
                else:
                    toks.append(w)
                    shown.append(w.capitalize() if j == 0 else w)
            sentences.append(toks)
            texts.append(" ".join(shown) + ".")
        prefix = "f" if label == "fake" else "l"
        title = " ".join(w.capitalize() for w in
                         (title_words[int(j)] for j in rng.integers(len(title_words), size=8)))
        inputs.docs.append(Doc(id=f"{prefix}{i:05d}", label=label, title=title,
                               sentences=sentences, entities=entities, text=" ".join(texts)))

    # Vector tables.
    if p["dim"]:
        centroids = rng.standard_normal((n_topics + 1, p["dim"]))
        vocab = [w for ws in topic_words for w in ws] + background + table_only
        topic_of = np.array([t for t in range(n_topics) for _ in range(p["topic_words"])]
                            + [n_topics] * (len(background) + len(table_only)))
        weight = np.where(topic_of < n_topics, TOPIC_WEIGHT, BACKGROUND_WEIGHT)
        order = rng.permutation(len(vocab))  # tables are not sorted by topic
        m = _vectors(rng, centroids, topic_of, weight)
        inputs.words = Table([vocab[i] for i in order], m[order])
    if n_entities:
        centroids = rng.standard_normal((n_topics, p["entity_dim"]))
        m = _vectors(rng, centroids, np.array(entity_topic),
                     np.full(n_entities, TOPIC_WEIGHT))
        inputs.entities = Table(entity_ids, m)

    # Knowledge base for ESA: concept articles, ground-truth tf-idf rows.
    kb_texts: list[tuple[str, list[str]]] = []
    if p["kb_concepts"]:
        concept_titles = _word_pool(rng, p["kb_concepts"])
        for c in range(p["kb_concepts"]):
            t = int(rng.integers(n_topics))
            n = int(rng.integers(p["kb_tokens"][0], p["kb_tokens"][1] + 1))
            kinds = rng.random(n)
            bg = _draw(rng, bg_cdf, n)
            tw = _draw(rng, topic_cdf, n)
            toks = [topic_words[t][int(b2)] if k2 < p["p_kb_topic"] else background[int(b1)]
                    for k2, b1, b2 in zip(kinds, bg, tw)]
            kb_texts.append((f"{concept_titles[c].capitalize()} {c}", toks))
        inputs.esa_concepts = [title for title, _ in kb_texts]
        inputs.esa_rows, inputs.esa_df = tfidf_rows([toks for _, toks in kb_texts])

    _write_files(inputs, out_dir, kb_texts, alias_of)
    return inputs


def tfidf_rows(concept_tokens: list[list[str]]) -> tuple[dict, dict[str, int]]:
    """token -> {concept: tf * ln(N / df)} with weights <= 0 dropped, and df.

    Every token of the knowledge base keeps a row, even an empty one.
    """
    n = len(concept_tokens)
    tfs = []
    df: dict[str, int] = {}
    for toks in concept_tokens:
        counts: dict[str, int] = {}
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
        tfs.append(counts)
        for t in counts:
            df[t] = df.get(t, 0) + 1
    rows: dict[str, dict[int, float]] = {t: {} for t in df}
    for cid, counts in enumerate(tfs):
        for t, tf in counts.items():
            w = tf * math.log(n / df[t])
            if w > 0.0:
                rows[t][cid] = w
    return rows, df


def _write_files(inputs: Inputs, out: Path, kb_texts, alias_of: dict[str, str]) -> None:
    p = inputs.params
    files = inputs.files
    fake = [d for d in inputs.docs if d.label == "fake"]
    legit = [d for d in inputs.docs if d.label == "legitimate"]
    if p["corpus_format"] == "csv":
        # ISOT layout: Fake.csv / True.csv with title,text,subject,date; the
        # loader names rows <filestem>-<row>, so ids are rewritten to match.
        for name, docs in (("Fake.csv", fake), ("True.csv", legit)):
            path = out / name
            with open(path, "w", newline="", encoding="utf-8") as f:
                w = csv.writer(f)
                w.writerow(["title", "text", "subject", "date"])
                for row, d in enumerate(docs, start=1):
                    d.id = f"{path.stem}-{row}"
                    w.writerow([d.title, d.text, "politicsNews", "December 31, 2017"])
            files["fake" if name == "Fake.csv" else "legit"] = path
    else:
        for key, docs in (("fake", fake), ("legit", legit)):
            path = out / f"{key}.jsonl"
            with open(path, "w", encoding="utf-8") as f:
                for d in docs:
                    f.write(json.dumps({"id": d.id, "label": d.label, "title": d.title,
                                        "text": d.text}) + "\n")
            files[key] = path
    if inputs.words is not None:
        files["words"] = out / "words.txt"
        _write_vectors(files["words"], inputs.words)
    if inputs.entities is not None:
        files["entities"] = out / "entities.txt"
        _write_vectors(files["entities"], inputs.entities)
        files["aliases"] = out / "aliases.tsv"
        with open(files["aliases"], "w", encoding="utf-8") as f:
            for surface, e in alias_of.items():
                f.write(f"{surface}\t{e}\n")
    if kb_texts and p["kb_format"] == "jsonl":
        files["kb"] = out / "kb.jsonl"
        with open(files["kb"], "w", encoding="utf-8") as f:
            for title, toks in kb_texts:
                # Sentences of 12 words, so the KB reads like article text.
                parts = [" ".join(toks[i:i + 12]) for i in range(0, len(toks), 12)]
                f.write(json.dumps({"title": title, "text": ". ".join(parts) + "."}) + "\n")
    elif kb_texts:
        files["esa_index"] = out / "index.esa"
        df = inputs.esa_df
        with open(files["esa_index"], "w", encoding="utf-8") as f:
            f.write(f"ESA1\t{len(kb_texts)}\ttfidf\n")
            for title in inputs.esa_concepts:
                f.write(f"C\t{title}\n")
            for t in sorted(inputs.esa_rows):
                cells = " ".join(f"{c}:{w!r}" for c, w in sorted(inputs.esa_rows[t].items()))
                f.write(f"T\t{t}\t{df[t]}\t{cells}\n")

    conf = {
        "fake_path": files["fake"],
        "legit_path": files["legit"],
        "fake_format": p["corpus_format"],
        "legit_format": p["corpus_format"],
        "methods": p["methods"],
        "workers": p["workers"],
        "embeddings_path": files.get("words", ""),
        "entity_vectors_path": files.get("entities", ""),
        "alias_path": files.get("aliases", ""),
        "esa_kb_path": files.get("kb", ""),
        "esa_index_path": files.get("esa_index", ""),
    }
    inputs.config_path = out / "run.conf"
    with open(inputs.config_path, "w", encoding="utf-8") as f:
        for key, value in conf.items():
            if value != "":
                f.write(f"{key} = {value}\n")


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description="Write one workload's inputs to a directory.")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the input files")
    args = ap.parse_args()
    made = generate(args.workload, args.seed, Path(args.out))
    for role, path in sorted(made.files.items()):
        print(f"{role:10s} {path}")
    print(f"{'config':10s} {made.config_path}")
