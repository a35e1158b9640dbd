"""End-to-end walkthrough on a tiny in-memory dataset.

Builds a handful of labeled articles, scores them with all three coherence
methods, and prints the fake-vs-legitimate comparison. Run with:

    python3 demos/toy_pipeline.py
"""

import numpy as np

from newscoherence import (
    Document,
    EmbeddingTable,
    Label,
    LabeledCorpus,
    build_esa_index,
    build_gazetteer,
    compare,
    link_corpus,
    score_corpus,
    segment_corpus,
)

# A miniature word-vector table. Politics words point one way, cooking words
# another, so topic-mixing drags pairwise sentence similarity down.
WORDS = {
    "policy": [1.0, 0.2, 0.0],
    "vote": [0.9, 0.3, 0.1],
    "budget": [0.8, 0.1, 0.2],
    "recipe": [0.0, 1.0, 0.1],
    "garlic": [0.1, 0.9, 0.0],
    "simmer": [0.0, 0.8, 0.2],
}

ENTITIES = {
    "Parliament": [1.0, 0.1, 0.0],
    "Treasury": [0.9, 0.2, 0.1],
    "Kitchen_Stadium": [0.0, 1.0, 0.2],
}

ARTICLES = [
    ("f1", Label.FAKE,
     "Parliament policy vote today. Kitchen Stadium recipe garlic simmer. Treasury budget vote."),
    ("f2", Label.FAKE,
     "Kitchen Stadium garlic recipe. Parliament budget policy vote. Simmer garlic recipe now."),
    ("l1", Label.LEGITIMATE,
     "Parliament policy vote today. Treasury budget vote done. Parliament budget policy next."),
    ("l2", Label.LEGITIMATE,
     "Treasury budget policy. Parliament vote budget. Treasury policy vote."),
]

KB = [
    ("Politics", "policy vote budget policy vote"),
    ("Cooking", "recipe garlic simmer recipe"),
]


def table(vectors):
    dim = len(next(iter(vectors.values())))
    entries = {t: np.array(v, dtype=np.float64) for t, v in vectors.items()}
    return EmbeddingTable(dim=dim, entries=entries)


def main():
    corpus = LabeledCorpus(
        documents=[Document(id=i, label=lab, text=text) for i, lab, text in ARTICLES]
    )
    segment_corpus(corpus)

    word_table = table(WORDS)
    entity_table = table(ENTITIES)
    link_corpus(corpus, build_gazetteer(entity_table))  # the entity method scores linked documents
    esa_index = build_esa_index(KB, weighting="tfidf")

    for method, kwargs in (
        ("embedding", {"embedding_table": word_table}),
        ("esa", {"esa_index": esa_index}),
        ("entity", {"entity_table": entity_table}),
    ):
        scores = score_corpus(corpus, method, **kwargs)
        print(f"\n== {method} ==")
        for s in scores:
            shown = f"{s.value:.6f}" if s.ok else "undefined"
            print(f"  {s.doc_id}: {shown}  ({s.element_count} elements, "
                  f"{s.pair_count} pairs)")
        fake = [s for s in scores if s.doc_id.startswith("f")]
        legit = [s for s in scores if s.doc_id.startswith("l")]
        summary = compare(fake, legit)
        print(f"  fake mean {summary.fake.mean:.6f}  "
              f"legit mean {summary.legitimate.mean:.6f}  "
              f"difference {summary.percent_difference:+.2f}%  "
              f"p={summary.p_value:.4g}")


if __name__ == "__main__":
    main()
