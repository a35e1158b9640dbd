"""Generate a synthetic corpus on disk and run the full CLI report over it.

Shows the file formats the command line expects (JSONL corpora, word2vec-style
text vectors, JSONL knowledge base). The inputs live in a temporary directory
that is removed afterwards; the report's outputs stay under demo_out/ for
inspection. Run with:

    python3 demos/histogram_report.py
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from newscoherence.cli import main as cli_main

rng = np.random.default_rng(42)

TOPICS = ("Economy", "Health", "Sport")
WORDS_PER_TOPIC = 20


def topic_words(t):
    return [f"{TOPICS[t].lower()}{i}" for i in range(WORDS_PER_TOPIC)]


def sentence(t, entity=None):
    words = list(rng.choice(topic_words(t), size=5))
    head = entity.replace("_", " ") if entity else words[0].capitalize()
    return f"{head} {' '.join(words)}."


def write_inputs(root: Path):
    word_vecs, entity_vecs = {}, {}
    for t, name in enumerate(TOPICS):
        base = np.eye(6)[t]
        for w in topic_words(t):
            word_vecs[w] = base + 0.3 * rng.normal(size=6)
        for i in range(3):
            entity_vecs[f"{name}_Org{i}"] = np.eye(6)[t + 3] + 0.2 * rng.normal(size=6)

    def dump_vectors(path, vecs):
        with open(path, "w") as f:
            f.write(f"{len(vecs)} 6\n")
            for token, v in vecs.items():
                f.write(token + " " + " ".join(f"{x:.6f}" for x in v) + "\n")

    dump_vectors(root / "words.txt", word_vecs)
    dump_vectors(root / "entities.txt", entity_vecs)

    with open(root / "kb.jsonl", "w") as f:
        for t, name in enumerate(TOPICS):
            f.write(json.dumps({"title": name, "text": " ".join(topic_words(t))}) + "\n")

    with open(root / "fake.jsonl", "w") as ff, open(root / "legit.jsonl", "w") as lf:
        for d in range(60):
            t = int(rng.integers(0, 3))
            ents = [f"{TOPICS[t]}_Org{i}" for i in range(3)]
            text = " ".join(sentence(t, ents[s % 3]) for s in range(5))
            lf.write(json.dumps({"id": f"l{d}", "label": "legitimate", "text": text}) + "\n")
        for d in range(60):
            ts = rng.choice(3, size=2, replace=False)
            text = " ".join(
                sentence(int(ts[s % 2]), f"{TOPICS[int(ts[s % 2])]}_Org{s % 3}")
                for s in range(5)
            )
            ff.write(json.dumps({"id": f"f{d}", "label": "fake", "text": text}) + "\n")


def main():
    out_dir = Path("demo_out")
    with tempfile.TemporaryDirectory(prefix="newscoherence-demo-") as tmp:
        root = Path(tmp)
        write_inputs(root)
        rc = cli_main([
            "report",
            "--fake-path", str(root / "fake.jsonl"),
            "--legit-path", str(root / "legit.jsonl"),
            "--embeddings-path", str(root / "words.txt"),
            "--entity-vectors-path", str(root / "entities.txt"),
            "--esa-kb-path", str(root / "kb.jsonl"),
            "--methods", "embedding,esa,entity",
            "--hist-buckets", "12",
            "--out-dir", str(out_dir),
        ])
    if rc == 0:
        print("\nSummary table:\n")
        print((out_dir / "summary.md").read_text())
    return rc


if __name__ == "__main__":
    sys.exit(main())
