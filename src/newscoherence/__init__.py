"""Textual coherence of news articles: mean pairwise similarity of sentence or
entity vectors under word embeddings, explicit semantic analysis and entity
linking, with fake vs. legitimate group comparison."""

from .coherence import (
    CoherenceScore,
    coherence_entities,
    coherence_sentences,
    score_corpus,
    sentence_rep_embedding,
)
from .corpus import (
    Document,
    LabeledCorpus,
    Label,
    Sentence,
    corpus_stats,
    load_csv,
    load_jsonl,
    segment_corpus,
    split_sentences,
    tokenize,
)
from .embeddings import EmbeddingTable, cosine, load_vectors_text
from .entitylink import (
    EntityMention,
    Gazetteer,
    build_gazetteer,
    entity_set,
    extract_entities,
    link_corpus,
)
from .esa import EsaIndex, build_esa_index, cosine_sparse, esa_word_vector
from .stats import (
    ComparisonSummary,
    Histogram,
    build_histogram,
    compare,
    mean_sd,
    percent_difference,
    welch_t_test,
)

__version__ = "0.1.0"
