"""Command-line entry point: stats, score, compare, hist, build-esa-index, report."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import coherence as coh
from . import corpus as corpus_mod
from . import entitylink, esa, stats
from .corpus import CorpusError, LabeledCorpus, Label
from .embeddings import EmbeddingError, load_vectors_text, text_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3
# A histogram's edges and percentages are held in memory, one per bucket.
MAX_HIST_BUCKETS = 100_000


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


# Field kinds: one of a fixed set of values; a path an environment variable overrides.
def _choice(default: str, *others: str):
    return field(default=default, metadata={"choices": (default, *others)})


def _env_path(var: str):
    return field(default="", metadata={"env": var})


@dataclass
class RunConfig:
    fake_path: str = ""
    fake_format: str = _choice("jsonl", "csv")
    legit_path: str = ""
    legit_format: str = _choice("jsonl", "csv")
    csv_text_column: str = "text"
    csv_title_column: str = "title"
    methods: str = "embedding"
    embeddings_path: str = _env_path("NEWSCOHERENCE_EMBEDDINGS")
    esa_kb_path: str = _env_path("NEWSCOHERENCE_ESA_KB")
    esa_index_path: str = _env_path("NEWSCOHERENCE_ESA_INDEX")
    entity_vectors_path: str = _env_path("NEWSCOHERENCE_ENTITY_VECTORS")
    alias_path: str = _env_path("NEWSCOHERENCE_ALIASES")
    out_dir: str = "out"
    include_title: bool = False
    sd_convention: str = _choice("population", "sample")
    esa_weighting: str = _choice("tfidf", "tf")
    esa_min_weight: float = 0.0
    esa_stopwords: bool = True
    entity_multiset: bool = False
    unique_tokens: bool = False
    t_test: str = _choice("welch", "pooled")
    hist_lower: float = 0.0
    hist_upper: float = 1.0
    hist_buckets: int = 20
    seed: int = 0
    # Read by nothing; kept because bench configs and tests set it, and unknown fields exit 1.
    workers: int = 1

    def method_list(self) -> list[str]:
        return [m.strip() for m in self.methods.split(",") if m.strip()]


_FIELDS = {f.name: f for f in fields(RunConfig)}
# Every spelling a boolean field accepts; the CLI flags offer the words.
_BOOLS = {"true": True, "false": False, "on": True, "off": False, "yes": True, "no": False,
          "1": True, "0": False}


def _coerce(name: str, raw: str):
    kind = _FIELDS[name].type
    if "\0" in raw:  # only a config file can hold one; no path can
        raise ConfigError(f"field {name!r}: holds a NUL character")
    try:
        if kind == "bool":
            return _BOOLS[raw.lower()]
        return {"int": int, "float": float}.get(kind, str)(raw)
    except KeyError:
        raise ConfigError(f"field {name!r}: expected a boolean, got {raw!r}") from None
    except ValueError as e:
        raise ConfigError(f"field {name!r}: {e}") from e


def load_config(path: str | Path | None) -> RunConfig:
    """Read a flat `key = value` config file; unknown keys are an error."""
    config = RunConfig()
    if path is None:
        return config
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"field 'config': file not found: {p}")
    with open(p, "rb") as f:
        for lineno, line in text_lines(f, p, ConfigError):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{p} line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{p} line {lineno}: unknown field {key!r}")
            setattr(config, key, _coerce(key, value))
    return config


def apply_env(config: RunConfig) -> None:
    for f in _FIELDS.values():
        value = "env" in f.metadata and os.environ.get(f.metadata["env"])
        if value:
            setattr(config, f.name, value)


def validate(config: RunConfig, need_corpora: bool, need_methods: bool) -> None:
    """Reject every invalid config with a message naming the field, before any I/O."""
    methods = config.method_list()
    for i, m in enumerate(methods):
        if m not in coh.METHODS:
            raise ConfigError(f"field 'methods': unknown method {m!r}")
        if m in methods[:i]:
            raise ConfigError(f"field 'methods': method {m!r} listed twice")
    if need_methods and not methods:
        raise ConfigError("field 'methods': at least one method required")
    for f in _FIELDS.values():
        value = getattr(config, f.name)
        if "choices" in f.metadata and value not in f.metadata["choices"]:
            raise ConfigError(f"field {f.name!r}: {value!r}")
    if not (config.hist_lower < config.hist_upper):
        raise ConfigError("field 'hist_lower': must be < hist_upper")
    if not math.isfinite(config.hist_upper - config.hist_lower):
        raise ConfigError("field 'hist_upper': the histogram range must be finite")
    if not math.isfinite(config.esa_min_weight):
        raise ConfigError("field 'esa_min_weight': must be finite")
    if not 1 <= config.hist_buckets <= MAX_HIST_BUCKETS:
        raise ConfigError(f"field 'hist_buckets': must be in 1..{MAX_HIST_BUCKETS}")
    if (config.hist_upper - config.hist_lower) / config.hist_buckets == 0.0:
        raise ConfigError("field 'hist_buckets': the bucket width underflows to 0")
    if config.workers < 1:
        raise ConfigError("field 'workers': must be >= 1")
    used = methods if need_methods else []
    required = [  # (needed, field, what for)
        (need_corpora, "fake_path", "required"),
        (need_corpora, "legit_path", "required"),
        ("embedding" in used, "embeddings_path", "required for method 'embedding'"),
        ("esa" in used, "esa_index_path", "an index or KB is required for 'esa'"),
        ("entity" in used, "entity_vectors_path", "required for method 'entity'"),
    ]
    for needed, name, why in required:
        value = getattr(config, name) or name == "esa_index_path" and config.esa_kb_path
        if needed and not value:
            raise ConfigError(f"field {name!r}: {why}")


def resolved_config_lines(config: RunConfig) -> list[str]:
    # workers is excluded: it changes nothing.
    return [f"{f.name} = {getattr(config, f.name)}"
            for f in sorted(_FIELDS.values(), key=lambda f: f.name) if f.name != "workers"]


def _load_corpus(config: RunConfig, label: str, vocab: corpus_mod.Vocabulary) -> LabeledCorpus:
    path = config.fake_path if label == Label.FAKE else config.legit_path
    fmt = config.fake_format if label == Label.FAKE else config.legit_format
    if fmt == "csv":
        title_col = config.csv_title_column or None
        c = corpus_mod.load_csv(path, label, config.csv_text_column, title_col)
    else:
        c = corpus_mod.load_jsonl(path)
    for d in c.documents:
        if d.label != label:
            raise CorpusError(f"{path}: document {d.id!r} is labelled {d.label!r}, "
                              f"but this is the {label} file")
    corpus_mod.segment_corpus(c, include_title=config.include_title, vocab=vocab)
    return c


def _load_kb(path: str | Path) -> list[tuple[str, str]]:
    """KB input: a directory of .txt files (filename = concept title) or a JSONL file."""
    p = Path(path)
    if p.is_dir():
        docs = []
        for child in sorted(p.glob("*.txt")):
            try:
                docs.append((child.stem, child.read_text(encoding="utf-8")))
            except UnicodeDecodeError as e:
                raise corpus_mod._utf8_error(child, e) from e
        if not docs:
            raise CorpusError(f"{p}: no .txt knowledge-base articles found")
        return docs
    if p.is_file():
        return [tuple(values) for _, values in corpus_mod.jsonl_records(p, ("title", "text"))]
    raise CorpusError(f"knowledge base not found: {p}")


def _esa_index(config: RunConfig) -> esa.EsaIndex:
    """Load the configured index file, else build one from the knowledge base."""
    if config.esa_index_path and Path(config.esa_index_path).is_file():
        return esa.load_index(config.esa_index_path)
    if not config.esa_kb_path:
        raise esa.EsaError(f"ESA index not found: {config.esa_index_path}")
    stop = esa.DEFAULT_STOPWORDS if config.esa_stopwords else None
    return esa.build_esa_index(
        _load_kb(config.esa_kb_path),
        weighting=config.esa_weighting,
        stopwords=stop,
        min_weight=config.esa_min_weight,
    )


Corpora = dict[str, LabeledCorpus]
PerMethod = dict[str, tuple[list[coh.CoherenceScore], dict[str, str]]]


def run(config: RunConfig, score: bool, both_labels: bool = False) -> tuple[Corpora, PerMethod]:
    """The pipeline behind every data command: validate, load and segment both
    corpora, load resources, link, and with `score` score every method, each once.

    The corpora come first, so a corpus fault is reported before a resource
    fault, and the word table holds only the rows the corpora's tokens can look
    up: both are encoded through one vocabulary, which is the table's `keep`.
    With `both_labels`, a corpus with no documents is such a fault. Linking
    runs for the entity method when scoring, else whenever an entity table is
    configured. Returns the corpora by label and, per method, the scores sorted
    by doc id with a doc id -> label map read from the documents.
    """
    validate(config, need_corpora=True, need_methods=score)
    methods = config.method_list() if score else []
    link = "entity" in methods if score else bool(config.entity_vectors_path)

    vocab = corpus_mod.Vocabulary()
    corpora = {lab: _load_corpus(config, lab, vocab) for lab in (Label.FAKE, Label.LEGITIMATE)}
    labels: dict[str, str] = {}
    for c in corpora.values():
        for d in c.documents:
            if d.id in labels:
                raise CorpusError(f"{c.source}: document id {d.id!r} is also in "
                                  f"{corpora[Label.FAKE].source}")
            labels[d.id] = d.label
        if both_labels and not c.documents:
            raise CorpusError(f"{c.source}: empty corpus")
    embedding_table = None
    if "embedding" in methods:
        embedding_table = load_vectors_text(config.embeddings_path, keep=vocab)
    esa_index = _esa_index(config) if "esa" in methods else None
    entity_table = load_vectors_text(config.entity_vectors_path) if link else None
    both = LabeledCorpus(documents=[d for c in corpora.values() for d in c.documents])
    if link:
        gazetteer = entitylink.build_gazetteer(entity_table)
        if config.alias_path:
            entitylink.load_aliases(config.alias_path, entity_table, gazetteer)
        entitylink.link_corpus(both, gazetteer)

    per_method: PerMethod = {}
    for method in methods:
        scores = coh.score_corpus(
            both,
            method,
            embedding_table=embedding_table,
            esa_index=esa_index,
            entity_table=entity_table,
            unique_tokens=config.unique_tokens,
            entity_multiset=config.entity_multiset,
        )
        per_method[method] = (scores, labels)
    return corpora, per_method


def _write(config: RunConfig, files: dict[str, str]) -> dict[str, str]:
    """The one writer of output files: each text to out_dir/<name>; returns `files`."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="")
    return files


# An output part takes the run's corpora and per-method scores and returns what
# its command prints and its files by name, which the caller writes.
def _stats(config: RunConfig, corpora: Corpora, per_method: PerMethod,
           mark: str = "#") -> tuple[str, dict]:
    """Dataset statistics (Table 1); `mark` prefixes two markdown headers."""
    csv_lines = ["label,articles,sentences_mean,sentences_sd,entities_mean,entities_sd"]
    md_lines = [f"| Category | #Articles | {mark}Sentences/Article Mean (SD) "
                f"| {mark}Entities/Article Mean (SD) |", "|---|---|---|---|"]
    sample = config.sd_convention == "sample"
    for c in corpora.values():
        for label, e in corpus_mod.corpus_stats(c, sample_sd=sample).items():
            # One formatting for both tables; entity cells read "-" for an unlinked corpus.
            row = [label, str(e["article_count"])] + [
                "-" if e[k] is None else f"{e[k]:.2f}"
                for k in ("sentences_mean", "sentences_sd", "entities_mean", "entities_sd")]
            csv_lines.append(",".join(row))
            md_lines.append("| {} | {} | {} ({}) | {} ({}) |".format(*row))
    md_text = "\n".join(md_lines) + "\n"
    return md_text, {"dataset_stats.csv": "\n".join(csv_lines) + "\n", "dataset_stats.md": md_text}


def _scores(config: RunConfig, corpora: Corpora, per_method: PerMethod) -> tuple[str, dict]:
    printed, files = [], {}
    for method, (scores, labels) in per_method.items():
        name = f"scores_{method}.csv"
        files[name] = coh.scores_csv(scores, labels)
        undefined = sum(1 for s in scores if not s.ok)
        printed.append(f"{method}: {len(scores)} documents scored, {undefined} undefined "
                       f"-> {Path(config.out_dir) / name}\n")
    return "".join(printed), files


def _summary(config: RunConfig, corpora: Corpora,
             per_method: PerMethod) -> tuple[str, dict]:
    """Compare fake with legitimate per method: summary.csv and summary.md."""
    csv_lines = ["method,fake_n,fake_mean,fake_sd,legit_n,legit_mean,legit_sd,"
                 "difference_pct,t,dof,p_value,log10_p,excluded_fake,excluded_legit"]
    md_lines = ["| Method | Fake Mean (SD) | Legitimate Mean (SD) | Difference in % | p-value |",
                "|---|---|---|---|---|"]
    for method, (scores, labels) in per_method.items():
        fake = [s for s in scores if labels.get(s.doc_id) == Label.FAKE]
        legit = [s for s in scores if labels.get(s.doc_id) == Label.LEGITIMATE]
        if not fake or not legit:
            raise stats.StatsError("comparison requires scores for both labels")
        s = stats.compare(fake, legit, sample_sd=config.sd_convention == "sample",
                          pooled=config.t_test == "pooled")
        d = s.percent_difference  # past 1e15 two decimals are below a float's resolution
        pct = f"{d:.6E}" if 1e15 <= abs(d) < math.inf else f"{d:.2f}"
        csv_lines.append(
            f"{method},{s.fake.n},{s.fake.mean:.6f},{s.fake.sd:.6f},"
            f"{s.legitimate.n},{s.legitimate.mean:.6f},{s.legitimate.sd:.6f},"
            f"{pct},{s.t_statistic:.6f},{s.degrees_of_freedom:.2f},"
            f"{s.p_value:.6E},{s.log10_p:.4f},{s.excluded_fake},{s.excluded_legitimate}"
        )
        md_lines.append(
            f"| {method} | {s.fake.mean:.6f} ({s.fake.sd:.6f}) "
            f"| {s.legitimate.mean:.6f} ({s.legitimate.sd:.6f}) "
            f"| {pct}% | {s.p_value:.6E} |"
        )
    md_text = "\n".join(md_lines) + "\n"
    return md_text, {"summary.csv": "\n".join(csv_lines) + "\n", "summary.md": md_text}


def _hists(config: RunConfig, corpora: Corpora, per_method: PerMethod) -> tuple[str, dict]:
    """Histogram TSV of the ok scores by label per method."""
    printed, files = [], {}
    for method, (scores, labels) in per_method.items():
        by_label = {lab: [s.value for s in scores if s.ok and labels.get(s.doc_id) == lab]
                    for lab in (Label.FAKE, Label.LEGITIMATE)}
        for lab, values in by_label.items():
            if not values:
                print(f"warning: no {lab} scores for method {method}, column omitted",
                      file=sys.stderr)
        hist = stats.build_histogram(by_label, config.hist_lower, config.hist_upper,
                                     config.hist_buckets)
        head = f"# range [{hist.lower}, {hist.upper}], {hist.bucket_count} buckets, edge clamping"
        lines = [head, "bucket_low\tbucket_high\tfake_pct\tlegit_pct"]
        columns = [hist.percentages.get(lab) for lab in by_label]
        for i in range(hist.bucket_count):
            pcts = [f"{col[i]:.4f}" if col else "" for col in columns]
            lines.append("\t".join([f"{hist.edges[i]:.6f}", f"{hist.edges[i + 1]:.6f}", *pcts]))
        name = f"hist_{method}.tsv"
        files[name] = "\n".join(lines) + "\n"
        printed.append(f"{method}: histogram -> {Path(config.out_dir) / name}\n")
    return "".join(printed), files


def _report(config: RunConfig, corpora: Corpora, per_method: PerMethod) -> tuple[str, dict]:
    """The score, summary and histogram parts, each written as soon as it is made,
    and report.md composed of their tables."""
    files: dict[str, str] = {}
    for part in (_scores, _summary, _hists):
        files |= _write(config, part(config, corpora, per_method)[1])
    report = ["# Coherence Report", "", "## Dataset statistics", "",
              _stats(config, corpora, per_method, mark="")[0].rstrip()]
    report += ["", "## Coherence comparison", "", files["summary.md"].rstrip(), ""]
    for method in per_method:
        tsv = files[f"hist_{method}.tsv"].rstrip()
        report += [f"## Histogram ({method})", "", "```", tsv, "```", ""]
    report += ["## Resolved configuration", "", "```", *resolved_config_lines(config), "```", ""]
    return f"report -> {Path(config.out_dir) / 'report.md'}\n", {"report.md": "\n".join(report)}


# name -> (help, output part); build-esa-index writes no part.
_COMMANDS = {
    "stats": ("dataset statistics (Table-1 style)", _stats),
    "score": ("per-document coherence score CSVs", _scores),
    "compare": ("fake vs legitimate summary (Table-2 style)", _summary),
    "hist": ("histogram TSVs", _hists),
    "build-esa-index": ("build and serialize the ESA index", None),
    "report": ("run everything and emit a combined markdown report", _report),
}


def _command(config: RunConfig, args: argparse.Namespace) -> str:
    """Run one command and return what it prints. A data command runs `run()` once,
    or reads the given score CSVs, and writes its part's files and resolved_config.txt."""
    if args.command == "build-esa-index":
        if not config.esa_kb_path:
            raise ConfigError("field 'esa_kb_path': required for build-esa-index")
        index = _esa_index(replace(config, esa_index_path=""))
        esa.save_index(index, args.out)
        return (f"ESA index: {index.doc_count} concepts, {len(index.tokens)} tokens "
                f"-> {args.out}\n")
    corpora, per_method, sources = {}, {}, {}
    for sf in getattr(args, "score_files", None) or []:
        scores, labels = coh.read_scores_csv(sf)
        if not scores:
            raise stats.StatsError(f"{sf}: no scores")
        method = scores[0].method
        if method in per_method:
            raise coh.CoherenceError(f"{sf}: method {method!r} is also in {sources[method]}")
        per_method[method], sources[method] = (scores, labels), sf
    if not per_method:
        corpora, per_method = run(config, score=args.command != "stats",
                                  both_labels=args.command in ("stats", "compare", "report"))
    printed, files = _COMMANDS[args.command][1](config, corpora, per_method)
    files["resolved_config.txt"] = "\n".join(resolved_config_lines(config)) + "\n"
    _write(config, files)
    return printed


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    # A boolean flag shows its words; `_coerce` checks every value, as for a config file.
    words = "{" + ",".join(word for word in _BOOLS if word.isalpha()) + "}"
    for f in _FIELDS.values():
        common.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                            metavar=words if f.type == "bool" else None)
    parser = argparse.ArgumentParser(
        prog="newscoherence",
        description="Textual coherence scoring and fake/legitimate comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        if name in ("compare", "hist"):
            command.add_argument("score_files", nargs="*", help="reuse existing score CSVs")
        elif name == "build-esa-index":
            command.add_argument("--out", required=True, help="index output path")
    return parser


def _joined(argv: list[str]) -> list[str]:
    """`argv` with each field flag, or a prefix of one as argparse takes it, and a
    number after it that `float()` reads as one `--name=value` argument: argparse
    takes "-1e-3", say, for a flag."""
    flags, joined = ["--" + name.replace("_", "-") for name in _FIELDS], []
    for arg in argv:
        if joined and len(joined[-1]) > 2 and any(f.startswith(joined[-1]) for f in flags):
            try:
                float(arg)
                joined[-1] += "=" + arg
                continue
            except ValueError:
                pass
        joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        config = load_config(args.config)
        apply_env(config)
        for name in _FIELDS:
            if getattr(args, name) is not None:
                setattr(config, name, _coerce(name, getattr(args, name)))
        validate(config, need_corpora=False, need_methods=False)
        print(_command(config, args), end="")
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, EmbeddingError, esa.EsaError, entitylink.EntityLinkError,
            coh.CoherenceError, stats.StatsError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # pragma: no cover
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
