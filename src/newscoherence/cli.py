"""Command-line entry point: stats, score, compare, hist, build-esa-index, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import coherence as coh
from . import corpus as corpus_mod
from . import entitylink, esa, stats
from .corpus import CorpusError, LabeledCorpus, Label
from .embeddings import EmbeddingError, load_vectors_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_ENV_PATHS = {
    "embeddings_path": "NEWSCOHERENCE_EMBEDDINGS",
    "esa_index_path": "NEWSCOHERENCE_ESA_INDEX",
    "esa_kb_path": "NEWSCOHERENCE_ESA_KB",
    "entity_vectors_path": "NEWSCOHERENCE_ENTITY_VECTORS",
    "alias_path": "NEWSCOHERENCE_ALIASES",
}


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


@dataclass
class RunConfig:
    fake_path: str = ""
    fake_format: str = "jsonl"
    legit_path: str = ""
    legit_format: str = "jsonl"
    csv_text_column: str = "text"
    csv_title_column: str = "title"
    methods: str = "embedding"
    embeddings_path: str = ""
    esa_kb_path: str = ""
    esa_index_path: str = ""
    entity_vectors_path: str = ""
    alias_path: str = ""
    out_dir: str = "out"
    include_title: bool = False
    sd_convention: str = "population"
    esa_weighting: str = "tfidf"
    esa_min_weight: float = 0.0
    esa_stopwords: bool = True
    entity_multiset: bool = False
    unique_tokens: bool = False
    t_test: str = "welch"
    hist_lower: float = 0.0
    hist_upper: float = 1.0
    hist_buckets: int = 20
    seed: int = 0
    workers: int = 1

    def method_list(self) -> list[str]:
        return [m.strip() for m in self.methods.split(",") if m.strip()]


_BOOL_FIELDS = {"include_title", "esa_stopwords", "entity_multiset", "unique_tokens"}


def _coerce(name: str, raw: str):
    kind = {f.name: f.type for f in fields(RunConfig)}[name]
    if name in _BOOL_FIELDS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"field {name!r}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as e:
        raise ConfigError(f"field {name!r}: {e}") from e
    return raw


def load_config(path: str | Path | None) -> RunConfig:
    """Read a flat `key = value` config file; unknown keys are an error."""
    config = RunConfig()
    if path is None:
        return config
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"field 'config': file not found: {p}")
    valid = {f.name for f in fields(RunConfig)}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{p} line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in valid:
            raise ConfigError(f"{p} line {lineno}: unknown field {key!r}")
        setattr(config, key, _coerce(key, value))
    return config


def apply_env(config: RunConfig) -> None:
    for name, var in _ENV_PATHS.items():
        value = os.environ.get(var)
        if value:
            setattr(config, name, value)


def validate(config: RunConfig, need_corpora: bool, need_methods: bool) -> None:
    """Reject every invalid config with a message naming the field, before any I/O."""
    methods = config.method_list()
    for m in methods:
        if m not in coh.METHODS:
            raise ConfigError(f"field 'methods': unknown method {m!r}")
    if need_methods and not methods:
        raise ConfigError("field 'methods': at least one method required")
    if config.sd_convention not in ("population", "sample"):
        raise ConfigError(f"field 'sd_convention': {config.sd_convention!r}")
    if config.t_test not in ("welch", "pooled"):
        raise ConfigError(f"field 't_test': {config.t_test!r}")
    if config.esa_weighting not in ("tf", "tfidf"):
        raise ConfigError(f"field 'esa_weighting': {config.esa_weighting!r}")
    for fmt_field in ("fake_format", "legit_format"):
        if getattr(config, fmt_field) not in ("csv", "jsonl"):
            raise ConfigError(f"field {fmt_field!r}: {getattr(config, fmt_field)!r}")
    if not (config.hist_lower < config.hist_upper):
        raise ConfigError("field 'hist_lower': must be < hist_upper")
    if config.hist_buckets < 1:
        raise ConfigError("field 'hist_buckets': must be >= 1")
    if config.workers < 1:
        raise ConfigError("field 'workers': must be >= 1")
    if need_corpora:
        if not config.fake_path:
            raise ConfigError("field 'fake_path': required")
        if not config.legit_path:
            raise ConfigError("field 'legit_path': required")
    if need_methods:
        if "embedding" in methods and not config.embeddings_path:
            raise ConfigError("field 'embeddings_path': required for method 'embedding'")
        if "esa" in methods and not (config.esa_index_path or config.esa_kb_path):
            raise ConfigError("field 'esa_index_path': an index or KB is required for 'esa'")
        if "entity" in methods and not config.entity_vectors_path:
            raise ConfigError("field 'entity_vectors_path': required for method 'entity'")


def resolved_config_lines(config: RunConfig) -> list[str]:
    # workers is excluded: output is identical for any worker count.
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        if f.name == "workers":
            continue
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return lines


def _load_corpus(config: RunConfig, label: str) -> LabeledCorpus:
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
    corpus_mod.segment_corpus(c, include_title=config.include_title)
    return c


def _load_kb(path: str | Path) -> list[tuple[str, str]]:
    """KB input: a directory of .txt files (filename = concept title) or a JSONL file."""
    p = Path(path)
    if p.is_dir():
        docs = []
        for child in sorted(p.glob("*.txt")):
            docs.append((child.stem, child.read_text(encoding="utf-8")))
        if not docs:
            raise CorpusError(f"{p}: no .txt knowledge-base articles found")
        return docs
    if p.is_file():
        docs = []
        with open(p, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    docs.append((obj["title"], obj["text"]))
                except (json.JSONDecodeError, KeyError) as e:
                    raise CorpusError(f"{p} line {lineno}: bad KB record: {e}") from e
        return docs
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


PerMethod = dict[str, tuple[list[coh.CoherenceScore], dict[str, str]]]


def run(config: RunConfig, score: bool) -> tuple[dict[str, LabeledCorpus], PerMethod]:
    """The pipeline behind every data command: validate, load resources, load
    and segment both corpora, link, and with `score` score every method, each once.

    Linking runs for the entity method when scoring, else whenever an entity
    table is configured. Returns the corpora by label and, per method, the
    scores sorted by doc id with a doc id -> label map read from the documents.
    """
    validate(config, need_corpora=True, need_methods=score)
    methods = config.method_list() if score else []
    link = "entity" in methods if score else bool(config.entity_vectors_path)
    embedding_table = load_vectors_text(config.embeddings_path) if "embedding" in methods else None
    esa_index = _esa_index(config) if "esa" in methods else None
    entity_table = load_vectors_text(config.entity_vectors_path) if link else None
    if link:
        gazetteer = entitylink.build_gazetteer(entity_table)
        if config.alias_path:
            entitylink.load_aliases(config.alias_path, entity_table, gazetteer)

    corpora = {lab: _load_corpus(config, lab) for lab in (Label.FAKE, Label.LEGITIMATE)}
    labels: dict[str, str] = {}
    for c in corpora.values():
        for d in c.documents:
            if d.id in labels:
                raise CorpusError(f"{c.source}: document id {d.id!r} is also in "
                                  f"{corpora[Label.FAKE].source}")
            labels[d.id] = d.label
        if link:
            entitylink.link_corpus(c, gazetteer)

    both = LabeledCorpus(documents=[d for c in corpora.values() for d in c.documents])
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
            workers=config.workers,
        )
        per_method[method] = (scores, labels)
    return corpora, per_method


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _stats_table(
    config: RunConfig, corpora: dict[str, LabeledCorpus], mark: str
) -> tuple[list[str], list[str]]:
    """Dataset statistics as CSV and markdown lines; `mark` prefixes two md headers."""
    csv_lines = ["label,articles,sentences_mean,sentences_sd,entities_mean,entities_sd"]
    md_lines = [
        f"| Category | #Articles | {mark}Sentences/Article Mean (SD) "
        f"| {mark}Entities/Article Mean (SD) |",
        "|---|---|---|---|",
    ]
    sample = config.sd_convention == "sample"
    for c in corpora.values():
        for label, e in corpus_mod.corpus_stats(c, sample_sd=sample).items():
            # Entity columns read "-" when the corpus was not linked.
            ent_mean, ent_sd = ("-" if e[k] is None else f"{e[k]:.2f}"
                                for k in ("entities_mean", "entities_sd"))
            csv_lines.append(
                f"{label},{e['article_count']},{e['sentences_mean']:.2f},"
                f"{e['sentences_sd']:.2f},{ent_mean},{ent_sd}"
            )
            md_lines.append(
                f"| {label} | {e['article_count']} | {e['sentences_mean']:.2f} "
                f"({e['sentences_sd']:.2f}) | {ent_mean} ({ent_sd}) |"
            )
    return csv_lines, md_lines


def cmd_stats(config: RunConfig) -> None:
    corpora, _ = run(config, score=False)
    out_dir = Path(config.out_dir)
    csv_lines, md_lines = _stats_table(config, corpora, mark="#")
    _write(out_dir, "dataset_stats.csv", "\n".join(csv_lines) + "\n")
    _write(out_dir, "dataset_stats.md", "\n".join(md_lines) + "\n")
    print("\n".join(md_lines))


def cmd_score(config: RunConfig) -> None:
    _, per_method = run(config, score=True)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for method, (scores, labels) in per_method.items():
        path = out_dir / f"scores_{method}.csv"
        coh.write_scores_csv(scores, labels, path)
        undefined = sum(1 for s in scores if not s.ok)
        print(f"{method}: {len(scores)} documents scored, {undefined} undefined -> {path}")


def _write_summary(config: RunConfig, per_method: PerMethod) -> str:
    """Compare fake with legitimate per method; write summary.csv/.md, return the md."""
    csv_lines = [
        "method,fake_n,fake_mean,fake_sd,legit_n,legit_mean,legit_sd,"
        "difference_pct,t,dof,p_value,log10_p,excluded_fake,excluded_legit"
    ]
    md_lines = [
        "| Method | Fake Mean (SD) | Legitimate Mean (SD) | Difference in % | p-value |",
        "|---|---|---|---|---|",
    ]
    for method, (scores, labels) in per_method.items():
        fake = [s for s in scores if labels.get(s.doc_id) == Label.FAKE]
        legit = [s for s in scores if labels.get(s.doc_id) == Label.LEGITIMATE]
        if not fake or not legit:
            raise stats.StatsError("comparison requires scores for both labels")
        s = stats.compare(fake, legit, sample_sd=config.sd_convention == "sample",
                          pooled=config.t_test == "pooled")
        csv_lines.append(
            f"{method},{s.fake.n},{s.fake.mean:.6f},{s.fake.sd:.6f},"
            f"{s.legitimate.n},{s.legitimate.mean:.6f},{s.legitimate.sd:.6f},"
            f"{s.percent_difference:.2f},{s.t_statistic:.6f},{s.degrees_of_freedom:.2f},"
            f"{s.p_value:.6E},{s.log10_p:.4f},{s.excluded_fake},{s.excluded_legitimate}"
        )
        md_lines.append(
            f"| {method} | {s.fake.mean:.6f} ({s.fake.sd:.6f}) "
            f"| {s.legitimate.mean:.6f} ({s.legitimate.sd:.6f}) "
            f"| {s.percent_difference:.2f}% | {s.p_value:.6E} |"
        )
    out_dir = Path(config.out_dir)
    _write(out_dir, "summary.csv", "\n".join(csv_lines) + "\n")
    _write(out_dir, "summary.md", "\n".join(md_lines) + "\n")
    return "\n".join(md_lines) + "\n"


def _write_hists(config: RunConfig, per_method: PerMethod) -> dict[str, str]:
    """Histogram of the ok scores by label per method; write hist_<method>.tsv, return the TSVs."""
    tsvs = {}
    for method, (scores, labels) in per_method.items():
        by_label: dict[str, list[float]] = {}
        for s in scores:
            if s.ok:
                by_label.setdefault(labels.get(s.doc_id, ""), []).append(s.value)
        for lab in (Label.FAKE, Label.LEGITIMATE):
            if not by_label.get(lab):
                print(f"warning: no {lab} scores for method {method}, column omitted",
                      file=sys.stderr)
        hist = stats.build_histogram(
            by_label, config.hist_lower, config.hist_upper, config.hist_buckets
        )
        lines = [
            f"# range [{hist.lower}, {hist.upper}], {hist.bucket_count} buckets, edge clamping",
            "bucket_low\tbucket_high\tfake_pct\tlegit_pct",
        ]
        fake = hist.percentages.get(Label.FAKE)
        legit = hist.percentages.get(Label.LEGITIMATE)
        for i in range(hist.bucket_count):
            f_pct = f"{fake[i]:.4f}" if fake else ""
            l_pct = f"{legit[i]:.4f}" if legit else ""
            lines.append(f"{hist.edges[i]:.6f}\t{hist.edges[i + 1]:.6f}\t{f_pct}\t{l_pct}")
        tsvs[method] = "\n".join(lines) + "\n"
        _write(Path(config.out_dir), f"hist_{method}.tsv", tsvs[method])
    return tsvs


def _scores_per_method(config: RunConfig, score_files: list[str] | None) -> PerMethod:
    if not score_files:
        return run(config, score=True)[1]
    per_method = {}
    for sf in score_files:
        scores, labels = coh.read_scores_csv(sf)
        if not scores:
            raise stats.StatsError(f"{sf}: no scores")
        per_method[scores[0].method] = (scores, labels)
    return per_method


def cmd_compare(config: RunConfig, score_files: list[str] | None = None) -> None:
    print(_write_summary(config, _scores_per_method(config, score_files)), end="")


def cmd_hist(config: RunConfig, score_files: list[str] | None = None) -> None:
    out_dir = Path(config.out_dir)
    for method in _write_hists(config, _scores_per_method(config, score_files)):
        print(f"{method}: histogram -> {out_dir / f'hist_{method}.tsv'}")


def cmd_build_esa_index(config: RunConfig, out_path: str) -> None:
    if not config.esa_kb_path:
        raise ConfigError("field 'esa_kb_path': required for build-esa-index")
    index = _esa_index(replace(config, esa_index_path=""))
    esa.save_index(index, out_path)
    print(f"ESA index: {index.doc_count} concepts, {len(index.inverted)} tokens -> {out_path}")


def cmd_report(config: RunConfig) -> None:
    corpora, per_method = run(config, score=True)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, stats_md = _stats_table(config, corpora, mark="")
    for method, (scores, labels) in per_method.items():
        coh.write_scores_csv(scores, labels, out_dir / f"scores_{method}.csv")
    md_text = _write_summary(config, per_method)
    report = ["# Coherence Report", "", "## Dataset statistics", "", *stats_md]
    report += ["", "## Coherence comparison", "", md_text.rstrip(), ""]
    for method, tsv in _write_hists(config, per_method).items():
        report += [f"## Histogram ({method})", "", "```", tsv.rstrip(), "```", ""]
    report += ["## Resolved configuration", "", "```", *resolved_config_lines(config), "```", ""]
    _write(out_dir, "report.md", "\n".join(report))
    print(f"report -> {out_dir / 'report.md'}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name in _BOOL_FIELDS:
            common.add_argument(flag, dest=f.name, default=None,
                                choices=["true", "false", "on", "off", "yes", "no"])
        else:
            common.add_argument(flag, dest=f.name, default=None)
    parser = argparse.ArgumentParser(
        prog="newscoherence",
        description="Textual coherence scoring and fake/legitimate comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stats", parents=[common], help="dataset statistics (Table-1 style)")
    sub.add_parser("score", parents=[common], help="per-document coherence score CSVs")
    p_cmp = sub.add_parser("compare", parents=[common],
                           help="fake vs legitimate summary (Table-2 style)")
    p_cmp.add_argument("score_files", nargs="*", help="reuse existing score CSVs")
    p_hist = sub.add_parser("hist", parents=[common], help="histogram TSVs")
    p_hist.add_argument("score_files", nargs="*", help="reuse existing score CSVs")
    p_esa = sub.add_parser("build-esa-index", parents=[common],
                           help="build and serialize the ESA index")
    p_esa.add_argument("--out", required=True, help="index output path")
    sub.add_parser("report", parents=[common],
                   help="run everything and emit a combined markdown report")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        apply_env(config)
        for f in fields(RunConfig):
            raw = getattr(args, f.name, None)
            if raw is not None:
                setattr(config, f.name, _coerce(f.name, str(raw)))
        validate(config, need_corpora=False, need_methods=False)

        if args.command == "build-esa-index":
            cmd_build_esa_index(config, args.out)
            return EXIT_OK
        if args.command == "stats":
            cmd_stats(config)
        elif args.command == "score":
            cmd_score(config)
        elif args.command == "compare":
            cmd_compare(config, args.score_files or None)
        elif args.command == "hist":
            cmd_hist(config, args.score_files or None)
        else:
            cmd_report(config)
        # Every data command leaves its resolved configuration next to its outputs.
        _write(Path(config.out_dir), "resolved_config.txt",
               "\n".join(resolved_config_lines(config)) + "\n")
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
