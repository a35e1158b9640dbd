from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import newscoherence
from newscoherence import embeddings
from newscoherence.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_HIST_BUCKETS,
    ConfigError,
    RunConfig,
    load_config,
    main,
    run,
    validate,
)
from newscoherence.coherence import METHODS, SCORE_COLUMNS, read_scores_csv, scores_csv

from oracle import entity_coherence_ref, sentence_coherence_ref

WORD_VECTORS = {
    "policy": [1.0, 0.2, 0.0],
    "vote": [0.9, 0.3, 0.1],
    "budget": [0.8, 0.1, 0.2],
    "recipe": [0.0, 1.0, 0.1],
    "garlic": [0.1, 0.9, 0.0],
    "football": [0.0, 0.1, 1.0],
}

ENTITY_VECTORS = {
    "Parliament": [1.0, 0.1, 0.0],
    "Treasury": [0.9, 0.2, 0.1],
    "Kitchen_Stadium": [0.0, 1.0, 0.2],
    "Stadium": [0.1, 0.2, 1.0],
}

FAKE_DOCS = [
    {"id": "f1", "label": "fake",
     "text": "Parliament policy vote today. Kitchen Stadium recipe garlic now. Treasury budget vote done."},
    {"id": "f2", "label": "fake",
     "text": "Stadium football news. Treasury budget policy. Kitchen Stadium garlic recipe."},
    {"id": "f3", "label": "fake", "text": "Recipe garlic only."},
]

LEGIT_DOCS = [
    {"id": "l1", "label": "legitimate",
     "text": "Parliament policy vote today. Treasury budget vote done. Parliament budget policy next."},
    {"id": "l2", "label": "legitimate",
     "text": "Treasury budget policy. Parliament vote budget. Treasury policy vote."},
]

KB_DOCS = [
    {"title": "Politics", "text": "policy vote budget policy vote"},
    {"title": "Cooking", "text": "recipe garlic recipe"},
    {"title": "Sport", "text": "football football"},
]


def _write_vectors(path, vectors):
    dim = len(next(iter(vectors.values())))
    lines = [f"{len(vectors)} {dim}"]
    for token, vec in vectors.items():
        lines.append(token + " " + " ".join(str(x) for x in vec))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "fake.jsonl").write_text(
        "\n".join(json.dumps(d) for d in FAKE_DOCS) + "\n"
    )
    (tmp_path / "legit.jsonl").write_text(
        "\n".join(json.dumps(d) for d in LEGIT_DOCS) + "\n"
    )
    _write_vectors(tmp_path / "words.txt", WORD_VECTORS)
    _write_vectors(tmp_path / "entities.txt", ENTITY_VECTORS)
    (tmp_path / "kb.jsonl").write_text(
        "\n".join(json.dumps(d) for d in KB_DOCS) + "\n"
    )
    # Not in run.conf: tests that want aliases pass --alias-path.
    (tmp_path / "aliases.tsv").write_text(
        "Recipe\tKitchen_Stadium\nHouses of Parliament\tParliament\n"
    )
    (tmp_path / "run.conf").write_text(
        "\n".join(
            [
                f"fake_path = {tmp_path / 'fake.jsonl'}",
                f"legit_path = {tmp_path / 'legit.jsonl'}",
                f"embeddings_path = {tmp_path / 'words.txt'}",
                f"esa_kb_path = {tmp_path / 'kb.jsonl'}",
                f"entity_vectors_path = {tmp_path / 'entities.txt'}",
                "methods = embedding,esa,entity",
                f"out_dir = {tmp_path / 'out'}",
            ]
        )
        + "\n"
    )
    return tmp_path


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError, match="no_such_key"):
            load_config(p)

    def test_invalid_method_names_field(self):
        config = RunConfig(methods="embedding,telepathy")
        with pytest.raises(ConfigError, match="methods"):
            validate(config, need_corpora=False, need_methods=False)

    def test_missing_resource_names_field(self):
        config = RunConfig(methods="entity", fake_path="x", legit_path="y")
        with pytest.raises(ConfigError, match="entity_vectors_path"):
            validate(config, need_corpora=True, need_methods=True)

    def test_bad_bool(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("include_title = maybe\n")
        with pytest.raises(ConfigError, match="include_title"):
            load_config(p)

    def test_invalid_hist_spec(self):
        config = RunConfig(hist_lower=0.9, hist_upper=0.1)
        with pytest.raises(ConfigError, match="hist_lower"):
            validate(config, need_corpora=False, need_methods=False)
        validate(RunConfig(hist_buckets=MAX_HIST_BUCKETS), need_corpora=False, need_methods=False)
        with pytest.raises(ConfigError, match="hist_buckets"):
            validate(RunConfig(hist_buckets=MAX_HIST_BUCKETS + 1), need_corpora=False,
                     need_methods=False)

    def test_env_overrides_resource_paths(self, workspace, monkeypatch):
        monkeypatch.setenv("NEWSCOHERENCE_EMBEDDINGS", "/env/words.txt")
        from newscoherence.cli import apply_env

        config = load_config(workspace / "run.conf")
        apply_env(config)
        assert config.embeddings_path == "/env/words.txt"

    def test_config_error_exit_code(self, workspace, capsys):
        rc = main(["score", "--config", str(workspace / "run.conf"),
                   "--methods", "telepathy"])
        assert rc == EXIT_USAGE
        assert "methods" in capsys.readouterr().err

    def test_method_listed_twice_exits_1(self, workspace, capsys):
        rc = main(["score", "--config", str(workspace / "run.conf"),
                   "--methods", "entity,embedding,entity"])
        assert rc == EXIT_USAGE
        assert "'methods': method 'entity' listed twice" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("argv", [["report", "--bogus"], ["build-esa-index"], []],
                             ids=["unknown-flag", "no-out", "no-command"])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "usage: newscoherence" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["report", "--help"]) == EXIT_OK
        assert "--include-title {true,false,on,off,yes,no}" in capsys.readouterr().out

    def test_bad_boolean_flag_exits_1_naming_field(self, workspace, capsys):
        rc = main(["report", "--config", str(workspace / "run.conf"), "--include-title", "maybe"])
        assert rc == EXIT_USAGE
        assert "field 'include_title': expected a boolean, got 'maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"caf\xe9", b"a\x85b"], ids=["latin-1", "c1-byte"])
    def test_non_utf8_config_exits_1_naming_line(self, workspace, capsys, raw):
        p = workspace / "bad.conf"
        p.write_bytes(b"# resources\nfake_path = " + raw + b"\n")
        rc = main(["stats", "--config", str(p)])
        assert rc == EXIT_USAGE
        assert "bad.conf line 2" in capsys.readouterr().err

    def test_nul_in_config_value_exits_1(self, workspace, capsys):
        p = workspace / "nul.conf"
        p.write_bytes((workspace / "run.conf").read_bytes() + b"embeddings_path = a\x00b\n")
        assert main(["report", "--config", str(p)]) == EXIT_USAGE
        assert "'embeddings_path'" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [["--hist-lower=-inf"], ["--hist-upper=inf"],
                                        ["--hist-lower=-1e308", "--hist-upper=1e308"]])
    def test_histogram_range_must_be_finite(self, workspace, capsys, bounds):
        rc = main(["report", "--config", str(workspace / "run.conf"), *bounds])
        assert rc == EXIT_USAGE
        assert "histogram range" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_esa_min_weight_must_be_finite(self, workspace, capsys, weight):
        # A NaN or infinite minimum would drop every weight, or none, without notice.
        rc = main(["score", "--config", str(workspace / "run.conf"), "--methods", "esa",
                   f"--esa-min-weight={weight}"])
        assert rc == EXIT_USAGE
        assert "esa_min_weight" in capsys.readouterr().err

    @pytest.mark.parametrize("sep", ["\u2028", "\x85"], ids=["line-separator", "next-line"])
    def test_unicode_line_separators_stay_in_the_value(self, tmp_path, sep):
        # Only \n, \r\n and \r end a line, as in every other text input.
        p = tmp_path / "run.conf"
        p.write_text(f"csv_text_column = body{sep}text\nmethods = esa\n", encoding="utf-8")
        config = load_config(p)
        assert config.csv_text_column == f"body{sep}text"
        assert config.methods == "esa"

    def test_data_error_exit_code(self, workspace):
        rc = main(["score", "--config", str(workspace / "run.conf"),
                   "--fake-path", str(workspace / "missing.jsonl")])
        assert rc == EXIT_DATA


class TestStatsCommand:
    def test_two_label_table(self, workspace, capsys):
        rc = main(["stats", "--config", str(workspace / "run.conf")])
        assert rc == EXIT_OK
        csv_text = (workspace / "out" / "dataset_stats.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert len(lines) == 3  # header + 2 labels
        fake_row = next(l for l in lines if l.startswith("fake"))
        # 3 fake docs with 3, 3 and 1 sentences
        assert fake_row.split(",")[1] == "3"
        assert fake_row.split(",")[2] == "2.33"

    def test_entity_columns_absent_without_resources(self, workspace):
        main(["stats", "--config", str(workspace / "run.conf"),
              "--entity-vectors-path", ""])
        csv_text = (workspace / "out" / "dataset_stats.csv").read_text()
        assert ",-,-" in csv_text.splitlines()[1]

    def test_entity_columns_present_with_resources(self, workspace):
        main(["stats", "--config", str(workspace / "run.conf")])
        fake_row = (workspace / "out" / "dataset_stats.csv").read_text().splitlines()[1]
        assert ",-," not in fake_row


class TestScoreCommand:
    def test_three_methods_three_csvs(self, workspace):
        rc = main(["score", "--config", str(workspace / "run.conf")])
        assert rc == EXIT_OK
        for method in ("embedding", "esa", "entity"):
            assert (workspace / "out" / f"scores_{method}.csv").is_file()

    def test_embedding_scores_match_oracle(self, workspace):
        main(["score", "--config", str(workspace / "run.conf")])
        scores, labels = read_scores_csv(workspace / "out" / "scores_embedding.csv")
        from newscoherence.corpus import split_sentences

        for record in FAKE_DOCS + LEGIT_DOCS:
            token_lists = [s.tokens for s in split_sentences(record["text"])]
            want = sentence_coherence_ref(token_lists, WORD_VECTORS)
            got = next(s for s in scores if s.doc_id == record["id"])
            if want is None:
                assert got.status == "undefined"
            else:
                assert got.value == pytest.approx(want, abs=1e-6)
            assert labels[record["id"]] == record["label"]

    def test_entity_scores_match_oracle(self, workspace):
        main(["score", "--config", str(workspace / "run.conf")])
        scores, _ = read_scores_csv(workspace / "out" / "scores_entity.csv")
        # f1 mentions Parliament, Kitchen Stadium, Treasury (Stadium is
        # shadowed by the longer match).
        want = entity_coherence_ref(
            ["Parliament", "Kitchen_Stadium", "Treasury"], ENTITY_VECTORS
        )
        got = next(s for s in scores if s.doc_id == "f1")
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_short_doc_undefined(self, workspace):
        main(["score", "--config", str(workspace / "run.conf")])
        scores, _ = read_scores_csv(workspace / "out" / "scores_embedding.csv")
        assert next(s for s in scores if s.doc_id == "f3").status == "undefined"

    def test_missing_embedding_path_fails_before_work(self, workspace):
        rc = main(["score", "--config", str(workspace / "run.conf"),
                   "--embeddings-path", "", "--methods", "embedding"])
        assert rc == EXIT_USAGE
        assert not (workspace / "out" / "scores_embedding.csv").exists()


class TestCompareCommand:
    def test_summary_row_per_method(self, workspace):
        rc = main(["compare", "--config", str(workspace / "run.conf")])
        assert rc == EXIT_OK
        lines = (workspace / "out" / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        methods = [l.split(",")[0] for l in lines[1:]]
        assert methods == ["embedding", "esa", "entity"]

    def test_equal_groups_zero_difference(self, workspace, tmp_path):
        scores = tmp_path / "s.csv"
        rows = ["doc_id,label,method,value,element_count,pair_count,status"]
        for i in range(3):
            rows.append(f"f{i},fake,embedding,0.{i + 4}00000,3,3,ok")
            rows.append(f"l{i},legitimate,embedding,0.{i + 4}00000,3,3,ok")
        scores.write_text("\n".join(rows) + "\n")
        rc = main(["compare", "--config", str(workspace / "run.conf"), str(scores)])
        assert rc == EXIT_OK
        row = (workspace / "out" / "summary.csv").read_text().splitlines()[1].split(",")
        assert float(row[7]) == 0.0
        assert float(row[10]) == 1.0

    def test_single_label_input_rejected(self, workspace, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text(
            "doc_id,label,method,value,element_count,pair_count,status\n"
            "f1,fake,embedding,0.500000,3,3,ok\nf2,fake,embedding,0.600000,3,3,ok\n"
        )
        rc = main(["compare", "--config", str(workspace / "run.conf"), str(scores)])
        assert rc == EXIT_DATA

    def test_undefined_excluded_and_counted(self, workspace):
        main(["compare", "--config", str(workspace / "run.conf")])
        row = (workspace / "out" / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "embedding"
        assert int(row[1]) == 2  # f3 undefined
        assert int(row[12]) == 1


    def test_score_files_round_trip(self, workspace):
        conf = str(workspace / "run.conf")
        assert main(["score", "--config", conf, "--out-dir", str(workspace / "scores")]) == EXIT_OK
        files = [workspace / "scores" / f"scores_{m}.csv" for m in METHODS]
        for f in files:  # the reader gives back what the writer wrote
            assert scores_csv(*read_scores_csv(f)).encode() == f.read_bytes()
        assert main(["compare", "--config", conf]) == EXIT_OK
        fresh = (workspace / "out" / "summary.csv").read_text().splitlines()
        assert main(["compare", "--config", conf, *map(str, files)]) == EXIT_OK
        from_files = (workspace / "out" / "summary.csv").read_text().splitlines()
        # The same rows and counts; the score files hold 6-decimal values, so the
        # statistics computed from them agree with the fresh ones to that rounding.
        assert from_files[0] == fresh[0] and len(from_files) == len(fresh) == 4
        for got, want in zip(from_files[1:], fresh[1:]):
            got, want = got.split(","), want.split(",")
            counts = [0, 1, 4, 12, 13]
            assert [got[i] for i in counts] == [want[i] for i in counts]
            for i in set(range(len(want))) - set(counts):
                assert float(got[i]) == pytest.approx(float(want[i]), rel=1e-4, abs=2e-6)

    _GOOD = ["f1,fake,embedding,0.500000,3,3,ok", "l1,legitimate,embedding,0.600000,3,3,ok"]

    @pytest.mark.parametrize("lines, line", [
        (["f1,fake,embedding,abc,3,3,ok"], 2),
        (["f1,fake,embedding,nan,3,3,ok"], 2),
        (["f1,fake,embedding,inf,3,3,ok"], 2),
        (["f1,fake,embedding,1.500000,3,3,ok"], 2),
        (["f1,fake,embedding,,3,3,ok"], 2),
        (["f1,fake,embedding,0.500000,1,0,undefined"], 2),
        (["f1,fake,embedding,0.500000,3,3,maybe"], 2),
        (["f1,fake,telepathy,0.500000,3,3,ok"], 2),
        (_GOOD + ["l2,legitimate,esa,0.600000,3,3,ok"], 4),
        (_GOOD + ["l1,legitimate,embedding,0.700000,3,3,ok"], 4),
        (_GOOD + ["x1,Fake,embedding,0.100000,3,3,ok"], 4),
        (["f1,fake,embedding,0.500000,-1,3,ok"], 2),
        (["f1,fake,embedding,0.500000,3,2.5,ok"], 2),
        (["f1,fake,embedding,0.500000,3,3"], 2),
        (["f1,fake,embedding,0.500000,3,3,ok,extra"], 2),
    ], ids=["value-not-a-number", "nan-with-ok", "inf-with-ok", "value-out-of-range",
            "no-value-with-ok", "value-with-undefined", "unknown-status", "unknown-method",
            "two-methods", "duplicate-doc-id", "unknown-label", "negative-count",
            "count-not-integer", "field-missing", "field-extra"])
    def test_malformed_score_file_names_line(self, workspace, capsys, lines, line):
        scores = workspace / "s.csv"
        scores.write_text("\n".join([",".join(SCORE_COLUMNS), *lines]) + "\n")
        for command in ("compare", "hist"):
            rc = main([command, "--config", str(workspace / "run.conf"), str(scores)])
            assert rc == EXIT_DATA
            assert f"s.csv line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("data, line", [
        (b"doc_id,label,method,element_count,pair_count,status\n", 1),
        (b"doc_id,label,method,value,element_count,pair_count,status\n"
         b"f1,fake,embedding,0.5,3,3,ok\nf\xff,fake,embedding,0.5,3,3,ok\n", 3),
    ], ids=["no-value-column", "non-utf8"])
    def test_unreadable_score_file_names_line(self, workspace, capsys, data, line):
        (workspace / "s.csv").write_bytes(data)
        rc = main(["compare", "--config", str(workspace / "run.conf"), str(workspace / "s.csv")])
        assert rc == EXIT_DATA
        assert f"s.csv line {line}:" in capsys.readouterr().err

    def test_two_files_of_one_method_rejected(self, workspace, capsys):
        for name in ("a.csv", "b.csv"):
            (workspace / name).write_text("\n".join([",".join(SCORE_COLUMNS), *self._GOOD]) + "\n")
        rc = main(["compare", "--config", str(workspace / "run.conf"),
                   str(workspace / "a.csv"), str(workspace / "b.csv")])
        assert rc == EXIT_DATA
        assert "b.csv: method 'embedding' is also in" in capsys.readouterr().err


class TestHistCommand:
    def test_tsv_row_count(self, workspace):
        rc = main(["hist", "--config", str(workspace / "run.conf"),
                   "--hist-buckets", "8"])
        assert rc == EXIT_OK
        lines = (workspace / "out" / "hist_embedding.tsv").read_text().splitlines()
        assert len(lines) == 2 + 8  # comment + header + buckets

    def test_spec_echoed_in_header(self, workspace):
        main(["hist", "--config", str(workspace / "run.conf")])
        first = (workspace / "out" / "hist_embedding.tsv").read_text().splitlines()[0]
        assert first.startswith("#") and "buckets" in first


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


class TestInputsHonoured:
    @pytest.mark.parametrize("command", ["stats", "score", "report"])
    def test_label_other_than_file_role_rejected(self, workspace, capsys, command):
        stray = {"id": "x1", "label": "legitimate", "text": "Treasury budget. Parliament vote."}
        _write_jsonl(workspace / "fake.jsonl", FAKE_DOCS + [stray])
        rc = main([command, "--config", str(workspace / "run.conf")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "fake.jsonl" in err and "'x1'" in err

    def test_id_in_both_files_rejected(self, workspace, capsys):
        twin = {"id": "l1", "label": "fake", "text": "Treasury budget. Parliament vote."}
        _write_jsonl(workspace / "fake.jsonl", FAKE_DOCS + [twin])
        rc = main(["compare", "--config", str(workspace / "run.conf")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "'l1'" in err and "fake.jsonl" in err and "legit.jsonl" in err
        assert not (workspace / "out" / "summary.csv").exists()


class TestSharedTokens:
    def test_one_string_per_token_across_both_corpora(self, workspace):
        corpora, _ = run(load_config(workspace / "run.conf"), score=False)
        found = {label: [t for d in c.documents for s in d.sentences for t in s.tokens
                         if t == "budget"] for label, c in corpora.items()}
        assert all(found.values())
        first = found["fake"][0]
        assert all(t is first for tokens in found.values() for t in tokens)


class TestEmptyCorpusFile:
    """A header-only fake CSV: the commands that need both labels exit 2 naming it
    before any resource is read; `score` and `hist` take the legitimate label alone."""

    def _run(self, workspace, capsys, command, *extra):
        (workspace / "Fake.csv").write_text("title,text\n")
        rc = main([command, "--config", str(workspace / "run.conf"), "--fake-format", "csv",
                   "--fake-path", str(workspace / "Fake.csv"), *extra])
        return rc, capsys.readouterr()

    @pytest.mark.parametrize("command", ["stats", "compare", "report"])
    def test_named_before_resources(self, workspace, capsys, command):
        missing = str(workspace / "missing")
        rc, out = self._run(workspace, capsys, command, "--embeddings-path", missing,
                            "--esa-index-path", missing, "--esa-kb-path", missing,
                            "--entity-vectors-path", missing, "--alias-path", missing)
        assert rc == EXIT_DATA
        assert f"{workspace / 'Fake.csv'}: empty corpus" in out.err
        assert "missing" not in out.err
        assert not (workspace / "out").exists()

    def test_score_takes_one_label(self, workspace, capsys):
        rc, _ = self._run(workspace, capsys, "score", "--methods", "embedding")
        assert rc == EXIT_OK
        _, labels = read_scores_csv(workspace / "out" / "scores_embedding.csv")
        assert sorted(labels.values()) == ["legitimate"] * len(LEGIT_DOCS)

    def test_hist_warns_and_omits_the_column(self, workspace, capsys):
        rc, out = self._run(workspace, capsys, "hist", "--methods", "embedding")
        assert rc == EXIT_OK
        assert "no fake scores for method embedding" in out.err
        lines = (workspace / "out" / "hist_embedding.tsv").read_text().splitlines()
        assert all(line.split("\t")[2] == "" for line in lines[2:])


class TestBadBytesExitTwo:
    """Malformed bytes in a corpus, KB or index exit 2 naming the line, never 3."""

    def _run(self, workspace, capsys, *extra):
        rc = main(["report", "--config", str(workspace / "run.conf"), *extra])
        return rc, capsys.readouterr().err

    def test_index_with_non_utf8_byte(self, workspace, capsys):
        (workspace / "bad.esa").write_bytes(b"ESA1\t1\ttf\nC\t\xff\xfe\n")
        rc, err = self._run(workspace, capsys, "--methods", "esa",
                            "--esa-index-path", str(workspace / "bad.esa"))
        assert rc == EXIT_DATA
        assert "bad.esa line 2" in err

    def test_jsonl_id_with_lone_surrogate(self, workspace, capsys):
        bad = {"id": "x\ud800", "label": "fake", "text": "Treasury budget. Parliament vote."}
        _write_jsonl(workspace / "fake.jsonl", FAKE_DOCS + [bad])
        rc, err = self._run(workspace, capsys, "--methods", "embedding")
        assert rc == EXIT_DATA
        assert "fake.jsonl line 4" in err and "'id'" in err
        assert not (workspace / "out" / "scores_embedding.csv").exists()

    @pytest.mark.parametrize("line", [
        b'{"title": "A", "text": null}',
        b'{"title": 7, "text": "policy vote"}',
        b'["A", "policy vote"]',
        b'{"title": "A", "text": "policy \xff vote"}',
    ], ids=["null-text", "int-title", "not-an-object", "non-utf8"])
    def test_kb_record_of_wrong_type(self, workspace, capsys, line):
        (workspace / "kb.jsonl").write_bytes(line + b"\n")
        rc, err = self._run(workspace, capsys, "--methods", "esa")
        assert rc == EXIT_DATA
        assert "kb.jsonl line 1" in err

    def test_jsonl_with_non_utf8_byte(self, workspace, capsys):
        rows = b"".join(json.dumps(d).encode() + b"\n" for d in FAKE_DOCS)
        (workspace / "fake.jsonl").write_bytes(
            rows + b'{"id": "f4", "label": "fake", "text": "policy \xff vote"}\n')
        rc, err = self._run(workspace, capsys, "--methods", "embedding")
        assert rc == EXIT_DATA
        assert "fake.jsonl line 4" in err

    def test_csv_with_non_utf8_byte(self, workspace, capsys):
        (workspace / "fake.csv").write_bytes(
            b"title,text\nT1,Parliament policy vote. Treasury budget.\nT2,policy \xff vote\n")
        rc, err = self._run(workspace, capsys, "--methods", "embedding", "--fake-format", "csv",
                            "--fake-path", str(workspace / "fake.csv"))
        assert rc == EXIT_DATA
        assert "fake.csv line 3" in err

    def test_vector_file_with_non_utf8_byte(self, workspace, capsys):
        (workspace / "words.txt").write_bytes(b"2 3\npolicy 1 0 0\nvote \xff 1 0\n")
        rc, err = self._run(workspace, capsys, "--methods", "embedding")
        assert rc == EXIT_DATA
        assert "words.txt line 3" in err

    def test_alias_file_with_non_utf8_byte(self, workspace, capsys):
        (workspace / "aliases.tsv").write_bytes(
            b"Recipe\tKitchen_Stadium\nHouses\xff\tParliament\n")
        rc, err = self._run(workspace, capsys, "--methods", "entity",
                            "--alias-path", str(workspace / "aliases.tsv"))
        assert rc == EXIT_DATA
        assert "aliases.tsv line 2" in err

    def test_kb_directory_with_non_utf8_article(self, workspace, capsys):
        (workspace / "kb").mkdir()
        for text, line in [(b"policy \xff vote", 1), (b"policy vote\nbudget \xff\n", 2)]:
            (workspace / "kb" / "Politics.txt").write_bytes(text)
            rc, err = self._run(workspace, capsys, "--methods", "esa",
                                "--esa-kb-path", str(workspace / "kb"))
            assert rc == EXIT_DATA
            assert f"Politics.txt line {line}: " in err


class TestRowsNoCorpusUses:
    """The word table holds only the rows the corpora can look up; `report`
    still parses and checks every row, and reads the corpora first."""

    def _run(self, workspace, capsys, rows, header=None):
        lines = [f"{t} " + " ".join(str(x) for x in v) for t, v in WORD_VECTORS.items()] + rows
        header = len(lines) if header is None else header
        (workspace / "words.txt").write_text(f"{header} 3\n" + "\n".join(lines) + "\n")
        rc = main(["report", "--config", str(workspace / "run.conf"), "--methods", "embedding"])
        return rc, capsys.readouterr().err

    def test_malformed_unused_row_names_its_line(self, workspace, capsys):
        rc, err = self._run(workspace, capsys, ["zebra 1 0 0", "yak 1 zzz 0"])
        assert rc == EXIT_DATA
        assert "words.txt line 9: non-numeric component" in err

    def test_duplicate_unused_token_still_warned(self, workspace, capsys, caplog):
        with caplog.at_level("WARNING", logger="newscoherence.embeddings"):
            rc, _ = self._run(workspace, capsys, ["zebra 1 0 0", "zebra 0 1 0"])
        assert rc == EXIT_OK
        assert [r.getMessage() for r in caplog.records] == [
            f"{workspace / 'words.txt'} line 9: duplicate token 'zebra' overwritten"]

    def test_huge_header_count_is_a_data_error(self, workspace, capsys):
        # The rows the file can hold bound the buffer, so no MemoryError, no exit 3.
        rc, err = self._run(workspace, capsys, ["zebra 1 0 0"], header=10**15)
        assert rc == EXIT_DATA
        assert f"header declares {10**15} vectors, file has 7" in err

    def test_corpus_fault_reported_before_vector_fault(self, workspace, capsys):
        (workspace / "fake.jsonl").write_bytes(b'{"id": "f1", "label": "fake", "text": 7}\n')
        rc, err = self._run(workspace, capsys, ["yak 1 zzz 0"])
        assert rc == EXIT_DATA
        assert "fake.jsonl line 1" in err and "words.txt" not in err


_ANY = st.one_of(st.text(max_size=20), st.integers(), st.none(),
                 st.lists(st.integers(), max_size=2))
_PROSE = st.lists(st.sampled_from([*WORD_VECTORS, "Parliament", "Treasury", "."]),
                  max_size=12).map(" ".join)


def _records(label):
    """JSONL rows for one file: well-formed ones, or ones with any field missing or of any type."""
    valid = st.fixed_dictionaries({"id": st.text(max_size=8), "label": st.just(label),
                                   "text": _PROSE}, optional={"title": st.text(max_size=8)})
    wild = st.fixed_dictionaries({}, optional={
        "id": _ANY, "label": st.one_of(st.sampled_from(["fake", "legitimate"]), _ANY),
        "text": st.one_of(_PROSE, _ANY), "title": _ANY})
    return st.lists(st.one_of(valid, valid, valid, wild), max_size=3)


class TestRandomJsonl:
    @given(fake=_records("fake"), legit=_records("legitimate"))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_report_exits_ok_or_data_error(self, workspace, fake, legit):
        _write_jsonl(workspace / "fake.jsonl", FAKE_DOCS + fake)
        _write_jsonl(workspace / "legit.jsonl", LEGIT_DOCS + legit)
        rc = main(["report", "--config", str(workspace / "run.conf"), "--methods", "embedding"])
        assert rc in (EXIT_OK, EXIT_DATA)


_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.sampled_from(["0", "-0.0", "1e308", "-1e308", "1e-320"]))


@st.composite
def _vector_text(draw):
    """A well-formed word2vec text table over the workspace's words and entities."""
    dim = draw(st.integers(1, 3))
    token = st.one_of(
        st.sampled_from([*WORD_VECTORS, *ENTITY_VECTORS]),
        st.text(st.characters(codec="utf-8", exclude_characters=" \r\n"), max_size=4))
    rows = [" ".join([draw(token), *draw(st.lists(_NUMBER, min_size=dim, max_size=dim))])
            for _ in range(draw(st.integers(1, 8)))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([f"{len(rows)} {dim}", *rows]) + end


_ALIAS_TEXT = st.lists(
    st.builds(lambda surface, target: f"{surface}\t{target}",
              st.one_of(st.sampled_from(["Recipe", "Houses of Parliament", "", " "]),
                        st.text(max_size=6)),
              st.one_of(st.sampled_from([*ENTITY_VECTORS, "parliament", ""]), st.text(max_size=4))),
    max_size=4).map("\n".join)


def _mangled(text_strategy):
    """UTF-8 of well-formed-looking text, with random bytes spliced in now and then."""
    return st.one_of(
        text_strategy.map(str.encode),
        text_strategy.map(str.encode),
        st.tuples(text_strategy.map(str.encode), st.binary(max_size=4), st.integers(0, 64)).map(
            lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]),
        st.binary(max_size=40))


@st.composite
def _csv_text(draw):
    """RFC 4180 text with a header and rows of articles or prose, and the name of
    the mapped text column, which the header usually holds."""
    column = draw(st.sampled_from(["text", "text", "body"]))
    columns = draw(st.permutations(["text", "title", "body", "id"]).flatmap(
        lambda names: st.integers(1, 4).map(lambda n: names[:n])))
    cell = st.one_of(st.sampled_from([d["text"] for d in FAKE_DOCS]), _PROSE, st.text(max_size=8))
    rows = draw(st.lists(st.lists(cell, min_size=len(columns), max_size=len(columns)),
                         max_size=5))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [columns, *rows])
    return out.getvalue(), column


_CORPUS_WORDS = sorted({w.lower() for d in FAKE_DOCS + LEGIT_DOCS for w in d["text"].split()})


@st.composite
def _esa_text(draw):
    """An ESA1 index with a row for each corpus word and a few other tokens; now and
    then a concept count or id is out of bounds."""
    titles = draw(st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\t\r\n"),
                                   max_size=6), min_size=1, max_size=3))
    n = len(titles)
    count = draw(st.sampled_from([n] * 8 + [0, -1, 10**20]))
    cell = st.builds("{}:{}".format, st.integers(0, n - 1),
                     st.one_of(st.floats(0.01, 100).map(repr), _NUMBER))
    rows = [f"T\t{token}\t1\t{' '.join(draw(st.lists(cell, max_size=3)))}"
            for token in _CORPUS_WORDS + draw(st.lists(st.text(max_size=4), max_size=2))]
    rows += draw(st.sampled_from([[]] * 8 + [[f"T\tzz\t1\t{n}:1.0"], ["T\tzz\t1\t-1:1.0"]]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = f"ESA1\t{count}\t{draw(st.sampled_from(['tf', 'tfidf']))}"
    return end.join([header, *(f"C\t{t}" for t in titles), *rows]) + end


@st.composite
def _score_csv_text(draw):
    """Score-CSV text as `score` writes it, now and then a column short. Most rows
    are well formed; the others hold any status, values in and out of [-1, 1],
    counts of any sign, an odd method or doc id, or a field too few or too many."""
    columns = list(SCORE_COLUMNS)
    if draw(st.integers(0, 9)) == 0:
        del columns[draw(st.integers(0, len(columns) - 1))]
    method = draw(st.sampled_from(METHODS))
    count = st.one_of(st.integers(0, 5).map(str), st.sampled_from(["-1", "2.5", ""]))
    rows = []
    for i in range(draw(st.integers(0, 8))):
        label = draw(st.sampled_from(["fake", "legitimate"]))
        ok = draw(st.booleans())
        row = {"doc_id": f"{label[0]}{i}", "label": label, "method": method,
               "value": draw(st.floats(-1, 1).map("{:.6f}".format)) if ok else "",
               "element_count": "3" if ok else "1", "pair_count": "3" if ok else "0",
               "status": "ok" if ok else "undefined"}
        if draw(st.integers(0, 14)) == 0:
            name = draw(st.sampled_from(SCORE_COLUMNS))
            row[name] = draw({
                "doc_id": st.sampled_from(["f0", "l0", ""]),
                "label": st.sampled_from(["", "Fake", "unlabeled"]),
                "method": st.sampled_from([*METHODS, "telepathy", ""]),
                "value": st.one_of(_NUMBER, st.sampled_from(["", "nan", "inf", "abc", "1.000001"])),
                "status": st.sampled_from(["ok", "undefined", "maybe", ""]),
            }.get(name, count))
        fields_ = [row[c] for c in columns]
        rows.append(draw(st.sampled_from([fields_] * 28 + [fields_[:-1], fields_ + ["x"]])))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [columns, *rows])
    return out.getvalue()


_CONFIG_VALUE = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "true", "off", "maybe", "nan", "inf", "-inf",
                     "1e308", "-1e308", "embedding", "esa,entity", "telepathy", "csv", "jsonl",
                     "sample", "pooled", "tf", "", "missing.txt", ".", "a\x00b"]),
    st.text(st.characters(codec="utf-8", exclude_categories=["Nd"]), max_size=6))
# Every field but out_dir, which the test pins on the command line.
_CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from([f.name for f in fields(RunConfig)
                                                 if f.name != "out_dir"] + ["no_such_key"]),
              _CONFIG_VALUE),
    st.text(max_size=12), st.just("# comment"), st.just(""))


class TestRandomResourceBytes:
    """Random vector-table, alias, CSV and ESA1 bytes through `report`, and random
    score-CSV bytes through `compare` and `hist`, exit 0 or 2; random config bytes
    exit 0, 1 or 2. Never 3."""

    @given(words=_mangled(_vector_text()), entities=_mangled(_vector_text()))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_vector_files(self, workspace, words, entities):
        (workspace / "words.txt").write_bytes(words)
        (workspace / "entities.txt").write_bytes(entities)
        rc = main(["report", "--config", str(workspace / "run.conf"),
                   "--methods", "embedding,entity"])
        assert rc in (EXIT_OK, EXIT_DATA)

    @given(aliases=_mangled(_ALIAS_TEXT))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_alias_file(self, workspace, aliases):
        (workspace / "aliases.tsv").write_bytes(aliases)
        rc = main(["report", "--config", str(workspace / "run.conf"), "--methods", "entity",
                   "--alias-path", str(workspace / "aliases.tsv")])
        assert rc in (EXIT_OK, EXIT_DATA)

    @given(case=_csv_text().flatmap(lambda t: st.tuples(_mangled(st.just(t[0])), st.just(t[1]))))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_csv_file(self, workspace, case):
        data, column = case
        (workspace / "fake.csv").write_bytes(data)
        rc = main(["report", "--config", str(workspace / "run.conf"), "--methods", "embedding",
                   "--fake-format", "csv", "--fake-path", str(workspace / "fake.csv"),
                   "--csv-text-column", column])
        assert rc in (EXIT_OK, EXIT_DATA)

    @given(index=_mangled(_esa_text()))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_esa_index_file(self, workspace, index):
        (workspace / "fuzz.esa").write_bytes(index)
        rc = main(["report", "--config", str(workspace / "run.conf"), "--methods", "esa",
                   "--esa-index-path", str(workspace / "fuzz.esa")])
        assert rc in (EXIT_OK, EXIT_DATA)

    @given(files=st.lists(_mangled(_score_csv_text()), min_size=1, max_size=2),
           command=st.sampled_from(["compare", "hist"]))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_score_files(self, workspace, files, command):
        paths = []
        for i, data in enumerate(files):
            paths.append(workspace / f"scores{i}.csv")
            paths[-1].write_bytes(data)
        rc = main([command, "--config", str(workspace / "run.conf"), *map(str, paths)])
        assert rc in (EXIT_OK, EXIT_DATA)

    @given(extra=_mangled(st.lists(_CONFIG_LINE, max_size=5).map("\n".join)))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_config_file(self, workspace, monkeypatch, extra):
        monkeypatch.chdir(workspace)  # relative paths drawn for resources resolve here
        config = workspace / "fuzz.conf"
        config.write_bytes((workspace / "run.conf").read_bytes() + extra)
        rc = main(["report", "--config", str(config), "--out-dir", str(workspace / "out")])
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA)


class TestBuildEsaIndex:
    def test_missing_index_without_kb_exits_2(self, workspace, monkeypatch, capsys):
        # A *.txt file in the working directory must not be taken for a KB.
        monkeypatch.chdir(workspace)
        (workspace / "Stray.txt").write_text("policy vote budget")
        rc = main(["score", "--config", str(workspace / "run.conf"), "--methods", "esa",
                   "--esa-kb-path", "", "--esa-index-path", str(workspace / "missing.esa")])
        assert rc == EXIT_DATA
        assert "missing.esa" in capsys.readouterr().err
        assert not (workspace / "out" / "scores_esa.csv").exists()

    def test_build_and_reuse(self, workspace):
        index_path = workspace / "kb.esa"
        rc = main(["build-esa-index", "--config", str(workspace / "run.conf"),
                   "--out", str(index_path)])
        assert rc == EXIT_OK
        assert index_path.is_file()
        rc = main(["score", "--config", str(workspace / "run.conf"),
                   "--methods", "esa", "--esa-index-path", str(index_path)])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("title", ["Art\tOne", "Art\nOne"], ids=["tab", "newline"])
    def test_title_an_index_cannot_store_exits_2(self, workspace, capsys, title):
        _write_jsonl(workspace / "kb.jsonl", KB_DOCS + [{"title": title, "text": "garlic vote"}])
        index_path = workspace / "kb.esa"
        rc = main(["build-esa-index", "--config", str(workspace / "run.conf"),
                   "--out", str(index_path)])
        assert rc == EXIT_DATA
        assert "concept title" in capsys.readouterr().err
        assert not index_path.exists()

    def test_prebuilt_index_gives_same_scores(self, workspace):
        main(["score", "--config", str(workspace / "run.conf"), "--methods", "esa"])
        from_kb = (workspace / "out" / "scores_esa.csv").read_bytes()
        index_path = workspace / "kb.esa"
        main(["build-esa-index", "--config", str(workspace / "run.conf"),
              "--out", str(index_path)])
        main(["score", "--config", str(workspace / "run.conf"), "--methods", "esa",
              "--esa-index-path", str(index_path)])
        assert (workspace / "out" / "scores_esa.csv").read_bytes() == from_kb


def _snapshot(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


class TestReport:
    def test_report_runs_everything(self, workspace):
        rc = main(["report", "--config", str(workspace / "run.conf")])
        assert rc == EXIT_OK
        out = workspace / "out"
        for name in ("report.md", "summary.csv", "summary.md", "scores_embedding.csv",
                     "hist_entity.tsv", "resolved_config.txt"):
            assert (out / name).is_file()
        assert "Resolved configuration" in (out / "report.md").read_text()

    def test_report_imports_no_scipy(self, workspace):
        # Every method needs numpy only; a stray scipy import would add its start-up
        # time to every run without failing any other test.
        code = ("import json, sys\n"
                "from newscoherence.cli import main\n"
                "rc = main(sys.argv[1:])\n"
                "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
        src = str(Path(newscoherence.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", code, "report", "--config", str(workspace / "run.conf"),
             "--methods", "embedding,esa,entity"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        rc, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
        assert rc == EXIT_OK
        assert (workspace / "out" / "scores_esa.csv").is_file()
        assert scipy_modules == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_bad_row_in_a_forked_shard_is_one_data_error(self, workspace):
        """The forked parser never returns into `main`: one error line, not two."""
        words = workspace / "words.txt"
        lines = words.read_text().splitlines()
        lines.append("zebra 1 2 zzz")
        words.write_text("\n".join(lines) + "\n")
        # Shard even this small table, on two CPUs; say on stderr when a fork is made.
        code = ("import os, sys\n"
                "from newscoherence import embeddings\n"
                "from newscoherence.cli import main\n"
                "embeddings._MIN_SHARD_BYTES = 0\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "fork = os.fork\n"
                "def announced():\n"
                "    pid = fork()\n"
                "    if pid:\n"
                "        print('forked', file=sys.stderr)\n"
                "    return pid\n"
                "os.fork = announced\n"
                "sys.exit(main(sys.argv[1:]))")
        src = str(Path(newscoherence.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c", code, "report", "--config", str(workspace / "run.conf"),
             "--methods", "embedding", "--workers", "2"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_DATA
        stderr = proc.stderr.splitlines()
        assert stderr.count("forked") == 1
        errors = [line for line in stderr if "data error" in line]
        assert len(errors) == 1 and f"words.txt line {len(lines)}: non-numeric" in errors[0]

    def test_deterministic_across_runs_and_workers(self, workspace):
        main(["report", "--config", str(workspace / "run.conf")])
        first = _snapshot(workspace / "out")
        main(["report", "--config", str(workspace / "run.conf"), "--workers", "3"])
        second = _snapshot(workspace / "out")
        assert first == second

    def test_workers_changes_no_process_count(self, workspace, forks):
        """The parser's process count follows the CPUs alone; `workers` is read by nothing."""
        runs = []
        for w in ("1", "3"):
            before = len(forks)
            assert main(["report", "--config", str(workspace / "run.conf"), "--workers", w]) == 0
            runs.append((len(forks) - before, _snapshot(workspace / "out")))
        assert runs[0][0] > 0 and runs[1] == runs[0]

    @pytest.mark.parametrize("end, code, message", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), EXIT_DATA,
         "data error: {words}: a parser process was killed by signal 9"),
        (lambda: os._exit(0), EXIT_INTERNAL,
         "internal error: {words}: a parser process ended without its rows"),
    ], ids=["killed", "exited"])
    def test_parser_process_that_ends_without_its_rows(self, workspace, forks, monkeypatch,
                                                       capsys, end, code, message):
        """A signal that ends a parser process (the out-of-memory killer's, say) is a
        data error; a process that exits by itself without its rows is a bug."""
        monkeypatch.setattr(embeddings, "_send", lambda *args: end())
        assert main(["report", "--config", str(workspace / "run.conf")]) == code
        stderr = capsys.readouterr().err.splitlines()
        assert len(stderr) == 1 and stderr[0].startswith(
            message.format(words=workspace / "words.txt"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# One run per subcommand shape. "{ws}" is the workspace; "{out}" the run's out_dir.
GOLDEN_RUNS = {
    "stats": ["stats", "--alias-path", "{ws}/aliases.tsv"],
    "stats-no-entities": ["stats", "--entity-vectors-path", ""],
    "score": ["score", "--alias-path", "{ws}/aliases.tsv"],
    "compare": ["compare"],
    "compare-files": ["compare", "{ws}/scores/scores_embedding.csv",
                      "{ws}/scores/scores_entity.csv"],
    "hist": ["hist", "--hist-buckets", "5"],
    "hist-files": ["hist", "{ws}/scores/scores_esa.csv", "{ws}/scores/scores_entity.csv"],
    "build-esa-index": ["build-esa-index", "--out", "{out}/kb.esa"],
    "report": ["report", "--alias-path", "{ws}/aliases.tsv"],
}

# SHA-256 of each output file and of stdout, with the workspace path replaced
# by "<ws>". A refactor keeps these; a change here is a change to what the
# program writes and needs its own reason.
GOLDEN_SHA256 = {
    "build-esa-index": {
        "kb.esa":
            "bc7646bebf499b2a8501e3e72953d3f53424cc289309013d43122347e9574e6a",
        "<stdout>":
            "de0a03dc903780b50f7b65111c30cdca3e6845fbab22d729cb633bd06fabd808",
    },
    "compare": {
        "resolved_config.txt":
            "2bee495941ba23983e2b1789dd9e3ef29e7f70e8d8301b459f16c1776a92099a",
        "summary.csv":
            "c3a561da8809676a0d34a4d612552d33f1d2622b0f8e20fdb7dd6865fc359748",
        "summary.md":
            "afa11101568fe704cc70caf4f08075870e1bc4f275c05ed73f027e5c961a5aa1",
        "<stdout>":
            "afa11101568fe704cc70caf4f08075870e1bc4f275c05ed73f027e5c961a5aa1",
    },
    "compare-files": {
        "resolved_config.txt":
            "2bee495941ba23983e2b1789dd9e3ef29e7f70e8d8301b459f16c1776a92099a",
        "summary.csv":
            "c0427d499275fee557f7c2d7ece6eae9b5d93763f2807744fbff9dceebb5020c",
        "summary.md":
            "eb8f3b2b95213d1f3353b6ed1f3442bf641a90f88656c1193d473a8aef2f3ecb",
        "<stdout>":
            "eb8f3b2b95213d1f3353b6ed1f3442bf641a90f88656c1193d473a8aef2f3ecb",
    },
    "hist": {
        "hist_embedding.tsv":
            "c263fc34c0445e4ae64450357d3f8576efbe0ee597e13fb7207f88d6b6d24119",
        "hist_entity.tsv":
            "f0f971fd175e3c47bb22ce7720156699e098cc567af77e31f632caec1e4f4678",
        "hist_esa.tsv":
            "a065454a36f5bc0d0a8802d9cbc5a6463baf78bab0e789da264660f941587f6a",
        "resolved_config.txt":
            "bb30ee62a5f1c2cecfecb8944231faccc60078cf0f74d5459800990101cf0285",
        "<stdout>":
            "d72601f965fa4d9f0ab28dfacedb63ada96ed9424bb0d7803515249f7ce19589",
    },
    "hist-files": {
        "hist_entity.tsv":
            "1b2519db42692f51e5fadefe45a7ec12b765bb98e904b3b390546ae07b1adb90",
        "hist_esa.tsv":
            "74df3944bd9c4c91465c757d05e00f019f2bed5b609f1040a53faf0fd3075932",
        "resolved_config.txt":
            "2bee495941ba23983e2b1789dd9e3ef29e7f70e8d8301b459f16c1776a92099a",
        "<stdout>":
            "9364ab8b8b1ec610d1236e1b2a4a2cd2a3b8b904ce5900168205b0cd26d8eced",
    },
    "report": {
        "hist_embedding.tsv":
            "167d7656ac307552814cad9b4ca2355c5668e0bf9bc928ec568cab2c115410ac",
        "hist_entity.tsv":
            "1b2519db42692f51e5fadefe45a7ec12b765bb98e904b3b390546ae07b1adb90",
        "hist_esa.tsv":
            "74df3944bd9c4c91465c757d05e00f019f2bed5b609f1040a53faf0fd3075932",
        "report.md":
            "593082cb8c705a4cb68ab3309b250dc0cafe0ceba402e368c07dfb48fd558127",
        "resolved_config.txt":
            "bb7f35a7b580aacbc7092b8f1bb4cfe9f2855ee250bb9e45398e1d3d894bdbbb",
        "scores_embedding.csv":
            "a10c4950d800330afe915fa88c4d0621565d2d76df162b00221ff2268ab138ca",
        "scores_entity.csv":
            "1a3b15eb200f20221c92ac03d3a89b2fc12ad37972e58b2b4a187b46ee949b36",
        "scores_esa.csv":
            "6e5f6858281ee509ba67427f197b8e1ea5dc5579265accaaf9d065091f7021af",
        "summary.csv":
            "c3a561da8809676a0d34a4d612552d33f1d2622b0f8e20fdb7dd6865fc359748",
        "summary.md":
            "afa11101568fe704cc70caf4f08075870e1bc4f275c05ed73f027e5c961a5aa1",
        "<stdout>":
            "b6eea0c5592a030704218ffe9f09daa69ad66bbc01095c135148de2ca5417dba",
    },
    "score": {
        "resolved_config.txt":
            "bb7f35a7b580aacbc7092b8f1bb4cfe9f2855ee250bb9e45398e1d3d894bdbbb",
        "scores_embedding.csv":
            "a10c4950d800330afe915fa88c4d0621565d2d76df162b00221ff2268ab138ca",
        "scores_entity.csv":
            "1a3b15eb200f20221c92ac03d3a89b2fc12ad37972e58b2b4a187b46ee949b36",
        "scores_esa.csv":
            "6e5f6858281ee509ba67427f197b8e1ea5dc5579265accaaf9d065091f7021af",
        "<stdout>":
            "cc5b4e423c6378ff4cfe283b22ba6bd18fff4fd36e5bcff5599d03e6d544b230",
    },
    "stats": {
        "dataset_stats.csv":
            "4b5c3dc5209a276d89a65a7fafbe7165fa9470f0730582ec4ed553910ed95235",
        "dataset_stats.md":
            "4cd7e15970cf059dbc5f3fc828e995e92d748af0665b055fe6588eacb9934ed1",
        "resolved_config.txt":
            "bb7f35a7b580aacbc7092b8f1bb4cfe9f2855ee250bb9e45398e1d3d894bdbbb",
        "<stdout>":
            "4cd7e15970cf059dbc5f3fc828e995e92d748af0665b055fe6588eacb9934ed1",
    },
    "stats-no-entities": {
        "dataset_stats.csv":
            "057376dfa3629fd403328609a6278b236f938b07a94389a743ce7f7f1c9a658b",
        "dataset_stats.md":
            "d0a8f40201aec7bca8ebd588b50320415b26dc28bd89fd1afca3ded3cec39c71",
        "resolved_config.txt":
            "4ac5a2dadd26e3811e55dbfa8696017da09e623074f957e14678e27f89bbc61c",
        "<stdout>":
            "d0a8f40201aec7bca8ebd588b50320415b26dc28bd89fd1afca3ded3cec39c71",
    },
}


def _sha(data: bytes, workspace) -> str:
    return hashlib.sha256(data.replace(str(workspace).encode(), b"<ws>")).hexdigest()


class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
    def test_outputs_unchanged(self, workspace, capsys, case):
        ws, out = str(workspace), str(workspace / "out")
        if case.endswith("-files"):
            assert main(["score", "--config", str(workspace / "run.conf"),
                         "--out-dir", str(workspace / "scores")]) == EXIT_OK
        capsys.readouterr()
        (workspace / "out").mkdir()
        args = [a.format(ws=ws, out=out) for a in GOLDEN_RUNS[case]]
        rc = main(args[:1] + ["--config", str(workspace / "run.conf")] + args[1:])
        assert rc == EXIT_OK
        got = {p.name: _sha(p.read_bytes(), workspace)
               for p in sorted((workspace / "out").iterdir())}
        got["<stdout>"] = _sha(capsys.readouterr().out.encode(), workspace)
        assert got == GOLDEN_SHA256[case]
