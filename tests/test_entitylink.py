from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from newscoherence.corpus import Document, LabeledCorpus, Label, segment_corpus
from newscoherence.entitylink import (
    EntityLinkError,
    build_gazetteer,
    entity_set,
    extract_entities,
    load_aliases,
)

from conftest import make_doc, make_table
from oracle import extract_entities_ref


@pytest.fixture
def entity_table():
    return make_table(
        {
            "United_Kingdom": [1.0, 0.0, 0.0],
            "European_Union": [0.0, 1.0, 0.0],
            "Brexit": [0.0, 0.0, 1.0],
            "UK": [1.0, 0.0, 0.1],
        }
    )


class TestBuildGazetteer:
    def test_surfaces_and_phrase_len(self, entity_table):
        gaz = build_gazetteer(entity_table)
        assert gaz.surfaces[("united", "kingdom")] == "United_Kingdom"
        assert gaz.surfaces[("brexit",)] == "Brexit"
        assert gaz.max_phrase_len == 2

    def test_empty_table_rejected(self):
        table = make_table({"x": [1.0]})
        table.entries = {}
        with pytest.raises(EntityLinkError):
            build_gazetteer(table)

    def test_single_token_surface(self, entity_table):
        gaz = build_gazetteer(entity_table)
        assert gaz.surfaces[("uk",)] == "UK"


class TestExtractEntities:
    def test_paper_fragment(self, entity_table):
        doc = make_doc("d", "UK is due to leave the European Union in 2020.")
        gaz = build_gazetteer(entity_table)
        mentions = extract_entities(doc, gaz)
        assert [m.entity_id for m in mentions] == ["UK", "European_Union"]
        for m in mentions:
            assert doc.text[m.start:m.end] == m.surface

    def test_no_matches(self, entity_table):
        doc = make_doc("d", "Nothing relevant here at all.")
        assert extract_entities(doc, build_gazetteer(entity_table)) == []

    def test_repeated_mention_non_overlapping(self):
        table = make_table({"New_York": [1.0, 0.0]})
        doc = make_doc("d", "New York New York is a song.")
        mentions = extract_entities(doc, build_gazetteer(table))
        assert len(mentions) == 2
        assert mentions[0].end <= mentions[1].start

    def test_longest_match_wins(self):
        table = make_table({"European_Union": [1.0, 0.0], "Union": [0.0, 1.0]})
        doc = make_doc("d", "The European Union met today.")
        mentions = extract_entities(doc, build_gazetteer(table))
        assert [m.entity_id for m in mentions] == ["European_Union"]

    def test_uppercase_heuristic(self, entity_table):
        doc = make_doc("d", "They discussed brexit quietly.")
        gaz = build_gazetteer(entity_table)
        assert extract_entities(doc, gaz) == []
        mentions = extract_entities(doc, gaz, require_uppercase=False)
        assert [m.entity_id for m in mentions] == ["Brexit"]

    def test_digit_initial_allowed(self):
        table = make_table({"2020_Olympics": [1.0, 0.0]})
        doc = make_doc("d", "The 2020 Olympics were delayed.")
        mentions = extract_entities(doc, build_gazetteer(table))
        assert [m.entity_id for m in mentions] == ["2020_Olympics"]

    def test_mentions_never_overlap(self, entity_table):
        doc = make_doc("d", "UK and the European Union and the UK met. Brexit loomed.")
        mentions = extract_entities(doc, build_gazetteer(entity_table))
        for a, b in zip(mentions, mentions[1:]):
            assert a.end <= b.start

    def test_requires_segmentation(self, entity_table):
        doc = Document(id="d", label="fake", text="UK votes.")
        with pytest.raises(EntityLinkError):
            extract_entities(doc, build_gazetteer(entity_table))

    def test_independent_of_construction_order(self, entity_table):
        doc = make_doc("d", "UK is due to leave the European Union in 2020.")
        gaz_fwd = build_gazetteer(entity_table)
        reversed_table = make_table(
            {k: list(v) for k, v in reversed(list(entity_table.entries.items()))}
        )
        gaz_rev = build_gazetteer(reversed_table)
        assert extract_entities(doc, gaz_fwd) == extract_entities(doc, gaz_rev)


class TestTitleSentence:
    """A title prepended as sentence 0 is never linked, and no body sentence is lost."""

    @pytest.fixture
    def gaz(self):
        return build_gazetteer(make_table({"Barack_Obama": [1.0, 0.0], "Paris": [0.0, 1.0],
                                           "Angela_Merkel": [1.0, 1.0]}))

    def _mentions(self, gaz, text, title):
        doc = Document(id="d", label=Label.FAKE, text=text, title=title)
        segment_corpus(LabeledCorpus(documents=[doc]), include_title=True)
        return [(m.entity_id, m.start, m.surface) for m in extract_entities(doc, gaz)]

    def test_title_found_later_in_the_body(self, gaz):
        text = "Barack Obama spoke. Paris hosted Angela Merkel. Barack Obama left."
        assert self._mentions(gaz, text, "Paris") == [
            ("Barack_Obama", 0, "Barack Obama"), ("Paris", 20, "Paris"),
            ("Angela_Merkel", 33, "Angela Merkel"), ("Barack_Obama", 48, "Barack Obama")]

    def test_title_is_a_fragment_of_the_first_sentence(self, gaz):
        text = "Barack Obama spoke in Paris. Angela Merkel replied."
        assert self._mentions(gaz, text, "Barack Obama") == [
            ("Barack_Obama", 0, "Barack Obama"), ("Paris", 22, "Paris"),
            ("Angela_Merkel", 29, "Angela Merkel")]


# Name tokens with dotted capital I (two characters lower-cased), sigma in its
# three forms, sharp s, digits and underscores.
_NAMES = ["barack", "obama", "paris", "new", "york", "straße", "İstanbul", "ΣΙΣΥΦΟΣ",
          "σίσυφος", "2020", "x1", "a"]
_CASED = st.sampled_from(_NAMES).flatmap(
    lambda w: st.sampled_from([w, w.lower(), w.upper(), w.capitalize()]))


@st.composite
def _linking_case(draw):
    """An entity table, alias lines and a text built mostly of their surfaces."""
    ids = draw(st.lists(st.lists(_CASED, min_size=1, max_size=3).map("_".join),
                        min_size=1, max_size=8, unique=True))
    aliases = draw(st.lists(st.tuples(st.lists(_CASED, min_size=1, max_size=3).map(" ".join),
                                      st.sampled_from(ids)), max_size=4))
    surface = st.one_of(st.sampled_from(ids).map(lambda e: e.replace("_", " ")),
                        st.sampled_from([a for a, _ in aliases] or ids))
    piece = st.one_of(surface, surface, _CASED,
                      st.sampled_from(["the", "met", "in", "_", "-", "9", "x_y"]),
                      st.sampled_from([". ", "! ", "? ", ", ", "'s ", " "]))
    text = " ".join(draw(st.lists(piece, min_size=1, max_size=30)))
    return ids, aliases, text, draw(st.one_of(st.none(), surface, _CASED))


class TestLinkerMatchesReference:
    """The linker against the one that re-tokenized each sentence and found it with
    `str.find`: the same mentions, and a title never changes the body's."""

    @seed(20191108)
    @given(_linking_case(), st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_mentions(self, tmp_path, case, require_uppercase):
        ids, aliases, text, title = case
        table = make_table({e: [1.0] for e in ids})
        gaz = build_gazetteer(table)
        alias_path = tmp_path / "aliases.tsv"
        alias_path.write_text("".join(f"{a}\t{e}\n" for a, e in aliases), encoding="utf-8")
        load_aliases(alias_path, table, gaz)
        plain = Document(id="d", label=Label.FAKE, text=text)
        titled = Document(id="t", label=Label.FAKE, text=text, title=title)
        segment_corpus(LabeledCorpus(documents=[plain]))
        segment_corpus(LabeledCorpus(documents=[titled]), include_title=True)
        want = extract_entities_ref(plain, gaz, require_uppercase)
        assert extract_entities(plain, gaz, require_uppercase) == want
        assert extract_entities(titled, gaz, require_uppercase) == want


class TestEntitySet:
    def test_dedup_first_occurrence_order(self):
        from newscoherence.entitylink import EntityMention
        ms = [
            EntityMention("A", 0, 1, "A"),
            EntityMention("B", 2, 3, "B"),
            EntityMention("A", 4, 5, "A"),
        ]
        assert entity_set(ms) == ["A", "B"]

    def test_empty(self):
        assert entity_set([]) == []

    def test_three_distinct(self):
        from newscoherence.entitylink import EntityMention
        ms = [EntityMention(s, i, i + 1, s) for i, s in enumerate("XYZ")]
        assert len(entity_set(ms)) == 3


class TestAliases:
    def test_alias_extends_gazetteer(self, entity_table, tmp_path):
        alias = tmp_path / "alias.tsv"
        alias.write_text("Britain\tUnited_Kingdom\n")
        gaz = build_gazetteer(entity_table)
        load_aliases(alias, entity_table, gaz)
        doc = make_doc("d", "Britain votes to leave.")
        mentions = extract_entities(doc, gaz)
        assert [m.entity_id for m in mentions] == ["United_Kingdom"]

    def test_alias_target_must_have_vector(self, entity_table, tmp_path):
        alias = tmp_path / "alias.tsv"
        alias.write_text("Narnia\tNarnia_Kingdom\n")
        gaz = build_gazetteer(entity_table)
        with pytest.raises(EntityLinkError, match="line 1"):
            load_aliases(alias, entity_table, gaz)

    def test_malformed_alias_line(self, entity_table, tmp_path):
        alias = tmp_path / "alias.tsv"
        alias.write_text("just-one-column\n")
        gaz = build_gazetteer(entity_table)
        with pytest.raises(EntityLinkError, match="line 1"):
            load_aliases(alias, entity_table, gaz)
