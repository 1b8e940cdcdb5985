import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkanalogy.datasets import (
    AnalogyQuestion,
    RelationDataset,
    parse_google,
    parse_msr,
    write_google,
)


# letters, whitespace that str.split and str.strip see, line breaks and the header mark
TRICKY = st.sampled_from(["a", "B", ":", ")", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\u00e9"])


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestGoogle:
    def test_basic_grouping(self, tmp_path):
        ds = parse_google(
            write(tmp_path, ": capital-common-countries\nathens greece baghdad iraq\n")
        )
        assert ds.relation_names() == ["capital-common-countries"]
        (q,) = ds.relations["capital-common-countries"]
        assert (q.a, q.b, q.x, q.y) == ("athens", "greece", "baghdad", "iraq")

    def test_case_preserved(self, tmp_path):
        ds = parse_google(write(tmp_path, ": family\nBoy Girl King Queen\n"))
        q = ds.relations["family"][0]
        assert q.a == "Boy" and q.y == "Queen"

    def test_multiple_relations(self, tmp_path):
        ds = parse_google(
            write(tmp_path, ": r1\na b c d\ne f g h\n: r2\ni j k l\n")
        )
        assert ds.relation_names() == ["r1", "r2"]
        assert len(ds.relations["r1"]) == 2
        assert ds.n_questions() == 3

    def test_empty_file_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="no analogy questions"):
            ds = parse_google(write(tmp_path, ""))
        assert ds.n_questions() == 0

    def test_question_before_header(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            parse_google(write(tmp_path, "a b c d\n"))

    def test_wrong_token_count(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            parse_google(write(tmp_path, ": r\na b c\n"))


class TestMsr:
    def test_adjective_tag(self, tmp_path):
        ds = parse_msr(write(tmp_path, "good better rough rougher JJ_JJR\n"))
        assert ds.relation_names() == ["adjectives"]
        q = ds.relations["adjectives"][0]
        assert (q.a, q.b, q.x, q.y) == ("good", "better", "rough", "rougher")

    def test_all_three_classes(self, tmp_path):
        text = (
            "good better rough rougher JJ_JJR\n"
            "car cars tree trees NN_NNS\n"
            "walk walked run ran VB_VBD\n"
        )
        ds = parse_msr(write(tmp_path, text))
        assert set(ds.relation_names()) == {"adjectives", "nouns", "verbs"}

    def test_three_tokens_is_error(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            parse_msr(write(tmp_path, "a b c\n"))

    def test_unknown_tag(self, tmp_path):
        with pytest.raises(ValueError, match="does not map"):
            parse_msr(write(tmp_path, "a b c d XX\n"))

    def test_tag_column_flag(self, tmp_path):
        ds = parse_msr(write(tmp_path, "JJ_JJR good better rough rougher\n"), tag_column=0)
        q = ds.relations["adjectives"][0]
        assert (q.a, q.b, q.x, q.y) == ("good", "better", "rough", "rougher")

    def test_bad_tag_column(self, tmp_path):
        with pytest.raises(ValueError, match="tag_column"):
            parse_msr(write(tmp_path, "a b c d JJ\n"), tag_column=7)


class TestRoundTrip:
    def test_write_then_parse(self, tmp_path):
        ds = RelationDataset(source="google")
        ds.add(AnalogyQuestion("a", "b", "c", "d", "r1"))
        ds.add(AnalogyQuestion("e", "f", "g", "h", "r1"))
        ds.add(AnalogyQuestion("i", "j", "k", "l", "r2"))
        path = str(tmp_path / "out.txt")
        write_google(ds, path)
        back = parse_google(path)
        assert back.relation_names() == ds.relation_names()
        for name in ds.relations:
            assert [q.tokens() for q in back.relations[name]] == [
                q.tokens() for q in ds.relations[name]
            ]


    @pytest.mark.parametrize("relation, tokens, bad", [
        ("smile", (":)", "smile", "x", "y"), "':)'"),
        ("r", ("a b", "c", "d", "e"), "'a b'"),
        (" padded ", ("a", "b", "c", "d"), "' padded '"),
        ("two\nlines", ("a", "b", "c", "d"), "'two\\nlines'"),
    ])
    def test_unreadable_values_refused_before_the_file_opens(self, tmp_path, relation, tokens, bad):
        ds = RelationDataset()
        ds.add(AnalogyQuestion(*tokens, relation))
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=re.escape(bad)):
            write_google(ds, str(path))
        assert not path.exists()

    def test_question_under_another_relation_refused_before_the_file_opens(self, tmp_path):
        ds = RelationDataset(relations={"capitals": [AnalogyQuestion("a", "b", "c", "d", "family")]})
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=r"'a b c d'.*'family'.*'capitals'"):
            write_google(ds, str(path))
        assert not path.exists()

    @given(st.lists(
        st.tuples(st.text(alphabet=TRICKY, min_size=1, max_size=6),
                  st.tuples(*[st.text(alphabet=TRICKY, min_size=1, max_size=4)] * 4)),
        min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_written_datasets_read_back_equal_or_are_refused(self, tmp_path_factory, drawn):
        ds = RelationDataset(source="google")
        for relation, tokens in drawn:
            ds.add(AnalogyQuestion(*tokens, relation))
        path = tmp_path_factory.mktemp("google") / "out.txt"
        try:
            write_google(ds, str(path))
        except ValueError:
            assert not path.exists()
            return
        assert parse_google(str(path)).relations == ds.relations


class TestQuestion:
    def test_empty_token_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AnalogyQuestion("", "b", "x", "y", "r")
        with pytest.raises(ValueError, match="empty"):
            AnalogyQuestion("a", "b", "x", "y", "")
