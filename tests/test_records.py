import dataclasses
import io
import json
import math
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from litla.graph import build_graph
from litla.records import (
    INTENT_LABELS,
    PUB_TYPES,
    YEAR_MAX,
    YEAR_MIN,
    Author,
    CitationStatement,
    ExclusionPolicy,
    PaperRecord,
    SchemaError,
    _check_chars,
    apply_exclusions,
    parse_records,
    rejection_counts,
)

from conftest import serialize_records


def _line(**overrides):
    base = {"id": "p1", "title": "A paper", "year": 2015}
    base.update(overrides)
    return json.dumps(base)


def _parse(*lines):
    return parse_records(io.StringIO("\n".join(lines)))


def rec(id="r", year=2015, language="English", page_count=8, doc_type="article",
        **kw):
    return PaperRecord(id=id, title="t", year=year, language=language,
                       page_count=page_count, doc_type=doc_type, **kw)


class TestParse:
    def test_valid_line_full_fields(self):
        records, errors = _parse(_line(
            abstract="text", authors=[{"name": "A B", "affiliation": "X, UK"}],
            venue="V", pub_type="journal", author_keywords=["k"],
            subject_categories=["c"], publisher="P", citation_count=3,
            page_count=10, references=["p2"], language="English",
            doc_type="article", citation_statements=[{"text": "s", "intent": "method"}],
            extracted_keywords=["k2"], embedding=[0.5, 1.5]))
        assert len(records) == 1 and not errors
        assert records[0].authors[0].name == "A B"
        assert records[0].embedding == [0.5, 1.5]

    def test_missing_id_is_line_error(self):
        records, errors = _parse(json.dumps({"title": "t", "year": 2000}))
        assert records == []
        assert len(errors) == 1 and errors[0].line == 1
        assert "id" in errors[0].message

    def test_bad_line_does_not_abort_batch(self):
        records, errors = _parse("{ not json", _line())
        assert len(records) == 1 and len(errors) == 1
        assert errors[0].line == 1

    def test_year_range_enforced(self):
        _, errors = _parse(_line(year=1492))
        assert len(errors) == 1

    def test_unknown_field_rejected(self):
        _, errors = _parse(_line(surprise=1))
        assert len(errors) == 1 and "surprise" in errors[0].message

    def test_unknown_fields_named_in_sorted_order(self):
        _, errors = _parse(_line(surprise=1, a=2))
        assert [e.message for e in errors] == ["unknown fields: ['a', 'surprise']"]

    def test_embedding_dimension_must_match_corpus(self):
        records, errors = _parse(_line(id="a", embedding=[1.0, 2.0]),
                                 _line(id="b", embedding=[1.0]))
        assert [r.id for r in records] == ["a"]
        assert len(errors) == 1 and "dimension" in errors[0].message

    def test_duplicate_id_keeps_first_occurrence(self):
        records, errors = _parse(_line(id="a", title="first"), _line(id="b"), "",
                                 _line(id="a", title="second"), _line(id="a"))
        assert [(r.id, r.title) for r in records] == [("a", "first"), ("b", "A paper")]
        assert [(e.line, e.message) for e in errors] == [
            (4, "duplicate_id: 'a' first kept on line 1"),
            (5, "duplicate_id: 'a' first kept on line 1")]

    def test_id_of_rejected_line_stays_free(self):
        records, errors = _parse(_line(id="a", embedding=[1.0, 2.0]),
                                 _line(id="b", embedding=[1.0]),
                                 _line(id="b", embedding=[3.0, 4.0]))
        assert [r.id for r in records] == ["a", "b"]
        assert [e.line for e in errors] == [2]

    def test_non_finite_embedding_rejected(self):
        bad = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]
        lines = ['{"id": "p%d", "title": "t", "year": 2015, "embedding": [0.5, %s]}' % (k, v)
                 for k, v in enumerate(bad)]
        records, errors = _parse(*lines, _line(id="ok", embedding=[0.5, 1]))
        assert [r.id for r in records] == ["ok"]
        assert [e.line for e in errors] == [1, 2, 3, 4, 5]
        assert all(e.message == "embedding values must be finite" for e in errors)

    @given(st.lists(st.one_of(
        st.floats(), st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=2),
        st.sampled_from([sys.float_info.max, -sys.float_info.max, 2 ** 1024, -(2 ** 1024),
                         int(sys.float_info.max), int(sys.float_info.max) + 1])),
        max_size=6))
    def test_embedding_check_matches_two_pass_reference(self, values):
        records, errors = _parse(json.dumps({"id": "p", "title": "t", "year": 2015,
                                             "embedding": values}))
        expected = embedding_reference(values)
        if isinstance(expected, str):
            assert [e.message for e in errors] == [expected] and not records
        else:
            assert not errors
            assert repr(records[0].embedding) == repr(expected)
            assert all(type(v) is float for v in records[0].embedding)

    @pytest.mark.parametrize("value", [{}, "1.0", 3.0, [[1.0]], [True, 1.0]])
    def test_embedding_of_wrong_shape_rejected(self, value):
        records, errors = _parse(_line(embedding=value))
        assert [e.message for e in errors] == ["embedding must be a non-empty list of numbers"]

    @pytest.mark.parametrize("field, value, code", [
        ("title", "bad \ud800 title", 0xD800), ("title", "a\x01b", 0x01),
        ("title", "a\x0bb", 0x0B), ("abstract", "ok\ufffe", 0xFFFE), ("id", "p\x00", 0x00),
        ("venue", "\uffff", 0xFFFF),
        ("authors", [{"name": "Ana", "affiliation": "Lab\x1f, Spain"}], 0x1F),
        ("author_keywords", ["ok", "\udc80"], 0xDC80), ("references", ["\x08"], 0x08),
        ("citation_statements", [{"text": "\x0c"}], 0x0C),
        ("extracted_keywords", ["\x7f\x02"], 0x02), ("subject_categories", ["\x1b"], 0x1B),
        ("publisher", "\x0e", 0x0E), ("language", "\x01", 0x01), ("doc_type", "\x03", 0x03)])
    def test_unsafe_character_is_line_error(self, field, value, code):
        obj = {"id": "bad", "title": "t", "year": 2015, field: value}
        records, errors = _parse(json.dumps(obj), _line(id="good"))
        assert [r.id for r in records] == ["good"]
        assert [(e.line, e.message) for e in errors] == [
            (1, f"{field} holds U+{code:04X}, which the reports cannot carry")]

    @pytest.mark.parametrize("text", ["tab\tnew\nline\rreturn", "\x7f\x85\u2028", "\ufffd",
                                      "\U0001f600 \ud7ff \ue000"])
    def test_safe_characters_kept(self, text):
        records, errors = _parse(_line(title=text))
        assert not errors and records[0].title == text

    @pytest.mark.parametrize("field, value", [
        ("authors", 5), ("authors", None), ("citation_statements", 3)])
    def test_non_list_field_is_line_error(self, field, value):
        records, errors = _parse(_line(id="bad", **{field: value}), _line(id="good"))
        assert [r.id for r in records] == ["good"]
        assert [(e.line, e.message) for e in errors] == [(1, f"{field} must be a list")]

    def test_bytes_stream(self):
        records, errors = parse_records(io.BytesIO(_line().encode() + b"\n"))
        assert len(records) == 1 and not errors

    def test_fixture_round_trips_byte_identically(self, fixture_records):
        assert len(fixture_records) == 200
        canonical = serialize_records(fixture_records)
        reparsed, errors = parse_records(io.StringIO(canonical))
        assert not errors
        assert serialize_records(reparsed) == canonical

    def test_fixture_regenerates_byte_identically(self, fixture_dir, tmp_path):
        script = fixture_dir.parent / "scripts" / "make_fixture.py"
        subprocess.run([sys.executable, str(script), "--out", str(tmp_path)],
                       check=True, capture_output=True)
        for name in ("records.jsonl", "queries.txt", "config.toml"):
            assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name


def embedding_reference(embedding):
    """The two-pass embedding check the parser made before it checked in
    one pass: the float list, or the message of the rejection."""
    if not (isinstance(embedding, list) and len(embedding) > 0
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in embedding)):
        return "embedding must be a non-empty list of numbers"
    if not all(abs(v) <= sys.float_info.max for v in embedding):
        return "embedding values must be finite"
    return [float(v) for v in embedding]


def record_reference(obj) -> PaperRecord:
    """The record parser that restated every field and default in one
    constructor call, checking the string lists as it went: the record, or
    :class:`SchemaError` with the message of the first failed check."""
    def expect(cond, message):
        if not cond:
            raise SchemaError(message)

    def str_list(value, name):
        expect(isinstance(value, list) and all(isinstance(v, str) for v in value),
               f"{name} must be a list of strings")
        return list(value)

    expect(isinstance(obj, dict), "record must be a JSON object")
    unknown = obj.keys() - {f.name for f in dataclasses.fields(PaperRecord)}
    expect(not unknown, f"unknown fields: {sorted(unknown)}")
    expect("id" in obj, "missing required field 'id'")
    expect(isinstance(obj["id"], str) and obj["id"], "id must be a non-empty string")
    expect("title" in obj, "missing required field 'title'")
    expect(isinstance(obj["title"], str), "title must be a string")
    expect("year" in obj, "missing required field 'year'")
    year = obj["year"]
    expect(isinstance(year, int) and not isinstance(year, bool)
           and YEAR_MIN <= year <= YEAR_MAX,
           f"year must be an integer in [{YEAR_MIN}, {YEAR_MAX}]")
    expect(isinstance(obj.get("authors", []), list), "authors must be a list")
    expect(isinstance(obj.get("citation_statements", []), list),
           "citation_statements must be a list")
    authors = []
    for a in obj.get("authors", []):
        expect(isinstance(a, dict) and isinstance(a.get("name"), str) and a["name"],
               "author entries must be objects with a non-empty 'name'")
        expect(set(a) <= {"name", "affiliation"}, "author entries allow only name/affiliation")
        aff = a.get("affiliation", "")
        expect(isinstance(aff, str), "author affiliation must be a string")
        authors.append(Author(name=a["name"], affiliation=aff))
    statements = []
    for s in obj.get("citation_statements", []):
        expect(isinstance(s, dict) and isinstance(s.get("text"), str),
               "citation statements must be objects with 'text'")
        expect(set(s) <= {"text", "intent"}, "citation statements allow only text/intent")
        intent = s.get("intent")
        expect(intent is None or intent in INTENT_LABELS,
               f"intent must be one of {INTENT_LABELS} or null")
        statements.append(CitationStatement(text=s["text"], intent=intent))
    pub_type = obj.get("pub_type", "other")
    expect(pub_type in PUB_TYPES, f"pub_type must be one of {PUB_TYPES}")
    for name in ("citation_count", "page_count"):
        v = obj.get(name, 0)
        expect(isinstance(v, int) and not isinstance(v, bool) and v >= 0,
               f"{name} must be a non-negative integer")
    embedding = obj.get("embedding")
    if embedding is not None:
        result = embedding_reference(embedding)
        expect(not isinstance(result, str), result)
        embedding = result
    for name in ("abstract", "venue", "publisher", "language", "doc_type"):
        expect(isinstance(obj.get(name, ""), str), f"{name} must be a string")
    rec = PaperRecord(
        id=obj["id"],
        title=obj["title"],
        year=year,
        abstract=obj.get("abstract", ""),
        authors=authors,
        venue=obj.get("venue", ""),
        pub_type=pub_type,
        author_keywords=str_list(obj.get("author_keywords", []), "author_keywords"),
        subject_categories=str_list(obj.get("subject_categories", []), "subject_categories"),
        publisher=obj.get("publisher", ""),
        citation_count=obj.get("citation_count", 0),
        page_count=obj.get("page_count", 0),
        references=str_list(obj.get("references", []), "references"),
        language=obj.get("language", "English"),
        doc_type=obj.get("doc_type", "article"),
        citation_statements=statements,
        extracted_keywords=str_list(obj.get("extracted_keywords", []), "extracted_keywords"),
        embedding=embedding,
    )
    _check_chars(rec)
    return rec


# no control, surrogate or unassigned character, so every drawn text is safe
_safe_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Cn")), max_size=6)
_str_lists = st.lists(_safe_text, max_size=3)
_full_obj = st.fixed_dictionaries(
    {"id": _safe_text.filter(bool), "title": _safe_text, "year": st.integers(YEAR_MIN, YEAR_MAX)},
    optional={
        "abstract": _safe_text, "venue": _safe_text, "publisher": _safe_text,
        "language": _safe_text, "doc_type": _safe_text,
        "authors": st.lists(st.fixed_dictionaries(
            {"name": _safe_text.filter(bool)}, optional={"affiliation": _safe_text}), max_size=3),
        "pub_type": st.sampled_from(PUB_TYPES),
        "author_keywords": _str_lists, "subject_categories": _str_lists,
        "references": _str_lists, "extracted_keywords": _str_lists,
        "citation_count": st.integers(0, 99), "page_count": st.integers(0, 99),
        "citation_statements": st.lists(st.fixed_dictionaries(
            {"text": _safe_text}, optional={"intent": st.sampled_from(INTENT_LABELS + (None,))}),
            max_size=2),
        "embedding": st.one_of(st.none(), st.lists(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.integers(-9, 9)),
            min_size=1, max_size=3)),
    })

# field -> values that fail its check on their own
_WRONG_VALUES = {
    "id": [5, "", None, "p\x00"], "title": [3, None, "a\x01b"], "year": ["2015", 1492, True, 2.0],
    "abstract": [3, None], "venue": [["v"]], "publisher": [False], "language": [None, "\ud800"],
    "doc_type": [1], "pub_type": ["book", None],
    "authors": ["Ana", 5, None, [{"name": ""}], [{"name": "A", "x": 1}],
                [{"name": "A", "affiliation": 3}], [{"name": "A", "affiliation": "\x1f"}]],
    "author_keywords": ["k", [1], None], "subject_categories": [[["x"]], {}],
    "references": [None, ["p2", 3]], "extracted_keywords": ["", [True], ["\x02"]],
    "citation_count": [-1, True, 1.5], "page_count": ["3", -2],
    "citation_statements": [None, 3, [{"text": 3}], [{"text": "a", "y": 1}],
                            [{"text": "a", "intent": "bogus"}]],
    "embedding": [[], ["1.0"], [True], 3.0, [[1.0]], {}],
    "colour": ["red"],
}


def _parsed_outcome(obj):
    """(record reprs, error messages) of ``obj`` as one parsed line."""
    records, errors = _parse(json.dumps(obj))
    return [repr(r) for r in records], [e.message for e in errors]


def _reference_outcome(obj):
    try:
        return [repr(record_reference(json.loads(json.dumps(obj))))], []
    except SchemaError as exc:
        return [], [str(exc)]


@given(_full_obj)
def test_record_matches_field_by_field_reference(obj):
    outcome = _parsed_outcome(obj)
    assert outcome == _reference_outcome(obj)
    assert not outcome[1]


@given(_full_obj, st.lists(st.sampled_from(sorted(_WRONG_VALUES)), min_size=1, max_size=3,
                           unique=True), st.data())
def test_wrong_field_gives_reference_message(obj, wrong, data):
    for name in wrong:
        obj[name] = data.draw(st.sampled_from(_WRONG_VALUES[name]), label=name)
    outcome = _parsed_outcome(obj)
    assert outcome == _reference_outcome(obj)
    assert not outcome[0]


def test_every_pair_of_wrong_fields_gives_reference_message():
    # the first failed check names the line, so the checks keep their order
    for a, b in combinations(sorted(_WRONG_VALUES), 2):
        for va, vb in product(_WRONG_VALUES[a], _WRONG_VALUES[b]):
            obj = {"id": "p", "title": "t", "year": 2015, a: va, b: vb}
            assert _parsed_outcome(obj) == _reference_outcome(obj), (a, va, b, vb)


class TestExclusions:
    def test_under_four_pages_rejected(self):
        kept, rejected = apply_exclusions([rec(page_count=3)], ExclusionPolicy())
        assert kept == []
        assert rejected[0][1] == "min_pages"

    def test_clean_record_kept(self):
        kept, rejected = apply_exclusions([rec()], ExclusionPolicy())
        assert len(kept) == 1 and not rejected

    def test_counts_on_mixed_corpus(self):
        records = [rec(id=f"r{i}") for i in range(7)]
        records += [rec(id="g", language="German"), rec(id="f", language="French")]
        records += [rec(id="s", page_count=2)]
        kept, rejected = apply_exclusions(records, ExclusionPolicy())
        assert len(kept) == 7
        assert rejection_counts(rejected) == {"language": 2, "min_pages": 1}

    def test_partition_preserves_multiset(self):
        records = [rec(id=f"r{i}", page_count=2 + i) for i in range(6)]
        kept, rejected = apply_exclusions(records, ExclusionPolicy())
        assert sorted([r.id for r in kept] + [r.id for r, _ in rejected]) \
            == sorted(r.id for r in records)

    def test_single_primary_reason(self):
        # violates language AND pages; language is the first protocol rule
        kept, rejected = apply_exclusions(
            [rec(language="German", page_count=1)], ExclusionPolicy())
        assert rejected[0][1] == "language"

    def test_extended_version_list(self):
        policy = ExclusionPolicy(drop_extended_versions=True,
                                 extended_version_ids=frozenset({"x"}))
        kept, rejected = apply_exclusions([rec(id="x"), rec(id="y")], policy)
        assert [r.id for r in kept] == ["y"]
        assert rejected[0][1] == "extended_version"

    @given(st.lists(st.tuples(st.integers(1, 20), st.sampled_from(
        ["English", "German"]), st.sampled_from(["article", "book"])), max_size=30))
    def test_idempotent(self, specs):
        records = [rec(id=f"r{i}", page_count=p, language=lang, doc_type=doc)
                   for i, (p, lang, doc) in enumerate(specs)]
        policy = ExclusionPolicy()
        kept, _ = apply_exclusions(records, policy)
        kept2, rejected2 = apply_exclusions(kept, policy)
        assert kept2 == kept and rejected2 == []


# --- ingest fuzzing: parse -> exclusions -> build_graph --------------------------

_IDS = [f"p{i}" for i in range(6)]
_NAMES = ["Ana Ruiz", "Bo Li", "Chen Wei"]

_valid_obj = st.fixed_dictionaries(
    {"id": st.sampled_from(_IDS), "title": st.text(max_size=12),
     "year": st.integers(1990, 2030)},
    optional={
        "authors": st.lists(st.builds(lambda n, a: {"name": n, "affiliation": a},
                                      st.sampled_from(_NAMES),
                                      st.sampled_from(["", "MIT, USA", "X"])), max_size=3),
        "references": st.lists(st.sampled_from(_IDS + ["ext-1"]), max_size=4),
        "author_keywords": st.lists(st.sampled_from(["moead", "pareto", "MOEAD"]),
                                    max_size=3),
        "language": st.sampled_from(["English", "english", "French"]),
        "doc_type": st.sampled_from(["article", "Book", "keynote"]),
        "page_count": st.integers(0, 12),
        "embedding": st.lists(st.floats(-5, 5), min_size=2, max_size=3),
        "citation_statements": st.lists(st.builds(
            lambda t, i: {"text": t, "intent": i}, st.text(max_size=5),
            st.sampled_from([None, "method"])), max_size=2),
    })

# each is wrong on its own line, whatever the rest of the corpus holds
_malformed_line = st.one_of(
    st.sampled_from([b"{", b"not json", b'{"id": "p1", "title"', b"[1, 2]", b"null",
                     b"\xff\xfe{}"]),
    st.sampled_from([
        {"id": 5, "title": "t", "year": 2015},
        {"id": "m", "title": "t", "year": "2015"},
        {"id": "m", "title": "t", "year": 2015, "authors": "Ana Ruiz"},
        {"id": "m", "title": "t", "year": 2015, "authors": 5},
        {"id": "m", "title": "t", "year": 2015, "citation_statements": None},
        {"id": "m", "title": "t", "year": 2015, "embedding": [1.0, float("nan")]},
        {"id": "m", "title": "t", "year": 2015, "embedding": [float("inf"), 0.0]},
        {"id": "m", "title": "t", "year": 2015, "embedding": ["1.0", 2.0]},
        {"id": "m", "title": "t", "year": 2015, "page_count": -1},
        {"id": "m", "title": "t", "year": 2015, "colour": "red"},
    ]).map(lambda obj: json.dumps(obj).encode()))


@given(st.lists(st.one_of(_valid_obj.map(lambda obj: (True, json.dumps(obj).encode())),
                          _malformed_line.map(lambda line: (False, line))),
                max_size=25))
def test_ingest_fuzz_counts_every_line_once(lines):
    stream = io.BytesIO(b"".join(line + b"\n" for _, line in lines))
    records, errors = parse_records(stream)
    kept, rejected = apply_exclusions(records, ExclusionPolicy())
    build_graph(kept)

    error_lines = [e.line for e in errors]
    assert len(set(error_lines)) == len(error_lines)
    assert len(kept) + len(rejected) + len(errors) == len(lines)
    assert {i for i, (valid, _) in enumerate(lines, start=1) if not valid} <= set(error_lines)
    ids = [r.id for r in kept] + [r.id for r, _ in rejected]
    assert len(set(ids)) == len(ids)
