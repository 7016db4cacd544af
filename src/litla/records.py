"""Bibliographic records: JSONL parsing and exclusions.

The input format is line-delimited JSON, one record per line, with field
names exactly matching :class:`PaperRecord`. Malformed lines never abort a
batch; they are reported as :class:`ParseError` entries with line numbers.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import IO

import numpy as np

from .config import ExclusionPolicy

PUB_TYPES = ("journal", "conference", "other")
INTENT_LABELS = ("background", "method", "extension", "comparison")

YEAR_MIN = 1900
YEAR_MAX = 2100


@dataclass
class Author:
    name: str
    affiliation: str = ""


@dataclass
class CitationStatement:
    text: str
    intent: str | None = None


@dataclass
class PaperRecord:
    id: str
    title: str
    year: int
    abstract: str = ""
    authors: list[Author] = field(default_factory=list)
    venue: str = ""
    pub_type: str = "other"
    author_keywords: list[str] = field(default_factory=list)
    subject_categories: list[str] = field(default_factory=list)
    publisher: str = ""
    citation_count: int = 0
    page_count: int = 0
    references: list[str] = field(default_factory=list)
    language: str = "English"
    doc_type: str = "article"
    citation_statements: list[CitationStatement] = field(default_factory=list)
    extracted_keywords: list[str] = field(default_factory=list)
    embedding: np.ndarray | None = None  # one read-only float64 row


@dataclass
class ParseError:
    line: int
    message: str


_FIELD_NAMES = frozenset(f.name for f in fields(PaperRecord))


class SchemaError(ValueError):
    pass


# a lone surrogate (no UTF-8 encoding), or a C0 control other than tab, line
# feed and carriage return, U+FFFE or U+FFFF (none allowed in XML 1.0)
_UNSAFE_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _record_from_obj(obj: dict) -> PaperRecord:
    _expect(isinstance(obj, dict), "record must be a JSON object")
    unknown = obj.keys() - _FIELD_NAMES
    _expect(not unknown, f"unknown fields: {sorted(unknown)}")
    _expect("id" in obj, "missing required field 'id'")
    _expect(isinstance(obj["id"], str) and obj["id"], "id must be a non-empty string")
    _expect("title" in obj, "missing required field 'title'")
    _expect(isinstance(obj["title"], str), "title must be a string")
    _expect("year" in obj, "missing required field 'year'")
    year = obj["year"]
    _expect(isinstance(year, int) and not isinstance(year, bool)
            and YEAR_MIN <= year <= YEAR_MAX,
            f"year must be an integer in [{YEAR_MIN}, {YEAR_MAX}]")

    _expect(isinstance(obj.get("authors", []), list), "authors must be a list")
    _expect(isinstance(obj.get("citation_statements", []), list),
            "citation_statements must be a list")
    authors = []
    for a in obj.get("authors", []):
        _expect(isinstance(a, dict) and isinstance(a.get("name"), str) and a["name"],
                "author entries must be objects with a non-empty 'name'")
        _expect(set(a) <= {"name", "affiliation"}, "author entries allow only name/affiliation")
        aff = a.get("affiliation", "")
        _expect(isinstance(aff, str), "author affiliation must be a string")
        authors.append(Author(name=a["name"], affiliation=aff))

    statements = []
    for s in obj.get("citation_statements", []):
        _expect(isinstance(s, dict) and isinstance(s.get("text"), str),
                "citation statements must be objects with 'text'")
        _expect(set(s) <= {"text", "intent"}, "citation statements allow only text/intent")
        intent = s.get("intent")
        _expect(intent is None or intent in INTENT_LABELS,
                f"intent must be one of {INTENT_LABELS} or null")
        statements.append(CitationStatement(text=s["text"], intent=intent))

    pub_type = obj.get("pub_type", "other")
    _expect(pub_type in PUB_TYPES, f"pub_type must be one of {PUB_TYPES}")

    for name in ("citation_count", "page_count"):
        v = obj.get(name, 0)
        _expect(isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                f"{name} must be a non-negative integer")

    embedding = obj.get("embedding")
    if embedding is not None:
        # exact types, as json.loads gives them: a bool is not an int here
        kinds = set(map(type, embedding)) if isinstance(embedding, list) else {None}
        _expect(embedding and kinds <= {int, float},
                "embedding must be a non-empty list of numbers")
        # int/float comparison is exact, so integers beyond the float range fail too
        _expect(all(abs(v) <= sys.float_info.max for v in embedding) if int in kinds
                else all(map(math.isfinite, embedding)), "embedding values must be finite")
        # each value as float(v) gives it, held once for the graph and DBSCAN
        embedding = np.array(embedding, dtype=float)
        embedding.flags.writeable = False

    for name in ("abstract", "venue", "publisher", "language", "doc_type"):
        _expect(isinstance(obj.get(name, ""), str), f"{name} must be a string")

    for name in ("author_keywords", "subject_categories", "references", "extracted_keywords"):
        value = obj.get(name, [])
        _expect(isinstance(value, list) and all(isinstance(v, str) for v in value),
                f"{name} must be a list of strings")

    # every key is a field and every value is checked; a missing one takes its default
    rec = PaperRecord(**{**obj, "authors": authors, "citation_statements": statements,
                         "embedding": embedding})
    _check_chars(rec)
    return rec


def _check_chars(rec: PaperRecord) -> None:
    """Reject a character the UTF-8 and XML reports cannot carry; the message
    names the field and code point, never the character, so it can be written."""
    texts = [(name, [getattr(rec, name)]) for name in
             ("id", "title", "abstract", "venue", "publisher", "language", "doc_type")]
    texts += [(name, getattr(rec, name)) for name in
              ("author_keywords", "subject_categories", "references", "extracted_keywords")]
    texts += [("authors", [s for a in rec.authors for s in (a.name, a.affiliation)]),
              ("citation_statements", [s.text for s in rec.citation_statements])]
    for name, values in texts:
        for value in values:
            # no unsafe character is printable, and nearly all text is
            if not value.isprintable() and (bad := _UNSAFE_CHAR.search(value)):
                raise SchemaError(f"{name} holds U+{ord(bad.group()):04X}, "
                                  "which the reports cannot carry")


def parse_records(stream: IO) -> tuple[list[PaperRecord], list[ParseError]]:
    """Parse line-delimited records from a text or byte stream.

    Every well-formed line yields one record; malformed lines yield errors
    with 1-based line numbers. Records whose embedding dimension differs
    from the first embedding seen are rejected (dimension must be constant
    per corpus), as is every record after the first with the same id.
    """
    records: list[PaperRecord] = []
    errors: list[ParseError] = []
    dim: int | None = None
    id_lines: dict[str, int] = {}
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                errors.append(ParseError(lineno, f"invalid UTF-8: {exc}"))
                continue
        if lineno == 1:
            raw = raw.removeprefix("\ufeff")  # a UTF-8 byte-order mark
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(ParseError(lineno, f"invalid JSON: {exc.msg}"))
            continue
        try:
            rec = _record_from_obj(obj)
        except SchemaError as exc:
            errors.append(ParseError(lineno, str(exc)))
            continue
        if rec.id in id_lines:
            errors.append(ParseError(
                lineno, f"duplicate_id: {rec.id!r} first kept on line {id_lines[rec.id]}"))
            continue
        if rec.embedding is not None:
            if dim is None:
                dim = len(rec.embedding)
            elif len(rec.embedding) != dim:
                errors.append(ParseError(
                    lineno, f"embedding dimension {len(rec.embedding)} != corpus dimension {dim}"))
                continue
        id_lines[rec.id] = lineno
        records.append(rec)
    return records, errors


def load_records(path) -> tuple[list[PaperRecord], list[ParseError]]:
    with open(path, "rb") as fh:
        return parse_records(fh)


# --- exclusion protocol ------------------------------------------------------

REASON_LANGUAGE = "language"
REASON_MIN_PAGES = "min_pages"
REASON_DOC_TYPE = "doc_type"
REASON_EXTENDED = "extended_version"


def apply_exclusions(
    records: list[PaperRecord], policy: ExclusionPolicy
) -> tuple[list[PaperRecord], list[tuple[PaperRecord, str]]]:
    """Split records into (kept, rejected-with-reason). Pure and idempotent:
    each rejected record carries exactly one primary reason, the first
    violated predicate in protocol order."""
    languages = {l.casefold() for l in policy.allowed_languages}
    doc_types = {d.casefold() for d in policy.excluded_doc_types}
    kept: list[PaperRecord] = []
    rejected: list[tuple[PaperRecord, str]] = []
    for rec in records:
        if rec.language.casefold() not in languages:
            rejected.append((rec, REASON_LANGUAGE))
        elif rec.page_count < policy.min_pages:
            rejected.append((rec, REASON_MIN_PAGES))
        elif rec.doc_type.casefold() in doc_types:
            rejected.append((rec, REASON_DOC_TYPE))
        elif policy.drop_extended_versions and rec.id in policy.extended_version_ids:
            rejected.append((rec, REASON_EXTENDED))
        else:
            kept.append(rec)
    return kept, rejected


def rejection_counts(rejected: list[tuple[object, str]]) -> dict[str, int]:
    """How many of the (record or id, reason) pairs give each reason."""
    return dict(sorted(Counter(reason for _, reason in rejected).items()))
