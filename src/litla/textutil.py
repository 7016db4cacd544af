"""Shared text utilities: tokenization, stopwords, phrase matching and the
papers' text index.

One tokenizer serves topic labeling, lexical-novelty ratios and keyword
matching so that every module sees the same token stream, and one
:class:`TextIndex` per corpus holds that stream for every paper.
"""

from __future__ import annotations

import re
from collections import defaultdict
from functools import cached_property

import numpy as np

# Lowercase words, hyphenated compounds kept whole ("multi-objective" is one token).
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")

STOPWORDS = frozenset(
    """
    a about above after again against all also am an and any are as at be
    because been before being below between both but by can cannot could did
    do does doing down during each few for from further had has have having
    he her here hers herself him himself his how i if in into is it its
    itself just me more most my myself no nor not now of off on once only or
    other our ours ourselves out over own same she should so some such than
    that the their theirs them themselves then there these they this those
    through to too under until up very was we were what when where which
    while who whom why will with you your yours yourself yourselves
    """.split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase token list of ``text``, stopwords included, so that phrases
    stay contiguous.

    Splits on non-alphanumerics but keeps hyphenated compounds intact.
    Topic labeling drops :data:`STOPWORDS` from its own token pools.
    """
    return _TOKEN_RE.findall(text.lower())


def contains_phrase(tokens: list[str], phrase_tokens: list[str]) -> bool:
    """True when ``phrase_tokens`` occurs contiguously inside ``tokens``."""
    if not phrase_tokens:
        return False
    m = len(phrase_tokens)
    first = phrase_tokens[0]
    stop = len(tokens) - m + 1
    i = 0
    while i < stop:
        try:
            i = tokens.index(first, i, stop)
        except ValueError:
            return False
        if tokens[i:i + m] == phrase_tokens:
            return True
        i += 1
    return False


class TextIndex:
    """Positional inverted index over the title+abstract text of papers
    (Zobel & Moffat, ACM Computing Surveys 2006).

    ``streams[pid]`` is ``tokenize(title + " " + abstract)``
    with each distinct token string stored once. It is built as the title's
    tokens followed by the abstract's, which is the same list because no
    token spans the joining space. A set of papers is a bitmask over
    ``ids``: bit ``i`` stands for ``ids[i]``. ``postings[token]`` is the mask
    of the papers whose stream holds ``token``, so a phrase lookup ANDs the
    postings of its tokens and checks contiguity only in the papers left.
    The masks are built on the first lookup.
    """

    def __init__(self, docs: dict[str, tuple[str, str]]):
        """Index ``docs``, paper id -> (title, abstract)."""
        interned: dict[str, str] = {}
        self.ids = list(docs)
        self.everything = (1 << len(self.ids)) - 1
        self.streams: dict[str, list[str]] = {}
        self._abstract_start: list[int] = []
        for pid, (title, abstract) in docs.items():
            head = tokenize(title)
            body = tokenize(abstract)
            self.streams[pid] = list(map(interned.setdefault, head, head)) + \
                list(map(interned.setdefault, body, body))
            self._abstract_start.append(len(head))

    @cached_property
    def postings(self) -> dict[str, int]:
        holders = defaultdict(list)  # token -> the papers holding it, with repeats
        for i, stream in enumerate(self.streams.values()):
            for tok in stream:
                holders[tok].append(i)
        return {tok: self._mask(papers) for tok, papers in holders.items()}

    def _mask(self, papers: list[int]) -> int:
        bits = np.zeros(len(self.ids), dtype=bool)
        bits[papers] = True
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    def papers(self, mask: int) -> list[str]:
        """The ids of the papers in ``mask``, in index order."""
        return [self.ids[i] for i in _bits(mask)]

    def matches(self, phrase: list[str]) -> int:
        """The mask of the papers whose title+abstract stream holds ``phrase``
        contiguously; an empty phrase matches none."""
        return self._lookup(phrase, abstract_only=False)

    def abstract_matches(self, phrase: list[str]) -> int:
        """The mask of the papers whose abstract alone holds ``phrase`` contiguously."""
        return self._lookup(phrase, abstract_only=True)

    def _lookup(self, phrase: list[str], abstract_only: bool) -> int:
        if not phrase:
            return 0
        found = self.everything
        for tok in phrase:
            found &= self.postings.get(tok, 0)
        if len(phrase) == 1 and not abstract_only:
            return found
        for i in _bits(found):
            stream = self.streams[self.ids[i]]
            if abstract_only:
                stream = stream[self._abstract_start[i]:]
            if not contains_phrase(stream, phrase):
                found ^= 1 << i
        return found


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]
