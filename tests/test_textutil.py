from hypothesis import given
from hypothesis import strategies as st

from litla.textutil import TextIndex, contains_phrase, tokenize

# words and separators that exercise the tokenizer's edges: hyphens at a
# word's ends, non-ASCII letters whose lowercase is or holds ASCII ("İ" ->
# "i" + U+0307, the Kelvin sign -> "k"), a final sigma and repeated words
_WORDS = ["alpha", "beta", "alpha-beta", "a", "the", "x1", "-", "--", "-alpha", "beta-",
          "İ", "K", "Σ", "ß", "café", "ALPHA", ""]
_SEPARATORS = [" ", "-", ", ", "\n", "İ", "K", ""]
_texts = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPARATORS)),
                  max_size=8).map(lambda parts: "".join(w + s for w, s in parts))
_phrases = st.lists(st.sampled_from(["alpha", "beta", "alpha-beta", "a", "the", "x1",
                                     "i", "k", "caf"]), max_size=4)
# few distinct words, so that phrases often match in the title, the
# abstract or only across the two
_dense = st.lists(st.sampled_from(["alpha", "beta", "alpha", "a", "alpha-beta", "İ"]),
                  max_size=6).map(" ".join)


@given(st.one_of(st.text(max_size=20), _texts), st.one_of(st.text(max_size=20), _texts))
def test_title_abstract_stream_is_the_two_streams_joined(title, abstract):
    assert tokenize(title + " " + abstract) == tokenize(title) + tokenize(abstract)


@given(st.dictionaries(st.sampled_from(["p1", "p2", "p3", "p4"]),
                       st.one_of(st.tuples(_texts, _texts), st.tuples(_dense, _dense)),
                       max_size=4),
       st.lists(_phrases, max_size=6))
def test_lookups_match_contains_phrase_paper_by_paper(docs, phrases):
    index = TextIndex(docs)
    full = {pid: tokenize(t + " " + a) for pid, (t, a) in docs.items()}
    abstract = {pid: tokenize(a) for pid, (_t, a) in docs.items()}
    assert index.streams == full
    assert index.papers(index.everything) == list(docs)
    for phrase in phrases:
        assert index.papers(index.matches(phrase)) == \
            [p for p in docs if contains_phrase(full[p], phrase)]
        assert index.papers(index.abstract_matches(phrase)) == \
            [p for p in docs if contains_phrase(abstract[p], phrase)]


def test_phrase_across_the_title_abstract_boundary():
    index = TextIndex({"p": ("On the Pareto", "front of alpha alpha"), "q": ("x", "pareto front"),
                       "r": ("pareto front", "front, then pareto"),
                       "s": ("on pareto", "front pareto")})
    assert index.papers(index.matches(["pareto", "front"])) == ["p", "q", "r", "s"]
    # every token of the phrase is in r's and s's abstracts, but not the phrase
    assert index.papers(index.abstract_matches(["pareto", "front"])) == ["q"]
    assert index.abstract_matches(["the"]) == 0
    assert index.papers(index.matches(["alpha", "alpha"])) == ["p"]
    assert index.matches(["alpha", "alpha", "alpha"]) == 0  # longer than the text
    assert index.matches([]) == index.abstract_matches([]) == 0


def test_each_distinct_token_stored_once():
    index = TextIndex({"p": ("alpha beta", "alpha"), "q": ("", "beta alpha-beta alpha")})
    tokens = [t for stream in index.streams.values() for t in stream]
    assert len({id(t) for t in tokens}) == len(set(tokens)) == 3
    assert index.postings == {"alpha": 0b11, "beta": 0b11, "alpha-beta": 0b10}
    assert index.everything == 0b11


def test_masks_beyond_one_byte():
    docs = {f"p{i:02d}": ("", "alpha" if i % 3 else "beta") for i in range(20)}
    index = TextIndex(docs)
    assert index.papers(index.matches(["beta"])) == [f"p{i:02d}" for i in range(0, 20, 3)]
    assert index.matches(["alpha"]) | index.matches(["beta"]) == index.everything == 2 ** 20 - 1
    assert index.papers(0) == []


@given(st.lists(st.sampled_from("abc"), max_size=8), st.lists(st.sampled_from("abc"), max_size=4))
def test_contains_phrase_is_a_contiguous_slice(tokens, phrase):
    m = len(phrase)
    expected = m > 0 and any(tokens[i:i + m] == phrase for i in range(len(tokens) - m + 1))
    assert contains_phrase(tokens, phrase) == expected
