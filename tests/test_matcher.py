"""AND/OR element matching: most-specific rule, ordering, antichain laws."""

import random

import pytest

from xmlir import SystemConfig, Topic, build_index, execute
from xmlir.matcher import AND, OR, collection_match

import support


def test_or_single_occurrence_returns_deepest_container():
    corpus = support.corpus_from_strings({
        "d": "<article><bdy>"
        "<sec><p>nothing</p></sec>"
        "<sec><p>patricia appears here</p></sec>"
        "</bdy></article>",
    })
    result = collection_match(corpus, {"patricia"}, OR)
    assert result == [5]  # article, bdy, sec, p, sec, p
    assert [str(corpus.path(i)) for i in result] == ["/article[1]/bdy[1]/sec[2]/p[1]"]


def test_and_terms_spread_across_siblings():
    text = (
        "<article><bdy>"
        "<sec><p>alpha only</p><p>beta only</p></sec>"
        "<sec><p>unrelated</p></sec>"
        "</bdy></article>"
    )
    corpus = support.corpus_from_strings({"d": text})
    result = [corpus.path(i) for i in collection_match(corpus, {"alpha", "beta"}, AND)]
    assert [str(path) for path in result] == ["/article[1]/bdy[1]/sec[1]"]
    # confirmed by the brute-force most-specific oracle
    assert result == support.brute_force_matches(text, frozenset({"alpha", "beta"}), AND)


def test_and_unsatisfiable_yields_empty():
    corpus = support.corpus_from_strings({"d": "<article><p>alpha</p></article>"})
    assert collection_match(corpus, {"alpha", "beta"}, AND) == []


def test_empty_query_rejected():
    corpus = support.corpus_from_strings({"d": "<article><p>x</p></article>"})
    with pytest.raises(ValueError, match="at least one term"):
        collection_match(corpus, frozenset(), OR)
    with pytest.raises(ValueError, match="unknown query mode"):
        collection_match(corpus, {"x"}, "xor")


# "a": a paragraph holding both terms, in a section holding both, and each term alone; "b": alpha alone, nested
_TWO_TERMS = {
    "a": "<article><sec><p>alpha</p><p>beta alpha</p></sec><p>beta</p></article>",
    "b": "<article><p>alpha</p><sec><p>alpha</p></sec></article>",
}


@pytest.mark.parametrize("mode", [AND, OR])
def test_term_iterable_is_read_once_and_repeats_collapse(mode):
    """A one-shot iterator of terms, or a term given twice, matches as the
    term set does."""
    corpus = support.corpus_from_strings(_TWO_TERMS)
    expected = collection_match(corpus, frozenset({"alpha", "beta"}), mode)
    assert expected and collection_match(corpus, iter(["alpha", "beta"]), mode) == expected
    assert collection_match(corpus, ["alpha", "alpha"], mode) == collection_match(corpus, {"alpha"}, mode)


def test_one_term_and_is_the_ends_test_over_its_postings():
    """A one-term AND keeps the term's postings with no posting below them, as OR does."""
    corpus = support.corpus_from_strings(_TWO_TERMS)
    ends, postings = corpus.ends, list(corpus.postings["alpha"])
    most_specific = [i for i, after in zip(postings, postings[1:] + [len(ends)]) if after >= ends[i]]
    assert collection_match(corpus, {"alpha"}, AND) == collection_match(corpus, {"alpha"}, OR) == most_specific


def _xmldb_pairs(corpus, *keywords):
    run = execute(Topic(id=1, keywords=keywords), corpus, build_index(corpus), SystemConfig(system="xmldb"))
    return [(e.doc, e.path) for e in run.entries]


def test_collection_match_document_order():
    docs = {
        "a/one": "<article><p>quiet</p></article>",
        "b/two": "<article><p>patricia</p></article>",
    }
    corpus = support.corpus_from_strings(docs)
    result = support.naive_collection_match(docs, frozenset({"patricia"}), OR)
    assert [(doc, str(path)) for doc, path in result] == [("b/two", "/article[1]/p[1]")]
    assert _xmldb_pairs(corpus, "patricia") == result


def test_collection_match_ingestion_order_beats_match_quality():
    docs = {
        "a": "<article><p>patricia</p></article>",
        "b": "<article><p>patricia patricia patricia</p></article>",
    }
    corpus = support.corpus_from_strings(docs)
    result = support.naive_collection_match(docs, frozenset({"patricia"}), OR)
    assert [doc for doc, _ in result] == ["a", "b"]
    assert _xmldb_pairs(corpus, "patricia") == result


def test_collection_match_empty_corpus():
    assert support.naive_collection_match({}, frozenset({"x"}), OR) == []
    for mode in (AND, OR):
        assert collection_match(support.corpus_from_strings({}), {"x"}, mode) == []


def test_antichain_and_lattice_laws():
    rng = random.Random(202)
    for _ in range(100):
        text = support.random_xml(rng)
        corpus = support.corpus_from_strings({"d": text})
        own = support.own_tokens(text)
        query = frozenset({"alpha", "beta"})
        and_matches = collection_match(corpus, query, AND)
        or_matches = collection_match(corpus, query, OR)
        and_paths = [corpus.path(i) for i in and_matches]
        or_paths = [corpus.path(i) for i in or_matches]
        for paths in (and_paths, or_paths):
            for a in paths:
                for b in paths:
                    assert a == b or not support.is_ancestor_of(a, b)
        # every AND match's subtree also satisfies the OR predicate
        for path in and_paths:
            terms = set(support.subtree_tokens(own, path))
            assert support.satisfies(query, OR, terms)
        # matches come back as strictly ascending pre-order indices
        assert or_matches == sorted(set(or_matches))
        assert and_matches == sorted(set(and_matches))


def test_empty_elements_never_match():
    corpus = support.corpus_from_strings({"d": "<article><sec/><p>alpha</p></article>"})
    result = [corpus.path(i) for i in collection_match(corpus, {"alpha"}, OR)]
    assert [str(path) for path in result] == ["/article[1]/p[1]"]
