"""Inverted index construction and pivoted-length-normalized ranking.

Scores are compared with ``support.formula_score``, the scoring formula
evaluated directly, and the ranking, scores included, with
``support.naive_rank_articles``, the same arithmetic as a plain loop over
the corpus that reads no index, by ``==``. The index's one oracle comparison
is ``test_postings::test_build_index_tf_equals_token_counter``; ``test_postings.py``
also holds those of ingest, ``collection_match`` and ``identify_cres``,
``test_cre.py`` that of ``rank_cres``, ``test_evaluation.py`` those of the ng
metrics, and ``test_acceptance.py`` criteria C1-C10, among them C7's
slope-invariant order and formula oracle.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from xmlir import RankParams, build_index, rank_articles

import support


FIXTURE = {
    "d1": "<article>patricia tries patricia</article>",
    "d2": "<article>patricia text</article>",
    "d3": "<article>text search tries</article>",
}


def test_build_index_hand_counts():
    corpus = support.corpus_from_strings({"d1": "<article>a a b</article>"})
    index = build_index(corpus)
    assert index.postings["a"] == [(0, 1.0 + math.log(2))]
    assert index.postings["b"] == [(0, 1.0)]
    assert list(index.doc_lengths) == [3]
    assert index.norms(1.0) == [1.0]  # the one length is the mean


def test_build_index_identical_docs():
    corpus = support.corpus_from_strings(
        {"d1": "<article>x y</article>", "d2": "<article>x y</article>"}
    )
    index = build_index(corpus)
    assert index.postings["x"] == [(0, 1.0), (1, 1.0)]
    assert index.norms(1.0) == [1.0, 1.0]  # both lengths are the mean


def test_build_index_shares_equal_pairs():
    corpus = support.corpus_from_strings({"d1": "<article>x y y</article>", "d2": "<article>x y</article>"})
    index = build_index(corpus)
    assert index.postings["x"] == [(0, 1.0), (1, 1.0)]
    assert index.postings["y"] == [(0, 1.0 + math.log(2)), (1, 1.0)]
    assert index.postings["x"][1] is index.postings["y"][1]  # one (document number, 1 + ln tf) tuple


def test_build_index_empty_corpus_raises():
    with pytest.raises(ValueError):
        build_index(support.corpus_from_strings({}))


def test_rank_empty_query():
    index = build_index(support.corpus_from_strings(FIXTURE))
    assert rank_articles(index, []) == ([], [])


def test_rank_matches_frozen_oracle_scores():
    # frozen from an independent evaluation of the scoring formula
    index = build_index(support.corpus_from_strings(FIXTURE))
    numbers, scores = rank_articles(index, ["patricia", "tries"], RankParams(slope=0.55))
    assert numbers == [0, 1, 2]  # d1, d2, d3
    expected = [2.3089644922761074, 1.0623660659410494, 0.8573480532155836]
    assert scores == pytest.approx(expected, abs=1e-9)


def test_rank_matches_formula_oracle_on_10_docs():
    rng = random.Random(17)
    docs = {f"d{i}": support.random_xml(rng) for i in range(10)}
    corpus = support.corpus_from_strings(docs)
    tokens = {
        doc: [t for own in support.own_tokens(docs[doc]).values() for t in own] for doc in corpus.docs
    }
    index = build_index(corpus)
    query = ["alpha", "beta", "alpha"]
    for slope in (0.0, 0.25, 0.55, 1.0):
        numbers, scores = rank_articles(index, query, RankParams(slope=slope))
        oracle = support.formula_score(tokens, query, slope)
        assert {corpus.docs[d] for d in numbers} == set(oracle)
        for d, score in zip(numbers, scores):
            assert score == pytest.approx(oracle[corpus.docs[d]], abs=1e-9)


def test_slope_zero_means_no_normalization():
    docs = {
        "short": "<article>alpha</article>",
        "long": "<article>alpha " + "pad " * 50 + "</article>",
    }
    index = build_index(support.corpus_from_strings(docs))
    numbers, scores = rank_articles(index, ["alpha"], RankParams(slope=0.0))
    assert numbers == [0, 1]  # short, long
    assert scores[0] == pytest.approx(scores[1], abs=1e-12)


def test_adding_query_free_doc_preserves_order():
    # Equal-length fixtures keep the length normalizer inert, so only the
    # df/N shifts act, and those scale every score monotonically per term.
    rng = random.Random(23)
    length = 12
    query = ["alpha", "gamma"]
    for trial in range(20):
        docs = {}
        for i in range(6):
            a = rng.randint(0, 4)
            g = rng.randint(0, 4 - a if a < 4 else 0)
            body = ["alpha"] * a + ["gamma"] * g + ["pad"] * (length - a - g)
            docs[f"d{i}"] = "<article>" + " ".join(body) + "</article>"
        tokens = {d: docs[d].split(">")[1].split("<")[0].split() for d in docs}
        before = [f"d{d}" for d in rank_articles(build_index(support.corpus_from_strings(docs)), query)[0]]
        oracle_before = support.formula_score(tokens, query, 0.55)
        assert before == sorted(oracle_before, key=lambda d: (-oracle_before[d], before.index(d)))
        docs["zz"] = "<article>" + " ".join(["filler"] * length) + "</article>"
        after = [f"d{d}" for d in rank_articles(build_index(support.corpus_from_strings(docs)), query)[0]]
        assert after == before, f"trial {trial}: order changed"


def test_scores_positive_and_cap_enforced():
    docs = {f"d{i:03d}": "<article>alpha beta</article>" for i in range(30)}
    index = build_index(support.corpus_from_strings(docs))
    numbers, scores = rank_articles(index, ["alpha"], RankParams(max_results=10))
    assert len(scores) == 10
    assert all(score > 0 for score in scores)
    # equal scores fall back to ingestion order
    assert numbers == list(range(10))


def test_slope_bounds_validated():
    with pytest.raises(ValueError):
        RankParams(slope=1.5)
    with pytest.raises(ValueError):
        RankParams(slope=-0.1)


VOCABULARY = ("alpha", "beta", "gamma", "pad")
SWAP = {"alpha": "beta", "beta": "alpha"}


@st.composite
def ranking_inputs(draw):
    """A corpus whose documents repeat and may be mirrored with alpha and beta
    swapped (so scores tie on the same or on different terms) and repeat
    terms (tf above 1), shuffled; a document may hold no token, and so may
    the whole corpus, whose average length is then 0. A query bag with
    repeated and absent terms, a slope and a cap often below the number of
    documents that hold a query term."""
    bodies = draw(st.lists(st.lists(st.sampled_from(VOCABULARY), max_size=6), min_size=1, max_size=4))
    picked = [bodies[b] for b in draw(st.lists(st.integers(0, len(bodies) - 1), min_size=1, max_size=6))]
    if draw(st.booleans()):
        picked += [[SWAP.get(t, t) for t in body] for body in picked]
    picked = draw(st.permutations(picked))
    docs = {f"d{i}": "<article><p>" + " ".join(body) + "</p></article>" for i, body in enumerate(picked)}
    query = draw(st.lists(st.sampled_from((*VOCABULARY, "absent")), min_size=1, max_size=5))
    params = RankParams(slope=draw(st.sampled_from((0.0, 0.55, 1.0))), max_results=draw(st.integers(1, len(docs) + 1)))
    return docs, query, params


@settings(max_examples=300, deadline=None)
@given(ranking_inputs())
def test_rank_equals_naive_loop_exactly(inputs):
    docs, query, params = inputs
    corpus = support.corpus_from_strings(docs)
    index = build_index(corpus)
    ranked = rank_articles(index, query, params)
    assert ranked == support.naive_rank_articles(corpus, query, params)  # numbers, order and scores, by ==


def test_rank_at_each_slope_in_turn_equals_naive_loop():
    # one index keeps a norm column per slope: a column built for one slope
    # must not serve another, and asking for 0.55 again reuses its own
    rng = random.Random(29)
    docs = {f"d{i}": support.random_xml(rng) for i in range(12)}
    corpus = support.corpus_from_strings(docs)
    index = build_index(corpus)
    query = ["alpha", "beta", "alpha"]
    for slope in (0.55, 1.0, 0.0, 0.55):
        params = RankParams(slope=slope)
        assert rank_articles(index, query, params) == support.naive_rank_articles(corpus, query, params)


def test_max_results_bounds_validated():
    assert RankParams(max_results=sys.maxsize).max_results == sys.maxsize
    with pytest.raises(ValueError, match=f"max_results must be at most {sys.maxsize}: {sys.maxsize + 1}"):
        RankParams(max_results=sys.maxsize + 1)
