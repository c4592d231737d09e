"""Coherent-element identification and heuristic ranking on small corpora.

This file holds the one oracle comparison of ``rank_cres``: against the
reference key for every code, and that of ``Corpus.path_order``, the path
part of its keys: against sorting the spelled paths. ``test_postings.py``
holds those of ingest, ``collection_match`` and ``identify_cres`` (with its
laws), ``test_evaluation.py`` those of the ng metrics, and
``test_acceptance.py`` criteria C1-C10, among them the worked fixture's
ranking (C1) and the sequence tie-break (C2)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from xmlir import COMBO_CODES, ElementPath, SystemConfig, identify_cres, rank_cres

import support


def P(text):
    return ElementPath.from_string(text)


def one_document(text):
    return support.corpus_from_strings({"d": text})


def test_sixteen_combo_codes():
    assert len(COMBO_CODES) == 16
    assert len(set(COMBO_CODES)) == 16
    corpus = one_document("<article/>")
    for code in COMBO_CODES:
        assert rank_cres(corpus, [(0, 1)], code) == [0]
        assert SystemConfig(system="hybrid", cre=True, combo=code).combo == code
        assert len(code) == 3
        assert code[0] in "MmPp"
        if code[0] in "Mm":
            assert code[1] in "Pp"
        else:
            assert code[1] in "Mm"
        assert code[2] in "BE"


@pytest.mark.parametrize("bad", ["MME", "ppB", "MpX", "Mp", "XpE", "EpM", "XYZ", "MpEE", ""])
def test_invalid_combo_codes_rejected(bad):
    with pytest.raises(ValueError, match="invalid heuristic combination"):
        rank_cres(one_document("<article/>"), [(0, 1)], bad)
    with pytest.raises(ValueError, match="invalid heuristic combination"):
        SystemConfig(system="hybrid", cre=True, combo=bad)


def test_singleton_input_returns_the_matching_element():
    corpus = one_document("<article><bdy><sec><p/></sec></bdy></article>")
    assert identify_cres(corpus, [3]) == [(3, 1)]
    assert corpus.path(3) == P("/article[1]/bdy[1]/sec[1]/p[1]")
    assert corpus.path(3).depth == 4
    assert support.sequence(corpus.path(3)) == (1, 1, 1, 1)


def test_two_siblings_qualify_only_their_parent():
    corpus = one_document("<article><bdy><sec><p/><p/></sec></bdy></article>")
    got = {(str(corpus.path(n)), below, corpus.path(n).depth) for n, below in identify_cres(corpus, [3, 4])}
    # bdy and article hold both items under a single child, so neither qualifies
    assert got == {("/article[1]/bdy[1]/sec[1]", 2, 3)}


def test_path_length_primary_ordering(sample_corpus, sample_or_matches):
    cres = identify_cres(sample_corpus, sample_or_matches)
    below, path = dict(cres), sample_corpus.path
    got = [(str(path(n)), below[n], path(n).depth) for n in rank_cres(sample_corpus, cres, "PME")]
    assert got == [
        ("/article[1]/bdy[1]/sec[2]/ss1[1]", 2, 4),
        ("/article[1]/bm[1]/app[1]/sec[2]", 2, 4),
        ("/article[1]/bdy[1]/sec[2]", 5, 3),
        ("/article[1]/bdy[1]/sec[4]", 4, 3),
        ("/article[1]/bm[1]/app[1]", 3, 3),
        ("/article[1]/bdy[1]", 9, 2),
        ("/article[1]", 12, 1),
    ]


def test_direction_reversal_is_antisymmetric(sample_corpus, sample_or_matches):
    # flipping the matches direction while it is the primary key reverses
    # the relative order of any two elements with different match counts
    cres = identify_cres(sample_corpus, sample_or_matches)
    path = sample_corpus.path
    for code, flipped in (("MpE", "mpE"), ("MPB", "mPB"), ("mPE", "MPE")):
        forward = rank_cres(sample_corpus, cres, code)
        backward = rank_cres(sample_corpus, cres, flipped)
        for (a, a_below), (b, b_below) in itertools.combinations(cres, 2):
            if a_below == b_below:
                continue
            fwd = forward.index(a) < forward.index(b)
            bwd = backward.index(a) < backward.index(b)
            assert fwd != bwd
    # in secondary position the flip only acts within equal path lengths
    forward = rank_cres(sample_corpus, cres, "pME")
    backward = rank_cres(sample_corpus, cres, "pmE")
    for (a, a_below), (b, b_below) in itertools.combinations(cres, 2):
        if path(a).depth != path(b).depth or a_below == b_below:
            continue
        assert (forward.index(a) < forward.index(b)) != (backward.index(a) < backward.index(b))


def test_ranking_is_total_and_duplicate_free(sample_corpus, sample_or_matches):
    cres = identify_cres(sample_corpus, sample_or_matches)
    for code in COMBO_CODES:
        ranked = rank_cres(sample_corpus, cres, code)
        assert len(ranked) == len(cres)
        assert len(set(ranked)) == len(ranked)
        assert set(ranked) == {n for n, _ in cres}
        again = rank_cres(sample_corpus, list(reversed(cres)), code)
        assert again == ranked  # input order never leaks through


def test_ties_on_identical_sequences_still_total():
    # /article[1]/bdy[1] and /article[1]/bm[1] share the sequence (1, 1)
    corpus = one_document("<article><bdy/><bm/></article>")
    bdy, bm = 1, 2
    for code in COMBO_CODES:
        ranked = rank_cres(corpus, [(bm, 2), (bdy, 2)], code)
        assert {str(corpus.path(n)) for n in ranked} == {"/article[1]/bdy[1]", "/article[1]/bm[1]"}
        assert ranked[0] == bdy  # path breaks the dead tie


@st.composite
def ranking_inputs(draw):
    """1-5 random documents, ``(node, matches below)`` pairs on any of their
    nodes in any order, and an article order: None or some document numbers
    in any order. Few tags and counts, so pairs often tie on every code key
    and on the sibling-index sequence (/article[1]/sec[1] vs /article[1]/p[1])."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
    corpus = support.corpus_from_strings({f"d{k}": support.random_xml(random.Random(s)) for k, s in enumerate(seeds)})
    nodes = draw(st.sets(st.integers(0, len(corpus.path_ids) - 1), max_size=16))
    cres = draw(st.permutations([(node, draw(st.integers(1, 3))) for node in sorted(nodes)]))
    order = draw(st.none() | st.lists(st.integers(0, len(seeds) - 1), unique=True))
    return corpus, cres, order


@settings(max_examples=100, deadline=None)
@given(ranking_inputs())
def test_rank_cres_equals_reference_key_for_every_code(case):
    corpus, cres, order = case
    for code in COMBO_CODES:
        expected = []
        for number in range(len(corpus)) if order is None else order:
            nodes, doc = support.nodes_of(corpus, number), corpus.docs[number]
            mine = [(node, below) for node, below in cres if node in nodes]
            mine.sort(key=lambda pair: support.naive_cre_key(doc, corpus.path(pair[0]), pair[1], code))
            expected += [node for node, _ in mine]
        assert rank_cres(corpus, cres, code, order) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_path_order_equals_sorting_the_spelled_paths(seeds, extra):
    """For every sign pair, each path id's place is its rank when the spelled
    paths are sorted by (signed length, signed sequence, steps), and the places
    are a permutation; after one more document, whose paths all are new, the
    order covers them too."""
    corpus = support.corpus_from_strings({f"d{k}": support.random_xml(random.Random(s)) for k, s in enumerate(seeds)})
    for _ in range(2):
        paths = {pid: corpus.path(node) for node, pid in enumerate(corpus.path_ids)}
        for length_sign, sequence_sign in itertools.product((1, -1), repeat=2):
            places, lengths = corpus.path_order(length_sign, sequence_sign)
            assert sorted(paths) == sorted(places) == list(range(len(places)))

            def spelled(pid):
                path = paths[pid]
                return length_sign * path.depth, tuple(sequence_sign * i for i in support.sequence(path)), path.steps

            assert [places[pid] for pid in sorted(paths, key=spelled)] == list(range(len(places)))
            assert lengths == [length_sign * paths[pid].depth for pid in range(len(places))]
        corpus.add("extra", f"<article><extra>{support.random_xml(random.Random(extra))}</extra></article>")
