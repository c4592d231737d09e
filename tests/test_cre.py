"""Coherent-element identification and heuristic ranking."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from xmlir import COMBO_CODES, CoherentElement, ElementPath, SystemConfig, identify_cres, parse_document, rank_cres
from xmlir.cre import coherent_nodes

import support
from conftest import EXPECTED_CRES_MPE, SAMPLE_DOC_ID


def P(text):
    return ElementPath.from_string(text)


def test_sixteen_combo_codes():
    assert len(COMBO_CODES) == 16
    assert len(set(COMBO_CODES)) == 16
    record = CoherentElement("d", P("/article[1]"), matches=1)
    for code in COMBO_CODES:
        assert rank_cres([record], code) == [record]
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
        rank_cres([CoherentElement("d", P("/article[1]"), matches=1)], bad)
    with pytest.raises(ValueError, match="invalid heuristic combination"):
        SystemConfig(system="hybrid", cre=True, combo=bad)


def test_known_or_list_produces_known_ranking(sample_tree, sample_or_matches):
    cres = identify_cres(sample_tree, sample_or_matches)
    ranked = rank_cres(cres, "MpE")
    got = [(str(r.path), r.matches, r.path.depth, support.sequence(r.path)) for r in ranked]
    assert got == EXPECTED_CRES_MPE
    assert all(r.doc == SAMPLE_DOC_ID for r in ranked)


def test_singleton_input_returns_the_matching_element():
    tree = parse_document("<article><bdy><sec><p/></sec></bdy></article>", "d")
    cres = identify_cres(tree, [3])
    assert len(cres) == 1
    assert cres[0].path == P("/article[1]/bdy[1]/sec[1]/p[1]")
    assert cres[0].matches == 1
    assert cres[0].path.depth == 4
    assert support.sequence(cres[0].path) == (1, 1, 1, 1)


def test_two_siblings_qualify_only_their_parent():
    tree = parse_document("<article><bdy><sec><p/><p/></sec></bdy></article>", "d")
    cres = identify_cres(tree, [3, 4])
    got = {(str(r.path), r.matches, r.path.depth) for r in cres}
    # bdy and article hold both items under a single child, so neither qualifies
    assert got == {("/article[1]/bdy[1]/sec[1]", 2, 3)}


def test_everything_under_one_child_never_qualifies(sample_tree, sample_or_matches):
    cres = identify_cres(sample_tree, sample_or_matches)
    assert P("/article[1]/bm[1]") not in {r.path for r in cres}


def test_input_validation():
    tree = parse_document("<article><p/><p/><p/></article>", "d")
    with pytest.raises(ValueError, match="empty"):
        identify_cres(tree, [])
    for not_increasing in ([1, 1], [2, 1], [1, 3, 2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            identify_cres(tree, not_increasing)
    for out_of_range in ([4], [1, 4], [-1], [-1, 2]):  # a negative index would wrap silently
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            identify_cres(tree, out_of_range)


def test_sequence_tiebreak_directions():
    records = [
        CoherentElement("d", P("/article[1]/bdy[1]/sec[2]"), matches=5),
        CoherentElement("d", P("/article[1]/bdy[1]/sec[4]"), matches=5),
    ]
    nearer_end = rank_cres(records, "MpE")
    assert str(nearer_end[0].path) == "/article[1]/bdy[1]/sec[4]"
    nearer_beginning = rank_cres(records, "MpB")
    assert str(nearer_beginning[0].path) == "/article[1]/bdy[1]/sec[2]"


def test_path_length_primary_ordering(sample_tree, sample_or_matches):
    cres = identify_cres(sample_tree, sample_or_matches)
    ranked = rank_cres(cres, "PME")
    got = [(str(r.path), r.matches, r.path.depth) for r in ranked]
    assert got == [
        ("/article[1]/bdy[1]/sec[2]/ss1[1]", 2, 4),
        ("/article[1]/bm[1]/app[1]/sec[2]", 2, 4),
        ("/article[1]/bdy[1]/sec[2]", 5, 3),
        ("/article[1]/bdy[1]/sec[4]", 4, 3),
        ("/article[1]/bm[1]/app[1]", 3, 3),
        ("/article[1]/bdy[1]", 9, 2),
        ("/article[1]", 12, 1),
    ]


def test_direction_reversal_is_antisymmetric(sample_tree, sample_or_matches):
    # flipping the matches direction while it is the primary key reverses
    # the relative order of any two records with different match counts
    cres = identify_cres(sample_tree, sample_or_matches)
    for code, flipped in (("MpE", "mpE"), ("MPB", "mPB"), ("mPE", "MPE")):
        forward = rank_cres(cres, code)
        backward = rank_cres(cres, flipped)
        for a, b in itertools.combinations(cres, 2):
            if a.matches == b.matches:
                continue
            fwd = forward.index(a) < forward.index(b)
            bwd = backward.index(a) < backward.index(b)
            assert fwd != bwd
    # in secondary position the flip only acts within equal path lengths
    forward = rank_cres(cres, "pME")
    backward = rank_cres(cres, "pmE")
    for a, b in itertools.combinations(cres, 2):
        if a.path.depth != b.path.depth or a.matches == b.matches:
            continue
        assert (forward.index(a) < forward.index(b)) != (backward.index(a) < backward.index(b))


def test_ranking_is_total_and_duplicate_free(sample_tree, sample_or_matches):
    cres = identify_cres(sample_tree, sample_or_matches)
    for code in COMBO_CODES:
        ranked = rank_cres(cres, code)
        assert len(ranked) == len(cres)
        assert len(set(ranked)) == len(ranked)
        assert set(ranked) == set(cres)
        again = rank_cres(list(reversed(cres)), code)
        assert again == ranked  # input order never leaks through


def test_ties_on_identical_sequences_still_total():
    # /article[1]/bdy[1] and /article[1]/bm[1] share the sequence (1, 1)
    records = [
        CoherentElement("d", P("/article[1]/bm[1]"), matches=2),
        CoherentElement("d", P("/article[1]/bdy[1]"), matches=2),
    ]
    for code in COMBO_CODES:
        ranked = rank_cres(records, code)
        assert {str(r.path) for r in ranked} == {"/article[1]/bdy[1]", "/article[1]/bm[1]"}
        assert str(ranked[0].path) == "/article[1]/bdy[1]"  # path breaks the dead tie


def test_matches_count_law_random_antichains():
    rng = random.Random(31)
    for _ in range(200):
        paths = support.random_tree_paths(rng)
        matching = support.random_antichain(rng, paths)
        tree = support.tree_of(paths)
        cres = identify_cres(tree, support.indices_of(tree, matching))
        if len(matching) == 1:
            assert cres[0].matches == 1
            continue
        for record in cres:
            below = sum(1 for m in matching if support.is_ancestor_of(record.path, m))
            assert record.matches == below
            assert record.matches >= 2
            assert record.path not in set(matching)


def test_identify_matches_brute_force_oracle_with_degenerate_inputs():
    # matching elements that are ancestors of other matching elements
    rng = random.Random(47)
    for _ in range(200):
        paths = support.random_tree_paths(rng)
        k = rng.randint(1, min(8, len(paths)))
        matching = rng.sample(paths, k)
        tree = support.tree_of(paths)
        got = {r.path: r.matches for r in identify_cres(tree, support.indices_of(tree, matching))}
        expected = support.brute_force_cres(paths, matching)
        if len(matching) == 1:
            assert got == {matching[0]: 1}
        else:
            assert got == expected


# Few docs, tags, indices and counts, so records often tie on every code key
# and on the sibling-index sequence (/article[1]/bdy[1] vs /article[1]/bm[1]).
cre_records = st.lists(
    st.builds(
        CoherentElement,
        doc=st.sampled_from(["a", "b", "c"]),
        path=st.lists(st.tuples(st.sampled_from(["bdy", "bm"]), st.integers(1, 2)), max_size=3).map(
            lambda steps: ElementPath((("article", 1), *steps))
        ),
        matches=st.integers(1, 3),
    ),
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(cre_records)
def test_rank_cres_equals_reference_key_for_every_code(records):
    for code in COMBO_CODES:
        assert rank_cres(records, code) == sorted(records, key=lambda r: support.naive_cre_key(r, code))


@st.composite
def corpus_matches(draw):
    """A corpus of 1-6 random documents and, per document, a set of matching
    paths: one match, only nested matches (a chain of ancestors, so no
    coherent element), none, a set holding the last node before the next
    document's root, or any set."""
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
    corpus = support.corpus_from_strings({f"d{k}": support.random_xml(random.Random(s)) for k, s in enumerate(seeds)})
    chosen = []
    for tree in corpus.trees():
        paths = support.all_paths(tree)
        shape = draw(st.sampled_from(["one", "nested", "none", "last", "any"]))
        if shape == "one":
            matching = {draw(st.sampled_from(paths))}
        elif shape == "nested":
            deepest = draw(st.sampled_from(paths))
            depths = draw(st.sets(st.integers(1, deepest.depth), min_size=min(2, deepest.depth)))
            matching = {ElementPath(deepest.steps[:depth]) for depth in depths}
        elif shape == "none":
            matching = set()
        else:
            matching = draw(st.sets(st.sampled_from(paths), min_size=1, max_size=8))
            if shape == "last":
                matching.add(paths[-1])
        chosen.append((tree, sorted(matching, key=paths.index)))
    return corpus, chosen


@settings(max_examples=200, deadline=None)
@given(corpus_matches())
def test_coherent_nodes_over_a_corpus_equal_the_per_document_oracle(case):
    corpus, chosen = case
    expected = []
    for tree, matching in chosen:
        if matching:
            cres = support.brute_force_cres(support.all_paths(tree), matching)
            expected += sorted((tree.find(path), below) for path, below in cres.items())
    nodes = sorted(i for tree, matching in chosen for i in support.indices_of(tree, matching))
    assert coherent_nodes(corpus, nodes) == expected
