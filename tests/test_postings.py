"""Element postings: the corpus-wide term postings, subtree ends and parent
columns built at parse time, and the matcher, coherent elements and index
that read them.

Random corpora cover deep chains, wide fan-outs, empty elements, terms
repeated within and across nodes, and ``support.random_xml`` documents.
Each layer is compared with its brute-force oracle once. This file holds
the comparisons of ingest (the columns against ``support.elementtree_layout``),
``collection_match`` (``brute_force_matches``) and ``identify_cres``
(``brute_force_cres``). ``test_cre.py`` compares ``rank_cres`` with its
reference key, ``test_evaluation.py`` the ng metrics with their token-region
scorer, and ``test_acceptance.py`` holds criteria C1-C9.
"""

import random
import re
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from xmlir import ElementPath, build_index, identify_cres
from xmlir.matcher import AND, OR, collection_match

import support

VOCAB = ["alpha", "beta", "gamma", "delta"]
TAGS = ["sec", "p", "ss1"]

words = st.lists(st.sampled_from(VOCAB), max_size=4)  # empty and repeated terms


def _with_children(children):
    return st.tuples(st.sampled_from(TAGS), words, st.lists(st.tuples(children, words), max_size=6))


bushy = st.recursive(st.tuples(st.sampled_from(TAGS), words, st.just([])), _with_children, max_leaves=40)


@st.composite
def chain(draw):
    """A single path of up to 80 nested elements, each with text and tail."""
    levels = draw(st.lists(st.tuples(st.sampled_from(TAGS), words, words), min_size=1, max_size=80))
    tag, text, _ = levels[-1]
    node = (tag, text, [])
    for tag, text, tail in reversed(levels[:-1]):
        node = (tag, text, [(node, tail)])
    return node


def _xml(node) -> str:
    tag, text, children = node
    inner = " ".join(text)
    for child, tail in children:
        inner += _xml(child) + " ".join(tail)
    return f"<{tag}>{inner}</{tag}>"


documents = st.builds(
    lambda text, children: _xml(("article", text, children)),
    words,
    st.lists(st.tuples(st.one_of(bushy, chain()), words), max_size=4),
)
# epsilon: only random_xml documents hold it
query_terms = st.sets(st.sampled_from(VOCAB + ["epsilon", "absent"]), min_size=1, max_size=3)


def _variant(text: str, kind: str) -> str:
    """A document as drawn, without any text, without any query term, or
    with a last node holding every term (so a match ends the document)."""
    if kind == "textless":
        return re.sub(r">[^<]+<", "><", text)
    if kind == "termless":
        return re.sub("|".join(VOCAB), "omega", text)
    if kind == "ends in a match":
        return text[: -len("</article>")] + f"<p>{' '.join(VOCAB)}</p></article>"
    return text


random_documents = st.integers(0, 2**32 - 1).map(lambda seed: support.random_xml(random.Random(seed)))
variants = st.sampled_from(["as drawn", "textless", "termless", "ends in a match"])
corpora = st.lists(st.builds(_variant, documents | random_documents, variants), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(corpora, query_terms)
@example(["<article><p>something else</p></article>"], {"absent"})  # OR with only absent terms
def test_collection_match_equals_brute_force_per_document(texts, terms):
    """One pass over the whole corpus finds each document's most specific
    matches, in document order: the brute-force matches of each document's
    source text in turn, numbered by the count of elements before them. Also
    the pin test of ``match_elements``, kept only for ``perfbench``'s tracer:
    on each document's view it finds that document's share."""
    from xmlir.matcher import match_elements

    corpus = support.corpus_from_strings({f"d{i}": text for i, text in enumerate(texts)})
    for mode in (AND, OR):
        expected: list[int] = []
        start = 0
        for k, text in enumerate(texts):
            number = {path: start + j for j, path in enumerate(support.own_tokens(text))}
            mine = [number[path] for path in support.brute_force_matches(text, frozenset(terms), mode)]
            assert match_elements(corpus.tree(k), terms, mode) == mine
            expected += mine
            start += len(number)
        assert collection_match(corpus, terms, mode) == expected


@st.composite
def corpus_matches(draw):
    """A ``corpora`` corpus and, per document, a set of matching paths: one
    match, only nested matches (a chain of ancestors, so no coherent
    element), none, a set holding its last node (the one before the next
    document's root), pairwise unrelated paths, any set, or its share of the
    AND and OR matches of a query (``collection_match``, as ``execute`` takes
    them)."""
    corpus = support.corpus_from_strings({f"d{i}": text for i, text in enumerate(draw(corpora))})
    terms = draw(query_terms)
    matched = set(collection_match(corpus, terms, AND)) | set(collection_match(corpus, terms, OR))
    chosen = []
    for number in range(len(corpus)):
        paths = support.all_paths(corpus, number)
        shape = draw(st.sampled_from(["one", "nested", "none", "last", "unrelated", "any", "matched"]))
        if shape == "one":
            matching = {draw(st.sampled_from(paths))}
        elif shape == "nested":
            deepest = draw(st.sampled_from(paths))
            depths = draw(st.sets(st.integers(1, deepest.depth), min_size=min(2, deepest.depth)))
            matching = {ElementPath(deepest.steps[:depth]) for depth in depths}
        elif shape == "none":
            matching = set()
        elif shape == "unrelated":
            matching = set(support.random_antichain(random.Random(draw(st.integers(0, 2**32 - 1))), paths))
        elif shape == "matched":
            matching = {corpus.paths[i] for i in matched.intersection(support.nodes_of(corpus, number))}
        else:
            matching = draw(st.sets(st.sampled_from(paths), min_size=1, max_size=12))
            if shape == "last":
                matching.add(paths[-1])
        chosen.append(sorted(matching, key=paths.index))
    return corpus, chosen


@settings(max_examples=100, deadline=None)
@given(corpus_matches())
def test_identify_cres_on_any_index_subset_equals_brute_force(case):
    """One pass over the whole corpus finds each document's coherent
    elements and their match counts, in node order: the brute-force
    fixpoint of each document's matching paths in turn. The output alone also
    keeps three laws, so an oracle fault that agrees with an implementation
    fault still shows: a sole match is its document's one answer, counted 1;
    otherwise every answer holds at least 2 matches and is not one of them."""
    corpus, chosen = case
    expected = []
    for number, matching in enumerate(chosen):
        if matching:
            cres = support.brute_force_cres(support.all_paths(corpus, number), matching)
            expected += sorted((corpus.find(number, path), below) for path, below in cres.items())
    nodes = sorted(i for number, matching in enumerate(chosen) for i in support.indices_of(corpus, number, matching))
    found = identify_cres(corpus, nodes)
    assert found == expected
    for number, matching in enumerate(chosen):
        mine = [(node, below) for node, below in found if node in support.nodes_of(corpus, number)]
        if len(matching) == 1:
            assert mine == [(corpus.find(number, matching[0]), 1)]
        else:
            assert all(below >= 2 and node not in nodes for node, below in mine)


@settings(max_examples=30, deadline=None)
@given(corpora)
def test_multi_document_columns_equal_each_document_parsed_alone(texts):
    """``Corpus.add`` numbers every document's nodes after the documents
    before it: ``starts`` ascends from 0 to the node count, and each
    document's paths, subtree sizes, ends and parents and the corpus-wide
    postings equal the document's ElementTree re-derivation, shifted by its
    start (a root's parent stays -1)."""
    corpus = support.corpus_from_strings({f"d{i}": text for i, text in enumerate(texts)})
    starts = list(corpus.starts)
    assert starts == sorted(set(starts)) and starts[0] == 0
    assert starts[-1] == len(corpus.paths) == len(corpus.sizes) == len(corpus.ends) == len(corpus.parents)
    postings: dict[str, list[int]] = {}
    for number, text in enumerate(texts):
        start, nodes = starts[number], support.nodes_of(corpus, number)
        paths, own_postings, sizes, ends, parents = support.elementtree_layout(text)
        assert support.all_paths(corpus, number) == paths
        assert [corpus.sizes[i] for i in nodes] == sizes
        assert [corpus.ends[i] for i in nodes] == [start + end for end in ends]
        assert [corpus.parents[i] for i in nodes] == [start + parent if parent >= 0 else -1 for parent in parents]
        for term, hits in own_postings.items():
            postings.setdefault(term, []).extend(start + j for j in hits)
    assert {term: list(hits) for term, hits in corpus.postings.items()} == postings


@settings(max_examples=30, deadline=None)
@given(st.lists(documents | random_documents, min_size=1, max_size=4))
def test_build_index_tf_equals_token_counter(texts):
    corpus = support.corpus_from_strings({f"d{i}": text for i, text in enumerate(texts)})
    expected: dict[str, list[tuple[int, int]]] = {}
    lengths = []
    for number, text in enumerate(texts):
        counts = Counter(t for tokens in support.own_tokens(text).values() for t in tokens)
        for term in sorted(counts):
            expected.setdefault(term, []).append((number, counts[term]))
        lengths.append(counts.total())
    index = build_index(corpus)
    assert index.postings == expected
    assert list(index.doc_lengths) == lengths
