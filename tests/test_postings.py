"""Element postings: the corpus-wide term postings, subtree ends and parent
columns built at parse time, and the matcher, coherent elements and index
that read them.

Random trees cover deep chains, wide fan-outs, empty elements and terms
repeated within and across nodes. Everything is checked against a
recomputation from path prefixes or the brute-force oracle in ``support``.
"""

import random
import re
import xml.etree.ElementTree as ET
from collections import Counter

from hypothesis import given, settings, strategies as st

from xmlir import ElementPath, build_index, identify_cres, match_elements
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
query_terms = st.sets(st.sampled_from(VOCAB + ["absent"]), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(documents, query_terms)
def test_match_elements_equals_brute_force(text, terms):
    tree = support.corpus_from_strings({"d": text}).tree(0)
    for mode in (AND, OR):
        matches = match_elements(tree, terms, mode)
        assert matches == sorted(set(matches))
        assert support.paths_of(tree, matches) == support.brute_force_matches(text, frozenset(terms), mode)


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


corpora = st.lists(
    st.builds(_variant, documents, st.sampled_from(["as drawn", "textless", "termless", "ends in a match"])),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(corpora, query_terms)
def test_collection_match_equals_brute_force_per_document(texts, terms):
    """One pass over the whole corpus finds each document's most specific
    matches, in document order: the brute-force matches of each document's
    source text in turn, numbered by the count of elements before them."""
    corpus = support.corpus_from_strings({f"d{i}": text for i, text in enumerate(texts)})
    for mode in (AND, OR):
        expected: list[int] = []
        start = 0
        for text in texts:
            number = {path: start + k for k, path in enumerate(support.own_tokens(text))}
            expected += [number[path] for path in support.brute_force_matches(text, frozenset(terms), mode)]
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
    for tree in corpus.trees():
        paths = support.all_paths(tree)
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
            matching = set(support.paths_of(tree, sorted(matched.intersection(tree.nodes))))
        else:
            matching = draw(st.sets(st.sampled_from(paths), min_size=1, max_size=12))
            if shape == "last":
                matching.add(paths[-1])
        chosen.append((tree, sorted(matching, key=paths.index)))
    return corpus, chosen


@settings(max_examples=100, deadline=None)
@given(documents, query_terms)
def test_identify_cres_on_match_lists_equals_brute_force(text, terms):
    tree = support.corpus_from_strings({"d": text}).tree(0)
    and_matches = match_elements(tree, terms, AND)
    or_matches = match_elements(tree, terms, OR)
    combined = sorted(set(and_matches) | set(or_matches))  # AND matches may hold OR matches
    if not combined:
        return
    got = {tree.corpus.paths[node]: below for node, below in identify_cres(tree.corpus, combined)}
    assert got == support.brute_force_cres(support.all_paths(tree), support.paths_of(tree, combined))


@settings(max_examples=100, deadline=None)
@given(corpus_matches())
def test_identify_cres_on_any_index_subset_equals_brute_force(case):
    """One pass over the whole corpus finds each document's coherent
    elements and their match counts, in node order: the brute-force
    fixpoint of each document's matching paths in turn."""
    corpus, chosen = case
    expected = []
    for number, (tree, matching) in enumerate(chosen):
        if matching:
            cres = support.brute_force_cres(support.all_paths(tree), matching)
            expected += sorted((corpus.find(number, path), below) for path, below in cres.items())
    nodes = sorted(i for tree, matching in chosen for i in support.indices_of(tree, matching))
    assert identify_cres(corpus, nodes) == expected


@settings(max_examples=100, deadline=None)
@given(documents)
def test_postings_ends_parents_agree_with_walk(text):
    """Postings, ends, parents and subtree sizes equal a recomputation from
    path prefixes over the nodes in ElementTree's document order."""
    tree = support.corpus_from_strings({"d": text}).tree(0)
    corpus = tree.corpus
    paths = corpus.paths
    assert [paths[i].tag for i in tree.nodes] == [e.tag for e in ET.fromstring(text).iter()]
    assert len(corpus.ends) == len(corpus.parents) == len(corpus.sizes) == len(paths) == len(tree.nodes)
    index_of = {paths[i]: i for i in tree.nodes}
    own = support.own_tokens(text)
    assert list(own) == support.all_paths(tree)

    postings: dict[str, list[int]] = {}
    for i in tree.nodes:
        for term in own[paths[i]]:
            postings.setdefault(term, []).append(i)
        below = support.subtree(tree, paths[i])
        assert below == list(range(i, corpus.ends[i]))
        assert corpus.sizes[i] == sum(len(own[paths[j]]) for j in below)
        parent = ElementPath(paths[i].steps[:-1]) if paths[i].depth > 1 else None
        assert corpus.parents[i] == index_of.get(parent, -1)
    assert {term: list(hits) for term, hits in corpus.postings.items()} == postings


@settings(max_examples=30, deadline=None)
@given(st.lists(documents, min_size=1, max_size=4))
def test_build_index_tf_equals_token_counter(texts):
    corpus = support.corpus_from_strings({f"d{i}": text for i, text in enumerate(texts)})
    expected: dict[str, list[tuple[int, int]]] = {}
    for number, text in enumerate(texts):
        counts = Counter(t for tokens in support.own_tokens(text).values() for t in tokens)
        for term in sorted(counts):
            expected.setdefault(term, []).append((number, counts[term]))
    assert build_index(corpus).postings == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 6), query_terms)
def test_multi_document_columns_equal_each_document_parsed_alone(seed, n_docs, terms):
    """In a corpus of several documents, each document's AND/OR matches,
    coherent elements and subtree sizes, read from the corpus-wide columns,
    equal the brute-force oracle on that document parsed alone; so the
    document boundaries (the matcher's end-of-document successor, and
    ``ends`` and ``parents`` at a document's first and last node) hold."""
    rng = random.Random(seed)
    texts = {f"d{i}": support.random_xml(rng) for i in range(n_docs)}
    corpus = support.corpus_from_strings(texts)
    assert list(corpus.starts) == sorted(set(corpus.starts)) and corpus.starts[-1] == len(corpus.paths)
    expected: list[tuple[int, int]] = []  # each document's coherent elements in turn, found alone
    every_match: set[int] = set()
    for number, (tree, text) in enumerate(zip(corpus.trees(), texts.values())):
        alone = support.corpus_from_strings({tree.doc: text}).tree(0)
        offset = tree.start
        assert len(tree.nodes) == len(alone.nodes)
        assert corpus.parents[tree.start] == -1 and corpus.ends[tree.start] == tree.end
        assert corpus.ends[tree.end - 1] == tree.end
        regions = support.token_regions(text)
        for i in tree.nodes:
            assert corpus.paths[i] == alone.corpus.paths[i - offset]
            assert corpus.sizes[i] == len(regions[corpus.paths[i]])
            assert corpus.ends[i] - offset == alone.corpus.ends[i - offset]
            assert max(corpus.parents[i] - offset, -1) == alone.corpus.parents[i - offset]
        combined: set[int] = set()
        for mode in (AND, OR):
            matches = match_elements(tree, terms, mode)
            assert all(tree.start <= i < tree.end for i in matches)
            assert support.paths_of(tree, matches) == support.brute_force_matches(text, frozenset(terms), mode)
            combined |= set(matches)
        if combined:
            cres = support.brute_force_cres(list(regions), support.paths_of(tree, sorted(combined)))
            expected += sorted((corpus.find(number, path), below) for path, below in cres.items())
        every_match |= combined
    assert identify_cres(corpus, sorted(every_match)) == expected
