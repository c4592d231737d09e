"""Element postings: the corpus-wide term postings, subtree ends and parent
columns built at parse time, and the matcher, coherent elements and index
that read them.

Random corpora cover deep chains, wide fan-outs, empty elements, terms
repeated within and across nodes, and ``support.random_xml`` documents.
Everything is checked against a recomputation from path prefixes or the
brute-force oracle in ``support``. This file holds the one oracle comparison
of each corpus-wide function: ``collection_match`` against
``brute_force_matches`` and ``identify_cres`` against ``brute_force_cres``;
``test_cre.py`` compares ``rank_cres`` with its reference key.
"""

import random
import re
import xml.etree.ElementTree as ET
from collections import Counter

from hypothesis import given, settings, strategies as st

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


@settings(max_examples=100, deadline=None)
@given(documents)
def test_postings_ends_parents_agree_with_walk(text):
    """Postings, ends, parents and subtree sizes equal a recomputation from
    path prefixes over the nodes in ElementTree's document order."""
    corpus = support.corpus_from_strings({"d": text})
    paths, nodes = corpus.paths, support.nodes_of(corpus, 0)
    assert [paths[i].tag for i in nodes] == [e.tag for e in ET.fromstring(text).iter()]
    assert len(corpus.ends) == len(corpus.parents) == len(corpus.sizes) == len(paths) == len(nodes)
    index_of = {paths[i]: i for i in nodes}
    own = support.own_tokens(text)
    assert list(own) == support.all_paths(corpus, 0)

    postings: dict[str, list[int]] = {}
    for i in nodes:
        for term in own[paths[i]]:
            postings.setdefault(term, []).append(i)
        below = support.subtree(corpus, 0, paths[i])
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
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 6))
def test_multi_document_columns_equal_each_document_parsed_alone(seed, n_docs):
    """In a corpus of several documents, each document's paths, subtree sizes,
    ends and parents, read from the corpus-wide columns, equal those of that
    document parsed alone; so the document boundaries (``ends`` and
    ``parents`` at a document's first and last node) hold. The two oracle
    tests above check matches and coherent elements across the boundaries."""
    rng = random.Random(seed)
    texts = {f"d{i}": support.random_xml(rng) for i in range(n_docs)}
    corpus = support.corpus_from_strings(texts)
    assert list(corpus.starts) == sorted(set(corpus.starts)) and corpus.starts[-1] == len(corpus.paths)
    for number, (doc, text) in enumerate(texts.items()):
        alone = support.corpus_from_strings({doc: text})
        start, end = corpus.starts[number], corpus.starts[number + 1]
        assert end - start == len(alone.paths)
        assert corpus.parents[start] == -1 and corpus.ends[start] == end
        assert corpus.ends[end - 1] == end
        regions = support.token_regions(text)
        for i in range(start, end):
            assert corpus.paths[i] == alone.paths[i - start]
            assert corpus.sizes[i] == len(regions[corpus.paths[i]])
            assert corpus.ends[i] - start == alone.ends[i - start]
            assert max(corpus.parents[i] - start, -1) == alone.parents[i - start]
