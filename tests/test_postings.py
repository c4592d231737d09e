"""Element postings: the per-document term lists, subtree ends and parent
indices built at parse time, and the matcher, coherent elements and index
that read them.

Random trees cover deep chains, wide fan-outs, empty elements and terms
repeated within and across nodes. Everything is checked against a
recomputation from path prefixes or the brute-force oracle in ``support``.
"""

import xml.etree.ElementTree as ET
from collections import Counter

from hypothesis import given, settings, strategies as st

from xmlir import ElementPath, ElementQuery, build_index, identify_cres, match_elements, parse_document
from xmlir.matcher import AND, OR

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
    tree = parse_document(text, "d")
    for mode in (AND, OR):
        query = ElementQuery(terms=frozenset(terms), mode=mode)
        matches = match_elements(tree, query)
        assert matches == sorted(set(matches))
        assert support.paths_of(tree, matches) == support.brute_force_matches(text, query)


@settings(max_examples=100, deadline=None)
@given(documents, query_terms)
def test_identify_cres_on_match_lists_equals_brute_force(text, terms):
    tree = parse_document(text, "d")
    and_matches = match_elements(tree, ElementQuery(terms=frozenset(terms), mode=AND))
    or_matches = match_elements(tree, ElementQuery(terms=frozenset(terms), mode=OR))
    combined = sorted(set(and_matches) | set(or_matches))  # AND matches may hold OR matches
    if not combined:
        return
    got = {r.path: r.matches for r in identify_cres(tree, combined)}
    all_paths = [node.path for node in tree.nodes]
    assert got == support.brute_force_cres(all_paths, support.paths_of(tree, combined))


@settings(max_examples=150, deadline=None)
@given(documents, st.data())
def test_identify_cres_on_any_index_subset_equals_brute_force(text, data):
    """Any strictly increasing index list, nested members included."""
    tree = parse_document(text, "d")
    chosen = data.draw(st.sets(st.integers(0, len(tree.nodes) - 1), min_size=1, max_size=12))
    matching = sorted(chosen)
    got = {r.path: r.matches for r in identify_cres(tree, matching)}
    all_paths = [node.path for node in tree.nodes]
    assert got == support.brute_force_cres(all_paths, support.paths_of(tree, matching))


@settings(max_examples=100, deadline=None)
@given(documents)
def test_postings_ends_parents_agree_with_walk(text):
    """Postings, ends, parents and subtree sizes equal a recomputation from
    path prefixes over the nodes in ElementTree's document order."""
    tree = parse_document(text, "d")
    nodes = tree.nodes
    assert [n.path.tag for n in nodes] == [e.tag for e in ET.fromstring(text).iter()]
    assert len(tree.ends) == len(tree.parents) == len(nodes)
    index_of = {node.path: i for i, node in enumerate(nodes)}
    own = support.own_tokens(text)
    assert list(own) == [node.path for node in nodes]

    postings: dict[str, list[int]] = {}
    for i, node in enumerate(nodes):
        for term in own[node.path]:
            postings.setdefault(term, []).append(i)
        below = [index_of[n.path] for n in support.subtree(tree, node.path)]
        assert below == list(range(i, tree.ends[i]))
        assert node.subtree_size == sum(len(own[nodes[j].path]) for j in below)
        parent = ElementPath(node.path.steps[:-1]) if node.path.depth > 1 else None
        assert tree.parents[i] == index_of.get(parent, -1)
    assert tree.postings == {term: tuple(hits) for term, hits in postings.items()}


@settings(max_examples=30, deadline=None)
@given(st.lists(documents, min_size=1, max_size=4))
def test_build_index_tf_equals_token_counter(texts):
    corpus = support.corpus_from_strings({f"d{i}": text for i, text in enumerate(texts)})
    expected: dict[str, list[tuple[str, int]]] = {}
    for tree, text in zip(corpus.trees(), texts):
        counts = Counter(t for tokens in support.own_tokens(text).values() for t in tokens)
        for term in sorted(counts):
            expected.setdefault(term, []).append((tree.doc, counts[term]))
    assert build_index(corpus).postings == expected
