"""Corpus ingestion, path resolution and subtree term accounting."""

import dataclasses
import random
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from xmlir import (
    ElementNode,
    ElementPath,
    ElementQuery,
    build_index,
    ingest_corpus,
    parse_document,
    tokenize,
)
from xmlir.matcher import AND, OR

import support


def subtree_terms(tree, node) -> Counter:
    """Token multiset of a node and all its descendants, read from the postings."""
    i = [n.path for n in tree.nodes].index(node.path)
    return Counter(term for term, hits in tree.postings.items() for j in hits if i <= j < tree.ends[i])


def own_terms(tree, node) -> list[str]:
    """The sorted tokens directly inside a node, read from the postings."""
    i = tree.nodes.index(node)
    return sorted(term for term, hits in tree.postings.items() for j in hits if j == i)


def test_path_parse_roundtrip():
    text = "/article[1]/bdy[1]/sec[2]"
    path = ElementPath.from_string(text)
    assert str(path) == text
    assert path.steps == (("article", 1), ("bdy", 1), ("sec", 2))
    assert support.sequence(path) == (1, 1, 2)
    assert path.tag == "sec"


@pytest.mark.parametrize("bad", ["", "article[1]", "/article", "/article[0]", "/a[1]/", "/a[x]"])
def test_path_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        ElementPath.from_string(bad)


def test_path_ancestry():
    a = ElementPath.from_string("/article[1]/bdy[1]")
    b = ElementPath.from_string("/article[1]/bdy[1]/sec[2]")
    assert a.is_ancestor_of(b)
    assert not b.is_ancestor_of(a)
    assert not a.is_ancestor_of(a)


def test_tokenizer_splits_on_non_alphanumeric():
    assert tokenize("Patricia-Tries, tries!  x86_64") == [
        "patricia", "tries", "tries", "x86", "64",
    ]
    assert tokenize("") == []


def test_ingest_single_file(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.xml").write_text("<article><bdy><p>hi</p></bdy></article>")
    corpus = ingest_corpus(tmp_path)
    assert list(corpus.docs) == ["a/x"]
    tree = corpus.docs["a/x"]
    node = tree.by_path.get(ElementPath.from_string("/article[1]/bdy[1]/p[1]"))
    assert node is not None and own_terms(tree, node) == ["hi"]


def test_ingest_empty_directory(tmp_path):
    corpus = ingest_corpus(tmp_path)
    assert len(corpus) == 0
    assert corpus.diagnostics == []


def test_ingest_skips_malformed_file(tmp_path):
    (tmp_path / "good.xml").write_text("<article><p>ok</p></article>")
    (tmp_path / "bad.xml").write_text("<article><p>broken</article>")
    corpus = ingest_corpus(tmp_path)
    assert list(corpus.docs) == ["good"]
    assert len(corpus.diagnostics) == 1
    assert "bad.xml" in corpus.diagnostics[0]


def test_ingest_missing_directory_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_corpus(tmp_path / "nope")


def test_resolve_root_and_out_of_range():
    tree = parse_document("<article><sec><p>a</p></sec><sec><p>b</p></sec></article>", "d")
    assert tree.by_path.get(ElementPath.from_string("/article[1]")) is tree.root
    second = tree.by_path.get(ElementPath.from_string("/article[1]/sec[2]"))
    assert second is not None and second.path.tag == "sec"
    assert tree.by_path.get(ElementPath.from_string("/article[1]/sec[9]")) is None


def test_sibling_indices_count_same_tag_only():
    tree = parse_document("<article><fm/><sec><p>x</p></sec><fig/><sec/></article>", "d")
    # the fourth child overall is only the second <sec>
    assert tree.by_path.get(ElementPath.from_string("/article[1]/sec[2]")) is not None
    assert tree.by_path.get(ElementPath.from_string("/article[1]/sec[3]")) is None


def test_subtree_terms_leaf_and_parent():
    tree = parse_document(
        "<article><sec><p>Patricia tries</p><p>Patricia tries</p></sec></article>", "d"
    )
    leaf = tree.by_path.get(ElementPath.from_string("/article[1]/sec[1]/p[1]"))
    assert subtree_terms(tree, leaf) == {"patricia": 1, "tries": 1}
    assert leaf.subtree_size == 2
    parent = tree.by_path.get(ElementPath.from_string("/article[1]/sec[1]"))
    assert subtree_terms(tree, parent) == {"patricia": 2, "tries": 2}
    assert own_terms(tree, parent) == []
    assert parent.subtree_size == 4


def test_subtree_terms_mixed_content():
    tree = parse_document("<article><sec>lead <p>inner</p> tail</sec></article>", "d")
    sec = tree.by_path.get(ElementPath.from_string("/article[1]/sec[1]"))
    assert subtree_terms(tree, sec) == {"lead": 1, "inner": 1, "tail": 1}
    assert sec.subtree_size == 3
    assert own_terms(tree, sec) == ["lead", "tail"]  # tail text belongs to <sec>


def test_subtree_terms_unresolvable_path_raises():
    tree = parse_document("<article/>", "d")
    node = tree.by_path.get(ElementPath.from_string("/article[1]/sec[1]"))
    assert node is None  # no node, so no subtree terms to count
    with pytest.raises(AttributeError):
        subtree_terms(tree, node)


def test_attributes_do_not_contribute_terms():
    tree = parse_document('<article kind="draft"><p id="p7">body</p></article>', "d")
    assert subtree_terms(tree, tree.root) == {"body": 1}
    assert tree.root.subtree_size == 1


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_path_roundtrip_on_random_trees(seed):
    rng = random.Random(seed)
    tree = parse_document(support.random_xml(rng), "d")
    for node in tree.nodes:
        assert tree.by_path.get(node.path) is node
        assert tree.by_path.get(ElementPath.from_string(str(node.path))) is node


def test_prefix_law_and_size_monotonicity():
    rng = random.Random(7)
    for _ in range(50):
        tree = parse_document(support.random_xml(rng), "d")
        nodes = tree.nodes
        # prefix law, all pairs; size never grows downward
        for a in nodes:
            for b in nodes:
                is_prefix = (
                    len(a.path.steps) < len(b.path.steps)
                    and b.path.steps[: len(a.path.steps)] == a.path.steps
                )
                assert a.path.is_ancestor_of(b.path) == is_prefix
                if is_prefix:
                    assert a.subtree_size >= b.subtree_size


def test_reingest_is_deterministic(tmp_path):
    rng = random.Random(11)
    docs = {f"j/{i:02d}": support.random_xml(rng) for i in range(8)}
    support.write_corpus(tmp_path, docs)
    first = ingest_corpus(tmp_path)
    second = ingest_corpus(tmp_path)
    assert list(first.docs) == list(second.docs)
    for doc in first.docs:
        a, b = first.docs[doc], second.docs[doc]
        assert [n.path for n in a.nodes] == [n.path for n in b.nodes]
        assert [n.subtree_size for n in a.nodes] == [n.subtree_size for n in b.nodes]
        assert a.postings == b.postings


def test_ingest_skips_directory_named_like_a_document(tmp_path):
    (tmp_path / "good.xml").write_text("<article><p>ok</p></article>")
    (tmp_path / "x.xml").mkdir()
    (tmp_path / "x.xml" / "inner.xml").write_text("<article><p>inside</p></article>")
    corpus = ingest_corpus(tmp_path)
    assert list(corpus.docs) == ["good", "x.xml/inner"]
    assert len(corpus.diagnostics) == 1
    assert corpus.diagnostics[0].startswith("x.xml: skipped (")


def test_ingest_skips_unreadable_file(tmp_path, monkeypatch):
    (tmp_path / "a.xml").write_text("<article><p>ok</p></article>")
    (tmp_path / "b.xml").write_text("<article><p>locked</p></article>")
    read_text = Path.read_text

    def deny_b(self, *args, **kwargs):
        if self.name == "b.xml":
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", deny_b)
    corpus = ingest_corpus(tmp_path)
    assert list(corpus.docs) == ["a"]
    assert len(corpus.diagnostics) == 1
    assert corpus.diagnostics[0].startswith("b.xml: skipped (")
    assert "Permission denied" in corpus.diagnostics[0]


def test_deeply_nested_document_ingests_and_matches(tmp_path):
    depth = 3000
    beta_level = 1500
    # beta sits directly in the sec at beta_level, alpha in the innermost sec
    opening = "".join("<sec>beta" if level == beta_level else "<sec>" for level in range(1, depth + 1))
    text = "<article>" + opening + "alpha" + "</sec>" * depth + "</article>"
    (tmp_path / "deep.xml").write_text(text)
    corpus = ingest_corpus(tmp_path)
    assert corpus.diagnostics == []
    tree = corpus.docs["deep"]
    assert len(tree.nodes) == depth + 1
    assert tree.root.subtree_size == 2

    def sec_path(level):
        return ElementPath((("article", 1),) + (("sec", 1),) * level)

    def matches(mode, *terms):
        query = ElementQuery(terms=frozenset(terms), mode=mode)
        return support.naive_collection_match(corpus, query)

    assert matches(OR, "alpha", "beta") == [("deep", sec_path(depth))]
    assert matches(AND, "alpha", "beta") == [("deep", sec_path(beta_level))]
    assert matches(OR, "beta") == [("deep", sec_path(beta_level))]
    assert matches(AND, "alpha", "zeta") == []
    index = build_index(corpus)
    assert index.postings["alpha"] == [("deep", 1)]


def _elementtree_layout(text: str):
    """Paths, postings, subtree sizes, ends and parents re-derived with
    ElementTree: pre-order is ``iter()`` order, as in ``support.own_tokens``."""
    own = support.own_tokens(text)
    elements = list(ET.fromstring(text).iter())
    position = {id(elem): i for i, elem in enumerate(elements)}
    counts = [len(tokens) for tokens in own.values()]
    parents = [-1] * len(elements)
    for elem in elements:
        for child in elem:
            parents[position[id(child)]] = position[id(elem)]
    ends = [position[id(elem)] + len(list(elem.iter())) for elem in elements]
    sizes = [sum(counts[position[id(below)]] for below in elem.iter()) for elem in elements]
    postings: dict[str, list[int]] = {}
    for i, tokens in enumerate(own.values()):
        for term in tokens:
            postings.setdefault(term, []).append(i)
    return list(own), {term: tuple(hits) for term, hits in postings.items()}, sizes, ends, parents


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parse_document_equals_elementtree_rederivation(seed):
    text = support.random_xml(random.Random(seed))
    tree = parse_document(text, "d")
    paths, postings, sizes, ends, parents = _elementtree_layout(text)
    assert [node.path for node in tree.nodes] == paths
    assert tree.postings == postings
    assert [node.subtree_size for node in tree.nodes] == sizes
    assert list(tree.ends) == ends
    assert list(tree.parents) == parents


def test_ingest_shares_terms_tags_and_path_steps(tmp_path):
    support.write_corpus(tmp_path, {
        "a": "<article><sec><p>shared alpha</p></sec></article>",
        "b": "<article><fm/><sec>beta shared</sec></article>",
    })
    corpus = ingest_corpus(tmp_path)
    a, b = corpus.docs["a"], corpus.docs["b"]
    (term_a,) = (term for term in a.postings if term == "shared")
    (term_b,) = (term for term in b.postings if term == "shared")
    assert term_a is term_b is sys.intern("shared")
    sec_a = a.by_path[ElementPath.from_string("/article[1]/sec[1]")].path
    sec_b = b.by_path[ElementPath.from_string("/article[1]/sec[1]")].path
    assert sec_a.steps[-1] == ("sec", 1)
    assert sec_a is sec_b  # one ElementPath per distinct path per ingest
    assert sec_a.steps[-1] is sec_b.steps[-1]  # one (tag, n) tuple per ingest
    assert sec_a.tag is sec_b.tag is sys.intern("sec")
    assert a.root.path.steps[0] is b.root.path.steps[0]
    assert a.nodes[2].path.steps[1] is sec_a.steps[-1]  # the <p> below shares it too


def test_separately_parsed_documents_share_terms_and_tags():
    a = parse_document("<article><sec>shared</sec></article>", "a")
    b = parse_document("<article><sec>x shared</sec></article>", "b")
    (term_a,) = a.postings
    assert term_a is next(term for term in b.postings if term == "shared")
    assert a.nodes[1].path.tag is b.nodes[1].path.tag


def test_node_record_holds_only_path_and_size():
    assert [field.name for field in dataclasses.fields(ElementNode)] == ["path", "subtree_size"]
    tree = parse_document("<article><p>x</p></article>", "d")
    for node in tree.nodes:
        assert not hasattr(node, "__dict__")
        assert not hasattr(node.path, "__dict__")
