"""Corpus ingestion, path resolution and subtree term accounting."""

import codecs
import random
import sys
import xml.etree.ElementTree as ET
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xmlir import (
    ElementPath,
    build_index,
    ingest_corpus,
    tokenize,
)
from xmlir.cli import main
from xmlir.matcher import AND, OR, collection_match

import support


def subtree_terms(corpus, i) -> Counter:
    """Token multiset of node ``i`` and all its descendants, read from the postings."""
    end = corpus.ends[i]
    return Counter(term for term, hits in corpus.postings.items() for j in hits if i <= j < end)


def own_terms(corpus, i) -> list[str]:
    """The sorted tokens directly inside node ``i``, read from the postings."""
    return sorted(term for term, hits in corpus.postings.items() for j in hits if j == i)


def document_postings(corpus, number) -> dict[str, tuple[int, ...]]:
    """Document ``number``'s hits per term, as document-relative node numbers:
    each term's postings cut by ``bisect`` on the document's range."""
    start, end = corpus.starts[number], corpus.starts[number + 1]
    postings = {}
    for term, nodes in corpus.postings.items():
        run = nodes[bisect_left(nodes, start) : bisect_left(nodes, end)]
        if run:
            postings[term] = tuple(j - start for j in run)
    return postings


def test_path_parse_roundtrip():
    text = "/article[1]/bdy[1]/sec[2]"
    path = ElementPath.from_string(text)
    assert str(path) == text
    assert path.steps == (("article", 1), ("bdy", 1), ("sec", 2))
    assert support.sequence(path) == (1, 1, 2)
    assert path.tag == "sec"


@pytest.mark.parametrize(
    "bad", ["", "article[1]", "/article", "/article[0]", "/a[1]/", "/a[x]", "/a b[1]", "/article[1]/x\ty[1]"]
)
def test_path_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        ElementPath.from_string(bad)


def test_path_ancestry():
    a = ElementPath.from_string("/article[1]/bdy[1]")
    b = ElementPath.from_string("/article[1]/bdy[1]/sec[2]")
    assert support.is_ancestor_of(a, b)
    assert not support.is_ancestor_of(b, a)
    assert not support.is_ancestor_of(a, a)


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
    node = corpus.find(0, ElementPath.from_string("/article[1]/bdy[1]/p[1]"))
    assert node is not None and own_terms(corpus, node) == ["hi"]


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
    corpus = support.corpus_from_strings({"d": "<article><sec><p>a</p></sec><sec><p>b</p></sec></article>"})
    assert corpus.find(0, ElementPath.from_string("/article[1]")) == corpus.starts[0]
    second = corpus.find(0, ElementPath.from_string("/article[1]/sec[2]"))
    assert second is not None and corpus.paths[second].tag == "sec"
    assert corpus.find(0, ElementPath.from_string("/article[1]/sec[9]")) is None


def test_sibling_indices_count_same_tag_only():
    corpus = support.corpus_from_strings({"d": "<article><fm/><sec><p>x</p></sec><fig/><sec/></article>"})
    # the fourth child overall is only the second <sec>
    assert corpus.find(0, ElementPath.from_string("/article[1]/sec[2]")) is not None
    assert corpus.find(0, ElementPath.from_string("/article[1]/sec[3]")) is None


def test_subtree_terms_leaf_and_parent():
    corpus = support.corpus_from_strings({
        "d": "<article><sec><p>Patricia tries</p><p>Patricia tries</p></sec></article>",
    })
    leaf = corpus.find(0, ElementPath.from_string("/article[1]/sec[1]/p[1]"))
    assert subtree_terms(corpus, leaf) == {"patricia": 1, "tries": 1}
    assert corpus.sizes[leaf] == 2
    parent = corpus.find(0, ElementPath.from_string("/article[1]/sec[1]"))
    assert subtree_terms(corpus, parent) == {"patricia": 2, "tries": 2}
    assert own_terms(corpus, parent) == []
    assert corpus.sizes[parent] == 4


def test_subtree_terms_mixed_content():
    corpus = support.corpus_from_strings({"d": "<article><sec>lead <p>inner</p> tail</sec></article>"})
    sec = corpus.find(0, ElementPath.from_string("/article[1]/sec[1]"))
    assert subtree_terms(corpus, sec) == {"lead": 1, "inner": 1, "tail": 1}
    assert corpus.sizes[sec] == 3
    assert own_terms(corpus, sec) == ["lead", "tail"]  # tail text belongs to <sec>


def test_subtree_terms_unresolvable_path_raises():
    corpus = support.corpus_from_strings({"d": "<article/>"})
    node = corpus.find(0, ElementPath.from_string("/article[1]/sec[1]"))
    assert node is None  # no node, so no subtree terms to count
    with pytest.raises(TypeError):
        subtree_terms(corpus, node)


def test_attributes_do_not_contribute_terms():
    corpus = support.corpus_from_strings({"d": '<article kind="draft"><p id="p7">body</p></article>'})
    root = corpus.starts[0]
    assert subtree_terms(corpus, root) == {"body": 1}
    assert corpus.sizes[root] == 1


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=4))
def test_path_roundtrip_on_random_trees(seeds):
    """In a corpus of several documents, each node's path resolves to that
    node in its own document; a path of another document that this one
    lacks, or one past the last of a node's same-tag siblings, to None."""
    corpus = support.corpus_from_strings({f"d{k}": support.random_xml(random.Random(s)) for k, s in enumerate(seeds)})
    for number in range(len(corpus)):
        own = support.all_paths(corpus, number)
        for node in support.nodes_of(corpus, number):
            path = corpus.paths[node]
            assert corpus.find(number, path) == node
            assert corpus.find(number, ElementPath.from_string(str(path))) == node
            parent, (tag, _) = path.steps[:-1], path.steps[-1]
            siblings = sum(p.steps[:-1] == parent and p.tag == tag for p in own)
            assert corpus.find(number, ElementPath(parent + ((tag, siblings + 1),))) is None
        for path in set(corpus.paths) - set(own):
            assert corpus.find(number, path) is None


def test_prefix_law_and_size_monotonicity():
    rng = random.Random(7)
    for _ in range(50):
        corpus = support.corpus_from_strings({"d": support.random_xml(rng)})
        nodes = list(zip(corpus.paths, corpus.sizes))
        # prefix law, all pairs; size never grows downward
        for a, a_size in nodes:
            for b, b_size in nodes:
                is_prefix = len(a.steps) < len(b.steps) and b.steps[: len(a.steps)] == a.steps
                assert support.is_ancestor_of(a, b) == is_prefix
                if is_prefix:
                    assert a_size >= b_size


def test_reingest_is_deterministic(tmp_path):
    rng = random.Random(11)
    docs = {f"j/{i:02d}": support.random_xml(rng) for i in range(8)}
    support.write_corpus(tmp_path, docs)
    first = ingest_corpus(tmp_path)
    second = ingest_corpus(tmp_path)
    assert list(first.docs) == list(second.docs)
    assert first.starts == second.starts
    for number in range(len(first)):
        assert support.all_paths(first, number) == support.all_paths(second, number)
        nodes = support.nodes_of(first, number)
        assert [first.sizes[i] for i in nodes] == [second.sizes[i] for i in nodes]
        assert document_postings(first, number) == document_postings(second, number)
    assert first.postings == second.postings


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
    read_bytes = Path.read_bytes

    def deny_b(self, *args, **kwargs):
        if self.name == "b.xml":
            raise PermissionError(13, "Permission denied", str(self))
        return read_bytes(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", deny_b)
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
    assert corpus.docs == ["deep"]
    assert list(corpus.starts) == [0, depth + 1]
    assert corpus.sizes[0] == 2

    def sec_path(level):
        return ElementPath((("article", 1),) + (("sec", 1),) * level)

    def matches(mode, *terms):
        return [(corpus.docs[0], corpus.paths[i]) for i in collection_match(corpus, terms, mode)]

    assert matches(OR, "alpha", "beta") == [("deep", sec_path(depth))]
    assert matches(AND, "alpha", "beta") == [("deep", sec_path(beta_level))]
    assert matches(OR, "beta") == [("deep", sec_path(beta_level))]
    assert matches(AND, "alpha", "zeta") == []
    index = build_index(corpus)
    assert index.postings["alpha"] == [(0, 1)]


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
def test_corpus_add_equals_elementtree_rederivation(seed):
    text = support.random_xml(random.Random(seed))
    corpus = support.corpus_from_strings({"d": text})
    paths, postings, sizes, ends, parents = _elementtree_layout(text)
    assert corpus.paths == paths
    assert document_postings(corpus, 0) == postings
    assert list(corpus.sizes) == sizes
    assert list(corpus.ends) == ends
    assert list(corpus.parents) == parents


def test_ingest_shares_terms_tags_and_path_steps(tmp_path):
    support.write_corpus(tmp_path, {
        "a": "<article><sec><p>shared alpha</p></sec></article>",
        "b": "<article><fm/><sec>beta shared</sec></article>",
    })
    corpus = ingest_corpus(tmp_path)
    a, b = corpus.starts[:2]  # the two roots
    (term,) = (term for term in corpus.postings if term == "shared")
    # one postings array holds both documents
    assert len(document_postings(corpus, 0)[term]) == len(document_postings(corpus, 1)[term]) == 1
    assert term is sys.intern("shared")
    sec_a = corpus.paths[corpus.find(0, ElementPath.from_string("/article[1]/sec[1]"))]
    sec_b = corpus.paths[corpus.find(1, ElementPath.from_string("/article[1]/sec[1]"))]
    assert sec_a.steps[-1] == ("sec", 1)
    assert sec_a is sec_b  # one ElementPath per distinct path per ingest
    assert sec_a.steps[-1] is sec_b.steps[-1]  # one (tag, n) tuple per ingest
    assert sec_a.tag is sec_b.tag is sys.intern("sec")
    assert corpus.paths[a].steps[0] is corpus.paths[b].steps[0]
    assert corpus.paths[a + 2].steps[1] is sec_a.steps[-1]  # the <p> below shares it too


def test_separately_parsed_documents_share_terms_and_tags():
    a = support.corpus_from_strings({"a": "<article><sec>shared</sec></article>"})
    b = support.corpus_from_strings({"b": "<article><sec>x shared</sec></article>"})
    (term_a,) = a.postings
    assert term_a is next(term for term in b.postings if term == "shared")
    assert a.paths[1].tag is b.paths[1].tag


def test_node_record_holds_only_path_and_size():
    """The pin test of the per-document view, which only ``perfbench`` reads."""
    from xmlir.corpus import DocumentTree, Node

    assert Node._fields == ("path", "subtree_size")
    corpus = support.corpus_from_strings({"d": "<article><p>x</p></article>", "e": "<article>y z</article>"})
    for number, tree in enumerate(corpus.trees()):
        assert isinstance(tree, DocumentTree) and tree.doc == corpus.docs[number] == corpus.tree(number).doc
        assert tree.nodes == support.nodes_of(corpus, number)
        assert tree.root == Node(corpus.paths[tree.start], corpus.sizes[tree.start])
        assert not hasattr(tree.root, "__dict__") and not hasattr(tree, "__dict__")
    assert not any(hasattr(path, "__dict__") for path in corpus.paths)
    # node facts are flat integer columns, not per-node objects
    assert {column.typecode for column in (corpus.sizes, corpus.ends, corpus.parents, *corpus.postings.values())} == {"i"}


def test_ingest_honours_declared_encoding(tmp_path):
    declared = '<?xml version="1.0" encoding="ISO-8859-1"?><article><p>café olé</p></article>'
    (tmp_path / "latin.xml").write_bytes(declared.encode("latin-1"))  # 0xe9 is no UTF-8 text
    corpus = ingest_corpus(tmp_path)
    assert corpus.diagnostics == []
    assert list(corpus.docs) == ["latin"]
    assert sorted(corpus.postings) == ["caf", "ol"]  # a non-ASCII letter splits words


@pytest.mark.parametrize(
    "declaration",
    ['<?xml version="1.0" encoding="UTF-16"?>', '<?xml version="1.0" encoding="x-no-such-codec"?>'],
    ids=["false", "unknown"],
)
def test_ingest_skips_file_with_false_or_unknown_encoding(tmp_path, declaration):
    (tmp_path / "good.xml").write_text("<article><p>ok</p></article>")
    (tmp_path / "liar.xml").write_bytes((declaration + "<article><p>text</p></article>").encode("utf-8"))
    corpus = ingest_corpus(tmp_path)
    assert list(corpus.docs) == ["good"]
    assert len(corpus.diagnostics) == 1
    assert corpus.diagnostics[0].startswith("liar.xml: skipped (")
    assert sorted(corpus.postings) == ["ok"]  # nothing of the skipped file is kept


def test_ingest_resolves_html_entities_named_by_an_external_dtd(tmp_path):
    prolog = '<?xml version="1.0"?>\n<!DOCTYPE article SYSTEM "xmlarticle.dtd">\n'
    (tmp_path / "ieee.xml").write_text(prolog + "<article><p>pre&ndash;order caf&eacute; &amp; tries</p></article>")
    (tmp_path / "odd.xml").write_text(prolog + "<article><p>&nosuchentity;</p></article>")
    corpus = ingest_corpus(tmp_path)
    assert list(corpus.docs) == ["ieee"]
    assert corpus.diagnostics == ["odd.xml: skipped (undefined entity &nosuchentity;: line 3, column 12)"]
    assert sorted(corpus.postings) == ["caf", "order", "pre", "tries"]  # the dash and the é split words


def test_undefined_entity_without_a_dtd_is_named(tmp_path):
    (tmp_path / "dash.xml").write_text("<a>&ndash;</a>")
    # in an attribute expat points at the tag, so the predefined "&amp;" before it is passed over
    (tmp_path / "attr.xml").write_text('<a x="&amp;" y="&nosuch;"/>')
    # a comment's "&fake;" is no reference, so the name is read at expat's line and column: line 1's
    # "&fake;" lies past column 33, and line 2's before it
    (tmp_path / "odd.xml").write_bytes(
        "<article><!-- a comment that reaches past column 33: &fake; -->\r\n"
        "<!-- &fake; --><p>é &amp; &#233; &nosuch;</p></article>".encode()
    )
    (tmp_path / "good.xml").write_text("<a>ok</a>")
    # in UTF-16 the byte-order mark is a character of line 1, so its columns are one further on
    for order, mark in (("le", codecs.BOM_UTF16_LE), ("be", codecs.BOM_UTF16_BE)):
        for name, text in (
            ("dash", "<a>&ndash;</a>"),
            ("attr", '<a x="&amp;" y="&nosuch;"/>'),
            ("later", "<a>\r\n<b>&amp; &#233; &nosuch;</b></a>"),
        ):
            (tmp_path / f"{name}-utf16{order}.xml").write_bytes(mark + text.encode(f"utf-16-{order}"))
    corpus = ingest_corpus(tmp_path)
    assert list(corpus.docs) == ["good"]
    assert corpus.diagnostics == [
        "attr-utf16be.xml: skipped (undefined entity &nosuch;: line 1, column 1)",
        "attr-utf16le.xml: skipped (undefined entity &nosuch;: line 1, column 1)",
        "attr.xml: skipped (undefined entity &nosuch;: line 1, column 0)",
        "dash-utf16be.xml: skipped (undefined entity &ndash;: line 1, column 4)",
        "dash-utf16le.xml: skipped (undefined entity &ndash;: line 1, column 4)",
        "dash.xml: skipped (undefined entity &ndash;: line 1, column 3)",
        "later-utf16be.xml: skipped (undefined entity &nosuch;: line 2, column 16)",
        "later-utf16le.xml: skipped (undefined entity &nosuch;: line 2, column 16)",
        "odd.xml: skipped (undefined entity &nosuch;: line 2, column 33)",
    ]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.integers(0, 2**32 - 1).flatmap(
    lambda seed: support.mutated(support.random_xml(random.Random(seed)).encode(), b"<")
))
def test_mutated_documents_ingest_or_skip_cleanly(tmp_path, capsys, data):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    (corpus_dir / "fuzzed.xml").write_bytes(data)
    corpus = ingest_corpus(corpus_dir)
    if corpus.docs:
        assert list(corpus.docs) == ["fuzzed"] and corpus.diagnostics == []
        paths, postings, sizes, ends, parents = _elementtree_layout(data)
        assert corpus.paths == paths
        assert document_postings(corpus, 0) == postings
        assert (list(corpus.sizes), list(corpus.ends), list(corpus.parents)) == (sizes, ends, parents)
    else:
        assert len(corpus.diagnostics) == 1
        assert corpus.diagnostics[0].startswith("fuzzed.xml: skipped (")
    topics = tmp_path / "topics.xml"
    topics.write_text('<inex_topic topic_id="1" query_type="CO"><keywords>alpha beta</keywords></inex_topic>')
    capsys.readouterr()
    code = main([
        "run", "--corpus", str(corpus_dir), "--topics", str(topics),
        "--system", "hybrid", "--cre", "--out", str(tmp_path / "fuzzed.run"),
    ])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if corpus.docs:
        assert code == 0
    else:
        assert code == 1 and err.splitlines()[-1] == "error: cannot index an empty corpus"
