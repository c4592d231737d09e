"""System composition: topic translation, answer-list assembly, wire format."""

import random
import sys
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from xmlir import (
    COMBO_CODES,
    ElementPath,
    SystemConfig,
    Topic,
    build_index,
    execute,
    parse_topics,
    rank_articles,
    read_run_file,
    translate_topic,
    write_run_file,
)
from xmlir import cre, matcher, pipeline
from xmlir.matcher import AND, OR
from xmlir.pipeline import FULLTEXT, HYBRID, XMLDB

import support
from conftest import SAMPLE_ARTICLE_XML, SAMPLE_OR_PATHS, SAMPLE_TOPIC_XML


def P(text):
    return ElementPath.from_string(text)


def topic(*keywords, id=1) -> Topic:
    return Topic(id=id, keywords=tuple(keywords))


def test_parse_single_topic_file(tmp_path):
    target = tmp_path / "topics.xml"
    target.write_text(SAMPLE_TOPIC_XML)
    topics, diagnostics = parse_topics(target)
    assert diagnostics == []
    assert len(topics) == 1
    t = topics[0]
    assert t.id == 117
    assert len(t.keywords) == 5


def test_topics_resolve_html_entities_named_by_an_external_dtd(tmp_path):
    target = tmp_path / "topics.xml"
    target.write_text(
        '<?xml version="1.0"?>\n<!DOCTYPE inex_topic SYSTEM "topic.dtd">\n'
        '<inex_topic topic_id="7" query_type="CO"><title>Caf&eacute; tries</title>'
        "<keywords>caf&eacute; search, pre&ndash;order</keywords></inex_topic>"
    )
    assert parse_topics(target) == ([Topic(7, ("caf\u00e9 search", "pre\u2013order"))], [])


def test_topics_file_names_an_undefined_entity_without_a_dtd(tmp_path):
    target = tmp_path / "topics.xml"
    target.write_text('<inex_topic topic_id="7"><keywords>pre&ndash;order</keywords></inex_topic>')
    with pytest.raises(ValueError) as info:
        parse_topics(target)
    assert str(info.value) == f"malformed topics file {target}: undefined entity &ndash;: line 1, column 38"


def test_parse_topic_container_skips_structural_and_malformed_topics(tmp_path):
    target = tmp_path / "topics.xml"
    target.write_text(
        "<inex_topics>"
        '<inex_topic topic_id="1" query_type="CO"><keywords>a</keywords></inex_topic>'
        '<inex_topic topic_id="2" query_type="CAS"><keywords>b</keywords></inex_topic>'
        '<inex_topic query_type="CO"><keywords>c</keywords></inex_topic>'
        "</inex_topics>"
    )
    topics, diagnostics = parse_topics(target)
    assert [t.id for t in topics] == [1]
    assert len(diagnostics) == 1 and "topic_id" in diagnostics[0]


def test_topic_id_is_ascii_digits(tmp_path):
    raw_ids = ["1_0", "10", "+3", " 7", "-5", "\u0663"]  # U+0663 is an Arabic-Indic three
    target = tmp_path / "topics.xml"
    target.write_text(
        "<inex_topics>"
        + "".join(
            f'<inex_topic topic_id="{raw}" query_type="CO"><keywords>a</keywords></inex_topic>' for raw in raw_ids
        )
        + "</inex_topics>",
        encoding="utf-8",
    )
    topics, diagnostics = parse_topics(target)
    assert [t.id for t in topics] == [10]
    assert diagnostics == [
        f"topic #{n}: bad or missing topic_id {raw!r}; skipped" for n, raw in enumerate(raw_ids, start=1) if raw != "10"
    ]


def test_translate_keywords_to_terms(monkeypatch):
    t = topic(
        "Patricia tries", "tries", "text search", "string search algorithm",
        "string pattern matching", id=117,
    )
    bag = translate_topic(t)
    assert set(bag) == {
        "patricia", "tries", "text", "search", "string", "algorithm", "pattern", "matching",
    }
    # duplicates stay in the bag but collapse in the element query's term set
    assert len(bag) == 11
    corpus = support.corpus_from_strings({"d": "<article><p>patricia tries</p></article>"})
    index = build_index(corpus)
    calls = _spy_collection_match(monkeypatch)
    for system, cre in ((XMLDB, False), (XMLDB, True), (HYBRID, False), (HYBRID, True)):
        calls.clear()
        execute(t, corpus, index, SystemConfig(system=system, cre=cre))
        assert {terms for _, terms in calls} == {frozenset(bag)}
        assert [mode for mode, _ in calls] == [AND, OR]  # one pass per mode


def test_translate_two_keywords():
    bag = translate_topic(topic("a", "b"))
    assert bag == ("a", "b")
    assert frozenset(bag) == frozenset({"a", "b"})


def test_translate_empty_keywords_raises():
    with pytest.raises(ValueError) as err:
        translate_topic(topic(id=9))
    assert str(err.value) == "no keyword terms to query with"  # the caller names the topic


def test_fulltext_run_paths_are_document_roots():
    corpus = support.corpus_from_strings(
        {"d1": "<article>patricia</article>", "d2": "<article>other</article>"}
    )
    config = SystemConfig(system=FULLTEXT)
    run = execute(topic("patricia"), corpus, build_index(corpus), config)
    assert [e.doc for e in run.entries] == ["d1"]
    assert all(e.path == P("/article[1]") for e in run.entries)
    assert all(e.score is not None for e in run.entries)
    assert run.system_tag == "fulltext"


def test_fulltext_no_match_is_empty():
    corpus = support.corpus_from_strings({"d1": "<article>something</article>"})
    run = execute(topic("absent"), corpus, build_index(corpus), SystemConfig(system=FULLTEXT))
    assert run.entries == ()


def test_fulltext_global_cap():
    docs = {f"d{i:04d}": "<article>patricia filler</article>" for i in range(2000)}
    corpus = support.corpus_from_strings(docs)
    run = execute(topic("patricia"), corpus, build_index(corpus), SystemConfig(system=FULLTEXT))
    assert len(run.entries) == 1500
    assert [e.rank for e in run.entries] == list(range(1, 1501))


def test_xmldb_empty_and_list_equals_or_list():
    docs = {
        "d1": "<article><p>alpha</p><p>beta</p></article>",
        "d2": "<article><p>alpha</p></article>",
    }
    corpus = support.corpus_from_strings(docs)
    # gamma never occurs, so no element satisfies the AND query
    t = topic("alpha", "gamma")
    config = SystemConfig(system=XMLDB)
    run = execute(t, corpus, build_index(corpus), config)
    or_list = support.naive_collection_match(docs, frozenset(translate_topic(t)), OR)
    assert [(e.doc, e.path) for e in run.entries] == or_list
    assert all(e.score is None for e in run.entries)


def test_xmldb_matches_hand_built_expectation():
    corpus = support.corpus_from_strings(
        {
            "a": "<article><sec><p>alpha beta</p></sec><sec><p>alpha</p></sec></article>",
            "b": "<article><sec><p>beta</p></sec></article>",
        }
    )
    run = execute(topic("alpha", "beta"), corpus, build_index(corpus), SystemConfig(system=XMLDB))
    assert [(e.doc, str(e.path)) for e in run.entries] == [
        ("a", "/article[1]/sec[1]/p[1]"),   # AND answer list first
        ("a", "/article[1]/sec[2]/p[1]"),   # then OR answers not already present
        ("b", "/article[1]/sec[1]/p[1]"),
    ]


# Document names out of sorted order, so ingestion order is not name order.
corpora = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8).map(
    lambda seeds: {f"d{(7 * i) % 11}": support.random_xml(random.Random(s)) for i, s in enumerate(seeds)}
)
keywords = st.sets(st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon", "absent"]), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    docs=corpora,
    terms=keywords,
    cre=st.booleans(),
    combo=st.sampled_from(COMBO_CODES),
    n_per_article=st.sampled_from([None, 1, 2]),
    max_results=st.one_of(st.integers(1, 12), st.just(1500)),
)
def test_xmldb_equals_full_scan(docs, terms, cre, combo, n_per_article, max_results):
    corpus = support.corpus_from_strings(docs)
    t = topic(*sorted(terms))
    config = SystemConfig(system=XMLDB, cre=cre, combo=combo, n_per_article=n_per_article, max_results=max_results)
    run = execute(t, corpus, build_index(corpus), config)
    assert [(e.doc, e.path) for e in run.entries] == support.naive_xmldb(docs, frozenset(translate_topic(t)), config)
    assert [e.rank for e in run.entries] == list(range(1, len(run.entries) + 1))
    assert all(e.score is None for e in run.entries)


@settings(max_examples=150, deadline=None)
@given(
    docs=corpora,
    terms=keywords,
    cre=st.booleans(),
    combo=st.sampled_from(COMBO_CODES),
    n_per_article=st.sampled_from([None, 1, 2]),
    max_results=st.one_of(st.integers(1, 12), st.just(1500)),
)
def test_hybrid_equals_ranked_full_scan(docs, terms, cre, combo, n_per_article, max_results):
    corpus = support.corpus_from_strings(docs)
    index = build_index(corpus)
    t = topic(*sorted(terms))
    config = SystemConfig(system=HYBRID, cre=cre, combo=combo, n_per_article=n_per_article, max_results=max_results)
    ranking = [corpus.docs[d] for d in rank_articles(index, translate_topic(t), config)[0]]
    run = execute(t, corpus, index, config)
    expected = support.naive_hybrid(docs, ranking, frozenset(translate_topic(t)), config)
    assert [(e.doc, e.path) for e in run.entries] == expected
    assert [e.rank for e in run.entries] == list(range(1, len(run.entries) + 1))
    assert all(e.score is None for e in run.entries)


def _spy_collection_match(monkeypatch) -> list[tuple[str, frozenset[str]]]:
    """Record ``(mode, terms)`` for every ``collection_match`` call, through either module."""
    calls = []
    original = matcher.collection_match

    def spy(corpus, terms, mode):
        calls.append((mode, frozenset(terms)))
        return original(corpus, terms, mode)

    monkeypatch.setattr(matcher, "collection_match", spy)
    monkeypatch.setattr(pipeline, "collection_match", spy)
    return calls


class _RecordingPostings(Mapping):
    """A term -> postings mapping that records each term read, and ``*`` for
    a walk over every term (``Mapping.get`` and ``in`` read through ``[]``)."""

    def __init__(self, postings):
        self.postings, self.read = postings, []

    def __getitem__(self, term):
        self.read.append(term)
        return self.postings[term]

    def __iter__(self):
        self.read.append("*")
        return iter(self.postings)

    def __len__(self):
        return len(self.postings)


def test_xmldb_matches_only_documents_holding_a_query_term(monkeypatch):
    corpus = support.corpus_from_strings(
        {
            "c": "<article><p>beta</p></article>",
            "b": "<article><p>unrelated</p><p>words</p></article>",
            "a": "<article><sec><p>alpha</p></sec><p>more unrelated words</p></article>",
        }
    )
    index = build_index(corpus)
    corpus.postings = _RecordingPostings(corpus.postings)
    index.postings = _RecordingPostings(index.postings)
    calls = _spy_collection_match(monkeypatch)
    for cre in (False, True):
        calls.clear()
        run = execute(topic("alpha", "beta"), corpus, index, SystemConfig(system=XMLDB, cre=cre))
        assert [e.doc for e in run.entries] == ["c", "a"]
        assert [mode for mode, _ in calls] == [AND, OR]
    # only the query terms' node lists are read, so no other document's nodes are visited
    assert corpus.postings.read and set(corpus.postings.read) == {"alpha", "beta"}
    # xmldb ranks nothing, so it reads no article-index list
    assert index.postings.read == []


@pytest.mark.parametrize("system", [FULLTEXT, XMLDB, HYBRID])
@pytest.mark.parametrize("cre_on", [False, True])
def test_index_derives_only_the_terms_a_topic_reads(system, cre_on):
    """Building the index derives no term's list; executing a topic derives its
    present terms' and none other, and an absent term reads as no documents.
    ``xmldb`` ranks nothing, so it derives none."""
    corpus = support.corpus_from_strings(
        {"a": "<article><p>alpha gamma</p></article>", "b": "<article><p>beta</p><p>alpha delta</p></article>"}
    )
    index = build_index(corpus)
    assert len(index.postings) == 0
    execute(topic("alpha", "beta absent"), corpus, index, SystemConfig(system=system, cre=cre_on))
    if system == XMLDB:
        assert len(index.postings) == 0
    else:
        assert {term for term, plist in index.postings.items() if plist} == {"alpha", "beta"}
        assert set(index.postings) <= {"alpha", "beta", "absent"} and index.postings["absent"] == ()


def _spy_everywhere(monkeypatch, module, name) -> list[tuple[tuple, dict, object]]:
    """Record ``(args, kwargs, result)`` for every call of ``module.name``,
    replacing it in every loaded ``xmlir`` module that holds it, as the
    benchmark's tracer wraps a layer."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    for module_name, loaded in list(sys.modules.items()):
        if (module_name == "xmlir" or module_name.startswith("xmlir.")) and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, spy)
    return calls


@pytest.mark.parametrize("system", [XMLDB, HYBRID])
def test_cre_systems_find_and_rank_coherent_elements_in_one_pass(monkeypatch, system):
    corpus = support.corpus_from_strings(
        {
            "a": "<article><sec><p>alpha</p><p>beta</p></sec><p>alpha beta</p></article>",
            "b": "<article><p>beta</p></article>",
            "c": "<article><sec><p>alpha</p></sec><sec><p>alpha</p></sec></article>",
        }
    )
    index = build_index(corpus)
    calls = _spy_collection_match(monkeypatch)
    identified = _spy_everywhere(monkeypatch, cre, "identify_cres")
    ranked = _spy_everywhere(monkeypatch, cre, "rank_cres")
    for config in (SystemConfig(system=FULLTEXT), SystemConfig(system=system), SystemConfig(system=system, cre=True)):
        for spied in (calls, identified, ranked):
            spied.clear()
        run = execute(topic("alpha", "beta"), corpus, index, config)
        assert {e.doc for e in run.entries} == {"a", "b", "c"}
        if not config.cre:
            assert identified == ranked == []
            continue
        assert [mode for mode, _ in calls] == [AND, OR]
        [(args, kwargs, cres)] = identified
        matching = args[1] if len(args) > 1 else kwargs["matching"]  # where the tracer reads it
        assert list(matching) == sorted(set(matching))
        [(args, kwargs, nodes)] = ranked
        assert (args[1] if len(args) > 1 else kwargs["cres"]) is cres
        assert [e.path for e in run.entries] == [corpus.path(n) for n in nodes]  # no cap is reached


def test_xmldb_or_pass_stops_at_the_cap(monkeypatch):
    corpus = support.corpus_from_strings(
        {
            "d1": "<article><p>alpha beta</p><p>alpha</p></article>",
            "d2": "<article><p>alpha</p></article>",
        }
    )
    index = build_index(corpus)
    calls = _spy_collection_match(monkeypatch)
    run = execute(topic("alpha", "beta"), corpus, index, SystemConfig(system=XMLDB, max_results=1))
    assert [(e.doc, str(e.path)) for e in run.entries] == [("d1", "/article[1]/p[1]")]
    assert calls == [(AND, frozenset({"alpha", "beta"}))]  # the AND answer fills the cap: no OR pass


def test_hybrid_or_pass_stops_at_the_cap(monkeypatch):
    corpus = support.corpus_from_strings(
        {
            "early": "<article><p>alpha</p></article>",
            "late": "<article><p>alpha beta</p><p>alpha</p></article>",
        }
    )
    index = build_index(corpus)
    assert [corpus.docs[d] for d in rank_articles(index, ["alpha", "beta"])[0]] == ["late", "early"]
    calls = _spy_collection_match(monkeypatch)
    run = execute(topic("alpha", "beta"), corpus, index, SystemConfig(system=HYBRID, max_results=1))
    assert [(e.doc, str(e.path)) for e in run.entries] == [("late", "/article[1]/p[1]")]
    # the top article's AND answer fills the cap: no OR pass
    assert calls == [(AND, frozenset({"alpha", "beta"}))]


def test_xmldb_needs_an_index():
    corpus = support.corpus_from_strings({"d": "<article>alpha</article>"})
    with pytest.raises(ValueError, match="xmldb runs need an index"):
        execute(topic("alpha"), corpus, None, SystemConfig(system=XMLDB))


def test_single_article_hybrid_equals_xmldb():
    corpus = support.corpus_from_strings({"only": SAMPLE_ARTICLE_XML})
    t = topic("patricia")
    for cre in (False, True):
        config_x = SystemConfig(system=XMLDB, cre=cre)
        config_h = SystemConfig(system=HYBRID, cre=cre)
        xml_run = execute(t, corpus, build_index(corpus), config_x)
        hybrid_run = execute(t, corpus, build_index(corpus), config_h)
        assert [(e.doc, e.path) for e in xml_run.entries] == [
            (e.doc, e.path) for e in hybrid_run.entries
        ]


def test_hybrid_article_rank_overrides_ingestion_order():
    corpus = support.corpus_from_strings(
        {
            "early": "<article><p>patricia</p><p>filler filler filler</p></article>",
            "late": "<article><p>patricia patricia patricia</p></article>",
        }
    )
    t = topic("patricia")
    index = build_index(corpus)
    ranked = [corpus.docs[d] for d in rank_articles(index, translate_topic(t))[0]]
    assert ranked == ["late", "early"]
    hybrid = execute(t, corpus, index, SystemConfig(system=HYBRID))
    assert [e.doc for e in hybrid.entries] == ["late", "early"]
    xmldb = execute(t, corpus, index, SystemConfig(system=XMLDB))
    assert [e.doc for e in xmldb.entries] == ["early", "late"]


def test_hybrid_cre_top_entry_is_the_article(sample_or_paths):
    docs = {"ic/1999/w4095": SAMPLE_ARTICLE_XML}
    corpus = support.corpus_from_strings(docs)
    t = topic("patricia")
    or_list = support.naive_collection_match(docs, frozenset(translate_topic(t)), OR)
    assert [str(path) for _, path in or_list] == SAMPLE_OR_PATHS  # matcher feeds the known list
    config = SystemConfig(system=HYBRID, cre=True, combo="MpE",
                          n_per_article=1)
    run = execute(t, corpus, build_index(corpus), config)
    assert [(e.doc, str(e.path)) for e in run.entries] == [("ic/1999/w4095", "/article[1]")]
    assert run.system_tag == "hybrid-cre"


def test_cre_config_ignored_for_fulltext():
    config = SystemConfig(system=FULLTEXT, cre=True)
    assert config.tag == "fulltext"
    corpus = support.corpus_from_strings({"d": "<article>alpha</article>"})
    run = execute(topic("alpha"), corpus, build_index(corpus), config)
    assert [str(e.path) for e in run.entries] == ["/article[1]"]


def test_run_file_roundtrip(tmp_path):
    corpus = support.corpus_from_strings(
        {"d1": "<article>patricia tries</article>", "d2": "<article>patricia</article>"}
    )
    index = build_index(corpus)
    runs = [
        execute(topic("patricia", id=1), corpus, index, SystemConfig(system=FULLTEXT)),
        execute(topic("tries", id=2), corpus, index, SystemConfig(system=XMLDB)),
        execute(topic("absent", id=3), corpus, index, SystemConfig(system=HYBRID)),  # no answers, no lines
    ]
    target = tmp_path / "mixed.run"
    write_run_file(target, runs)
    text = target.read_text()
    assert len(text.splitlines()) == 3
    for line in text.splitlines():
        assert len(line.split("\t")) == 6
    target.write_text(text.replace("\n", "\n\n", 1))  # a blank line is skipped
    loaded = read_run_file(target)
    assert [r.topic_id for r in loaded] == [1, 2]
    assert loaded[0].system_tag == "fulltext"
    assert loaded[1].system_tag == "xmldb"
    assert [e.path for e in loaded[1].entries] == [
        e.path for e in runs[1].entries
    ]
    assert all(e.score is None for e in loaded[1].entries)
    assert loaded[0].entries[0].score == pytest.approx(runs[0].entries[0].score, abs=1e-6)


def test_invalid_system_config():
    with pytest.raises(ValueError):
        SystemConfig(system="vector")
    with pytest.raises(ValueError):
        SystemConfig(system=XMLDB, n_per_article=0)
    with pytest.raises(ValueError):
        SystemConfig(system=XMLDB, slope=2.0)
    with pytest.raises(ValueError):
        SystemConfig(system=XMLDB, max_results=0)
