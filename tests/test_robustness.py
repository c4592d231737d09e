"""Odd and hostile input: namespaced, BOM-prefixed, entity-laden, very wide
and empty documents, repeated topic ids and malformed run files end in
results, in one diagnostic per skipped item, or in one clean ``error:``
line, never in a traceback."""

import os
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xmlir import (
    AssessmentSet,
    Corpus,
    ElementPath,
    RunEntry,
    RunRecord,
    Topic,
    load_assessments,
    parse_assessment_file,
    parse_topics,
    read_run_file,
    write_run_file,
)
from xmlir.matcher import OR, collection_match
from xmlir.cli import main

import support

NS = "{http://x.org/ns}"
NAMESPACED_XML = (
    '<article xmlns="http://x.org/ns" xmlns:m="http://x.org/meta">'
    "<m:fm><m:tig>compact storage</m:tig></m:fm>"
    "<sec><p>patricia tries</p></sec><sec><p>other words</p></sec>"
    "</article>"
)
NAMESPACED_TOPIC = """\
<inex_topic topic_id="7" query_type="CO">
  <title>Patricia Tries</title>
  <keywords>patricia tries</keywords>
</inex_topic>
"""
MATCH_PATH = f"/{NS}article[1]/{NS}sec[1]/{NS}p[1]"


@pytest.fixture
def namespaced_workspace(tmp_path, monkeypatch):
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    support.write_corpus(
        tmp_path / "corpus",
        {"ns/a": NAMESPACED_XML, "plain/b": "<article><p>unrelated text</p></article>"},
    )
    (tmp_path / "topics.xml").write_text(NAMESPACED_TOPIC)
    assessments = tmp_path / "assessments"
    assessments.mkdir()
    (assessments / "7.xml").write_text(
        f'<assessments topic_id="7"><file file="ns/a">'
        f'<path E="3" S="3" path="{MATCH_PATH}"/></file></assessments>'
    )
    return tmp_path


@pytest.mark.parametrize("metric", ["inex-eval", "ng-o"])
def test_namespaced_corpus_runs_and_evaluates(namespaced_workspace, capsys, metric):
    ws = namespaced_workspace
    run_file = ws / "xmldb.run"
    assert main([
        "run", "--corpus", str(ws / "corpus"), "--topics", str(ws / "topics.xml"),
        "--system", "xmldb", "--out", str(run_file),
    ]) == 0
    assert run_file.read_text() == f"7\t1\tns/a\t{MATCH_PATH}\t-\txmldb\n"
    report = ws / f"{metric}.tsv"
    assert main([
        "eval", str(run_file), "--assessments", str(ws / "assessments"),
        "--corpus", str(ws / "corpus"), "--metric", metric, "--out", str(report),
    ]) == 0
    assert "error:" not in capsys.readouterr().err
    assert report.read_text().splitlines()[1:] == ["7\t1.000000", "map\t1.000000"]


def test_namespaced_paths_round_trip():
    corpus = support.corpus_from_strings({"d": NAMESPACED_XML})
    assert str(corpus.path(1)) == f"/{NS}article[1]/{{http://x.org/meta}}fm[1]"
    for node in range(len(corpus.parents)):
        text = str(corpus.path(node))
        assert ElementPath.from_string(text) == corpus.path(node)
        assert corpus.find(0, ElementPath.from_string(text)) == node


@pytest.mark.parametrize(
    "bad",
    [
        "/{http://x.org/ns}article",
        "/{http://x.org/ns article[1]",
        "/{http://x.org/ns}[1]",
        "/{a}{b}c[1]",
        "{http://x.org/ns}article[1]",
        "/article[1]{http://x.org/ns}",
        "/article[1]/{http://x.org/ns}sec[1]/",
    ],
)
def test_malformed_namespaced_paths_are_rejected(bad):
    with pytest.raises(ValueError):
        ElementPath.from_string(bad)


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"], ids=["tab", "lf", "cr"])
def test_document_identifier_with_a_tab_or_line_break_is_skipped(namespaced_workspace, capsys, name):
    corpus = Corpus()
    with pytest.raises(ValueError, match="holds a tab or line break"):
        corpus.add(name, NAMESPACED_XML)
    assert (corpus.docs, len(corpus.path_ids), corpus.postings) == ([], 0, {})
    ws = namespaced_workspace
    (ws / "corpus" / f"{name}.xml").write_text(NAMESPACED_XML)
    run_file = ws / "xmldb.run"
    assert main([
        "run", "--corpus", str(ws / "corpus"), "--topics", str(ws / "topics.xml"),
        "--system", "xmldb", "--out", str(run_file),
    ]) == 0
    err = capsys.readouterr().err
    escaped = name.encode("unicode_escape").decode()  # so the diagnostic stays one line
    assert err == f"corpus: {escaped}.xml: skipped (document identifier {name!r} holds a tab or line break)\n"
    assert [(e.doc, str(e.path)) for r in read_run_file(run_file) for e in r.entries] == [("ns/a", MATCH_PATH)]


@pytest.mark.parametrize("system", ["fulltext", "xmldb"])
def test_document_file_name_that_is_not_utf8_is_skipped(namespaced_workspace, capfd, system):
    corpus = Corpus()
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        corpus.add("b\udcffd", NAMESPACED_XML)  # the name the bytes b"b\xffd" decode to
    assert (corpus.docs, len(corpus.path_ids), corpus.postings) == ([], 0, {})
    ws = namespaced_workspace
    (ws / "corpus" / os.fsdecode(b"b\xffd.xml")).write_text(NAMESPACED_XML)
    run_file = ws / "out.run"
    run_file.write_text("old")
    assert main([
        "run", "--corpus", str(ws / "corpus"), "--topics", str(ws / "topics.xml"),
        "--system", system, "--out", str(run_file),
    ]) == 0
    err = capfd.readouterr().err  # how the file name's surrogate shows depends on the stream's error handler
    assert err.startswith("corpus: b") and err.count("\n") == 1
    assert err.endswith(".xml: skipped (document identifier 'b\\udcffd' is not UTF-8 text)\n")
    assert "ns/a" in {e.doc for r in read_run_file(run_file) for e in r.entries}


def test_run_line_that_utf8_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    out = tmp_path / "out.run"
    out.write_text("old")
    ok = RunEntry(1, "a", ElementPath.from_string("/article[1]"), None)
    bad = RunEntry(2, "b\udcffd", ElementPath.from_string("/article[1]"), None)
    with pytest.raises(ValueError, match=re.escape(f"{out}: cannot write '7\\t2\\tb\\udcffd\\t")):
        write_run_file(out, [RunRecord(7, "xmldb", (ok, bad))])
    assert out.read_text() == "old"


@pytest.mark.parametrize("uri", ["u&#9;v", "u&#10;v", "u&#13;v"], ids=["tab", "lf", "cr"])
def test_run_line_that_would_not_read_back_is_a_clean_error(tmp_path, capsys, uri):
    runs = [RunRecord(7, "xmldb", (RunEntry(1, "a\tb", ElementPath.from_string("/article[1]"), None),))]
    with pytest.raises(ValueError, match="cannot write"):
        write_run_file(tmp_path / "direct.run", runs)
    assert not (tmp_path / "direct.run").exists()
    support.write_corpus(tmp_path / "corpus", {"d": f'<article xmlns="{uri}"><p>patricia tries</p></article>'})
    (tmp_path / "topics.xml").write_text(NAMESPACED_TOPIC)
    run_file = tmp_path / "xmldb.run"
    assert main([
        "run", "--corpus", str(tmp_path / "corpus"), "--topics", str(tmp_path / "topics.xml"),
        "--system", "xmldb", "--out", str(run_file),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_file}: cannot write ") and err.count("\n") == 1
    assert not run_file.exists()


def test_whitespace_in_an_assessed_step_skips_the_file(namespaced_workspace, capsys):
    ws = namespaced_workspace
    (ws / "assessments" / "8.xml").write_text(
        '<assessments topic_id="8"><file file="ns/a">'
        '<path E="3" S="3" path="/article[1]/x&#9;y[1]"/></file></assessments>'
    )
    assert main(["assess-stats", "--assessments", str(ws / "assessments"), "--out", str(ws / "stats")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("assessments: 8.xml: skipped (malformed element path ")
    for case in ("original", "general", "specific"):
        rows = (ws / "stats" / f"distribution_{case}.tsv").read_text().splitlines()[1:]
        assert rows == [f"{NS}p\t1"]


GOOD_LINE = "7\t1\tns/a\t/article[1]\t-\txmldb"


@pytest.mark.parametrize(
    "line",
    [
        "x\t1\tns/a\t/article[1]\t-\txmldb",  # topic id
        "7\tx\tns/a\t/article[1]\t-\txmldb",  # rank
        "7\t1\tns/a\tarticle[1]\t-\txmldb",  # path
        "7\t1\tns/a\t/article[1]\tx\txmldb",  # score
        "7\t1\tns/a\t/article[1]\t-",  # field count
        "7\t-7\tns/a\t/article[1]/p[1]\t-\txmldb",  # rank below 1
        "8\t0\tns/a\t/article[1]\t-\txmldb",  # rank below 1 opening a topic
        "7\t1\tns/a\t/article[1]/p[1]\t-\txmldb",  # rank not above the one before
    ],
    ids=["topic-id", "rank", "path", "score", "field-count", "negative-rank", "zero-rank", "rank-order"],
)
def test_malformed_run_line_names_file_and_line(tmp_path, capsys, line):
    run_file = tmp_path / "bad.run"
    run_file.write_text(f"{GOOD_LINE}\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(run_file))}: line 2: "):
        read_run_file(run_file)
    assessments = tmp_path / "assessments"
    assessments.mkdir()
    assert main(["eval", str(run_file), "--assessments", str(assessments)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_file}: line 2: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "number", ["1_0", "+3", " 7", "-5", "\u0663"], ids=["underscore", "plus", "space", "minus", "arabic-indic"]
)
def test_run_file_topic_ids_and_ranks_are_ascii_digits(tmp_path, number):
    run_file = tmp_path / "numbers.run"
    for field, line in (
        ("topic_id", f"{number}\t1\tns/a\t/article[1]\t-\txmldb"),
        ("rank", f"7\t{number}\tns/a\t/article[1]\t-\txmldb"),
    ):
        run_file.write_text(f"{line}\n", encoding="utf-8")
        message = f"{run_file}: line 1: {field} must be ASCII digits, not {number!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_run_file(run_file)


@pytest.mark.parametrize(
    "score", ["1_0", " 7", "7 ", "٣", "0x1p3", "1.", ".5", "1e5_0"],
    ids=[
        "underscore", "leading-space", "trailing-space", "arabic-indic", "hex", "bare-point", "no-integer", "exponent",
    ],
)
def test_run_file_scores_are_ascii_decimals(tmp_path, score):
    run_file = tmp_path / "scores.run"
    run_file.write_text(f"7\t1\tns/a\t/article[1]\t{score}\tfulltext\n", encoding="utf-8")
    message = f"{run_file}: line 1: score must be finite and written as an ASCII decimal, not {score!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_run_file(run_file)


@settings(max_examples=200, deadline=None)
@given(score=st.floats(allow_nan=False, allow_infinity=False))
def test_every_written_score_reads_back(tmp_path_factory, score):
    run_file = tmp_path_factory.mktemp("scores") / "written.run"
    entry = RunEntry(rank=1, doc="ns/a", path=ElementPath.from_string(MATCH_PATH), score=score)
    write_run_file(run_file, [RunRecord(topic_id=7, system_tag="fulltext", entries=(entry,))])
    (loaded,) = read_run_file(run_file)
    assert [e.score for e in loaded.entries] == [float(f"{score:.6f}")]


def test_negative_topic_id_is_not_written(tmp_path):
    run_file = tmp_path / "negative.run"
    entry = RunEntry(rank=1, doc="ns/a", path=ElementPath.from_string(MATCH_PATH), score=None)
    with pytest.raises(ValueError, match=r": cannot write .*: topic_id must be ASCII digits, not '-5'$"):
        write_run_file(run_file, [RunRecord(topic_id=-5, system_tag="xmldb", entries=(entry,))])
    assert not run_file.exists()


@pytest.mark.parametrize(("field", "value", "reason"), [
    ("rank", 0, "rank must be at least 1, not 0"),
    ("doc", "a\rb", "expected 6 tab-separated fields"),
    ("score", float("nan"), "score must be finite and written as an ASCII decimal, not 'nan'"),
    ("system_tag", "x\ny", "expected 6 tab-separated fields"),
])
def test_a_value_that_would_not_read_back_names_the_first_line_holding_it(tmp_path, field, value, reason):
    # values are checked once each, not line by line, but the message still names the first bad line
    path = ElementPath.from_string(MATCH_PATH)
    good = RunRecord(7, "fulltext", (RunEntry(1, "ns/a", path, 0.5), RunEntry(2, "ns/b", path, 0.25)))
    if field == "system_tag":
        bad, line = good._replace(topic_id=8, system_tag=value), f"8\t1\tns/a\t{MATCH_PATH}\t0.500000\t{value}"
    else:
        second = good.entries[1]._replace(**{field: value})
        bad = good._replace(topic_id=8, entries=(good.entries[0], second))
        fields = {"rank": "2", "doc": "ns/b", "path": MATCH_PATH, "score": "0.250000"}
        fields[field] = str(value)
        line = "\t".join(["8", *fields.values(), "fulltext"])
    run_file = tmp_path / "bad.run"
    message = f"{run_file}: cannot write {line!r}: {reason}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_run_file(run_file, [good, bad, bad])
    assert not run_file.exists()


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_non_finite_run_score_is_rejected(namespaced_workspace, capsys, score):
    ws = namespaced_workspace
    run_file = ws / "bad.run"
    run_file.write_text(f"7\t1\tns/a\t{MATCH_PATH}\t{score}\tfulltext\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(run_file))}: line 1: score must be finite"):
        read_run_file(run_file)
    assert main(["eval", str(run_file), "--assessments", str(ws / "assessments")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {run_file}: line 1: score must be finite")
    assert "Traceback" not in captured.err and "map" not in captured.out


def test_element_listed_twice_in_a_topic_is_rejected(namespaced_workspace, capsys):
    ws = namespaced_workspace
    run_file = ws / "twice.run"
    run_file.write_text(f"7\t1\tns/a\t{MATCH_PATH}\t-\txmldb\n" * 2)
    message = f"{run_file}: line 2: topic 7 lists ns/a {MATCH_PATH} twice"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_run_file(run_file)
    argv = ["eval", str(run_file), "--assessments", str(ws / "assessments"), "--corpus", str(ws / "corpus")]
    assert main(argv + ["--metric", "ng-s"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "map" not in captured.out


def test_unreadable_assessment_file_is_skipped(namespaced_workspace, capsys):
    ws = namespaced_workspace
    (ws / "assessments" / "x.xml").mkdir()  # a directory is not a readable file
    run_file = ws / "ns.run"
    run_file.write_text(f"7\t1\tns/a\t{MATCH_PATH}\t-\txmldb\n")
    scores = ws / "scores.tsv"
    argv = ["eval", str(run_file), "--assessments", str(ws / "assessments"), "--out", str(scores)]
    assert main(argv) == 0
    assert scores.read_text().splitlines()[1:] == ["7\t1.000000", "map\t1.000000"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("assessments: x.xml: skipped (")
    assert main(["assess-stats", "--assessments", str(ws / "assessments"), "--out", str(ws / "stats")]) == 0
    assert (ws / "stats" / "categories.tsv").read_text().splitlines()[1:] == ["7\t0\t1\tnarrow"]
    assert capsys.readouterr().err.splitlines() == err


def _entity_bomb(levels: int = 7) -> str:
    """Nested entities expanding to ``10**levels`` copies of ``lol``."""
    entities = ['<!ENTITY l0 "lol ">'] + [
        f'<!ENTITY l{i} "{f"&l{i - 1};" * 10}">' for i in range(1, levels + 1)
    ]
    return f"<!DOCTYPE article [{''.join(entities)}]><article><p>&l{levels};</p></article>"


def _run_xmldb(tmp_path, docs: dict[str, str], topics: str) -> list[list[str]]:
    """``xmlir run --system xmldb`` over the given corpus and topics; the run file's fields."""
    support.write_corpus(tmp_path / "corpus", docs)
    (tmp_path / "topics.xml").write_text(topics)
    run_file = tmp_path / "xmldb.run"
    assert main([
        "run", "--corpus", str(tmp_path / "corpus"), "--topics", str(tmp_path / "topics.xml"),
        "--system", "xmldb", "--out", str(run_file),
    ]) == 0
    return [line.split("\t") for line in run_file.read_text().splitlines()]


def test_hostile_documents_ingest_or_skip_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    fields = _run_xmldb(
        tmp_path,
        {
            "bom": "\ufeff<?xml version='1.0' encoding='utf-8'?><article><p>patricia</p></article>",
            "bomb": _entity_bomb(),
            "empty": "<article><sec/><p></p><sec> </sec><p>patricia</p></article>",
            "entity": '<!DOCTYPE article [<!ENTITY pt "patricia tries">]><article><p>&pt;</p></article>',
            "wide": "<article>" + "<p>filler</p>" * 20000 + "<p>patricia</p></article>",
        },
        NAMESPACED_TOPIC.replace("patricia tries", "patricia"),
    )
    err = capsys.readouterr().err
    assert "Traceback" not in err
    corpus_lines = [line for line in err.splitlines() if line.startswith("corpus:")]
    assert len(corpus_lines) == 1
    assert corpus_lines[0].startswith("corpus: bomb.xml: skipped (limit on input amplification")
    assert [f[2:4] for f in fields] == [
        ["bom", "/article[1]/p[1]"],
        ["empty", "/article[1]/p[2]"],
        ["entity", "/article[1]/p[1]"],
        ["wide", "/article[1]/p[20001]"],
    ]


def test_empty_elements_have_size_zero_and_never_match():
    corpus = support.corpus_from_strings({"d": "<article><sec/><p></p><sec> </sec><p>alpha</p></article>"})
    sizes = {str(path): size for (_, path), size in support.element_sizes(corpus).items()}
    assert sizes == {
        "/article[1]": 1,
        "/article[1]/sec[1]": 0,
        "/article[1]/p[1]": 0,
        "/article[1]/sec[2]": 0,
        "/article[1]/p[2]": 1,
    }
    for terms in ({"alpha"}, {"alpha", "absent"}):
        assert [str(corpus.path(i)) for i in collection_match(corpus, terms, OR)] == ["/article[1]/p[2]"]


DUPLICATE_TOPICS = """\
<topics>
  <inex_topic topic_id="7" query_type="CO"><keywords>patricia</keywords></inex_topic>
  <inex_topic topic_id="8" query_type="CO"><keywords>tries</keywords></inex_topic>
  <inex_topic topic_id="7" query_type="CO"><keywords>patricia</keywords></inex_topic>
</topics>
"""


def test_repeated_topic_id_is_run_once(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    fields = _run_xmldb(
        tmp_path,
        {"a": "<article><p>patricia</p></article>", "b": "<article><p>patricia tries</p></article>"},
        DUPLICATE_TOPICS,
    )
    assert capsys.readouterr().err.splitlines() == ["topics: topic #3: duplicate topic_id 7; skipped"]
    assert [f[:2] for f in fields] == [["7", "1"], ["7", "2"], ["8", "1"]]


def test_run_file_topic_block_restarting_is_rejected(tmp_path, capsys):
    run_file = tmp_path / "split.run"
    run_file.write_text(
        "7\t1\tns/a\t/article[1]\t-\txmldb\n"
        "8\t1\tns/a\t/article[1]\t-\txmldb\n"
        "7\t2\tns/a\t/article[1]/p[1]\t-\txmldb\n"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(str(run_file))}: line 3: topic 7 "):
        read_run_file(run_file)
    assessments = tmp_path / "assessments"
    assessments.mkdir()
    assert main(["eval", str(run_file), "--assessments", str(assessments)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {run_file}: line 3: ")


def test_run_file_topic_block_changing_its_tag_is_rejected(tmp_path, capsys):
    run_file = tmp_path / "retagged.run"
    run_file.write_text("7\t1\tns/a\t/article[1]\t-\txmldb\n7\t2\tns/a\t/article[1]/p[1]\t-\thybrid\n")
    message = f"{run_file}: line 2: topic 7 is tagged xmldb, then hybrid"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_run_file(run_file)
    assessments = tmp_path / "assessments"
    assessments.mkdir()
    assert main(["eval", str(run_file), "--assessments", str(assessments)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repeated_assessment_topic_id_keeps_the_first_file(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    _run_xmldb(tmp_path, {"a": "<article><p>patricia</p></article>"}, NAMESPACED_TOPIC)
    assessments = tmp_path / "assessments"
    assessments.mkdir()
    # the paragraph the run retrieves is relevant in a.xml, only the article in b.xml
    for name, path in (("a", "/article[1]/p[1]"), ("b", "/article[1]")):
        (assessments / f"{name}.xml").write_text(
            f'<assessments topic_id="7"><file file="a"><path E="3" S="3" path="{path}"/></file></assessments>'
        )
    capsys.readouterr()
    scores = tmp_path / "scores.tsv"
    argv = ["eval", str(tmp_path / "xmldb.run"), "--assessments", str(assessments), "--out", str(scores)]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == ["assessments: b.xml: duplicate topic_id 7; skipped"]
    assert scores.read_text().splitlines()[1:] == ["7\t1.000000", "map\t1.000000"]
    stats = tmp_path / "stats"
    assert main(["assess-stats", "--assessments", str(assessments), "--out", str(stats)]) == 0
    assert (stats / "categories.tsv").read_text().splitlines()[1:] == ["7\t0\t1\tnarrow"]


VALID_RUN = (
    f"7\t1\tns/a\t{MATCH_PATH}\t0.500000\tfulltext\n"
    "7\t2\tplain/b\t/article[1]\t0.250000\tfulltext\n"
    "8\t1\tns/a\t/article[1]/sec[1]/p[1]\t-\txmldb\n"
).encode()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=support.mutated(VALID_RUN, b"\t"), metric=st.sampled_from(["inex-eval", "ng-s"]))
def test_mutated_run_files_parse_or_fail_cleanly(namespaced_workspace, capsys, data, metric):
    ws = namespaced_workspace
    run_file = ws / "fuzzed.run"
    run_file.write_bytes(data)
    try:
        runs = read_run_file(run_file)
    except ValueError:
        runs = None
    assert runs is None or all(isinstance(run, RunRecord) for run in runs)
    capsys.readouterr()
    argv = ["eval", str(run_file), "--assessments", str(ws / "assessments"), "--corpus", str(ws / "corpus")]
    code = main(argv + ["--metric", metric])
    err = capsys.readouterr().err
    assert code == (1 if runs is None else 0)
    assert "Traceback" not in err
    if runs is None:
        assert re.match(f"error: {re.escape(str(run_file))}: line [0-9]+: ", err)


VALID_TOPICS = (
    "<inex_topics>\n"
    '<inex_topic topic_id="7" query_type="CO"><title>Patricia Tries</title>'
    "<keywords>patricia, tries</keywords></inex_topic>\n"
    '<inex_topic topic_id="8" query_type="CO"><keywords>compact storage</keywords></inex_topic>\n'
    '<inex_topic topic_id="9" query_type="CAS"><keywords>other</keywords></inex_topic>\n'
    "</inex_topics>\n"
).encode()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=support.mutated(VALID_TOPICS, b'"'))
def test_mutated_topics_files_parse_or_fail_cleanly(namespaced_workspace, capsys, data):
    ws = namespaced_workspace
    topics_file = ws / "fuzzed-topics.xml"
    topics_file.write_bytes(data)
    try:
        topics, _ = parse_topics(topics_file)
    except ValueError:
        topics = None
    assert topics is None or all(isinstance(topic, Topic) for topic in topics)
    capsys.readouterr()
    argv = [
        "run", "--corpus", str(ws / "corpus"), "--topics", str(topics_file),
        "--system", "xmldb", "--out", str(ws / "fuzzed.run"),
    ]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == (1 if topics is None else 0)
    assert "Traceback" not in err
    if topics is None:
        assert err.startswith(f"error: malformed topics file {topics_file}: ")


VALID_ASSESSMENT = (
    '<assessments topic_id="7">\n'
    '<file file="ns/a">\n'
    f'<path E="3" S="3" path="{MATCH_PATH}"/>\n'
    f'<path E="2" S="1" path="/{NS}article[1]"/>\n'
    "</file>\n"
    '<file file="plain/b"><path E="3" S="3" path="/article[1]/p[1]"/></file>\n'
    "</assessments>\n"
).encode()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=support.mutated(VALID_ASSESSMENT, b'"'), metric=st.sampled_from(["inex-eval", "ng-s"]))
def test_mutated_assessment_files_parse_or_skip_cleanly(namespaced_workspace, capsys, data, metric):
    ws = namespaced_workspace
    assessments = ws / "assessments"
    assessment_file = assessments / "7.xml"
    assessment_file.write_bytes(data)
    try:
        parsed = parse_assessment_file(assessment_file)
    except ValueError:
        parsed = None
    assert parsed is None or isinstance(parsed, AssessmentSet)
    sets, diagnostics = load_assessments(assessments)
    if parsed is None:
        assert sets == [] and len(diagnostics) == 1
        assert diagnostics[0].startswith("7.xml: skipped (")
    else:
        assert sets == [parsed] and diagnostics == []

    run_file = ws / "ns.run"
    run_file.write_text(f"7\t1\tns/a\t{MATCH_PATH}\t-\txmldb\n")
    capsys.readouterr()
    for argv in (
        ["eval", str(run_file), "--assessments", str(assessments), "--corpus", str(ws / "corpus"),
         "--metric", metric, "--out", str(ws / "scores.tsv")],
        ["assess-stats", "--assessments", str(assessments), "--out", str(ws / "stats")],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or (code == 1 and err.startswith("error: "))
