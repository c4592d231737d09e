"""Odd and hostile input: namespaced documents and malformed run files end in
results or in one clean ``error:`` line, never in a traceback."""

import re

import pytest

from xmlir import ElementPath, parse_document, read_run_file
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
    tree = parse_document(NAMESPACED_XML, "d")
    assert str(tree.nodes[1].path) == f"/{NS}article[1]/{{http://x.org/meta}}fm[1]"
    for node in tree.nodes:
        text = str(node.path)
        assert ElementPath.from_string(text) == node.path
        assert tree.node_at(ElementPath.from_string(text)) is node


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


GOOD_LINE = "7\t1\tns/a\t/article[1]\t-\txmldb"


@pytest.mark.parametrize(
    "line",
    [
        "x\t1\tns/a\t/article[1]\t-\txmldb",  # topic id
        "7\tx\tns/a\t/article[1]\t-\txmldb",  # rank
        "7\t1\tns/a\tarticle[1]\t-\txmldb",  # path
        "7\t1\tns/a\t/article[1]\tx\txmldb",  # score
        "7\t1\tns/a\t/article[1]\t-",  # field count
    ],
    ids=["topic-id", "rank", "path", "score", "field-count"],
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
