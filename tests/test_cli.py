"""Command-line driver: artifacts, exit codes, config handling."""

import hashlib
import json
import subprocess
import sys

import pytest

import xmlir.assessments
import xmlir.evaluation
import xmlir.pipeline
from xmlir.assessments import RELEVANCE_CASES, derive_view
from xmlir.cli import _subcommands, build_parser, main

import support
from conftest import SAMPLE_ARTICLE_XML, SAMPLE_ASSESSMENT_XML, SAMPLE_TOPIC_XML
from test_golden import GRID_DIGEST, REPORT_STDERR_DIGEST


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    support.write_corpus(
        corpus_dir,
        {
            "ic/1999/w4095": SAMPLE_ARTICLE_XML,
            "ic/1999/w0001": "<article><p>unrelated content entirely</p></article>",
            "ic/2000/x0002": "<article><sec><p>patricia mention</p></sec></article>",
        },
    )
    topics = tmp_path / "topics.xml"
    topics.write_text(SAMPLE_TOPIC_XML)
    assessments = tmp_path / "assessments"
    assessments.mkdir()
    (assessments / "117.xml").write_text(SAMPLE_ASSESSMENT_XML)
    return tmp_path


def test_run_fulltext_paths_are_roots(workspace):
    out = workspace / "runs" / "fulltext.run"
    argv = [
        "run", "--corpus", str(workspace / "corpus"), "--topics", str(workspace / "topics.xml"),
        "--system", "fulltext", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        topic_id, rank, doc, path, score, tag = line.split("\t")
        assert topic_id == "117"
        assert path == "/article[1]"
        assert tag == "fulltext"
        float(score)


def test_run_hybrid_cre_respects_per_article_limit(workspace):
    out = workspace / "runs" / "hybrid-cre.run"
    argv = [
        "run", "--corpus", str(workspace / "corpus"), "--topics", str(workspace / "topics.xml"),
        "--system", "hybrid", "--cre", "--combo", "MpE", "--n", "10", "--out", str(out),
    ]
    assert main(argv) == 0
    per_doc = {}
    for line in out.read_text().splitlines():
        doc = line.split("\t")[2]
        per_doc[doc] = per_doc.get(doc, 0) + 1
    assert per_doc and all(count <= 10 for count in per_doc.values())


def test_run_names_a_topic_without_keyword_terms_once(workspace, capsys):
    topics = workspace / "topics.xml"
    topics.write_text(
        '<topics><inex_topic topic_id="9" query_type="CO"><keywords>, ;; --</keywords></inex_topic></topics>'
    )
    out = workspace / "none.run"
    argv = ["run", "--corpus", str(workspace / "corpus"), "--topics", str(topics), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == ["topic 9: skipped (no keyword terms to query with)"]
    assert out.read_text() == ""


def _write_run(workspace, name="run.run", system="hybrid", extra=()):
    out = workspace / name
    argv = [
        "run", "--corpus", str(workspace / "corpus"), "--topics", str(workspace / "topics.xml"),
        "--system", system, *extra, "--out", str(out),
    ]
    assert main(argv) == 0
    return out


def test_eval_perfect_run_scores_map_one(workspace):
    # a run file retrieving exactly the relevant set of topic 117
    run_file = workspace / "perfect.run"
    lines = []
    doc = "ic/1999/w4095"
    relevant = [
        "/article[1]", "/article[1]/bdy[1]", "/article[1]/bdy[1]/sec[2]",
        "/article[1]/bdy[1]/sec[2]/ip1[1]", "/article[1]/bdy[1]/sec[2]/ss1[1]",
        "/article[1]/bdy[1]/sec[2]/ss1[1]/ip1[1]", "/article[1]/bdy[1]/sec[2]/ss1[1]/p[1]",
        "/article[1]/bdy[1]/sec[2]/ss1[2]", "/article[1]/bdy[1]/sec[2]/ss1[2]/ip1[1]",
        "/article[1]/bdy[1]/sec[2]/ss1[2]/p[1]", "/article[1]/bdy[1]/sec[4]",
        "/article[1]/bdy[1]/sec[4]/ip1[1]", "/article[1]/bdy[1]/sec[4]/p[1]",
        "/article[1]/bdy[1]/sec[4]/p[2]", "/article[1]/bdy[1]/sec[4]/p[3]",
    ]
    for rank, path in enumerate(relevant, start=1):
        lines.append(f"117\t{rank}\t{doc}\t{path}\t-\tsynthetic")
    run_file.write_text("".join(line + "\n" for line in lines))
    report = workspace / "report.tsv"
    argv = [
        "eval", str(run_file), "--assessments", str(workspace / "assessments"),
        "--case", "original", "--out", str(report),
    ]
    assert main(argv) == 0
    rows = report.read_text().splitlines()
    assert rows[-1] == "map\t1.000000"
    assert any(row.startswith("117\t1.000000") for row in rows)


def test_eval_category_filter_excludes_other_topics(workspace, capsys):
    # topic 117's general view is one whole article: a broad topic
    run_file = _write_run(workspace)
    report = workspace / "broad.tsv"
    argv = [
        "eval", str(run_file), "--assessments", str(workspace / "assessments"),
        "--category", "broad", "--out", str(report),
    ]
    assert main(argv) == 0
    assert any(line.startswith("117\t") for line in report.read_text().splitlines())
    narrow_report = workspace / "narrow.tsv"
    argv = [
        "eval", str(run_file), "--assessments", str(workspace / "assessments"),
        "--category", "narrow", "--out", str(narrow_report),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    assert not any(
        line.startswith("117\t") for line in narrow_report.read_text().splitlines()
    )
    assert capsys.readouterr().err.splitlines() == ["topic 117: broad, not narrow; skipped", "no scoreable topics"]


def test_eval_ng_modes_agree_when_run_has_no_overlap(workspace):
    run_file = _write_run(workspace, system="xmldb")  # matcher output never overlaps
    outputs = {}
    for metric in ("ng-s", "ng-o"):
        report = workspace / f"{metric}.tsv"
        argv = [
            "eval", str(run_file), "--assessments", str(workspace / "assessments"),
            "--corpus", str(workspace / "corpus"), "--metric", metric, "--out", str(report),
        ]
        assert main(argv) == 0
        outputs[metric] = [
            line.split("\t")[:2] for line in report.read_text().splitlines()[1:]
        ]
    assert outputs["ng-s"] == outputs["ng-o"]


def test_eval_ng_metric_requires_corpus(workspace, capsys):
    run_file = _write_run(workspace, system="xmldb", name="ng.run")
    argv = [
        "eval", str(run_file), "--assessments", str(workspace / "assessments"),
        "--metric", "ng-s",
    ]
    assert main(argv) == 1
    assert "corpus" in capsys.readouterr().err


def test_eval_ng_names_an_unresolved_recall_base_once(workspace, capsys):
    # topic 117's only 3/3 element names a document the corpus lacks
    (workspace / "assessments" / "117.xml").write_text(
        '<assessments topic_id="117"><file file="ic/9999/gone">'
        '<path E="3" S="3" path="/article[1]"/></file></assessments>'
    )
    run_file = workspace / "one.run"
    run_file.write_text("117\t1\tic/1999/w0001\t/article[1]\t-\tsynthetic\n")
    argv = [
        "eval", str(run_file), "--assessments", str(workspace / "assessments"),
        "--corpus", str(workspace / "corpus"), "--metric", "ng-s",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "sizes: size unavailable, using 0: ic/9999/gone /article[1]",
        "topic 117: skipped (empty size-weighted recall base)",
        "no scoreable topics",
    ]


@pytest.mark.parametrize("command", ["eval", "report"])
def test_sizes_diagnostic_naming_a_line_break_stays_one_line(workspace, capsys, command):
    # topic 117's only 3/3 element names a document whose identifier holds a line break
    (workspace / "assessments" / "117.xml").write_text(
        '<assessments topic_id="117"><file file="x&#10;y">'
        '<path E="3" S="3" path="/article[1]"/></file></assessments>'
    )
    run_file = workspace / "one.run"
    run_file.write_text("117\t1\tic/1999/w0001\t/article[1]\t-\tsynthetic\n")
    common = ["--assessments", str(workspace / "assessments"), "--corpus", str(workspace / "corpus")]
    argv = {
        "eval": ["eval", str(run_file), *common, "--metric", "ng-o"],
        "report": ["report", "--topics", str(workspace / "topics.xml"), *common, "--metric", "ng-s"],
    }[command]
    assert main(argv) == 0
    sizes = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("topic 117: ")]
    assert sizes[0] == "sizes: size unavailable, using 0: x\\ny /article[1]"
    assert not any(line.startswith("y ") for line in sizes)


def test_eval_ng_o_names_unresolved_pairs_in_doc_then_steps_order(workspace, capsys):
    # the assessments and the run each hold two unresolved pairs, interleaved in
    # (doc, steps) order, and share one pair that resolves
    (workspace / "assessments" / "117.xml").write_text(
        '<assessments topic_id="117">'
        '<file file="ic/1999/w0001"><path E="3" S="3" path="/article[1]"/>'
        '<path E="3" S="3" path="/article[1]/p[9]"/></file>'
        '<file file="ic/9999/gone"><path E="3" S="3" path="/article[1]/sec[1]"/></file>'
        '</assessments>'
    )
    run_file = workspace / "two.run"
    run_file.write_text(
        "117\t1\tic/9999/gone\t/article[1]/sec[2]\t-\tsynthetic\n"
        "117\t2\tic/1999/w0001\t/article[1]\t-\tsynthetic\n"
        "117\t3\tic/1999/w0001\t/article[1]/p[10]\t-\tsynthetic\n"
    )
    argv = [
        "eval", str(run_file), "--assessments", str(workspace / "assessments"),
        "--corpus", str(workspace / "corpus"), "--metric", "ng-o", "--out", str(workspace / "ng-o.tsv"),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "sizes: size unavailable, using 0: ic/1999/w0001 /article[1]/p[9]",
        "sizes: size unavailable, using 0: ic/1999/w0001 /article[1]/p[10]",
        "sizes: size unavailable, using 0: ic/9999/gone /article[1]/sec[1]",
        "sizes: size unavailable, using 0: ic/9999/gone /article[1]/sec[2]",
    ]


def test_config_file_provides_defaults_and_cli_overrides(workspace, monkeypatch, capsys):
    config = {
        "corpus": str(workspace / "corpus"),
        "topics": str(workspace / "topics.xml"),
        "system": "xmldb",
        "n": "1",
        "out": str(workspace / "from-config.run"),
    }
    config_path = workspace / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    assert main(["run"]) == 0
    from_config = (workspace / "from-config.run").read_text()
    assert from_config
    per_doc = {}
    for line in from_config.splitlines():
        doc = line.split("\t")[2]
        per_doc[doc] = per_doc.get(doc, 0) + 1
    assert all(count == 1 for count in per_doc.values())
    # the command line wins over the config file
    assert main(["run", "--n", "all", "--out", str(workspace / "override.run")]) == 0
    override = (workspace / "override.run").read_text()
    assert len(override.splitlines()) > len(from_config.splitlines())


def test_missing_config_file_is_fatal(workspace, monkeypatch, capsys):
    monkeypatch.setenv("XMLIR_CONFIG", str(workspace / "absent.json"))
    assert main(["run"]) == 1
    assert "config" in capsys.readouterr().err


def test_malformed_config_file_names_the_file(workspace, monkeypatch, capsys):
    config_path = workspace / "config.json"
    config_path.write_text('{"corpus": "corpus"')
    monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    assert main(["run"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config_path}: Expecting ")
    config_path.write_text('["corpus"]')  # JSON, but not an object
    assert main(["run"]) == 1
    assert capsys.readouterr().err == f"error: config file must hold a JSON object: {config_path}\n"


def _command_argv(workspace, command, out):
    """A command line that runs ``command`` on the workspace and writes ``out``."""
    corpus, topics, assessments = (str(workspace / name) for name in ("corpus", "topics.xml", "assessments"))
    argv = {
        "run": ["run", "--system", "hybrid", "--corpus", corpus, "--topics", topics],
        "eval": ["eval", "--assessments", assessments, "--corpus", corpus],
        "report": ["report", "--topics", topics, "--assessments", assessments, "--corpus", corpus],
        "assess-stats": ["assess-stats", "--assessments", assessments],
    }[command]
    if command == "eval":
        argv.append(str(_write_run(workspace, system="xmldb")))
    return argv + ["--out", str(out)]


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        pytest.param(command, option, value, message, id=prefix + case)
        for command, prefix in (("run", ""), ("report", "report-"))
        for case, (option, value, message) in {
            "max-results-0": ("--max-results", "0", "max_results must be positive"),
            "max-results-negative": ("--max-results", "-3", "max_results must be positive"),
            "slope-above-1": ("--slope", "1.5", "slope must lie in [0, 1]: 1.5"),
            "slope-nan": ("--slope", "nan", "slope must lie in [0, 1]: nan"),
        }.items()
    ],
)
def test_out_of_range_ranking_option_is_a_clean_error(workspace, capsys, command, option, value, message):
    # the options are checked before any input is read, so a malformed document prints no diagnostic
    (workspace / "corpus" / "bad.xml").write_text("<article>unclosed")
    out = workspace / "out.run"
    assert main([*_command_argv(workspace, command, out), option, value]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["run", "report"])
def test_max_results_above_sys_maxsize_is_a_clean_error(workspace, monkeypatch, capsys, command, source):
    # a larger cap once reached islice, which skipped every element topic with its own message and exited 0
    out = workspace / "out"
    argv = _command_argv(workspace, command, out)
    value = sys.maxsize + 1
    if source == "flag":
        argv += ["--max-results", str(value)]
    else:
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps({"max_results": value}))
        monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: max_results must be at most {sys.maxsize}: {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("config", [{"sytem": "xmldb"}, {"max-results": 1}], ids=["misspelt", "flag-spelling"])
def test_unknown_config_key_is_a_clean_error(workspace, monkeypatch, capsys, config):
    out = workspace / "out.run"
    argv = _command_argv(workspace, "run", out)
    config_path = workspace / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    assert main(argv) == 1
    (name,) = config
    assert capsys.readouterr().err == f'error: {config_path}: unknown option "{name}"\n'
    assert not out.exists()


OPTION_DEFAULTS = [
    (command, action.dest, action.default)
    for command, parser in _subcommands(build_parser()).items()
    for action in parser._actions
    if action.option_strings and action.dest != "help"
]


@pytest.mark.parametrize(
    "command, name, default", OPTION_DEFAULTS, ids=[f"{command}-{name}" for command, name, _ in OPTION_DEFAULTS]
)
def test_every_option_takes_its_default_from_the_config_file(workspace, monkeypatch, capsys, command, name, default):
    # an option without a built-in default names a path, which the command line gives
    out = workspace / "out"
    argv = _command_argv(workspace, command, out)
    config_path = workspace / "config.json"
    config_path.write_text(json.dumps({name: "unused" if default is None else default}))
    monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    capsys.readouterr()
    assert main(argv) == 0
    assert out.exists()
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "--help"], 0),
        (["eval", "--help"], 0),
        (["report", "--help"], 0),
        (["assess-stats", "--help"], 0),
        (["run", "--system", "bogus"], 2),
    ],
    ids=["help", "eval-help", "report-help", "assess-stats-help", "usage"],
)
def test_parser_answers_before_the_config_file_is_read(workspace, monkeypatch, capsys, argv, code):
    # --help formats every option's help string, so a bad "%" in one fails here
    config_path = workspace / "config.json"
    config_path.write_text('{"corpus": ')
    monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    captured = capsys.readouterr()
    command = argv[0]
    assert (captured.out if code == 0 else captured.err).startswith(f"usage: xmlir {command}")
    assert str(config_path) not in captured.out + captured.err


@pytest.mark.parametrize(
    "command, config",
    [
        ("eval", {"metric": "bogus"}),
        ("report", {"metric": "bogus"}),
        ("eval", {"case": "bogus"}),
        ("eval", {"category": "bogus"}),
        ("run", {"cre": "false"}),
        ("run", {"n": "5"}),
        ("run", {"max_results": True}),
        ("run", {"slope": "0.5"}),
        ("run", {"corpus": 5}),
        ("run", {"out": 7}),
        ("run", {"topics": True}),
        ("assess-stats", {"assessments": 5}),
    ],
    ids=["metric-eval", "metric-report", "case", "category", "cre", "n", "max_results", "slope",
         "corpus", "out", "topics", "assessments"],
)
def test_bad_config_file_value_is_a_clean_error(workspace, monkeypatch, capsys, command, config):
    out = workspace / "out"
    argv = _command_argv(workspace, command, out)
    config_path = workspace / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    capsys.readouterr()
    assert main(argv) == 1
    (name,) = config
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: {name} ")
    if name in ("corpus", "topics", "assessments", "out"):
        assert err == f"error: {config_path}: {name} must be a JSON string, not {json.dumps(config[name])}\n"
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "report"])
def test_malformed_topics_file_is_a_clean_error(workspace, capsys, command):
    topics = workspace / "broken-topics.xml"
    topics.write_text("<inex_topic topic_id='1'><keywords>patricia</inex_topic>")
    argv = [
        command, "--corpus", str(workspace / "corpus"), "--topics", str(topics),
        "--out", str(workspace / "out.tsv"),
    ]
    if command == "report":
        argv += ["--assessments", str(workspace / "assessments")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed topics file")
    assert "Traceback" not in err
    assert not (workspace / "out.tsv").exists()


def test_non_utf8_topics_file_names_the_file(workspace, capsys):
    topics = workspace / "latin1-topics.xml"
    topics.write_bytes(b'<inex_topic topic_id="1" query_type="CO"><keywords>patricia \xff</keywords></inex_topic>')
    argv = ["run", "--corpus", str(workspace / "corpus"), "--topics", str(topics), "--out", str(workspace / "out.run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed topics file {topics}: not well-formed (invalid token): line 1, column ")
    assert len(err.splitlines()) == 1
    assert not (workspace / "out.run").exists()


def test_non_utf8_config_file_names_the_file(workspace, monkeypatch, capsys):
    config_path = workspace / "config.json"
    config_path.write_bytes(b'{"system": "x\xff"}')
    monkeypatch.setenv("XMLIR_CONFIG", str(config_path))
    assert main(["run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


def test_assess_stats_outputs(workspace):
    out = workspace / "stats"
    argv = ["assess-stats", "--assessments", str(workspace / "assessments"), "--out", str(out)]
    assert main(argv) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "distribution_original.tsv", "distribution_general.tsv",
        "distribution_specific.tsv", "categories.tsv",
    }
    general = (out / "distribution_general.tsv").read_text().splitlines()
    assert general[1] == "article\t1"
    categories = (out / "categories.tsv").read_text().splitlines()
    assert categories[1] == "117\t1\t0\tbroad"


def test_tab_in_an_assessment_paths_namespace_uri_skips_the_file(workspace, capsys):
    # a character reference puts a tab into the attribute value, and a tag holding it would split a row
    (workspace / "assessments" / "119.xml").write_text(
        '<assessments topic_id="119"><file file="ic/2000/x0002">'
        '<path E="3" S="3" path="/{u&#9;v}p[1]"/></file></assessments>'
    )
    out = workspace / "stats"
    assert main(["assess-stats", "--assessments", str(workspace / "assessments"), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "assessments: 119.xml: skipped (malformed element path '/{u\\tv}p[1]')"
    ]
    for case in RELEVANCE_CASES:
        rows = (out / f"distribution_{case}.tsv").read_text().splitlines()[1:]
        assert rows and all(len(row.split("\t")) == 2 for row in rows)


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"], ids=["tab", "lf", "cr"])
def test_skipped_assessment_file_with_a_line_break_in_its_name_is_one_line(workspace, capsys, name):
    (workspace / "assessments" / f"{name}.xml").write_text("<assessments/>")  # no topic id anywhere
    assert main(_command_argv(workspace, "assess-stats", workspace / "stats")) == 0
    escaped = name.encode("unicode_escape").decode()
    source = workspace / "assessments" / f"{escaped}.xml"
    assert capsys.readouterr().err.splitlines() == [
        f"assessments: {escaped}.xml: skipped (cannot determine topic id for {source})"
    ]


@pytest.mark.parametrize("command", ["eval", "report", "assess-stats"])
def test_each_assessed_topic_has_its_views_derived_once(workspace, monkeypatch, command):
    (workspace / "assessments" / "119.xml").write_text(
        '<assessments topic_id="119"><file file="ic/2000/x0002">'
        '<path E="3" S="3" path="/article[1]/sec[1]"/></file></assessments>'
    )
    calls = []

    def counted(assessment, case):
        calls.append((assessment.topic_id, case))
        return derive_view(assessment, case)

    for module in (xmlir.assessments, xmlir.evaluation):  # every module that holds the name
        monkeypatch.setattr(module, "derive_view", counted)
    assert main(_command_argv(workspace, command, workspace / "out")) == 0
    assert sorted(calls) == [(topic, case) for topic in (117, 119) for case in sorted(RELEVANCE_CASES)]


@pytest.mark.parametrize("command", ["eval", "report", "assess-stats"])
def test_topic_without_highly_relevant_elements_is_named_once(workspace, capsys, command):
    # topic 118 is assessed, but none of its elements is graded 3/3
    (workspace / "assessments" / "118.xml").write_text(
        '<assessments topic_id="118"><file file="ic/1999/w4095">'
        '<path E="3" S="2" path="/article[1]"/><path E="2" S="3" path="/article[1]/bdy[1]"/>'
        "</file></assessments>"
    )
    # and it is a topic of the topics file, so of the run that eval scores too
    unjudged = SAMPLE_TOPIC_XML.replace('topic_id="117"', 'topic_id="118"')
    (workspace / "topics.xml").write_text(f"<topics>{SAMPLE_TOPIC_XML}{unjudged}</topics>")
    out = workspace / "out"
    argv = _command_argv(workspace, command, out)
    if command == "eval":
        assert any(line.startswith("118\t") for line in (workspace / "run.run").read_text().splitlines())
    capsys.readouterr()
    assert main(argv) == 0
    assert out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err.count("assessments: topic 118 has no highly relevant elements; excluded") == 1
    assert not [line for line in err if line.startswith("topic 118:")]
    if command == "assess-stats":
        assert err == ["assessments: topic 118 has no highly relevant elements; excluded"]
        categories = (out / "categories.tsv").read_text().splitlines()
        assert categories == ["topic\tarticles\tother\tcategory", "117\t1\t0\tbroad"]


def test_report_grid_shape(workspace, capsys):
    # topic 118 has no assessments, so every scored cell would report it
    unjudged = SAMPLE_TOPIC_XML.replace('topic_id="117"', 'topic_id="118"')
    topics = workspace / "two-topics.xml"
    topics.write_text(f"<topics>{SAMPLE_TOPIC_XML}{unjudged}</topics>")
    out = workspace / "grid.tsv"
    argv = [
        "report", "--corpus", str(workspace / "corpus"), "--topics", str(topics),
        "--assessments", str(workspace / "assessments"), "--out", str(out),
    ]
    assert main(argv) == 0
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == len(set(err_lines))
    assert "topic 118: no matching assessments; skipped" in err_lines
    # topic 117 is assessed, so only its category keeps it out of the narrow rows
    assert "topic 117: broad, not narrow; skipped" in err_lines
    assert "topic 117: no matching assessments; skipped" not in err_lines
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert rows[0] == ["system", "n", "case", "category", "metric", "topics", "map"]
    body = rows[1:]
    # 13 system cells x 3 cases x 3 categories
    assert len(body) == 13 * 9
    systems = {row[0] for row in body}
    assert systems == {"fulltext", "xmldb", "xmldb-cre", "hybrid", "hybrid-cre"}


def test_report_names_each_skipped_topics_category(tmp_path, monkeypatch, capsys):
    # every synthetic topic is assessed; each is left out of the other category's rows
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    ws = support.build_synthetic_workspace(tmp_path)
    argv = [
        "report", "--corpus", str(ws["corpus"]), "--topics", str(ws["topics"]),
        "--assessments", str(ws["assessments"]), "--out", str(tmp_path / "grid.tsv"),
    ]
    assert main(argv) == 0
    expected = [
        f"topic {topic}: broad, not narrow; skipped" if topic in support.BROAD_TOPICS
        else f"topic {topic}: narrow, not broad; skipped"
        for topic in range(1, support.N_TOPICS + 1)
    ]
    assert sorted(capsys.readouterr().err.splitlines()) == sorted(expected)


# SHA-256 of eval's (stdout, stderr) per metric and category, on a synthetic-workspace hybrid-cre
# run whose last topic, a narrow one, lists one more pair, in a document the corpus lacks
EVAL_DIGESTS = {
    ("inex-eval", "all"): (
        "18676fdcef09979d75c95a19159a853d4bb3541de49eff90d5c7c7cbbc41ffad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("inex-eval", "narrow"): (
        "8f1cfc720fcfe5f3a802bf58d365fe4f9db5afa4656d11009a22c1a74a623ec9",
        "a223c249955eea6898d5456a57001db047653ca8b529f66c566bba3aa793c511",
    ),
    ("ng-s", "all"): (
        "96859fca2f2553ff63c603d148e5eecbbf8dd2924f7cadba55a2dd3b7bbb7b48",
        "418f6076a13f4df12038db1558d72838cb471ab4659d4d7eb579c20361fab076",
    ),
    ("ng-s", "narrow"): (
        "052e3b6b3a68bd80535b6b8229a0b0de27ad062540e3fc09d0bf046224d2b7c5",
        "1092804942d0faa902bc8fa38083bc402abde52bab9dbfa463d3004358018007",
    ),
    ("ng-o", "all"): (
        "1ef2c4c8b153dd4f62ff78fb590c9f372ef1aa4848b72d28ab746a0622270f27",
        "418f6076a13f4df12038db1558d72838cb471ab4659d4d7eb579c20361fab076",
    ),
    ("ng-o", "narrow"): (
        "01c35a03139e41eb170e1a867d16b7fab2b9a59c37b5a590f16972d0d9c36e16",
        "1092804942d0faa902bc8fa38083bc402abde52bab9dbfa463d3004358018007",
    ),
}


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval-golden")
    ws = support.build_synthetic_workspace(root)
    run_file = root / "hybrid-cre.run"
    argv = ["run", "--system", "hybrid", "--cre", "--corpus", str(ws["corpus"]),
            "--topics", str(ws["topics"]), "--out", str(run_file)]
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("XMLIR_CONFIG", raising=False)
        assert main(argv) == 0
    topic, rank, *_ = run_file.read_text().splitlines()[-1].split("\t")
    assert topic == str(support.N_TOPICS)
    with run_file.open("a", encoding="utf-8") as out:
        out.write(f"{topic}\t{int(rank) + 1}\tr/t99-0\t/article[1]\t-\thybrid-cre\n")
    return ws, run_file


@pytest.mark.parametrize(("metric", "category"), list(EVAL_DIGESTS))
def test_eval_output_digests(synthetic_run, monkeypatch, capsys, metric, category):
    # the "sizes:" line comes before the narrow run's "broad, not narrow" lines
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    ws, run_file = synthetic_run
    argv = ["eval", str(run_file), "--assessments", str(ws["assessments"]), "--corpus", str(ws["corpus"]),
            "--category", category, "--metric", metric]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err)) == EVAL_DIGESTS[metric, category]


def test_report_scores_executed_runs_on_their_nodes(synthetic_run, monkeypatch, capsys):
    # ng-o reads no run entry of an executed run, yet gives the golden grid and stderr
    def unread(run):
        raise AssertionError(f"topic {run.topic_id}: {run.system_tag} entries read")

    monkeypatch.setattr(xmlir.pipeline.RunResult, "entries", property(unread))
    monkeypatch.delenv("XMLIR_CONFIG", raising=False)
    ws, _ = synthetic_run
    out = ws["corpus"].parent / "nodes-grid.tsv"
    argv = ["report", "--corpus", str(ws["corpus"]), "--topics", str(ws["topics"]),
            "--assessments", str(ws["assessments"]), "--metric", "ng-o", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_DIGEST
    assert hashlib.sha256(capsys.readouterr().err.encode()).hexdigest() == REPORT_STDERR_DIGEST


def test_module_entry_point_runs_as_subprocess(workspace):
    result = subprocess.run(
        [sys.executable, "-m", "xmlir", "assess-stats", "--assessments", str(workspace / "assessments"),
         "--out", str(workspace / "subproc-stats")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    result = subprocess.run(
        [sys.executable, "-m", "xmlir", "assess-stats", "--assessments", str(workspace / "missing")],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert "error:" in result.stderr
