"""Assessment parsing, derived views, topic categories and `assess-stats`' tag distributions."""

import random

import pytest

from xmlir import (
    AssessmentEntry,
    AssessmentSet,
    ElementPath,
    categorize_topic,
    derive_view,
    load_assessments,
    parse_assessment_file,
)
from xmlir.assessments import BROAD, GENERAL, NARROW, NEUTRAL, ORIGINAL, RELEVANCE_CASES, SPECIFIC
from xmlir.cli import main

import support
from conftest import EXPECTED_SPECIFIC, SAMPLE_ASSESSMENT_XML, SAMPLE_DOC_ID


def P(text):
    return ElementPath.from_string(text)


def entry(doc, path, e=3, s=3):
    return AssessmentEntry(doc=doc, path=P(path), exhaustivity=e, specificity=s)


@pytest.fixture
def sample_set(tmp_path) -> AssessmentSet:
    target = tmp_path / "117.xml"
    target.write_text(SAMPLE_ASSESSMENT_XML)
    return parse_assessment_file(target)


def test_parse_sample_file(sample_set):
    assert sample_set.topic_id == 117
    assert len(sample_set.entries) == 20
    assert all(e.doc == SAMPLE_DOC_ID for e in sample_set.entries)


def test_topic_id_falls_back_to_filename(tmp_path):
    target = tmp_path / "topic-42.xml"
    target.write_text('<assessments><file file="d"><path E="3" S="3" path="/a[1]"/></file></assessments>')
    assert parse_assessment_file(target).topic_id == 42
    # only a file name with one run of ASCII digits names its topic
    for name in ("co-117-v2.xml", "t\u00b2x.xml", "topic.xml"):
        other = tmp_path / name
        other.write_text(target.read_text())
        with pytest.raises(ValueError, match="cannot determine topic id"):
            parse_assessment_file(other)
    superscript = tmp_path / "t\u00b23.xml"  # a superscript two is no ASCII digit
    superscript.write_text(target.read_text())
    assert parse_assessment_file(superscript).topic_id == 3


def test_grade_bounds_enforced():
    with pytest.raises(ValueError):
        entry("d", "/a[1]", e=4)
    with pytest.raises(ValueError):
        entry("d", "/a[1]", s=-1)


def test_duplicate_doc_path_rejected():
    with pytest.raises(ValueError):
        AssessmentSet(topic_id=1, entries=[entry("d", "/a[1]"), entry("d", "/a[1]", e=1)])


def test_assessment_file_resolves_html_entities_named_by_an_external_dtd(tmp_path):
    target = tmp_path / "5.xml"
    target.write_text(
        '<?xml version="1.0"?>\n<!DOCTYPE assessments SYSTEM "assessments.dtd">\n'
        '<assessments topic_id="5"><title>Caf&eacute; &ndash; tries</title>'
        '<file file="d"><path E="3" S="3" path="/article[1]"/></file></assessments>'
    )
    aset = parse_assessment_file(target)
    assert aset.topic_id == 5
    assert aset.entries == [entry("d", "/article[1]")]


def test_load_assessments_skips_malformed(tmp_path):
    (tmp_path / "117.xml").write_text(SAMPLE_ASSESSMENT_XML)
    (tmp_path / "080.xml").write_text("<assessments topic_id='80'><file></assessments>")
    sets, diagnostics = load_assessments(tmp_path)
    assert [s.topic_id for s in sets] == [117]
    assert len(diagnostics) == 1 and "080.xml" in diagnostics[0]


def test_highly_relevant_requires_top_grades_on_both(sample_set):
    relevant = derive_view(sample_set, ORIGINAL)
    assert len(relevant) == 15
    assert (SAMPLE_DOC_ID, P("/article[1]/bm[1]")) not in relevant  # graded 3/2
    assert (SAMPLE_DOC_ID, P("/article[1]/bdy[1]/sec[4]/st[1]")) not in relevant  # graded 0/0


def test_highly_relevant_empty_set():
    assert derive_view(AssessmentSet(topic_id=1, entries=[]), ORIGINAL) == set()


def test_general_view_is_the_whole_article(sample_set):
    assert derive_view(sample_set, GENERAL) == {(SAMPLE_DOC_ID, P("/article[1]"))}


def test_specific_view_is_the_nine_leaves(sample_set):
    expected = {(SAMPLE_DOC_ID, P(p)) for p in EXPECTED_SPECIFIC}
    assert derive_view(sample_set, SPECIFIC) == expected


def test_original_view_unchanged(sample_set):
    relevant = {(e.doc, e.path) for e in sample_set.entries if e.exhaustivity == e.specificity == 3}
    assert derive_view(sample_set, ORIGINAL) == relevant


def test_lone_element_is_both_general_and_specific():
    aset = AssessmentSet(topic_id=1, entries=[entry("d", "/article[1]/sec[3]")])
    lone = {("d", P("/article[1]/sec[3]"))}
    assert derive_view(aset, GENERAL) == lone
    assert derive_view(aset, SPECIFIC) == lone


def test_unknown_case_rejected(sample_set):
    with pytest.raises(ValueError):
        derive_view(sample_set, "strict")


def _distributions(tmp_path, files):
    """``assess-stats``' tag counts per relevance case, over assessment files named to their texts."""
    source = tmp_path / "assessments"
    source.mkdir()
    for name, text in files.items():
        (source / name).write_text(text)
    assert main(["assess-stats", "--assessments", str(source), "--out", str(tmp_path / "stats")]) == 0
    counts = {}
    for case in RELEVANCE_CASES:
        header, *lines = (tmp_path / "stats" / f"distribution_{case}.tsv").read_text().splitlines()
        assert header == f"tag\tcount\t{case}"
        counts[case] = {tag: int(n) for tag, n in (line.split("\t") for line in lines)}
    return counts


def _assessment_xml(aset):
    paths = "".join(
        f'<file file="{e.doc}"><path E="{e.exhaustivity}" S="{e.specificity}" path="{e.path}"/></file>'
        for e in aset.entries
    )
    return f'<assessments topic_id="{aset.topic_id}">{paths}</assessments>'


def test_distribution_counts_final_tag(tmp_path):
    counts = _distributions(tmp_path, {"117.xml": SAMPLE_ASSESSMENT_XML})
    assert counts[GENERAL] == {"article": 1}
    assert counts[ORIGINAL] == {"article": 1, "bdy": 1, "sec": 2, "ip1": 4, "ss1": 2, "p": 5}


def test_distribution_empty(tmp_path):
    assert _distributions(tmp_path, {})[ORIGINAL] == {}


def test_distribution_matches_brute_tally(tmp_path):
    rng = random.Random(5)
    sets = []
    for topic_id in (1, 2):
        entries = []
        for doc in ("x", "y"):
            paths = support.random_tree_paths(rng, max_nodes=12)
            chosen = rng.sample(paths, rng.randint(1, len(paths)))
            entries.extend(entry(doc, str(p)) for p in chosen)
        sets.append(AssessmentSet(topic_id=topic_id, entries=entries))
    counts = _distributions(tmp_path, {f"{aset.topic_id}.xml": _assessment_xml(aset) for aset in sets})
    for case in (ORIGINAL, GENERAL, SPECIFIC):
        tally = {}
        for aset in sets:
            for _, path in derive_view(aset, case):
                tally[path.tag] = tally.get(path.tag, 0) + 1
        assert counts[case] == tally


def _category_fixture(articles: int, others: int) -> AssessmentSet:
    entries = []
    for i in range(articles):
        entries.append(entry(f"art{i}", "/article[1]"))
    for i in range(others):
        entries.append(entry(f"deep{i}", "/article[1]/bdy[1]/sec[1]"))
    return AssessmentSet(topic_id=9, entries=entries)


def test_categorize_broad_point():
    assert categorize_topic(derive_view(_category_fixture(20, 5), GENERAL)) == BROAD


def test_categorize_neutral_point():
    assert categorize_topic(derive_view(_category_fixture(4, 4), GENERAL)) == NEUTRAL


def test_categorize_narrow_point():
    assert categorize_topic(derive_view(_category_fixture(2, 7), GENERAL)) == NARROW


def test_categorize_empty_topic_raises():
    aset = AssessmentSet(topic_id=3, entries=[entry("d", "/article[1]", e=2, s=3)])
    with pytest.raises(ValueError):
        categorize_topic(derive_view(aset, GENERAL))


def test_view_laws_on_random_judgments():
    rng = random.Random(77)
    for _ in range(300):
        entries = []
        relevant = set()
        for doc in ("a", "b"):
            paths = support.random_tree_paths(rng, max_nodes=15)
            for path in rng.sample(paths, rng.randint(1, len(paths))):
                grade = rng.choice([(3, 3), (3, 3), (3, 2), (1, 1)])
                entries.append(entry(doc, str(path), e=grade[0], s=grade[1]))
                if grade == (3, 3):
                    relevant.add((doc, path))
        aset = AssessmentSet(topic_id=1, entries=entries)
        general = derive_view(aset, GENERAL)
        specific = derive_view(aset, SPECIFIC)
        oracle_general, oracle_specific = support.brute_force_views(relevant)
        assert general == oracle_general
        assert specific == oracle_specific
        # coverage: every relevant element sits below a general member and
        # above a specific member within its document
        for doc, path in relevant:
            assert any(
                d == doc and (g == path or support.is_ancestor_of(g, path)) for d, g in general
            )
            assert any(
                d == doc and (s == path or support.is_ancestor_of(path, s)) for d, s in specific
            )
        # antichain laws
        for view in (general, specific):
            for (d1, p1) in view:
                for (d2, p2) in view:
                    assert d1 != d2 or p1 == p2 or not support.is_ancestor_of(p1, p2)
        # cardinalities and the intersection law
        assert len(general) <= len(relevant)
        assert len(specific) <= len(relevant)
        isolated = {
            (doc, path)
            for doc, path in relevant
            if not any(d == doc and o != path and support.is_ancestor_of(o, path) for d, o in relevant)
            and not any(d == doc and o != path and support.is_ancestor_of(path, o) for d, o in relevant)
        }
        assert general & specific == isolated
