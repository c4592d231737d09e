"""Assessment parsing, derived views, topic categories and `assess-stats`' tag distributions."""

import random
import timeit
import xml.etree.ElementTree as ET
from functools import partial

import pytest

from xmlir import (
    AssessmentSet,
    ElementPath,
    categorize_topic,
    derive_view,
    load_assessments,
    parse_assessment_file,
)
from xmlir.assessments import GENERAL, ORIGINAL, RELEVANCE_CASES, SPECIFIC
from xmlir.cli import main

import support
from conftest import SAMPLE_ASSESSMENT_XML, SAMPLE_DOC_ID


def P(text):
    return ElementPath.from_string(text)


SAMPLE_PATHS = list(ET.fromstring(SAMPLE_ASSESSMENT_XML).iter("path"))
# the sample's pairs graded 3 for both exhaustivity and specificity
SAMPLE_RELEVANT = {(SAMPLE_DOC_ID, P(el.get("path"))) for el in SAMPLE_PATHS if el.get("E") == el.get("S") == "3"}


@pytest.fixture
def sample_set(tmp_path) -> AssessmentSet:
    target = tmp_path / "117.xml"
    target.write_text(SAMPLE_ASSESSMENT_XML)
    return parse_assessment_file(target)


def test_parse_sample_file(sample_set):
    assert sample_set.topic_id == 117
    assert len(SAMPLE_PATHS) == 20
    assert sample_set.relevant == SAMPLE_RELEVANT


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


def test_grade_bounds_enforced(tmp_path):
    with pytest.raises(ValueError, match=r"^exhaustivity out of range: 4$"):
        support.parse_graded(tmp_path, 1, [("d", "/a[1]", 4, 3)])
    with pytest.raises(ValueError, match=r"^specificity out of range: 4$"):
        support.parse_graded(tmp_path, 1, [("d", "/a[1]", 0, 4)])
    with pytest.raises(ValueError, match=r"^S of d /a\[1\] must be ASCII digits, not '-1'$"):
        support.parse_graded(tmp_path, 1, [("d", "/a[1]", 3, -1)])


def test_duplicate_doc_path_rejected(tmp_path):
    # found among all graded pairs, not only the highly relevant ones
    for first, second in (((3, 3), (1, 1)), ((0, 0), (2, 1))):
        graded = [("d", "/a[1]", *first), ("e", "/a[1]", 3, 3), ("d", "/a[1]", *second)]
        with pytest.raises(ValueError, match=r"^duplicate assessment for topic 1: d /a\[1\]$"):
            support.parse_graded(tmp_path, 1, graded)


def test_assessment_file_resolves_html_entities_named_by_an_external_dtd(tmp_path):
    target = tmp_path / "5.xml"
    target.write_text(
        '<?xml version="1.0"?>\n<!DOCTYPE assessments SYSTEM "assessments.dtd">\n'
        '<assessments topic_id="5"><title>Caf&eacute; &ndash; tries</title>'
        '<file file="d"><path E="3" S="3" path="/article[1]"/></file></assessments>'
    )
    aset = parse_assessment_file(target)
    assert aset.topic_id == 5
    assert aset.relevant == {("d", P("/article[1]"))}


def test_load_assessments_skips_malformed(tmp_path):
    (tmp_path / "117.xml").write_text(SAMPLE_ASSESSMENT_XML)
    (tmp_path / "080.xml").write_text("<assessments topic_id='80'><file></assessments>")
    # a number that is not all ASCII digits, named with the attribute and the element that hold it
    malformed = {
        "081.xml": ("seven", "3", "3", "<assessments> topic_id must be ASCII digits, not 'seven'"),
        "082.xml": ("82", "high", "3", "E of d /a[1] must be ASCII digits, not 'high'"),
        "083.xml": ("83", "+3", "3", "E of d /a[1] must be ASCII digits, not '+3'"),
        "084.xml": ("84", "3", "1_0", "S of d /a[1] must be ASCII digits, not '1_0'"),
    }
    for name, (topic_id, e, s, _) in malformed.items():
        (tmp_path / name).write_text(
            f'<assessments topic_id="{topic_id}"><file file="d">'
            f'<path E="{e}" S="{s}" path="/a[1]"/></file></assessments>'
        )
    # a well-formed file whose <file> or <path> lacks the attribute naming it
    unnamed = {
        "085.xml": ('<file><path E="3" S="3" path="/a[1]"/></file>', "<file> without a file attribute"),
        "086.xml": ('<file file="d"><path E="3" S="3"/></file>', "<path> without a path attribute"),
    }
    for name, (body, _) in unnamed.items():
        (tmp_path / name).write_text(f'<assessments topic_id="{name[:3]}">{body}</assessments>')
    sets, diagnostics = load_assessments(tmp_path)
    assert [s.topic_id for s in sets] == [117]
    assert len(diagnostics) == 7 and "080.xml" in diagnostics[0]
    assert diagnostics[1:5] == [f"{name}: skipped ({message})" for name, (*_, message) in malformed.items()]
    assert diagnostics[5:] == [f"{name}: skipped ({tmp_path / name}: {why})" for name, (_, why) in unnamed.items()]


def test_load_assessments_missing_directory_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError, match="^assessments directory not found: "):
        load_assessments(tmp_path / "nope")


def test_highly_relevant_requires_top_grades_on_both(sample_set):
    relevant = derive_view(sample_set, ORIGINAL)
    assert len(relevant) == 15
    assert (SAMPLE_DOC_ID, P("/article[1]/bm[1]")) not in relevant  # graded 3/2
    assert (SAMPLE_DOC_ID, P("/article[1]/bdy[1]/sec[4]/st[1]")) not in relevant  # graded 0/0


def test_highly_relevant_empty_set():
    assert derive_view(AssessmentSet(topic_id=1, relevant=frozenset()), ORIGINAL) == set()


def test_original_view_unchanged(sample_set):
    assert derive_view(sample_set, ORIGINAL) == SAMPLE_RELEVANT


def test_lone_element_is_both_general_and_specific():
    lone = {("d", P("/article[1]/sec[3]"))}
    aset = AssessmentSet(topic_id=1, relevant=frozenset(lone))
    assert derive_view(aset, GENERAL) == lone
    assert derive_view(aset, SPECIFIC) == lone


def test_reduced_views_are_linear_in_path_depth():
    """A relevant path 16,000 steps deep under its relevant 8,000-step prefix.
    Each reduced view, best of 3, costs at most 5 times the best-of-3 parse of
    the deep path's text, which also grows linearly with depth; a view that
    tests every prefix of a path grows with its square."""
    text = "/article[1]" + "/sec[1]" * 15_999
    deep = ElementPath.from_string(text)
    prefix = ElementPath(deep.steps[:8000])
    aset = AssessmentSet(topic_id=1, relevant=frozenset({("d", deep), ("d", prefix)}))
    parse = min(timeit.repeat(partial(ElementPath.from_string, text), number=1, repeat=3))
    for case, expected in ((GENERAL, {("d", prefix)}), (SPECIFIC, {("d", deep)})):
        assert derive_view(aset, case) == expected
        view = min(timeit.repeat(partial(derive_view, aset, case), number=1, repeat=3))
        assert view <= 5 * parse, f"{case}: {view * 1e3:.2f} ms, parse {parse * 1e3:.2f} ms"


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
        relevant = set()
        for doc in ("x", "y"):
            paths = support.random_tree_paths(rng, max_nodes=12)
            relevant.update((doc, p) for p in rng.sample(paths, rng.randint(1, len(paths))))
        sets.append(AssessmentSet(topic_id=topic_id, relevant=frozenset(relevant)))
    counts = _distributions(
        tmp_path,
        {f"{aset.topic_id}.xml": support.assessment_xml(aset.topic_id, [(*pair, 3, 3) for pair in aset.relevant])
         for aset in sets},
    )
    for case in (ORIGINAL, GENERAL, SPECIFIC):
        tally = {}
        for aset in sets:
            for _, path in derive_view(aset, case):
                tally[path.tag] = tally.get(path.tag, 0) + 1
        assert counts[case] == tally


def test_categorize_empty_topic_raises(tmp_path):
    aset = support.parse_graded(tmp_path, 3, [("d", "/article[1]", 2, 3)])
    with pytest.raises(ValueError):
        categorize_topic(derive_view(aset, GENERAL))


def test_view_laws_on_random_judgments(tmp_path):
    rng = random.Random(77)
    for _ in range(300):
        graded = []
        relevant = set()
        for doc in ("a", "b"):
            paths = support.random_tree_paths(rng, max_nodes=15)
            for path in rng.sample(paths, rng.randint(1, len(paths))):
                grade = rng.choice([(3, 3), (3, 3), (3, 2), (1, 1)])
                graded.append((doc, path, *grade))
                if grade == (3, 3):
                    relevant.add((doc, path))
        aset = support.parse_graded(tmp_path, 1, graded)
        assert aset.relevant == relevant
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
