"""Strict and size-weighted average precision against independent scorers."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from xmlir import (
    ElementPath,
    build_size_map,
    inex_eval_ng,
    inex_eval_strict,
    mean_average_precision,
    quantize,
)
from xmlir.evaluation import _average_precision
from xmlir.assessments import AssessmentSet, GENERAL, ORIGINAL

import support


def P(text):
    return ElementPath.from_string(text)


def judgment(*pairs) -> frozenset:
    return frozenset(pairs)


def test_perfect_run_scores_one():
    relevant = [("d", P(f"/a[1]/p[{i}]")) for i in range(1, 5)]
    rng = random.Random(1)
    for _ in range(5):
        order = relevant[:]
        rng.shuffle(order)
        assert inex_eval_strict(order, judgment(*relevant)) == pytest.approx(1.0)


def test_no_relevant_retrieved_scores_zero():
    run = [("d", P("/a[1]/p[9]"))]
    assert inex_eval_strict(run, judgment(("d", P("/a[1]/p[1]")))) == 0.0


def test_empty_recall_base_raises():
    with pytest.raises(ValueError):
        inex_eval_strict([], judgment())


def test_prepending_relevant_never_decreases_ap():
    rng = random.Random(29)
    for _ in range(100):
        base = rng.randint(2, 8)
        relevant = [("d", P(f"/a[1]/p[{i}]")) for i in range(1, base + 1)]
        pool = relevant[1:] + [("d", P(f"/a[1]/x[{i}]")) for i in range(1, 10)]
        run = rng.sample(pool, rng.randint(0, len(pool)))
        before = inex_eval_strict(run, judgment(*relevant))
        after = inex_eval_strict([relevant[0]] + run, judgment(*relevant))
        assert after >= before - 1e-12


def test_tail_permutation_after_last_hit_is_irrelevant():
    relevant = [("d", P("/a[1]/p[1]"))]
    junk = [("d", P(f"/a[1]/x[{i}]")) for i in range(1, 6)]
    base_run = relevant + junk
    ap1 = inex_eval_strict(base_run, judgment(*relevant))
    ap2 = inex_eval_strict(relevant + list(reversed(junk)), judgment(*relevant))
    assert ap1 == ap2


def test_interpolated_precision_non_increasing():
    # ranks earning (credit, size) (1, 1), (0, 1), (1, 1), (2, 7) over a base of 4:
    # (recall, precision) is (0.25, 1.0), (0.25, 0.5), (0.5, 0.67), (1.0, 0.4)
    # after each rank, and the curve takes (credit so far, size so far) at the
    # three ranks that earn credit
    steps = [(1, 1), (2, 3), (4, 10)]
    points = [(0.25, 1.0), (0.25, 0.5), (0.5, 2 / 3), (1.0, 0.4)]
    levels = [i / 100 for i in range(1, 101)]
    values = []
    for level in levels:
        best = max((p for r, p in points if r >= level), default=0.0)
        values.append(best)
    assert values == sorted(values, reverse=True)
    assert _average_precision(steps, 4) == pytest.approx(sum(values) / 100)


NESTED_DOC = """\
<article>
  <sec>one two three four five <p>six seven eight</p></sec>
  <sec><p>nine ten</p></sec>
</article>
"""


def _corpus_and_regions(docs: dict[str, str]):
    corpus = support.corpus_from_strings(docs)
    regions = {doc: support.token_regions(docs[doc]) for doc in corpus.docs}
    return corpus, regions


def test_ng_modes_agree_without_overlap():
    corpus, _ = _corpus_and_regions({"d": NESTED_DOC})
    sec1, sec2 = ("d", P("/article[1]/sec[1]")), ("d", P("/article[1]/sec[2]"))
    run = [sec1, sec2]
    j = judgment(sec1, sec2)
    assert support.ng_ap(corpus, run, j, "s") == support.ng_ap(corpus, run, j, "o")


def test_ng_overlap_mode_discounts_nested_entry():
    corpus, regions = _corpus_and_regions({"d": NESTED_DOC})
    sec = ("d", P("/article[1]/sec[1]"))
    inner = ("d", P("/article[1]/sec[1]/p[1]"))
    j = judgment(sec, inner)
    run = [sec, inner]
    ap_s = support.ng_ap(corpus, run, j, "s")
    ap_o = support.ng_ap(corpus, run, j, "o")
    assert ap_o < ap_s
    assert ap_s == pytest.approx(
        support.naive_ng_ap(run, set(j), regions, "s"), abs=1e-9
    )
    assert ap_o == pytest.approx(
        support.naive_ng_ap(run, set(j), regions, "o"), abs=1e-9
    )


def test_ng_single_exact_hit_scores_one_both_modes():
    corpus, _ = _corpus_and_regions({"d": NESTED_DOC})
    target = ("d", P("/article[1]/sec[2]"))
    j = judgment(target)
    for mode in ("s", "o"):
        assert support.ng_ap(corpus, [target], j, mode) == pytest.approx(1.0)


def test_ng_overlap_never_beats_size_mode():
    rng = random.Random(41)
    for _ in range(200):
        docs = {f"d{i}": support.random_xml(rng) for i in range(2)}
        corpus, regions = _corpus_and_regions(docs)
        pool = [element for element, size in support.element_sizes(corpus).items() if size > 0]
        if len(pool) < 3:
            continue
        run = rng.sample(pool, rng.randint(2, min(10, len(pool))))
        relevant = set(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
        j = frozenset(relevant)
        ap_s = support.ng_ap(corpus, run, j, "s")
        ap_o = support.ng_ap(corpus, run, j, "o")
        assert ap_o <= ap_s + 1e-12
        assert ap_s == pytest.approx(support.naive_ng_ap(run, relevant, regions, "s"), abs=1e-9)
        assert ap_o == pytest.approx(support.naive_ng_ap(run, relevant, regions, "o"), abs=1e-9)
        has_overlap = any(
            a != b and da == db and (support.is_ancestor_of(pa, pb) or support.is_ancestor_of(pb, pa))
            for a, (da, pa) in enumerate(run)
            for b, (db, pb) in enumerate(run)
        )
        if not has_overlap:
            assert ap_o == pytest.approx(ap_s, abs=1e-12)


def test_ng_missing_sizes_count_zero():
    corpus, _ = _corpus_and_regions({"d": NESTED_DOC})
    ghost = ("d", P("/article[1]/sec[9]"))
    target = ("d", P("/article[1]/sec[2]"))
    j = judgment(target)
    ap = support.ng_ap(corpus, [ghost, target], j, "s")
    assert 0.0 < ap <= 1.0


def test_ng_unknown_overlap_mode_raises():
    corpus, _ = _corpus_and_regions({"d": NESTED_DOC})
    with pytest.raises(ValueError, match="^unknown overlap mode: 'x'$"):
        inex_eval_ng([0], {0}, corpus, "x")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ng_on_node_numbers_matches_the_region_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    docs = {f"d{i}": support.random_xml(rng) for i in range(data.draw(st.integers(2, 3)))}
    corpus, regions = _corpus_and_regions(docs)
    regions["gone"] = {}  # a document outside the corpus
    pool = list(support.element_sizes(corpus))
    ghosts = [(doc, P("/article[1]/ghost[1]")) for doc in docs] + [("gone", P("/article[1]"))]
    deep = [(doc, path) for doc, path in pool if path.depth > 1]
    assume(deep)
    run = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    # every run holds a nested pair, a node listed twice and an unresolvable entry
    doc, path = data.draw(st.sampled_from(deep))
    ancestor = ElementPath(path.steps[: data.draw(st.integers(1, path.depth - 1))])
    extras = [(doc, path), (doc, ancestor), data.draw(st.sampled_from(run)), data.draw(st.sampled_from(ghosts))]
    for extra in extras:
        run.insert(data.draw(st.integers(0, len(run))), extra)
    relevant = set(data.draw(st.lists(st.sampled_from(pool + ghosts), max_size=8)))
    nodes, _ = build_size_map(corpus, set(run) | relevant)
    entries = [nodes[e] for e in run]
    found = {nodes[e] for e in relevant} - {None}
    assert None in entries and len(set(entries)) < len(entries)
    for mode in ("s", "o"):
        if not any(regions[d].get(p) for d, p in relevant):
            with pytest.raises(ValueError, match="empty size-weighted recall base"):
                inex_eval_ng(entries, found, corpus, mode)
        else:
            expected = support.naive_ng_ap(run, relevant, regions, mode)
            assert inex_eval_ng(entries, found, corpus, mode) == pytest.approx(expected, abs=1e-9)


@st.composite
def scoring_cases(draw):
    """Random documents, a run over their nodes with nested, repeated and
    unresolved (None) entries, and a relevant set of nodes, some of size 0."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    docs = {f"d{i}": support.random_xml(rng) for i in range(draw(st.integers(2, 3)))}
    corpus = support.corpus_from_strings(docs)
    nodes = st.integers(0, len(corpus.sizes) - 1)
    run = draw(st.lists(st.one_of(nodes, st.none()), max_size=25))
    for node in draw(st.lists(nodes, max_size=4)):  # a node and one of its ancestors, anywhere in the run
        up = [node]
        while corpus.parents[up[-1]] >= 0:
            up.append(corpus.parents[up[-1]])
        run.insert(draw(st.integers(0, len(run))), node)
        run.insert(draw(st.integers(0, len(run))), draw(st.sampled_from(up)))
    if run:
        run.insert(draw(st.integers(0, len(run))), draw(st.sampled_from(run)))
    relevant = set(draw(st.lists(nodes, max_size=8)))
    empty = [node for node in range(len(corpus.sizes)) if corpus.sizes[node] == 0]
    if empty and draw(st.booleans()):  # a relevant node of size 0, listed where it may consume nothing
        zero = draw(st.sampled_from(empty))
        relevant.add(zero)
        run.insert(draw(st.integers(0, len(run))), zero)
    return docs, run, frozenset(relevant)


def _outcome(score, *args):
    """A scorer's value, or the message of the ValueError it raises."""
    try:
        return score(*args)
    except ValueError as exc:
        return str(exc)


# one document nested 20,000 deep: node i is at depth i, with size 20,000 - i
CHAIN = {"chain": "<a>alpha " * 20_000 + "</a>" * 20_000}
NESTED = [13 * i for i in range(1500)]


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases())
@example(case=(CHAIN, NESTED[::-1], frozenset(NESTED)))  # deepest first
@example(case=(CHAIN, NESTED, frozenset(NESTED)))  # shallowest first
@example(case=(CHAIN, [node for pair in zip(NESTED, NESTED[::-1]) for node in pair][:1500], frozenset(NESTED)))
@example(case=({"d": "<article><sec></sec>alpha</article>"}, [1, None, 0], frozenset({0, 1})))  # <sec> has size 0
@example(case=({"d": NESTED_DOC}, [], frozenset({1})))
def test_scorers_equal_the_stepwise_oracle(case):
    docs, run, relevant = case
    corpus = support.corpus_from_strings(docs)
    for mode in ("s", "o"):
        expected = _outcome(support.stepwise_ng_ap, run, relevant, corpus, mode)
        assert _outcome(inex_eval_ng, run, relevant, corpus, mode) == expected

    def pair(node):  # equal to another exactly when their (doc, path) pairs are; None is a pair outside the corpus
        return ("gone", -1) if node is None else (corpus.docs[corpus.doc_of[node]], corpus.path_ids[node])

    pairs, judged = list(map(pair, run)), set(map(pair, relevant))
    assert _outcome(inex_eval_strict, pairs, judged) == _outcome(support.stepwise_strict_ap, pairs, judged)


def test_a_run_scores_the_same_as_a_list_and_as_a_tuple():
    corpus = support.corpus_from_strings({"d": NESTED_DOC})
    run, relevant = [2, 1, None, 1, 4], {1, 4}
    for mode in ("s", "o"):
        assert inex_eval_ng(run, relevant, corpus, mode) == inex_eval_ng(tuple(run), relevant, corpus, mode) > 0
    pairs = [("d", P("/article[1]/sec[9]")) if node is None else ("d", corpus.path(node)) for node in run]
    judged = {("d", corpus.path(node)) for node in relevant}
    assert inex_eval_strict(pairs, judged) == inex_eval_strict(tuple(pairs), judged) > 0


def test_quantize_uses_the_view():
    aset = AssessmentSet(topic_id=4, relevant=frozenset({("d", P("/article[1]")), ("d", P("/article[1]/sec[1]"))}))
    assert len(quantize(aset, ORIGINAL)) == 2
    general = quantize(aset, GENERAL)
    assert general == frozenset({("d", P("/article[1]"))})


def test_mean_average_precision():
    assert mean_average_precision({1: 0.5, 2: 1.0}) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        mean_average_precision({})


def test_build_size_map_reports_missing():
    corpus = support.corpus_from_strings({"d": NESTED_DOC})
    needed = [("x", P("/a[1]")), ("d", P("/article[1]/sec[10]")), ("d", P("/article[1]/sec[1]")),
              ("d", P("/article[1]/sec[9]")), ("c", P("/a[1]/b[1]"))]
    for order in (needed, needed[::-1]):  # the diagnostics do not depend on the order of the pairs
        nodes, diagnostics = build_size_map(corpus, order)
        assert corpus.sizes[nodes[("d", P("/article[1]/sec[1]"))]] == 8
        assert [pair for pair in needed if nodes[pair] is None] == [needed[0], needed[1], needed[3], needed[4]]
        assert diagnostics == [
            "size unavailable, using 0: c /a[1]/b[1]",
            "size unavailable, using 0: d /article[1]/sec[9]",  # steps order, not text order
            "size unavailable, using 0: d /article[1]/sec[10]",
            "size unavailable, using 0: x /a[1]",
        ]
