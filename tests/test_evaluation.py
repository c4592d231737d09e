"""Strict and size-weighted average precision against independent scorers."""

import random

import pytest

from xmlir import (
    ElementPath,
    build_size_map,
    inex_eval_ng,
    inex_eval_strict,
    interpolated_average_precision,
    mean_average_precision,
    quantize,
)
from xmlir.assessments import AssessmentEntry, AssessmentSet, GENERAL, ORIGINAL

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


def test_hand_case_rel_nonrel_rel():
    rel1, rel2 = ("d", P("/a[1]/p[1]")), ("d", P("/a[1]/p[2]"))
    run = [rel1, ("d", P("/a[1]/p[3]")), rel2]
    ap = inex_eval_strict(run, judgment(rel1, rel2))
    assert ap == pytest.approx(0.8333333333333333, abs=1e-9)


def test_no_relevant_retrieved_scores_zero():
    run = [("d", P("/a[1]/p[9]"))]
    assert inex_eval_strict(run, judgment(("d", P("/a[1]/p[1]")))) == 0.0


def test_empty_recall_base_raises():
    with pytest.raises(ValueError):
        inex_eval_strict([], judgment())


def test_strict_matches_naive_scorer_on_random_pairs():
    rng = random.Random(13)
    for _ in range(500):
        base = rng.randint(1, 12)
        relevant = [("d", P(f"/a[1]/p[{i}]")) for i in range(1, base + 1)]
        run_length = rng.randint(0, 25)
        pool = relevant + [("d", P(f"/a[1]/x[{i}]")) for i in range(1, 20)]
        run = rng.sample(pool, min(run_length, len(pool)))
        flags = [entry in set(relevant) for entry in run]
        got = inex_eval_strict(run, judgment(*relevant))
        expected = support.naive_strict_ap(flags, base)
        assert got == pytest.approx(expected, abs=1e-9)


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
    points = [(0.25, 1.0), (0.25, 0.5), (0.5, 0.66), (1.0, 0.4)]
    levels = [i / 100 for i in range(1, 101)]
    values = []
    for level in levels:
        best = max((p for r, p in points if r >= level), default=0.0)
        values.append(best)
    assert values == sorted(values, reverse=True)
    assert interpolated_average_precision(points) == pytest.approx(sum(values) / 100)


NESTED_DOC = """\
<article>
  <sec>one two three four five <p>six seven eight</p></sec>
  <sec><p>nine ten</p></sec>
</article>
"""


def _sizes_and_regions(docs: dict[str, str]):
    corpus = support.corpus_from_strings(docs)
    sizes = support.element_sizes(corpus)
    regions = {doc: support.token_regions(docs[doc]) for doc in corpus.docs}
    return sizes, regions


def test_ng_modes_agree_without_overlap():
    sizes, _ = _sizes_and_regions({"d": NESTED_DOC})
    sec1, sec2 = ("d", P("/article[1]/sec[1]")), ("d", P("/article[1]/sec[2]"))
    run = [sec1, sec2]
    j = judgment(sec1, sec2)
    assert inex_eval_ng(run, j, sizes, "s") == inex_eval_ng(run, j, sizes, "o")


def test_ng_overlap_mode_discounts_nested_entry():
    sizes, regions = _sizes_and_regions({"d": NESTED_DOC})
    sec = ("d", P("/article[1]/sec[1]"))
    inner = ("d", P("/article[1]/sec[1]/p[1]"))
    j = judgment(sec, inner)
    run = [sec, inner]
    ap_s = inex_eval_ng(run, j, sizes, "s")
    ap_o = inex_eval_ng(run, j, sizes, "o")
    assert ap_o < ap_s
    assert ap_s == pytest.approx(
        support.naive_ng_ap(run, set(j), regions, "s"), abs=1e-9
    )
    assert ap_o == pytest.approx(
        support.naive_ng_ap(run, set(j), regions, "o"), abs=1e-9
    )


def test_ng_single_exact_hit_scores_one_both_modes():
    sizes, _ = _sizes_and_regions({"d": NESTED_DOC})
    target = ("d", P("/article[1]/sec[2]"))
    j = judgment(target)
    for mode in ("s", "o"):
        assert inex_eval_ng([target], j, sizes, mode) == pytest.approx(1.0)


def test_ng_overlap_never_beats_size_mode():
    rng = random.Random(41)
    for _ in range(200):
        docs = {f"d{i}": support.random_xml(rng) for i in range(2)}
        corpus = support.corpus_from_strings(docs)
        sizes, regions = _sizes_and_regions(docs)
        pool = [element for element, size in support.element_sizes(corpus).items() if size > 0]
        if len(pool) < 3:
            continue
        run = rng.sample(pool, rng.randint(2, min(10, len(pool))))
        relevant = set(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
        j = frozenset(relevant)
        ap_s = inex_eval_ng(run, j, sizes, "s")
        ap_o = inex_eval_ng(run, j, sizes, "o")
        assert ap_o <= ap_s + 1e-12
        assert ap_s == pytest.approx(support.naive_ng_ap(run, relevant, regions, "s"), abs=1e-9)
        assert ap_o == pytest.approx(support.naive_ng_ap(run, relevant, regions, "o"), abs=1e-9)
        has_overlap = any(
            a != b and da == db and (pa.is_ancestor_of(pb) or pb.is_ancestor_of(pa))
            for a, (da, pa) in enumerate(run)
            for b, (db, pb) in enumerate(run)
        )
        if not has_overlap:
            assert ap_o == pytest.approx(ap_s, abs=1e-12)


def test_ng_missing_sizes_count_zero():
    sizes, _ = _sizes_and_regions({"d": NESTED_DOC})
    ghost = ("d", P("/article[1]/sec[9]"))
    target = ("d", P("/article[1]/sec[2]"))
    j = judgment(target)
    ap = inex_eval_ng([ghost, target], j, sizes, "s")
    assert 0.0 < ap <= 1.0


def test_quantize_uses_the_view():
    entries = [
        AssessmentEntry(doc="d", path=P("/article[1]"), exhaustivity=3, specificity=3),
        AssessmentEntry(doc="d", path=P("/article[1]/sec[1]"), exhaustivity=3, specificity=3),
    ]
    aset = AssessmentSet(topic_id=4, entries=entries)
    assert len(quantize(aset, ORIGINAL)) == 2
    general = quantize(aset, GENERAL)
    assert general == frozenset({("d", P("/article[1]"))})


def test_mean_average_precision():
    assert mean_average_precision({1: 0.5, 2: 1.0}) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        mean_average_precision({})


def test_build_size_map_reports_missing():
    corpus = support.corpus_from_strings({"d": NESTED_DOC})
    needed = {("d", P("/article[1]/sec[1]")), ("d", P("/article[1]/sec[9]")), ("x", P("/a[1]"))}
    sizes, diagnostics = build_size_map(corpus, needed)
    assert sizes[("d", P("/article[1]/sec[1]"))] == 8
    assert sizes[("d", P("/article[1]/sec[9]"))] == 0
    assert sizes[("x", P("/a[1]"))] == 0
    assert len(diagnostics) == 2
