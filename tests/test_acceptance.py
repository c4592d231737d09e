"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence once its assertions hold."""

import itertools
import random
import time

import pytest

from xmlir import (
    ElementPath,
    RankParams,
    SystemConfig,
    build_index,
    execute,
    identify_cres,
    inex_eval_strict,
    ingest_corpus,
    mean_average_precision,
    parse_topics,
    rank_articles,
    rank_cres,
    read_run_file,
    translate_topic,
)
from xmlir.assessments import (
    AssessmentSet,
    BROAD,
    NARROW,
    NEUTRAL,
    ORIGINAL,
    categorize_topic,
    derive_view,
    load_assessments,
    parse_assessment_file,
)
from xmlir.cli import main
from xmlir.evaluation import quantize
from xmlir.matcher import AND
from xmlir.pipeline import HYBRID, XMLDB

import support
from conftest import (
    EXPECTED_CRES_MPE,
    EXPECTED_SPECIFIC,
    SAMPLE_ASSESSMENT_XML,
    SAMPLE_DOC_ID,
)


def P(text):
    return ElementPath.from_string(text)


def test_c1_coherent_element_fixture_exactness(sample_corpus, sample_or_matches):
    expected = [
        (P(path), matches, length, sequence)
        for path, matches, length, sequence in EXPECTED_CRES_MPE
    ]

    def run_once():
        cres = identify_cres(sample_corpus, sample_or_matches)
        return dict(cres), rank_cres(sample_corpus, cres, "MpE")

    run_once()  # warm caches before timing
    best = min(
        (_timed(run_once) for _ in range(5)),
        key=lambda pair: pair[0],
    )
    elapsed, (below, ranked) = best
    path = sample_corpus.path
    got = [(path(n), below[n], path(n).depth, support.sequence(path(n))) for n in ranked]
    assert got == expected
    assert sample_corpus.docs == [SAMPLE_DOC_ID] and all(n < sample_corpus.starts[1] for n in ranked)
    assert elapsed < 0.001, f"took {elapsed * 1e3:.3f} ms"
    print(f"\n[acceptance] 1 PASS coherent-element fixture exact, {elapsed * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_c2_sequence_tiebreak_directions():
    corpus = support.corpus_from_strings({"d": "<article><bdy><sec/><sec/><sec/><sec/></bdy></article>"})
    sec2, sec4 = (corpus.find(0, P(f"/article[1]/bdy[1]/sec[{k}]")) for k in (2, 4))
    cres = [(sec2, 4), (sec4, 4)]
    under_e = rank_cres(corpus, cres, "MpE")
    under_b = rank_cres(corpus, cres, "MpB")
    assert [str(corpus.path(n)) for n in under_e] == [
        "/article[1]/bdy[1]/sec[4]", "/article[1]/bdy[1]/sec[2]",
    ]
    assert [str(corpus.path(n)) for n in under_b] == [
        "/article[1]/bdy[1]/sec[2]", "/article[1]/bdy[1]/sec[4]",
    ]
    print("\n[acceptance] 2 PASS tie-break fixture exact under E and B")


def test_c3_coherent_element_oracle_equivalence():
    rng = random.Random(9001)
    start = time.perf_counter()
    trees = 0
    singletons = 0
    for _ in range(1000):
        paths = support.random_tree_paths(rng, max_nodes=30)
        matching = support.random_antichain(rng, paths)
        if len(matching) == 1:
            singletons += 1
        corpus = support.tree_of(paths)
        cres = identify_cres(corpus, support.indices_of(corpus, 0, matching))
        got = {corpus.path(n): below for n, below in cres}
        expected = support.brute_force_cres(paths, matching)
        assert got == expected, f"mismatch on tree {trees}"
        trees += 1
    elapsed = time.perf_counter() - start
    assert trees == 1000
    assert singletons > 0, "generator produced no singleton inputs"
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"
    print(
        f"\n[acceptance] 3 PASS oracle equivalence on {trees} trees "
        f"({singletons} singleton cases) in {elapsed:.1f}s"
    )


def test_c4_general_specific_views(tmp_path):
    target = tmp_path / "117.xml"
    target.write_text(SAMPLE_ASSESSMENT_XML)
    aset = parse_assessment_file(target)
    relevant = derive_view(aset, ORIGINAL)
    assert len(relevant) == 15
    assert derive_view(aset, "general") == {(SAMPLE_DOC_ID, P("/article[1]"))}
    assert derive_view(aset, "specific") == {(SAMPLE_DOC_ID, P(p)) for p in EXPECTED_SPECIFIC}

    rng = random.Random(424)
    violations = 0
    for _ in range(1000):
        graded = []
        relevant_pairs = set()
        for doc in ("a", "b"):
            paths = support.random_tree_paths(rng, max_nodes=18)
            for path in rng.sample(paths, rng.randint(1, len(paths))):
                e, s = rng.choice([(3, 3), (3, 3), (3, 1), (2, 3)])
                graded.append((doc, path, e, s))
                if (e, s) == (3, 3):
                    relevant_pairs.add((doc, path))
        aset = support.parse_graded(tmp_path, 1, graded)
        general = derive_view(aset, "general")
        specific = derive_view(aset, "specific")
        for doc, path in relevant_pairs:
            covered_up = any(d == doc and (g == path or support.is_ancestor_of(g, path)) for d, g in general)
            covered_down = any(d == doc and (s == path or support.is_ancestor_of(path, s)) for d, s in specific)
            if not (covered_up and covered_down):
                violations += 1
        for view in (general, specific):
            for (d1, p1), (d2, p2) in itertools.permutations(view, 2):
                if d1 == d2 and support.is_ancestor_of(p1, p2):
                    violations += 1
    assert violations == 0
    print("\n[acceptance] 4 PASS views fixture exact; 0 violations over 1000 random judgment sets")


def test_c5_categorization_rule_exhaustive():
    def fixture(articles, others):
        relevant = {(f"a{i}", P("/article[1]")) for i in range(articles)}
        relevant |= {(f"o{i}", P("/article[1]/sec[1]")) for i in range(others)}
        return AssessmentSet(topic_id=1, relevant=frozenset(relevant))

    def general(articles, others):
        return derive_view(fixture(articles, others), "general")

    assert categorize_topic(general(20, 5)) == BROAD
    assert categorize_topic(general(3, 3)) == NEUTRAL
    checked = 0
    for a in range(11):
        for b in range(11):
            if a == 0 and b == 0:
                with pytest.raises(ValueError):
                    categorize_topic(general(a, b))
                continue
            expected = BROAD if a > b else NARROW if a < b else NEUTRAL
            assert categorize_topic(general(a, b)) == expected
            checked += 1
    print(f"\n[acceptance] 5 PASS categorization exact on anchors and {checked} grid points")


def test_c6_metric_oracles():
    rng = random.Random(77001)
    for trial in range(500):
        base = rng.randint(1, 10)
        relevant = [("d", P(f"/a[1]/p[{i}]")) for i in range(1, base + 1)]
        pool = relevant + [("d", P(f"/a[1]/x[{i}]")) for i in range(1, 15)]
        run = rng.sample(pool, rng.randint(0, len(pool)))
        got = inex_eval_strict(run, frozenset(relevant))
        expected = support.naive_strict_ap([e in set(relevant) for e in run], base)
        assert got == pytest.approx(expected, abs=1e-9), f"trial {trial}"

    rel1, rel2 = ("d", P("/a[1]/p[1]")), ("d", P("/a[1]/p[2]"))
    hand = inex_eval_strict(
        [rel1, ("d", P("/a[1]/x[1]")), rel2],
        frozenset({rel1, rel2}),
    )
    assert hand == pytest.approx(0.8333333333333333, abs=1e-9)

    overlapping_runs = 0
    for _ in range(200):
        docs = {f"d{i}": support.random_xml(rng) for i in range(2)}
        corpus = support.corpus_from_strings(docs)
        sizes = support.element_sizes(corpus)
        pool = [element for element, size in sizes.items() if size > 0]
        if len(pool) < 4:
            continue
        run = rng.sample(pool, rng.randint(3, min(12, len(pool))))
        has_overlap = any(
            da == db and (support.is_ancestor_of(pa, pb) or support.is_ancestor_of(pb, pa))
            for (da, pa), (db, pb) in itertools.combinations(run, 2)
        )
        if not has_overlap:
            continue
        overlapping_runs += 1
        relevant = frozenset(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
        ap_s = support.ng_ap(corpus, run, relevant, "s")
        ap_o = support.ng_ap(corpus, run, relevant, "o")
        assert ap_o <= ap_s + 1e-12
    assert overlapping_runs >= 50
    print(
        "\n[acceptance] 6 PASS strict oracle x500, hand case 0.8333, "
        f"overlap bound held on {overlapping_runs} runs"
    )


def test_c7_ranking_properties():
    length = 14
    docs = {}
    for i in range(10):
        body = ["alpha"] * (i % 5 + 1) + ["beta"] * (i % 3) + [f"pad{i}"] * (
            length - (i % 5 + 1) - (i % 3)
        )
        docs[f"d{i}"] = "<article>" + " ".join(body) + "</article>"
    corpus = support.corpus_from_strings(docs)
    index = build_index(corpus)
    query = ["alpha", "beta"]
    orders = []
    for slope in (0.0, 0.25, 0.5, 0.75, 1.0):
        orders.append(rank_articles(index, query, RankParams(slope=slope))[0])
    assert all(order == orders[0] for order in orders)

    tokens = {
        doc: [t for own in support.own_tokens(docs[doc]).values() for t in own]
        for doc in corpus.docs
    }
    for slope in (0.0, 0.55, 1.0):
        oracle = support.formula_score(tokens, query, slope)
        for d, score in zip(*rank_articles(index, query, RankParams(slope=slope))):
            assert score == pytest.approx(oracle[corpus.docs[d]], abs=1e-9)
    print("\n[acceptance] 7 PASS slope-invariant ordering x5 and formula oracle at 1e-9")


@pytest.fixture(scope="module")
def synthetic_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic")
    return support.build_synthetic_workspace(root)


SYSTEM_CELLS = (
    ("fulltext", []),
    ("xmldb", []),
    ("xmldb", ["--cre", "--combo", "MpE"]),
    ("hybrid", []),
    ("hybrid", ["--cre", "--combo", "MpE"]),
)


def test_c8_pipeline_determinism_and_structure(synthetic_workspace, tmp_path):
    ws = synthetic_workspace
    assert ws["n_docs"] == 200
    start = time.perf_counter()
    run_files = {}
    for system, extra in SYSTEM_CELLS:
        label = system + ("-cre" if "--cre" in extra else "")
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{label}.{attempt}.run"
            argv = [
                "run", "--corpus", str(ws["corpus"]), "--topics", str(ws["topics"]),
                "--system", system, *extra, "--n", "10", "--out", str(out),
            ]
            assert main(argv) == 0
            outputs.append(out)
        assert outputs[0].read_bytes() == outputs[1].read_bytes(), f"{label} not deterministic"
        run_files[label] = outputs[0]

    corpus = ingest_corpus(ws["corpus"])
    index = build_index(corpus)
    texts = {path.relative_to(ws["corpus"]).with_suffix("").as_posix(): path.read_text(encoding="utf-8")
             for path in ws["corpus"].rglob("*.xml")}
    topics = {t.id: t for t in parse_topics(ws["topics"])[0]}
    for label, run_file in run_files.items():
        for run in read_run_file(run_file):
            assert len(run.entries) <= 1500
            per_doc = {}
            for entry in run.entries:
                per_doc[entry.doc] = per_doc.get(entry.doc, 0) + 1
            assert all(count <= 10 for count in per_doc.values()), label
            bag = translate_topic(topics[run.topic_id])
            if label in ("xmldb", "hybrid"):
                and_set = set(support.naive_collection_match(texts, frozenset(bag), AND))
                seen_non_and = {}
                for entry in run.entries:
                    if (entry.doc, entry.path) in and_set:
                        assert not seen_non_and.get(entry.doc, False), label
                    else:
                        seen_non_and[entry.doc] = True
            if label.startswith("hybrid"):
                ranking = [corpus.docs[d] for d in rank_articles(index, bag)[0]]
                blocks = []
                for entry in run.entries:
                    if not blocks or blocks[-1] != entry.doc:
                        blocks.append(entry.doc)
                assert len(set(blocks)) == len(blocks), label
                positions = [ranking.index(doc) for doc in blocks]
                assert positions == sorted(positions), label
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"end-to-end took {elapsed:.1f}s"
    print(
        f"\n[acceptance] 8 PASS five systems byte-identical twice over 200 docs / "
        f"10 topics; laws hold; {elapsed:.1f}s"
    )


def test_c9_directional_sanity(synthetic_workspace):
    ws = synthetic_workspace
    corpus = ingest_corpus(ws["corpus"])
    index = build_index(corpus)
    topics, _ = parse_topics(ws["topics"])
    sets, diagnostics = load_assessments(ws["assessments"])
    assert not diagnostics
    judgments = {s.topic_id: quantize(s, ORIGINAL) for s in sets}

    def system_map(config: SystemConfig) -> float:
        per_topic = {}
        for topic in topics:
            run = execute(topic, corpus, index, config)
            entries = [(e.doc, e.path) for e in run.entries]
            per_topic[topic.id] = inex_eval_strict(entries, judgments[topic.id])
        return mean_average_precision(per_topic)

    xmldb_map = system_map(SystemConfig(system=XMLDB))
    hybrid_map = system_map(SystemConfig(system=HYBRID))
    hybrid_cre_map = system_map(SystemConfig(system=HYBRID, cre=True))
    assert hybrid_map > xmldb_map, f"{hybrid_map=} {xmldb_map=}"
    assert hybrid_cre_map > hybrid_map, f"{hybrid_cre_map=} {hybrid_map=}"
    print(
        "\n[acceptance] 9 PASS MAP ordering "
        f"hybrid-cre {hybrid_cre_map:.4f} > hybrid {hybrid_map:.4f} > xmldb {xmldb_map:.4f}"
    )


def test_c10_and_match_as_only_branching_node(tmp_path):
    # /a[1] is the one AND match and the one branching node of the matches
    # /a[1]/b[1] and /a[1]/c[1]; a match is never its own coherent element,
    # so the coherent-element systems write nothing for this document
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "d.xml").write_text("<a><b>alpha</b><c>beta</c></a>", encoding="utf-8")
    topics = tmp_path / "topics.xml"
    topics.write_text('<inex_topic topic_id="1" query_type="CO"><keywords>alpha, beta</keywords></inex_topic>',
                      encoding="utf-8")
    written = {}
    for system, extra in SYSTEM_CELLS[1:]:
        label = system + ("-cre" if extra else "")
        out = tmp_path / f"{label}.run"
        argv = ["run", "--corpus", str(tmp_path / "corpus"), "--topics", str(topics), "--system", system, *extra]
        assert main([*argv, "--out", str(out)]) == 0
        written[label] = out.read_text(encoding="utf-8")
    for label in ("xmldb", "hybrid"):
        paths = ("/a[1]", "/a[1]/b[1]", "/a[1]/c[1]")
        assert written[label] == "".join(f"1\t{r}\td\t{p}\t-\t{label}\n" for r, p in enumerate(paths, 1))
    assert written["xmldb-cre"] == written["hybrid-cre"] == ""
    print("\n[acceptance] 10 PASS an AND match that is its document's only branching node yields no coherent element")
