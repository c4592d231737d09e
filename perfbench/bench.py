"""One workload, measured in its own process: timings or a traced run.

``run.py`` generates the workload's files and starts this script. It drives
the package's public API from one thread:

* untraced (``--trace 0``): three rounds, each timing one set-up
  (``ingest_corpus`` + ``build_index`` + ``load_assessments``), one
  in-process ``xmlir report --metric ng-o``, and the per-topic latency of
  ``pipeline.execute`` for the five systems over a third of the topics;
* traced (``--trace 1``): one fixed unit of work (set-up, one pass over the
  first topics, one report) run untraced and then under ``tracer.Tracer``,
  giving per-layer metrics and the tracing overhead.

Both check the outputs: answers repeat across passes, sampled (topic,
article) answers equal the brute-force oracles, run files round-trip, the
grid is well formed, and the workload keeps its defining property. The
result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import oracle
from tracer import Tracer

SYSTEMS = (("fulltext", False), ("xmldb", False), ("xmldb", True), ("hybrid", False), ("hybrid", True))
ROUNDS = 3  # each times one set-up, one report and a slice of the topics
MIN_SAMPLES = 100  # per system, so that at least ten lie beyond p90
TRACE_TOPICS = 24  # topics in the traced run's pass
ORACLE_SAMPLES = 6  # per element system
ROUNDTRIP_TOPICS = 8  # per system
CAP = 1500  # SystemConfig's default global answer cap
GRID_LABEL = "ng-o-reconstructed"
_TOKEN = re.compile(r"[0-9a-z]+")


class Checks:
    """Operations attempted and failed; every failure is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}")
        return ok


class Workspace:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.corpus = work / "corpus"
        self.topics = work / "topics.xml"
        self.report_topics = work / "report-topics.xml"
        self.assessments = work / "assessments"
        self.spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))


def terms_of(topic) -> set[str]:
    return {t for phrase in topic.keywords for t in _TOKEN.findall(phrase.lower())}


def setup(x, ws: Workspace):
    """What every ``run`` and ``report`` pays before its first topic."""
    corpus = x.corpus.ingest_corpus(ws.corpus)
    index = x.ranker.build_index(corpus)
    x.assessments.load_assessments(ws.assessments)
    return corpus, index


def configs(x):
    return [x.pipeline.SystemConfig(system=s, cre=c) for s, c in SYSTEMS]


def execute_pass(x, corpus, index, topics, cfgs, first, samples, checks: Checks) -> None:
    """Every topic through every system once; a raised topic or an answer
    that differs from the first pass's is a failed operation."""
    clock = time.perf_counter
    for topic in topics:
        for cfg in cfgs:
            start = clock()
            try:
                result = x.pipeline.execute(topic, corpus, index, cfg)
            except Exception:  # the benchmark must finish and count the failure
                traceback.print_exc(file=sys.stdout)
                checks.check(False, f"{cfg.tag} topic {topic.id} raised")
                continue
            elapsed = clock() - start
            earlier = first[cfg.tag].setdefault(topic.id, result)
            if checks.check(
                earlier.entries == result.entries,
                f"{cfg.tag} topic {topic.id}: answers differ between passes",
            ) and samples is not None:
                samples[cfg.tag].append(elapsed)


def run_report(x, ws: Workspace, out: Path) -> tuple[int, float, str]:
    """One in-process ``xmlir report --metric ng-o``; stderr kept in memory."""
    argv = [
        "report", "--corpus", str(ws.corpus), "--topics", str(ws.report_topics),
        "--assessments", str(ws.assessments), "--metric", "ng-o", "--out", str(out),
    ]
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = x.cli.main(argv)
    return code, time.perf_counter() - start, err.getvalue()


# -- correctness -----------------------------------------------------------


def check_run_files(x, ws: Workspace, topics, first, seed: int, checks: Checks) -> dict[str, str]:
    """SHA-256 of each system's run file, and a round trip through
    ``write_run_file``/``read_run_file`` for a seeded sample of its topics."""
    rng = random.Random(f"roundtrip/{seed}")
    digests = {}
    for tag, by_topic in first.items():
        runs = [by_topic[t.id] for t in topics if t.id in by_topic]
        path = ws.work / f"{tag}.run"
        x.pipeline.write_run_file(path, runs)
        digests[tag] = hashlib.sha256(path.read_bytes()).hexdigest()
        # empty runs write no lines, so they cannot come back
        sample = [r for r in rng.sample(runs, min(ROUNDTRIP_TOPICS, len(runs))) if r.entries]
        sample_path = ws.work / f"{tag}.sample.run"
        x.pipeline.write_run_file(sample_path, sample)
        back = x.pipeline.read_run_file(sample_path)

        def rows(run):
            return [
                (e.rank, e.doc, str(e.path), None if e.score is None else f"{e.score:.6f}")
                for e in run.entries
            ]

        checks.check(len(back) == len(sample), f"{tag}: run file holds {len(back)} topics")
        for run, again in zip(sample, back):
            checks.check(
                (run.topic_id, run.system_tag, rows(run)) == (again.topic_id, again.system_tag, rows(again)),
                f"{tag} topic {run.topic_id}: run file does not round-trip",
            )
    return digests


def check_fulltext(results, checks: Checks) -> None:
    for topic_id, run in results.items():
        ranks = [e.rank for e in run.entries]
        scores = [e.score for e in run.entries]
        docs = [e.doc for e in run.entries]
        checks.check(
            ranks == list(range(1, len(ranks) + 1))
            and all(a >= b for a, b in zip(scores, scores[1:]))
            and len(set(docs)) == len(docs),
            f"fulltext topic {topic_id}: ranks, scores or documents out of order",
        )


def check_oracle(ws: Workspace, topics, first, seed: int, checks: Checks) -> None:
    """Sampled (topic, article) answer lists against the brute-force oracles."""
    rng = random.Random(f"oracle/{seed}")
    parsed: dict[str, list[oracle.Element]] = {}
    for tag in ("xmldb", "xmldb-cre", "hybrid", "hybrid-cre"):
        candidates = []
        for topic in topics:
            run = first[tag].get(topic.id)
            if run is None:
                continue
            docs = list(dict.fromkeys(e.doc for e in run.entries))
            capped = len(run.entries) >= CAP
            if capped and tag != "xmldb":
                docs = docs[:-1]  # the cap may cut the last article short
            candidates += [(topic, doc, capped) for doc in docs]
        for topic, doc, capped in rng.sample(candidates, min(ORACLE_SAMPLES, len(candidates))):
            if doc not in parsed:
                parsed[doc] = oracle.elements((ws.corpus / f"{doc}.xml").read_text(encoding="utf-8"))
            elems = parsed[doc]
            matches = oracle.combined_matches(elems, terms_of(topic))
            if tag.endswith("-cre"):
                expected = [e.path for e, _ in oracle.coherent_elements(elems, matches)] if matches else []
            else:
                expected = [e.path for e in matches]
            got = [str(e.path) for e in first[tag][topic.id].entries if e.doc == doc]
            if capped and tag == "xmldb":
                # xmldb lists every article's AND matches before any OR match,
                # so the cap can cut an article's OR matches at any article.
                expected = expected[: len(got)]
            checks.check(got == expected, f"{tag} topic {topic.id} {doc}: {got} != oracle {expected}")
    # Articles that xmldb left out of an uncapped list must hold no match.
    all_docs = sorted(p.relative_to(ws.corpus).as_posix()[: -len(".xml")] for p in ws.corpus.rglob("*.xml"))
    for topic in rng.sample(topics, min(ORACLE_SAMPLES, len(topics))):
        run = first["xmldb"].get(topic.id)
        if run is None or len(run.entries) >= CAP:
            continue
        listed = {e.doc for e in run.entries}
        doc = rng.choice(all_docs)
        if doc in listed:
            continue
        elems = oracle.elements((ws.corpus / f"{doc}.xml").read_text(encoding="utf-8"))
        found = oracle.combined_matches(elems, terms_of(topic))
        checks.check(not found, f"xmldb topic {topic.id}: {doc} holds matches but is not listed")


def shape(corpus, index, topics, first) -> dict[str, float]:
    """The workload properties that its definition depends on."""
    n_docs = len(corpus)
    and_nonempty = 0
    useful = 0.0
    for topic in topics:
        holders = [{d for d, _ in index.postings.get(t, ())} for t in terms_of(topic)]
        any_docs = set().union(*holders)
        all_docs = set.intersection(*holders) if holders else set()
        and_nonempty += bool(all_docs)
        useful += (len(any_docs) + len(all_docs)) / (2 * n_docs)
    per_article = [
        count
        for run in first["xmldb"].values()
        for count in Counter(e.doc for e in run.entries).values()
    ]
    trees = list(corpus.trees())
    out = {
        "docs": n_docs,
        "nodes": sum(len(t.nodes) for t in trees),
        "tokens": sum(t.root.subtree_size for t in trees),
        "topics": len(topics),
        "and_nonempty_share": and_nonempty / len(topics),
        "xmldb_useful_ratio": useful / len(topics),
        "matches_per_matched_article": statistics.mean(per_article) if per_article else 0.0,
    }
    for tag, by_topic in first.items():
        runs = list(by_topic.values())
        out[f"capped_share.{tag}"] = sum(len(r.entries) >= CAP for r in runs) / max(1, len(runs))
    return out


def check_property(workload: str, props: dict[str, float], grid: str, checks: Checks) -> None:
    """Fail the run when a full-size workload loses what defines it."""
    if workload == "sparse-or":
        checks.check(props["and_nonempty_share"] == 0.0, "sparse-or: an AND list is not empty")
        checks.check(props["xmldb_useful_ratio"] <= 0.1, "sparse-or: most xmldb matcher calls find answers")
    elif workload == "dense-and":
        checks.check(props["and_nonempty_share"] >= 0.8, "dense-and: most AND lists are empty")
        checks.check(props["capped_share.xmldb"] >= 0.8, "dense-and: xmldb answers are not capped")
    else:
        topics = {
            row.split("\t")[3]: int(row.split("\t")[5])
            for row in grid.splitlines()[1:]
            if row.startswith("fulltext\t-\toriginal\t")
        }
        checks.check(
            topics.get("broad", 0) >= 1 and topics.get("narrow", 0) >= 1,
            "report-grid: the grid lacks a broad or a narrow topic",
        )


def verify(x, ws, workload, seed, corpus, index, topics, first, grid, checks) -> None:
    checks.check(len(corpus) == ws.spec["docs"] and not corpus.diagnostics, "corpus ingested incompletely")
    rows, problems = oracle.grid_problems(grid, GRID_LABEL)
    checks.attempted += rows
    checks.failed += len(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    check_fulltext(first["fulltext"], checks)
    check_oracle(ws, topics, first, seed, checks)
    digests = check_run_files(x, ws, topics, first, seed, checks)
    props = shape(corpus, index, topics, first)
    if ws.spec["scale"] == 1.0:
        check_property(workload, props, grid, checks)
    else:
        # a shrunken dense-and cannot reach the answer cap, for one
        print(f"workload properties not checked at scale {ws.spec['scale']}")
    print("shape: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in props.items()))
    for tag, digest in digests.items():
        print(f"sha256 run {tag} {digest}")
    print(f"sha256 grid {hashlib.sha256(grid.encode('utf-8')).hexdigest()}")


# -- the two runs ----------------------------------------------------------


def timed_run(x, ws: Workspace, args, checks: Checks) -> dict[str, tuple[float, str]]:
    """ROUNDS rounds of set-up, report and latency passes over a slice of the
    topics, so that every metric's samples span the whole run rather than
    one stretch of it."""
    topics = None
    cfgs = configs(x)
    first = {cfg.tag: {} for cfg in cfgs}
    samples = {cfg.tag: [] for cfg in cfgs}
    setup_times, report_times = [], []
    grid = None
    grid_path = ws.work / "grid.tsv"
    passes = 0
    latency_s = 0.0
    began = time.perf_counter()
    for r in range(ROUNDS):
        corpus = index = None
        gc.collect()
        start = time.perf_counter()
        corpus, index = setup(x, ws)
        setup_times.append(time.perf_counter() - start)

        gc.collect()
        code, elapsed, _ = run_report(x, ws, grid_path)
        report_times.append(elapsed)
        text = grid_path.read_text(encoding="utf-8") if code == 0 else ""
        checks.check(code == 0, f"report exited {code}")
        checks.check(grid is None or text == grid, "report grids differ between runs")
        if grid is None:
            grid = text
            # Taken before the latency passes, whose results the benchmark keeps
            # for its checks: this is the program's own peak over set-up and report.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            topics, _ = x.pipeline.parse_topics(ws.topics)
            checks.check(len(topics) == ws.spec["topics"], "topics parsed incompletely")

        # whole passes over this round's slice until both its share of the
        # samples and its share of the run time are reached
        topic_slice = topics[r::ROUNDS]
        needed = math.ceil(MIN_SAMPLES * (r + 1) / ROUNDS)
        round_end = began + args.seconds * (r + 1) / ROUNDS
        start = time.perf_counter()
        while topic_slice:
            gc.collect()
            before = min(len(s) for s in samples.values())
            pass_start = time.perf_counter()
            execute_pass(x, corpus, index, topic_slice, cfgs, first, samples, checks)
            passes += 1
            now = time.perf_counter()
            fewest = min(len(s) for s in samples.values())
            # a system whose every answer fails adds no samples: stop, not spin
            if fewest == before or (fewest >= needed and now + (now - pass_start) > round_end):
                break
        latency_s += time.perf_counter() - start

    start = time.perf_counter()
    verify(x, ws, args.workload, args.seed, corpus, index, topics, first, grid, checks)
    fewest = min(len(s) for s in samples.values())
    print(f"samples: {fewest} per system ({passes} passes over slices of {len(topics)} topics); "
          f"set-up runs: {len(setup_times)}; report runs: {len(report_times)}")
    print(f"phases: set-up {sum(setup_times):.1f} s, report {sum(report_times):.1f} s, "
          f"latency {latency_s:.1f} s, checks {time.perf_counter() - start:.1f} s")
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    for tag, values in samples.items():
        if len(values) < 2:
            continue
        # The median is printed but not gated: on a shared host it moves with
        # the share of samples that ran at full speed, while p90 stays put.
        print(f"topic_ms.{tag}.p50 {1000 * statistics.median(values):.6g} ms (not gated)")
        metrics[f"topic_ms.{tag}.p90"] = (1000 * statistics.quantiles(values, n=10)[-1], "ms")
    # Not gated either: a report lasts seconds, so its time follows the host's
    # average speed, which drifted by up to half between runs on a shared host.
    print(f"report_s {statistics.median(report_times):.6g} s (not gated)")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    return metrics


@dataclass
class Outputs:
    corpus: Any
    index: Any
    topics: list
    first: dict  # system tag -> topic id -> RunResult
    grid: str


def fixed_work(x, ws: Workspace, checks: Checks, grid_path: Path) -> tuple[float, Outputs, int]:
    """Set-up, one pass over the first topics, one report: the time taken,
    the outputs, and the report's stderr line count."""
    start = time.perf_counter()
    corpus, index = setup(x, ws)
    topics, _ = x.pipeline.parse_topics(ws.topics)
    topics = topics[:TRACE_TOPICS]
    cfgs = configs(x)
    first = {cfg.tag: {} for cfg in cfgs}
    execute_pass(x, corpus, index, topics, cfgs, first, None, checks)
    code, _, err = run_report(x, ws, grid_path)
    elapsed = time.perf_counter() - start
    checks.check(code == 0, f"report exited {code}")
    grid = grid_path.read_text(encoding="utf-8") if code == 0 else ""
    return elapsed, Outputs(corpus, index, topics, first, grid), len(err.splitlines())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, diagnostic_lines: int) -> dict[str, tuple[float, str]]:
    st = tracer.layer_stats()
    c = tracer.counters

    def mean_s(layer: str) -> float:
        return _ratio(st[layer].total_s, st[layer].calls)

    ingests = st["corpus.ingest"].calls
    matcher_calls = st["matcher.match"].calls
    executes = st["pipeline.execute"].calls
    m = {
        "corpus.ingest_s": (mean_s("corpus.ingest"), "s"),
        "corpus.docs": (_ratio(c["corpus.ingest.docs"], ingests), "count"),
        "corpus.nodes": (_ratio(c["corpus.ingest.nodes"], ingests), "count"),
        "corpus.tokens": (_ratio(c["corpus.ingest.tokens"], ingests), "count"),
        "ranker.build_index_s": (mean_s("ranker.build_index"), "s"),
        "ranker.rank_calls": (st["ranker.rank"].calls, "count"),
        "ranker.rank_self_s": (st["ranker.rank"].self_s, "s"),
        "ranker.postings_touched": (c["ranker.rank.postings_touched"], "count"),
        "matcher.calls": (matcher_calls, "count"),
        "matcher.self_s": (st["matcher.match"].self_s + st["matcher.collection"].self_s, "s"),
        "matcher.nodes_visited": (c["matcher.match.nodes_visited"], "count"),
        "matcher.matches": (c["matcher.match.matches"], "count"),
        "matcher.useful_ratio": (_ratio(c["matcher.match.useful"], matcher_calls), "ratio"),
        "cre.identify_calls": (st["cre.identify"].calls, "count"),
        "cre.identify_self_s": (st["cre.identify"].self_s, "s"),
        "cre.items_in": (c["cre.identify.items_in"], "count"),
        "cre.cres_out": (c["cre.identify.cres_out"], "count"),
        "cre.rank_self_s": (st["cre.rank"].self_s, "s"),
        "pipeline.execute_calls": (executes, "count"),
        "pipeline.execute_self_s": (st["pipeline.execute"].self_s, "s"),
        "pipeline.entries_out": (c["pipeline.execute.entries_out"], "count"),
        "pipeline.capped_share": (_ratio(c["pipeline.execute.capped"], executes), "ratio"),
        "pipeline.yield_ratio": (
            _ratio(c["pipeline.execute.element_entries"], c["pipeline.execute.produced"]), "ratio"),
        "assessments.load_s": (mean_s("assessments.load"), "s"),
        "assessments.derive_view_calls": (st["assessments.derive_view"].calls, "count"),
        "assessments.derive_view_self_s": (st["assessments.derive_view"].self_s, "s"),
        "assessments.categorize_calls": (st["assessments.categorize"].calls, "count"),
        "evaluation.quantize_calls": (st["evaluation.quantize"].calls, "count"),
        "evaluation.quantize_self_s": (st["evaluation.quantize"].self_s, "s"),
        "evaluation.size_map_calls": (st["evaluation.size_map"].calls, "count"),
        "evaluation.size_map_self_s": (st["evaluation.size_map"].self_s, "s"),
        "evaluation.size_map_pairs": (c["evaluation.size_map.pairs"], "count"),
        "evaluation.strict_self_s": (st["evaluation.strict"].self_s, "s"),
        "evaluation.ng_calls": (st["evaluation.ng"].calls, "count"),
        "evaluation.ng_self_s": (st["evaluation.ng"].self_s, "s"),
        "evaluation.ng_entries": (c["evaluation.ng.entries"], "count"),
        "cli.report_self_s": (st["cli.report"].self_s + st["cli.score_runs"].self_s, "s"),
        "cli.score_runs_calls": (st["cli.score_runs"].calls, "count"),
        "cli.execute_calls": (tracer.calls_under("pipeline.execute", "cli.report"), "count"),
        "cli.diagnostic_lines": (diagnostic_lines, "count"),
        "trace.spans": (len(tracer), "count"),
        "trace.absent_layers": (len(tracer.absent), "count"),
    }
    return m


def traced_run(x, ws: Workspace, args, checks: Checks) -> dict[str, tuple[float, str]]:
    gc.collect()
    untraced_s, untraced, _ = fixed_work(x, ws, checks, ws.work / "grid-untraced.tsv")
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        traced_s, traced, diagnostic_lines = fixed_work(x, ws, checks, ws.work / "grid.tsv")
    finally:
        tracer.uninstall()
    checks.check(traced.grid == untraced.grid, "tracing changed the report grid")
    for tag, by_topic in traced.first.items():
        for topic_id, run in by_topic.items():
            before = untraced.first[tag].get(topic_id)
            checks.check(
                before is not None and run.entries == before.entries,
                f"{tag} topic {topic_id}: tracing changed the answers",
            )
    verify(x, ws, args.workload, args.seed, traced.corpus, traced.index, traced.topics,
           traced.first, traced.grid, checks)
    if tracer.absent:
        print("absent layers: " + " ".join(tracer.absent))
    for layer, errors in tracer.counter_errors.items():
        print(f"counters unreadable on {errors} {layer} calls")
    tracer.write_spans(args.spans)
    print(f"spans: {len(tracer)} written to {args.spans}")
    m = layer_metrics(tracer, diagnostic_lines)
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"tracing overhead: {traced_s - untraced_s:.3f} s on {untraced_s:.3f} s untraced "
          f"({_ratio(traced_s - untraced_s, untraced_s):.1%})")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True, help="generated workload directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, required=True, help="where the traced run writes its spans")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True, help="directory holding the xmlir package")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src))
    import xmlir.assessments
    import xmlir.cli
    import xmlir.corpus
    import xmlir.pipeline
    import xmlir.ranker

    ws = Workspace(args.work)
    checks = Checks()
    run = traced_run if args.trace else timed_run
    metrics = run(xmlir, ws, args, checks)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {checks.failed}/{checks.attempted} = {_ratio(checks.failed, checks.attempted):.6f}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
