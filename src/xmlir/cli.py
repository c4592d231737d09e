"""Command-line driver: execute retrieval runs, evaluate them against
assessments, and emit summary tables.

Subcommands: ``run``, ``eval``, ``report``, ``assess-stats``.
Each option is defined once, by its flag in ``build_parser``. A JSON config
file named by the ``XMLIR_CONFIG`` environment variable may set any option
under its dest (the flag without ``--``, ``-`` written ``_``); its values
become the subcommand's defaults, so command-line values win and the
built-in defaults apply last. A config value is checked against its flag's
choices or kind, and a key that names no option is an error.
Diagnostics go to stderr, each distinct line once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from . import assessments as assess
from . import evaluation, pipeline
from .corpus import Corpus, ingest_corpus
from .cre import COMBO_CODES
from .paths import ElementPath
from .ranker import build_index

CONFIG_ENV = "XMLIR_CONFIG"

N_CHOICES = ("1", "10", "all")
CATEGORY_CHOICES = ("all", assess.BROAD, assess.NARROW)
_DEFAULTS = pipeline.SystemConfig(system=pipeline.FULLTEXT)

Warn = Callable[[str], None]
Judgment = tuple[str, dict[str, frozenset[tuple[str, ElementPath]]]]


def _warn_once() -> Warn:
    """A stderr printer that writes each distinct diagnostic once, in first-seen order."""
    seen: set[str] = set()

    def warn(line: str) -> None:
        if line not in seen:
            seen.add(line)
            print(line, file=sys.stderr)

    return warn


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _json_kind(action: argparse.Action) -> tuple[str, tuple[type, ...]]:
    """The JSON kind a config value for ``action``'s flag must have, and the Python types that hold it."""
    if action.nargs == 0:  # a switch
        return "boolean", (bool,)
    return {float: ("number", (int, float)), int: ("integer", (int,))}.get(action.type, ("string", (str,)))


def _config_defaults(parser: argparse.ArgumentParser) -> dict[str, Any]:
    """The config file's values, each checked against the option of that dest."""
    named = os.environ.get(CONFIG_ENV)
    if not named:
        return {}
    path = Path(named)
    if not path.is_file():
        raise FileNotFoundError(f"config file from {CONFIG_ENV} not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file must hold a JSON object: {path}")
    commands = _subcommands(parser).values()
    options = {a.dest: a for c in commands for a in c._actions if a.option_strings and a.dest != "help"}
    for name, value in data.items():
        action = options.get(name)
        if action is None:
            raise ValueError(f"{path}: unknown option {json.dumps(name)}")
        if action.choices is not None:
            if value not in action.choices:
                raise ValueError(f"{path}: {name} must be one of {json.dumps(action.choices)}, not {json.dumps(value)}")
            continue
        kind, types = _json_kind(action)
        if type(value) not in types:  # so a JSON true is no integer
            raise ValueError(f"{path}: {name} must be a JSON {kind}, not {json.dumps(value)}")
    return data


def _system_config(args: argparse.Namespace, system: str, cre: bool, n: str) -> pipeline.SystemConfig:
    return pipeline.SystemConfig(
        system=system,
        cre=cre,
        combo=args.combo,
        n_per_article=None if n == "all" else int(n),
        slope=float(args.slope),
        max_results=args.max_results,
    )


def _load_corpus(args: argparse.Namespace) -> Corpus:
    if not args.corpus:
        raise ValueError("--corpus is required")
    corpus = ingest_corpus(args.corpus)
    for line in corpus.diagnostics:
        print(f"corpus: {line}", file=sys.stderr)
    return corpus


def _load_topics(args: argparse.Namespace) -> list[pipeline.Topic]:
    if not args.topics:
        raise ValueError("--topics is required")
    topics, diagnostics = pipeline.parse_topics(args.topics)
    for line in diagnostics:
        print(f"topics: {line}", file=sys.stderr)
    return topics


def _load_assessment_sets(args: argparse.Namespace) -> list[assess.AssessmentSet]:
    if not args.assessments:
        raise ValueError("--assessments is required")
    sets, diagnostics = assess.load_assessments(args.assessments)
    for line in diagnostics:
        print(f"assessments: {line}", file=sys.stderr)
    return sets


def cmd_run(args: argparse.Namespace) -> int:
    config = _system_config(args, args.system, args.cre, args.n)
    corpus = _load_corpus(args)
    topics = _load_topics(args)
    index = build_index(corpus)
    runs = []
    for topic in topics:
        try:
            runs.append(pipeline.execute(topic, corpus, index, config))
        except ValueError as exc:
            print(f"topic {topic.id}: skipped ({exc})", file=sys.stderr)
    out = Path(args.out or f"{config.tag}.run")
    out.parent.mkdir(parents=True, exist_ok=True)
    pipeline.write_run_file(out, runs)
    print(f"wrote {sum(len(r.entries) for r in runs)} entries for {len(runs)} topics to {out}")
    return 0


def _judge(sets: list[assess.AssessmentSet], warn: Warn) -> dict[int, Judgment | None]:
    """Each assessed topic's category and its relevant set per relevance case;
    None, with a diagnostic, for a topic with no highly relevant elements."""
    judged: dict[int, Judgment | None] = {}
    for aset in sets:
        try:
            category = assess.categorize_topic(aset)
        except ValueError as exc:
            warn(f"assessments: {exc}; excluded")
            judged[aset.topic_id] = None
            continue
        judged[aset.topic_id] = category, {case: evaluation.quantize(aset, case) for case in assess.RELEVANCE_CASES}
    return judged


def _score_runs(
    runs: list[pipeline.RunResult],
    judged: dict[int, Judgment | None],
    case: str,
    category: str,
    metric: str,
    corpus: Corpus | None,
    warn: Warn,
) -> dict[int, float]:
    """Average precision per run whose topic is judged and in ``category``;
    every other run is skipped with its reason."""
    relevant: dict[int, frozenset[tuple[str, ElementPath]]] = {}
    left_out: dict[int, str] = {}
    for run in runs:
        if run.topic_id not in judged:
            left_out[run.topic_id] = "no matching assessments"
        elif judged[run.topic_id] is None:
            left_out[run.topic_id] = "no highly relevant elements"
        else:
            topic_category, views = judged[run.topic_id]
            if category in ("all", topic_category):
                relevant[run.topic_id] = views[case]
            else:
                left_out[run.topic_id] = f"{topic_category}, not {category}"
    sizes: dict[tuple[str, ElementPath], int] | None = None
    if metric != evaluation.METRIC_STRICT:
        needed = {(e.doc, e.path) for run in runs if run.topic_id in relevant for e in run.entries}
        sizes, diagnostics = evaluation.build_size_map(corpus, needed.union(*relevant.values()))
        for line in diagnostics:
            warn(f"sizes: {line}")
    per_topic: dict[int, float] = {}
    for run in runs:
        if run.topic_id in left_out:
            warn(f"topic {run.topic_id}: {left_out[run.topic_id]}; skipped")
            continue
        entries = [(e.doc, e.path) for e in run.entries]
        try:
            if metric == evaluation.METRIC_STRICT:
                per_topic[run.topic_id] = evaluation.inex_eval_strict(entries, relevant[run.topic_id])
            else:
                mode = "s" if metric == evaluation.METRIC_NG_SIZE else "o"
                per_topic[run.topic_id] = evaluation.inex_eval_ng(entries, relevant[run.topic_id], sizes, mode)
        except ValueError as exc:
            warn(f"topic {run.topic_id}: skipped ({exc})")
    return per_topic


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_eval(args: argparse.Namespace) -> int:
    runs = pipeline.read_run_file(args.run_file)
    sets = _load_assessment_sets(args)
    case, category, metric = args.case, args.category, args.metric
    corpus = None if metric == evaluation.METRIC_STRICT else _load_corpus(args)
    warn = _warn_once()
    per_topic = _score_runs(runs, _judge(sets, warn), case, category, metric, corpus, warn)
    label = evaluation.METRIC_LABELS[metric]
    lines = [f"topic\tap\t{label}/{case}/{category}"]
    for topic_id in sorted(per_topic):
        lines.append(f"{topic_id}\t{per_topic[topic_id]:.6f}")
    if per_topic:
        lines.append(f"map\t{evaluation.mean_average_precision(per_topic):.6f}")
    else:
        print("no scoreable topics", file=sys.stderr)
    _write_lines(args.out, lines)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    topics = _load_topics(args)
    sets = _load_assessment_sets(args)
    index = build_index(corpus)

    # the grid sets the system, cre and n of every cell; the options give the rest
    cells = [(_system_config(args, pipeline.FULLTEXT, False, "all"), "-")]
    for system in (pipeline.XMLDB, pipeline.HYBRID):
        for cre in (False, True):
            for n_label in N_CHOICES:
                cells.append((_system_config(args, system, cre, n_label), n_label))

    warn = _warn_once()
    judged = _judge(sets, warn)
    lines = ["system\tn\tcase\tcategory\tmetric\ttopics\tmap"]
    label = evaluation.METRIC_LABELS[args.metric]
    for config, n_label in cells:
        runs = []
        for topic in topics:
            try:
                runs.append(pipeline.execute(topic, corpus, index, config))
            except ValueError as exc:
                warn(f"topic {topic.id}: skipped ({exc})")
        for case in assess.RELEVANCE_CASES:
            for category in CATEGORY_CHOICES:
                per_topic = _score_runs(runs, judged, case, category, args.metric, corpus, warn)
                if per_topic:
                    map_value = f"{evaluation.mean_average_precision(per_topic):.6f}"
                else:
                    map_value = "-"
                lines.append(
                    f"{config.tag}\t{n_label}\t{case}\t{category}\t{label}\t{len(per_topic)}\t{map_value}"
                )
    _write_lines(args.out, lines)
    return 0


def cmd_assess_stats(args: argparse.Namespace) -> int:
    sets = _load_assessment_sets(args)
    scoreable = [s for s in sets if assess.highly_relevant(s)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for case in assess.RELEVANCE_CASES:
        counts = assess.element_distribution(scoreable, case)
        lines = [f"tag\tcount\t{case}"]
        for tag in sorted(counts, key=lambda t: (-counts[t], t)):
            lines.append(f"{tag}\t{counts[tag]}")
        (out_dir / f"distribution_{case}.tsv").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    lines = ["topic\tarticles\tother\tcategory"]
    for aset in scoreable:
        general = assess.derive_view(aset, assess.GENERAL)
        articles = sum(1 for _, path in general if path.depth == 1)
        lines.append(
            f"{aset.topic_id}\t{articles}\t{len(general) - articles}\t{assess.categorize_topic(aset)}"
        )
    (out_dir / "categories.tsv").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    excluded = len(sets) - len(scoreable)
    if excluded:
        print(f"{excluded} topics without highly relevant elements excluded", file=sys.stderr)
    print(f"wrote assessment statistics to {out_dir}")
    return 0


def _add_corpus_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", help="directory of XML documents")


def _add_ranking_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--combo", choices=COMBO_CODES, default=_DEFAULTS.combo, metavar="{MpB..pME}",
                        help="coherent-element ranking heuristics (default: %(default)s)")
    parser.add_argument("--slope", type=float, default=_DEFAULTS.slope,
                        help="length-normalization slope (default: %(default)s)")
    parser.add_argument("--max-results", dest="max_results", type=int, default=_DEFAULTS.max_results,
                        help="global answer-list cap (default: %(default)s)")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", choices=pipeline.SYSTEMS, default=pipeline.FULLTEXT,
                        help="retrieval system (default: %(default)s)")
    parser.add_argument("--cre", action="store_true",
                        help="replace match lists with ranked coherent elements")
    parser.add_argument("--n", choices=N_CHOICES, default="all",
                        help="retrieved elements per article (default: %(default)s)")
    _add_ranking_options(parser)


def _add_eval_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--assessments", help="directory of per-topic assessment files")
    parser.add_argument("--case", choices=assess.RELEVANCE_CASES, default=assess.ORIGINAL,
                        help="relevance case (default: %(default)s)")
    parser.add_argument("--category", choices=CATEGORY_CHOICES, default="all",
                        help="topic category (default: %(default)s)")
    parser.add_argument("--metric", choices=evaluation.METRICS, default=evaluation.METRIC_STRICT,
                        help="evaluation metric (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmlir",
        description="Hybrid XML retrieval engine and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one system over a topics file")
    _add_corpus_option(p)
    p.add_argument("--topics", help="topics file")
    _add_run_options(p)
    p.add_argument("--out", help="run file to write (default: <system tag>.run)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score a run file against assessments")
    p.add_argument("run_file", help="run file to score")
    _add_corpus_option(p)
    _add_eval_options(p)
    p.add_argument("--out", help="report file (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="full system/n/case/category grid of MAP values")
    _add_corpus_option(p)
    p.add_argument("--topics", help="topics file")
    p.add_argument("--assessments", help="directory of per-topic assessment files")
    _add_ranking_options(p)
    p.add_argument("--metric", choices=evaluation.METRICS, default=evaluation.METRIC_STRICT,
                   help="evaluation metric (default: %(default)s)")
    p.add_argument("--out", help="grid file (default: stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("assess-stats", help="tag distributions and topic categories")
    p.add_argument("--assessments", help="directory of per-topic assessment files")
    p.add_argument("--out", default="assess-stats", help="output directory (default: %(default)s)")
    p.set_defaults(func=cmd_assess_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # --help and usage errors come before the config file is read
    try:
        # config values become the subcommand's defaults, so flags still win
        _subcommands(parser)[args.command].set_defaults(**_config_defaults(parser))
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
