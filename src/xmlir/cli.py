"""Command-line driver: execute retrieval runs, evaluate them against
assessments, and emit summary tables.

Subcommands: ``run``, ``eval``, ``report``, ``assess-stats``.
Each option is defined once, by its entry in ``_OPTIONS``, and each
subcommand names the options it takes in ``build_parser``. A JSON config
file named by the ``XMLIR_CONFIG`` environment variable may set any option
under its dest (the flag without ``--``, ``-`` written ``_``); its values
become the subcommand's defaults, so command-line values win and the
built-in defaults apply last. A config value is checked against its flag's
choices or kind, and a key that names no option is an error.
Each command prints its diagnostics to stderr through one ``_warn_once``
printer, each distinct line once; ``main``'s fatal ``error:`` line is the
only other stderr write.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from . import assessments as assess
from . import evaluation, pipeline
from .corpus import Corpus, ingest_corpus
from .cre import COMBO_CODES
from .paths import ElementPath
from .ranker import InvertedIndex, build_index

CONFIG_ENV = "XMLIR_CONFIG"

N_CHOICES = ("1", "10", "all")
CATEGORY_CHOICES = ("all", assess.BROAD, assess.NARROW)
_DEFAULTS = pipeline.SystemConfig(system=pipeline.FULLTEXT)

Warn = Callable[[str], None]
Judgment = tuple[str, dict[str, frozenset[tuple[str, ElementPath]]]]
T = TypeVar("T")


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


def _load(args: argparse.Namespace, name: str, parse: Callable[[str], tuple[T, list[str]]], warn: Warn) -> T:
    """What option ``name`` points at, parsed; its diagnostics go to ``warn`` under that name."""
    source = getattr(args, name)
    if not source:
        raise ValueError(f"--{name} is required")
    loaded, diagnostics = parse(source)
    for line in diagnostics:
        warn(f"{name}: {line}")
    return loaded


def _ingest(source: str) -> tuple[Corpus, list[str]]:
    corpus = ingest_corpus(source)
    return corpus, corpus.diagnostics


def _execute_all(
    topics: list[pipeline.Topic], corpus: Corpus, index: InvertedIndex, config: pipeline.SystemConfig, warn: Warn
) -> list[pipeline.RunResult]:
    """One run per topic; a topic the system cannot run is skipped with its reason."""
    runs = []
    for topic in topics:
        try:
            runs.append(pipeline.execute(topic, corpus, index, config))
        except ValueError as exc:
            warn(f"topic {topic.id}: skipped ({exc})")
    return runs


def cmd_run(args: argparse.Namespace) -> int:
    warn = _warn_once()
    config = _system_config(args, args.system, args.cre, args.n)
    corpus = _load(args, "corpus", _ingest, warn)
    topics = _load(args, "topics", pipeline.parse_topics, warn)
    runs = _execute_all(topics, corpus, build_index(corpus), config, warn)
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
        views = {case: evaluation.quantize(aset, case) for case in assess.RELEVANCE_CASES}
        try:
            judged[aset.topic_id] = assess.categorize_topic(views[assess.GENERAL]), views
        except ValueError as exc:
            warn(f"assessments: topic {aset.topic_id} has {exc}; excluded")
            judged[aset.topic_id] = None
    return judged


def _score_runs(
    runs: list[pipeline.RunResult] | list[pipeline.RunRecord],
    judged: dict[int, Judgment | None],
    case: str,
    category: str,
    metric: str,
    corpus: Corpus | None,
    warn: Warn,
) -> dict[int, float]:
    """Average precision per run whose topic is judged and in ``category``;
    every other run is skipped, with its reason unless ``_judge`` has named
    its topic excluded. The size-aware metrics score an executed run's nodes
    as they are and a run read from a file by the nodes its pairs resolve
    to; strict scoring compares (doc, path) pairs."""
    relevant: dict[int, frozenset[tuple[str, ElementPath]]] = {}
    left_out: dict[int, str] = {}
    for run in runs:
        if run.topic_id not in judged:
            left_out[run.topic_id] = "no matching assessments"
        elif judged[run.topic_id] is not None:
            topic_category, views = judged[run.topic_id]
            if category in ("all", topic_category):
                relevant[run.topic_id] = views[case]
            else:
                left_out[run.topic_id] = f"{topic_category}, not {category}"
    nodes: dict[tuple[str, ElementPath], int | None] = {}
    if metric != evaluation.METRIC_STRICT:
        needed = set().union(*relevant.values())
        for run in runs:
            if run.topic_id in relevant and not isinstance(run, pipeline.RunResult):
                needed.update((e.doc, e.path) for e in run.entries)
        nodes, diagnostics = evaluation.build_size_map(corpus, needed)
        for line in diagnostics:
            warn(f"sizes: {line}")
    per_topic: dict[int, float] = {}
    for run in runs:
        if run.topic_id not in relevant:
            if run.topic_id in left_out:
                warn(f"topic {run.topic_id}: {left_out[run.topic_id]}; skipped")
            continue
        try:
            if metric == evaluation.METRIC_STRICT:
                entries = [(e.doc, e.path) for e in run.entries]
                per_topic[run.topic_id] = evaluation.inex_eval_strict(entries, relevant[run.topic_id])
            else:
                mode = "s" if metric == evaluation.METRIC_NG_SIZE else "o"
                found = {nodes[pair] for pair in relevant[run.topic_id]} - {None}
                read = not isinstance(run, pipeline.RunResult)
                answers = [nodes[e.doc, e.path] for e in run.entries] if read else run.nodes
                per_topic[run.topic_id] = evaluation.inex_eval_ng(answers, found, corpus, mode)
        except ValueError as exc:
            warn(f"topic {run.topic_id}: skipped ({exc})")
    return per_topic


def _write_lines(out: str | Path | None, lines: list[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_eval(args: argparse.Namespace) -> int:
    warn = _warn_once()
    runs = pipeline.read_run_file(args.run_file)
    sets = _load(args, "assessments", assess.load_assessments, warn)
    case, category, metric = args.case, args.category, args.metric
    corpus = None if metric == evaluation.METRIC_STRICT else _load(args, "corpus", _ingest, warn)
    per_topic = _score_runs(runs, _judge(sets, warn), case, category, metric, corpus, warn)
    label = evaluation.METRIC_LABELS[metric]
    lines = [f"topic\tap\t{label}/{case}/{category}"]
    for topic_id in sorted(per_topic):
        lines.append(f"{topic_id}\t{per_topic[topic_id]:.6f}")
    if per_topic:
        lines.append(f"map\t{evaluation.mean_average_precision(per_topic):.6f}")
    else:
        warn("no scoreable topics")
    _write_lines(args.out, lines)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    warn = _warn_once()
    # the grid sets the system, cre and n of every cell; the options give the rest, checked before any input is read
    cells = [(_system_config(args, pipeline.FULLTEXT, False, "all"), "-")]
    for system in (pipeline.XMLDB, pipeline.HYBRID):
        for cre in (False, True):
            for n_label in N_CHOICES:
                cells.append((_system_config(args, system, cre, n_label), n_label))
    corpus = _load(args, "corpus", _ingest, warn)
    topics = _load(args, "topics", pipeline.parse_topics, warn)
    sets = _load(args, "assessments", assess.load_assessments, warn)
    index = build_index(corpus)

    judged = _judge(sets, warn)
    lines = ["system\tn\tcase\tcategory\tmetric\ttopics\tmap"]
    label = evaluation.METRIC_LABELS[args.metric]
    for config, n_label in cells:
        runs = _execute_all(topics, corpus, index, config, warn)
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
    warn = _warn_once()
    sets = _load(args, "assessments", assess.load_assessments, warn)
    scoreable = {topic_id: judgment for topic_id, judgment in _judge(sets, warn).items() if judgment}
    out_dir = Path(args.out)
    for case in assess.RELEVANCE_CASES:
        counts = Counter(path.tag for _, views in scoreable.values() for _, path in views[case])
        lines = [f"tag\tcount\t{case}"]
        for tag in sorted(counts, key=lambda t: (-counts[t], t)):
            lines.append(f"{tag}\t{counts[tag]}")
        _write_lines(out_dir / f"distribution_{case}.tsv", lines)
    lines = ["topic\tarticles\tother\tcategory"]
    for topic_id, (category, views) in scoreable.items():
        articles, others = assess.composition(views[assess.GENERAL])
        lines.append(f"{topic_id}\t{articles}\t{others}\t{category}")
    _write_lines(out_dir / "categories.tsv", lines)
    print(f"wrote assessment statistics to {out_dir}")
    return 0


# each option's add_argument arguments, once; a subcommand names the options it takes
_OPTIONS: dict[str, dict[str, Any]] = {
    "run_file": dict(help="run file to score"),
    "--corpus": dict(help="directory of XML documents"),
    "--topics": dict(help="topics file"),
    "--assessments": dict(help="directory of per-topic assessment files"),
    "--system": dict(choices=pipeline.SYSTEMS, default=pipeline.FULLTEXT,
                     help="retrieval system (default: %(default)s)"),
    "--cre": dict(action="store_true", help="replace match lists with ranked coherent elements"),
    "--n": dict(choices=N_CHOICES, default="all", help="retrieved elements per article (default: %(default)s)"),
    "--combo": dict(choices=COMBO_CODES, default=_DEFAULTS.combo, metavar="{MpB..pME}",
                    help="coherent-element ranking heuristics (default: %(default)s)"),
    "--slope": dict(type=float, default=_DEFAULTS.slope, help="length-normalization slope (default: %(default)s)"),
    "--max-results": dict(type=int, default=_DEFAULTS.max_results,
                          help="global answer-list cap (default: %(default)s)"),
    "--case": dict(choices=assess.RELEVANCE_CASES, default=assess.ORIGINAL,
                   help="relevance case (default: %(default)s)"),
    "--category": dict(choices=CATEGORY_CHOICES, default="all", help="topic category (default: %(default)s)"),
    "--metric": dict(choices=evaluation.METRICS, default=evaluation.METRIC_STRICT,
                     help="evaluation metric (default: %(default)s)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmlir",
        description="Hybrid XML retrieval engine and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ranking = ("--combo", "--slope", "--max-results")
    # the command functions are looked up per call, so one wrapped in place after import is the one bound
    for name, func, summary, options, out in (
        ("run", cmd_run, "execute one system over a topics file",
         ("--corpus", "--topics", "--system", "--cre", "--n", *ranking),
         dict(help="run file to write (default: <system tag>.run)")),
        ("eval", cmd_eval, "score a run file against assessments",
         ("run_file", "--corpus", "--assessments", "--case", "--category", "--metric"),
         dict(help="report file (default: stdout)")),
        ("report", cmd_report, "full system/n/case/category grid of MAP values",
         ("--corpus", "--topics", "--assessments", *ranking, "--metric"),
         dict(help="grid file (default: stdout)")),
        ("assess-stats", cmd_assess_stats, "tag distributions and topic categories",
         ("--assessments",),
         dict(default="assess-stats", help="output directory (default: %(default)s)")),
    ):
        command = sub.add_parser(name, help=summary)
        for option in options:
            command.add_argument(option, **_OPTIONS[option])
        command.add_argument("--out", **out)
        command.set_defaults(func=func)
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
