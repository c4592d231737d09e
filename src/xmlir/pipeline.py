"""Per-topic retrieval systems composed into capped, ranked answer lists.

The five system configurations vary on two axes. The article stream is
either the fulltext ranking (pivoted-cosine score order) or, for ``xmldb``,
ingestion order, which is document order. The answer unit is the whole article, the AND-then-OR
match list, or the ranked coherent elements (``cre``):

* ``fulltext``: ranked articles, whole, with their scores;
* ``xmldb``: the corpus's AND answer list followed by the OR answers not
  already in it, each in document order, with no scores;
* ``xmldb`` + coherent elements: per term-holding article, its ranked
  coherent elements;
* ``hybrid``: per ranked article, its AND-then-OR match list;
* ``hybrid`` + coherent elements: per ranked article, its ranked coherent
  elements.

Each element system matches a topic once over the whole corpus in each mode
(``collection_match``); an article's matches are its share of those lists,
found by ``bisect`` on its node range.

Every answer list is capped globally (default 1500 entries, cutting
mid-article at the boundary) and per article when a per-article limit is
configured.

Topics arrive in the ``<inex_topic>`` XML format (title, description,
narrative and a comma-separated keywords field); only the keywords are
kept, and queries are built from them: phrases split on commas, tokenized,
and flattened into a term bag for article ranking; its distinct terms are
the AND and the OR element query.

Run files are tab-separated, one entry per line:
``topic_id  rank  doc_id  element_path  score_or_dash  system_tag``.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .corpus import Corpus, read_xml, tokenize, whole_number
from .cre import COMBO_CODES, DEFAULT_COMBO, identify_cres, rank_cres
from .matcher import AND, OR, collection_match
from .paths import ElementPath
from .ranker import InvertedIndex, RankParams, rank_articles

FULLTEXT = "fulltext"
XMLDB = "xmldb"
HYBRID = "hybrid"
SYSTEMS = (FULLTEXT, XMLDB, HYBRID)
# a run file's score: ASCII digits with an optional sign, fraction and exponent
# (``float`` alone would also read ``1_0``, `` 7`` and Arabic-Indic digits)
_DECIMAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class Topic:
    id: int
    keywords: tuple[str, ...] = ()


@dataclass(frozen=True, kw_only=True)
class SystemConfig(RankParams):
    """One system's settings; ``slope`` and ``max_results`` come from ``RankParams``."""

    system: str
    cre: bool = False
    combo: str = DEFAULT_COMBO  # one of COMBO_CODES
    n_per_article: int | None = None  # None means all

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system: {self.system!r}")
        if self.combo not in COMBO_CODES:
            raise ValueError(f"invalid heuristic combination {self.combo!r}")
        if self.n_per_article is not None and self.n_per_article < 1:
            raise ValueError("n_per_article must be positive")

    @property
    def tag(self) -> str:
        if self.system != FULLTEXT and self.cre:
            return f"{self.system}-cre"
        return self.system


class RunEntry(NamedTuple):  # a tuple: a capped list makes up to 1500 of them per topic
    rank: int
    doc: str
    path: ElementPath
    score: float | None


# one answer before capping: document, element path, and score (None for elements)
Answer = tuple[str, ElementPath, float | None]


@dataclass
class RunResult:
    topic_id: int
    system_tag: str
    entries: tuple[RunEntry, ...] = ()


def parse_topics(path: str | Path) -> tuple[list[Topic], list[str]]:
    """Parse a topics file holding one ``<inex_topic>`` or a container of them.

    Structural (non-CO) topics are ignored; a malformed topic element, or a
    later one repeating an earlier ``topic_id``, is skipped with a
    diagnostic rather than failing the whole file. A file that is not
    well-formed XML in its declared encoding (UTF-8 by default) raises
    ValueError.
    """
    try:
        root = read_xml(Path(path).read_bytes())
    except (ET.ParseError, LookupError, ValueError) as exc:  # LookupError: unknown declared encoding
        raise ValueError(f"malformed topics file {path}: {exc}") from exc
    if root.tag == "inex_topic":
        elements = [root]
    else:
        elements = root.findall("inex_topic")
    topics = []
    diagnostics = []
    seen: set[int] = set()
    for position, el in enumerate(elements, start=1):
        query_type = el.get("query_type")
        if query_type is not None and query_type != "CO":
            continue  # structural topics are out of scope
        raw_id = el.get("topic_id")
        try:
            topic_id = whole_number(raw_id, "topic_id")
        except ValueError:
            diagnostics.append(f"topic #{position}: bad or missing topic_id {raw_id!r}; skipped")
            continue
        if topic_id in seen:
            diagnostics.append(f"topic #{position}: duplicate topic_id {topic_id}; skipped")
            continue
        seen.add(topic_id)
        keywords = (p.strip() for p in (el.findtext("keywords") or "").split(","))
        topics.append(Topic(topic_id, tuple(p for p in keywords if p)))
    return topics, diagnostics


def translate_topic(topic: Topic) -> tuple[str, ...]:
    """The article-ranking bag, one occurrence per keyword token; its distinct
    terms are the element query. Raises ValueError for a topic without terms."""
    bag: list[str] = []
    for phrase in topic.keywords:
        bag.extend(tokenize(phrase))
    if not bag:
        raise ValueError("no keyword terms to query with")
    return tuple(bag)


def _and_then_or(corpus: Corpus, terms: frozenset[str]) -> Iterator[int]:
    """The corpus's AND matches, then its OR matches not among them; the OR
    pass runs only when the caller pulls past the AND matches."""
    and_matches = collection_match(corpus, terms, AND)
    yield from and_matches
    and_set = set(and_matches)
    yield from (i for i in collection_match(corpus, terms, OR) if i not in and_set)


def _article_answers(
    corpus: Corpus, numbers: Iterable[int], terms: frozenset[str], config: SystemConfig
) -> Iterator[Answer]:
    """Per article in the order given, its AND matches followed by its OR
    matches not among them or, with ``config.cre``, its ranked coherent
    elements. An article's matches are its share of the corpus-wide lists,
    cut by ``bisect`` on its node range."""
    and_matches = collection_match(corpus, terms, AND)
    or_matches = collection_match(corpus, terms, OR)
    and_set = set(and_matches)
    starts, paths = corpus.starts, corpus.paths
    for number in numbers:
        start, end = starts[number], starts[number + 1]
        matching = and_matches[bisect_left(and_matches, start) : bisect_left(and_matches, end)]
        or_share = or_matches[bisect_left(or_matches, start) : bisect_left(or_matches, end)]
        matching += [i for i in or_share if i not in and_set]
        if not config.cre:
            yield from ((corpus.docs[number], paths[i], None) for i in matching)
        elif matching:
            tree = corpus.tree(number)
            for record in rank_cres(identify_cres(tree, sorted(matching)), config.combo):
                yield tree.doc, record.path, None


def _capped_entries(answers: Iterable[Answer], config: SystemConfig) -> tuple[RunEntry, ...]:
    """Apply the per-article and global caps, numbering the entries kept."""
    n = config.n_per_article
    per_doc: dict[str, int] = {}
    entries: list[RunEntry] = []
    for doc, path, score in answers:
        if n is not None:
            taken = per_doc.get(doc, 0)
            if taken >= n:
                continue
            per_doc[doc] = taken + 1
        entries.append(RunEntry(rank=len(entries) + 1, doc=doc, path=path, score=score))
        if len(entries) >= config.max_results:
            break
    return tuple(entries)


def execute(topic: Topic, corpus: Corpus, index: InvertedIndex | None, config: SystemConfig) -> RunResult:
    """Run one topic through the configured system.

    Each element system matches the topic once over the whole corpus, AND
    and OR. ``xmldb`` walks the AND matches, then the OR matches not among
    them, in document order; its OR pass runs only when the capped AND
    answers leave room. The other systems take each article's share of both
    lists. Raises ValueError without an index or for a topic without
    keyword terms.
    """
    if index is None:
        raise ValueError(f"{config.system} runs need an index")
    bag = translate_topic(topic)
    terms = frozenset(bag)
    docs, starts, paths = corpus.docs, corpus.starts, corpus.paths
    if config.system == XMLDB and not config.cre:
        answers = ((docs[bisect_right(starts, i) - 1], paths[i], None) for i in _and_then_or(corpus, terms))
    elif config.system == XMLDB:
        holders = sorted({number for term in terms for number, _ in index.postings.get(term, ())})
        answers = _article_answers(corpus, holders, terms, config)
    else:
        ranked = rank_articles(index, bag, config)
        if config.system == FULLTEXT:
            answers = ((a.doc, paths[starts[a.number]], a.score) for a in ranked)
        else:
            answers = _article_answers(corpus, (a.number for a in ranked), terms, config)
    return RunResult(topic_id=topic.id, system_tag=config.tag, entries=_capped_entries(answers, config))


def write_run_file(path: str | Path, runs: Iterable[RunResult]) -> None:
    """Raises ValueError, writing nothing, for a line that ``read_run_file``
    would not read back, as a tab or line break in a field makes."""
    lines = []
    for run in runs:
        for entry in run.entries:
            score = "-" if entry.score is None else f"{entry.score:.6f}"
            line = f"{run.topic_id}\t{entry.rank}\t{entry.doc}\t{entry.path}\t{score}\t{run.system_tag}"
            try:
                _parse_run_line(line.replace("\r", "\t").replace("\n", "\t"))  # a line break splits it too
            except ValueError as exc:
                raise ValueError(f"{path}: cannot write {line!r}: {exc}") from None
            lines.append(line)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _parse_run_line(line: str) -> tuple[int, RunEntry, str]:
    parts = line.split("\t")
    if len(parts) != 6:
        raise ValueError("expected 6 tab-separated fields")
    topic_id, rank, doc, raw_path, raw_score, tag = parts
    score = None
    if raw_score != "-":
        score = float(raw_score) if _DECIMAL.fullmatch(raw_score) else math.nan
        if not math.isfinite(score):
            raise ValueError(f"score must be finite and written as an ASCII decimal, not {raw_score!r}")
    entry = RunEntry(rank=whole_number(rank, "rank"), doc=doc, path=ElementPath.from_string(raw_path), score=score)
    if entry.rank < 1:
        raise ValueError(f"rank must be at least 1, not {entry.rank}")
    return whole_number(topic_id, "topic_id"), entry, tag


def read_run_file(path: str | Path) -> list[RunResult]:
    """Parse a run file back into per-topic results, preserving order.

    Lines end at LF, CR or CR LF. Each topic's lines must form one
    contiguous block under one system tag that lists each element once, in
    increasing rank from 1 up; topic ids and ranks are ASCII digits. A
    malformed line (a non-finite score, a rank below 1 or bytes that are not
    UTF-8 included), a topic whose block starts again after another topic's
    or changes its tag, an element listed twice in one topic, or a rank not
    above the one before it raises ValueError naming the file and the line
    number.
    """
    grouped: dict[int, dict[tuple[str, ElementPath], RunEntry]] = {}
    tags: dict[int, str] = {}
    current = previous = None
    for number, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            topic_id, entry, tag = _parse_run_line(line)
            if topic_id != current and topic_id in grouped:
                raise ValueError(f"topic {topic_id} starts a second block")
            if (entry.doc, entry.path) in grouped.get(topic_id, ()):
                raise ValueError(f"topic {topic_id} lists {entry.doc} {entry.path} twice")
            if topic_id == current and entry.rank <= previous:
                raise ValueError(f"topic {topic_id} ranks {entry.rank} after {previous}")
            if topic_id == current and tag != tags[topic_id]:
                raise ValueError(f"topic {topic_id} is tagged {tags[topic_id]}, then {tag}")
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}: line {number}: {exc}") from None
        current, previous = topic_id, entry.rank
        grouped.setdefault(topic_id, {})[entry.doc, entry.path] = entry
        tags[topic_id] = tag
    return [
        RunResult(topic_id=topic_id, system_tag=tags[topic_id], entries=tuple(entries.values()))
        for topic_id, entries in grouped.items()
    ]
