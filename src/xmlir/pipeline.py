"""Per-topic retrieval systems composed into capped, ranked answer lists.

The five system configurations vary on two axes. The article stream is
either the fulltext ranking (pivoted-cosine score order) or, for ``xmldb``,
document order. The answer unit is the whole article, the AND-then-OR match
list, or the ranked coherent elements (``cre``):

* ``fulltext``: ranked articles, whole, with their scores;
* ``xmldb``: the corpus's AND answer list followed by the OR answers not
  already in it, each in document order, with no scores;
* ``xmldb`` + coherent elements: per article holding a match, its ranked
  coherent elements;
* ``hybrid``: per ranked article, its AND-then-OR match list;
* ``hybrid`` + coherent elements: per ranked article, its ranked coherent
  elements.

Each element system matches a topic once per mode over the whole corpus
(``collection_match``): AND intersects the terms' holder lists, which the
corpus derives once per term. ``hybrid`` groups each list by document once,
so an article's share is one dict lookup. With coherent elements, one
``identify_cres`` pass over both lists finds every article's, and one
``rank_cres`` sort on (article place, combination key, path) orders them.

Every answer list is capped globally (default 1500 entries, cutting
mid-article at the boundary) and per article when a per-article limit is
configured. A run is its capped node numbers (``RunResult.nodes``, plus the
``fulltext`` scores): its ``RunEntry`` records of rank, document, path and
score are built only when first read, as writing a run file does.

Topics arrive in the ``<inex_topic>`` XML format (title, description,
narrative and a comma-separated keywords field); only the keywords are
kept, and queries are built from them: phrases split on commas, tokenized,
and flattened into a term bag for article ranking; its distinct terms are
the AND and the OR element query.

Run files are tab-separated, one entry per line:
``topic_id  rank  doc_id  element_path  score_or_dash  system_tag``.
A file names (document, path) pairs, not nodes, so ``read_run_file``
returns ``RunRecord`` records of the entries it read.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, filterfalse, groupby, islice, repeat
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
_SCORE = re.compile(rf"-|{_DECIMAL.pattern}")  # a score field: a dash or a decimal
_RANK = re.compile(r"0*[1-9][0-9]*")  # a rank field: ASCII digits, at least 1
_LINE = "{}\t{}\t{}\t{}\t{}\t{}\n"


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


@dataclass
class RunResult:
    """One executed topic: its capped answers as corpus node numbers, in rank
    order, and for ``fulltext`` their scores."""

    topic_id: int
    system_tag: str
    corpus: Corpus = field(repr=False)
    nodes: list[int]
    scores: list[float] | None = None

    @cached_property
    def entries(self) -> tuple[RunEntry, ...]:
        """The answers as run entries, built on first read and then kept;
        ``tuple.__new__`` builds each as ``RunEntry._make`` does, without a
        Python frame."""
        corpus, nodes = self.corpus, self.nodes
        docs = map(corpus.docs.__getitem__, map(corpus.doc_of.__getitem__, nodes))
        scores = repeat(None) if self.scores is None else self.scores
        fields = zip(count(1), docs, map(corpus.path, nodes), scores)
        return tuple(map(tuple.__new__, repeat(RunEntry), fields))


class RunRecord(NamedTuple):
    """One topic's block of a run file, as ``read_run_file`` reads it."""

    topic_id: int
    system_tag: str
    entries: tuple[RunEntry, ...]


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


def _and_then_or(corpus: Corpus, terms: frozenset[str], numbers: list[int] | None) -> Iterator[Iterable[int]]:
    """Per article in ``numbers`` order (the whole corpus as one when None),
    its AND matches, then its OR matches not among them. Each list is
    grouped by document once, and all shares after the first article's AND
    share are yielded as one stream, so the caller's ``chain`` resumes this
    frame a fixed number of times per topic; the OR pass runs only when the
    caller pulls past the first article's AND matches."""
    and_matches = collection_match(corpus, terms, AND)
    if numbers is None:
        yield and_matches
        and_set = set(and_matches)
        yield filterfalse(and_set.__contains__, collection_match(corpus, terms, OR))
    elif numbers:
        doc_of = corpus.doc_of.__getitem__
        ands = {d: list(share) for d, share in groupby(and_matches, doc_of)}
        yield ands.get(numbers[0], ())
        and_set = set(and_matches)
        or_rest = filterfalse(and_set.__contains__, collection_match(corpus, terms, OR))
        ors = {d: list(share) for d, share in groupby(or_rest, doc_of)}
        shares = chain.from_iterable(zip(map(ands.get, numbers, repeat(())), map(ors.get, numbers, repeat(()))))
        yield chain.from_iterable(islice(shares, 1, None))


def _cap(corpus: Corpus, nodes: Iterable[int], config: SystemConfig) -> list[int]:
    """The nodes kept by the per-article and the global caps; a node's
    document is its ``doc_of`` entry."""
    n = config.n_per_article
    if n is not None:
        doc_of, taken = corpus.doc_of, defaultdict(count)  # document number -> answers of it seen so far
        nodes = (i for i in nodes if next(taken[doc_of[i]]) < n)
    return list(islice(nodes, config.max_results))


def execute(topic: Topic, corpus: Corpus, index: InvertedIndex | None, config: SystemConfig) -> RunResult:
    """Run one topic through the configured system.

    Each element system matches the topic once in each mode over the whole
    corpus, so ``xmldb`` reads no article-index list. ``xmldb`` walks the AND
    matches, then the OR matches not among them, in document order; its OR
    pass runs only when the capped AND answers leave room. ``hybrid`` does
    so per ranked article. With coherent elements, one pass finds them all
    and one sort orders them. The result holds the capped node numbers; no
    run entry is built here. Raises ValueError without an index or for a
    topic without keyword terms.
    """
    if index is None:
        raise ValueError(f"{config.system} runs need an index")
    bag = translate_topic(topic)
    numbers = None  # xmldb: every article, in document order
    if config.system != XMLDB:
        numbers, scores = rank_articles(index, bag, config)  # at most config.max_results articles
        if config.system == FULLTEXT:
            return RunResult(topic.id, config.tag, corpus, list(map(corpus.starts.__getitem__, numbers)), scores)
    terms = frozenset(bag)
    if config.cre:
        matching = sorted(set(collection_match(corpus, terms, AND)).union(collection_match(corpus, terms, OR)))
        nodes = rank_cres(corpus, identify_cres(corpus, matching), config.combo, numbers)
    else:
        nodes = chain.from_iterable(_and_then_or(corpus, terms, numbers))
    return RunResult(topic.id, config.tag, corpus, _cap(corpus, nodes, config))


def write_run_file(path: str | Path, runs: Iterable[RunResult | RunRecord]) -> None:
    """Write each run's entries, one line each, in run order.

    Raises ValueError, writing nothing, for a line that ``read_run_file``
    would not read back, as a tab or line break in a field makes, or that
    UTF-8 cannot encode: the first such line is named with the reason. Each
    value is checked once, not each line: a run's topic id, each distinct
    path (formatted once) and each rank and score are read as that function
    reads them, and a tab or line break in any field, a document or a tag
    included, shows as a separator too many in the whole text.
    """
    texts: dict[ElementPath, str] = {}  # each distinct path's text
    lines: list[str] = []
    readable = True
    for run in runs:
        if not run.entries:
            continue
        ranks, docs, paths, scores = zip(*run.entries)
        ranks = list(map(str, ranks))
        scores = ["-" if score is None else f"{score:.6f}" for score in scores]
        new = {element: str(element) for element in set(paths).difference(texts)}
        texts.update(new)
        topic = str(run.topic_id)
        try:
            whole_number(topic, "topic_id")
            for text in new.values():
                ElementPath.from_string(text)
        except ValueError:
            readable = False
        readable = readable and all(map(_RANK.fullmatch, ranks)) and all(map(_SCORE.fullmatch, scores))
        tag = repeat(run.system_tag)
        lines += map(_LINE.format, repeat(topic), ranks, docs, map(texts.__getitem__, paths), scores, tag)
    text = "".join(lines)
    try:
        data = text.encode("utf-8")  # before the file is opened, so a failure leaves it as it was
    except UnicodeEncodeError:
        readable = False
    if not readable or text.count("\t") != 5 * len(lines) or text.count("\n") != len(lines) or "\r" in text:
        for line in lines:
            try:
                line.encode("utf-8")  # UnicodeEncodeError is a ValueError
                _parse_run_line(line[:-1].replace("\r", "\t").replace("\n", "\t"))  # a line break splits it too
            except ValueError as exc:
                raise ValueError(f"{path}: cannot write {line[:-1]!r}: {exc}") from None
    Path(path).write_bytes(data)


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


def read_run_file(path: str | Path) -> list[RunRecord]:
    """Parse a run file back into per-topic records, preserving order.

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
    return [RunRecord(topic_id, tags[topic_id], tuple(entries.values())) for topic_id, entries in grouped.items()]
