"""Shared test machinery: independent oracles and random-input generators.

Everything here checks definitions directly (brute force over all elements,
exact rational arithmetic, token-id region accounting) so the oracles stay
independent of the implementation paths they verify. The one exception is
the metrics' earlier per-rank scorers, kept to pin the present ones by ==.
"""

from __future__ import annotations

import math
import random
import re
import xml.etree.ElementTree as ET
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import AbstractSet, Iterable, Sequence

from hypothesis import strategies as st

from xmlir import (
    AssessmentSet,
    Corpus,
    ElementPath,
    build_size_map,
    inex_eval_ng,
    parse_assessment_file,
)
from xmlir.evaluation import RECALL_LEVELS
from xmlir.matcher import AND, OR


def is_ancestor_of(ancestor: ElementPath, other: ElementPath) -> bool:
    """True iff ``ancestor``'s steps are a proper prefix of ``other``'s."""
    return len(ancestor.steps) < len(other.steps) and other.steps[: len(ancestor.steps)] == ancestor.steps


def corpus_from_strings(docs: dict[str, str]) -> Corpus:
    """In-memory corpus; insertion order of the dict is the ingestion order."""
    corpus = Corpus()
    for doc, text in docs.items():
        corpus.add(doc, text)
    return corpus


_TERM = re.compile(r"[0-9a-z]+")


def own_tokens(xml_text: str) -> dict[ElementPath, tuple[str, ...]]:
    """Each element's own tokens, keyed by path in document order.

    Re-derived with ElementTree alone: an element's own tokens are those of
    its text and of its children's tails, in that order.
    """
    own: dict[ElementPath, tuple[str, ...]] = {}

    def visit(elem: ET.Element, steps: tuple) -> None:
        texts = [elem.text or ""] + [child.tail or "" for child in elem]
        own[ElementPath(steps)] = tuple(t for text in texts for t in _TERM.findall(text.lower()))
        seen: dict[str, int] = {}
        for child in elem:
            seen[child.tag] = seen.get(child.tag, 0) + 1
            visit(child, steps + ((child.tag, seen[child.tag]),))

    top = ET.fromstring(xml_text)
    visit(top, ((top.tag, 1),))
    return own


def subtree_tokens(own: dict[ElementPath, tuple[str, ...]], path: ElementPath) -> list[str]:
    """The own tokens of ``path`` and of every element below it."""
    return [t for p, tokens in own.items() if p == path or is_ancestor_of(path, p) for t in tokens]


def elementtree_layout(text: str | bytes):
    """One document's paths, postings, subtree sizes, ends and parents,
    re-derived with ElementTree as document-relative node numbers: pre-order
    is ``iter()`` order, as in ``own_tokens``, and a root's parent is -1."""
    own = own_tokens(text)
    elements = list(ET.fromstring(text).iter())
    position = {id(elem): i for i, elem in enumerate(elements)}
    counts = [len(tokens) for tokens in own.values()]
    parents = [-1] * len(elements)
    for elem in elements:
        for child in elem:
            parents[position[id(child)]] = position[id(elem)]
    ends = [position[id(elem)] + len(list(elem.iter())) for elem in elements]
    sizes = [sum(counts[position[id(below)]] for below in elem.iter()) for elem in elements]
    postings: dict[str, list[int]] = {}
    for i, tokens in enumerate(own.values()):
        for term in tokens:
            postings.setdefault(term, []).append(i)
    return list(own), {term: tuple(hits) for term, hits in postings.items()}, sizes, ends, parents


def nodes_of(corpus: Corpus, number: int) -> range:
    """Document ``number``'s node numbers, in pre-order."""
    return range(corpus.starts[number], corpus.starts[number + 1])


def element_sizes(corpus: Corpus) -> dict[tuple[str, ElementPath], int]:
    """Every node's subtree size keyed by (document, path), in document and pre-order."""
    return {(doc, corpus.path(i)): corpus.sizes[i] for d, doc in enumerate(corpus.docs) for i in nodes_of(corpus, d)}


def all_paths(corpus: Corpus, number: int) -> list[ElementPath]:
    """Document ``number``'s node paths in pre-order."""
    return list(map(corpus.path, nodes_of(corpus, number)))


def indices_of(corpus: Corpus, number: int, paths) -> list[int]:
    """The ascending node numbers of document ``number``'s nodes at the given paths."""
    position = {corpus.path(i): i for i in nodes_of(corpus, number)}
    return sorted(position[path] for path in paths)


def tree_of(paths: list[ElementPath], doc: str = "d") -> Corpus:
    """A corpus of one document, an XML rendering of a ``random_tree_paths`` tree.

    Children are written in the order their paths appear, which is the
    order ``random_tree_paths`` numbered same-tag siblings in, so the parsed
    document has exactly the given paths.
    """
    children: dict[ElementPath, list[ElementPath]] = {path: [] for path in paths}
    for path in paths[1:]:
        children[ElementPath(path.steps[:-1])].append(path)

    def render(path: ElementPath) -> str:
        return f"<{path.tag}>{''.join(render(child) for child in children[path])}</{path.tag}>"

    corpus = corpus_from_strings({doc: render(paths[0])})
    assert set(all_paths(corpus, 0)) == set(paths)
    return corpus


def write_corpus(directory, docs: dict[str, str]) -> None:
    for doc, text in docs.items():
        path = directory / f"{doc}.xml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# matcher oracle


def satisfies(terms: frozenset[str], mode: str, present: set[str]) -> bool:
    """Whether a set of terms meets an element query's AND/OR predicate."""
    if mode == AND:
        return terms <= present
    return bool(terms & present)


def brute_force_matches(xml_text: str, terms: frozenset[str], mode: str) -> list[ElementPath]:
    """Most-specific satisfiers checked directly on every element."""
    own = own_tokens(xml_text)
    satisfied = {path for path in own if satisfies(terms, mode, set(subtree_tokens(own, path)))}
    return [
        path
        for path in own  # own is in document order
        if path in satisfied
        and not any(other != path and is_ancestor_of(path, other) for other in satisfied)
    ]


# ---------------------------------------------------------------------------
# xmldb oracle


def naive_collection_match(docs: dict[str, str], terms: frozenset[str], mode: str) -> list[tuple[str, ElementPath]]:
    """Full scan: every document's brute-force match paths, documents in the
    order of ``docs`` (identifier -> source text), which is ingestion order."""
    return [(doc, path) for doc, text in docs.items() for path in brute_force_matches(text, terms, mode)]


def naive_article_answers(doc: str, text: str, terms: frozenset[str], config) -> list[tuple[str, ElementPath]]:
    """One article's answers by brute force: its AND matches, then its OR
    matches not among them or, with ``config.cre``, the ``brute_force_cres``
    fixpoint of both, sorted by ``naive_cre_key``."""
    and_paths = brute_force_matches(text, terms, AND)
    paths = and_paths + [p for p in brute_force_matches(text, terms, OR) if p not in and_paths]
    if not config.cre:
        return [(doc, path) for path in paths]
    if not paths:
        return []
    cres = brute_force_cres(list(own_tokens(text)), paths)
    return [(doc, path) for path in sorted(cres, key=lambda path: naive_cre_key(doc, path, cres[path], config.combo))]


def naive_caps(pairs: list[tuple[str, ElementPath]], config) -> list[tuple[str, ElementPath]]:
    """The first ``config.n_per_article`` answers of each article, then the
    first ``config.max_results`` of those."""
    if config.n_per_article is not None:
        pairs = [
            (doc, path)
            for i, (doc, path) in enumerate(pairs)
            if sum(d == doc for d, _ in pairs[:i]) < config.n_per_article
        ]
    return pairs[: config.max_results]


def naive_xmldb(docs: dict[str, str], terms: frozenset[str], config) -> list[tuple[str, ElementPath]]:
    """The capped ``xmldb`` answer list of a topic's terms, by a full scan of
    the documents' source texts in the order of ``docs``.

    Without coherent elements: the collection's AND list, then its OR list
    minus the AND list. With them: each document's ``naive_article_answers``
    in document order. Then the per-article and global caps.
    """
    if config.cre:
        pairs = [pair for doc, text in docs.items() for pair in naive_article_answers(doc, text, terms, config)]
    else:
        and_pairs = naive_collection_match(docs, terms, AND)
        pairs = and_pairs + [p for p in naive_collection_match(docs, terms, OR) if p not in and_pairs]
    return naive_caps(pairs, config)


def naive_hybrid(
    docs: dict[str, str], ranking: list[str], terms: frozenset[str], config
) -> list[tuple[str, ElementPath]]:
    """The capped ``hybrid`` answer list: each ranked article's
    ``naive_article_answers``, articles in ``ranking`` order (the identifiers
    of the numbers ``rank_articles`` lists), then the per-article and global caps."""
    pairs = [pair for doc in ranking for pair in naive_article_answers(doc, docs[doc], terms, config)]
    return naive_caps(pairs, config)


# ---------------------------------------------------------------------------
# article-ranking oracle


def formula_score(docs: dict[str, list[str]], query: list[str], slope: float) -> dict[str, float]:
    """Pivoted log tf-idf of every document holding a query term, evaluated
    directly from each document's tokens, independent of the index."""
    n = len(docs)
    avg = sum(len(t) for t in docs.values()) / n
    out = {}
    for doc, tokens in docs.items():
        raw = 0.0
        for term in query:  # each bag occurrence contributes
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for t in docs.values() if term in t)
            raw += math.log(1 + n / df) * (1 + math.log(tf))
        if raw > 0:
            out[doc] = raw / ((1 - slope) + slope * len(tokens) / avg)
    return out


def naive_rank_articles(corpus: Corpus, query, params) -> tuple[list[int], list[float]]:
    """``rank_articles`` as a plain loop over the corpus, reading no index:
    each document's tf counted from ``corpus.postings`` and ``corpus.doc_of``,
    its length read from ``corpus.sizes`` at ``corpus.starts``, and ``1 + ln tf``
    and the mean length computed here; one accumulation per (term, document),
    then one sort on (-score, document number). The float operations are
    those of ``rank_articles``, in the same order, so its scores must equal
    these exactly."""
    weights = Counter(query)
    if not weights:
        return [], []
    n = len(corpus.docs)
    lengths = [corpus.sizes[corpus.starts[number]] for number in range(n)]
    accum: dict[int, float] = defaultdict(float)
    for term, qtf in weights.items():
        tfs = Counter(corpus.doc_of[i] for i in corpus.postings.get(term, ()))
        if not tfs:
            continue
        w_q = math.log(1.0 + n / len(tfs))
        for number in sorted(tfs):
            accum[number] += qtf * w_q * (1.0 + math.log(tfs[number]))
    slope = params.slope
    avg = sum(lengths) / n
    scored = []
    for number, raw in accum.items():
        norm = (1.0 - slope) + slope * (lengths[number] / avg)
        scored.append((number, raw / norm))
    scored.sort(key=lambda item: (-item[1], item[0]))
    del scored[params.max_results :]
    return [number for number, _ in scored], [score for _, score in scored]


# ---------------------------------------------------------------------------
# coherent-element oracle


def brute_force_cres(
    all_paths: list[ElementPath],
    matching: list[ElementPath],
) -> dict[ElementPath, int]:
    """Fixpoint of the containment definition over every tree element.

    Returns path -> count of matching elements strictly below. The singleton
    special case mirrors the contract: a one-element input is returned
    unchanged with count 1.
    """
    if len(matching) == 1:
        return {matching[0]: 1}
    matching_set = set(matching)
    items: set[ElementPath] = set(matching)
    qualified: set[ElementPath] = set()
    changed = True
    while changed:
        changed = False
        for candidate in all_paths:
            if candidate in qualified or candidate in matching_set:
                continue
            below = [item for item in items if is_ancestor_of(candidate, item)]
            children = {item.steps[candidate.depth] for item in below}
            if len(children) >= 2:
                qualified.add(candidate)
                items.add(candidate)
                changed = True
    return {
        path: sum(1 for m in matching if is_ancestor_of(path, m))
        for path in qualified
    }


def sequence(path: ElementPath) -> tuple[int, ...]:
    """The sibling-index projection of a path, compared lexicographically."""
    return tuple(index for _, index in path.steps)


def naive_cre_key(doc: str, path: ElementPath, matches: int, combo: str):
    """Reference sort key for a coherent element at ``path`` in ``doc`` with
    ``matches`` matching elements below, one comparison component per
    letter of the code."""

    def component(letter: str):
        if letter == "M":
            return -matches
        if letter == "m":
            return matches
        if letter == "P":
            return -path.depth
        return path.depth

    if combo[2] == "B":
        seq = sequence(path)
    else:
        seq = tuple(-i for i in sequence(path))
    # doc + full path make the order total: distinct sibling-index sequences
    # are not guaranteed (e.g. /article[1]/bdy[1] vs /article[1]/bm[1]).
    return (
        component(combo[0]),
        component(combo[1]),
        seq,
        doc,
        path.steps,
    )


# ---------------------------------------------------------------------------
# assessment-view oracle


def brute_force_views(relevant: set[tuple[str, ElementPath]]):
    """(general, specific) computed by scanning every pair directly."""
    general = {
        (doc, path)
        for doc, path in relevant
        if not any(d == doc and is_ancestor_of(other, path) for d, other in relevant)
    }
    specific = {
        (doc, path)
        for doc, path in relevant
        if not any(d == doc and is_ancestor_of(path, other) for d, other in relevant)
    }
    return general, specific


# ---------------------------------------------------------------------------
# metric oracles


def assessment_xml(topic_id: int, graded) -> str:
    """An assessment file's text grading each ``(doc, path, E, S)``, one ``<file>`` per pair."""
    paths = "".join(f'<file file="{doc}"><path E="{e}" S="{s}" path="{path}"/></file>' for doc, path, e, s in graded)
    return f'<assessments topic_id="{topic_id}">{paths}</assessments>'


def parse_graded(directory, topic_id: int, graded) -> AssessmentSet:
    """``parse_assessment_file`` on a file in ``directory`` grading each ``(doc, path, E, S)``."""
    target = Path(directory) / f"{topic_id}.xml"
    target.write_text(assessment_xml(topic_id, graded), encoding="utf-8")
    return parse_assessment_file(target)


def naive_strict_ap(relevance_flags: list[bool], recall_base: int) -> float:
    """Exact-rational scorer: scan the run per recall level from scratch."""
    assert recall_base > 0
    total = Fraction(0)
    for i in range(1, 101):
        level = Fraction(i, 100)
        best = Fraction(0)
        hits = 0
        for rank, flag in enumerate(relevance_flags, start=1):
            if flag:
                hits += 1
            if Fraction(hits, recall_base) >= level:
                best = max(best, Fraction(hits, rank))
        total += best
    return float(total / 100)


def ng_ap(
    corpus: Corpus,
    entries: list[tuple[str, ElementPath]],
    relevant: set[tuple[str, ElementPath]],
    overlap_mode: str,
) -> float:
    """``inex_eval_ng`` on (doc, path) pairs, each resolved to its node by
    ``build_size_map`` as ``xmlir eval`` does; an unresolved pair is None."""
    nodes, _ = build_size_map(corpus, set(entries) | set(relevant))
    return inex_eval_ng([nodes[e] for e in entries], {nodes[e] for e in relevant} - {None}, corpus, overlap_mode)


def token_regions(xml_text: str) -> dict[ElementPath, frozenset[int]]:
    """Each element's subtree as a set of concrete token identifiers."""
    ids: dict[ElementPath, range] = {}
    counter = 0
    for path, tokens in own_tokens(xml_text).items():
        ids[path] = range(counter, counter + len(tokens))
        counter += len(tokens)
    return {
        path: frozenset(i for p, own in ids.items() if p == path or is_ancestor_of(path, p) for i in own)
        for path in ids
    }


def naive_ng_ap(
    entries: list[tuple[str, ElementPath]],
    relevant: set[tuple[str, ElementPath]],
    regions: dict[str, dict[ElementPath, frozenset[int]]],
    overlap_mode: str,
) -> float:
    """Region-based size-weighted scorer using real token-id sets."""

    def region(doc: str, path: ElementPath) -> frozenset[int]:
        return regions[doc].get(path, frozenset())

    total_relevant = sum(len(region(doc, path)) for doc, path in relevant)
    assert total_relevant > 0
    covered_tokens: dict[str, set[int]] = {}
    covered = 0
    consumed = 0
    points = []
    for doc, path in entries:
        tokens = region(doc, path)
        seen = covered_tokens.setdefault(doc, set())
        fresh = tokens - seen
        credit = len(tokens) if overlap_mode == "s" else len(fresh)
        seen |= tokens
        if (doc, path) in relevant:
            covered += credit
        consumed += len(tokens)
        recall = Fraction(covered, total_relevant)
        precision = Fraction(covered, consumed) if consumed else Fraction(0)
        points.append((recall, precision))
    total = Fraction(0)
    for i in range(1, 101):
        level = Fraction(i, 100)
        best = max((p for r, p in points if r >= level), default=Fraction(0))
        total += best
    return float(total / 100)



# The scorers as they were before they took only the earning ranks: one
# (credit, size) step per rank, and ng-o covering each entry's subtree among
# the covered roots. The tests compare the scorers with these by float ==.


def _stepwise_average_precision(steps: Iterable[tuple[int, int]], total: int) -> float:
    """Mean interpolated precision over the 100 recall levels, from one
    ``(credit, size)`` pair per rank and the recall base ``total``."""
    recalls: list[float] = []
    precisions: list[float] = []
    credit = consumed = 0
    for earned, size in steps:
        credit += earned
        consumed += size
        recalls.append(credit / total)
        precisions.append(credit / consumed if consumed > 0 else 0.0)
    for i in range(len(precisions) - 2, -1, -1):  # best precision at or after each rank
        precisions[i] = max(precisions[i], precisions[i + 1])
    found = (bisect_left(recalls, level) for level in RECALL_LEVELS)
    return sum(precisions[i] for i in found if i < len(precisions)) / len(RECALL_LEVELS)


def stepwise_strict_ap(
    entries: Sequence[tuple[str, ElementPath]],
    relevant: AbstractSet[tuple[str, ElementPath]],
) -> float:
    """Average precision with exact (doc, path) matching against the relevant set.

    Raises ValueError when the recall base is empty.
    """
    if not relevant:
        raise ValueError("empty recall base")
    unseen = set(relevant)
    steps = []
    for entry in entries:
        steps.append((int(entry in unseen), 1))
        unseen.discard(entry)
    return _stepwise_average_precision(steps, len(relevant))


def _cover(roots: list[int], corpus: Corpus, node: int) -> int:
    """Cover ``node``'s subtree ``[node, ends[node])`` among the covered roots
    (ascending node numbers of disjoint subtrees) and return its part not
    covered before: subtrees are nested or disjoint, so that is its size minus
    the covered roots inside it, or zero when a covered root encloses it."""
    sizes, ends = corpus.sizes, corpus.ends
    at = bisect_right(roots, node)
    if at and ends[roots[at - 1]] > node:
        return 0
    stop = bisect_left(roots, ends[node], at)
    uncovered = sizes[node] - sum(sizes[r] for r in roots[at:stop])
    roots[at:stop] = [node]
    return uncovered


def stepwise_ng_ap(
    entries: Sequence[int | None],
    relevant: AbstractSet[int],
    corpus: Corpus,
    overlap_mode: str,
) -> float:
    """Size-weighted average precision over corpus node numbers.

    ``overlap_mode`` is ``"s"`` (full sizes) or ``"o"`` (overlap deducted
    from the relevant credit). A ``None`` entry, one that did not resolve in
    the corpus, keeps its rank with size 0.
    """
    if overlap_mode not in ("s", "o"):
        raise ValueError(f"unknown overlap mode: {overlap_mode!r}")
    sizes = corpus.sizes
    total_relevant = sum(sizes[node] for node in relevant)
    if total_relevant <= 0:
        raise ValueError("empty size-weighted recall base")
    roots: list[int] = []
    steps = []
    for node in entries:
        size = 0 if node is None else sizes[node]
        credit = size if overlap_mode == "s" or node is None else _cover(roots, corpus, node)
        steps.append((credit if node in relevant else 0, size))
    return _stepwise_average_precision(steps, total_relevant)

# ---------------------------------------------------------------------------
# random structures


TAG_POOL = ("sec", "p", "ss1", "ip1", "fig")


def random_tree_paths(rng: random.Random, max_nodes: int = 30) -> list[ElementPath]:
    """Paths of a random tree (root included), in creation order."""
    root = ElementPath((("article", 1),))
    paths = [root]
    children_of: dict[ElementPath, dict[str, int]] = {root: {}}
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(paths)
        tag = rng.choice(TAG_POOL)
        counts = children_of.setdefault(parent, {})
        counts[tag] = counts.get(tag, 0) + 1
        child = ElementPath(parent.steps + ((tag, counts[tag]),))
        paths.append(child)
        children_of[child] = {}
    return paths


def random_antichain(rng: random.Random, paths: list[ElementPath]) -> list[ElementPath]:
    """Non-empty set of pairwise incomparable paths."""
    target = rng.randint(1, 8)
    chosen: list[ElementPath] = []
    for path in rng.sample(paths, len(paths)):
        if not any(is_ancestor_of(path, c) or is_ancestor_of(c, path) or c == path for c in chosen):
            chosen.append(path)
        if len(chosen) >= target:
            break
    return chosen


def random_xml(rng: random.Random, max_children: int = 3, max_depth: int = 4) -> str:
    """Small random document over a tiny vocabulary."""
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]

    def element(tag: str, depth: int) -> str:
        text = " ".join(rng.choices(vocab, k=rng.randint(0, 3)))
        inner = text
        if depth < max_depth:
            for _ in range(rng.randint(0, max_children)):
                inner += element(rng.choice(TAG_POOL), depth + 1)
                inner += " ".join(rng.choices(vocab, k=rng.randint(0, 2)))
        return f"<{tag}>{inner}</{tag}>"

    return element("article", 0)


@st.composite
def mutated(draw, valid: bytes, separator: bytes) -> bytes:
    """A valid file after a few truncations, byte flips, swapped
    ``separator``-delimited fields, huge integers and non-UTF-8 bytes."""
    data = valid
    for kind in draw(st.lists(st.sampled_from(["cut", "flip", "swap", "huge", "bytes"]), min_size=1, max_size=4)):
        at = draw(st.integers(0, len(data)))
        if kind == "cut":
            data = data[:at]
        elif kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "swap":
            lines = data.split(b"\n")
            row = draw(st.integers(0, len(lines) - 1))
            fields = lines[row].split(separator)
            i, j = draw(st.integers(0, len(fields) - 1)), draw(st.integers(0, len(fields) - 1))
            fields[i], fields[j] = fields[j], fields[i]
            lines[row] = separator.join(fields)
            data = b"\n".join(lines)
        elif kind == "huge":
            digits = draw(st.sampled_from([b"9" * 30, b"9" * 400, b"1" * 5000, b"1e999", b"-0"]))
            data = data[:at] + digits + data[at:]
        elif kind == "bytes":
            data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r"])) + data[at:]
    return data


# ---------------------------------------------------------------------------
# synthetic experiment workspace


N_TOPICS = 10
BROAD_TOPICS = range(1, 6)  # their whole articles are assessed relevant
RELEVANT_DOCS_PER_TOPIC = 2
N_DISTRACTORS = 180


def _topic_terms(topic_id: int) -> tuple[str, str, str, str]:
    t = f"topic{topic_id:02d}"
    # the last term occurs nowhere, keeping every AND answer list empty
    return f"{t}a", f"{t}b", f"{t}c", f"{t}x"


def _relevant_doc(topic_id: int, copy: int) -> str:
    qa, qb, qc, _ = _topic_terms(topic_id)
    pad = f"r{topic_id:02d}{copy}"
    return (
        "<article><bdy>"
        f"<sec><p>{qa} {qa} {qa} notes</p><p>{qb} {qb} details</p></sec>"
        f"<sec><p>{qa} {qb} combined</p><p>{qc} {qc} outcomes</p></sec>"
        f"<sec><p>{pad} methods {pad} review {pad}</p></sec>"
        f"</bdy><bm><app><p>{qc} summary material</p></app></bm></article>"
    )


def _distractor_doc(i: int) -> str:
    qa = _topic_terms(i % N_TOPICS + 1)[0]
    qb = _topic_terms((i + 3) % N_TOPICS + 1)[1]
    pad = " ".join(f"w{i:03d}" for _ in range(3 + i % 5))
    return (
        f"<article><sec><p>{pad} {qa} {pad}</p></sec>"
        f"<sec><p>{pad} unrelated</p><p>{qb} aside</p></sec></article>"
    )


def build_synthetic_workspace(root) -> dict:
    """Corpus, topics and assessments engineered so relevant content
    concentrates in sections of the articles that rank highest.

    Distractor documents sort first in ingestion order and mention query
    terms only in passing; relevant documents sort last, carry dense term
    occurrences, and are assessed on their container elements plus two of
    their five matching paragraphs.
    """
    corpus_dir = root / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    docs = {}
    for i in range(N_DISTRACTORS):
        docs[f"d/{i:04d}"] = _distractor_doc(i)
    for topic_id in range(1, N_TOPICS + 1):
        for copy in range(RELEVANT_DOCS_PER_TOPIC):
            docs[f"r/t{topic_id:02d}-{copy}"] = _relevant_doc(topic_id, copy)
    write_corpus(corpus_dir, docs)

    topic_xml = ["<inex_topics>"]
    for topic_id in range(1, N_TOPICS + 1):
        qa, qb, qc, qx = _topic_terms(topic_id)
        topic_xml.append(
            f'<inex_topic topic_id="{topic_id}" query_type="CO">'
            f"<title>synthetic topic {topic_id}</title>"
            f"<keywords>{qa}, {qb}, {qc}, {qx}</keywords>"
            "</inex_topic>"
        )
    topic_xml.append("</inex_topics>")
    topics_file = root / "topics.xml"
    topics_file.write_text("".join(topic_xml), encoding="utf-8")

    assess_dir = root / "assessments"
    assess_dir.mkdir(parents=True, exist_ok=True)
    for topic_id in range(1, N_TOPICS + 1):
        rows = [f'<assessments topic_id="{topic_id}">']
        container_paths = ["/article[1]", "/article[1]/bdy[1]"] if topic_id in BROAD_TOPICS else []
        container_paths += ["/article[1]/bdy[1]/sec[1]", "/article[1]/bdy[1]/sec[2]"]
        hit_paths = ["/article[1]/bdy[1]/sec[1]/p[1]", "/article[1]/bdy[1]/sec[2]/p[2]"]
        for copy in range(RELEVANT_DOCS_PER_TOPIC):
            rows.append(f'<file file="r/t{topic_id:02d}-{copy}">')
            for path in container_paths + hit_paths:
                rows.append(f'<path E="3" S="3" path="{path}"/>')
            rows.append('<path E="3" S="2" path="/article[1]/bm[1]"/>')
            rows.append("</file>")
        rows.append("</assessments>")
        (assess_dir / f"{topic_id:02d}.xml").write_text("".join(rows), encoding="utf-8")

    return {
        "corpus": corpus_dir,
        "topics": topics_file,
        "assessments": assess_dir,
        "n_docs": len(docs),
    }
