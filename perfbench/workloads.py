"""Seeded generators for the benchmark's three workloads.

Each generator writes, into an empty directory:

* ``corpus/``: INEX-shaped articles (``<journal>/<year>/<name>.xml``);
* ``topics.xml``: CO topics timed per system;
* ``report-topics.xml``: the topics that ``xmlir report`` scores;
* ``assessments/``: one graded assessment file per report topic.

The same seed and scale always give the same bytes. The program under test
sees only these files. Words are drawn from disjoint families (``f`` filler,
``r`` rare, ``d`` dense, ``g`` grid) so a topic's terms occur exactly where
the generator put them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

JOURNALS = ("an", "cg", "co", "cs", "dt", "ex", "ic", "it", "mi", "so", "tc", "tg", "tk", "tp")
YEARS = tuple(str(y) for y in range(1995, 2003))


def word(prefix: str, i: int) -> str:
    """A lowercase alphabetic token, unique per (prefix, i)."""
    letters = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        letters = chr(97 + r) + letters
    return prefix + letters


@dataclass
class Node:
    tag: str
    words: list[str] = field(default_factory=list)
    children: list["Node"] = field(default_factory=list)

    def add(self, tag: str, words: list[str] | None = None) -> "Node":
        child = Node(tag, list(words or ()))
        self.children.append(child)
        return child


def serialize(root: Node) -> str:
    parts: list[str] = []

    def emit(node: Node) -> None:
        parts.append(f"<{node.tag}>")
        if node.words:
            parts.append(escape(" ".join(node.words)))
        for child in node.children:
            emit(child)
        parts.append(f"</{node.tag}>")

    emit(root)
    return "".join(parts) + "\n"


def paths(root: Node) -> list[tuple[str, Node]]:
    """(path string, node) pairs in document order, ``/tag[i]`` steps."""
    out: list[tuple[str, Node]] = []

    def visit(node: Node, path: str) -> None:
        out.append((path, node))
        seen: dict[str, int] = {}
        for child in node.children:
            seen[child.tag] = seen.get(child.tag, 0) + 1
            visit(child, f"{path}/{child.tag}[{seen[child.tag]}]")

    visit(root, f"/{root.tag}[1]")
    return out


class Filler:
    """Zipf-like draws from a fixed filler vocabulary."""

    def __init__(self, rng: random.Random, size: int) -> None:
        self.rng = rng
        self.vocab = [word("f", i) for i in range(size)]
        total = 0.0
        self.cum: list[float] = []
        for rank in range(1, size + 1):
            total += 1.0 / rank
            self.cum.append(total)

    def words(self, low: int, high: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=self.rng.randint(low, high))


def small_article(filler: Filler, rng: random.Random, sections: tuple[int, int], nest: float) -> Node:
    """An INEX-shaped article: front matter, sections, bibliography.

    ``nest`` is the chance that a section holds a subsection.
    """
    art = Node("article")
    fm = art.add("fm")
    fm.add("ti", filler.words(3, 6))
    fm.add("au", filler.words(2, 3))
    bdy = art.add("bdy")
    for _ in range(rng.randint(*sections)):
        sec = bdy.add("sec")
        sec.add("st", filler.words(2, 4))
        for _ in range(rng.randint(1, 3)):
            sec.add("p", filler.words(8, 16))
        if rng.random() < nest:
            ss1 = sec.add("ss1")
            ss1.add("st", filler.words(2, 4))
            ss1.add("p", filler.words(8, 16))
    bib = art.add("bm").add("bib")
    for _ in range(rng.randint(1, 3)):
        bib.add("bb", filler.words(4, 8))
    return art


def deep_article(filler: Filler, rng: random.Random, sections: int) -> Node:
    """Sections nested three levels deep; about 12 elements per section."""
    art = Node("article")
    fm = art.add("fm")
    fm.add("ti", filler.words(3, 6))
    fm.add("au", filler.words(2, 3))
    bdy = art.add("bdy")
    for _ in range(sections):
        sec = bdy.add("sec")
        sec.add("st", filler.words(2, 4))
        sec.add("p", filler.words(4, 8))
        for _ in range(2):
            ss1 = sec.add("ss1")
            ss1.add("p", filler.words(4, 8))
            ss2 = ss1.add("ss2")
            ss2.add("p", filler.words(4, 8))
            ss2.add("p", filler.words(4, 8))
    bib = art.add("bm").add("bib")
    bib.add("bb", filler.words(4, 8))
    return art


def doc_names(rng: random.Random, count: int) -> list[str]:
    names = set()
    while len(names) < count:
        names.add(f"{rng.choice(JOURNALS)}/{rng.choice(YEARS)}/k{rng.randrange(10**5):05d}")
    return sorted(names)


def paragraphs(root: Node) -> list[Node]:
    return [node for _, node in paths(root) if node.tag == "p"]


@dataclass
class TopicSpec:
    id: int
    keywords: list[str]
    broad: bool = False


@dataclass
class Workload:
    docs: dict[str, Node]
    topics: list[TopicSpec]
    report_topics: list[TopicSpec]
    assessments: dict[int, dict[str, list[tuple[str, int, int]]]]


def _assess(
    rng: random.Random,
    docs: dict[str, Node],
    topic: TopicSpec,
    max_docs: int,
) -> dict[str, list[tuple[str, int, int]]]:
    """Graded judgments for one topic over articles holding its terms.

    Broad topics mark whole articles 3/3; narrow ones mark sections or
    paragraphs 3/3, with nested 3/3 pairs so the general and specific views
    differ. Every topic gets at least one highly relevant element.
    """
    terms = set(topic.keywords)
    holders = [d for d, root in docs.items() if any(terms & set(n.words) for _, n in paths(root))]
    rng.shuffle(holders)
    out: dict[str, list[tuple[str, int, int]]] = {}
    for doc in sorted(holders[:max_docs]):
        found = [
            p for p, n in paths(docs[doc]) if n.tag == "p" and terms & set(n.words)
        ]
        judged: list[tuple[str, int, int]] = []
        if topic.broad:
            judged.append(("/article[1]", 3, 3))
            judged += [(p, 2, 1) for p in found[:2]]
        else:
            judged.append(("/article[1]", 1, 1))
            for p in found[:3]:
                section = p.rsplit("/", 1)[0]
                if section != "/article[1]" and (section, 3, 3) not in judged:
                    judged.append((section, 3, 3))
                judged.append((p, 3, 3))
        out[doc] = judged
    return out


def sparse_or(seed: int, scale: float) -> Workload:
    """Many small articles; topics of rare terms plus one absent term."""
    rng = random.Random(f"sparse-or/{seed}")
    filler = Filler(rng, 3000)
    names = doc_names(rng, max(40, int(2000 * scale)))
    docs = {name: small_article(filler, rng, (1, 2), 0.2) for name in names}
    n_topics = max(6, int(100 * scale))
    per_topic = 3
    rare_df = (max(2, int(12 * scale)), max(3, int(24 * scale)))
    rare = [word("r", i) for i in range(n_topics * per_topic)]
    for term in rare:
        for doc in rng.sample(names, rng.randint(*rare_df)):
            rng.choice(paragraphs(docs[doc])).words.append(term)
    topics = [
        TopicSpec(
            id=100 + t,
            keywords=rare[t * per_topic:(t + 1) * per_topic] + [word("zznone", t)],
            broad=bool(t % 2),
        )
        for t in range(n_topics)
    ]
    report_topics = topics[:4]
    assessments = {t.id: _assess(rng, docs, t, 8) for t in report_topics}
    return Workload(docs, topics, report_topics, assessments)


def dense_and(seed: int, scale: float) -> Workload:
    """Few large, deep articles over a small vocabulary of co-occurring terms."""
    rng = random.Random(f"dense-and/{seed}")
    filler = Filler(rng, 400)
    names = doc_names(rng, max(12, int(200 * scale)))
    dense = [word("d", i) for i in range(10)]
    docs = {}
    for name in names:
        root = deep_article(filler, rng, sections=2)
        for para in paragraphs(root):
            para.words += rng.sample(dense, 4)
        docs[name] = root
    n_topics = max(6, int(100 * scale))
    topics = [TopicSpec(id=200 + t, keywords=rng.sample(dense, 2), broad=bool(t % 2)) for t in range(n_topics)]
    report_topics = topics[:2]
    assessments = {t.id: _assess(rng, docs, t, 8) for t in report_topics}
    return Workload(docs, topics, report_topics, assessments)


def report_grid(seed: int, scale: float) -> Workload:
    """A moderate collection with broad and narrow graded topics."""
    rng = random.Random(f"report-grid/{seed}")
    filler = Filler(rng, 1500)
    names = doc_names(rng, max(20, int(400 * scale)))
    docs = {name: small_article(filler, rng, (2, 3), 0.5) for name in names}
    grid_terms = [word("g", i) for i in range(40)]
    for term in grid_terms:
        for doc in rng.sample(names, max(3, int(60 * scale))):
            rng.choice(paragraphs(docs[doc])).words.append(term)
    n_topics = max(4, int(12 * scale))
    topics = [
        TopicSpec(id=300 + t, keywords=rng.sample(grid_terms, 2), broad=bool(t % 2))
        for t in range(n_topics)
    ]
    assessments = {t.id: _assess(rng, docs, t, 12) for t in topics}
    return Workload(docs, topics, topics, assessments)


GENERATORS = {"sparse-or": sparse_or, "dense-and": dense_and, "report-grid": report_grid}
WORKLOADS = tuple(GENERATORS)


def _topics_xml(topics: list[TopicSpec]) -> str:
    body = "".join(
        f'<inex_topic topic_id="{t.id}" query_type="CO">'
        f"<title>{escape(' '.join(t.keywords))}</title>"
        f"<keywords>{escape(', '.join(t.keywords))}</keywords></inex_topic>\n"
        for t in topics
    )
    return f"<inex_topics>\n{body}</inex_topics>\n"


def write(workload: Workload, out: Path) -> None:
    corpus = out / "corpus"
    for name, root in workload.docs.items():
        path = corpus / f"{name}.xml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(serialize(root), encoding="utf-8")
    (out / "topics.xml").write_text(_topics_xml(workload.topics), encoding="utf-8")
    (out / "report-topics.xml").write_text(_topics_xml(workload.report_topics), encoding="utf-8")
    adir = out / "assessments"
    adir.mkdir(parents=True, exist_ok=True)
    for topic_id, files in workload.assessments.items():
        body = "".join(
            f'<file file="{escape(doc)}">'
            + "".join(f'<path E="{e}" S="{s}" path="{p}"/>' for p, e, s in judged)
            + "</file>\n"
            for doc, judged in files.items()
        )
        (adir / f"topic{topic_id}.xml").write_text(
            f'<assessments topic_id="{topic_id}">\n{body}</assessments>\n', encoding="utf-8"
        )


def generate(name: str, seed: int, scale: float, out: Path) -> Workload:
    workload = GENERATORS[name](seed, scale)
    write(workload, out)
    return workload
