"""XML corpus ingestion: immutable, path-addressable document trees.

Document identifiers are relative file paths with the ``.xml`` suffix
stripped (``ic/1999/w4095``); ingestion order is the sorted order of those
relative paths and defines the total order used for tie-breaking everywhere
downstream.
"""

from __future__ import annotations

import functools
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .paths import ElementPath


@dataclass(frozen=True)
class TokenizerConfig:
    """Term extraction: maximal alphanumeric runs, lowercased.

    No stemming, no stopword removal; attributes and markup never
    contribute terms.
    """

    token_pattern: str = r"[0-9A-Za-z]+"
    lowercase: bool = True

    def tokenize(self, text: str) -> list[str]:
        if not text:
            return []
        if self.lowercase:
            text = text.lower()
        return _compiled(self.token_pattern).findall(text)


@functools.lru_cache(maxsize=None)
def _compiled(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern)


DEFAULT_TOKENIZER = TokenizerConfig()


@dataclass(frozen=True, eq=False)
class ElementNode:
    path: ElementPath
    tokens: tuple[str, ...]  # tokens directly inside this node
    children: tuple["ElementNode", ...]
    subtree_size: int  # token count of this node plus all descendants

    @property
    def tag(self) -> str:
        return self.path.tag

    @property
    def token_set(self) -> frozenset[str]:
        return frozenset(self.tokens)

    def walk(self) -> Iterator["ElementNode"]:
        """Pre-order (document order) traversal of this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


@dataclass(eq=False)
class DocumentTree:
    """One parsed document; nodes are addressed by their pre-order index."""

    doc: str
    nodes: tuple[ElementNode, ...]  # document (pre-order) order; nodes[0] is the root
    by_path: dict[ElementPath, ElementNode]
    # term -> pre-order indices of the nodes holding it directly, one entry per
    # token occurrence (so len() is the term's frequency in the document)
    postings: dict[str, tuple[int, ...]]
    ends: tuple[int, ...]  # ends[i]: index just past node i's subtree
    parents: tuple[int, ...]  # parents[i]: index of node i's parent, -1 for the root

    @property
    def root(self) -> ElementNode:
        return self.nodes[0]

    def node_at(self, path: ElementPath) -> ElementNode | None:
        return self.by_path.get(path)


def parse_document(text: str, doc: str, tokenizer: TokenizerConfig = DEFAULT_TOKENIZER) -> DocumentTree:
    """Parse one XML document into an immutable tree; raises ET.ParseError.

    One iterative pre-order pass numbers the nodes and collects their paths,
    tokens and postings; a reverse pass then builds the immutable nodes
    bottom-up, so nesting depth is bounded by memory, not by recursion.
    """
    top = ET.fromstring(text)
    tokenize = tokenizer.tokenize
    paths: list[ElementPath] = []
    tokens: list[tuple[str, ...]] = []
    parents: list[int] = []
    postings: dict[str, list[int]] = {}
    stack = [(top, ElementPath.root(top.tag), -1)]
    while stack:
        elem, path, parent = stack.pop()
        i = len(paths)
        own = tokenize(elem.text or "")
        if len(elem):
            seen: dict[str, int] = {}
            pending = []
            for child in elem:
                # a child's tail text sits directly inside this node
                if child.tail:
                    own.extend(tokenize(child.tail))
                n = seen[child.tag] = seen.get(child.tag, 0) + 1
                pending.append((child, path.child(child.tag, n), i))
            stack.extend(reversed(pending))
        for term in own:
            hits = postings.get(term)
            if hits is None:
                postings[term] = [i]
            else:
                hits.append(i)
        paths.append(path)
        tokens.append(tuple(own))
        parents.append(parent)

    count = len(paths)
    children: list[list[ElementNode]] = [[] for _ in range(count)]
    ends = list(range(1, count + 1))
    built: list[ElementNode | None] = [None] * count
    for i in range(count - 1, -1, -1):  # every descendant of i is built before i
        below = children[i]
        below.reverse()
        node = built[i] = ElementNode(
            path=paths[i],
            tokens=tokens[i],
            children=tuple(below),
            subtree_size=len(tokens[i]) + sum([c.subtree_size for c in below]),
        )
        parent = parents[i]
        if parent >= 0:
            if not children[parent]:  # i is the parent's last child
                ends[parent] = ends[i]
            children[parent].append(node)
    nodes = tuple(built)
    return DocumentTree(
        doc=doc,
        nodes=nodes,
        by_path={n.path: n for n in nodes},
        postings={term: tuple(hits) for term, hits in postings.items()},
        ends=tuple(ends),
        parents=tuple(parents),
    )


@dataclass(eq=False)
class Corpus:
    docs: dict[str, DocumentTree]  # insertion order == ingestion order
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER
    diagnostics: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.docs)

    @property
    def doc_ids(self) -> list[str]:
        return list(self.docs)

    def trees(self) -> Iterator[DocumentTree]:
        return iter(self.docs.values())


def ingest_corpus(
    root_directory: str | Path,
    tokenizer_config: TokenizerConfig = DEFAULT_TOKENIZER,
) -> Corpus:
    """Ingest every ``*.xml`` file under a directory.

    Malformed or unreadable files, including directories named ``*.xml``,
    are skipped with one diagnostic each; a missing corpus directory raises.
    Re-ingesting an unchanged directory yields identical document
    identifiers, order and trees.
    """
    root = Path(root_directory)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    docs: dict[str, DocumentTree] = {}
    diagnostics: list[str] = []
    files = sorted(root.rglob("*.xml"), key=lambda p: p.relative_to(root).as_posix())
    for path in files:
        rel = path.relative_to(root).as_posix()
        doc = rel[: -len(".xml")]
        try:
            text = path.read_text(encoding="utf-8")
            docs[doc] = parse_document(text, doc, tokenizer_config)
        except (OSError, ET.ParseError, UnicodeDecodeError) as exc:
            diagnostics.append(f"{rel}: skipped ({exc})")
    return Corpus(docs=docs, tokenizer=tokenizer_config, diagnostics=diagnostics)
