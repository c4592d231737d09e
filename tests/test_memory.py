"""Memory guard: what an ingested corpus and its index keep alive.

The retained bytes of ``ingest_corpus`` + ``build_index`` are measured with
tracemalloc and divided by the corpus's token occurrences. The corpus is a
few hundred generated articles over a vocabulary wide enough that most
(document, term) pairs occur once, as in a real collection.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from xmlir import build_index, ingest_corpus

import support

# Retained bytes per token occurrence on this corpus (CPython 3.11): 179.2
# with per-document postings dicts, node records and (document id, tf)
# tuples; 62.4 with corpus-wide columns and shared (document number, tf)
# pairs. The ceiling lies halfway between.
CEILING = 120.8


def _article(rng: random.Random) -> str:
    def words(k: int) -> str:
        return " ".join(f"w{rng.randrange(40) if rng.random() < 0.3 else rng.randrange(3000)}" for _ in range(k))

    sections = []
    for _ in range(rng.randint(1, 4)):
        paragraphs = "".join(f"<p>{words(rng.randint(3, 25))}</p>" for _ in range(rng.randint(1, 4)))
        sections.append(f"<sec><st>{words(3)}</st>{paragraphs}</sec>")
    return f"<article><fm><atl>{words(6)}</atl></fm><bdy>{''.join(sections)}</bdy></article>"


def test_retained_bytes_per_token_occurrence(tmp_path):
    rng = random.Random(11)
    support.write_corpus(tmp_path, {f"a/{i:04d}": _article(rng) for i in range(300)})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corpus = ingest_corpus(tmp_path)
        index = build_index(corpus)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tokens = sum(corpus.sizes[root] for root in corpus.starts[:-1])
    assert len(corpus) == 300 and len(index.doc_lengths) == 300 and tokens > 10_000
    assert retained / tokens < CEILING, f"{retained / tokens:.1f} bytes per token occurrence"
