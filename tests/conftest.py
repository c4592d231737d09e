"""Shared fixtures: a worked article whose term matches and coherent-element
ranking are known in full, plus a matching assessment extract and topic."""

from __future__ import annotations

import pytest

from xmlir import Corpus, ElementPath

import support

# A document in which the term "patricia" occurs in exactly twelve leaf
# elements, chosen so the coherent-element analysis has a fully known answer.
SAMPLE_ARTICLE_XML = """\
<article>
  <fm><tig>compact storage of text indexes</tig></fm>
  <bdy>
    <sec><p>introduction to search structures</p></sec>
    <sec>
      <ip1>patricia overview of the structure</ip1>
      <ss1><ip1>patricia node layout</ip1><p>patricia insertion steps</p></ss1>
      <ss1><ip1>asymptotic growth notes</ip1><p>patricia deletion steps</p></ss1>
      <ss1><ip1>patricia lookup walkthrough</ip1></ss1>
    </sec>
    <sec><p>benchmark methodology</p></sec>
    <sec>
      <ip1>patricia compression results</ip1>
      <p>patricia memory usage</p>
      <p>patricia cache behaviour</p>
      <p>patricia disk layout</p>
    </sec>
  </bdy>
  <bm>
    <app>
      <sec><ip1>patricia pseudo code listing</ip1></sec>
      <sec><p>patricia appendix proofs</p><p>patricia complexity table</p></sec>
    </app>
  </bm>
</article>
"""

SAMPLE_DOC_ID = "ic/1999/w4095"

SAMPLE_OR_PATHS = [
    "/article[1]/bdy[1]/sec[2]/ip1[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[1]/ip1[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[1]/p[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[2]/p[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[3]/ip1[1]",
    "/article[1]/bdy[1]/sec[4]/ip1[1]",
    "/article[1]/bdy[1]/sec[4]/p[1]",
    "/article[1]/bdy[1]/sec[4]/p[2]",
    "/article[1]/bdy[1]/sec[4]/p[3]",
    "/article[1]/bm[1]/app[1]/sec[1]/ip1[1]",
    "/article[1]/bm[1]/app[1]/sec[2]/p[1]",
    "/article[1]/bm[1]/app[1]/sec[2]/p[2]",
]

# Expected coherent elements under MpE: (path, matches, length, sequence).
EXPECTED_CRES_MPE = [
    ("/article[1]", 12, 1, (1,)),
    ("/article[1]/bdy[1]", 9, 2, (1, 1)),
    ("/article[1]/bdy[1]/sec[2]", 5, 3, (1, 1, 2)),
    ("/article[1]/bdy[1]/sec[4]", 4, 3, (1, 1, 4)),
    ("/article[1]/bm[1]/app[1]", 3, 3, (1, 1, 1)),
    ("/article[1]/bdy[1]/sec[2]/ss1[1]", 2, 4, (1, 1, 2, 1)),
    ("/article[1]/bm[1]/app[1]/sec[2]", 2, 4, (1, 1, 1, 2)),
]

# Assessment extract for the same article: fifteen elements graded 3/3,
# a heading graded 0/0, and back-matter elements graded 3/2.
SAMPLE_ASSESSMENT_XML = """\
<assessments topic_id="117">
  <file file="ic/1999/w4095">
    <path E="3" S="3" path="/article[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]/ip1[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]/ss1[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]/ss1[1]/ip1[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]/ss1[1]/p[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]/ss1[2]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]/ss1[2]/ip1[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[2]/ss1[2]/p[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[4]"/>
    <path E="0" S="0" path="/article[1]/bdy[1]/sec[4]/st[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[4]/ip1[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[4]/p[1]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[4]/p[2]"/>
    <path E="3" S="3" path="/article[1]/bdy[1]/sec[4]/p[3]"/>
    <path E="3" S="2" path="/article[1]/bm[1]"/>
    <path E="3" S="2" path="/article[1]/bm[1]/app[1]"/>
    <path E="3" S="2" path="/article[1]/bm[1]/app[1]/sec[1]"/>
    <path E="3" S="2" path="/article[1]/bm[1]/app[1]/sec[1]/ip1[1]"/>
  </file>
</assessments>
"""

EXPECTED_SPECIFIC = [
    "/article[1]/bdy[1]/sec[2]/ip1[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[1]/ip1[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[1]/p[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[2]/ip1[1]",
    "/article[1]/bdy[1]/sec[2]/ss1[2]/p[1]",
    "/article[1]/bdy[1]/sec[4]/ip1[1]",
    "/article[1]/bdy[1]/sec[4]/p[1]",
    "/article[1]/bdy[1]/sec[4]/p[2]",
    "/article[1]/bdy[1]/sec[4]/p[3]",
]

SAMPLE_TOPIC_XML = """\
<inex_topic topic_id="117" query_type="CO" ct_no="98">
  <title>Patricia Tries</title>
  <description>Find documents/elements that describe Patricia tries and their use.</description>
  <narrative>Relevant material covers the standard algorithm, optimised
  implementations, and retrieval applications.</narrative>
  <keywords>Patricia tries, tries, text search, string search algorithm,
  string pattern matching</keywords>
</inex_topic>
"""


@pytest.fixture
def sample_or_paths() -> list[ElementPath]:
    return [ElementPath.from_string(p) for p in SAMPLE_OR_PATHS]


@pytest.fixture
def sample_corpus() -> Corpus:
    """The sample article as a corpus of its own."""
    return support.corpus_from_strings({SAMPLE_DOC_ID: SAMPLE_ARTICLE_XML})


@pytest.fixture
def sample_or_matches(sample_corpus, sample_or_paths) -> list[int]:
    """Node numbers of ``SAMPLE_OR_PATHS`` in the sample corpus, ascending."""
    return support.indices_of(sample_corpus, 0, sample_or_paths)
