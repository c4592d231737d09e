"""The README's ``## Library`` section names every name the package exports,
its ``corpus.X`` and ``index.X`` name only members a built one has, only the
named pin tests read the per-document view, and only ``corpus.py`` reads how
a path is stored."""

import ast
import dataclasses
import re
import types
from pathlib import Path

import xmlir

README = Path(__file__).resolve().parents[1] / "README.md"

# The only tests that read what is kept for ``perfbench`` alone: the per-document
# view (``Corpus.tree``/``trees()``, ``DocumentTree``, ``Node``) and ``match_elements``.
VIEW_PINS = {
    ("test_corpus.py", "test_node_record_holds_only_path_and_size"),
    ("test_postings.py", "test_collection_match_equals_brute_force_per_document"),
}
VIEW = {"match_elements", "DocumentTree", "Node"}


def test_library_section_names_every_export():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", library))))
    exports = {
        name for name, value in vars(xmlir).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert "execute" in exports
    assert sorted(exports - named) == []


def test_readme_names_only_members_a_built_index_has():
    """Every ``corpus.X`` and ``index.X`` the README names in code is an
    attribute of a built ``Corpus`` or ``InvertedIndex``, so a deleted member
    cannot stay documented."""
    corpus = xmlir.Corpus()
    corpus.add("d", "<article><p>alpha</p></article>")
    built = {"corpus": corpus, "index": xmlir.build_index(corpus)}
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)  # fenced blocks apart
    spans = re.findall(r"`([^`]+)`", prose)
    named = {pair for span in spans for pair in re.findall(r"(?<![\w.])(corpus|index)\.(\w+)", span)}
    assert {owner for owner, _ in named} == set(built)
    assert sorted(f"{owner}.{name}" for owner, name in named if not hasattr(built[owner], name)) == []


def test_only_the_pin_tests_read_the_per_document_view():
    readers = set()
    for source in Path(__file__).parent.glob("*.py"):
        for top in ast.parse(source.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Name) and node.id in VIEW
                    or isinstance(node, ast.Attribute) and node.attr in VIEW | {"tree", "trees"}
                    or isinstance(node, ast.alias) and node.name in VIEW
                ):
                    readers.add((source.name, getattr(top, "name", "<module>")))
    assert readers == VIEW_PINS


def test_only_corpus_reads_the_path_table():
    """A node's path is read through ``Corpus.path``: no module of the package
    but ``corpus.py`` reads the path table's private members, and none reads a
    per-node ``paths`` column."""
    private = {f.name for f in dataclasses.fields(xmlir.Corpus) if f.name.startswith("_")}
    assert private
    readers = set()
    for source in Path(xmlir.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                node.attr == "paths" or node.attr in private and source.name != "corpus.py"
            ):
                readers.add((source.name, node.attr))
    assert readers == set()
