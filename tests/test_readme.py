"""The README's ``## Library`` section names every name the package exports,
and only the named pin tests read the per-document view."""

import ast
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
