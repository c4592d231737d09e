"""The README's ``## Library`` section names every name the package exports."""

import re
import types
from pathlib import Path

import xmlir

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_section_names_every_export():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", library))))
    exports = {
        name for name, value in vars(xmlir).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert "execute" in exports
    assert sorted(exports - named) == []
