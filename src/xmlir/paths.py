"""Element paths: step-addressed identifiers for nodes within one XML document.

A path is an ordered sequence of (tag, index) steps where the index is the
node's 1-based position among same-tag siblings, written as
``/article[1]/bdy[1]/sec[2]``. A namespaced tag keeps ElementTree's
``{uri}local`` form, so a step may read ``/{http://x.org/ns}article[1]``;
the URI holds no tab, CR or LF, the only control characters an XML
attribute can hold, so a path stays one field of a tab-separated line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

PathStep = tuple[str, int]

# optional {uri} (no tab or line break), local name (no whitespace), [index]
_STEP = r"/((?:\{[^}\t\r\n]*\})?[^/\[\]{}\s]+)\[([0-9]+)\]"
_STEP_RE = re.compile(_STEP)
_PATH_RE = re.compile(f"(?:{_STEP})+")


@dataclass(frozen=True, slots=True)
class ElementPath:
    steps: tuple[PathStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("element path needs at least the root step")
        for tag, index in self.steps:
            if not tag or index < 1:
                raise ValueError(f"bad path step ({tag!r}, {index!r})")

    @classmethod
    def from_string(cls, text: str) -> "ElementPath":
        """Parse the /tag[i]/tag[j] notation; raises ValueError on malformed input."""
        if _PATH_RE.fullmatch(text) is None:
            raise ValueError(f"malformed element path {text!r}")
        return cls(tuple((tag, int(index)) for tag, index in _STEP_RE.findall(text)))

    def __str__(self) -> str:
        return "".join(f"/{tag}[{index}]" for tag, index in self.steps)

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def tag(self) -> str:
        return self.steps[-1][0]
