"""The package API is what the README documents: its Library snippet runs
verbatim, and every exported name resolves and is named in the README."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import wlclosure

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library") :]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})


def test_every_exported_name_resolves_and_is_documented():
    text = README.read_text(encoding="utf-8")
    for name in wlclosure.__all__:
        assert getattr(wlclosure, name) is not None
        if name != "__version__":
            assert re.search(rf"\b{name}\b", text), name


def test_every_submodule_named_in_the_readme_exists():
    """``wlclosure.<module>`` names, and the ``.<module>`` shorthand that
    follows one in a list, resolve to modules of the package."""
    text = README.read_text(encoding="utf-8")
    names = set(re.findall(r"`wlclosure\.(\w+)`", text))
    for rest in re.findall(r"`wlclosure\.\w+`((?:,\s*`\.\w+`)+)", text):
        names.update(re.findall(r"`\.(\w+)`", rest))
    assert len(names) >= 5, names
    for name in sorted(names):
        assert importlib.util.find_spec(f"wlclosure.{name}") is not None, name
