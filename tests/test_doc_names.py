"""Every name the docs put in backticks still exists.

DESIGN.md, README.md, ``docs/*.md`` and the verify skill name modules,
methods and files of this repository.  A rename or a deletion that
leaves such a name behind fails here, in one of three families:

* dotted names under ``repro`` (``repro.runtime.engine.StreamEngine``)
  resolve by import plus attribute lookup;
* ``Class.member`` names whose class is defined in ``repro``
  (``ShardedASketch.install_shard``) resolve on that class, its
  dataclass fields, or an attribute its source assigns to ``self``;
* repository paths (``runtime/parallel.py``, ``tests/kernels/``)
  resolve against the repository root, ``src/`` or ``src/repro/``.
  ``<id>`` templates are skipped.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
from functools import lru_cache
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
DOCS = sorted(
    [
        ROOT / "DESIGN.md",
        ROOT / "README.md",
        *(ROOT / "docs").glob("*.md"),
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ]
)

_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`\n]+)`")
_CALL = re.compile(r"\(.*\)$")
_DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
_MEMBER = re.compile(r"([A-Z]\w*)\.([A-Za-z_]\w*)")
_PATH = re.compile(r"[\w.\-/*]+/[\w.\-/*]*")
_LINE_SUFFIX = re.compile(r"(::\S*|:\d+(?:[-–]\d+)?)$")
#: Directories a path may start from: the repository's own, and the
#: ``repro`` subpackages the docs name relative to ``src/repro``.
_PATH_ROOTS = {
    "src", "tests", "benchmarks", "docs", "perfbench", "examples",
    ".github", ".claude", "repro",
    *(path.name for path in (ROOT / "src" / "repro").iterdir()
      if path.is_dir()),
}


def _spans(doc: Path) -> list[str]:
    text = _FENCE.sub("", doc.read_text())
    return [span.strip() for span in _SPAN.findall(text)]


def _names(kind: str) -> list[tuple[str, str]]:
    """``(doc, name)`` for every backticked name of one family."""
    found = []
    for doc in DOCS:
        for span in _spans(doc):
            name = _CALL.sub("", span)
            member = _MEMBER.fullmatch(name)
            if kind == "dotted" and _DOTTED.fullmatch(name):
                found.append((doc.name, name))
            elif (
                kind == "member"
                and member
                and member.group(1) in _repro_classes()
            ):
                found.append((doc.name, name))
            elif kind == "path" and _is_path(span):
                found.append((doc.name, span))
    return sorted(set(found))


def _is_path(span: str) -> bool:
    if "<" in span or "://" in span or span.startswith("/"):
        return False
    path = _LINE_SUFFIX.sub("", span)
    if not _PATH.fullmatch(path):
        return False
    first, last = path.split("/")[0], path.rstrip("/").split("/")[-1]
    return first in _PATH_ROOTS or re.search(r"\.\w+$", last) is not None


@lru_cache(maxsize=None)
def _repro_classes() -> dict[str, list[type]]:
    """Every class defined in a ``repro`` module, by bare name."""
    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and value.__module__ == info.name
            ):
                classes.setdefault(value.__name__, []).append(value)
    return classes


def _has_member(cls: type, name: str) -> bool:
    if hasattr(cls, name):
        return True
    for klass in cls.__mro__:
        if dataclasses.is_dataclass(klass) and name in {
            field.name for field in dataclasses.fields(klass)
        }:
            return True
        try:
            source = inspect.getsource(klass)
        except (OSError, TypeError):
            continue
        if re.search(rf"self\.{re.escape(name)}\b\s*(?::[^=\n]+)?=", source):
            return True
    return False


def _resolve_dotted(name: str) -> bool:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _resolve_path(span: str) -> bool:
    path = _LINE_SUFFIX.sub("", span)
    for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"):
        if any(base.glob(path)) if "*" in path else (base / path).exists():
            return True
    return False


def test_dotted_names_resolve():
    found = _names("dotted")
    assert len(found) >= 20  # an empty family would pass vacuously
    missing = [case for case in found if not _resolve_dotted(case[1])]
    assert missing == []


def test_class_members_resolve():
    found = _names("member")
    assert len(found) >= 20
    missing = []
    for doc, name in found:
        class_name, member = name.split(".")
        if not any(
            _has_member(cls, member) for cls in _repro_classes()[class_name]
        ):
            missing.append((doc, name))
    assert missing == []


def test_repo_paths_exist():
    found = _names("path")
    assert len(found) >= 40
    missing = [case for case in found if not _resolve_path(case[1])]
    assert missing == []
