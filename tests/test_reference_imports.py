"""The reference implementations stay out of the production import graph.

:mod:`repro.reference` holds the from-scratch oracles the equivalence tests
and bench baselines compare the production paths against.  If a production
module imported it, a reference path could quietly become reachable at
runtime again — so no module under ``src/repro`` other than
``repro/reference.py`` itself may import it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = "repro.reference"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(path: Path) -> set[str]:
    """Every module an import statement in ``path`` can bind, absolute."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    imported: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join([*anchor, base] if base else anchor)
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    return imported


def _imports_reference(path: Path) -> bool:
    return any(
        name == REFERENCE or name.startswith(REFERENCE + ".")
        for name in _imported_modules(path)
    )


def test_only_reference_module_imports_reference():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != SRC / "repro" / "reference.py" and _imports_reference(path)
    ]
    assert offenders == []


def test_detector_sees_every_import_form(tmp_path, monkeypatch):
    """The scan must catch absolute, from-package and relative imports."""
    package = tmp_path / "repro" / "market"
    package.mkdir(parents=True)
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path)
    forms = {
        "absolute.py": "import repro.reference\n",
        "from_module.py": "from repro.reference import full_bls\n",
        "from_package.py": "from repro import reference\n",
        "relative.py": "from .. import reference\n",
        "relative_module.py": "from ..reference import ReferenceHost\n",
    }
    for name, source in forms.items():
        (package / name).write_text(source)
        assert _imports_reference(package / name), name
    (package / "clean.py").write_text("from repro.market import online\n")
    assert not _imports_reference(package / "clean.py")
