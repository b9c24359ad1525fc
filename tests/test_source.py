"""Static checks over the modules of ``src/gaindex``, read with ``ast`` alone."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gaindex"
MODULES = sorted(SRC.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code or in a quoted annotation."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def test_modules_found():
    assert {"radicals.py", "indices.py", "checks.py"} <= {p.name for p in MODULES}


def test_only_radicals_uses_the_raw_constructor():
    # radical_sum builds every value from outside radicals, so the canonical
    # form (squarefree keys, one denominator) is kept by that module alone.
    uses = []
    for path in MODULES:
        if path.name == "radicals.py":
            continue
        for node in ast.walk(parse(path)):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name == "_raw":
                uses.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert uses == []


def test_every_imported_name_is_used():
    # __init__.py imports names only to re-export them.
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        used = used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def references(tree: ast.AST) -> Counter[str]:
    """Every name read under ``tree``: as a name, an attribute or an import."""
    names: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def attribute_reads(tree: ast.AST) -> Counter[str]:
    """Every name read under ``tree`` as an attribute, as in ``x.name``."""
    return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))


def test_no_code_that_only_tests_reach():
    # Each private module-level function and each method other than a dunder
    # is referenced somewhere in src/gaindex outside its own definition;
    # code that only the tests call belongs in the tests.  A method or
    # property counts as reached only as an attribute, so that a local
    # variable of the same name is not taken for a use.
    trees = {path.name: parse(path) for path in MODULES}
    everywhere = {
        count: sum((count(tree) for tree in trees.values()), Counter())
        for count in (references, attribute_reads)
    }
    unreached = []
    for name, tree in trees.items():
        defs = [
            (d.name, d, references)
            for d in tree.body
            if isinstance(d, ast.FunctionDef) and d.name.startswith("_")
        ]
        for cls in (c for c in tree.body if isinstance(c, ast.ClassDef)):
            defs += [
                (f"{cls.name}.{d.name}", d, attribute_reads)
                for d in cls.body
                if isinstance(d, ast.FunctionDef)
                and not (d.name.startswith("__") and d.name.endswith("__"))
            ]
        for qualname, d, count in defs:
            if everywhere[count][d.name] <= count(d)[d.name]:
                unreached.append(f"{name}:{d.lineno} {qualname}")
    assert unreached == []
