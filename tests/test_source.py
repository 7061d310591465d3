"""Rules on the library source itself."""

import ast
import re
from pathlib import Path

import pnorbit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pnorbit"


def test_no_einsum_in_library():
    # every contraction in the library is a matrix product; einsum forms
    # live on only as oracles in the tests
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "np.einsum(" in line]
    assert hits == []


def test_no_matrix_inverse_in_library():
    # K^+ = -K on a hermitian symmetric space (K0^2 = -T0 T0^T, certified
    # once per case), and the pencil is read in the base tangent frame: no
    # inverse, pseudo-inverse, solve or SVD is formed
    call = re.compile(r"\b(inv|pinv|solve|svd)\(")
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if call.search(line)]
    assert hits == []


# each byte budget and the one module that names it
BUDGET_OWNERS = {"stack_chunk": "poisson.py", "_budget_points": "poisson.py",
                 "_flow_directions": "poisson.py",
                 "_FLOW_CHUNK_BYTES": "poisson.py",
                 "SAMPLE_CHUNK_BYTES": "hermsym.py"}


def test_byte_budgets_stay_in_their_modules():
    # how many points go into one call is decided where the arrays it
    # bounds are formed: the bracket layer sizes its own stacks and the
    # sampler its own draws, and every other module passes whole stacks
    name = re.compile(r"\b(" + "|".join(BUDGET_OWNERS) + r")\b")
    hits = [f"{path.name}:{n} {hit}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            for hit in name.findall(line) if BUDGET_OWNERS[hit] != path.name]
    assert hits == []


def test_only_hermsym_imports_ctypes():
    # the sampler writes numpy's C philox_state through ctypes; that
    # dependence on numpy's struct layout stays in one module
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if (path.name != "hermsym.py"
                    and any(n.partition(".")[0] == "ctypes" for n in names)):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def _definitions(tree):
    """(name, first line, last line) of every top-level function or class
    and every non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every ast.Name, ast.Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _library_trees():
    """{path: ast} of src/ (but its __init__.py), demos/ and perfbench/."""
    return {path: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))
            + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py"))
            if path.name != "__init__.py" or path.parent != SRC}


def test_every_library_name_has_a_library_caller():
    # library code that only the tests use belongs in tests/helpers.py.  A
    # definition counts as used when its name appears in src/ outside its
    # own def and __init__.py, in demos/ or in perfbench/.  This is a guard
    # on names, not a call graph: a name that is reused for something else
    # elsewhere hides an orphan.
    trees = _library_trees()
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    orphans = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, first, last in _definitions(tree):
            if not any(ref == name and (other != path or not first <= line <= last)
                       for other, found in refs.items() for ref, line in found):
                orphans.append(f"{path.name}:{first} {name}")
    assert orphans == []


def _attribute_loads(node, cls=None):
    """(owner, attribute) of every attribute load under node: the owner is
    the enclosing class's name for a load of self.<attribute>, and None
    for a load on any other expression."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
            yield (cls if on_self else None), child.attr
        yield from _attribute_loads(
            child, child.name if isinstance(child, ast.ClassDef) else cls)


def test_every_library_field_is_read_in_the_library():
    # a class field that only the tests read is state kept for them: they
    # derive it themselves instead (tests/helpers.py).  An annotated field
    # of a src/ class counts as read when its name is loaded as an
    # attribute somewhere in src/, demos/ or perfbench/.  A load of
    # self.<field> counts only for its own class, so a field is not kept
    # alive by another class's field of the same name; any other load
    # counts for every class, so beyond self this is still a guard on names
    trees = _library_trees()
    read = {load for tree in trees.values() for load in _attribute_loads(tree)}
    unread = [f"{path.name}:{item.lineno} {cls.name}.{item.target.id}"
              for path, tree in trees.items() if path.parent == SRC
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for item in cls.body
              if isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)
              and (None, item.target.id) not in read
              and (cls.name, item.target.id) not in read]
    assert unread == []


def test_all_lists_exactly_the_package_imports():
    # pnorbit.__all__ is the names src/pnorbit/__init__.py imports, each
    # resolving on the package: a name folded away cannot linger as an
    # export, and an import cannot go unexported
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(pnorbit.__all__) == sorted(imported)
    assert [name for name in pnorbit.__all__ if not hasattr(pnorbit, name)] == []
