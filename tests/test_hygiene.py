"""Source hygiene: the package keeps no private helper that nothing calls,
no unbounded memo, and one place per kind of random stream."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tandempoll"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree):
    """(name, node) for every private module-level function, class or
    assigned name, and every private method of a module-level class."""
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif scope is tree and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            yield from ((name, node) for name in names if _private(name))


def test_no_unused_private_helpers():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [
        (fname, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for fname, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    ]
    unused = [
        f"{fname}:{node.lineno} {name}"
        for fname, tree in trees.items()
        for name, node in _definitions(tree)
        if not any(n == name and not (f == fname and node.lineno <= line <= node.end_lineno) for f, n, line in uses)
    ]
    assert unused == [], "private names referenced nowhere in the package but their own definition"


def _memos(tree):
    """(line, name, call) for every use of ``functools.lru_cache`` or
    ``functools.cache``: call is the call that sizes it, None where the memo
    is used bare."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("lru_cache", "cache")
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in imported:
            yield node.lineno, imported[node.id], calls.get(id(node))
        elif (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield node.lineno, node.attr, calls.get(id(node))


def _literal_maxsize(call):
    """The call's ``maxsize`` if it is given as an int literal, else None."""
    given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    if given and isinstance(given[0], ast.Constant) and type(given[0].value) is int:
        return given[0].value
    return None


def test_every_memo_is_bounded():
    # an unbounded memo grows for the life of the process, and with it the
    # peak memory of a long sweep; functools.cache is lru_cache(maxsize=None)
    unbounded = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name, call in _memos(ast.parse(path.read_text()))
        if name == "cache" or call is None or _literal_maxsize(call) is None
    ]
    assert unbounded == [], "memos without an explicit, finite maxsize"


STREAM_BUILDERS = {"Generator", "PCG64", "default_rng", "SeedSequence"}


def _stream_uses(tree):
    """(enclosing function, name) for every reference to a numpy stream
    builder outside a type annotation; a reference, not only a call, so that
    an alias taken anywhere counts where it is taken."""
    annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            annotations.update(id(sub) for sub in ast.walk(ann))

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where is None else where
        name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
        if name in STREAM_BUILDERS and id(node) not in annotations:
            yield where, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return list(visit(tree, None))


def test_one_stream_builder():
    # every simulated draw comes from a replication's own stream, built in
    # _rngs, or from the call's block stream, built in _blocks; a third
    # builder would be a second stream layout to keep equal to these
    uses = _stream_uses(ast.parse((SRC / "simulator.py").read_text()))
    assert {where for where, _ in uses} == {"_rngs", "_blocks"}, uses
    assert [where for where, name in uses if name == "default_rng"] == ["_blocks"]
