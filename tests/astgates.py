"""One parse of each project source for the ``ast`` gates, and the one rule
for their allow-lists.

Each ``.py`` file under ``src/``, ``tests/``, ``demos/`` and ``bench/`` is
parsed at most once per session.  A node's qualified name is that of the
innermost function or method around it, the ``def`` itself included: the
names of its classes and enclosing functions joined by dots, as in
``TestDeposit.test_rejected`` or ``WrapperLedger._went_back``, or ``None``
outside every function.  Decorators run in the scope around a definition,
so they carry that scope's name."""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def files(*folders: str) -> list[str]:
    """The ``.py`` files under each folder, as posix paths from the root."""
    return [
        path.relative_to(ROOT).as_posix()
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]


@functools.cache
def nodes(file: str) -> tuple[tuple[str | None, ast.AST], ...]:
    """(qualified name, node) for every node of ``file``, parsed once."""
    found = []
    stack = [(ast.parse((ROOT / file).read_text(), filename=file), "", None)]
    while stack:
        node, prefix, where = stack.pop()
        children = ast.iter_child_nodes(node)
        if isinstance(node, _SCOPES):
            decorators = node.decorator_list
            stack.extend((decorator, prefix, where) for decorator in decorators)
            children = [child for child in children if child not in decorators]
            prefix = f"{prefix}{node.name}."
            if not isinstance(node, ast.ClassDef):
                where = prefix[:-1]
        found.append((where, node))
        stack.extend((child, prefix, where) for child in children)
    return tuple(found)


def walk(*folders: str):
    """(file, qualified name, node) for every node under the folders."""
    for file in files(*folders):
        for where, node in nodes(file):
            yield file, where, node


def raises(*folders: str):
    """(file, qualified name, raised name, node) for every ``raise`` of an
    exception under the folders; the raised name is the source text of the
    class or the call's callee, as in ``ZeroAmount`` or ``self.fail``.  A
    bare ``raise``, which re-raises, is left out."""
    for file, where, node in walk(*folders):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield file, where, ast.unparse(raised), node


def check_allowed(found: dict, allowed: dict[object, str], advice: str) -> None:
    """The one allow-list rule.  ``found`` maps each site to its lines and
    ``allowed`` maps each allowed site to the reason it may stay: a site
    missing from the list fails, and so does an entry that matches no site
    or gives no reason."""
    unexpected = {site: lines for site, lines in found.items() if site not in allowed}
    assert not unexpected, f"{advice}: {unexpected}"
    stale = set(allowed) - set(found)
    assert not stale, f"allowed sites that match nothing: {stale}"
    unexplained = [
        site for site, reason in allowed.items() if not (isinstance(reason, str) and reason.strip())
    ]
    assert not unexplained, f"allowed sites without a reason: {unexplained}"
