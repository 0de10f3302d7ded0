"""One parse of each project source for the ``ast`` gates, and the one rule
for their allow-lists.

Each ``.py`` file under ``src/``, ``tests/``, ``demos/`` and ``bench/`` is
parsed at most once per session.  A node's qualified name is that of the
innermost function or method around it, the ``def`` itself included: the
names of its classes and enclosing functions joined by dots, as in
``TestDeposit.test_rejected`` or ``WrapperLedger._went_back``, or ``None``
outside every function.  Decorators run in the scope around a definition,
so they carry that scope's name.

``SITES`` indexes every ``raise`` in ``src/`` by the function it is in and
the class it raises, and :func:`raised_at` says where a caught error was
raised, so a table of refusals can require each row to reach its site."""

import ast
import builtins
import functools
import importlib
from pathlib import Path

from rpoolsim.errors import ERRORS_BY_NAME
from rpoolsim.scenario import ParseError

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


#: callee text -> the class of the error it returns, for the factories a ``raise`` calls
FACTORIES = {"self.fail": ParseError, "script.refusal": ParseError}


def _raised_classes(file: str, raised: str) -> list[type]:
    """The exception classes a ``raise`` of ``raised`` in ``file`` can raise:
    a modelled error, a class of the module or a builtin one, by its last
    dotted name, each class in a table of them that the raise indexes, or
    the class a known factory returns.  Any other callee fails."""
    if raised in FACTORIES:
        return [FACTORIES[raised]]
    stem = Path(file).stem
    module = importlib.import_module("rpoolsim" if stem == "__init__" else f"rpoolsim.{stem}")
    name = raised.partition("[")[0].rpartition(".")[2]
    value = ERRORS_BY_NAME.get(name) or getattr(module, name, getattr(builtins, name, None))
    values = value.values() if isinstance(value, dict) else [value]
    classes = [cls for cls in values if isinstance(cls, type) and issubclass(cls, BaseException)]
    assert classes, f"{file}: cannot tell what `raise {raised}` raises; add it to FACTORIES"
    return classes


def _sites() -> dict[tuple[str, type], set[tuple[str, int]]]:
    """(function, error) -> (file, line) of each ``raise`` of the error in the function."""
    sites = {}
    for file, where, raised, node in raises("src"):
        for error in _raised_classes(file, raised):
            sites.setdefault((where, error), set()).add((file, node.lineno))
    return sites


SITES = _sites()


def raised_at(tb) -> tuple[str, int]:
    """The file and line of the innermost frame of a traceback."""
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename).resolve()
    file = path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else str(path)
    return file, tb.tb_lineno


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
