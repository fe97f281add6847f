"""The statements of ``src/simthresh`` that the tier-1 tests never run.

    python tests/uncovered.py                                   # print them, one a line
    python tests/uncovered.py --check tests/data/uncovered.txt

Runs pytest over ``tests/`` in this process under ``sys.settrace`` and ``threading.settrace``, with
the standard library only. Forked children trace too and write what they ran before they leave,
through ``os._exit`` or on a SIGTERM, then die the way they would have. Python subprocesses trace
through this file, linked as ``sitecustomize.py`` into a directory put at the front of
``PYTHONPATH`` for the run; it imports no numpy and prints nothing.

A statement is an ``ast`` statement of a module, docstrings left out; it ran if any of its lines
did. It is named ``file: scope: text``: the scope is the qualified name of the function or class
it sits in (left out at module level), the text its first line (decorators left out) as
``ast.unparse`` writes it, so a statement that only moves keeps its name, and one in another
function has another. ``--check`` fails unless the statements that never ran are exactly those on
the list: one name a line, each under a ``#`` line that says why it stays; an entry listed n
times stands for n statements of that name.
"""

import atexit
import os
import signal
import sys
import threading

HITS = "UNCOVERED_HITS"  # the directory every traced process writes the lines it ran to
ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "simthresh")


def start(hits: str) -> set[tuple[str, int]]:
    """Trace this process's threads, and the children it forks, until it leaves; the
    (path, line) pairs this process runs collect in the set returned."""
    ran: set[tuple[str, int]] = set()
    files: dict[str, str | None] = {}  # co_filename -> the module's real path, None outside the package

    def line(frame, event, arg):
        if event == "line":
            ran.add((files[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            real = os.path.realpath(name)
            files[name] = real if os.path.dirname(real) == PACKAGE else None
        return line if files[name] else None

    def dump() -> None:
        try:
            with open(os.path.join(hits, f"{os.getpid()}.hits"), "a", encoding="utf-8") as fh:
                fh.writelines(f"{path}\t{lineno}\n" for path, lineno in set(ran))
        except OSError:  # the run is over and its directory gone
            pass

    def exit_after_dump(status, _exit=os._exit):
        dump()
        _exit(status)

    def die_after_dump(signum, frame):
        dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def in_child() -> None:
        ran.clear()
        try:  # a worker that ``load_reduced`` terminates leaves on SIGTERM
            signal.signal(signal.SIGTERM, die_after_dump)
        except ValueError:  # forked from a thread that is not the main one
            pass

    os._exit = exit_after_dump  # multiprocessing's children leave through it, past atexit
    os.register_at_fork(after_in_child=in_child)
    atexit.register(dump)
    threading.settrace(call)
    sys.settrace(call)
    return ran


def statements() -> list[tuple[str, int, int, str]]:
    """(path, first line, last line, name) of every statement of the package, in file order."""
    import ast

    scope_types = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

    def scoped(node, scope):  # (statement, the qualified name of the function or class it sits in)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield child, scope
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, scope_types) else scope
            yield from scoped(child, inner)

    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        scopes = (n for n in ast.walk(tree) if isinstance(n, scope_types))
        docstrings = {id(n.body[0]) for n in scopes if ast.get_docstring(n, clean=False) is not None}
        for node, scope in scoped(tree, ""):
            if id(node) not in docstrings:
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                text = next(t for t in ast.unparse(node).splitlines() if not t.startswith("@"))
                found.append((path, first, node.end_lineno, f"{name}: {scope + ': ' if scope else ''}{text}"))
    return sorted(found)


def read_list(path: str) -> list[str]:
    """The entries of a never-run list; an entry without a reason above it is an error."""
    entries, reason = [], False
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, 1):
            text = text.strip()
            if text.startswith("#") or not text:
                reason = text.startswith("#")
            elif not reason:
                raise SystemExit(f"{path}:{lineno}: an entry with no '#' reason above it: {text}")
            else:
                entries.append(text)
    return entries


def main(argv: list[str]) -> int:
    import tempfile  # here, with pytest: a traced subprocess imports only what the module level does
    from collections import Counter

    import pytest

    if argv and (len(argv) != 2 or argv[0] != "--check"):
        raise SystemExit("usage: python tests/uncovered.py [--check LIST]")
    listed = read_list(argv[1]) if argv else None
    with tempfile.TemporaryDirectory() as hits:
        os.symlink(os.path.realpath(__file__), os.path.join(hits, "sitecustomize.py"))
        os.environ[HITS] = hits
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [hits, os.environ.get("PYTHONPATH")]))
        sys.path.insert(0, os.path.dirname(PACKAGE))
        ran = start(hits)
        code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
        sys.settrace(None)
        threading.settrace(None)
        for name in os.listdir(hits):
            if name.endswith(".hits"):
                with open(os.path.join(hits, name), encoding="utf-8") as fh:
                    ran.update((path, int(lineno)) for path, lineno in (t.split("\t") for t in fh.read().splitlines()))
    if code != 0:
        print(f"uncovered: the tests did not pass (pytest exit {code})", file=sys.stderr)
        return 1
    never = [(path, first, name) for path, first, last, name in statements()
             if not any((path, n) in ran for n in range(first, last + 1))]
    if listed is None:
        print(*(name for _, _, name in never), sep="\n")
        return 0
    unlisted = Counter(name for _, _, name in never) - Counter(listed)
    stale = Counter(listed) - Counter(name for _, _, name in never)
    for path, first, name in never:
        if unlisted[name]:
            print(f"never run and not listed: {os.path.basename(path)}:{first}: {name.split(': ', 1)[1]}")
    for name in stale.elements():
        print(f"listed but ran (remove the entry): {name}")
    return 1 if unlisted or stale else 0


if __name__ == "sitecustomize":  # a Python subprocess of the traced run
    start(os.environ[HITS])
    here, this = os.path.dirname(__file__), sys.modules.pop("sitecustomize")
    path, sys.path[:] = sys.path[:], [p for p in sys.path if p != here]
    try:  # the sitecustomize this one shadows, if there is one
        import sitecustomize  # noqa: F401
    except ModuleNotFoundError as exc:
        if exc.name != "sitecustomize":
            raise
    finally:
        sys.path[:] = path
        sys.modules.setdefault("sitecustomize", this)
elif __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
