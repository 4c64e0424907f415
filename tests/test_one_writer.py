"""The command line writes its output in one place: _emit, called by main.

Each subcommand's handler returns its JSON object and exit code; main hands
the object to _emit, which alone touches stdout or opens the --out file, and
main alone prints, the one error line.  A handler that writes for itself
bypasses --pretty, --out and their typed errors.
"""

import ast

from test_one_coercion import SRC

CLI_PY = SRC / "cli.py"

# name -> the one top-level function allowed to use it
OWNERS = {"_emit": "main", "open": "_emit", "sys.stdout": "_emit", "print": "main"}


def _used_name(node):
    """The OWNERS key a node refers to, if any."""
    if isinstance(node, ast.Name) and node.id in OWNERS:
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and f"{node.value.id}.{node.attr}" in OWNERS
    ):
        return f"{node.value.id}.{node.attr}"
    return None


def _misplaced(source: str, filename: str) -> list:
    """(owner, name, line) for each use of a writer outside its one owner."""
    found = []
    for top in ast.parse(source, filename).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            name = _used_name(node)
            if name is not None and OWNERS[name] != owner:
                found.append((owner, name, node.lineno))
    return found


def test_only_main_emits_and_only_emit_writes():
    source = CLI_PY.read_text()
    assert "def _emit(" in source and "def main(" in source
    assert not _misplaced(source, str(CLI_PY)), _misplaced(source, str(CLI_PY))


def test_main_emits_once():
    main = next(
        node
        for node in ast.parse(CLI_PY.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    calls = [
        n for n in ast.walk(main)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_emit"
    ]
    assert len(calls) == 1


def test_the_guard_sees_a_second_writer():
    source = (
        "def _emit(obj, args):\n    sys.stdout.write(obj)\n"
        "def cmd_x(args):\n    _emit({}, args)\n    return {}, 0\n"
        "def cmd_y(args):\n    print('hi')\n    sys.stdout.write('x')\n"
        "def cmd_z(args):\n    with open(args.out) as fh:\n        pass\n"
        "def main(argv=None):\n    _emit(*args.fn(args))\n    print('error', file=sys.stderr)\n"
        "writer = _emit\n"
    )
    assert _misplaced(source, "<case>") == [
        ("cmd_x", "_emit", 4),
        ("cmd_y", "print", 7),
        ("cmd_y", "sys.stdout", 8),
        ("cmd_z", "open", 10),
        ("<module>", "_emit", 15),
    ]
