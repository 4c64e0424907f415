"""Each verification suite is named once, by its key in suites.SUITES.

suite_run builds the suite's report under that key and seeds its generator
from (seed, key); a suite that builds its own SuiteReport, seeds its own
generator or takes the seed writes its name a second time.
"""

import ast

from test_one_coercion import SRC
from wittforge.suites import SUITES

SUITES_PY = SRC / "suites.py"


def _suite_functions(tree) -> set:
    """Names of the functions the SUITES registry maps to."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SUITES" for t in node.targets
        ):
            return {
                entry.elts[1].id
                for entry in node.value.values
                if isinstance(entry, ast.Tuple) and isinstance(entry.elts[1], ast.Name)
            }
    return set()


def _second_declarations(source: str, filename: str) -> list:
    """(function, what) for each suite that names itself or takes the seed."""
    tree = ast.parse(source, filename)
    suites = _suite_functions(tree)
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in suites):
            continue
        if any(arg.arg == "seed" for arg in fn.args.args + fn.args.kwonlyargs):
            found.append((fn.name, "seed"))
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("SuiteReport", "_rng")
            ):
                found.append((fn.name, node.func.id))
    return found


def test_each_suite_is_named_once():
    source = SUITES_PY.read_text()
    assert _suite_functions(ast.parse(source)) == {fn.__name__ for _, fn in SUITES.values()}
    assert not _second_declarations(source, str(SUITES_PY))


def test_the_guard_sees_a_second_name():
    source = (
        "def suite_a(seed, budget):\n"
        "    rep = SuiteReport('a')\n"
        "def suite_b(rep, rng, budget):\n"
        "    rng = _rng(0, 'b')\n"
        "def helper(seed):\n"
        "    return SuiteReport('c')\n"
        "SUITES = {'a': ('m', suite_a), 'b': ('m', suite_b)}\n"
    )
    assert _second_declarations(source, "<case>") == [
        ("suite_a", "seed"),
        ("suite_a", "SuiteReport"),
        ("suite_b", "_rng"),
    ]
