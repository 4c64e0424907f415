"""Mutation fuzzing of the parsers and the CLI: malformed input must fail with
a typed error (exit 2 in the CLI), never with a traceback.

Mutations delete, insert or replace a few characters of valid seeds.  Digits
are only ever replaced, never inserted, so numbers keep their length and the
mutated inputs stay small enough to compute quickly.
"""

import pytest

from wittforge.cli import main
from wittforge.indexset import IndexSetError, index_set_make
from wittforge.rings import RingError, make_ring

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

INSERTABLE = "();,:^*+-/ ._[]{}\"tuvxyinzmodplrqs"
REPLACEMENTS = INSERTABLE + "0123456789"

DESCRIPTORS = [
    "integers",
    "rationals",
    "zmod:12",
    "poly(integers; x,y)",
    "poly(rationals; x; inv x)",
    "poly(zmod:4; u,v; inv v)",
    "quot(poly(rationals; t); 1*t^3)",
    "quot(poly(zmod:5; t); 2*t^2+1)",
    "quot(poly(integers; t); 1*t^2+-1)",
]
LITERALS = ["0", "-7", "3/4", "-1/20", "1*x^2+-3*x*y+1/2", "2*t^2+1*t+1", "1*x^-2+4*v^-1*u"]
INDEX_SETS = ["div:12", "ptyp:2:3", "set:1,2,3,6", "div:1"]

ARGVS = [
    ["witt", "add", "--ring", "zmod:4", "--index-set", "div:6", "--a", "1,2,3,0", "--b", "3,1,0,2"],
    ["witt", "mul", "--ring", "rationals", "--index-set", "div:2", "--a", "1/2,1", "--b", "3,-1/3"],
    ["witt", "neg", "--ring", "quot(poly(zmod:4; t); 1*t^2+3)", "--index-set", "ptyp:2:2",
     "--a", "1*t,1+1*t"],
    ["witt", "sub", "--ring", "poly(integers; x; inv x)", "--index-set", "div:2",
     "--a", "1*x,1", "--b", "1*x^-1,0"],
    ["cone", "--base", "integers", "--d", "2", "--hom", "0", "4"],
    ["cone", "--base", "zmod:4", "--d", "2", "--hom", "1", "3"],
    ["cone", "--base", "rationals", "--d", "1/2", "--hom", "0", "1"],
    ["cone", "--base", "quot(poly(rationals; t); 1*t^3)", "--d", "1*t,0"],
    ["cone", "--base", "zmod:4", "--d", ""],
    ["rees", "--line", "3"],
    ["rees", "--step", "3,2,1", "--start", "1"],
]


@st.composite
def mutated(draw, text):
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("delete", "insert", "replace")))
        if edit == "delete":
            text = text[:i] + text[i + 1 :]
        elif edit == "insert":
            text = text[:i] + draw(st.sampled_from(INSERTABLE)) + text[i:]
        else:
            text = text[:i] + draw(st.sampled_from(REPLACEMENTS)) + text[i + 1 :]
    return text


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(argv) - 1))  # the subcommand stays
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "text")))
        if edit == "delete" and len(argv) > 2:
            del argv[i]
        elif edit == "duplicate":
            argv.insert(i, argv[i])
        elif edit == "swap":
            j = draw(st.integers(1, len(argv) - 1))
            argv[i], argv[j] = argv[j], argv[i]
        else:
            argv[i] = draw(mutated(argv[i]))
    return argv


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_parsers_raise_only_typed_errors(data):
    spec = data.draw(st.sampled_from(DESCRIPTORS).flatmap(mutated))
    try:
        make_ring(spec)
    except RingError:
        pass
    ring = make_ring(data.draw(st.sampled_from(DESCRIPTORS)))
    literal = data.draw(st.sampled_from(LITERALS).flatmap(mutated))
    try:
        ring.el_from_str(literal)
    except RingError:
        pass
    try:
        index_set_make(data.draw(st.sampled_from(INDEX_SETS).flatmap(mutated)))
    except IndexSetError:
        pass


def test_cli_exits_without_traceback(tmp_path, monkeypatch, capsys):
    # a mutated option may abbreviate to --out; keep any file it writes out of the tree
    monkeypatch.chdir(tmp_path)

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutated_argv())
    def check(argv):
        try:
            code = main(argv)
        except SystemExit as e:  # --help, which argparse answers by exiting itself
            assert e.code == 0, argv
            code = 0
        capsys.readouterr()
        assert code in (0, 1, 2), argv

    check()
