import errno
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from wittforge.cli import main
from wittforge.rings import RingError

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_witt_add_example(capsys):
    code, out, _ = run_cli(
        ["witt", "add", "--ring", "integers", "--index-set", "div:2", "--a", "1,0", "--b", "1,0"],
        capsys,
    )
    assert code == 0
    assert out == '{"coords":{"1":"2","2":"-1"}}\n'


def test_witt_ops(capsys):
    code, out, _ = run_cli(
        ["witt", "neg", "--ring", "integers", "--index-set", "div:2", "--a", "1,0"], capsys
    )
    assert code == 0
    assert json.loads(out)["coords"] == {"1": "-1", "2": "-1"}


def test_ghost_and_teich(capsys):
    code, out, _ = run_cli(
        ["ghost", "--ring", "integers", "--index-set", "div:2", "--a", "0,1"], capsys
    )
    assert code == 0 and json.loads(out)["ghost"] == {"1": "0", "2": "2"}
    code, out, _ = run_cli(
        ["teich", "--ring", "zmod:4", "--index-set", "div:2", "--r", "3"], capsys
    )
    assert code == 0 and json.loads(out)["coords"] == {"1": "3", "2": "0"}


def test_frobenius_verschiebung(capsys):
    code, out, _ = run_cli(
        ["frobenius", "--n", "2", "--ring", "integers", "--index-set", "div:2", "--a", "3,0"],
        capsys,
    )
    assert code == 0 and json.loads(out)["coords"] == {"1": "9"}
    code, out, _ = run_cli(
        ["verschiebung", "--n", "2", "--ring", "integers", "--index-set", "div:2", "--a", "5"],
        capsys,
    )
    assert code == 0 and json.loads(out)["coords"] == {"1": "0", "2": "5"}


def test_predicates_exit_codes(capsys):
    code, out, _ = run_cli(
        ["hodge-tate", "--ring", "zmod:4", "--index-set", "div:2", "--v", "0,3", "--p", "2"],
        capsys,
    )
    assert code == 0 and json.loads(out)["hodge_tate"] is True
    code, out, _ = run_cli(
        ["hodge-tate", "--ring", "zmod:4", "--index-set", "div:2", "--v", "0,2", "--p", "2"],
        capsys,
    )
    assert code == 1 and json.loads(out)["hodge_tate"] is False
    code, out, _ = run_cli(
        ["distinguished", "--ring", "zmod:4", "--index-set", "div:2", "--xi", "2,3", "--p", "2"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert body["witness"] == {"x": "2", "v": {"1": "0", "2": "3"}}


def test_decompose(capsys):
    code, out, _ = run_cli(
        ["decompose", "--ring", "zmod:9", "--index-set", "div:6", "--a", "5,0,0,0", "--p", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["factors"]["2"]["1"] == "7"


def test_cone(capsys):
    code, out, _ = run_cli(
        ["cone", "--base", "integers", "--d", "2", "--hom", "0", "4"], capsys
    )
    assert code == 0
    body = json.loads(out)
    assert body["pi0"] == {"ring": "zmod:2"} and body["hom"] == [["2"]]


def test_cone_empty_hom_set(capsys):
    code, out, _ = run_cli(["cone", "--base", "integers", "--d", "0", "--hom", "0", "1"], capsys)
    assert code == 0 and json.loads(out)["hom"] == []


QUOT_T3 = ["cone", "--base", "quot(poly(rationals; t); 1*t^3)", "--d", "1*t"]


def test_cone_empty_hom_set_non_unit(capsys):
    # t*x = 1 has no solution in Q[t]/(t^3): 1 is not in the ideal (t)
    code, out, _ = run_cli(QUOT_T3 + ["--hom", "0", "1"], capsys)
    assert code == 0 and json.loads(out)["hom"] == []


def test_cone_infinite_hom_set_is_refused(capsys):
    # t*x = t^2 holds for every x in t + (t^2), an infinite set
    code, out, err = run_cli(QUOT_T3 + ["--hom", "0", "1*t^2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: UnsupportedRing: linear solve unsupported") and "Traceback" not in err


def test_rees(capsys):
    code, out, _ = run_cli(["rees", "--line", "1"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["pieces"]["-1"]["rank"] == 1 and body["round_trip"]


def test_derham_report(capsys):
    code, out, _ = run_cli(["derham", "--torus", "1", "--affine", "0"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["H"] == {"0": 1, "1": 1} and body["Fil"]["1"]["1"] == 1


def test_prismatic(capsys):
    code, out, _ = run_cli(
        [
            "prismatic",
            "--ring", "zmod:4",
            "--index-set", "set:1",
            "--xi", "2",
            "--p", "2",
            "--gens", "x",
            "--relations", "1*x^2",
        ],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert len(body["objects"]) == 4 and body["axioms"]


def test_usage_errors(capsys):
    code, _, err = run_cli(
        ["witt", "add", "--ring", "zmod:1", "--index-set", "div:2", "--a", "1,0", "--b", "1,0"],
        capsys,
    )
    assert code == 2 and "error" in err
    code, _, err = run_cli(
        ["witt", "add", "--ring", "integers", "--index-set", "set:1,2,3", "--a", "1", "--b", "1"],
        capsys,
    )
    assert code == 2
    code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
    assert code == 2 and "unknown suite" in err



def test_unknown_suite_is_a_library_error():
    from wittforge import WittforgeError
    from wittforge.suites import suite_run

    with pytest.raises(WittforgeError, match=r"^unknown suite 'nosuch'; see verify --list$"):
        suite_run("nosuch", 1)


def test_a_library_bug_is_not_a_usage_error(capsys, monkeypatch):
    # only a WittforgeError is reported as an error line with exit code 2
    import wittforge.cli as cli

    def bug(a, b):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "witt_add", bug)
    with pytest.raises(KeyError):
        main(["witt", "add", "--ring", "integers", "--index-set", "div:2", "--a", "1,0", "--b", "1,0"])

def test_verify_single_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "v-nonfree", "--seed", "42"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["passed"] and body["suites"][0]["suite"] == "v-nonfree"
    assert "seconds" not in body["suites"][0]


def test_verify_list(capsys):
    code, out, _ = run_cli(["verify", "--list"], capsys)
    assert code == 0
    body = json.loads(out)
    modules = set(body["coverage"])
    assert {
        "ring_core",
        "witt_core",
        "witt_struct",
        "cone",
        "rees_filtration",
        "derham",
        "prismatic_points",
    } <= modules


def test_determinism(capsys):
    argv = ["verify", "--suite", "witt-unit", "--seed", "7"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0 and json.loads(out1)["passed"]
    assert out1 == out2


# verify runs each suite in a worker process; a suite patched here reaches the
# workers only when they are forked from this process
FORKED = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers are not forked"
)


def test_an_unknown_suite_is_refused_before_any_worker_starts(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = run_cli(["verify", "--suite", "nope"], capsys)
    assert code == 2 and out == ""
    assert err == "error: WittforgeError: unknown suite 'nope'; see verify --list\n"


@pytest.fixture
def light_suites(monkeypatch):
    """verify --suite all runs five quick suites, declared out of name order."""
    import wittforge.cli as cli
    import wittforge.suites as suites

    names = ("witt-unit", "v-nonfree", "iadic-gr", "cone-laws", "wf-annihilator")
    light = {name: suites.SUITES[name] for name in names}
    monkeypatch.setattr(suites, "SUITES", light)
    monkeypatch.setattr(cli, "SUITES", light)
    return light


def _raise_a_ring_error(rep, rng):
    raise RingError(f"raised in process {os.getpid()}")


def _raise_a_key_error(rep, rng):
    raise KeyError("bug")


@FORKED
def test_a_library_error_in_a_worker_is_one_error_line(light_suites, capsys):
    light_suites["iadic-gr"] = ("rees_filtration", _raise_a_ring_error)
    code, out, err = run_cli(["verify", "--suite", "all"], capsys)
    assert code == 2 and out == ""
    prefix = "error: RingError: raised in process "
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err
    assert int(err[len(prefix):]) != os.getpid()


@FORKED
def test_a_library_bug_in_a_worker_propagates(light_suites):
    light_suites["iadic-gr"] = ("rees_filtration", _raise_a_key_error)
    with pytest.raises(KeyError, match="bug"):
        main(["verify", "--suite", "all"])


@FORKED
def test_the_output_does_not_depend_on_the_worker_count(light_suites, capsys, monkeypatch):
    import wittforge.cli as cli

    outs = set()
    for workers in (1, 2, 5):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        code, out, _ = run_cli(["verify", "--suite", "all", "--seed", "3"], capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert [s["suite"] for s in json.loads(out)["suites"]] == sorted(light_suites)


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    import wittforge.cli as cli

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        ["ghost", "--ring", "integers", "--index-set", "div:2", "--a", "1,0", "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["ghost"] == {"1": "1", "2": "1"}


def test_cache_dir_env(tmp_path):
    import wittforge.universal as universal
    from wittforge.indexset import IndexSet

    E = IndexSet.divisors_of(4)
    universal.clear_memory_cache()
    env_backup = os.environ.get("WITTFORGE_CACHE_DIR")
    os.environ["WITTFORGE_CACHE_DIR"] = str(tmp_path)
    try:
        generated = universal.get_universal(E, "sum")
        assert any("sum" in f for f in os.listdir(tmp_path))
        universal.clear_memory_cache()
        reloaded = universal.get_universal(E, "sum")
        assert reloaded is not generated
        assert all(reloaded.poly(n) == generated.poly(n) for n in E)
    finally:
        if env_backup is None:
            del os.environ["WITTFORGE_CACHE_DIR"]
        else:
            os.environ["WITTFORGE_CACHE_DIR"] = env_backup
        universal.clear_memory_cache()


def test_unusable_cache_dir_is_skipped(tmp_path):
    # the cache dir lies under a regular file, so it can never be created; the
    # cache is only an optimisation, so the suite runs without it
    blocker = tmp_path / "file"
    blocker.write_text("")
    env = dict(os.environ, PYTHONPATH=SRC, WITTFORGE_CACHE_DIR=str(blocker / "cache"))
    proc = subprocess.run(
        [sys.executable, "-m", "wittforge", "verify", "--suite", "witt-universal-integrality"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_witt_beyond_the_term_cap(capsys):
    # level 30 of the div:30 product and the upper ptyp:2:12 sum levels are
    # only certified as universal polynomials; the kernel computes them all
    a30, b30 = "5,7,2,11,3,0,9,4", "1,6,10,8,0,3,5,7"
    code, out, _ = run_cli(
        ["witt", "mul", "--ring", "zmod:12", "--index-set", "div:30", "--a", a30, "--b", b30],
        capsys,
    )
    assert code == 0
    full = json.loads(out)["coords"]
    assert len(full) == 8
    # restriction to div:6 is a ring map
    code, out, _ = run_cli(
        ["witt", "mul", "--ring", "zmod:12", "--index-set", "div:6",
         "--a", "5,7,2,3", "--b", "1,6,10,0"],
        capsys,
    )
    assert code == 0 and json.loads(out)["coords"] == {n: full[n] for n in ("1", "2", "3", "6")}

    a, b = ",".join(str(i % 12) for i in range(13)), ",".join(str(7 * i % 12) for i in range(13))
    code, out, _ = run_cli(
        ["witt", "add", "--ring", "zmod:12", "--index-set", "ptyp:2:12", "--a", a, "--b", b],
        capsys,
    )
    assert code == 0
    full = json.loads(out)["coords"]
    assert len(full) == 13
    code, out, _ = run_cli(
        ["witt", "add", "--ring", "zmod:12", "--index-set", "ptyp:2:3",
         "--a", "0,1,2,3", "--b", "0,7,2,9"],
        capsys,
    )
    assert code == 0 and json.loads(out)["coords"] == {n: full[n] for n in ("1", "2", "4", "8")}


def test_generation_error_exit_code(capsys, monkeypatch):
    import wittforge.cli as cli
    from wittforge.universal import NotMaterialized

    def refuse(a, b):
        raise NotMaterialized("not expanded")

    monkeypatch.setattr(cli, "witt_add", refuse)
    code, out, err = run_cli(
        ["witt", "add", "--ring", "integers", "--index-set", "div:2", "--a", "1,0", "--b", "1,0"],
        capsys,
    )
    assert code == 2 and out == "" and err == "error: NotMaterialized: not expanded\n"


WITT_POINTS = ["witt-points", "--ring", "zmod:2", "--index-set", "div:2", "--gens", "x",
               "--relations", "1*x^2+-1*x"]


def test_witt_points_need_no_xi(capsys):
    # the J(X) points of Spec Z[x]/(x^2 - x): the idempotents of W_{1,2}(Z/2)
    code, out, _ = run_cli(WITT_POINTS, capsys)
    assert code == 0
    assert out == '{"count":2,"points":[[{"1":"0","2":"0"}],[{"1":"1","2":"0"}]]}\n'


def test_prismatic_error_exit_code(capsys):
    code, out, err = run_cli(
        ["prismatic", "--ring", "zmod:4", "--index-set", "set:1", "--xi", "3", "--p", "2",
         "--gens", "x", "--relations", "1*x^2"],
        capsys,
    )
    assert code == 2 and out == "" and err == "error: PrismaticError: W{1}(3) is not distinguished\n"


def test_cone_error_exit_code(capsys, monkeypatch):
    import wittforge.cli as cli
    from wittforge.cone import ConeError

    def refuse(q):
        raise ConeError("unknown module flavor")

    monkeypatch.setattr(cli, "quasi_ideal_check", refuse)
    code, out, err = run_cli(["cone", "--base", "integers", "--d", "2"], capsys)
    assert code == 2 and out == "" and err == "error: ConeError: unknown module flavor\n"


def test_derham_error_exit_code(capsys):
    code, out, err = run_cli(["derham", "--torus", "-1", "--affine", "0"], capsys)
    assert code == 2 and out == "" and err == "error: DeRhamError: ranks must be nonnegative\n"


def test_derham_refuses_a_box_it_cannot_finish(capsys):
    # 3^9 = 19,683 basis forms: about 6 s to build, so refused at once
    code, out, err = run_cli(["derham", "--torus", "0", "--affine", "9"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: DeRhamError: ") and "10000 basis forms" in err


def test_cone_pi0_of_a_large_finite_ring_is_refused(capsys):
    code, out, _ = run_cli(["cone", "--base", "zmod:200001", "--d", "2"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["quasi_ideal_law"] and "200001 elements" in body["pi0"]["unsupported"]


def test_cone_hom_set_of_a_large_finite_module_is_refused(capsys):
    # the hom set lists module elements under the same cap as pi0
    code, out, err = run_cli(["cone", "--base", "zmod:900000", "--d", "2", "--hom", "0", "2"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: UnsupportedRing: the hom set searches the 900000 elements")
    assert "Traceback" not in err


def test_negative_budgets_are_usage_errors(capsys):
    argv = ["prismatic", "--ring", "zmod:4", "--index-set", "set:1", "--xi", "2", "--p", "2",
            "--gens", "x", "--budget-enum", "-5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: UsageError: argument --budget-") and "non-negative" in err


@pytest.mark.parametrize("flag", ["--budget-enum", "--budget-terms"])
def test_verify_depends_on_its_seed_alone(flag, capsys):
    code, out, err = run_cli(["verify", "--suite", "witt-unit", flag, "5"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: UsageError: unrecognized arguments: {flag} 5\n"


def test_module_invocation_subprocess():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "wittforge", "witt", "add", "--ring", "integers",
         "--index-set", "div:2", "--a", "1,0", "--b", "1,0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"coords":{"1":"2","2":"-1"}}\n'


def test_cone_pi0_of_a_finite_base(capsys):
    code, out, _ = run_cli(["cone", "--base", "zmod:4", "--d", "2"], capsys)
    assert code == 0
    assert json.loads(out)["pi0"] == {"classes": 2, "image_size": 2}


@pytest.mark.parametrize("base", ["zmod:4", "integers", "rationals"])
def test_cone_zero_module_hom_set(base, capsys):
    # --d "" is the zero module, which has one element, whatever the ring
    code, out, _ = run_cli(["cone", "--base", base, "--d", "", "--hom", "0", "0"], capsys)
    assert code == 0 and json.loads(out)["hom"] == [[]]
    code, out, _ = run_cli(["cone", "--base", base, "--d", "", "--hom", "0", "1"], capsys)
    assert code == 0 and json.loads(out)["hom"] == []


# each input has one spelling: the quasi-ideal is --base/--d, a shifted line is --line N+n
REMOVED_SPELLINGS = [
    ["cone", "--base", "zmod:4", "--d", "2", "--json", "{}"],
    ["rees", "--line", "1", "--shift", "2"],
]


@pytest.mark.parametrize("argv", REMOVED_SPELLINGS)
def test_removed_spellings_are_unrecognized(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: UsageError: unrecognized arguments: ")


def test_bad_index_set_exit_code(capsys):
    code, _, err = run_cli(
        ["ghost", "--ring", "integers", "--index-set", "div:0", "--a", "1"], capsys
    )
    assert code == 2 and "error" in err


MALFORMED = [
    (["witt", "add", "--ring", "rationals", "--index-set", "div:2",
      "--a", "1/0,1", "--b", "1,1"], "ParseError"),
    (["witt", "add", "--ring", "poly(rationals; x)", "--index-set", "div:2",
      "--a", "1/0*x,1", "--b", "1,1"], "ParseError"),
    *((argv, "UsageError") for argv in REMOVED_SPELLINGS),
    # a base that is no ring descriptor; a d-value that is no ring element
    (["cone", "--base", "5", "--d", "1"], "ParseError"),
    (["cone", "--base", "integers", "--d", "x"], "ParseError"),
    (["rees", "--step", "3,x"], "UsageError"),
    (["rees", "--step", "2,-1"], "UsageError"),
    (["rees", "--step", "-1"], "UsageError"),
    # argparse's own errors: an unknown option, a missing required option
    (["witt", "add", "--ring", "integers", "--index-set", "div:2", "--a", "1,0", "--b", "1,0",
      "--bogus"], "UsageError"),
    (["witt", "add", "--ring", "integers", "--a", "1,0", "--b", "1,0"], "UsageError"),
    # refused by the morphism budget: 512 objects over W_{div:2}(Z/4)
    (["prismatic", "--ring", "zmod:4", "--index-set", "div:2", "--xi", "2,3", "--p", "2",
      "--gens", "x,y", "--relations", "1*x*y"], "EnumerationBudget"),
    # V_4 has no source over div:6: 4 is not in the index set
    (["verschiebung", "--n", "4", "--ring", "integers", "--index-set", "div:6", "--a", "1,2"],
     "IndexSetError"),
    # d = 0: Hom(r, r) is the whole ring, which is not listed
    (["cone", "--base", "integers", "--d", "0", "--hom", "0", "0"], "UnsupportedRing"),
    (["cone", "--base", "rationals", "--d", "0", "--hom", "1/2", "1/2"], "UnsupportedRing"),
    # --base and --d are both required, and only the whole --d "" is the zero module
    (["cone", "--base", "zmod:4"], "UsageError"),
    (["cone", "--d", "2"], "UsageError"),
    (["cone", "--base", "zmod:4", "--d", "2,"], "ParseError"),
    # one local context: a prime or all primes inverted, never both
    (["decompose", "--ring", "zmod:9", "--index-set", "div:6", "--a", "1,0,0,0",
      "--p", "3", "--rational"], "UsageError"),
    # witt-points reads no xi and no local context, so it has no option for either
    (WITT_POINTS + ["--xi", "5,5,5", "--p", "4"], "UsageError"),
    (WITT_POINTS + ["--rational"], "UsageError"),
    # an integer option is a numeral: no underscore, no plus sign, ASCII digits only
    (["verify", "--seed", "4_2"], "UsageError"),
    (["verify", "--seed", "٤٢"], "UsageError"),
    (["verify", "--seed", "+42"], "UsageError"),
    (["frobenius", "--n", "+2", "--ring", "integers", "--index-set", "div:2", "--a", "3,0"],
     "UsageError"),
    (["derham", "--torus", "١", "--affine", "0"], "UsageError"),
    (["rees", "--step", "2,1", "--start", "+1"], "UsageError"),
    (["prismatic", "--ring", "zmod:4", "--index-set", "set:1", "--xi", "2", "--p", "2",
      "--gens", "x", "--budget-enum", "1_000"], "UsageError"),
    # a list has no empty item, between separators or after a trailing one
    (["witt-points", "--ring", "zmod:2", "--index-set", "div:2", "--gens", "x,,"],
     "UsageError"),
    (["witt-points", "--ring", "zmod:2", "--index-set", "div:2", "--gens", "x,,y"],
     "UsageError"),
    (WITT_POINTS[:-1] + ["1*x^2+-1*x;;1*x"], "UsageError"),
    (WITT_POINTS[:-1] + ["1*x^2+-1*x;"], "UsageError"),
    (["witt-points", "--ring", "zmod:2", "--index-set", "set:1,,2", "--gens", "x"],
     "IndexSetError"),
    (["witt-points", "--ring", "poly(zmod:2; t,)", "--index-set", "div:1", "--gens", "x"],
     "ParseError"),
]


@pytest.mark.parametrize("argv, error", MALFORMED,
                         ids=[f"argv{i}" for i in range(len(MALFORMED))])
def test_malformed_input_exit_code(argv, error, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1


def test_a_wholly_empty_relation_list_is_no_relation(capsys):
    argv = ["witt-points", "--ring", "zmod:2", "--index-set", "div:2", "--gens", "x"]
    code, out, _ = run_cli(argv + ["--relations", ""], capsys)
    assert (code, out) == run_cli(argv, capsys)[:2] and json.loads(out)["count"] == 4


def test_witt_points_names_every_option_it_refuses(capsys):
    code, _, err = run_cli(WITT_POINTS + ["--p", "2", "--xi", "1,0", "--rational"], capsys)
    assert code == 2
    assert err == "error: UsageError: unrecognized arguments: --p 2 --xi 1,0 --rational\n"


def test_an_option_is_spelled_in_full(capsys):
    # an abbreviation would be a second spelling: --p would be read as --pretty
    code, out, err = run_cli(WITT_POINTS + ["--p"], capsys)
    assert code == 2 and out == "" and err == "error: UsageError: unrecognized arguments: --p\n"
    code, out, err = run_cli(["verify", "--suite", "witt-unit", "--se", "3"], capsys)
    assert code == 2 and out == "" and err == "error: UsageError: unrecognized arguments: --se 3\n"


def test_witt_points_is_a_subcommand_not_a_prismatic_flag(capsys):
    argv = ["prismatic", "--ring", "zmod:2", "--index-set", "div:2", "--xi", "0,1", "--p", "2",
            "--gens", "x", "--relations", "1*x^2+-1*x", "--witt-points"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == "error: UsageError: unrecognized arguments: --witt-points\n"


def test_cone_witness_output(capsys):
    code, out, _ = run_cli(
        ["cone", "--base", "quot(poly(rationals;t);1*t^2)", "--d", "1*t,0"], capsys
    )
    assert code == 1
    assert json.loads(out) == {"quasi_ideal_law": False, "witness": [["1", "0"], ["0", "1"]]}


# the README's invocation of each subcommand, one apiece
README_INVOCATIONS = [
    ["witt", "add", "--ring", "integers", "--index-set", "div:2", "--a", "1,0", "--b", "1,0"],
    ["ghost", "--ring", "integers", "--index-set", "div:6", "--a", "1,1,1,1"],
    ["frobenius", "--n", "2", "--ring", "integers", "--index-set", "ptyp:2:2", "--a", "0,1,0"],
    ["verschiebung", "--n", "2", "--ring", "integers", "--index-set", "div:2", "--a", "5"],
    ["teich", "--ring", "poly(rationals; x; inv x)", "--index-set", "div:2", "--r", "1*x"],
    ["decompose", "--ring", "zmod:9", "--index-set", "div:6", "--a", "5,0,0,0", "--p", "3"],
    ["hodge-tate", "--ring", "zmod:4", "--index-set", "div:2", "--v", "0,3", "--p", "2"],
    ["distinguished", "--ring", "zmod:4", "--index-set", "div:2", "--xi", "2,3", "--p", "2"],
    ["cone", "--base", "integers", "--d", "2", "--hom", "0", "4"],
    ["rees", "--line", "1"],
    ["derham", "--torus", "1", "--affine", "0"],
    ["prismatic", "--ring", "zmod:4", "--index-set", "set:1", "--xi", "2", "--p", "2",
     "--gens", "x", "--relations", "1*x^2"],
    WITT_POINTS,
    ["verify", "--suite", "hodge-tate-equivalences", "--seed", "7"],
]


def test_the_invocations_cover_every_subcommand():
    from wittforge.cli import build_parser

    subs = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(argv[0] for argv in README_INVOCATIONS) == sorted(subs.choices)


@pytest.mark.parametrize("argv", README_INVOCATIONS, ids=lambda argv: argv[0])
def test_pretty_and_out_write_the_same_object(argv, tmp_path, capsys):
    code, compact, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and compact.endswith("\n") and "\n" not in compact[:-1]
    obj = json.loads(compact)
    assert compact == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    pretty_code, pretty, _ = run_cli(argv + ["--pretty"], capsys)
    assert pretty_code == code
    assert pretty == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    target = tmp_path / "out.json"
    out_code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert out_code == code and out == "" and err == ""
    assert target.read_text() == compact


@pytest.mark.parametrize(
    "argv",
    [
        ["ghost", "--ring", "integers", "--index-set", "div:2", "--a", "1,0"],
        ["verify", "--suite", "witt-unit"],
    ],
    ids=["ghost", "verify"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_unwritable_out_path_is_a_usage_error(argv, where, tmp_path, capsys):
    target = tmp_path / "nonexistent" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: UsageError: cannot write --out {str(target)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    errno_ = errno.ENOENT if where == "missing-directory" else errno.EISDIR
    assert err.endswith(os.strerror(errno_) + "\n")
