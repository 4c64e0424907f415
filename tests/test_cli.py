import json
import os
import subprocess
import sys

import pytest

from wittforge.cli import main

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
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


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
    assert code == 2 and out == "" and err == "error: not expanded\n"


def test_prismatic_error_exit_code(capsys):
    code, out, err = run_cli(
        ["prismatic", "--ring", "zmod:4", "--index-set", "set:1", "--xi", "3", "--p", "2",
         "--gens", "x", "--relations", "1*x^2"],
        capsys,
    )
    assert code == 2 and out == "" and err == "error: W{1}(3) is not distinguished\n"


def test_cone_error_exit_code(capsys, monkeypatch):
    import wittforge.cli as cli
    from wittforge.cone import ConeError

    def refuse(q):
        raise ConeError("unknown module flavor")

    monkeypatch.setattr(cli, "quasi_ideal_check", refuse)
    code, out, err = run_cli(["cone", "--base", "integers", "--d", "2"], capsys)
    assert code == 2 and out == "" and err == "error: unknown module flavor\n"


def test_derham_error_exit_code(capsys):
    code, out, err = run_cli(["derham", "--torus", "-1", "--affine", "0"], capsys)
    assert code == 2 and out == "" and err == "error: ranks must be nonnegative\n"


def test_module_invocation_subprocess():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "wittforge", "witt", "add", "--ring", "integers",
         "--index-set", "div:2", "--a", "1,0", "--b", "1,0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"coords":{"1":"2","2":"-1"}}\n'


def test_cone_json_input(capsys):
    code, out, _ = run_cli(
        ["cone", "--json", '{"base":"zmod:4","generators":1,"relations":[],"d":["2"]}'],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["pi0"] == {"classes": 2, "image_size": 2}


def test_bad_index_set_exit_code(capsys):
    code, _, err = run_cli(
        ["ghost", "--ring", "integers", "--index-set", "div:0", "--a", "1"], capsys
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["witt", "add", "--ring", "rationals", "--index-set", "div:2",
         "--a", "1/0,1", "--b", "1,1"],
        ["witt", "add", "--ring", "poly(rationals; x)", "--index-set", "div:2",
         "--a", "1/0*x,1", "--b", "1,1"],
        ["cone", "--json", "nope"],
        ["cone", "--json", "[1]"],
        ["cone", "--json", '{"base":5,"d":["1"]}'],
        ["cone", "--json", '{"base":"integers","d":[1]}'],
        ["rees", "--step", "3,x"],
        ["rees", "--step", "2,-1"],
        ["rees", "--step", "-1"],
        # argparse's own errors: an unknown option, a missing required option
        ["witt", "add", "--ring", "integers", "--index-set", "div:2", "--a", "1,0", "--b", "1,0",
         "--bogus"],
        ["witt", "add", "--ring", "integers", "--a", "1,0", "--b", "1,0"],
        # refused by the morphism budget: 512 objects over W_{div:2}(Z/4)
        ["prismatic", "--ring", "zmod:4", "--index-set", "div:2", "--xi", "2,3", "--p", "2",
         "--gens", "x,y", "--relations", "1*x*y"],
        # V_4 has no source over div:6: 4 is not in the index set
        ["verschiebung", "--n", "4", "--ring", "integers", "--index-set", "div:6", "--a", "1,2"],
    ],
)
def test_malformed_input_exit_code(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cone_witness_output(capsys):
    code, out, _ = run_cli(
        ["cone", "--base", "quot(poly(rationals;t);1*t^2)", "--d", "1*t,0"], capsys
    )
    assert code == 1
    assert json.loads(out) == {"quasi_ideal_law": False, "witness": [["1", "0"], ["0", "1"]]}
