import hashlib
import json
import os
import shutil
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import pytest

import wittforge.universal as universal
from wittforge.indexset import IndexSet, index_set_make
from wittforge.sparsepoly import IntPoly
from wittforge.universal import (
    CACHE_FORMAT,
    _MEM,
    GenerationError,
    UniversalEntry,
    _certify_step,
    _entry_from_json,
    clear_memory_cache,
    generate_universal_polynomials,
    get_universal,
    ghost_poly,
)

E2 = IndexSet.divisors_of(2)


def test_ghost_poly():
    g2 = ghost_poly(E2, 2, 0, 2)
    # g_2 = x_1^2 + 2 x_2 in variables (x1, x2, y1, y2)
    assert g2 == IntPoly(4, {(2, 0, 0, 0): 1, (0, 1, 0, 0): 2})


def test_sum_product_frozen_forms():
    s = get_universal(E2, "sum")
    assert s.poly(1) == IntPoly(4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert s.poly(2) == IntPoly(4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (1, 0, 1, 0): -1})
    m = get_universal(E2, "product")
    assert m.poly(2) == IntPoly(4, {(2, 0, 0, 1): 1, (0, 1, 2, 0): 1, (0, 1, 0, 1): 2})


def test_negation_family():
    n = get_universal(E2, "negation")
    assert n.poly(1) == IntPoly(2, {(1, 0): -1})
    # ghost(neg) = -ghost: n2 = -x1^2 - x2
    assert n.poly(2) == IntPoly(2, {(2, 0): -1, (0, 1): -1})


def test_frobenius_family():
    E = IndexSet.p_typical(2, 1)
    f = get_universal(E, "frobenius:2")
    # F_2(x1, x2) has the single coordinate x1^2 + 2 x2
    assert f.poly(1) == IntPoly(2, {(2, 0): 1, (0, 1): 2})
    fid = get_universal(E, "frobenius:1")
    assert fid.poly(1) == IntPoly(2, {(1, 0): 1})
    assert fid.poly(2) == IntPoly(2, {(0, 1): 1})


@pytest.mark.parametrize("op", [
    "foo", "frobenius:3", "frobenius:x", "frobenius:", "frobenius:2:2",
    "frobenius: 2", "frobenius:2 ", " frobenius:2", "2", "frobenius:None",
])
def test_bad_family_name_is_typed(op):
    get_universal(E2, "frobenius:2")
    with pytest.raises(GenerationError):
        get_universal(E2, op)
    # a family has one name, so it is cached under one key
    assert (E2.key(), "frobenius:2") in _MEM and (E2.key(), op) not in _MEM


def test_generation_certificates_for_oversized_levels(monkeypatch):
    E = IndexSet.p_typical(5, 4)
    monkeypatch.setattr(universal, "DEFAULT_TERM_CAP", 200)
    entry = generate_universal_polynomials(E, "sum")
    assert 625 in entry.certified
    assert entry.polys[625] is None
    assert entry.polys[1] is not None
    with pytest.raises(Exception):
        entry.poly(625)


def test_certify_step_is_exact():
    # the congruence checker runs on sparse ghosts only
    _certify_step(IndexSet.p_typical(5, 4), "sum", 625)
    _certify_step(IndexSet.p_typical(5, 4), "product", 625)
    _certify_step(IndexSet.divisors_of(30), "product", 30)


def test_json_round_trip():
    entry = get_universal(E2, "sum")
    obj = json.loads(json.dumps(entry.to_json()))
    back = _entry_from_json(obj)
    assert back.polys[2] == entry.polys[2]


def test_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("WITTFORGE_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    E = IndexSet.divisors_of(4)
    first = get_universal(E, "sum")
    files = os.listdir(tmp_path)
    assert any("sum" in f for f in files)
    (name,) = files
    with open(tmp_path / name) as fh:
        assert fh.read() == json.dumps(first.to_json())
    clear_memory_cache()
    second = get_universal(E, "sum")
    assert first.polys[4] == second.polys[4]
    clear_memory_cache()


def test_json_round_trip_two_byte_exponents(tmp_path, monkeypatch):
    # level 257 of the sum over {1, 257} has exponent 256, so two bytes each
    E = index_set_make("ptyp:257:2")
    entry = generate_universal_polynomials(E, "sum")
    obj = json.loads(json.dumps(entry.to_json()))
    assert obj["format"] == CACHE_FORMAT
    assert obj["polynomials"]["1"]["width"] == 1
    assert obj["polynomials"]["257"]["width"] == 2
    back = _entry_from_json(obj)
    assert back.polys == entry.polys and back.certified == entry.certified
    # identical invocations write byte-identical files
    written = []
    for sub in ("a", "b"):
        monkeypatch.setenv("WITTFORGE_CACHE_DIR", str(tmp_path / sub))
        clear_memory_cache()
        get_universal(E, "sum")
        (name,) = os.listdir(tmp_path / sub)
        written.append((tmp_path / sub / name).read_bytes())
    clear_memory_cache()
    assert written[0] == written[1]


# a cache file written by the tuple-keyed engine that packed levels replaced:
# level 1 on one-byte exponents, level 257 on two-byte ones (x1^256), level
# 66049 certified
FIXTURE = Path(__file__).parent / "data" / "sum__1_257_66049.json"


def test_cache_file_of_tuple_keyed_engine_loads(tmp_path, monkeypatch):
    E = index_set_make("ptyp:257:2")
    expected = generate_universal_polynomials(E, "sum")
    obj = json.loads(FIXTURE.read_text())
    assert [obj["polynomials"][n]["width"] for n in ("1", "257")] == [1, 2]
    shutil.copy(FIXTURE, tmp_path)
    monkeypatch.setenv("WITTFORGE_CACHE_DIR", str(tmp_path))

    def no_generation(*args):
        raise AssertionError("the cache file was not used")

    monkeypatch.setattr(universal, "generate_universal_polynomials", no_generation)
    clear_memory_cache()
    try:
        loaded = get_universal(E, "sum")
    finally:
        clear_memory_cache()
    assert loaded.polys == expected.polys and loaded.certified == expected.certified == [66049]
    assert loaded.poly(257).terms == expected.poly(257).terms


def test_two_byte_level_round_trips():
    # the fixture lists its terms in the old engine's order and a write
    # sorts them; loading a written file and writing again gives it back
    # byte for byte
    old = _entry_from_json(json.loads(FIXTURE.read_text()))
    text = json.dumps(old.to_json())
    entry = _entry_from_json(json.loads(text))
    assert entry.poly(257).width == 2 and entry.poly(1).width == 1
    assert entry.polys == old.polys and entry.certified == old.certified
    assert json.dumps(entry.to_json()) == text


def test_file_bytes_depend_on_the_terms_alone():
    # the same terms inserted in two orders write identical bytes, on one-,
    # two- and eight-byte exponents, and load back to the same polynomial
    for top in (3, 300, 2**40):
        terms = {(i, top - i, i % 2): (-1) ** i * (i + 1) for i in range(0, top, max(1, top // 50))}
        forward = IntPoly(3, terms)
        backward = IntPoly(3, dict(reversed(terms.items())))
        assert list(forward.packed) != list(backward.packed)
        data = universal._level_to_json(forward)
        assert json.dumps(data) == json.dumps(universal._level_to_json(backward))
        assert universal._level_from_json(data, 3) == forward


def test_stored_terms_stay_packed(monkeypatch):
    # bytes held per stored term: a dict entry, a packed key and a coefficient
    # come to about 100; a tuple of exponents per term took about 220
    monkeypatch.delenv("WITTFORGE_CACHE_DIR", raising=False)
    E = index_set_make("div:24")
    clear_memory_cache()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        entry = get_universal(E, "sum")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        clear_memory_cache()
    terms = sum(p.num_terms() for p in entry.polys.values() if p is not None)
    assert terms == 10_072
    assert held / terms < 150


def _old_format(entry):
    """The cache layout of earlier versions: sorted [{name: exponent}, c] terms."""
    def poly(p):
        return [[{entry.names[i]: e for i, e in enumerate(exps) if e}, c]
                for exps, c in sorted(p.terms.items())]

    return {
        "op": entry.op,
        "index_set": list(entry.index_set.elements),
        "variables": entry.names,
        "polynomials": {str(n): None if p is None else poly(p) for n, p in entry.polys.items()},
        "certified": list(entry.certified),
    }


def _other_format(entry):
    obj = entry.to_json()
    obj["format"] = CACHE_FORMAT + 1
    return json.dumps(obj)


def _truncated(entry):
    return json.dumps(entry.to_json())[:-40]


def _wrong_length(entry):
    obj = entry.to_json()
    obj["polynomials"]["4"]["exponents"] += "0000"
    return json.dumps(obj)


def _wrong_variables(entry):
    obj = entry.to_json()
    obj["variables"] = obj["variables"][::-1]
    return json.dumps(obj)


def _zero_coefficient(entry):
    obj = entry.to_json()
    obj["polynomials"]["4"]["coefficients"][0] = 0
    return json.dumps(obj)


def _duplicate_monomial(entry):
    obj = entry.to_json()
    level = obj["polynomials"]["4"]
    nbytes = 2 * len(entry.names) * level["width"]
    level["exponents"] = level["exponents"][:nbytes] * len(level["coefficients"])
    return json.dumps(obj)


@pytest.mark.parametrize("spoil", [
    lambda e: json.dumps(_old_format(e)),
    _other_format,
    _truncated,
    _wrong_length,
    _wrong_variables,
    _zero_coefficient,
    _duplicate_monomial,
], ids=["old-format", "other-format", "truncated", "wrong-length", "wrong-variables", "zero-coefficient",
        "duplicate-monomial"])
def test_unfit_cache_file_is_regenerated(tmp_path, monkeypatch, spoil):
    E = IndexSet.divisors_of(4)
    entry = generate_universal_polynomials(E, "sum")
    monkeypatch.setenv("WITTFORGE_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    path = universal._cache_path(E, "sum")
    with open(path, "w") as fh:
        fh.write(spoil(entry))
    try:
        got = get_universal(E, "sum")
    finally:
        clear_memory_cache()
    assert got.polys == entry.polys
    # the unfit file was overwritten with the current format
    with open(path) as fh:
        assert fh.read() == json.dumps(entry.to_json())
    assert os.listdir(tmp_path) == [os.path.basename(path)]


def test_concurrent_cache_writes(tmp_path, monkeypatch):
    # two threads generate one family and meet inside the write step, so both
    # have a temp file open before either renames it into place
    monkeypatch.setenv("WITTFORGE_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    barrier = threading.Barrier(2, timeout=60)

    def dumps(obj):
        barrier.wait()
        return json.dumps(obj)

    monkeypatch.setattr(universal, "json", types.SimpleNamespace(dumps=dumps, load=json.load))
    replace, renamed = os.replace, []

    def counting_replace(src, dst):
        replace(src, dst)
        renamed.append(src)

    monkeypatch.setattr(os, "replace", counting_replace)
    E = IndexSet.divisors_of(4)
    results, errors = [], []

    def worker():
        try:
            results.append(get_universal(E, "sum"))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        clear_memory_cache()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 2 and results[0].polys == results[1].polys
    # each writer renamed a temp file of its own into place
    assert len(renamed) == 2 and renamed[0] != renamed[1]
    (name,) = os.listdir(tmp_path)
    assert not name.endswith(".tmp")
    with open(tmp_path / name) as fh:
        assert fh.read() == json.dumps(results[0].to_json())


def test_concurrent_generation_idempotent():
    clear_memory_cache()
    E = IndexSet.divisors_of(12)
    results = []

    def worker():
        results.append(get_universal(E, "product"))

    # more threads than cores, switching often, so get_universal's check and
    # its first-write-wins store interleave
    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 and all(r is results[0] for r in results)


def test_intpoly_engine():
    p = IntPoly(2, {(1, 0): 1, (0, 1): 1})
    assert (p**2) == IntPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (p - p) == IntPoly(2)
    q = (p**2).exact_div_int(1)
    assert q == p**2
    with pytest.raises(Exception):
        (p**2).exact_div_int(2)
    assert p.frobenius_substitute(3) == IntPoly(2, {(3, 0): 1, (0, 3): 1})


def test_certificates_agree_with_exact_expansion(monkeypatch):
    # force certificate mode on levels that are also small enough to expand,
    # then confirm the materialized ground truth exists with exact divisions
    for E, op in (
        (IndexSet.divisors_of(12), "sum"),
        (IndexSet.divisors_of(12), "product"),
        (IndexSet.p_typical(3, 3), "sum"),
    ):
        monkeypatch.setattr(universal, "DEFAULT_TERM_CAP", 5)
        forced = generate_universal_polynomials(E, op)
        monkeypatch.setattr(universal, "DEFAULT_TERM_CAP", 10**9)
        exact = generate_universal_polynomials(E, op)
        assert forced.certified, "expected certificate-mode levels"
        assert not exact.certified
        for n in forced.certified:
            assert exact.polys[n] is not None  # exact division succeeded too


# SHA-256 of (level, sorted terms) over every level of a family, as produced
# by the binary-powering engine that the chained, symmetric one replaced
PINNED_SHA256 = {
    ("div:12", "sum"): "dcb10b18e42759b3e30607408dad3294614f5da83c5abd4a9e99cf2aa821dfe1",
    ("div:12", "product"): "86d6eb0c8ec56205e7b2661d442dc27fe63f68cdcbf52f1fec698b699c5ed47a",
    ("div:12", "negation"): "0e2e84aa6487ffdde2c02b53965c72fa0c32970be41a4f86b3e24bc8d82ef9dc",
    ("ptyp:2:4", "sum"): "3892ac6c79e58243d106b7393c5138b31b8ee530a8c4d9cb711b836f65e7c368",
    ("ptyp:2:4", "product"): "44591887241076e2d21dd6c618c7101f56e484ecf220992c7f2814d7ed86e9b9",
    ("ptyp:2:4", "negation"): "0de487e503d7d29893b8db29730c6b62b9417030d1f87be75a06442634a99ddb",
    ("ptyp:3:3", "sum"): "063dcef02ebd9fd9daa6b793506d1e16e467cb3670c84fce21b80023c0a86a1e",
    ("ptyp:3:3", "product"): "2a675fec0fb0a4335e381657cd524f3b21cd5bba8a2033e88fe613f8fb03cc24",
    ("ptyp:3:3", "negation"): "80591bd6be99cc66281677471e8f5a89507714a0e5c7d0522fd4ddf661b85b5b",
}


@pytest.mark.parametrize("spec, op", sorted(PINNED_SHA256))
def test_generation_output_pinned(spec, op):
    entry = generate_universal_polynomials(index_set_make(spec), op)
    assert not entry.certified
    h = hashlib.sha256()
    for n in entry.levels:
        h.update(repr((n, sorted(entry.polys[n].terms.items()))).encode())
    assert h.hexdigest() == PINNED_SHA256[spec, op]
