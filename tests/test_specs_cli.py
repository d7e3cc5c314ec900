import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from modgraph import specs as specs_mod
from modgraph import zoo
from modgraph.caps import Caps, caps_from_env
from modgraph.checks import reports_to_jsonl, run_suite
from modgraph.cli import main
from modgraph.errors import SpecError
from modgraph.lattice import enumerate_submodules
from modgraph.rings import ring_zmod
from modgraph.specs import (
    build_instance,
    build_ring,
    describe_ring_spec,
    dumps_spec,
    instance_name,
    make_spec,
    normalize_spec,
    spec_hash,
)
from modgraph.zoo import named_instance_specs

Z12_SPEC = {"version": 1, "ring": {"kind": "zmod", "n": 12}, "module": {"kind": "regular"}}


def test_normalize_round_trips_byte_identically():
    normalized = normalize_spec(Z12_SPEC)
    assert dumps_spec(normalize_spec(normalized)) == dumps_spec(normalized)
    assert spec_hash(normalized) == spec_hash(normalize_spec(json.loads(dumps_spec(normalized))))


def test_unknown_fields_rejected():
    with pytest.raises(SpecError):
        normalize_spec({**Z12_SPEC, "extra": 1})
    with pytest.raises(SpecError):
        normalize_spec({"version": 1, "ring": {"kind": "zmod", "n": 4, "bogus": 2}, "module": {"kind": "regular"}})
    with pytest.raises(SpecError):
        normalize_spec({"version": 1, "ring": {"kind": "nope"}, "module": {"kind": "regular"}})
    with pytest.raises(SpecError):
        normalize_spec({"version": 2, **{k: Z12_SPEC[k] for k in ("ring", "module")}})


def test_every_ring_kind_builds():
    z4 = ring_zmod(4)
    specs = [
        ({"kind": "gf", "p": 3, "k": 2}, 9),
        ({"kind": "zmod", "n": 10}, 10),
        ({"kind": "matrix", "p": 2, "k": 1, "m": 2}, 16),
        ({"kind": "triangular", "p": 2, "k": 2, "subfield_degree": 1}, 32),
        ({"kind": "product", "left": {"kind": "zmod", "n": 2}, "right": {"kind": "zmod", "n": 2}}, 4),
        ({"kind": "poly_quot", "p": 2, "relations": ["x^3"], "variables": ["x"]}, 8),
        ({"kind": "table", "add": z4.add.tolist(), "mul": z4.mul.tolist()}, 4),
    ]
    for ring_spec, size in specs:
        inst = build_instance(make_spec(ring_spec, {"kind": "regular"}))
        assert inst.ring.size == size, ring_spec["kind"]


def test_module_kinds_build():
    spec = make_spec(
        {"kind": "zmod", "n": 4},
        {
            "kind": "direct_sum",
            "left": {"kind": "quotient", "of": {"kind": "regular"}, "kernel_gens": [2]},
            "right": {"kind": "regular"},
        },
    )
    inst = build_instance(spec)
    assert inst.module.size == 8
    assert instance_name(spec) == "zmod(4)/sum(quot(regular;2),regular)"
    reg = ring_zmod(3)
    custom = make_spec(
        {"kind": "zmod", "n": 3},
        {"kind": "custom", "add": reg.add.tolist(), "act": reg.mul.tolist()},
    )
    assert build_instance(custom).module.size == 3


def test_caps_env_parsing(monkeypatch):
    monkeypatch.setenv("MODGRAPH_CAPS", "max_ring_size=99, max_exact_vertices=7")
    caps = caps_from_env()
    assert caps.max_ring_size == 99 and caps.max_exact_vertices == 7
    monkeypatch.setenv("MODGRAPH_CAPS", "bogus=1")
    with pytest.raises(SpecError, match="'bogus'"):
        caps_from_env()
    monkeypatch.setenv("MODGRAPH_CAPS", "max_ring_size=x")
    with pytest.raises(SpecError, match="'max_ring_size'"):
        caps_from_env()


@pytest.mark.parametrize("value", ["bogus=1", "max_ring_size=x", "verify_samples=100"])
def test_cli_bad_caps_env_exits_two_without_traceback(value):
    env = {**os.environ, "MODGRAPH_CAPS": value}
    proc = subprocess.run(
        [sys.executable, "-m", "modgraph.cli", "zoo"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "z12.json"
    path.write_text(json.dumps(Z12_SPEC))
    return str(path)


def test_cli_invariants_deterministic(spec_file, capsys):
    assert main(["invariants", spec_file]) == 0
    first = capsys.readouterr().out
    assert main(["invariants", spec_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["omega"] == 3 and payload["chi"] == 3
    assert payload["girth"] == 3 and payload["diameter"] == 2
    assert payload["connected"] is True


def test_cli_graph_formats(spec_file, capsys):
    assert main(["graph", spec_file, "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph intersection {")
    assert main(["graph", spec_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 4


def test_cli_lattice_listing(spec_file, capsys):
    assert main(["lattice", spec_file]) == 0
    out = capsys.readouterr().out
    assert "6 submodules" in out


def test_cli_zoo(capsys):
    assert main(["zoo"]) == 0
    out = capsys.readouterr().out
    assert "triangular(F4,F2)/regular" in out


def test_cli_verify_single_instance(spec_file, capsys, tmp_path):
    jsonl = tmp_path / "reports.jsonl"
    code = main(["verify", spec_file, "--check", "C9-triangle-free,C10-connectivity",
                 "--jsonl", str(jsonl)])
    assert code == 0
    out = capsys.readouterr().out
    assert "C10-connectivity" in out
    lines = jsonl.read_text().strip().splitlines()
    assert len(lines) == 2


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["invariants", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({**Z12_SPEC, "surprise": True}))
    assert main(["invariants", str(unknown)]) == 2
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"version": 1, "ring": {"kind": "zmod", "n": 4000}, "module": {"kind": "regular"}}))
    assert main(["invariants", str(big)]) == 3
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", "--family", "nonsense"]) == 2
    capsys.readouterr()


BAD_SPECS = {
    "product-without-right": {"kind": "product", "left": {"kind": "zmod", "n": 2}},
    "zmod-n-not-int": {"kind": "zmod", "n": "x"},
    "matrix-m-negative": {"kind": "matrix", "p": 2, "k": 1, "m": -1},
    "triangular-degree-zero": {"kind": "triangular", "p": 2, "k": 2, "subfield_degree": 0},
    "relations-not-list": {"kind": "poly_quot", "p": 2, "relations": 5},
    "table-ragged": {"kind": "table", "add": [[0, 1], [1]], "mul": [[0, 0], [0, 1]]},
    "table-entry-past-carrier": {"kind": "table", "add": [[0, 1], [1, 65536]], "mul": [[0, 0], [0, 1]]},
    "exponent-not-a-number": {"kind": "poly_quot", "p": 2, "relations": ["x^a"], "variables": ["x"]},
    "exponent-not-an-integer": {"kind": "poly_quot", "p": 2, "relations": ["x^1.5"], "variables": ["x"]},
    "exponent-missing": {"kind": "poly_quot", "p": 2, "relations": ["x^"], "variables": ["x"]},
    "exponent-past-digit-limit": {"kind": "poly_quot", "p": 2, "relations": ["x^" + "9" * 5000], "variables": ["x"]},
    "variables-repeated": {"kind": "poly_quot", "p": 2, "relations": ["x^2"], "variables": ["x", "x"]},
}


@pytest.mark.parametrize(
    "spec",
    [{"version": 1, "ring": ring, "module": {"kind": "regular"}} for ring in BAD_SPECS.values()]
    + [
        {"version": 1, "ring": {"kind": "zmod", "n": 6},
         "module": {"kind": "quotient", "of": {"kind": "regular"}, "kernel_gens": [99]}},
        {"version": 1, "ring": {"kind": "zmod", "n": 6},
         "module": {"kind": "quotient", "of": {"kind": "regular"}, "kernel_gens": [-1]}},
        {**Z12_SPEC, "caps": {"max_ring_size": "x"}},
    ],
    ids=list(BAD_SPECS) + ["kernel-index-past-module", "kernel-index-negative", "cap-not-int"],
)
def test_cli_bad_spec_exits_two(spec, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["lattice", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


OVERSIZED_RINGS = {
    "matrix-m-300": {"kind": "matrix", "p": 2, "k": 1, "m": 300},
    "poly-quot-x-20000": {"kind": "poly_quot", "p": 2, "relations": ["x^20000"], "variables": ["x"]},
    "gf-k-20000": {"kind": "gf", "p": 2, "k": 20000},
}


@pytest.mark.parametrize(
    "text, code",
    [(json.dumps({"version": 1, "ring": ring, "module": {"kind": "regular"}}), 3)
     for ring in OVERSIZED_RINGS.values()]
    + [('{"version": 1, "ring": {"kind": "zmod", "n": ' + "9" * 5000 + '}, "module": {"kind": "regular"}}', 2)],
    ids=list(OVERSIZED_RINGS) + ["integer-with-5000-digits"],
)
def test_cli_oversized_spec_exits_without_traceback(text, code, tmp_path):
    # each of these sizes has more digits than Python will turn into a string
    path = tmp_path / "big.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "modgraph.cli", "lattice", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert proc.stderr.startswith("cap exceeded:" if code == 3 else "error:")
    assert "Traceback" not in proc.stderr
    if code == 3:
        assert "max_ring_size=1024" in proc.stderr and len(proc.stderr) < 200


def test_a_power_past_the_named_bound_is_written_as_a_power():
    assert specs_mod.power_name(2, 63) == str(2**63)
    assert specs_mod.power_name(2, 64) == "2^64"
    assert specs_mod.power_name(1, 2**31) == "1"
    assert describe_ring_spec({"kind": "matrix", "p": 3, "k": 10**9, "m": 2}) == "M2(F3^1000000000)"


def test_cli_huge_triangular_power_is_refused_by_the_ring_cap(tmp_path, capsys):
    path = tmp_path / "huge.json"
    ring = {"kind": "triangular", "p": 2, "k": 2147483648, "subfield_degree": 1}
    path.write_text(json.dumps({"version": 1, "ring": ring, "module": {"kind": "regular"}}))
    jsonl = tmp_path / "reports.jsonl"
    start = time.perf_counter()
    assert main(["verify", str(path), "--jsonl", str(jsonl)]) == 0
    reports = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(reports) == 11 and {r["instance"] for r in reports} == {"triangular(F2^2147483648,F2)/regular"}
    assert all(r["status"] == "SKIPPED" and "max_ring_size=1024" in r["witness"] for r in reports)
    capsys.readouterr()
    assert main(["lattice", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded:") and "max_ring_size=1024" in err
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("family", ["size:1", "size:0", "size:-5"])
def test_cli_family_bound_below_two_exits_two(family, capsys):
    assert main(["verify", "--family", family]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_subprocess_byte_identical(spec_file):
    """End-to-end determinism through a fresh interpreter each run."""
    runs = [
        subprocess.run(
            [sys.executable, "-m", "modgraph.cli", "graph", spec_file, "--format", "json"],
            capture_output=True, check=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_cli_verify_family_subset(capsys):
    code = main(["verify", "--family", "size:8", "--check", "C10-connectivity"])
    assert code == 0
    out = capsys.readouterr().out
    assert "C10-connectivity" in out and "FAIL" not in out


def test_cli_filter_applies_to_named(named_contexts):
    proc = subprocess.run(
        [sys.executable, "-m", "modgraph.cli", "verify", "--family", "named",
         "--filter", "triangle-free", "--check", "C9-triangle-free"],
        capture_output=True, text=True,
    )
    kept = sum(ctx.graph.is_triangle_free() for ctx in named_contexts)
    assert proc.returncode == 0 and 0 < kept < len(named_contexts)
    assert proc.stdout.splitlines()[0].split() == ["C9-triangle-free", f"PASS={kept}"]
    assert proc.stdout.splitlines()[-1] == f"{kept} reports, ok"


def test_cli_filter_with_a_spec_file_exits_two(spec_file):
    proc = subprocess.run(
        [sys.executable, "-m", "modgraph.cli", "verify", spec_file, "--filter", "triangle-free"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


# sha256 of the stdout of lattice, graph --format json, graph --format dot and
# invariants on each named spec, in zoo order; a change to it is a change to
# the output of those commands
PER_SPEC_SHA256 = "84d7e53106de8f8653fb69d21308ba878dc583e06fb3dd9686d64c3ccd876678"


def test_per_spec_commands_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MODGRAPH_CAPS", raising=False)
    digest = hashlib.sha256()
    for k, spec in enumerate(named_instance_specs()):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(spec))
        for command, *flags in (["lattice"], ["graph", "--format", "json"],
                                ["graph", "--format", "dot"], ["invariants"]):
            assert main([command, str(path), *flags]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PER_SPEC_SHA256


def test_cli_respects_caps_env_var(spec_file, capsys, monkeypatch):
    monkeypatch.setenv("MODGRAPH_CAPS", "max_ring_size=8")
    assert main(["invariants", spec_file]) == 3  # Z/12 now exceeds the cap
    capsys.readouterr()


def test_cli_verify_exit_one_on_failing_check(spec_file, capsys, monkeypatch):
    """Exit code 1 is reserved for genuine check failures; inject one."""
    from modgraph import checks

    def always_fail(ctx):
        return checks.CheckReport("C0-injected", ctx.instance_id, checks.FAIL, "forced")

    monkeypatch.setitem(checks.ALL_CHECKS, "C0-injected", always_fail)
    assert main(["verify", spec_file, "--check", "C0-injected"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_does_not_import_numpy_ma():
    # the first np.unique in a process imports numpy.ma, which costs more
    # than a small verify run; the package dedupes with boolean masks
    code = "\n".join([
        "import contextlib, io, sys",
        "from modgraph.checks import run_suite",
        "from modgraph.cli import main",
        "from modgraph.zoo import family",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['verify', '--family', 'named']) == 0",
        "ctx = next(c for c in family(16) if c.instance_id == 'product(zmod(4),polyquot(F2,x^2))/regular')",
        "run_suite([ctx])",
        "print('numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_spec_level_caps_are_rejected(tmp_path, capsys):
    # caps come from the flags and MODGRAPH_CAPS only
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({**Z12_SPEC, "caps": {"max_submodules": 3, "max_exact_vertices": 2}}))
    for command in ("lattice", "verify"):
        assert main([command, str(path)]) == 2
        assert "unknown fields ['caps']" in capsys.readouterr().err


def test_cli_family_with_a_spec_file_exits_two(spec_file, capsys):
    assert main(["verify", spec_file, "--family", "size:4", "--check", "C10-connectivity"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_verify_skips_a_spec_past_the_ring_cap(spec_file, tmp_path, capsys):
    jsonl = tmp_path / "reports.jsonl"
    assert main(["verify", spec_file, "--max-ring-size", "8", "--jsonl", str(jsonl)]) == 0
    reports = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(reports) == 11
    for rep in reports:
        if rep["check"] == "C5-structured-shapes":  # read off the spec alone
            assert rep["status"] == "VACUOUS"
        else:
            assert rep["status"] == "SKIPPED" and "max_ring_size=8" in rep["witness"]
    capsys.readouterr()
    # the per-spec commands have no report to put it in
    assert main(["lattice", spec_file, "--max-ring-size", "8"]) == 3
    assert "max_ring_size=8" in capsys.readouterr().err


def test_named_run_under_a_ring_cap_skips_only_the_large_rings(named_contexts, tmp_path, capsys, monkeypatch):
    # the flag and the env key set the one cap on ring and module elements
    by_flag, by_env = tmp_path / "flag.jsonl", tmp_path / "env.jsonl"
    monkeypatch.delenv("MODGRAPH_CAPS", raising=False)
    assert main(["verify", "--family", "named", "--max-ring-size", "8", "--jsonl", str(by_flag)]) == 0
    monkeypatch.setenv("MODGRAPH_CAPS", "max_ring_size=8")
    assert main(["verify", "--family", "named", "--jsonl", str(by_env)]) == 0
    capsys.readouterr()
    assert by_flag.read_bytes() == by_env.read_bytes()
    capped = by_env.read_text().splitlines()
    uncapped = reports_to_jsonl(run_suite(named_contexts)[0]).splitlines()
    large = {ctx.instance_id for ctx in named_contexts if max(ctx.ring.size, ctx.module.size) > 8}
    assert len(capped) == len(uncapped) == 275 and len(large) == 16
    for got, want in zip(capped, uncapped):
        rep = json.loads(got)
        if rep["instance"] not in large:
            assert got == want
        elif rep["status"] == "SKIPPED":
            assert "max_ring_size=8" in rep["witness"]
        else:
            assert rep["check"] == "C5-structured-shapes" and rep["status"] == "VACUOUS"
            assert rep["details"] == {}


def test_a_capped_lattice_is_enumerated_once(monkeypatch):
    calls = []

    def counted(module, caps=None):
        calls.append(module.size)
        return enumerate_submodules(module, caps)

    monkeypatch.setattr(zoo, "enumerate_submodules", counted)
    cube = {"kind": "direct_sum", "left": {"kind": "regular"},
            "right": {"kind": "direct_sum", "left": {"kind": "regular"}, "right": {"kind": "regular"}}}
    spec = make_spec({"kind": "gf", "p": 2, "k": 1}, cube)
    reports, _ = run_suite(zoo.contexts([spec], Caps(max_submodules=5)))
    assert calls == [8]
    assert {r.status for r in reports} == {"SKIPPED", "VACUOUS"}
    assert all("max_submodules=5" in r.witness for r in reports if r.status == "SKIPPED")


def test_a_refused_build_is_not_tried_again(monkeypatch):
    calls = []

    def counted(spec, caps):
        calls.append(spec["kind"])
        return build_ring(spec, caps)

    monkeypatch.setattr(specs_mod, "build_ring", counted)
    pair = {"kind": "direct_sum", "left": {"kind": "regular"}, "right": {"kind": "regular"}}
    reports, _ = run_suite(zoo.contexts([make_spec({"kind": "zmod", "n": 12}, pair)], Caps(max_ring_size=100)))
    assert calls == ["zmod"]  # the ring was built, and the 144-element sum refused, once
    assert {r.status for r in reports} == {"SKIPPED", "VACUOUS"}
    assert all("max_ring_size=100" in r.witness for r in reports if r.status == "SKIPPED")
