import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkron import verify
from qkron.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cn(capsys):
    code, out, _ = run_cli(capsys, "cn", "--r", "10", "--n", "5")
    assert code == 0 and out == "980\n"
    code, out, _ = run_cli(capsys, "cn", "--r", "2", "--n", "5", "--format", "json")
    assert code == 0 and json.loads(out) == {"r": 2, "n": 5, "c": 4}


def test_cn_invalid_exit_code(capsys):
    code, out, err = run_cli(capsys, "cn", "--r", "1", "--n", "5")
    assert code == 2
    assert "InvalidParameter" in err
    assert json.loads(out)["error"] == "InvalidParameter"


def test_dyck(capsys):
    code, out, _ = run_cli(capsys, "dyck", "--r", "3", "--n", "5")
    assert code == 0 and out.startswith("hhvhhvhv\n")
    code, out, _ = run_cli(capsys, "dyck", "--r", "3", "--n", "5", "--format", "json")
    doc = json.loads(out)
    assert doc == {"word": "hhvhhvhv", "v_index": [3, 6, 8]}


def test_families(capsys):
    code, out, _ = run_cli(capsys, "families", "--r", "2", "--n", "5")
    assert code == 0 and out == "families: 13\n"
    code, out, _ = run_cli(
        capsys, "families", "--r", "2", "--n", "4", "--list", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["count"] == 5 and len(doc["families"]) == 5


def test_families_budget(capsys):
    code, out, err = run_cli(
        capsys, "families", "--r", "2", "--n", "6", "--list", "--budget", "3"
    )
    assert code == 10
    assert "BudgetExceeded" in err


def _refusal_stubs(monkeypatch, module):
    """Make one check of the module refuse: a gr_table source with
    non-integral indices, a module whose every candidate fails
    certification, or two green labels with distinct windows at every
    offset (the caches that would skip classify are cleared)."""
    from qkron import cluster, dyck, families, fforacle
    from qkron.torus import TorusElement

    if module == "cluster":
        monkeypatch.setattr(cluster, "xvar_recursive", lambda r, n: TorusElement.monomial(1, 1))
    elif module == "fforacle":
        monkeypatch.setattr(fforacle, "end_dim", lambda mod: 2)
    else:
        labels = [(3, w, d, w) for d in range(1, 64) for w in (1, 2)]
        monkeypatch.setattr(dyck, "green_labels", lambda r, n: labels)
        for fn in (families.path_elements, families._dp_tables, families._list_states,
                   families._expand):
            fn.cache_clear()


@pytest.mark.parametrize("module, argv, code, error", [
    ("cluster", ["grtable", "--r", "2", "--n", "4"], 11, "ExtractionFailed"),
    ("fforacle", ["ffcount", "--p", "2", "--r", "2", "--n", "6", "--e1", "1", "--e2", "1"],
     12, "ConstructionFailed"),
    ("dyck", ["families", "--r", "3", "--n", "5"], 8, "AmbiguousGreenLabel"),
])
def test_refusals_exit_codes(capsys, monkeypatch, module, argv, code, error):
    _refusal_stubs(monkeypatch, module)
    got, out, err = run_cli(capsys, *argv, "--format", "json")
    assert got == code and error in err
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["families", "--r", "2", "--n", "5", "--list"],
        ["families", "--r", "2", "--n", "5"],
        ["xvar", "--r", "2", "--n", "4", "--method", "enum"],
        ["xvar", "--r", "2", "--n", "4"],
    ],
    ids=["families-list", "families", "xvar-enum", "xvar"],
)
def test_families_negative_budget_is_invalid(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--budget", "-1")
    assert code == 2
    assert json.loads(out)["error"] == "InvalidParameter"


def test_families_past_a_thousand_edges(capsys):
    # 1,309 edges: a scan that recursed once per edge refused this with exit 10
    code, out, _ = run_cli(capsys, "families", "--r", "11", "--n", "6")
    assert code == 0 and len(out) == len("families: ") + 395 + 1


def test_xvar_json_and_methods(capsys):
    code, out, _ = run_cli(
        capsys, "xvar", "--r", "2", "--n", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"][0] == {
        "x1": -2,
        "x2": -1,
        "coeff": {"coeffs": [{"q2": -2, "c": "1"}]},
    }
    code, out2, _ = run_cli(
        capsys,
        "xvar", "--r", "2", "--n", "4", "--format", "json", "--method", "enum",
    )
    doc2 = json.loads(out2)
    # enum route carries the global q^(1/2): exponents shift by one unit
    assert [t["x1"] for t in doc2["terms"]] == [t["x1"] for t in doc["terms"]]


def test_grtable_doc(capsys):
    code, out, _ = run_cli(capsys, "grtable", "--r", "2", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d1"] == 2 and doc["d2"] == 1
    assert len(doc["entries"]) == 4


def test_strata_cli(capsys):
    code, out, _ = run_cli(
        capsys, "strata", "--r", "2", "--n", "4", "--e2", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["zprime"][2]["poly"] == {"coeffs": [{"q2": 0, "c": "1"}]}
    code, out, _ = run_cli(
        capsys, "strata", "--r", "4", "--n", "6", "--e2", "1", "--closed", "--p", "0"
    )
    assert code == 0 and "Zbar'(0)" in out


def test_strata_closed_rejects_r_below_2(capsys):
    message = "r must be an integer >= 2, got 1"
    for fmt in ("text", "json"):
        code, out, err = run_cli(
            capsys, "strata", "--r", "1", "--n", "6", "--e2", "1", "--closed", "--format", fmt
        )
        assert code == 2
        assert err == f"error: InvalidParameter: {message}\n"
        assert json.loads(out) == {"error": "InvalidParameter", "message": message}


@pytest.mark.parametrize(
    "argv, d1",
    [
        (["--r", "2", "--n", "6", "--e2", "1"], 4),
        (["--r", "2", "--n", "6", "--e2", "1", "--closed"], 4),
    ],
)
@pytest.mark.parametrize("p", ["99", "-1"])
def test_strata_rejects_p_out_of_range(capsys, argv, d1, p):
    message = f"p must lie in 0..{d1}, got {p}"
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "strata", *argv, "--p", p, "--format", fmt)
        assert code == 2
        assert err == f"error: InvalidParameter: {message}\n"
        assert json.loads(out) == {"error": "InvalidParameter", "message": message}


def test_example13(capsys):
    code, out, _ = run_cli(capsys, "example13")
    assert code == 0
    assert out.startswith("q^73+2q^72+4q^71+")
    assert out.rstrip().endswith("chi = -27")
    code, out, _ = run_cli(capsys, "example13", "--r", "5", "--p", "1")
    assert "-q^16" in out and "chi = 25" in out.replace("\n", " ")


def test_ffcount(capsys):
    code, out, _ = run_cli(
        capsys, "ffcount", "--p", "2", "--r", "2", "--n", "6", "--e1", "0", "--e2", "1"
    )
    assert code == 0 and out == "7\n"


def test_ffstrata(capsys):
    code, out, _ = run_cli(
        capsys,
        "ffstrata", "--p", "2", "--r", "2", "--n", "4",
        "--side", "zp", "--param", "2", "--s", "0",
    )
    assert code == 0 and out == "1\n"


def test_verify_bridge_single_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bridge", "--r", "2", "--n", "6")
    assert code == 0
    assert out.startswith("ok bridge:")


def test_verify_bridge_needs_both_r_and_n(capsys):
    for flag in ("--r", "--n"):
        code, out, err = run_cli(capsys, "verify", "--suite", "bridge", flag, "2")
        assert code == 2 and "InvalidParameter" in err
        assert "--r and --n go together" in json.loads(out)["message"]


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    for name in ("bridge", "qpascal", "ffcount", "colors"):
        assert name in out


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2 and "InvalidParameter" in err
    assert json.loads(out)["message"].startswith("unknown suite 'nope'; known:")


def test_verify_rejects_arguments_the_suite_does_not_take(capsys):
    for flags in (["--r", "3"], ["--n", "5"], ["--r", "2", "--n", "5"]):
        code, out, err = run_cli(capsys, "verify", "--suite", "cn", *flags)
        assert code == 2 and err.startswith("error: InvalidParameter: suite 'cn'")
        assert json.loads(out)["error"] == "InvalidParameter"


def test_verify_matrix_rejects_r_with_the_exact_message(capsys):
    message = "suite 'matrix' got an unexpected keyword argument 'r'"
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "verify", "--suite", "matrix", "--r", "2", "--format", fmt)
        assert code == 2
        assert err == f"error: InvalidParameter: {message}\n"
        assert json.loads(out) == {"error": "InvalidParameter", "message": message}


def test_unwritable_output_is_reported(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "cn", "--r", "2", "--n", "5", "--output", str(target))
    assert code == 1 and not target.exists()
    assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1
    assert json.loads(out)["error"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "cmd", ["cn", "dyck", "families", "xvar", "grtable", "strata", "ffcount", "ffstrata"]
)
@pytest.mark.parametrize("missing", ["r", "n"])
def test_missing_r_or_n(capsys, cmd, missing):
    given = {"r": ["--r", "2"], "n": ["--n", "4"]}
    extra = {
        "strata": ["--e2", "1"],
        "ffcount": ["--p", "2", "--e1", "1", "--e2", "1"],
        "ffstrata": ["--p", "2", "--side", "zp", "--param", "2", "--s", "0"],
    }.get(cmd, [])
    argv = [cmd, *given["n" if missing == "r" else "r"], *extra]
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        message = f"--{missing} is required for {cmd}"
        assert code == 2
        assert err == f"error: InvalidParameter: {message}\n"
        assert json.loads(out) == {"error": "InvalidParameter", "message": message}


def test_verify_failure_reports_then_exits_1(tmp_path, capsys, monkeypatch):
    def suite_boom():
        yield "holds", True
        yield "breaks", False, "d"

    monkeypatch.setitem(verify.SUITES, "boom", (suite_boom, "always fails"))
    report = "ok boom: holds\nFAIL boom: breaks (d)\n"
    code, out, err = run_cli(capsys, "verify", "--suite", "boom")
    assert (code, out, err) == (1, report, "")
    target = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "verify", "--suite", "boom", "--output", str(target))
    assert (code, out, err) == (1, "", "")
    assert target.read_text() == report
    code, out, _ = run_cli(capsys, "verify", "--suite", "boom", "--format", "json")
    assert code == 1 and json.loads(out)["passed"] is False


def test_suites_registry_is_the_suite_functions():
    defined = {
        name.removeprefix("suite_"): fn
        for name, fn in vars(verify).items()
        if name.startswith("suite_") and callable(fn)
    }
    assert {name: fn for name, (fn, _) in verify.SUITES.items()} == defined
    assert all(inspect.isgeneratorfunction(fn) for fn in defined.values())


def test_output_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            capsys,
            "grtable", "--r", "2", "--n", "5",
            "--format", "json", "--output", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point():
    # the child finds qkron where this process did, installed or not
    src = str(Path(verify.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "qkron", "cn", "--r", "3", "--n", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0 and proc.stdout == "8\n"


def test_cli_matches_bench_references(capsys):
    """Every CLI command the benchmark checks prints the recorded bytes and
    exits with the recorded code when run in-process."""
    refs = json.loads((Path(__file__).parents[1] / "bench" / "references.json").read_text())
    cli_refs = {key: ref for key, ref in refs.items() if isinstance(ref, dict)}
    assert cli_refs
    for key, ref in sorted(cli_refs.items()):
        code, out, _ = run_cli(capsys, *key.split())
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, digest) == (ref["rc"], ref["sha256"]), key
