import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvops import cli, families, linrel, moments, serialize
from mvops.construct import gram_schmidt_monic
from mvops.ttr import compute_ttr


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_disk_passes(capsys):
    code, out, _ = run_cli(["family", "disk", "--mu", "0", "--N", "4"], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_family_json_schema(capsys):
    code, out, _ = run_cli(["--json", "family", "disk", "--mu", "0.5", "--N", "3"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["tolerances"]["rank"] == pytest.approx(1e-9)
    assert all({"check", "pass"} <= set(r) for r in payload["checks"])
    assert payload["extras"]["classification"] == "full"


def test_family_expected_failure_counts_as_agreement(capsys):
    code, out, _ = run_cli(
        ["--json", "family", "cheb-koornwinder", "--kind", "1", "--rho", "0.5",
         "--N", "4"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["extras"]["orthogonal_verdict"] is False
    assert payload["extras"]["expected_orthogonal"] is False
    assert payload["extras"]["matches_expectation"] is True
    assert payload["extras"]["note"] == "matches expectation: not orthogonal"


def test_family_kind4_exclusion(capsys):
    code, out, _ = run_cli(
        ["--json", "family", "cheb-koornwinder", "--kind", "4", "--rho", "-1",
         "--N", "4"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["extras"]["orthogonal_verdict"] is False
    assert payload["extras"]["matches_expectation"] is True


def test_family_unknown_name_usage_error(capsys):
    code = cli.main(["family", "warp"])
    capsys.readouterr()
    assert code == 2


def test_family_math_failure_exit_code(capsys):
    code, out, _ = run_cli(
        ["--tol-res", "1e-18", "family", "disk", "--mu", "0", "--N", "3"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_counterexample_command(capsys):
    code, out, _ = run_cli(["--json", "counterexample", "--n", "8"], capsys)
    assert code == 0
    payload = json.loads(out)
    ranks = [r for r in payload["checks"] if r["check"] == "deficient-rank"]
    assert [r["degree"] for r in ranks] == list(range(2, 9))
    assert all(r["rank"] == r["degree"] - 1 for r in ranks)
    assert all(r["pass"] for r in payload["checks"])


def test_check_theorem4_on_disk_files(tmp_path, capsys):
    mu, N = 0.0, 5
    v = moments.disk_functional(mu)
    u = moments.left_multiply(moments.LinearPoly((-1.0, 0.0), 1.0), v)
    P, HP = gram_schmidt_monic(u, N)
    T = compute_ttr(P, u, HP)
    M = [None]
    for n in range(1, N + 1):
        m = np.zeros((n + 1, n))
        for k in range(n):
            m[k, k] = -(n - k) / (2 * n + 2 * mu + 2)
        M.append(m)
    # the closed-form blocks hold in the shared-leading basis; in monic
    # coordinates the relation blocks come from the Fourier expansion
    Q, _ = gram_schmidt_monic(v, N)
    rel = linrel.compute_relation(Q, P, u, HP)
    ttr_file = tmp_path / "ttr.json"
    rel_file = tmp_path / "rel.json"
    ttr_file.write_text(serialize.ttr_to_json(T))
    rel_file.write_text(serialize.relation_to_json(rel))
    code, out, _ = run_cli(
        ["--json", "check", "--theorem", "4", "--ttr", str(ttr_file),
         "--relation", str(rel_file)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True

    # counterexample side: compatibility holds but ranks fail -> exit 1
    ref = linrel.reference_ttr_for_counterexample(7)
    combined, cex_rel = linrel.counterexample(6)
    ttr_file.write_text(serialize.ttr_to_json(ref))
    rel_file.write_text(serialize.relation_to_json(cex_rel))
    code, out, _ = run_cli(
        ["--json", "check", "--theorem", "4", "--ttr", str(ttr_file),
         "--relation", str(rel_file)], capsys)
    assert code == 1
    payload = json.loads(out)
    compat = [r for r in payload["checks"] if r["check"] == "compatibility"]
    assert all(r["pass"] for r in compat)
    ranks = [r for r in payload["checks"] if r["check"] == "C~"]
    assert any(not r["pass"] for r in ranks)


def test_check_theorem3_zero_relation_trivial_pass(tmp_path, capsys):
    u = moments.disk_functional(0.0)
    P, H = gram_schmidt_monic(u, 4)
    T = compute_ttr(P, u, H)
    M = [None] + [np.zeros((n + 1, n)) for n in range(1, 5)]
    ttr_file = tmp_path / "t.json"
    rel_file = tmp_path / "m.json"
    ttr_file.write_text(serialize.ttr_to_json(T))
    rel_file.write_text(serialize.relation_to_json(linrel.LinearRelation(2, M)))
    code, out, _ = run_cli(
        ["check", "--theorem", "3", "--ttr", str(ttr_file),
         "--relation", str(rel_file)], capsys)
    assert code == 0


def test_check_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["check", "--theorem", "4", "--ttr", str(bad),
                     "--relation", str(bad)])
    capsys.readouterr()
    assert code == 2
    code = cli.main(["check", "--theorem", "4", "--ttr", "/nonexistent.json",
                     "--relation", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_generate_roundtrip(tmp_path, capsys):
    u = moments.cube_jacobi_functional((0.0, 0.0), (0.0, 0.0))
    P, H = gram_schmidt_monic(u, 4)
    T = compute_ttr(P, u, H)
    ttr_file = tmp_path / "ttr.json"
    out_file = tmp_path / "system.json"
    ttr_file.write_text(serialize.ttr_to_json(T))
    code, out, _ = run_cli(
        ["--json", "generate", "--ttr", str(ttr_file), "--out", str(out_file)],
        capsys)
    assert code == 0
    system = serialize.system_from_json(out_file.read_text())
    for n in range(system.N + 1):
        for k in range(n + 1):
            np.testing.assert_allclose(system.block(n, k), P.block(n, k), atol=1e-8)


def test_relate_between_serialized_systems(tmp_path, capsys):
    alpha, a1 = 1.0, 1.0
    u = moments.tensor(moments.laguerre_functional_1d(alpha),
                       moments.laguerre_functional_1d(0.0))
    v = moments.tensor(moments.krall_laguerre_functional(alpha, a1),
                       moments.laguerre_functional_1d(0.0))
    P, _ = gram_schmidt_monic(u, 4)
    Q, _ = gram_schmidt_monic(v, 4)
    pf = tmp_path / "p.json"
    qf = tmp_path / "q.json"
    rf = tmp_path / "rel.json"
    pf.write_text(serialize.system_to_json(P))
    qf.write_text(serialize.system_to_json(Q))
    code, out, _ = run_cli(
        ["--json", "relate", "--combined", str(qf), "--reference", str(pf),
         "--functional", "laguerre:kappa=1,0", "--out", str(rf)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["extras"]["classification"] == "full"
    rel = serialize.relation_from_json(rf.read_text())
    np.testing.assert_allclose(np.diag(rel.m(3)[:3]), [3.0, 2.0, 1.0], atol=1e-8)


def test_relate_bad_functional_exit_2(tmp_path, capsys):
    u = moments.disk_functional(0.0)
    P, _ = gram_schmidt_monic(u, 2)
    pf = tmp_path / "p.json"
    pf.write_text(serialize.system_to_json(P))
    code = cli.main(["relate", "--combined", str(pf), "--reference", str(pf),
                     "--functional", "warp:z=1"])
    capsys.readouterr()
    assert code == 2


def test_tol_rank_flag_reaches_the_report(capsys):
    code, out, _ = run_cli(
        ["--json", "--tol-rank", "0.9", "family", "disk", "--mu", "0", "--N", "3"], capsys)
    payload = json.loads(out)
    assert payload["tolerances"]["rank"] == pytest.approx(0.9)
    assert code == 1  # absurd threshold breaks the rank checks


def test_reports_deterministic(capsys):
    args = ["--json", "family", "laguerre", "--kappa", "0,1", "--j", "1", "--N", "3"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("seconds"), p2.pop("seconds")
    assert code1 == code2 == 0
    assert p1 == p2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mvops.cli", "counterexample", "--n", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_usage_error_unknown_subcommand():
    assert cli.main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["family", "disk", "--N", "-1"],
    ["family", "cube", "--j", "5"],
    ["family", "cube", "--a", "0,0,0", "--b", "0,0,0", "--j", "0"],
    ["family", "simplex", "--kappa", "0.5,0.5,0.5", "--j", "3"],
    ["family", "laguerre", "--kappa", "0,1", "--j", "3"],
    ["family", "cheb-koornwinder", "--kind", "7"],
    ["counterexample", "--n", "1"],
    ["generate", "--ttr", "unread.json", "--N", "-1"],
])
def test_out_of_range_parameters_are_usage_errors(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "must be" in err


# -- malformed inputs, empty reports and the record schema -------------------


@pytest.fixture(scope="module")
def envelopes(tmp_path_factory):
    """Valid files for a d=2, N=3 tensor Jacobi pair u = (1 - x) v."""
    v = moments.cube_jacobi_functional((0.0, 0.5), (0.0, 0.0))
    u = moments.cube_jacobi_functional((1.0, 0.5), (0.0, 0.0))
    Q, HQ = gram_schmidt_monic(v, 3)
    P, HP = gram_schmidt_monic(u, 3)
    texts = {
        "Q": serialize.system_to_json(Q),
        "P": serialize.system_to_json(P),
        "Tq": serialize.ttr_to_json(compute_ttr(Q, v, HQ)),
        "Tp": serialize.ttr_to_json(compute_ttr(P, u, HP)),
        "rel": serialize.relation_to_json(linrel.compute_relation(Q, P, u, HP)),
    }
    root = tmp_path_factory.mktemp("envelopes")
    paths = {}
    for name, text in texts.items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(text)
    return {"texts": texts, "paths": paths, "root": root,
            "functional": "cube-jacobi:a=1,0.5;b=0,0"}


def _argv(envelopes, command, swap=None):
    """argv of one subcommand on the valid files, with one file swapped."""
    p = dict(envelopes["paths"], **(swap or {}))
    return {
        "generate": ["generate", "--ttr", p["Tp"]],
        "check-3": ["check", "--theorem", "3", "--ttr", p["Tq"], "--relation", p["rel"]],
        "check-4": ["check", "--theorem", "4", "--ttr", p["Tp"], "--relation", p["rel"]],
        "relate": ["relate", "--combined", p["Q"], "--reference", p["P"],
                   "--functional", envelopes["functional"]],
    }[command]


# which subcommands read each envelope
READERS = {"Q": ["relate"], "P": ["relate"], "Tq": ["check-3"],
           "Tp": ["generate", "check-4"], "rel": ["check-3", "check-4"]}


def _matrix_fields(payload: dict) -> list:
    """(container, key) of every matrix text in an envelope."""
    fields = []
    for name in ("blocks", "A", "B", "C"):
        for row in payload.get(name, []):
            if row is not None:
                fields += [(row, k) for k in range(len(row))]
    fields += [(payload["M"], n) for n in range(1, len(payload.get("M", [])))]
    return fields


def _corrupt_matrix(text: str, how: str, pick: int) -> str:
    lines = text.split("\n")
    rows, cols = (int(x) for x in lines[0].split())
    body = [ln.split() for ln in lines[1:]]
    if how in ("nan", "inf", "-inf", "abc"):
        r = pick % rows
        body[r][(pick // rows) % cols] = how
    elif how == "extra-column":
        cols += 1
        body = [row + ["0.0"] for row in body]
    else:  # "missing-row"
        body = body[:-1]
    return "\n".join([f"{rows} {cols}"] + [" ".join(row) for row in body])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_envelopes_exit_2_with_one_line(envelopes, data, capsys):
    name = data.draw(st.sampled_from(sorted(READERS)), label="envelope")
    command = data.draw(st.sampled_from(READERS[name]), label="command")
    text = envelopes["texts"][name]
    corruptions = ["nan", "inf", "-inf", "extra-column", "missing-row", "truncated"]
    if name != "rel":   # a relation's M is one flat list, not rows of blocks
        corruptions.append("short-row")
    how = data.draw(st.sampled_from(corruptions), label="corruption")
    if how == "truncated":
        bad = text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    else:
        payload = json.loads(text)
        fields = _matrix_fields(payload)
        if how == "short-row":
            rows = [row for row, k in fields if k == 0]
            data.draw(st.sampled_from(rows), label="row").pop()
        else:
            row, k = data.draw(st.sampled_from(fields), label="block")
            row[k] = _corrupt_matrix(row[k], how, data.draw(st.integers(0, 99)))
        bad = json.dumps(payload)
    path = envelopes["root"] / "bad.json"
    path.write_text(bad)
    code, out, err = run_cli(_argv(envelopes, command, {name: str(path)}), capsys)
    assert code == 2, (name, how, err)
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def _corrupt_block(text: str, name: str, n: int, i, how: str) -> str:
    """The envelope with block `name`[n][i] (M[n] when i is None) corrupted
    by _corrupt_matrix at its first entry."""
    payload = json.loads(text)
    row, k = (payload[name], n) if i is None else (payload[name][n], i)
    row[k] = _corrupt_matrix(row[k], how, 0)
    return json.dumps(payload)


def _one_error(envelopes, command, swap, capsys) -> str:
    code, _, err = run_cli(_argv(envelopes, command, swap), capsys)
    assert code == 2 and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    return err


def test_check_names_a_misshapen_relation_before_reading_the_recurrence(envelopes, capsys):
    root = envelopes["root"]
    (root / "wide-rel.json").write_text(
        _corrupt_block(envelopes["texts"]["rel"], "M", 2, None, "extra-column"))
    (root / "garbled-Tp.json").write_text(
        _corrupt_block(envelopes["texts"]["Tp"], "A", 0, 0, "abc"))
    swap = {"rel": str(root / "wide-rel.json"), "Tp": str(root / "garbled-Tp.json"),
            "Tq": str(root / "garbled-Tp.json")}
    for command in ("check-3", "check-4"):
        err = _one_error(envelopes, command, swap, capsys)
        assert "M[2] has shape (3, 3), expected (3, 2)" in err


def test_generate_names_the_first_non_finite_block(envelopes, capsys):
    text = _corrupt_block(envelopes["texts"]["Tp"], "B", 1, 0, "nan")
    text = _corrupt_block(text, "C", 2, 1, "abc")
    path = envelopes["root"] / "nan-then-garbled-Tp.json"
    path.write_text(text)
    err = _one_error(envelopes, "generate", {"Tp": str(path)}, capsys)
    assert "B[1][1] has a non-finite entry" in err


def test_relate_names_a_bad_functional_before_reading_the_systems(envelopes, capsys):
    path = envelopes["root"] / "cut-Q.json"
    path.write_text(envelopes["texts"]["Q"][:200])
    argv = _argv(envelopes, "relate", {"Q": str(path)})
    argv[argv.index("--functional") + 1] = "warp:z=1"
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and err.strip() == "error: unknown functional family 'warp'"


@pytest.mark.parametrize("name", sorted(READERS))
def test_json_that_is_not_an_object_exits_2(envelopes, name, capsys):
    path = envelopes["root"] / "list.json"
    path.write_text("[1, 2]")
    err = _one_error(envelopes, READERS[name][0], {name: str(path)}, capsys)
    assert err.endswith(" document\n")


def test_check_without_compatibility_degrees_reports_no_checks(envelopes, capsys):
    payload = json.loads(envelopes["texts"]["rel"])
    payload["M"] = payload["M"][:2]   # relation stops at degree 1
    short = envelopes["root"] / "short-rel.json"
    short.write_text(json.dumps(payload))
    for command in ("check-3", "check-4"):
        code, out, _ = run_cli(["--json", *_argv(envelopes, command, {"rel": str(short)})],
                               capsys)
        report = json.loads(out)
        assert code == 1
        assert [c["check"] for c in report["checks"]] == ["no-checks"]
        assert report["overall_pass"] is False
        assert report["extras"]["verdict"].endswith("False")


def test_generate_at_degree_zero_reports_no_checks(envelopes, capsys):
    code, out, _ = run_cli(["generate", "--ttr", envelopes["paths"]["Tp"], "--N", "0"],
                           capsys)
    assert code == 1
    assert "[FAIL] no-checks" in out


@pytest.mark.parametrize("command", ["family", "counterexample", "generate", "check-3",
                                     "check-4", "relate"])
def test_check_records_share_one_schema(envelopes, command, capsys):
    if command == "family":
        argv = ["family", "cheb-koornwinder", "--kind", "3", "--rho", "0.5", "--N", "3"]
    elif command == "counterexample":
        argv = ["counterexample", "--n", "3"]
    else:
        argv = _argv(envelopes, command)
    code, out, _ = run_cli(["--json", *argv], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks
    for rec in checks:
        assert {"check", "degree", "direction", "pass"} <= set(rec)
        assert set(rec) - {"check", "degree", "direction", "pass"} in (
            {"value", "bound"}, {"rank", "expected"})


NO_DIR = "{root}/no-such-dir/out.json"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["family", "disk", "--mu", "-2"],
    ["family", "simplex", "--kappa=-1,0.5,0.5"],
    ["family", "laguerre", "--kappa=-2,0"],
    ["family", "krall-laguerre", "--alpha", "0", "--a1", "1"],
    ["family", "cube", "--a=0,0", "--b=-2,0"],
    *(["family", name, "--N", "0"]
      for name in ("disk", "krall-jacobi", "simplex", "cube", "laguerre")),
    ["relate", "--combined", "{P0}", "--reference", "{P0}", "--functional", "{functional}"],
    ["generate", "--ttr", "{Tp}", "--out", NO_DIR],
    ["check", "--theorem", "4", "--ttr", "{Tp}", "--relation", "{rel}", "--out", NO_DIR],
    ["relate", "--combined", "{Q}", "--reference", "{P}", "--functional", "{functional}",
     "--out", NO_DIR],
])
def test_inadmissible_runs_exit_2_with_one_error_line(envelopes, argv, capsys):
    root = envelopes["root"]
    (root / "P0.json").write_text(
        serialize.system_to_json(gram_schmidt_monic(moments.disk_functional(0.0), 0)[0]))
    fill = dict(envelopes["paths"], P0=str(root / "P0.json"), root=str(root),
                functional=envelopes["functional"])
    code, out, err = run_cli([a.format(**fill) for a in argv], capsys)
    assert code == 2, (out, err)
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["family", "disk", "--mu", "nan"],
    ["family", "simplex", "--kappa", "nan,0.5,0.5"],
    ["family", "cube", "--a", "nan,0", "--b", "0,0"],
    ["family", "laguerre", "--kappa", "inf,1"],
    ["family", "krall-jacobi", "--alpha", "nan"],
    ["family", "krall-laguerre", "--a1", "inf"],
    ["family", "cheb-koornwinder", "--rho", "nan"],
    ["--tol-rank", "-1", "family", "disk"],
    ["--tol-res", "nan", "family", "disk"],
    ["family", "simplex", "--kappa", "0.5,abc"],
])
def test_non_finite_or_malformed_family_input_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2, (out, err)
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("name", families.FAMILY_NAMES)
def test_every_family_passes_at_its_defaults(name, capsys):
    code, out, err = run_cli(["family", name, "--N", "3"], capsys)
    assert code == 0, (out, err)
