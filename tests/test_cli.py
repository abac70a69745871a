import json
import subprocess
import sys

import numpy as np
import pytest

from mvops import cli, linrel, moments, serialize
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


def test_env_tolerance_override_and_flag_precedence(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MVOPS_TOL_RANK", "0.9")
    code, out, _ = run_cli(["--json", "family", "disk", "--mu", "0", "--N", "3"],
                           capsys)
    payload = json.loads(out)
    assert payload["tolerances"]["rank"] == pytest.approx(0.9)
    assert code == 1  # absurd threshold breaks the rank checks
    code, out, _ = run_cli(
        ["--json", "--tol-rank", "1e-9", "family", "disk", "--mu", "0", "--N", "3"],
        capsys)
    payload = json.loads(out)
    assert payload["tolerances"]["rank"] == pytest.approx(1e-9)
    assert code == 0


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
