import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvops import cli, families, linrel, moments, serialize
from mvops import matrixkit as mk
from mvops.construct import gram_schmidt_monic
from mvops.indexing import basis_for
from mvops.ttr import compute_ttr


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_disk_passes(capsys):
    code, out, _ = run_cli(["family", "disk", "--mu", "0", "--N", "4"], capsys)
    assert code == 0
    assert "overall: pass" in out


def test_family_disk_passes_at_degree_20(capsys):
    # the positive-definite disk weight is never reported as not quasi-definite
    code, out, err = run_cli(["family", "disk", "--mu", "0", "--N", "20"], capsys)
    assert code == 0, (out, err)
    assert "not quasi-definite" not in out + err


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


def test_family_lists_the_checks_a_chebyshev_verdict_rests_on(capsys):
    # kind 3 at rho = 1 is predicted not orthogonal; the failed checks of the
    # partner recurrence that decide it are listed, in both modes, without
    # joining the checks of the run, so it still passes and exits 0
    argv = ["family", "cheb-koornwinder", "--kind", "3", "--rho", "1", "--N", "4"]
    deciding = ["C~ n=1 i=1 rank=0 expected=1", "C~ n=1 i=2 rank=0 expected=1",
                "C~-joint n=1 rank=0 expected=2"]
    code, out, _ = run_cli(["--json", *argv], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["overall_pass"] is True
    assert payload["extras"]["orthogonal_verdict"] is False
    assert payload["extras"]["verdict_failed_checks"] == deciding
    assert len(payload["checks"]) == 6 and all(c["pass"] for c in payload["checks"])
    assert [c["check"] for c in payload["checks"]][-1] == "verdict-matches-expectation"
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert f"verdict_failed_checks: {deciding}" in out.splitlines()
    assert out.count("[pass]") == 6 and "[FAIL]" not in out


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


def test_counterexample_judges_both_residuals_against_tol_res(capsys):
    # the bound each check reads is the residual tolerance the report prints
    code, out, _ = run_cli(["--json", "--tol-res", "1e-12", "counterexample", "--n", "3"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["tolerances"]["residual"] == 1e-12
    checks = {r["check"]: r for r in payload["checks"]}
    for name in ("recurrence-consistency", "compatibility"):
        assert (checks[name]["value"], checks[name]["bound"]) == (0.0, 1e-12)


def test_simplex_refuses_a_short_kappa_before_reading_j(capsys):
    code, out, err = run_cli(["family", "simplex", "--kappa", "0.5", "--N", "3"], capsys)
    assert code == 2, (out, err)
    assert err.strip() == "error: kappa must have d+1 entries with d >= 1"


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


@pytest.mark.parametrize("spec", ["cheb-product:kind=2.7,d=2.5", "koornwinder-cheb:kind=1.9",
                                  "krall-laguerre:alpha=1,a1=1,d=3",
                                  "krall-jacobi:alpha=1,beta=0,a1=1,d=7"])
def test_relate_non_integer_or_out_of_range_argument_exit_2(tmp_path, capsys, spec):
    P, _ = gram_schmidt_monic(moments.disk_functional(0.0), 2)
    pf = tmp_path / "p.json"
    pf.write_text(serialize.system_to_json(P))
    code = cli.main(["relate", "--combined", str(pf), "--reference", str(pf),
                     "--functional", spec])
    _, err = capsys.readouterr()
    assert code == 2 and err.startswith("error: argument") and "Traceback" not in err


def _one_error_line(err: str) -> bool:
    return "Traceback" not in err and len(
        [line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("combined, reference, spec", [
    ("disk", "disk", "jacobi:a=1,b=1"),
    ("disk", "jacobi", "disk:mu=0"),
    ("jacobi", "disk", "jacobi:a=1,b=1"),
])
def test_relate_dimension_mismatch_exits_2(tmp_path, capsys, combined, reference, spec):
    systems = {"disk": moments.disk_functional(0.0),
               "jacobi": moments.jacobi_functional_1d(1.0, 1.0)}
    for name, u in systems.items():
        P, _ = gram_schmidt_monic(u, 2)
        (tmp_path / f"{name}.json").write_text(serialize.system_to_json(P))
    code, out, err = run_cli(["relate", "--combined", str(tmp_path / f"{combined}.json"),
                              "--reference", str(tmp_path / f"{reference}.json"),
                              "--functional", spec], capsys)
    assert code == 2 and "one dimension" in err and _one_error_line(err)


@pytest.mark.parametrize("spec, kind", [("koornwinder-cheb:kind=5", 5),
                                        ("cheb-product:kind=0,d=2", 0)])
def test_relate_chebyshev_kind_outside_1_to_4_exits_2_naming_it(tmp_path, capsys, spec, kind):
    P, _ = gram_schmidt_monic(moments.disk_functional(0.0), 2)
    pf = tmp_path / "p.json"
    pf.write_text(serialize.system_to_json(P))
    code, out, err = run_cli(["relate", "--combined", str(pf), "--reference", str(pf),
                              "--functional", spec], capsys)
    assert code == 2 and f"kind must be 1..4, got {kind}" in err and _one_error_line(err)


@pytest.mark.parametrize("spec", ["disk:mu=0,nu=1", "cube-jacobi:a=0,0,b=0,0,c=1",
                                  "krall-laguerre:alpha=1,a1=1,kapa2=1,d=2"])
def test_relate_unread_functional_argument_exits_2(tmp_path, capsys, spec):
    P, _ = gram_schmidt_monic(moments.disk_functional(0.0), 2)
    pf = tmp_path / "p.json"
    pf.write_text(serialize.system_to_json(P))
    code, out, err = run_cli(["relate", "--combined", str(pf), "--reference", str(pf),
                              "--functional", spec], capsys)
    assert code == 2 and "does not read" in err and _one_error_line(err)


@pytest.mark.parametrize("spec, key", [("disk:mu=0.5,mu=2", "mu"),
                                       ("cube-jacobi:a=0,0;b=0,0;a=1,1", "a")])
def test_relate_repeated_functional_argument_exits_2(tmp_path, capsys, spec, key):
    P, _ = gram_schmidt_monic(moments.disk_functional(0.0), 2)
    pf = tmp_path / "p.json"
    pf.write_text(serialize.system_to_json(P))
    code, out, err = run_cli(["relate", "--combined", str(pf), "--reference", str(pf),
                              "--functional", spec], capsys)
    assert code == 2 and f"argument {key!r} is given more than once" in err
    assert _one_error_line(err)


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


def test_the_one_parser_keeps_nothing_between_calls(capsys):
    argv = ["--json", "family", "disk", "--N", "3"]
    cli.build_parser.cache_clear()
    code, fresh, _ = run_cli(argv, capsys)
    assert code == 0
    parser = cli.build_parser()
    # other global options, another subcommand's options, a usage error
    run_cli(["--json", "--tol-rank", "0.5", "--tol-res", "1e-3", "family", "disk",
             "--mu", "1.5", "--N", "4"], capsys)
    run_cli(["counterexample", "--n", "3"], capsys)
    run_cli(["family", "disk", "--N", "x"], capsys)
    code, after, _ = run_cli(argv, capsys)
    assert code == 0 and cli.build_parser() is parser
    first, second = json.loads(fresh), json.loads(after)
    first.pop("seconds"), second.pop("seconds")
    assert first == second and first["extras"]["params"] == {"mu": 0.0}


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


# the words a block slot may hold instead of matrix text, and near misses
MARKERS = ("shift", "identity")
NOT_MARKERS = ("Shift", "identty", "eye", "")


def _block_fields(payload: dict) -> list:
    """(container, key, row degree, marker the slot may hold or None) of
    every block of an envelope: "shift" in A, "identity" on a system's
    diagonal."""
    fields = []
    for name in ("blocks", "A", "B", "C"):
        for n, row in enumerate(payload.get(name, [])):
            if row is not None:
                fields += [(row, k, n, "shift" if name == "A" else
                            "identity" if name == "blocks" and k == n else None)
                           for k in range(len(row))]
    fields += [(payload["M"], n, n, None) for n in range(1, len(payload.get("M", [])))]
    return fields


def _matrix_text(payload: dict, row: list, k: int, n: int) -> str:
    """Block `row[k]` of degree n as matrix text: a marker is written out as
    the block it stands for, so a corruption of its entries can reach it."""
    if row[k] in MARKERS:
        return mk.format_matrix(serialize._STRUCTURAL[row[k]](payload["d"], n, k))
    return row[k]


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
    corruptions = ["nan", "inf", "-inf", "extra-column", "missing-row", "truncated", "marker"]
    if name != "rel":   # a relation's M is one flat list, not rows of blocks
        corruptions.append("short-row")
    how = data.draw(st.sampled_from(corruptions), label="corruption")
    if how == "truncated":
        bad = text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    else:
        payload = json.loads(text)
        fields = _block_fields(payload)
        if how == "short-row":
            rows = [row for row, k, _, _ in fields if k == 0]
            data.draw(st.sampled_from(rows), label="row").pop()
        elif how == "marker":
            # a marker its slot cannot hold, or a word that is no marker
            row, k, _, marker = data.draw(st.sampled_from(fields), label="block")
            row[k] = data.draw(st.sampled_from(
                [w for w in MARKERS + NOT_MARKERS if w != marker]), label="word")
        else:
            row, k, n, _ = data.draw(st.sampled_from(fields), label="block")
            row[k] = _corrupt_matrix(_matrix_text(payload, row, k, n), how,
                                     data.draw(st.integers(0, 99)))
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
        _corrupt_block(envelopes["texts"]["Tp"], "B", 0, 0, "abc"))
    swap = {"rel": str(root / "wide-rel.json"), "Tp": str(root / "garbled-Tp.json"),
            "Tq": str(root / "garbled-Tp.json")}
    for command in ("check-3", "check-4"):
        err = _one_error(envelopes, command, swap, capsys)
        assert "M[2] has shape (3, 3), expected (3, 2)" in err


@pytest.mark.parametrize("keep", [0, 2])
def test_a_c_list_shorter_than_b_exits_2_naming_c(envelopes, keep, capsys):
    # "C": [], or C cut after degree 1 of these degree-3 recurrences
    root = envelopes["root"]
    swap = {}
    for name in ("Tq", "Tp"):
        payload = json.loads(envelopes["texts"][name])
        payload["C"] = payload["C"][:keep]
        swap[name] = str(root / f"short-c{keep}-{name}.json")
        (root / f"short-c{keep}-{name}.json").write_text(json.dumps(payload))
    for command in ("generate", "check-3", "check-4"):
        err = _one_error(envelopes, command, swap, capsys)
        assert f"C must hold one entry per degree 1..3 of B, got {max(keep - 1, 0)}" in err


def test_generate_names_the_first_non_finite_block(envelopes, capsys):
    text = _corrupt_block(envelopes["texts"]["Tp"], "B", 1, 0, "nan")
    text = _corrupt_block(text, "C", 2, 1, "abc")
    path = envelopes["root"] / "nan-then-garbled-Tp.json"
    path.write_text(text)
    err = _one_error(envelopes, "generate", {"Tp": str(path)}, capsys)
    assert "B[1][1] has a non-finite entry" in err


@pytest.mark.parametrize("name, block, n, i, word, command, where", [
    ("Tp", "B", 1, 0, "shift", "generate", "B[1][1]"),
    ("Tp", "C", 2, 1, "identity", "check-4", "C[2][2]"),
    ("rel", "M", 2, None, "shift", "check-3", "M[2]"),
    ("P", "blocks", 2, 1, "identity", "relate", "block (2, 1)"),
    ("Q", "blocks", 2, 2, "shift", "relate", "block (2, 2)"),
    ("Tq", "A", 1, 1, "identity", "check-3", "A[1][2]"),
    ("Tp", "A", 1, 0, "shfit", "generate", "A[1][1]"),
    ("P", "blocks", 3, 3, "Identity", "relate", "block (3, 3)"),
], ids=["shift-in-B", "identity-in-C", "shift-in-M", "identity-off-diagonal",
        "shift-in-a-system", "identity-in-A", "misspelled-shift", "misspelled-identity"])
def test_a_marker_out_of_place_exits_2_naming_the_block(envelopes, capsys, name, block, n, i,
                                                        word, command, where):
    payload = json.loads(envelopes["texts"][name])
    (payload[block] if i is None else payload[block][n])[n if i is None else i] = word
    path = envelopes["root"] / f"marker-{name}.json"
    path.write_text(json.dumps(payload))
    err = _one_error(envelopes, command, {name: str(path)}, capsys)
    assert err.startswith(f"error: {where}") and repr(word) in err


def test_generate_refuses_an_a_block_that_is_only_close_to_the_shift(envelopes, capsys):
    # within allclose of the shift: generation would have ignored the
    # difference and reported a consistent system the file does not hold
    payload = json.loads(envelopes["texts"]["Tp"])
    assert payload["A"][2][0] == "shift"
    near = basis_for(2).shift_matrix(2, 1) + 5e-6 * np.eye(3, 4)
    payload["A"][2][0] = mk.format_matrix(near)
    path = envelopes["root"] / "near-shift-Tp.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(["generate", "--ttr", str(path)], capsys)
    assert code == 1
    assert err.strip() == ("computation failed: forward generation requires "
                           "structural (monic) A blocks")


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


@pytest.mark.parametrize("name, d", [("Tp", 2.9), ("P", 2.5), ("rel", "2"), ("Q", True)])
def test_a_dimension_that_is_no_json_integer_exits_2_naming_it(envelopes, name, d, capsys):
    payload = json.loads(envelopes["texts"][name])
    payload["d"] = d
    path = envelopes["root"] / f"d-{name}.json"
    path.write_text(json.dumps(payload))
    err = _one_error(envelopes, READERS[name][0], {name: str(path)}, capsys)
    assert f"d must be an integer, got {d!r}" in err


@pytest.mark.parametrize("raise_b", [[], ["--raise-b"]])
@pytest.mark.parametrize("a, b, j", [("0,0", "0", "2"), ("0", "0,0", "1")])
def test_cube_vectors_of_unequal_length_exit_2(a, b, j, raise_b, capsys):
    # --j 2 with one b entry raised IndexError before the lengths were compared
    code, _, err = run_cli(["family", "cube", "--a", a, "--b", b, "--j", j, *raise_b], capsys)
    assert code == 2 and "Traceback" not in err
    assert err.strip() == "error: parameter vectors a and b must have equal length"


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
    # finite parameters whose mass, row norms or recurrence leave the floats
    ["family", "simplex", "--kappa", "400,400,400", "--N", "4"],
    *(["family", "simplex", "--kappa", f"{k},0.5,0.5", "--N", "3"]
      for k in ("1e100", "1e200", "1e308")),
    ["family", "disk", "--mu", "1e300", "--N", "3"],
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
    ["family", "laguerre", "--kappa", "-0.5,x"],
    # options the named family does not read
    ["family", "disk", "--rho", "7"],
    ["family", "cube", "--kappa", "1,2,3"],
    ["family", "laguerre", "--kappa", "0,1", "--mu", "1"],
    ["family", "cheb-koornwinder", "--raise-b"],
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


@pytest.mark.parametrize("args, want", [
    # Gamma(mu + 1) overflows near mu = 170; the disk moments are Beta values
    ("disk --mu 400", 0),
    ("disk --mu 1e6", 0),
    ("cube --a=300,0 --b=0,0", 0),
    # the Jacobi(300, 0) weight is positive: its positive norms certify it
    ("krall-jacobi --alpha 300 --beta 0 --a1 1", 0),
    # exponents next to -1, where a + b + 2 cancels in the closed-form
    # Jacobi recurrence unless it is formed as (a + 1) + (b + 1)
    ("krall-jacobi --ay=-0.9999999999999", 0),
    # a Laguerre moment Gamma(alpha + 1) overflows: a failed computation
    ("krall-laguerre --alpha 200 --a1 1", 1),
    ("laguerre --kappa 200,1", 1),
    # the simplex's first-axis Jacobi mass overflows: a parameter error
    ("simplex --kappa 1e6,0.5,0.5", 2),
    # the relation's products overflow: refused as non-finite, with no
    # numpy warning on the way
    ("cheb-koornwinder --rho 1e160", 1),
    ("cheb-koornwinder --rho 1e300", 1),
])
def test_extreme_family_parameters_keep_their_exit_codes(args, want, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["family", *args.split(), "--N", "3"], capsys)
    assert [str(w.message) for w in caught] == []
    assert code == want, (out, err)
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == (1 if want else 0), err


@pytest.mark.parametrize("command", ["check-3", "check-4"])
def test_check_on_huge_relation_blocks_fails_without_numpy_warnings(envelopes, command,
                                                                    tmp_path, capsys):
    # finite entries near 1e200 overflow in the partner's block products
    rel = serialize.relation_from_json(envelopes["texts"]["rel"])
    huge = linrel.LinearRelation(rel.d, [None] + [1e200 * rel.m(n) for n in range(1, rel.N + 1)])
    path = tmp_path / "huge.json"
    path.write_text(serialize.relation_to_json(huge))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(_argv(envelopes, command, {"rel": str(path)}), capsys)
    assert [str(w.message) for w in caught] == []
    assert code == 1, (out, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("rho", ["-2", "-1", "-0.5", "0.5", "1", "2"])
@pytest.mark.parametrize("kind", ["1", "2", "3", "4"])
def test_cheb_koornwinder_needs_degree_two_to_decide(kind, rho, capsys):
    # through N = 1 every pair reads orthogonal, predicted failures included
    argv = ["family", "cheb-koornwinder", "--kind", kind, f"--rho={rho}"]
    code, out, err = run_cli([*argv, "--N", "1"], capsys)
    assert code == 2, (out, err)
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert "N >= 2" in err
    code, out, err = run_cli([*argv, "--N", "2"], capsys)
    assert code == 0, (out, err)


def test_the_library_runs_without_scipy():
    script = "\n".join([
        "import json, sys",
        "import mvops, mvops.cli",
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "sys.modules['scipy'] = None   # any later scipy import raises ImportError",
        "from mvops import cli, families",
        "codes = {name: cli.main(['family', name, '--N', '3'])",
        "         for name in families.FAMILY_NAMES}",
        "print(json.dumps({'loaded': loaded, 'codes': codes}))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["codes"] == {name: 0 for name in families.FAMILY_NAMES}


# argparse takes a token that starts with '-' for an option name unless it
# reads as a plain number: -0.5 is a value, -0.5,1 and -1e-1 are not
@pytest.mark.parametrize("spaced, attached, expected", [
    (["family", "laguerre", "--kappa", "-0.5,1"], ["family", "laguerre", "--kappa=-0.5,1"], -0.5),
    (["family", "cube", "--a", "-0.5,0", "--b", "-0.25,0"],
     ["family", "cube", "--a=-0.5,0", "--b=-0.25,0"], -0.5),
    *[(["family", name, "--" + option, value], ["family", name, f"--{option}={value}"],
       float(value))
      for name, option, value in [
          ("disk", "mu", "-1e-1"), ("cheb-koornwinder", "rho", "-5e-1"),
          ("krall-laguerre", "alpha", "-5e-1"), ("krall-laguerre", "a1", "-1e0"),
          ("krall-laguerre", "kappa2", "-5e-1"), ("krall-jacobi", "beta", "-5e-1"),
          ("krall-jacobi", "ay", "-5e-1")]],
])
def test_negative_vector_value_after_a_space_reads_like_the_attached_spelling(
        spaced, attached, expected, capsys):
    reports = []
    for argv in (spaced, attached):
        code, out, err = run_cli(["--json", *argv, "--N", "4"], capsys)
        assert code == 0, (out, err)
        payload = json.loads(out)
        payload.pop("seconds")
        reports.append(payload)
    assert reports[0] == reports[1]
    value = reports[0]["extras"]["params"][spaced[2][2:]]
    assert (value[0] if isinstance(value, list) else value) == expected


def test_generate_above_the_reachable_degree_exits_2(envelopes, capsys):
    path = envelopes["paths"]["Tp"]
    reachable = serialize.ttr_from_json(envelopes["texts"]["Tp"]).reachable_degree
    code, out, err = run_cli(["generate", "--ttr", path, "--N", str(reachable + 1)], capsys)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert f"degree {reachable}" in err
    reports = []
    for extra in ([], ["--N", str(reachable)]):
        code, out, _ = run_cli(["--json", "generate", "--ttr", path, *extra], capsys)
        assert code == 0
        payload = json.loads(out)
        payload.pop("seconds")
        reports.append(payload)
    assert reports[0] == reports[1] and len(reports[0]["checks"]) == reachable


@pytest.mark.parametrize("command", ["check-3", "check-4"])
def test_check_refuses_a_recurrence_and_relation_of_two_dimensions(envelopes, command,
                                                                    tmp_path, capsys):
    v = moments.cube_jacobi_functional((0.0, 0.5, 0.0), (0.0, 0.0, 0.5))
    u = moments.cube_jacobi_functional((1.0, 0.5, 0.0), (0.0, 0.0, 0.5))
    rel = linrel.compute_relation(gram_schmidt_monic(v, 3)[0], gram_schmidt_monic(u, 3)[0], u)
    path = tmp_path / "rel-d3.json"
    path.write_text(serialize.relation_to_json(rel))
    code, out, err = run_cli(_argv(envelopes, command, {"rel": str(path)}), capsys)
    assert code == 2 and out == "" and _one_error_line(err)
    assert "of one dimension, got 2 and 3" in err


def test_relate_on_tensor_envelopes_returns_the_in_process_relation(envelopes, tmp_path,
                                                                    capsys):
    out = tmp_path / "rel.json"
    code, _, _ = run_cli(_argv(envelopes, "relate") + ["--out", str(out)], capsys)
    # texts["rel"] is compute_relation on the fixture's systems, written once
    assert code == 0 and out.read_text() == envelopes["texts"]["rel"]


@pytest.mark.parametrize("name, field, value, command", [
    ("Tp", "C", 5, "generate"),
    ("Tp", "B", None, "generate"),
    ("Tq", "A", "shift", "check-3"),
    ("rel", "M", {"1": "1 1\n0.5"}, "check-4"),
    ("P", "blocks", 3, "relate"),
], ids=["C-int", "B-null", "A-string", "M-object", "blocks-int"])
def test_a_block_list_that_is_not_a_list_exits_2_naming_the_field_and_the_file(
        envelopes, capsys, name, field, value, command):
    payload = json.loads(envelopes["texts"][name])
    payload[field] = value
    path = envelopes["root"] / f"not-a-list-{field}-{name}.json"
    path.write_text(json.dumps(payload))
    err = _one_error(envelopes, command, {name: str(path)}, capsys)
    assert f"field {field} in {path} must be a list" in err


@pytest.mark.parametrize("name, field, command", [
    ("Tp", "d", "generate"),
    ("Tp", "A", "generate"),
    ("Tp", "B", "generate"),
    ("Tp", "C", "generate"),
    ("P", "blocks", "relate"),
    ("rel", "M", "check-3"),
])
def test_a_missing_field_exits_2_naming_the_field_and_the_file(envelopes, capsys, name,
                                                                field, command):
    payload = json.loads(envelopes["texts"][name])
    del payload[field]
    path = envelopes["root"] / f"missing-{field}-{name}.json"
    path.write_text(json.dumps(payload))
    err = _one_error(envelopes, command, {name: str(path)}, capsys)
    assert f"error: field {field} missing in {path}" in err


def test_relate_fails_a_reference_that_is_not_orthogonal_for_the_functional(envelopes,
                                                                         capsys):
    # the combined system passed as the reference: the relation to itself
    # is zero, and only the orthogonality check reads the functional
    argv = _argv(envelopes, "relate", {"P": envelopes["paths"]["Q"]})
    code, out, _ = run_cli(["--json", *argv], capsys)
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert not checks["orthogonality-reference"]["pass"]
    assert checks["orthogonality-reference"]["value"] > 0.1
    assert checks["fourier-tail"]["pass"]
    code, out, _ = run_cli(["--json", *_argv(envelopes, "relate")], capsys)
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert code == 0 and checks["orthogonality-reference"]["value"] <= 1e-14
