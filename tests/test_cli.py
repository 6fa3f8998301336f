import argparse
import ast
import inspect
import json
import textwrap

import pytest

from ncdef.cli import main, run_command
from ncdef.matfac import polynomial_identity_suite
from ncdef.zoo import (
    laufer_presentation,
    laufer_specialization_check,
    superpotential_check,
)


def run(capsys, *argv):
    code, doc = run_command(list(argv))
    captured = capsys.readouterr()
    return code, doc, captured


def strip_timing(doc):
    return {k: v for k, v in doc.items() if k != "timing_ms"}


# ------------------------------------------------------------ happy paths


def test_zoo_laufer_specialized(capsys):
    code, doc, cap = run(
        capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,0",
        "--max-degree", "10",
    )
    assert code == 0
    assert doc["ok"] and doc["dimension"] == 9
    assert doc["status"] == "finite"
    assert "a^2*b^2" in doc["basis"]
    parsed = json.loads(cap.out)
    assert parsed["dimension"] == 9


def test_zoo_laufer_symbolic_reports_presentation(capsys):
    code, doc, _ = run(capsys, "zoo", "laufer", "--n", "1")
    assert code == 0
    assert doc["checks"][0]["detail"]["symbolic"] is True
    assert "generators:" in doc["presentation"]


def test_zoo_laufer_bad_lambda_is_usage_error(capsys):
    code, doc, _ = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0")
    assert code == 2 and doc is None


def test_zoo_laufer_mixed_lambda_reports_presentation(capsys):
    code, doc, _ = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,sym")
    assert code == 0 and doc["input"]["lambda"] == ["0", "sym"]
    assert doc["checks"][0]["detail"]["symbolic"] is True
    assert "central: l2\n" in doc["presentation"]
    assert "l1" not in doc["presentation"]


def test_zoo_laufer_lambda_entry_not_rational_is_one_line_error(capsys):
    code, doc, cap = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,x")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "'x'" in cap.err


def test_zoo_length2(capsys):
    code, doc, _ = run(capsys, "zoo", "length2", "--max-degree", "8")
    assert code == 0 and doc["ok"]
    prefixes = {c["name"].split(":", 1)[0] for c in doc["checks"]}
    assert prefixes == {"forward", "backward", "abelianized", "s1"}


def test_zoo_karmazyn_render_only(capsys):
    code, doc, _ = run(capsys, "zoo", "karmazyn", "--length", "3")
    assert code == 0
    assert "relations:" in doc["presentation"]


def test_zoo_karmazyn_verify(capsys):
    code, doc, _ = run(
        capsys, "zoo", "karmazyn", "--length", "3", "--verify",
        "--max-degree", "7",
    )
    assert code == 0 and doc["ok"]
    fwd = [c for c in doc["checks"] if c["name"].startswith("forward")]
    assert fwd and all(c["status"] == "certified" for c in fwd)


def test_zoo_length2_reports_cutoff_used(capsys, monkeypatch):
    monkeypatch.delenv("NCDEF_MAX_DEGREE", raising=False)
    code, doc, _ = run(capsys, "zoo", "length2")
    assert code == 0
    assert doc["input"]["max_degree"] == 20 and doc["input"]["cutoff"] == 8
    code, doc, _ = run(capsys, "zoo", "length2", "--max-degree", "9")
    assert code == 0
    assert doc["input"]["max_degree"] == 9 and doc["input"]["cutoff"] == 9
    assert {c["detail"]["at"] for c in doc["checks"] if "detail" in c} == {9}


def test_zoo_karmazyn_verify_reports_cutoff_used(capsys):
    code, doc, _ = run(
        capsys, "zoo", "karmazyn", "--length", "2", "--verify",
        "--max-degree", "12",
    )
    assert code == 0
    assert doc["input"]["max_degree"] == 12 and doc["input"]["cutoff"] == 10
    code, doc, _ = run(capsys, "zoo", "karmazyn", "--length", "2")
    assert "cutoff" not in doc["input"]


def test_matfac_verify_all(capsys):
    code, doc, _ = run(capsys, "matfac", "verify-all")
    assert code == 0 and doc["ok"]
    names = {c["name"] for c in doc["checks"]}
    assert "factorization" in names
    assert any(n.startswith("polynomial:n=2:") for n in names)


def test_bundle_by_length(capsys):
    code, doc, _ = run(capsys, "bundle", "--length", "3")
    assert code == 0
    assert (doc["generators"], doc["relations"], doc["quadratic_relations"]) \
        == (5, 12, 9)


def test_bundle_by_degrees(capsys):
    code, doc, _ = run(capsys, "bundle", "--degrees", "1,0,-1")
    assert code == 0 and doc["degrees"] == [1, 0, -1]


def test_bundle_without_selector_is_usage_error(capsys):
    code, doc, _ = run(capsys, "bundle")
    assert code == 2 and doc is None


def test_identities_symbolic_and_rational(capsys):
    code, doc, _ = run(capsys, "identities", "--n", "1")
    assert code == 0 and doc["input"]["lambda"] == "sym"
    code, doc, _ = run(capsys, "identities", "--n", "1", "--lambda", "1/3,0")
    assert code == 0 and doc["input"]["lambda"] == ["1/3", "0"]


def test_identities_mixed_lambda_keeps_the_rational_entry(capsys):
    code, doc, _ = run(capsys, "identities", "--n", "1", "--lambda", "0,sym")
    assert code == 0 and doc["input"]["lambda"] == ["0", "sym"]
    assert [c["status"] for c in doc["checks"]] == ["pass"] * 3


# ----------------------------------------------------------- gb subcommand


def test_gb_finite_quotient(tmp_path, capsys):
    f = tmp_path / "alg.txt"
    f.write_text("generators: a\nrelations: a^3\n")
    code, doc, _ = run(capsys, "gb", str(f), "--max-degree", "8")
    assert code == 0
    assert doc["dimension"] == 3 and doc["basis"] == ["1", "a", "a^2"]


def test_gb_not_finite_reports_exit_zero(tmp_path, capsys):
    f = tmp_path / "alg.txt"
    f.write_text("generators: a b\nrelations: a*b + b*a ; a^2 + b^2\n")
    code, doc, _ = run(capsys, "gb", str(f), "--max-degree", "10")
    assert code == 0
    assert doc["status"] == "not-finite" and doc["up_to"] == 10
    assert doc["checks"][0]["detail"]["outcome"] == "not-finite"


def test_gb_dimension_undefined_is_reported(tmp_path, capsys):
    f = tmp_path / "alg.txt"
    f.write_text("generators: a\ncentral: t\nrelations: a^2\n")
    code, doc, _ = run(capsys, "gb", str(f), "--max-degree", "8")
    assert code == 0 and doc["ok"]
    (check,) = doc["checks"]
    assert check["name"] == "dimension" and check["status"] == "reported"
    assert check["detail"]["outcome"] == "dimension-undefined"


def test_gb_parse_error_exit_two(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("generators: a\nrelations: a + %\n")
    code, doc, cap = run(capsys, "gb", str(f))
    assert code == 2 and doc is None
    assert "error" in cap.err


def test_gb_missing_file_exit_two(capsys):
    code, doc, _ = run(capsys, "gb", "/nonexistent/alg.txt")
    assert code == 2 and doc is None


# ------------------------------------------------------------ infrastructure


def test_json_deterministic_across_runs(capsys):
    _, d1, _ = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,0",
                   "--max-degree", "8")
    _, d2, _ = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,0",
                   "--max-degree", "8")
    assert strip_timing(d1) == strip_timing(d2)


def test_out_file_and_text_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, cap = run(capsys, "bundle", "--length", "2", "--out", str(out))
    assert code == 0 and cap.out == ""
    assert json.loads(out.read_text())["generators"] == 3
    code, _, cap = run(capsys, "bundle", "--length", "2", "--report", "text")
    assert code == 0 and "overall: ok" in cap.out


def test_env_max_degree(monkeypatch, capsys):
    monkeypatch.setenv("NCDEF_MAX_DEGREE", "7")
    code, doc, _ = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,0")
    assert code == 0
    assert doc["input"]["max_degree"] == 7


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["zoo"]) == 2
    assert main(["bundle", "--length", "9"]) == 2
    capsys.readouterr()


def test_version_exits_zero(capsys):
    code, doc, cap = run(capsys, "--version")
    assert code == 0 and doc is None
    assert cap.out.strip()


def _one_line_error(cap):
    lines = cap.err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("ncdef: error:")


def test_max_degree_below_two_is_usage_error(tmp_path, capsys):
    code, doc, cap = run(capsys, "zoo", "laufer", "--n", "1", "--lambda",
                         "0,0", "--max-degree", "1")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "zoo laufer needs --max-degree >= 2, got 1" in cap.err
    f = tmp_path / "alg.txt"
    f.write_text("generators: a\nrelations: a^3\n")
    code, doc, cap = run(capsys, "gb", str(f), "--max-degree", "1")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "gb needs --max-degree >= 2, got 1" in cap.err


def test_zero_denominator_is_one_line_error(tmp_path, capsys):
    f = tmp_path / "alg.txt"
    f.write_text("generators: a b\nrelations: a*b + 1/0*b*a\n")
    for argv in (
        ["gb", str(f)],
        ["zoo", "laufer", "--n", "1", "--lambda", "1/0,0"],
        ["identities", "--n", "1", "--lambda", "0,1/0"],
    ):
        code, doc, cap = run(capsys, *argv)
        assert code == 2 and doc is None and _one_line_error(cap)
        assert "zero denominator" in cap.err


def test_out_to_missing_directory_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code, doc, cap = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,0",
                         "--out", str(out))
    assert code == 2 and doc is None and _one_line_error(cap)
    assert cap.out == "" and not out.exists()


def test_env_max_degree_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("NCDEF_MAX_DEGREE", "ten")
    code, doc, cap = run(capsys, "zoo", "laufer", "--n", "1", "--lambda", "0,0")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "NCDEF_MAX_DEGREE" in cap.err
    # a command without a truncation degree never reads the variable
    code, doc, cap = run(capsys, "bundle", "--length", "2")
    assert code == 0 and doc["generators"] == 3 and cap.err == ""


def test_argparse_usage_error_is_one_line(capsys):
    for argv in (
        ["matfac", "verify-all", "--max-degree", "5"],
        ["zoo", "laufer"],
        ["bundle", "--length", "9"],
        [],
    ):
        code, doc, cap = run(capsys, *argv)
        assert code == 2 and doc is None and _one_line_error(cap), argv
    code, doc, cap = run(capsys, "zoo", "laufer", "--help")
    assert code == 0 and doc is None and "--max-degree" in cap.out


def test_zoo_length2_max_degree_below_eight(capsys):
    code, doc, cap = run(capsys, "zoo", "length2", "--max-degree", "5")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "--max-degree" in cap.err and "8" in cap.err
    assert "trunc" not in cap.err


def test_zoo_karmazyn_verify_max_degree_below_two(capsys):
    code, doc, cap = run(capsys, "zoo", "karmazyn", "--length", "3", "--verify",
                         "--max-degree", "1")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "--max-degree" in cap.err and "2" in cap.err
    assert "trunc" not in cap.err


def test_bundle_degrees_not_integers(capsys):
    code, doc, cap = run(capsys, "bundle", "--degrees", "a,b")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "--degrees" in cap.err and "integers" in cap.err
    assert "invalid literal" not in cap.err


def test_completion_step_limit_is_one_line_error(tmp_path, monkeypatch, capsys):
    from ncdef import ncgb

    monkeypatch.setattr(ncgb, "_MAX_COMPLETION_STEPS", 1)
    f = tmp_path / "laufer1.txt"
    f.write_text("generators: a b\nweights: 3 2\nrelations: a*b + b*a ; a^2 + b^3\n")
    code, doc, cap = run(capsys, "gb", str(f), "--max-degree", "8")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "step limit" in cap.err


def test_certificate_replay_failure_is_one_line_error(monkeypatch, capsys):
    from ncdef import ncgb
    from ncdef.freealg import NcPoly

    monkeypatch.setattr(ncgb, "expand_certificate",
                        lambda p, cert: NcPoly.zero(p.gens))
    code, doc, cap = run(capsys, "zoo", "karmazyn", "--length", "2", "--verify",
                         "--max-degree", "8")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "replay" in cap.err


def test_basis_mismatch_at_certifying_cuts_is_one_line_error(
        tmp_path, monkeypatch, capsys):
    """Two cuts with as many standard words but different ones contradict
    the certification proof: exit 2 with one error line, no traceback."""
    from ncdef import ncgb

    monkeypatch.setattr(ncgb, "_irreducible_words", lambda gb: ([(gb.trunc,)], False))
    f = tmp_path / "alg.txt"
    f.write_text("generators: a\nrelations: a^3\n")
    code, doc, cap = run(capsys, "gb", str(f), "--max-degree", "8")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "cuts 2 and 3 give 1 standard words each" in cap.err
    assert "Traceback" not in cap.err + cap.out


def test_matfac_witness_failure_is_one_line_error(monkeypatch, capsys):
    from ncdef import matfac

    real = matfac.cofactor

    def doubled(mat):
        g = real(mat)
        return None if g is None else g + g

    monkeypatch.setattr(matfac, "cofactor", doubled)
    code, doc, cap = run(capsys, "matfac", "verify-all")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "witness" in cap.err


def test_karmazyn_uncertified_slot_is_a_mismatch(monkeypatch, capsys):
    from ncdef import cli
    from ncdef.zoo import HigherLengthReport, RelationVerdict

    slot = RelationVerdict(1, None, [("claimed", "inconclusive")], "inconclusive")
    monkeypatch.setattr(cli, "verify_higher_length",
                        lambda l, trunc: HigherLengthReport([slot], []))
    code, doc, _ = run(capsys, "zoo", "karmazyn", "--length", "3", "--verify")
    assert code == 1 and not doc["ok"]
    (check,) = doc["checks"]
    assert check["name"] == "forward:relation-1" and check["status"] == "mismatch"
    assert check["detail"]["corrected_status"] == "inconclusive"


def _leaf_parsers(parser, handler=None):
    """(parser, handler) for each parser without subcommands, where the
    handler is the top-level subcommand's entry in ``cli._DISPATCH``."""
    from ncdef import cli

    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser, handler
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, handler or cli._DISPATCH[name])


def test_every_option_is_read_by_its_handler():
    from ncdef import cli

    routed = {"help", "subcommand", "family", "report", "out"}
    leaves = list(_leaf_parsers(cli.build_parser()))
    assert len(leaves) == 7
    unread = {}
    for parser, handler in leaves:
        tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
        read = {n.attr for n in ast.walk(tree)
                if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "args"}
        missing = {a.dest for a in parser._actions} - routed - read
        if missing:
            unread[parser.prog] = sorted(missing)
    assert unread == {}


def test_bundle_length_and_degrees_together_is_one_line_error(capsys):
    code, doc, cap = run(capsys, "bundle", "--length", "4", "--degrees", "a,b")
    assert code == 2 and doc is None and _one_line_error(cap)
    assert "--degrees" in cap.err and "--length" in cap.err


def test_n_below_one_is_reported_before_lambda(capsys):
    for argv in (
        ["zoo", "laufer", "--n", "-1", "--lambda", "0"],
        ["identities", "--n", "0", "--lambda", "0"],
    ):
        code, doc, cap = run(capsys, *argv)
        assert code == 2 and doc is None and _one_line_error(cap), argv
        assert "n must be >= 1" in cap.err and "lambda" not in cap.err, argv


# (n, lambda entries); the CLI gets the entries joined by commas, None as "sym"
LAMBDA_CASES = [
    (1, None),
    (1, ["sym", "0"]),
    (1, ["sym", "sym"]),
    (1, ["0", "-1/3"]),
    (1, []),
    (1, ["0"]),
    (1, ["0", "0", "0"]),
    (1, ["0", "x"]),
    (1, ["sym", "1/0"]),
    (2, ["x"]),
    (0, ["x"]),
]


def _error(f, *args):
    """The message of the ValueError f raises, or None."""
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n,lam", LAMBDA_CASES,
                         ids=[f"n{n}:{lam}" for n, lam in LAMBDA_CASES])
def test_every_lambda_consumer_accepts_and_rejects_alike(n, lam, capsys):
    error = _error(laufer_presentation, n, lam)
    assert _error(polynomial_identity_suite, n, lam) == error
    assert error is None or "lambda" in error or n < 1
    text = "sym" if lam is None else ",".join(lam)
    for cmd in (["zoo", "laufer", "--max-degree", "10"], ["identities"]):
        code, doc, cap = run(capsys, *cmd, "--n", str(n), "--lambda", text)
        if error is None:
            assert code == 0 and doc["ok"] and cap.err == "", cmd
        else:
            assert code == 2 and doc is None and _one_line_error(cap), cmd
            assert cap.err == f"ncdef: error: {error}\n", cmd
    # the checks that take rationals only give the same errors and reject "sym"
    if error is not None or lam is None or "sym" in lam:
        for f in (laufer_specialization_check, superpotential_check):
            got = _error(f, n, lam)
            if error is not None:
                assert got == error
            else:
                assert "lambda" in got and "'sym'" in got


def test_one_cached_parser_answers_like_fresh_ones(monkeypatch, capsys):
    """``build_parser`` is built once per process; through that one parser
    a usage error, then a valid call, then ``--version`` give the exit
    codes, documents and output that a fresh parser per call gives."""
    from ncdef import cli

    calls = [
        ["zoo", "laufer", "--n", "1", "--bogus"],
        ["zoo", "laufer", "--n", "1", "--lambda", "0,0", "--max-degree", "8"],
        ["--version"],
    ]

    def answers():
        out = []
        for argv in calls:
            code, doc, cap = run(capsys, *argv)
            out.append((code, doc and strip_timing(doc), cap.err,
                        cap.out if doc is None else None))
        return out

    assert cli.build_parser() is cli.build_parser()
    cached = answers()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert answers() == cached
    assert [c[0] for c in cached] == [2, 0, 0]
    assert cached[0][2].startswith("ncdef: error:") and cached[2][3].strip()
