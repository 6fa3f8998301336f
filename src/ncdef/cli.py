"""Command-line front end emitting deterministic JSON reports.

Subcommands: ``zoo`` (laufer | length2 | karmazyn), ``gb``, ``matfac``,
``bundle``, ``identities``.  Exit status: 0 when every executed check passed
(or the command only reports a derivation), 1 on a check failure, 2 on a
usage or parse error, an unwritable ``--out`` path, or when the engine cannot
finish (the completion step limit is exceeded, or two independent
computations disagree, such as a certificate that does not replay or two
certifying cuts with as many basis words but different ones); each exit-2
error, argparse's usage errors included, is one ``ncdef: error:`` line
on stderr.
Only ``zoo`` and ``gb`` take ``--max-degree``, the truncation degree (default
20, or ``NCDEF_MAX_DEGREE``); the other subcommands truncate nothing, reject
it (exit 2) and never read ``NCDEF_MAX_DEGREE``.  Quotient reports truncate
by the order's degree, which is the weight for a weighted presentation: with
``--max-degree N`` the last cut is w*(N - 1) + 1 for the largest generator
weight w, the least cut that keeps every word of length < N, and it is N for
an unweighted one.  ``certified_at`` and ``up_to`` are such cuts.  A weighted
quotient that is not finite runs every cut and can hold very many words.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Any, Optional

from . import __version__
from .bundle import (
    contraction_splitting_type,
    expected_presentation_counts,
    splitting,
)
from .exprparse import ParseError, presentation_parse, render
from .freealg import word_str
from .matfac import (
    generator_identity_suite,
    matrix_identity_suite,
    mf_verify,
    polynomial_identity_suite,
)
from .ncgb import DimensionUndefinedError, InternalConsistencyError, quotient_report
from .zoo import (
    karmazyn_contraction_presentation,
    laufer_lambda,
    laufer_presentation,
    length2_universal_suite,
    verify_higher_length,
)

DEFAULT_MAX_DEGREE = 20


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _check(name: str, status: str, **detail: Any) -> dict[str, Any]:
    out: dict[str, Any] = {"name": name, "status": status}
    if detail:
        out["detail"] = _jsonable(detail)
    return out


_PASSING = {"pass", "certified-zero", "certified", "finite", "reported"}


def _doc(command: str, inputs: dict[str, Any], checks: list[dict[str, Any]],
         extra: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    ok = all(c["status"] in _PASSING for c in checks)
    doc = {
        "tool": "ncdef",
        "version": __version__,
        "command": command,
        "input": _jsonable(inputs),
        "checks": checks,
        "ok": ok,
    }
    if extra:
        doc.update(_jsonable(extra))
    return doc


def _parse_lambda(text: str, n: int) -> list:
    """The ``--lambda`` entries, split at commas and checked by
    :func:`~ncdef.zoo.laufer_lambda`; a bare "sym" makes every entry
    symbolic."""
    entries = [e.strip() for e in text.split(",") if e.strip()]
    return laufer_lambda(n, None if entries == ["sym"] else entries)


def _require_max_degree(what: str, maxN: int, least: int) -> None:
    if maxN < least:
        raise ValueError(f"{what} needs --max-degree >= {least}, got {maxN}")


def _quotient_checks(
    what: str, p, maxN: int
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    _require_max_degree(what, maxN, 2)
    try:
        rep = quotient_report(p, maxN=maxN)
    except DimensionUndefinedError as exc:
        return (
            [_check("dimension", "reported", outcome="dimension-undefined",
                    reason=str(exc))],
            {},
        )
    extra: dict[str, Any] = {
        "dimension": rep.dim,
        "status": rep.status,
        "certified_at": rep.certified_at,
        "graded_dims": list(rep.graded_dims),
    }
    if rep.status == "finite":
        extra["basis"] = [word_str(p.gens, w) for w in rep.basis]
        if rep.weight_list is not None:
            extra["weight_list"] = list(rep.weight_list)
        checks = [_check("dimension", "finite", dim=rep.dim,
                         certified_at=rep.certified_at)]
    else:
        extra["up_to"] = rep.up_to
        checks = [_check("dimension", "reported", outcome=rep.status,
                         up_to=rep.up_to)]
    return checks, extra


def _suitecheck_entries(prefix: str, items) -> list[dict[str, Any]]:
    out = []
    for c in items:
        detail: dict[str, Any] = {}
        if c.detail is not None:
            detail["at"] = c.detail.at
            if c.detail.certificate is not None:
                detail["certificate_terms"] = len(c.detail.certificate)
        out.append(_check(f"{prefix}:{c.name}", c.status, **detail))
    return out


def _cmd_zoo(args) -> dict[str, Any]:
    maxN = args.max_degree
    if args.family == "laufer":
        lam = _parse_lambda(args.lam, args.n)
        p = laufer_presentation(args.n, lam)
        inputs = {"family": "laufer", "n": args.n, "lambda": lam,
                  "max_degree": maxN}
        if "sym" in lam:
            return _doc("zoo", inputs,
                        [_check("presentation", "reported", symbolic=True)],
                        {"presentation": render(p)})
        checks, extra = _quotient_checks("zoo laufer", p, maxN)
        extra["presentation"] = render(p)
        return _doc("zoo", inputs, checks, extra)
    if args.family == "length2":
        _require_max_degree("zoo length2", maxN, 8)
        cutoff = maxN if maxN < 20 else 8
        rep = length2_universal_suite(trunc=cutoff)
        checks = (
            _suitecheck_entries("forward", rep.forward)
            + _suitecheck_entries("backward", rep.backward)
            + _suitecheck_entries("abelianized", rep.abelianized)
            + _suitecheck_entries("s1", rep.s1)
        )
        return _doc("zoo", {"family": "length2", "max_degree": maxN,
                            "cutoff": cutoff}, checks)
    # karmazyn
    l = args.length
    p = karmazyn_contraction_presentation(l)
    inputs = {"family": "karmazyn", "length": l, "max_degree": maxN,
              "verify": bool(args.verify)}
    if not args.verify:
        return _doc("zoo", inputs,
                    [_check("presentation", "reported")],
                    {"presentation": render(p)})
    _require_max_degree("zoo karmazyn --verify", maxN, 2)
    cutoff = inputs["cutoff"] = min(maxN, 10)
    rep = verify_higher_length(l, trunc=cutoff)
    checks: list[dict[str, Any]] = []
    for v in rep.forward:
        if v.reading is not None:
            checks.append(_check(f"forward:relation-{v.slot}", "certified",
                                 reading=v.reading))
        elif v.corrected_status == "certified-zero":
            checks.append(_check(
                f"forward:relation-{v.slot}", "certified",
                reading="engine-derived-correction",
                readings_tried=dict(v.results)))
        else:
            checks.append(_check(
                f"forward:relation-{v.slot}", "mismatch",
                readings_tried=dict(v.results),
                corrected_status=v.corrected_status))
    checks += _suitecheck_entries("backward", rep.backward)
    return _doc("zoo", inputs, checks, {"presentation": render(p)})


def _cmd_gb(args) -> dict[str, Any]:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    p = presentation_parse(text)
    checks, extra = _quotient_checks("gb", p, args.max_degree)
    extra["presentation"] = render(p)
    return _doc("gb", {"file": args.file, "max_degree": args.max_degree},
                checks, extra)


def _cmd_matfac(args) -> dict[str, Any]:
    checks = [_check("factorization", "pass" if mf_verify() else "fail")]
    for name, good in matrix_identity_suite().items():
        checks.append(_check(f"matrix:{name}", "pass" if good else "fail"))
    expected = {"x_swapped_products_in_image": False}
    for name, good in generator_identity_suite().items():
        want = expected.get(name, True)
        checks.append(_check(f"generator:{name}",
                             "pass" if good == want else "fail",
                             value=good, expected=want))
    for n in (1, 2):
        for name, good in polynomial_identity_suite(n).items():
            checks.append(_check(f"polynomial:n={n}:{name}",
                                 "pass" if good else "fail"))
    return _doc("matfac", {"mode": args.mode}, checks)


def _cmd_bundle(args) -> dict[str, Any]:
    if args.length is not None:
        s = contraction_splitting_type(args.length)
        inputs: dict[str, Any] = {"length": args.length}
    else:
        try:
            degrees = [int(d) for d in args.degrees.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--degrees needs comma-separated integers, got {args.degrees!r}"
            ) from None
        s = splitting(*degrees)
        inputs = {"degrees": list(s.degrees)}
    g, r, q = expected_presentation_counts(s)
    return _doc("bundle", inputs,
                [_check("counts", "reported")],
                {"degrees": list(s.degrees),
                 "generators": g, "relations": r, "quadratic_relations": q})


def _cmd_identities(args) -> dict[str, Any]:
    lam = _parse_lambda(args.lam, args.n)
    checks = [
        _check(name, "pass" if good else "fail")
        for name, good in polynomial_identity_suite(args.n, lam).items()
    ]
    if all(v == "sym" for v in lam):
        lam = "sym"
    return _doc("identities", {"n": args.n, "lambda": lam}, checks)


def _env_max_degree() -> int:
    env_max = os.environ.get("NCDEF_MAX_DEGREE")
    try:
        return int(env_max) if env_max else DEFAULT_MAX_DEGREE
    except ValueError:
        raise ValueError(
            f"NCDEF_MAX_DEGREE must be an integer, got {env_max!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, without the usage text."""

    def error(self, message: str):
        self.exit(2, f"ncdef: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`run_command` shares it.  An omitted
    ``--max-degree`` parses to None and :func:`run_command` fills it in
    from the environment."""
    top = _Parser(prog="ncdef", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--report", choices=["json", "text"], default="json")
        p.add_argument("--out", default=None)

    zoo = sub.add_parser("zoo", help="algebra-family suites")
    zsub = zoo.add_subparsers(dest="family", required=True)
    zl = zsub.add_parser("laufer")
    zl.add_argument("--n", type=int, required=True)
    zl.add_argument("--lambda", dest="lam", default="sym")
    common(zl)
    z2 = zsub.add_parser("length2")
    common(z2)
    zk = zsub.add_parser("karmazyn")
    zk.add_argument("--length", type=int, required=True, choices=range(1, 7))
    zk.add_argument("--verify", action="store_true")
    common(zk)

    gb = sub.add_parser("gb", help="quotient report for a presentation file")
    gb.add_argument("file")
    common(gb)
    # only the commands that compute a quotient take a truncation degree
    for p in (zl, z2, zk, gb):
        p.add_argument("--max-degree", type=int, default=None,
                       help=f"default: NCDEF_MAX_DEGREE, else {DEFAULT_MAX_DEGREE}")

    mf = sub.add_parser("matfac", help="matrix-factorization checks")
    mf.add_argument("mode", choices=["verify-all"])
    common(mf)

    bu = sub.add_parser("bundle", help="splitting-type arithmetic")
    pick = bu.add_mutually_exclusive_group(required=True)
    pick.add_argument("--degrees", default=None)
    pick.add_argument("--length", type=int, default=None, choices=range(2, 7))
    common(bu)

    idn = sub.add_parser("identities", help="scalar polynomial identities")
    idn.add_argument("--n", type=int, required=True)
    idn.add_argument("--lambda", dest="lam", default="sym")
    common(idn)
    return top


def render_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text(doc: dict[str, Any]) -> str:
    lines = [f"{doc['tool']} {doc['version']} — {doc['command']}"]
    for c in doc["checks"]:
        lines.append(f"  {c['status']:>10}  {c['name']}")
    lines.append(f"overall: {'ok' if doc['ok'] else 'FAILED'}")
    return "\n".join(lines) + "\n"


_DISPATCH = {
    "zoo": _cmd_zoo,
    "gb": _cmd_gb,
    "matfac": _cmd_matfac,
    "bundle": _cmd_bundle,
    "identities": _cmd_identities,
}


def run_command(argv: list[str]) -> tuple[int, Optional[dict[str, Any]]]:
    try:
        args = build_parser().parse_args(argv)
        if "max_degree" in vars(args) and args.max_degree is None:
            args.max_degree = _env_max_degree()
    except SystemExit as exc:
        return (0 if exc.code == 0 else 2), None
    except ValueError as exc:  # malformed NCDEF_MAX_DEGREE
        print(f"ncdef: error: {exc}", file=sys.stderr)
        return 2, None
    t0 = time.monotonic()
    try:
        doc = _DISPATCH[args.subcommand](args)
    except (ParseError, OSError, ValueError, argparse.ArgumentTypeError,
            RuntimeError, InternalConsistencyError) as exc:
        print(f"ncdef: error: {exc}", file=sys.stderr)
        return 2, None
    doc["timing_ms"] = round((time.monotonic() - t0) * 1000.0, 3)
    text = render_json(doc) if args.report == "json" else render_text(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"ncdef: error: {exc}", file=sys.stderr)
            return 2, None
    else:
        sys.stdout.write(text)
    return (0 if doc["ok"] else 1), doc


def main(argv: Optional[list[str]] = None) -> int:
    code, _ = run_command(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
