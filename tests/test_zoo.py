import json
import pathlib
import sys
from dataclasses import asdict
from fractions import Fraction

import pytest

from ncdef.freealg import NcPoly, genset, nc_abelianize, nc_str
from ncdef.ncgb import quadratic_classify, quotient_report
from ncdef.zoo import (
    SuiteCheck,
    backward_central_expressions,
    claimed_relation_readings,
    corrected_relation,
    cyclic_derivative,
    invariant_table,
    karmazyn_contraction_presentation,
    laufer_lambda,
    laufer_presentation,
    laufer_specialization_check,
    length2_central_elements,
    length2_claimed_presentation,
    length2_universal_suite,
    standard_lambda,
    superpotential_check,
    verify_higher_length,
)


# ------------------------------------------------------------ laufer family


def test_laufer_presentation_shape():
    p = laufer_presentation(2, [0, 0, 0, 0])
    assert p.gens.names == ("a", "b")
    assert p.gens.weights == (5, 2)
    assert p.order == "wdeglex"
    assert len(p.relations) == 2


def test_laufer_presentation_symbolic_parameters():
    p = laufer_presentation(1, ["sym", "sym"])
    assert "l1" in p.gens.names and "l2" in p.gens.names
    assert p.gens.central[p.gens.index("l1")]


def test_laufer_lambda_refuses_a_float():
    """0.1 is not 1/10 in binary, so a float entry is an error naming
    lambda, not a silently different specialization."""
    with pytest.raises(ValueError, match=r"^lambda entry 0\.1 is a float; pass a "
                                         r"Fraction, an int or a string"):
        laufer_lambda(1, [0.1, 0])
    with pytest.raises(ValueError, match="lambda entry 0.0 is a float"):
        laufer_presentation(1, [0, 0.0])
    assert laufer_lambda(1, ["1/10", 0]) == [Fraction(1, 10), 0]
    assert laufer_lambda(1, [Fraction(1, 10), "sym"]) == [Fraction(1, 10), "sym"]


def test_standard_lambda():
    assert standard_lambda(1, 0) == [0, 0]
    assert standard_lambda(2, 2) == [0, Fraction(1), 0, 0]


@pytest.mark.parametrize("n,i,dim", [(1, 0, 9), (1, 1, 8), (1, 2, 9)])
def test_laufer_specialization_dims(n, i, dim):
    rep = quotient_report(laufer_presentation(n, standard_lambda(n, i)))
    assert rep.status == "finite" and rep.dim == dim


def test_laufer_quadratic_classification():
    q = quadratic_classify(laufer_presentation(1, [0, 0]))
    assert (q.sym_rank, q.antisym_rank) == (2, 0)


def test_laufer_specialization_check_certifies():
    checks = laufer_specialization_check(1, standard_lambda(1, 0))
    assert all(c.ok for c in checks)
    names = [c.name for c in checks]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("n,i,trunc", [(1, 2, 8), (2, 2, 8), (2, 3, 8), (2, 4, 10)])
def test_laufer_specialization_check_at_nonzero_lambda(n, i, trunc):
    checks = laufer_specialization_check(n, standard_lambda(n, i), trunc)
    assert [c.status for c in checks] == ["certified-zero"] * 5


# ------------------------------------------------------------ length2 suite


def test_length2_presentations():
    p = length2_claimed_presentation()
    assert p.gens.names == ("t", "a", "b")
    assert len(p.relations) == 3


def test_length2_quadratic_classification():
    q = quadratic_classify(length2_claimed_presentation())
    assert q.sym_rank == 0 and q.antisym_rank == 1


def test_length2_central_elements_are_central():
    from ncdef.ncgb import derive_check

    p = length2_claimed_presentation()
    g = p.gens
    a, b = NcPoly.gen(g, "a"), NcPoly.gen(g, "b")
    claims = [
        x * f - f * x
        for f in length2_central_elements().values()
        for x in (a, b)
    ]
    for res in derive_check(p, claims, trunc=8):
        assert res.status == "certified-zero"


def test_length2_universal_suite_all_green():
    rep = length2_universal_suite()
    for group in (rep.forward, rep.backward, rep.abelianized, rep.s1):
        assert group, "empty check group"
        for c in group:
            assert c.ok, (c.name, c.status)


def test_length2_abelianization_kills_relations():
    p = length2_claimed_presentation()
    for rel in p.relations:
        assert nc_abelianize(rel).is_zero()


# ------------------------------------------------------- karmazyn / lengths


def test_karmazyn_length1_is_point():
    rep = quotient_report(karmazyn_contraction_presentation(1))
    assert rep.status == "finite" and rep.dim == 1


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_claimed_generator_counts_match_splitting_type(l):
    from ncdef.bundle import contraction_splitting_type, cohomology_dims
    from ncdef.zoo import _claimed_genset

    # the two-generator presentations after eliminating redundant parameters:
    # for l >= 3, t, the parameters the central expressions use, and b, c
    gens = (
        length2_claimed_presentation().gens if l == 2 else _claimed_genset(l)
    )
    h0, _ = cohomology_dims(contraction_splitting_type(l))
    assert len(gens.names) == h0


@pytest.mark.parametrize("l", [2, 3, 4])
def test_verify_higher_length_small(l):
    rep = verify_higher_length(l)
    for v in rep.forward:
        assert v.reading == "literal"
    assert rep.backward and all(c.ok for c in rep.backward)


def test_verify_higher_length_5_uses_difference_reading():
    rep = verify_higher_length(5)
    assert [v.reading for v in rep.forward] == ["literal", "literal", "difference"]
    assert all(c.ok for c in rep.backward)


def test_verify_higher_length_6_needs_correction():
    rep = verify_higher_length(6)
    assert rep.forward[1].reading == "difference"
    last = rep.forward[2]
    assert last.reading is None  # no stated reading certifies
    assert last.corrected_status == "certified-zero"
    assert all(c.ok for c in rep.backward)


@pytest.mark.parametrize("l", [3, 4])
def test_verify_higher_length_completes_each_presentation_once(l, monkeypatch):
    from ncdef import ncgb

    calls = []
    real = ncgb.nc_complete

    def counting(p, trunc, provenance=True):
        calls.append((p, trunc))
        return real(p, trunc, provenance)

    monkeypatch.setattr(ncgb, "nc_complete", counting)
    rep = verify_higher_length(l, 8)
    assert rep.ok
    # the source once for every slot, the claimed presentation once
    assert len(calls) == 2
    assert calls[0][0] == karmazyn_contraction_presentation(l)


@pytest.mark.parametrize("l", [3, 5])
def test_batched_claims_match_claims_checked_alone(l, monkeypatch):
    from ncdef import ncgb, zoo

    batches = []

    def recording(p, claims, trunc):
        results = ncgb.derive_check(p, claims, trunc)
        batches.append((p, claims, results))
        return results

    monkeypatch.setattr(zoo, "derive_check", recording)
    verify_higher_length(l, 8)
    # forward: every reading of every slot plus each defined correction
    # (l = 5: readings 1 + 1 + 2 and a correction of slot 2); then backward
    assert len(batches) == 2 and len(batches[0][1]) == {3: 3, 5: 5}[l]
    for p, claims, results in batches:
        for claim, res in zip(claims, results):
            alone = ncgb.derive_check(p, [claim], 8)[0]
            assert (res.status, res.certificate, res.normal_form) == (
                alone.status, alone.certificate, alone.normal_form
            )


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_claimed_readings_and_backward_expressions_nonempty(l):
    slots = claimed_relation_readings(l)
    assert slots and all(readings for readings in slots)
    assert backward_central_expressions(l)


# ----------------------------------------------------- pinned family data

ZOO_DATA = pathlib.Path(__file__).parent / "golden" / "zoo_data.json"


def _zoo_data():
    """Every presentation, claimed reading, backward expression, correction
    and claimed generator set of the families, as text."""
    from ncdef.zoo import _claimed_genset

    def pres(p):
        return {"gens": asdict(p.gens), "order": p.order,
                "relations": [nc_str(r) for r in p.relations]}

    return {
        "karmazyn": {l: pres(karmazyn_contraction_presentation(l)) for l in range(1, 7)},
        "readings": {
            l: [[[name, nc_str(f)] for name, f in slot]
                for slot in claimed_relation_readings(l)]
            for l in range(2, 7)
        },
        "backward": {
            l: [[label, nc_str(x)] for label, x in backward_central_expressions(l)]
            for l in range(2, 7)
        },
        "corrected": {
            l: [None if f is None else nc_str(f)
                for f in (corrected_relation(l, s) for s in range(3))]
            for l in range(2, 7)
        },
        "claimed_genset": {l: asdict(_claimed_genset(l)) for l in range(2, 7)},
        "length2_claimed": pres(length2_claimed_presentation()),
        "length2_central": {k: nc_str(f) for k, f in length2_central_elements().items()},
    }


def _zoo_data_text():
    return json.dumps(_zoo_data(), indent=1, sort_keys=True) + "\n"


def test_zoo_data_matches_pinned():
    assert _zoo_data_text() == ZOO_DATA.read_text(encoding="utf-8")


# ------------------------------------------------------------- invariants


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_invariant_table_checks(n):
    table = invariant_table(n)
    assert all(table.checks.values()), table.checks
    rows = table.rows
    # values with a proof (Toda: dim A_con = n_1 + 4 n_2, n_1 = dim A_con^ab):
    # dim 6n+3 for A_0 and A_{n+j}; abelianized dims 2n+3 for A_0 and 2+2i
    # for A_i, 1 <= i <= n
    assert [r.dim for r in [rows[0]] + rows[n + 1:]] == [6 * n + 3] * (n + 1)
    assert [r.ab_dim for r in rows[: n + 1]] == [2 * n + 3] + [
        2 + 2 * i for i in range(1, n + 1)
    ]
    # whole rows at n <= 2; the middle dimensions at n >= 3 come from the
    # engine alone, so they are not asserted
    expected = {1: [9, 8, 9], 2: [15, 12, 14, 15, 15]}
    if n in expected:
        assert [r.dim for r in rows] == expected[n]


def test_invariant_table_n1_details():
    table = invariant_table(1)
    rows = {r.label: r for r in table.rows}
    a0 = rows["A_0"]
    assert a0.weight_list == [0, 2, 3, 4, 5, 6, 7, 8, 10]
    assert a0.ab_dim == 5 and a0.center_dim == 6
    a1 = rows["A_1"]
    assert a1.dim == 8 and a1.ab_dim == 4


# ---------------------------------------------------------- superpotential


def test_cyclic_derivative_basic():
    g = genset(["a", "b"])
    a, b = NcPoly.gen(g, "a"), NcPoly.gen(g, "b")
    # d/da of aba = 2*ba up to cyclic moves: occurrences rotate to front
    f = a * b * a
    assert cyclic_derivative(f, "a") == b * a + a * b
    assert cyclic_derivative(f, "b") == a * a


def test_superpotential_report_pattern():
    rep = superpotential_check(1, standard_lambda(1, 0))
    assert rep.matches == {"a": True, "b": True, "c": False, "d": False, "w": True}
    assert set(rep.differences) == {"c", "d"}
    assert rep.reduces_to_deformed_family


@pytest.mark.parametrize("n,i", [(n, i) for n in (1, 2) for i in range(1, 2 * n + 1)])
def test_superpotential_report_at_nonzero_lambda(n, i):
    # the lambda terms only involve b, so the report is the lambda = 0 one
    rep = superpotential_check(n, standard_lambda(n, i))
    assert rep.matches == {"a": True, "b": True, "c": False, "d": False, "w": True}
    assert rep.reduces_to_deformed_family
    assert rep == superpotential_check(n, standard_lambda(n, 0))


def test_suitecheck_ok_values():
    assert SuiteCheck("x", "pass").ok
    assert SuiteCheck("x", "certified-zero").ok
    assert not SuiteCheck("x", "inconclusive").ok


if __name__ == "__main__":
    ZOO_DATA.write_text(_zoo_data_text(), encoding="utf-8")
    print(f"recorded {ZOO_DATA.name}", file=sys.stderr)
