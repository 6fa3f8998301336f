from fractions import Fraction

import pytest

from ncdef.exprparse import ParseError, parse_expr, presentation_parse, render
from ncdef.freealg import NcPoly, genset
from ncdef.zoo import (
    karmazyn_contraction_presentation,
    laufer_presentation,
    length2_claimed_presentation,
    standard_lambda,
)

G = genset(["a", "b"])
A = NcPoly.gen(G, "a")
B = NcPoly.gen(G, "b")


# -------------------------------------------------------------- expressions


def test_parse_basic_arithmetic():
    assert parse_expr("a*b + b*a", G) == A * B + B * A
    assert parse_expr("a^2 + b^3", G) == A * A + B ** 3
    assert parse_expr("2*a - 3*b", G) == A.scale(2) - B.scale(3)


def test_parse_rational_coefficients():
    f = parse_expr("1/3*a - 2/5", G)
    assert f == A.scale(Fraction(1, 3)) - NcPoly.const(G, Fraction(2, 5))


def test_parse_parens_and_unary_minus():
    assert parse_expr("-(a + b)*a", G) == (A + B).scale(-1) * A
    assert parse_expr("--a", G) == A
    assert parse_expr("-a^2", G) == (A * A).scale(-1)


def test_parse_noncommutative_order_preserved():
    assert parse_expr("a*b", G) != parse_expr("b*a", G)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_expr("a + @", G, line=3)
    assert e.value.line == 3 and e.value.col == 5
    with pytest.raises(ParseError) as e:
        parse_expr("a + c", G)
    assert e.value.col == 5
    for bad in ["a +", "a ^ b", "(a", "a b", "a ^ 1/2"]:
        with pytest.raises(ParseError):
            parse_expr(bad, G)


def test_zero_denominator_is_a_parse_error_at_the_number():
    with pytest.raises(ParseError) as e:
        parse_expr("a*b + 1/0*b*a", G, line=4)
    assert (e.value.line, e.value.col) == (4, 7)
    assert "zero denominator" in str(e.value)


# ------------------------------------------------------ presentation files


def test_presentation_parse_minimal():
    p = presentation_parse("generators: a b\nrelations: a*b + b*a ; a^2 + b^3\n")
    assert p.gens.names == ("a", "b")
    assert p.order == "deglex"
    assert p.relations == (A * B + B * A, A * A + B ** 3)


def test_presentation_parse_weights_switch_order():
    p = presentation_parse(
        "generators: a b\nweights: 3 2\nrelations: a*b + b*a\n"
    )
    assert p.order == "wdeglex"
    assert p.gens.weights == (3, 2)


def test_presentation_parse_comments_and_blanks():
    p = presentation_parse(
        "# demo algebra\n\ngenerators: a b\n\nrelations: a^2\n"
    )
    assert len(p.relations) == 1
    p = presentation_parse("generators: a b\nrelations: a*b ; ; b^2 ;\n")
    assert p.relations == (A * B, B * B)


def test_presentation_central_extends_generators():
    p = presentation_parse(
        "generators: a b\ncentral: t\nrelations: a*b - t*b*a\n"
    )
    assert p.gens.names == ("t", "a", "b")
    assert p.gens.central == (True, False, False)


def test_presentation_all_central_is_commutative():
    p = presentation_parse("generators: x y\ncentral: x y\nrelations: x*y\n")
    assert p.gens.commutative


def test_presentation_parse_errors():
    cases = [
        ("relations: a\n", "missing 'generators'"),
        ("generators: a a\n", "duplicate generator"),
        ("generators: a\ngenerators: b\n", "duplicate header"),
        ("generators: a\nbogus: 1\n", "unknown header"),
        ("generators: a\nweights: 1 2\n", "one weight per"),
        ("generators: a\nweights: x\n", "integers"),
        ("generators: a\ncentral: t t\n", "duplicate central name"),
        ("generators:\n", "no generators"),
        ("generators: a\nrelations: a + 1\n", ""),
        ("generators a\n", "header"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as e:
            presentation_parse(text)
        assert fragment in str(e.value)


def test_parse_error_reports_relation_line():
    with pytest.raises(ParseError) as e:
        presentation_parse("generators: a\n\nrelations: a + %\n")
    assert e.value.line == 3


@pytest.mark.parametrize("text, line", [
    ("generators: a b\nweights: 0 2\n", 2),
    ("generators: a b\n\nweights: 3 -1\n", 3),
])
def test_parse_error_reports_weights_line(text, line):
    with pytest.raises(ParseError, match="weights must be >= 1") as e:
        presentation_parse(text)
    assert e.value.line == line


# ------------------------------------------------------------- round trips


FIXTURES = [
    laufer_presentation(1, standard_lambda(1, 0)),
    laufer_presentation(2, standard_lambda(2, 3)),
    length2_claimed_presentation(),
    karmazyn_contraction_presentation(3),
    karmazyn_contraction_presentation(6),
]


@pytest.mark.parametrize("p", FIXTURES, ids=lambda p: ",".join(p.gens.names))
def test_render_round_trip(p):
    q = presentation_parse(render(p))
    assert q.gens == p.gens
    assert q.order == p.order
    assert q.relations == p.relations


def test_render_rational_and_negative_terms():
    g = genset(["a"])
    a = NcPoly.gen(g, "a")
    from ncdef.ncgb import Presentation

    p = Presentation(g, (a ** 2 - a.scale(Fraction(1, 2)),), "deglex")
    q = presentation_parse(render(p))
    assert q.relations == p.relations
