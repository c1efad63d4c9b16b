import pytest

from toricfol.casefile import CaseError, CaseFile, _exact_int, parse_case, render_case
from toricfol.degrees import DegreeClass
from toricfol.families import rational_scroll, torsion_fermat_fixture
from toricfol.grading import homogeneous_degree
from toricfol.parsing import ParseError, parse_polynomial

P2_FERMAT = """
[model]
dimension = 2
variables = z1 z2 z3
rays = (1,0) (0,1) (-1,-1)
cones = {1,2} {2,3} {1,3}

[hypersurface]
f = z1^3 + z2^3 + z3^3
"""


def test_parse_minimal_projective_case():
    case = parse_case(P2_FERMAT)
    assert case.model.class_group.describe() == "Z"
    assert homogeneous_degree(case.model, case.hypersurface).free == (3,)


def test_expression_grammar():
    names = ("z1", "z2")
    p = parse_polynomial("2*z1^2*z2 - 1/3*z2 + 4", names)
    assert p.terms[(2, 1)] == 2
    assert str(p.terms[(0, 1)]) == "-1/3"
    assert p.terms[(0, 0)] == 4
    repeated = parse_polynomial("z1*z1*z1", names)
    assert repeated.terms == {(3, 0): 1}


def test_float_literal_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("1.5*z1", ("z1",))
    assert "rational literals must be p/q" in str(err.value)


def test_undeclared_variable_located():
    with pytest.raises(ParseError) as err:
        parse_polynomial("z1 + w^2", ("z1",), line=7)
    assert err.value.line == 7
    assert "undeclared" in err.value.message


def test_caret_requires_integer_exponent():
    with pytest.raises(ParseError):
        parse_polynomial("z1^z1", ("z1",))


def test_fixture_round_trip_equal():
    fix = torsion_fermat_fixture(3)
    case = CaseFile(
        model=fix.model,
        hypersurface=fix.hypersurface,
        field=fix.field,
        radial_index=fix.radial_index,
        subset=fix.subset,
    )
    text = render_case(case)
    parsed = parse_case(text)
    assert parsed == case
    assert render_case(parsed) == text


def test_presentation_round_trip():
    model = rational_scroll(1, 2)
    case = CaseFile(model=model)
    parsed = parse_case(render_case(case))
    assert parsed.model == model
    assert render_case(parsed) == render_case(case)


def test_case_with_options():
    text = P2_FERMAT + "\n[options]\nradial_index = 1\nsubset = z1 z2\n"
    case = parse_case(text)
    assert case.radial_index == 0
    assert case.subset == (0, 1)


def test_case_errors_located():
    bad = """
[model]
dimension = 2
variables = z1 z2 z3
rays = (1,0) (0,1) (-1,-1)

[hypersurface]
f = z1 + 1.5*z2
"""
    with pytest.raises(CaseError) as err:
        parse_case(bad)
    assert "rational literals" in str(err.value)

    with pytest.raises(CaseError):
        parse_case("[model]\ndimension = 2\nvariables = z1 z2\n")  # no rays, no degrees

    with pytest.raises(CaseError):
        parse_case(P2_FERMAT.replace("(1,0)", "(1.0,0)"))


# U+0662 and U+0663 are the Arabic-Indic digits two and three: decimal
# digits to Unicode, but not digits of a case file, which render_case
# writes in ASCII.
def test_non_ascii_digit_in_expression_is_a_stray_character():
    with pytest.raises(ParseError) as err:
        parse_polynomial("\u0662*x^\u0663 + y", ("x", "y"), line=4)
    assert str(err.value) == "line 4, column 1: unexpected character '\u0662'"
    with pytest.raises(CaseError) as err:
        parse_case(P2_FERMAT.replace("z1^3", "z1^\u0663"))
    assert str(err.value) == "line 9, column 4: unexpected character '\u0663'"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dimension = 2", "dimension = \u0662", "line 3: dimension: exact integer required, got '\u0662'"),
        ("(1,0)", "(\u0661,0)", "line 5: ray: exact integer required, got '\u0661'"),
        ("{1,2}", "{1,\u0662}", "line 6: cone index: exact integer required, got '\u0662'"),
    ],
)
def test_non_ascii_digit_on_a_model_line_is_not_an_integer(old, new, message):
    with pytest.raises(CaseError) as err:
        parse_case(P2_FERMAT.replace(old, new))
    assert str(err.value) == message


def test_non_ascii_digit_in_a_degree_or_flag_is_not_an_integer():
    text = "[model]\ndimension = 1\nvariables = a b\ntorsion = \u0663\ndegrees = (1,[0]) (1,[1])\n"
    with pytest.raises(CaseError) as err:
        parse_case(text)
    assert str(err.value) == "line 4: torsion factor: exact integer required, got '\u0663'"
    with pytest.raises(CaseError) as err:
        parse_case(text.replace("torsion = \u0663", "torsion = 3").replace("(1,[1])", "(\u0661,[1])"))
    assert str(err.value) == "line 5: degree entry: exact integer required, got '\u0661'"
    with pytest.raises(ValueError, match="--m: exact integer required, got '\u0663'"):
        _exact_int(" \u0663 ", "--m")


def test_case_degree_presentation_with_torsion():
    text = """
[model]
dimension = 2
variables = z1 z2 z3
torsion = 3
degrees = (1,[0]) (1,[2]) (1,[1])
"""
    case = parse_case(text)
    assert case.model.moduli == (3,)
    assert case.model.degrees[1] == DegreeClass((1,), (2,), (3,))


def test_case_field_section_and_unknown_keys():
    text = P2_FERMAT + "\n[field]\nz1 = z2^2\nz9 = z1\n"
    with pytest.raises(CaseError) as err:
        parse_case(text)
    assert "undeclared" in str(err.value)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("\n[hypersurface]\nf = z1^3\n", "line 12: repeated key 'f' in [hypersurface]"),
        ("\n[field]\nz1 = z2\nz1 = z3\n", "line 13: repeated key 'z1' in [field]"),
        ("\n[options]\nsubset = z1 z2\nsubset = z2 z3\n", "line 13: repeated key 'subset' in [options]"),
        ("\n[model]\ncone = {1,2}\n", "line 12: unknown model key 'cone'"),
        ("\n[weird]\nkey = 1\n", "line 11: unknown section [weird]"),
    ],
    ids=["hypersurface", "field", "option", "model-key", "section"],
)
def test_repeated_and_unknown_keys_are_located(extra, message):
    with pytest.raises(CaseError) as err:
        parse_case(P2_FERMAT + extra)
    assert str(err.value) == message


def test_a_section_given_twice_is_one_section():
    case = parse_case(P2_FERMAT + "\n[model]\nname = fermat\n")
    assert case.model.name == "fermat"
    with pytest.raises(CaseError) as err:
        parse_case(P2_FERMAT + "\n[model]\ndimension = 2\n")
    assert str(err.value) == "line 12: repeated key 'dimension' in [model]"


def _without_degrees(fix):
    text = render_case(CaseFile(model=fix.model, hypersurface=fix.hypersurface))
    return "".join(line for line in text.splitlines(True) if not line.startswith("degrees ="))


# The torsion surface by its rays and torsion alone, with no degrees line.
S_Z3_RAYS = _without_degrees(torsion_fermat_fixture(3))


def test_torsion_beside_rays_that_matches_the_model_is_kept():
    model = parse_case(S_Z3_RAYS).model
    assert model.moduli == (3,)
    assert model.class_group.describe() == "Z + Z/3"


@pytest.mark.parametrize(
    "text, old, new, lineno",
    [
        (P2_FERMAT, "cones =", "torsion = 7\ncones =", 6),  # P^2 has no torsion
        (P2_FERMAT, "rays =", "torsion = 2\nrays =", 5),
        (S_Z3_RAYS, "torsion = 3", "torsion = 5", 6),
        (S_Z3_RAYS, "torsion = 3", "torsion = 3 3", 6),
    ],
    ids=["p2-torsion-7", "p2-torsion-2-first", "s-z3-torsion-5", "s-z3-torsion-3-3"],
)
def test_torsion_beside_rays_must_match_the_model(text, old, new, lineno):
    with pytest.raises(CaseError) as err:
        parse_case(text.replace(old, new))
    assert str(err.value).startswith(f"line {lineno}: torsion does not match the torsion of the model")


def test_torsion_beside_rays_mismatch_exits_one(tmp_path, capsys):
    from toricfol.cli import run

    path = tmp_path / "p2.case"
    path.write_text(P2_FERMAT.replace("cones =", "torsion = 7\ncones ="))
    assert run(["classgroup", "--case", str(path)]) == 1
    assert "line 6: torsion does not match" in capsys.readouterr().out


def test_cone_indices_one_based():
    with pytest.raises(CaseError):
        parse_case(P2_FERMAT.replace("{1,2}", "{0,1}"))


def test_all_fixture_families_round_trip():
    from toricfol.families import (
        biproj_pairs_fixture,
        monomial_hypersurface_fixture,
        split_field_fixture,
        wps_pairs_fixture,
    )

    fixtures = [
        wps_pairs_fixture((1, 2, 1, 2), (4, 2, 4, 2)),
        biproj_pairs_fixture(1, [1], [1]),
        torsion_fermat_fixture(6),
        split_field_fixture(2, 1),
        monomial_hypersurface_fixture(3, 2),
    ]
    for fix in fixtures:
        case = CaseFile(
            model=fix.model,
            hypersurface=fix.hypersurface,
            field=fix.field,
            radial_index=fix.radial_index,
            subset=fix.subset,
        )
        text = render_case(case)
        parsed = parse_case(text)
        assert parsed == case, fix.name
        assert render_case(parsed) == text


def test_malformed_inputs_raise_case_errors_only():
    # every broken input must surface as a located CaseError, never a crash
    samples = [
        "",
        "[model]",
        "[model]\ndimension = two\nvariables = x\n",
        "[model]\ndimension = 1\nvariables = x y\nrays = (1) (-1) (0)\n",
        "[model]\ndimension = 1\nvariables = x y\ndegrees = 1\n",
        "[model]\ndimension = 1\nvariables = x y\ndegrees = 1 (1,1)\n",
        "[model]\ndimension = 1\nvariables = x x\nrays = (1) (-1)\n",
        "key = value\n[model]\n",
        "[model]\ndimension = 1\nvariables = x y\nrays = (1 (-1)\n",
        P2_FERMAT + "\n[options]\nradial_index = 5\n",
        P2_FERMAT + "\n[options]\nsubset = nope\n",
        P2_FERMAT + "\n[options]\nmystery = 1\n",
        P2_FERMAT.replace("[hypersurface]", "[hypersurface"),
    ]
    for text in samples:
        with pytest.raises(CaseError):
            parse_case(text)
