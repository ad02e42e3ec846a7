import math

import numpy as np
import pytest

from pdmp_impulse.errors import ModelParseError
from pdmp_impulse.expressions import compile_expr


def test_constant_detection():
    e = compile_expr("0.5", ("zeta",), "test")
    assert e.constant == 0.5


def test_bare_number_accepted():
    e = compile_expr(2, ("zeta",), "test")
    assert e.constant == 2.0


def test_variable_expression():
    e = compile_expr("1.0 + 0.5*zeta[0]", ("zeta",), "test")
    assert e.constant is None
    assert e({"zeta": [3.0]}) == 2.5


def test_vectorized_evaluation():
    e = compile_expr("zeta[0]**2 + zeta[1]", ("zeta",), "test")
    z0 = np.array([1.0, 2.0, 3.0])
    z1 = np.array([0.5, 0.5, 0.5])
    np.testing.assert_allclose(e({"zeta": [z0, z1]}), z0 ** 2 + z1)


def test_functions_and_constants():
    e = compile_expr("exp(-zeta[0]) + pi", ("zeta",), "test")
    assert e({"zeta": [0.0]}) == pytest.approx(1.0 + math.pi)
    e2 = compile_expr("max(zeta[0], 2.0)", ("zeta",), "test")
    assert e2({"zeta": [1.0]}) == 2.0


def test_unknown_name_rejected():
    with pytest.raises(ModelParseError, match="unknown name"):
        compile_expr("q + 1", ("zeta",), "test")


def test_disallowed_syntax_rejected():
    for bad in ("__import__('os')", "zeta[0] if 1 else 2", "(lambda: 1)()",
                "zeta.real", "[1,2][0]"):
        with pytest.raises(ModelParseError):
            compile_expr(bad, ("zeta",), "test")


@pytest.mark.parametrize("source", ["'0.5'", "0.5 + 0*zeta[0]*'a'", "1j", "None"])
def test_non_numeric_literal_rejected(source):
    with pytest.raises(ModelParseError, match="only numeric literals"):
        compile_expr(source, ("zeta",), "test")


def test_non_integer_subscript_rejected():
    with pytest.raises(ModelParseError, match="integer literals"):
        compile_expr("zeta[zeta[0]]", ("zeta",), "test")


def test_parse_error_names_location():
    with pytest.raises(ModelParseError, match="intensity"):
        compile_expr("1.0 +", ("zeta",), "intensity[1]")


@pytest.mark.parametrize("source", ["(-1)**0.5", "1/0", "10.0**400", "exp(1, 2)"])
def test_constant_that_is_not_a_real_number_rejected(source):
    with pytest.raises(ModelParseError, match=r"intensity\[1\].*not a real number"):
        compile_expr(source, ("zeta",), "intensity[1]")


def test_non_finite_constant_rejected():
    with pytest.raises(ModelParseError, match="non-finite"), np.errstate(divide="ignore"):
        compile_expr("log(0)", ("zeta",), "intensity[1]")
