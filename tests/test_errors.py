import math
import re

import numpy as np
import pytest

from radialcap.constellation import Constellation, WeightFunction, balance, balance_sign
from radialcap.criteria import classify, sweep
from radialcap.dirichlet import (
    drift_coeff, flux_bound, operator_residual, solve_dirichlet_closed,
)
from radialcap.errors import (
    ConfigError, ParseError, RadialCapError, UnknownIdentifierError, check_number,
)
from radialcap.model import exact_annulus_p_capacity


@pytest.mark.parametrize("value, rules, text", [
    (math.nan, {"above": 0}, "x must be finite, got nan"),
    (-math.inf, {"at_least": 0}, "x must be finite, got -inf"),
    (2.5, {"integer": True, "at_least": 3}, "x must be an integer, got 2.5"),
    (0, {"integer": True, "above": 0, "at_least": 1}, "x must be > 0, got 0"),
    (1, {"integer": True, "at_least": 2}, "x must be >= 2, got 1"),
    (True, {"integer": True}, "x must be a real number, got True"),
    (np.True_, {}, "x must be a real number, got np.True_"),
    ("3", {}, "x must be a real number, got '3'"),
    (np.float64(np.nan), {}, "x must be finite, got nan"),
    (np.float32(2.0), {"integer": True}, "x must be an integer, got 2.0"),
    (1.0, {"above": ("rho", 1.0)}, "x must be > rho (1.0), got 1.0"),
    (2, {"integer": True, "at_least": ("m", 3)}, "x must be >= m (3), got 2"),
    (math.inf, {"above": ("rho", 1.0)}, "x must be finite, got inf"),
], ids=["nan-positive", "-inf-at_least", "2.5-integer", "0-positive", "1-at_least", "True",
        "numpy-bool", "str", "numpy-nan", "numpy-2.0-integer", "1.0-above-named",
        "2-at_least-named", "inf-above-named"])
def test_check_number_names_the_first_rule_broken(value, rules, text):
    # the rules run in one order: a real number, finite, integer, > above, >= at_least
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        check_number("x", value, **rules)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        check_number("x", value, **rules)


@pytest.mark.parametrize("value", [0.0, 3, np.int64(7), np.float64(2.5), 10**400],
                         ids=["0.0", "3", "int64", "float64", "10**400"])
def test_check_number_passes_finite_real_numbers(value):
    assert check_number("x", value, at_least=0) is None


def test_check_number_passes_values_inside_named_bounds():
    assert check_number("R", 2.0, above=("rho", 1.0)) is None
    assert check_number("n", 3, integer=True, at_least=("m", 3)) is None


def test_every_input_error_is_one_config_error():
    assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, RadialCapError)
    assert issubclass(ParseError, ConfigError) and issubclass(UnknownIdentifierError, ConfigError)


NAN = math.nan


@pytest.mark.parametrize("name, call", [
    ("p", lambda c: classify(c, NAN, 1.0)),
    ("p_from", lambda c: sweep(c, NAN, 3.0, 0.5, 1.0)),
    ("p", lambda c: balance(c, NAN, 1.0)),
    ("p", lambda c: balance_sign(c, NAN, (0.1, 10.0))),
    ("p", lambda c: drift_coeff(c, NAN, 1.0)),
    ("p", lambda c: WeightFunction(c, NAN, 1.0)),
    ("p", lambda c: solve_dirichlet_closed(c, NAN, 1.0, 2.0)),
    ("p", lambda c: exact_annulus_p_capacity(c.model, 1.0, 2.0, NAN)),
    ("p", lambda c: flux_bound(1.0, 1.0, NAN, 1.0)),
    ("p", lambda c: operator_residual(c, NAN, 1.0, 2.0, solve_dirichlet_closed(c, 3.0, 1.0, 2.0))),
], ids=["classify", "sweep", "balance", "balance_sign", "drift_coeff", "WeightFunction",
        "solve_dirichlet_closed", "exact_annulus_p_capacity", "flux_bound", "operator_residual"])
def test_a_nan_exponent_is_a_config_error_everywhere(name, call):
    # classify and sweep raised a ConfigError, the other eight a ValueError,
    # with the same text
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got nan$"):
        call(Constellation.from_functions(3, 3, "r"))
