import math
import re

import numpy as np
import pytest

from radialcap.errors import ConfigError, check_number


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
        check_number("x", value, error=ConfigError, **rules)
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        check_number("x", value, **rules)


@pytest.mark.parametrize("value", [0.0, 3, np.int64(7), np.float64(2.5), 10**400],
                         ids=["0.0", "3", "int64", "float64", "10**400"])
def test_check_number_passes_finite_real_numbers(value):
    assert check_number("x", value, at_least=0) is None


def test_check_number_passes_values_inside_named_bounds():
    assert check_number("R", 2.0, above=("rho", 1.0)) is None
    assert check_number("n", 3, integer=True, at_least=("m", 3)) is None
