"""Exception hierarchy shared by all radialcap modules, and the one rule
for a number a caller passes in (:func:`check_number`): its type, its
finiteness and its range, where a range's bound may be another input.
Every input error is a :class:`ConfigError`, which is a ``ValueError``; a
point where an expression leaves its domain is a :class:`DomainError`."""

import functools
import math
import numbers


class RadialCapError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RadialCapError, ValueError):
    """Invalid input: a number, radius, field, flag or text outside its domain."""


class ParseError(ConfigError):
    """Malformed expression text.

    Attributes:
        position: 0-based character offset where parsing failed.
        expected: tuple of token descriptions that would have been valid.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.position = position
        self.expected = tuple(expected)


class UnknownIdentifierError(ParseError):
    """Identifier outside the fixed function set (and not the variable r)."""

    def __init__(self, name, position):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", position)


class DomainError(RadialCapError):
    """Evaluation left the mathematical domain (log of non-positive,
    division by zero, pole of coth, ...).

    Attributes:
        r: the offending evaluation point, when known.
        detail: description of the failing subexpression or condition.
        mask: the points the failing check flagged, a bool or a bool array
            that broadcasts against the evaluation points (True flags them
            all); None when the error does not come from such a check.
    """

    def __init__(self, detail, r=None, mask=None):
        self.r = r
        self.detail = detail
        self.mask = mask
        super().__init__(detail if r is None else f"{detail} at r={r!r}")


class QuadratureError(RadialCapError):
    """Adaptive integration could not reach the requested tolerance.

    Attributes:
        worst_interval: (a, b, error_estimate) of the worst subinterval.
        value: best value obtained before giving up.
    """

    def __init__(self, message, worst_interval=None, value=None):
        self.worst_interval = worst_interval
        self.value = value
        if worst_interval is not None:
            a, b, err = worst_interval
            message = f"{message}; worst subinterval [{a:.6g}, {b:.6g}] err={err:.3g}"
        super().__init__(message)


@functools.cache
def _number_kind(kind: type):
    """None unless ``kind`` is a real number type other than bool, else
    whether it is an integer type; cached, as the ABC checks cost more than
    the rest of :func:`check_number`."""
    if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
        return None
    return issubclass(kind, numbers.Integral)


def _shown(bound):
    """A bound as an error text shows it: the number, or ``name (value)``."""
    return f"{bound[0]} ({bound[1]})" if isinstance(bound, tuple) else bound


def check_number(name, value, *, integer=False, above=None, at_least=None):
    """Raise :class:`ConfigError` naming ``name`` at the first of these
    rules that ``value`` breaks, in this order: it is a real number and not
    a bool (numpy scalars count), it is finite, it is an integer if
    ``integer``, it is > ``above`` and it is >= ``at_least``, each if given.
    A bound is a number or a ``(name, value)`` pair naming another input,
    which the caller checks first: "R must be > rho (1.0), got 0.5".  A
    radius queried on a primitive takes the same rules
    (:func:`~radialcap.quadrature.check_radius`).  A point where an
    expression is evaluated (``evaluate``, ``eval_jet2``) is not an input:
    +inf there gives the expression's limit, and NaN is a DomainError."""
    integral = _number_kind(type(value))
    if integral is None:
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    # an int is finite, however large; math.isfinite would overflow on it
    if not (integral or math.isfinite(value)):
        raise ConfigError(f"{name} must be finite, got {value}")
    if integer and not integral:
        raise ConfigError(f"{name} must be an integer, got {value}")
    if above is not None and not value > (above[1] if isinstance(above, tuple) else above):
        raise ConfigError(f"{name} must be > {_shown(above)}, got {value}")
    if at_least is not None and not value >= (at_least[1] if isinstance(at_least, tuple)
                                              else at_least):
        raise ConfigError(f"{name} must be >= {_shown(at_least)}, got {value}")
