"""Moment functionals on noncommutative monomials, with exact rationals.

A moment functional assigns a rational expectation to monomials in a
fixed set of variables.  ``E(1) = 1`` always holds; any other moment the
functional cannot produce is a hard error (:class:`MissingMomentError`)
rather than a default value.

Moment tables are loaded from JSON of the form::

    {"vars": ["a", "b"],
     "moments": [{"word": ["a"], "value": "1/2"},
                 {"word": ["a", "b"], "value": "0/1"}]}

with every value a ``p/q`` string.  A rule's values join the table.

Values are exact rationals.  A ``Fraction`` is kept as it is given,
shared with the caller since it is immutable; any other value, a
``Fraction`` subclass included, is converted once with ``Fraction``.

Free cumulant tables, which the CLI's ``moments`` command reads, list
one value per order, each order a positive integer at most once::

    {"cumulants": [{"order": 1, "value": "0/1"},
                   {"order": 2, "value": "1/1"}]}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .words import _echo


class MissingMomentError(LookupError):
    """Raised when a functional has no value for a requested monomial.

    ``monomial`` is the tuple of factors; the message writes each factor
    by ``str``, as ``a*b*a``, and names the empty monomial in words, so
    it never reads as a one-factor monomial ``1``.
    """

    def __init__(self, monomial: tuple[str, ...]) -> None:
        shown = f"monomial {'*'.join(map(str, monomial))}" if monomial else "the empty monomial"
        super().__init__(f"moment undefined for {shown}")
        self.monomial = monomial


class MomentTableError(ValueError):
    """Raised when a moment table fails to parse or validate."""


_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")


def parse_rational(text: str) -> Fraction:
    """Parse a ``p/q`` string into an exact rational.

    Exactly an optional ``-``, ASCII digits, ``/`` and ASCII digits: no
    whitespace, ``+``, underscores or signed denominator.  An error
    message echoes a long value cut short, as ``words._echo`` does.
    """
    if not isinstance(text, str) or _RATIONAL.fullmatch(text) is None:
        raise MomentTableError(f"rational value must be a 'p/q' string, got {_echo(text)}")
    num, den = text.split("/")
    try:
        # int() refuses digit strings longer than its conversion limit.
        p, q = int(num), int(den)
    except ValueError:
        raise MomentTableError(
            f"rational value must be a 'p/q' string, got {_echo(text)}"
        ) from None
    if q == 0:
        raise MomentTableError(f"zero denominator in rational value {_echo(text)}")
    return Fraction(p, q)


def _exact(value: object) -> Fraction:
    """``value`` itself if it is a ``Fraction``, else ``Fraction(value)``,
    which also turns a ``Fraction`` subclass into a plain one."""
    return value if type(value) is Fraction else Fraction(value)


def format_rational(x: Fraction) -> str:
    """Render an exact rational as ``p/q`` (always with a denominator)."""
    return f"{x.numerator}/{x.denominator}"


class MomentFunctional:
    """Expectations of monomials over a fixed variable set.

    Values come from an explicit table and, failing that, from an
    optional generative rule.  A ``Fraction``, from either, is kept as it
    is given; any other value is converted once with ``Fraction``, so an
    ``int`` or a ``float`` gives its exact rational.  A rule value that
    ``Fraction`` rejects is a ``ValueError`` naming the monomial.  Rule
    results are memoized in the same dict as the table, whose entries
    are only ever written once per key with an identical value, so
    concurrent readers are safe.
    """

    def __init__(
        self,
        variables: Sequence[str],
        table: Mapping[tuple[str, ...], Fraction] | None = None,
        rule: Callable[[tuple[str, ...]], Fraction | None] | None = None,
    ) -> None:
        self._variables = tuple(variables)
        if len(set(self._variables)) != len(self._variables):
            raise ValueError(f"duplicate variable names: {self._variables}")
        self._varset = frozenset(self._variables)
        self._table = {tuple(factors): _exact(value) for factors, value in (table or {}).items()}
        unit = self._table.setdefault((), Fraction(1))
        if unit != 1:
            raise ValueError(f"the empty monomial must have expectation 1, got {unit}")
        self._rule = rule

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    def expect(self, monomial: Sequence[str]) -> Fraction:
        """The expectation of a monomial, given as its sequence of
        factors; raises on anything undefined."""
        factors = tuple(monomial)
        if not self._varset.issuperset(factors):
            raise MissingMomentError(factors)
        hit = self._table.get(factors)
        if hit is not None:
            return hit
        if self._rule is not None:
            value = self._rule(factors)
            if value is not None:
                try:
                    value = _exact(value)
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(
                        f"moment rule gave {value!r} for monomial {'*'.join(factors)},"
                        " not a rational"
                    ) from None
                self._table[factors] = value
                return value
        raise MissingMomentError(factors)


def semicircular_family(
    covariances: Sequence[Fraction | int],
    names: Sequence[str] | None = None,
) -> MomentFunctional:
    """A free family of centered semicircular variables with a diagonal
    covariance.

    Mixed moments are sums over non-crossing pair partitions in which
    paired positions carry the same variable, each pairing contributing
    the product of its covariances.  Odd-length monomials vanish.
    """
    covs = [_exact(c) for c in covariances]
    if not covs:
        raise ValueError("at least one variable is required")
    if any(c < 0 for c in covs):
        raise ValueError(f"covariances must be nonnegative: {covs}")
    if names is None:
        names = ("x",) if len(covs) == 1 else tuple(f"x{i}" for i in range(1, len(covs) + 1))
    names = tuple(names)
    if len(names) != len(covs):
        raise ValueError("one name per covariance entry is required")
    index = {v: i for i, v in enumerate(names)}
    memo: dict[tuple[int, ...], Fraction] = {}

    def paired_sum(labels: tuple[int, ...]) -> Fraction:
        if not labels:
            return Fraction(1)
        if len(labels) % 2:
            return Fraction(0)
        hit = memo.get(labels)
        if hit is not None:
            return hit
        total = Fraction(0)
        first = labels[0]
        # Pair position 0 with an odd position carrying the same label;
        # the inside and outside segments pair up independently.
        for j in range(1, len(labels), 2):
            if labels[j] == first:
                total += covs[first] * paired_sum(labels[1:j]) * paired_sum(labels[j + 1 :])
        memo[labels] = total
        return total

    def rule(factors: tuple[str, ...]) -> Fraction:
        return paired_sum(tuple(index[v] for v in factors))

    return MomentFunctional(names, rule=rule)


def load_moments(path: str) -> MomentFunctional:
    """Load and validate a JSON moment table.  See the module docstring
    for the format.  Duplicate monomials, unknown variables, malformed
    rationals, and a non-unit empty monomial are all hard errors."""
    data = _read_json(path, "moment table")
    if not isinstance(data, dict):
        raise MomentTableError(f"moment table {path}: top level must be an object")
    variables = data.get("vars")
    if not isinstance(variables, list) or not all(isinstance(v, str) and v for v in variables):
        raise MomentTableError(f"moment table {path}: 'vars' must be a list of names")
    if len(set(variables)) != len(variables):
        raise MomentTableError(f"moment table {path}: duplicate variable names")
    entries = data.get("moments")
    if not isinstance(entries, list):
        raise MomentTableError(f"moment table {path}: 'moments' must be a list")
    varset = set(variables)
    table: dict[tuple[str, ...], Fraction] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "word" not in entry or "value" not in entry:
            raise MomentTableError(
                f"moment table {path}: each entry needs 'word' and 'value', got {_echo(entry)}"
            )
        word = entry["word"]
        if not isinstance(word, list) or not all(isinstance(v, str) for v in word):
            raise MomentTableError(f"moment table {path}: 'word' must be a list of names")
        unknown = [v for v in word if v not in varset]
        if unknown:
            raise MomentTableError(
                f"moment table {path}: unknown variables {unknown} in entry {word}"
            )
        key = tuple(word)
        if key in table:
            raise MomentTableError(f"moment table {path}: duplicate entry for monomial {list(key)}")
        try:
            value = parse_rational(entry["value"])
        except MomentTableError as exc:
            raise MomentTableError(f"moment table {path}: entry {word}: {exc}") from None
        if key == () and value != 1:
            raise MomentTableError(
                f"moment table {path}: the empty monomial must have value 1/1, got {entry['value']}"
            )
        table[key] = value
    return MomentFunctional(tuple(variables), table)


def _load_cumulants(path: str) -> dict[int, Fraction]:
    """Load and validate a JSON free cumulant table, as values by order.
    See the module docstring for the format."""
    data = _read_json(path, "cumulant table")
    if not isinstance(data, dict) or not isinstance(data.get("cumulants"), list):
        raise MomentTableError(f"cumulant table {path}: expected an object with a 'cumulants' list")
    by_order: dict[int, Fraction] = {}
    for entry in data["cumulants"]:
        if not isinstance(entry, dict) or "order" not in entry or "value" not in entry:
            raise MomentTableError(f"cumulant table {path}: each entry needs 'order' and 'value'")
        n = entry["order"]
        # JSON true and false load as bool, a subclass of int.
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MomentTableError(f"cumulant table {path}: bad order {_echo(n)}")
        if n in by_order:
            raise MomentTableError(f"cumulant table {path}: duplicate order {n}")
        try:
            by_order[n] = parse_rational(entry["value"])
        except MomentTableError as exc:
            raise MomentTableError(f"cumulant table {path}: order {n}: {exc}") from None
    return by_order


def _read_json(path: str, what: str) -> object:
    """The JSON value in the file at ``path``.  Any ``ValueError`` of
    the parse (invalid JSON, bytes that are not UTF-8, an integer
    literal longer than ``int`` converts) is a ``MomentTableError`` that
    names the file as ``what``.  An int ``path`` is refused: ``open``
    would take it for a file descriptor, read it and close it."""
    if isinstance(path, int):
        raise TypeError(f"{what} path must be a file name, got {_echo(path)}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise MomentTableError(f"{what} {path}: invalid JSON ({exc})") from None
