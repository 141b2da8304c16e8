"""Moment functionals, the semicircular oracle, file IO."""

import functools
import itertools
import json
import os
import sys
from fractions import Fraction

import pytest

from ncwords import (
    CumulantTable,
    MissingMomentError,
    MomentFunctional,
    MomentTableError,
    boolean_cumulant,
    enumerate_nc_partitions,
    format_rational,
    load_moments,
    parse_rational,
    semicircular_family,
)
from ncwords import probability
from ncwords.probability import _load_cumulants

from oracles import CATALAN

NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() has no digit limit on this interpreter",
)


class TestMonomial:
    def test_str(self):
        # monomials are factor tuples; errors render them as a*b*a, and
        # the empty monomial in words
        assert str(MissingMomentError(())) == "moment undefined for the empty monomial"
        assert str(MissingMomentError(("a", "b", "a"))) == "moment undefined for monomial a*b*a"

    def test_empty_monomial_differs_from_a_factor_named_1(self):
        assert str(MissingMomentError(("1",))) == "moment undefined for monomial 1"
        assert str(MissingMomentError(())) != str(MissingMomentError(("1",)))


class TestRationalSyntax:
    def test_parse(self):
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational("0/1") == 0

    @pytest.mark.parametrize("bad", [
        "3", "1/2/3", "x/y", "1/0", "", "1.5",
        "1_0/3", " 1/3", "1/3 ", "1/3\n", "+1/3", "1/-3", "\u0661/3",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(MomentTableError):
            parse_rational(bad)

    @NEEDS_DIGIT_LIMIT
    def test_parse_rejects_more_digits_than_int_converts(self):
        text = "1" * (sys.get_int_max_str_digits() + 1) + "/3"
        with pytest.raises(MomentTableError) as info:
            parse_rational(text)
        assert str(info.value) == (
            f"rational value must be a 'p/q' string, got '{'1' * 64}…' ({len(text)} characters)"
        )

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1" * 4301 + "/3", marks=NEEDS_DIGIT_LIMIT, id="past-the-int-limit"),
            pytest.param("x" * 10000, id="not-a-rational"),
        ],
    )
    def test_long_values_are_cut_in_messages(self, tmp_path, text):
        # one short line: the first 64 characters and the length, also
        # behind the prefix that load_moments adds
        shown = f"{text[:64] + '…'!r} ({len(text)} characters)"
        with pytest.raises(MomentTableError) as info:
            parse_rational(text)
        assert str(info.value) == f"rational value must be a 'p/q' string, got {shown}"
        path = tmp_path / "moments.json"
        path.write_text(json.dumps({"vars": ["a"], "moments": [{"word": ["a"], "value": text}]}))
        with pytest.raises(MomentTableError) as info:
            load_moments(str(path))
        assert str(info.value) == (
            f"moment table {path}: entry ['a']: rational value must be a 'p/q' string, got {shown}"
        )

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1" * 63 + "/", "rational value must be a 'p/q' string, got '" + "1" * 63 + "/'"),
            ("1" * 4000 + "/0", f"zero denominator in rational value '{'1' * 64}…' (4002 characters)"),
            (
                [1] * 5000,
                "rational value must be a 'p/q' string, got "
                f"{repr([1] * 5000)[:64]}… (15000 characters)",
            ),
        ],
        ids=["64-characters-whole", "zero-denominator", "not-a-string"],
    )
    def test_echo_keeps_64_characters(self, value, message):
        with pytest.raises(MomentTableError) as info:
            parse_rational(value)
        assert str(info.value) == message

    def test_format_always_has_denominator(self):
        assert format_rational(Fraction(2)) == "2/1"
        assert format_rational(Fraction(-1, 3)) == "-1/3"
        assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


class TestMomentFunctional:
    def test_unit_is_injected(self):
        E = MomentFunctional(("v",), {("v",): Fraction(1, 2)})
        assert E.expect(()) == 1

    def test_table_lookup(self):
        E = MomentFunctional(("a", "b"), {("a", "b"): Fraction(3, 4)})
        assert E.expect(("a", "b")) == Fraction(3, 4)

    def test_missing_moment_names_the_monomial(self):
        E = MomentFunctional(("v",), {("v",): Fraction(1)})
        with pytest.raises(MissingMomentError) as exc:
            E.expect(("v", "v"))
        assert exc.value.monomial == ("v", "v")
        assert "v*v" in str(exc.value)

    def test_unknown_variable(self):
        E = MomentFunctional(("v",), {})
        with pytest.raises(MissingMomentError):
            E.expect(("w",))

    def test_unknown_variable_is_checked_before_the_table(self):
        # the table holds a monomial outside the variable set; it is
        # still undefined, and the error names the whole monomial
        E = MomentFunctional(("a", "b"), {("a", "c"): Fraction(1)})
        for monomial in [("a", "c"), ("c",), ("a", "b", "c")]:
            with pytest.raises(MissingMomentError) as exc:
                E.expect(monomial)
            assert exc.value.monomial == monomial

    def test_factors_that_are_not_strings(self):
        # the message renders each factor by str, so the error itself
        # raises, not a TypeError from building its message
        E = MomentFunctional(("a",), {("a",): Fraction(1)})
        for query in (E.expect, CumulantTable(E).free_cumulant):
            with pytest.raises(MissingMomentError) as exc:
                query((1,))
            assert exc.value.monomial == (1,)
            assert str(exc.value) == "moment undefined for monomial 1"
        assert str(MissingMomentError(("a", 2))) == "moment undefined for monomial a*2"

    def test_unhashable_factor_is_a_type_error(self):
        E = MomentFunctional(("a",), {("a",): Fraction(1)})
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            E.expect(("a", ["a"]))

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentFunctional(("v", "v"), {})
        with pytest.raises(ValueError):
            MomentFunctional(("v",), {(): Fraction(2)})

    def test_rule_backed(self):
        calls = []

        def rule(factors):
            calls.append(factors)
            return Fraction(len(factors))

        E = MomentFunctional(("v",), rule=rule)
        assert E.expect(("v", "v")) == 2
        assert E.expect(("v", "v")) == 2
        assert calls == [("v", "v")]  # memoized

    def test_rule_may_decline(self):
        E = MomentFunctional(("v",), rule=lambda factors: None)
        with pytest.raises(MissingMomentError):
            E.expect(("v",))

    def test_float_rule_values_are_exact(self):
        # m_n = 2^-n: the constant 1/2, whose free cumulants vanish from
        # order 2 on; a float from a rule is read as its exact rational
        E = MomentFunctional(("v",), rule=lambda factors: 0.5 ** len(factors))
        assert E.expect(("v", "v", "v")) == Fraction(1, 8)
        kappas = [CumulantTable(E).free_cumulant(("v",) * n) for n in range(1, 5)]
        assert kappas == [Fraction(1, 2), 0, 0, 0]
        assert all(type(kappa) is Fraction for kappa in kappas)

    def test_int_rule_values_become_fractions(self):
        # eta_2 = m_2 - m_1^2 = 2 - 4
        E = MomentFunctional(("v",), rule=lambda factors: 2)
        assert type(E.expect(("v",))) is Fraction
        eta = boolean_cumulant(E, ("v", "v"))
        assert eta == -2
        assert type(eta) is Fraction

    @pytest.mark.parametrize("value", ["two", float("nan"), float("inf"), 1j, object()])
    def test_non_rational_rule_value_names_the_monomial(self, value):
        E = MomentFunctional(("a", "b"), rule=lambda factors: value)
        with pytest.raises(ValueError) as info:
            E.expect(("a", "b", "a"))
        message = str(info.value)
        assert message == f"moment rule gave {value!r} for monomial a*b*a, not a rational"
        # nothing was cached: the next request asks the rule again
        with pytest.raises(ValueError):
            E.expect(("a", "b", "a"))


class _Sub(Fraction):
    """A ``Fraction`` subclass, which a functional stores as a plain
    ``Fraction``."""


# Values that are not plain Fractions, each with the Fraction it means.
CONVERTED = [
    pytest.param(3, Fraction(3), id="int"),
    pytest.param("3/4", Fraction(3, 4), id="str"),
    pytest.param(0.25, Fraction(1, 4), id="float"),
    pytest.param(_Sub(1, 2), Fraction(1, 2), id="Fraction-subclass"),
]


class TestExactValues:
    """A Fraction is kept as it is given; any other value is converted
    once to a plain Fraction."""

    def test_table_fraction_is_kept(self):
        table = {("a",): Fraction(1, 3), ("a", "b"): Fraction(-2, 5)}
        E = MomentFunctional(("a", "b"), table)
        for monomial, value in table.items():
            assert E.expect(monomial) is value

    def test_rule_fraction_is_memoized_as_given(self):
        given = {}

        def rule(factors):
            given[factors] = Fraction(len(factors), 7)
            return given[factors]

        E = MomentFunctional(("v",), rule=rule)
        first = E.expect(("v", "v"))
        assert first is given[("v", "v")]
        assert E.expect(("v", "v")) is first
        assert list(given) == [("v", "v")]

    @pytest.mark.parametrize("value, exact", CONVERTED)
    def test_table_values_become_plain_fractions(self, value, exact):
        got = MomentFunctional(("v",), {("v",): value}).expect(("v",))
        assert type(got) is Fraction and got == exact

    @pytest.mark.parametrize("value, exact", CONVERTED)
    def test_rule_values_become_plain_fractions(self, value, exact):
        E = MomentFunctional(("v",), rule=lambda factors: value)
        got = E.expect(("v",))
        assert type(got) is Fraction and got == exact
        assert E.expect(("v",)) is got

    @pytest.mark.parametrize("value, exact", CONVERTED)
    def test_covariances_become_plain_fractions(self, value, exact):
        got = semicircular_family([value], names=("s",)).expect(("s", "s"))
        assert type(got) is Fraction and got == exact

    def test_unit_check_holds_for_every_kind_of_value(self):
        for unit in (2, "2", 2.0, Fraction(2), _Sub(2)):
            with pytest.raises(ValueError, match="must have expectation 1, got 2"):
                MomentFunctional(("v",), {(): unit})
        for unit in (1, "1", 1.0, Fraction(1), _Sub(1)):
            got = MomentFunctional(("v",), {(): unit}).expect(())
            assert type(got) is Fraction and got == 1


@functools.cache
def nc_pair_partitions(n):
    """The non-crossing partitions of [n] into pairs, each as its pairs
    of 0-based positions; listed once per n, not once per label tuple."""
    return tuple(
        tuple((b[0] - 1, b[1] - 1) for b in blocks)
        for blocks in (part.blocks() for part in enumerate_nc_partitions(n))
        if all(len(b) == 2 for b in blocks)
    )


def pair_partition_sum(labels, covs):
    """Sum over non-crossing partitions into pairs with equal labels."""
    total = Fraction(0)
    if len(labels) % 2:
        return total
    for pairs in nc_pair_partitions(len(labels)):
        if any(labels[i] != labels[j] for i, j in pairs):
            continue
        prod = Fraction(1)
        for i, _ in pairs:
            prod *= covs[labels[i]]
        total += prod
    return total


class TestSemicircularFamily:
    def test_single_variable_moments(self):
        E = semicircular_family([1])
        moments = [E.expect(("x",) * n) for n in range(9)]
        assert moments == [1, 0, 1, 0, 2, 0, 5, 0, 14]

    def test_even_moments_are_catalan(self):
        E = semicircular_family([1])
        for n in range(0, 6):
            assert E.expect(("x",) * (2 * n)) == CATALAN[n]

    def test_scaling(self):
        E = semicircular_family([Fraction(1, 4)], names=("s",))
        assert E.expect(("s", "s")) == Fraction(1, 4)
        assert E.expect(("s",) * 4) == 2 * Fraction(1, 16)

    def test_two_variable_examples(self):
        E = semicircular_family([1, 1], names=("a", "b"))
        assert E.expect(("a", "b", "a", "b")) == 0
        assert E.expect(("a", "a", "b", "b")) == 1
        assert E.expect(("a", "b", "b", "a")) == 1
        assert E.expect(("a", "b")) == 0

    def test_matches_pair_partition_sum(self):
        covs = [Fraction(2), Fraction(1, 3)]
        E = semicircular_family(covs, names=("a", "b"))
        names = ("a", "b")
        for n in range(1, 9):
            for labels in itertools.product((0, 1), repeat=n):
                monomial = tuple(names[i] for i in labels)
                assert E.expect(monomial) == pair_partition_sum(labels, covs)

    def test_default_names(self):
        assert semicircular_family([1]).variables == ("x",)
        assert semicircular_family([1, 2]).variables == ("x1", "x2")

    def test_validation(self):
        with pytest.raises(ValueError):
            semicircular_family([])
        with pytest.raises(ValueError):
            semicircular_family([-1])
        with pytest.raises(ValueError):
            semicircular_family([1, 1], names=("a",))


class TestLoadMoments:
    def write(self, tmp_path, payload):
        path = tmp_path / "moments.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_valid_table(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "vars": ["a", "b"],
                "moments": [
                    {"word": ["a"], "value": "1/2"},
                    {"word": ["a", "b"], "value": "0/1"},
                ],
            },
        )
        E = load_moments(path)
        assert E.expect(("a",)) == Fraction(1, 2)
        assert E.expect(("a", "b")) == 0
        assert E.expect(()) == 1  # unit injected

    def test_explicit_unit_allowed(self, tmp_path):
        path = self.write(
            tmp_path, {"vars": ["a"], "moments": [{"word": [], "value": "1/1"}]}
        )
        assert load_moments(path).expect(()) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "not json {",
            [1, 2],
            {"vars": "ab", "moments": []},
            {"vars": ["a", "a"], "moments": []},
            {"vars": ["a"], "moments": {}},
            {"vars": ["a"], "moments": [{"word": ["a"]}]},
            {"vars": ["a"], "moments": [{"word": "a", "value": "1/2"}]},
            {"vars": ["a"], "moments": [{"word": ["c"], "value": "1/2"}]},
            {"vars": ["a"], "moments": [{"word": ["a"], "value": "1/0"}]},
            {"vars": ["a"], "moments": [{"word": ["a"], "value": "0.5"}]},
            {"vars": ["a"], "moments": [{"word": [], "value": "2/1"}]},
            {
                "vars": ["a"],
                "moments": [
                    {"word": ["a"], "value": "1/2"},
                    {"word": ["a"], "value": "1/3"},
                ],
            },
        ],
    )
    def test_rejects_malformed_tables(self, tmp_path, payload):
        with pytest.raises(MomentTableError):
            load_moments(self.write(tmp_path, payload))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("not json {", "invalid JSON (Expecting value: line 1 column 1 (char 0))"),
            ({"vars": ["a", "a"], "moments": []}, "duplicate variable names"),
            (
                {"vars": ["a"], "moments": [{"word": [], "value": "2/1"}]},
                "the empty monomial must have value 1/1, got 2/1",
            ),
        ],
        ids=["invalid-json", "duplicate-variables", "non-unit-empty-monomial"],
    )
    def test_table_error_text(self, tmp_path, payload, message):
        path = self.write(tmp_path, payload)
        with pytest.raises(MomentTableError) as info:
            load_moments(path)
        assert str(info.value) == f"moment table {path}: {message}"

    @pytest.mark.parametrize(
        "entry, shown",
        [
            ({"word": ["a"]}, "{'word': ['a']}"),
            (
                {"word": ["a"] * 5000},
                f"{repr({'word': ['a'] * 5000})[:64]}… (25010 characters)",
            ),
        ],
        ids=["short-whole", "long-cut"],
    )
    def test_malformed_entry_echo(self, tmp_path, entry, shown):
        path = self.write(tmp_path, {"vars": ["a"], "moments": [entry]})
        with pytest.raises(MomentTableError) as info:
            load_moments(path)
        assert str(info.value) == (
            f"moment table {path}: each entry needs 'word' and 'value', got {shown}"
        )

    @NEEDS_DIGIT_LIMIT
    def test_integer_past_the_digit_limit_names_the_table(self, tmp_path):
        # json.load raises a plain ValueError, not a JSONDecodeError, for
        # an integer literal longer than int() converts
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path = self.write(tmp_path, '{"vars": ["a"], "moments": [], "n": ' + digits + "}")
        with pytest.raises(MomentTableError) as info:
            load_moments(path)
        message = str(info.value)
        assert message.startswith(f"moment table {path}: invalid JSON (Exceeds the limit (")
        assert "\n" not in message and len(message) < 200 + len(path)

    @pytest.mark.parametrize(
        "read, what", [(load_moments, "moment table"), (_load_cumulants, "cumulant table")]
    )
    def test_deeply_nested_json_names_the_table(self, tmp_path, read, what):
        # json.load raises a RecursionError, not a ValueError, on arrays
        # nested past the recursion limit
        path = self.write(tmp_path, "[" * 100000 + "]" * 100000)
        with pytest.raises(MomentTableError) as info:
            read(path)
        message = str(info.value)
        assert message.startswith(f"{what} {path}: invalid JSON (maximum recursion depth")
        assert "\n" not in message and len(message) < 200 + len(path)

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_moments(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "read, what", [(load_moments, "moment table"), (_load_cumulants, "cumulant table")]
    )
    def test_file_descriptor_is_refused(self, tmp_path, read, what):
        # open() takes an int for a file descriptor: it would read the
        # table from the caller's fd and then close it
        path = self.write(tmp_path, {"vars": ["a"], "moments": [], "cumulants": []})
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(TypeError) as info:
                read(fd)
            assert str(info.value) == f"{what} path must be a file name, got {fd}"
            assert os.fstat(fd)  # still open
        finally:
            os.close(fd)

    @pytest.mark.parametrize("path", [False, True])
    @pytest.mark.parametrize("read", [load_moments, _load_cumulants])
    def test_bool_path_is_refused(self, monkeypatch, read, path):
        # a bool is an int, so open() would take stdin or stdout
        def never(*args, **kwargs):
            raise AssertionError("opened")

        monkeypatch.setattr(probability, "open", never, raising=False)
        with pytest.raises(TypeError, match=f"path must be a file name, got {path}$"):
            read(path)
