"""Boundary fuzzing of the public constructors and of the entry points
that take letter ids, sizes or words.

Whatever the arguments, each call must return a value or raise a
``ValueError`` or ``TypeError`` whose message is one nonempty line:
never another exception, and never a traceback from deep inside.  The
examples are derandomized and their number fixed, so the file runs the
same cases every time; enumerator sizes stay at n <= 8.
"""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ncwords import (
    Alphabet,
    CanonicalSurjection,
    CumulantTable,
    EmptyRestrictionError,
    MomentFunctional,
    MomentTableError,
    Word,
    apply_map,
    check_coassociativity,
    crossing_ideal_witness,
    decompose,
    decompose_along,
    decompose_noncrossing,
    enumerate_canonical_surjections,
    enumerate_nc_basis,
    enumerate_nc_partitions,
    enumerate_word_basis,
    format_term,
    is_noncrossing,
    is_pangrammatic,
    is_reduced,
    load_moments,
    parse_word,
    peak_word,
    random_basis_word,
    reduce_word,
    render_word,
    restrict,
    semicircular_family,
)

from oracles import BELL, CATALAN

FUZZ = settings(derandomize=True, max_examples=50, deadline=None, database=None)

scalars = st.one_of(
    st.integers(-3, 8),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
)
# A scalar, or a short sequence of them: what a caller may pass for a
# size, a letter id, or a collection of either.
values = st.one_of(scalars, st.lists(scalars, max_size=6), st.lists(scalars, max_size=6).map(tuple))
# The same for a word length: a float length that slipped past the
# checks would enumerate words up to it, so floats stay small and such
# a fault fails the test instead of running without end.
lengths = st.one_of(
    st.integers(-3, 8),
    st.booleans(),
    st.floats(-3, 8),
    st.text(max_size=3),
    st.none(),
    st.lists(scalars, max_size=6),
)


def outcome(fn, *args):
    """``fn(*args)``, or the ``ValueError`` or ``TypeError`` it raised,
    after checking that its message is one nonempty line."""
    try:
        return fn(*args)
    except (ValueError, TypeError) as exc:
        message = str(exc)
        assert message and "\n" not in message, repr(message)
        return exc


class TestBoundary:
    @FUZZ
    @given(st.one_of(values, st.lists(st.text(max_size=2), max_size=4)))
    def test_alphabet(self, names):
        result = outcome(Alphabet, names)
        if isinstance(result, Alphabet):
            assert result.size == len(result.names) >= 1

    @FUZZ
    @given(values)
    def test_numeric_alphabet(self, k):
        result = outcome(Alphabet.numeric, k)
        if isinstance(result, Alphabet):
            assert type(k) is int and result.size == k

    @FUZZ
    @given(st.one_of(st.integers(1, 4).map(Alphabet.numeric), values), values)
    def test_word(self, alphabet, seq):
        result = outcome(Word, alphabet, seq)
        if isinstance(result, Word):
            assert isinstance(alphabet, Alphabet)
            assert result.seq and set(map(type, result.seq)) == {int}
            assert all(0 <= x < alphabet.size for x in result.seq)

    @FUZZ
    @given(values, values, values)
    def test_canonical_surjection(self, n, m, assignment):
        result = outcome(CanonicalSurjection, n, m, assignment)
        if isinstance(result, CanonicalSurjection):
            assert type(result.n) is int and type(result.m) is int
            assert max(result.assignment) == result.m

    @FUZZ
    @given(st.sampled_from(["a", "abcb", "abacdc"]), values)
    def test_restrict(self, text, keep):
        w = parse_word(text)
        result = outcome(restrict, w, keep)
        if isinstance(result, Word):
            assert all(type(x) is int for x in keep)
            assert result.alphabet.size == len(set(keep))
            assert set(result.seq) <= set(range(result.alphabet.size))

    @FUZZ
    @given(st.one_of(values, st.sampled_from(["a", "aba", "abab", "abcb"]).map(parse_word)))
    @pytest.mark.parametrize("table", [CumulantTable], ids=["method"])
    def test_word_cumulant(self, table, w):
        # the semicircle has a moment for every monomial in its variable
        E = semicircular_family([1], names=("v",))
        assign = ("v",) * (w.alphabet.size if isinstance(w, Word) else 1)
        result = outcome(table(E).word_cumulant, w, assign)
        if isinstance(result, Fraction):
            assert isinstance(w, Word)

    @FUZZ
    @given(values)
    @pytest.mark.parametrize(
        "enumerate_, counts",
        [(enumerate_canonical_surjections, BELL), (enumerate_nc_partitions, CATALAN)],
    )
    def test_enumerators(self, enumerate_, counts, n):
        result = outcome(enumerate_, n)
        if not isinstance(result, Exception):
            assert type(n) is int and len(result) == counts[n]

    @FUZZ
    @given(st.one_of(st.integers(1, 3).map(Alphabet.numeric), values), lengths)
    @pytest.mark.parametrize("enumerate_", [enumerate_word_basis, enumerate_nc_basis])
    def test_basis_enumerators(self, enumerate_, alphabet, max_len):
        result = outcome(enumerate_, alphabet, max_len)
        if not isinstance(result, Exception):
            assert isinstance(alphabet, Alphabet)
            # only the non-crossing basis has a default length, 2k - 2
            if max_len is None:
                assert enumerate_ is enumerate_nc_basis
                max_len = max(1, 2 * alphabet.size - 2)
            assert type(max_len) is int
            for w in result:
                assert is_pangrammatic(w) and is_reduced(w) and len(w) <= max_len
                assert enumerate_ is enumerate_word_basis or is_noncrossing(w)

    @FUZZ
    @given(st.one_of(values, st.sampled_from(["a", "abba", "a1,a2"]).map(parse_word)))
    @pytest.mark.parametrize(
        "call",
        [render_word, reduce_word, lambda w: apply_map(w, {0: 0, 1: 0}, Alphabet.numeric(1))],
        ids=["render_word", "reduce_word", "apply_map"],
    )
    def test_word_functions(self, call, w):
        result = outcome(call, w)
        if not isinstance(result, Exception):
            assert isinstance(w, Word)

    @FUZZ
    @given(values)
    def test_peak_word(self, n):
        result = outcome(peak_word, n)
        if isinstance(result, Word):
            assert type(n) is int and len(result) == max(1, 2 * n - 2)


# Each library entry point that takes a size, as a call of that size,
# and the name that its refusals give the size.
SIZED = {
    "Alphabet.numeric": (Alphabet.numeric, "alphabet size"),
    "enumerate_canonical_surjections": (enumerate_canonical_surjections, "n"),
    "enumerate_nc_partitions": (enumerate_nc_partitions, "n"),
    "enumerate_word_basis": (lambda v: enumerate_word_basis(Alphabet.numeric(2), v), "max_len"),
    "enumerate_nc_basis": (lambda v: enumerate_nc_basis(Alphabet.numeric(2), v), "max_len"),
    "peak_word": (peak_word, "n"),
    "random_basis_word": (lambda v: random_basis_word(random.Random(0), v, 3), "alphabet size"),
    "random_basis_word-max_len": (lambda v: random_basis_word(random.Random(0), 2, v), "max_len"),
}


@pytest.mark.parametrize("call, name", SIZED.values(), ids=SIZED)
@pytest.mark.parametrize(
    "size, error, message",
    [
        (0, ValueError, "{} must be >= 1"),
        (2.0, TypeError, "{} must be an int, got 2.0"),
        (True, TypeError, "{} must be an int, got True"),
        ([1], TypeError, "{} must be an int, got [1]"),
    ],
    ids=["zero", "float", "bool", "list"],
)
def test_sizes_are_checked_under_their_own_name(call, name, size, error, message):
    with pytest.raises(error) as info:
        call(size)
    assert str(info.value) == message.format(name)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("assignment", [(), (1,)])
def test_surjection_n_is_a_size(n, assignment):
    # Refused as a size before the assignment's length is compared with it.
    with pytest.raises(ValueError) as info:
        CanonicalSurjection(n, 1, assignment)
    assert str(info.value) == "n must be >= 1"


# Each function that takes a word, called with text instead.
NOT_WORDS = {
    "render_word": lambda: render_word("ab"),
    "reduce_word": lambda: reduce_word("ab"),
    "apply_map": lambda: apply_map("ab", {0: 0}, Alphabet.numeric(1)),
    "word_cumulant": lambda: CumulantTable(semicircular_family([1], names=("v",))).word_cumulant(
        "ab", "vv"
    ),
    "restrict": lambda: restrict("ab", [0]),
    "is_reduced": lambda: is_reduced("ab"),
    "is_pangrammatic": lambda: is_pangrammatic("ab"),
    "is_noncrossing": lambda: is_noncrossing("ab"),
    "decompose_along": lambda: decompose_along("ab", CanonicalSurjection(2, 1, (1, 1))),
    "decompose": lambda: decompose("ab"),
    "decompose_noncrossing": lambda: decompose_noncrossing("ab"),
    "check_coassociativity": lambda: check_coassociativity("ab"),
}


@pytest.mark.parametrize("name, call", NOT_WORDS.items(), ids=NOT_WORDS)
def test_word_arguments_must_be_words(name, call):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == f"{name} takes a Word, got str"


@pytest.mark.parametrize(
    "f",
    [
        SimpleNamespace(n=2),
        SimpleNamespace(n=2, m=2, assignment=(2, 1)),
        (1, 2),
    ],
    ids=["no-assignment", "not-canonical", "tuple"],
)
def test_decompose_along_takes_a_surjection(f):
    # the non-canonical one used to give a term with its blocks listed
    # last block first, under outer names b1,b2
    with pytest.raises(TypeError) as info:
        decompose_along(parse_word("ab"), f)
    assert str(info.value) == f"decompose_along takes a CanonicalSurjection, got {type(f).__name__}"


def test_format_term_takes_a_term():
    with pytest.raises(TypeError) as info:
        format_term("f={1} | outer=a | inner=[a]")
    assert str(info.value) == "format_term takes a DecompositionTerm, got str"


def test_crossing_ideal_witness_takes_a_term():
    with pytest.raises(TypeError) as info:
        crossing_ideal_witness("x")
    assert str(info.value) == "crossing_ideal_witness takes a DecompositionTerm, got str"


def cut(value):
    """How a message shows a value whose repr passes 64 characters: the
    first 64 characters of the repr (of the string itself, for a string)
    and the length."""
    if isinstance(value, str):
        return f"{value[:64] + '…'!r} ({len(value)} characters)"
    text = repr(value)
    return f"{text[:64]}… ({len(text)} characters)"


NUMBERS = tuple(map(str, range(3000)))
A_WORD = ["a"] * 3000


def load_table(moments):
    """``load_moments`` of a table on the variable ``a`` with these
    entries, written to ``table.json`` in the working directory."""
    with open("table.json", "w") as fh:
        json.dump({"vars": ["a"], "moments": moments}, fh)
    return load_moments("table.json")


# (call, exception, its message): each value type's, moment functional's
# and moment table's refusal of a long input echoes it cut, as
# parse_word does.
LONG_ECHOES = {
    "restrict-deletes-every-letter": (
        lambda: restrict(Word(Alphabet.numeric(3), (0, 1) * 2500), [2]),
        EmptyRestrictionError,
        f"restriction of {cut('12' * 2500)} to letter ids [2] deletes every letter",
    ),
    "word-ids-out-of-range": (
        lambda: Word(Alphabet.numeric(2), (0, 1, 5) * 2000),
        ValueError,
        f"letter ids {cut((0, 1, 5) * 2000)} out of range for alphabet of size 2",
    ),
    "word-ids-not-ints": (
        lambda: Word(Alphabet.numeric(2), (0, 1.0) * 2000),
        TypeError,
        f"letter ids must be ints, got {cut((0, 1.0) * 2000)}",
    ),
    "word-alphabet-not-alphabet": (
        lambda: Word(NUMBERS, (0,)),
        TypeError,
        f"alphabet must be an Alphabet, got {cut(NUMBERS)}",
    ),
    "surjection-not-onto": (
        lambda: CanonicalSurjection(6000, 2, (1, 2, 3) * 2000),
        ValueError,
        f"assignment {cut((1, 2, 3) * 2000)} is not onto [2]",
    ),
    "surjection-not-canonical": (
        lambda: CanonicalSurjection(4000, 2, (2, 1) * 2000),
        ValueError,
        f"assignment {cut((2, 1) * 2000)} is not in canonical min-preimage form",
    ),
    "surjection-values-not-ints": (
        lambda: CanonicalSurjection(4000, 1, (1, 1.0) * 2000),
        TypeError,
        f"assignment values must be ints, got {cut((1, 1.0) * 2000)}",
    ),
    "surjection-size-not-int": (
        lambda: CanonicalSurjection([1] * 3000, 1, (1,)),
        TypeError,
        f"n and m must be ints, got n={cut([1] * 3000)}, m=1",
    ),
    "restrict-ids-not-ints": (
        lambda: restrict(Word(Alphabet.numeric(2), (0, 1)), [True] * 3000),
        TypeError,
        f"letter ids to keep must be ints, got {cut([True] * 3000)}",
    ),
    "restrict-ids-out-of-range": (
        lambda: restrict(Word(Alphabet.numeric(2), (0, 1)), range(3000)),
        ValueError,
        f"letter ids {cut(list(range(3000)))} out of range for alphabet of size 2",
    ),
    "alphabet-duplicate-names": (
        lambda: Alphabet(("a",) * 3000),
        ValueError,
        f"duplicate letter names in alphabet: {cut(('a',) * 3000)}",
    ),
    "alphabet-comma-in-name": (
        lambda: Alphabet(NUMBERS + ("a,b",)),
        ValueError,
        f"letter names must be nonempty and comma-free: {cut(NUMBERS + ('a,b',))}",
    ),
    "alphabet-size-not-int": (
        lambda: Alphabet.numeric("9" * 100),
        TypeError,
        f"alphabet size must be an int, got {cut('9' * 100)}",
    ),
    "word-basis-alphabet-not-alphabet": (
        lambda: enumerate_word_basis(NUMBERS, 2),
        TypeError,
        f"alphabet must be an Alphabet, got {cut(NUMBERS)}",
    ),
    "nc-basis-alphabet-not-alphabet": (
        lambda: enumerate_nc_basis(NUMBERS),
        TypeError,
        f"alphabet must be an Alphabet, got {cut(NUMBERS)}",
    ),
    "enumerator-size-not-int": (
        lambda: enumerate_nc_partitions("9" * 100),
        TypeError,
        f"n must be an int, got {cut('9' * 100)}",
    ),
    "functional-duplicate-names": (
        lambda: MomentFunctional(("a",) * 5000),
        ValueError,
        f"duplicate variable names: {cut(('a',) * 5000)}",
    ),
    "semicircular-negative-covariances": (
        lambda: semicircular_family([-1] * 3000),
        ValueError,
        f"covariances must be nonnegative: {cut([Fraction(-1)] * 3000)}",
    ),
    "table-unknown-variables": (
        lambda: load_table([{"word": A_WORD + ["c"], "value": "1/2"}]),
        MomentTableError,
        f"moment table table.json: unknown variables ['c'] in entry {cut(A_WORD + ['c'])}",
    ),
    "table-duplicate-entry": (
        lambda: load_table([{"word": A_WORD, "value": "1/2"}] * 2),
        MomentTableError,
        f"moment table table.json: duplicate entry for monomial {cut(A_WORD)}",
    ),
    "table-entry-value": (
        lambda: load_table([{"word": A_WORD, "value": "1/0"}]),
        MomentTableError,
        f"moment table table.json: entry {cut(A_WORD)}: zero denominator in rational value '1/0'",
    ),
    "table-empty-monomial-value": (
        lambda: load_table([{"word": [], "value": "2" * 4000 + "/1"}]),
        MomentTableError,
        "moment table table.json: the empty monomial must have value 1/1, "
        f"got {cut('2' * 4000 + '/1')}",
    ),
}


@pytest.mark.parametrize("call, error, message", LONG_ECHOES.values(), ids=LONG_ECHOES)
def test_long_input_is_echoed_cut(call, error, message, tmp_path, monkeypatch):
    # the table rows write their file in a fresh working directory
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
    assert len(message) < 200
