"""Words: parsing, reduction, predicates, restriction, maps, enumeration.

The reduction and crossing checks are compared against the brute-force
oracles in :mod:`oracles`; the rewrite-closure check establishes that the
normal form is unique, rather than assuming it.
"""

import collections
import copy
import itertools
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, strategies as st

from ncwords import (
    Alphabet,
    CanonicalSurjection,
    DecompositionTerm,
    EmptyRestrictionError,
    Word,
    apply_map,
    enumerate_nc_basis,
    enumerate_word_basis,
    is_noncrossing,
    is_noncrossing_seq,
    is_pangrammatic,
    is_reduced,
    parse_word,
    peak_word,
    random_basis_word,
    reduce_word,
    render_word,
    restrict,
)
from ncwords.words import _trusted
from ncwords.words import _first_occurrence

from oracles import (
    iter_all_seqs,
    oracle_is_noncrossing_seq,
    oracle_is_reduced_seq,
    oracle_normal_forms,
)


@st.composite
def words(draw, max_k=4, max_len=10):
    k = draw(st.integers(1, max_k))
    length = draw(st.integers(1, max_len))
    seq = draw(st.lists(st.integers(0, k - 1), min_size=length, max_size=length))
    return Word(Alphabet.numeric(k), tuple(seq))


class TestAlphabet:
    def test_equality_ignores_names(self):
        assert Alphabet(("a", "b")) == Alphabet(("x", "y"))
        assert Alphabet(("a", "b")) != Alphabet(("a", "b", "c"))
        assert hash(Alphabet.numeric(2)) == hash(Alphabet(("p", "q")))

    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet(())
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))
        with pytest.raises(ValueError):
            Alphabet(("a,b",))
        with pytest.raises(ValueError):
            Alphabet.numeric(0)

    @pytest.mark.parametrize("k", [2.0, True, "2", None])
    def test_numeric_size_must_be_int(self, k):
        # bool is refused too, as for letter ids
        with pytest.raises(TypeError) as info:
            Alphabet.numeric(k)
        assert str(info.value) == f"alphabet size must be an int, got {k!r}"


class TestWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            Word(Alphabet.numeric(2), ())
        with pytest.raises(ValueError, match=r"ids \(0, 2\) out of range for alphabet of size 2"):
            Word(Alphabet.numeric(2), (0, 2))

    @pytest.mark.parametrize("seq", [(0.5, 1), (0, 1.0), ("0",), (True, 0), (0, None)])
    def test_letter_ids_must_be_ints(self, seq):
        # bool is refused too, although it subclasses int
        with pytest.raises(TypeError) as info:
            Word(Alphabet.numeric(2), seq)
        assert str(info.value) == f"letter ids must be ints, got {seq}"

    @pytest.mark.parametrize("alphabet", [None, 3, "ab", ("a", "b")])
    def test_alphabet_must_be_an_alphabet(self, alphabet):
        with pytest.raises(TypeError) as info:
            Word(alphabet, (0,))
        assert str(info.value) == f"alphabet must be an Alphabet, got {alphabet!r}"

    def test_equality_by_size_and_seq(self):
        w1 = Word(Alphabet(("a", "b")), (0, 1))
        w2 = Word(Alphabet(("x", "y")), (0, 1))
        assert w1 == w2
        assert hash(w1) == hash(w2)
        assert w1 != Word(Alphabet.numeric(3), (0, 1))

    def test_unequal_to_its_fields_and_other_values(self):
        w = Word(Alphabet.numeric(2), (0, 1))
        for other in (w.seq, w.alphabet, CanonicalSurjection(2, 2, (1, 2))):
            assert w != other and other != w

    def test_renamed_alphabets_collapse_in_a_set(self):
        names = [("a", "b"), ("x", "y"), ("1", "2"), ("a1", "a2")]
        words = {Word(Alphabet(pair), (0, 1, 0)) for pair in names}
        assert words == {Word(Alphabet.numeric(2), (0, 1, 0))}
        assert Word(Alphabet.numeric(3), (0, 1, 0)) not in words

    def test_parse_single_char(self):
        w = parse_word("abcb")
        assert w.seq == (0, 1, 2, 1)
        assert w.alphabet.names == ("a", "b", "c")

    def test_parse_comma_separated(self):
        w = parse_word("a1,a2,a1,a3")
        assert w.seq == (0, 1, 0, 2)
        assert w.alphabet.names == ("a1", "a2", "a3")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_word("")
        with pytest.raises(ValueError):
            parse_word("a,,b")

    def test_render_round_trip(self):
        for text in ["a", "abcb", "a1,a2,a1,a3", "x,y,x"]:
            assert render_word(parse_word(text), prefer_chars="," not in text) == text

    def test_render_styles(self):
        assert str(parse_word("ab")) == "ab"
        assert render_word(parse_word("ab"), prefer_chars=False) == "a,b"
        # multi-character names force commas regardless of preference
        assert str(parse_word("a1,a2")) == "a1,a2"


class TestValueTypes:
    # The four value types share the frozen base of ncwords.words; each is
    # built through its constructor, by keyword, and through _trusted, as
    # the searches and the decompositions build them.  The fields come
    # from a factory called in the test, so that a fault in a constructor
    # fails the tests that reach it instead of collecting the file.
    @pytest.mark.parametrize(
        "build", [lambda cls, **f: cls(**f), _trusted], ids=["public", "trusted"]
    )
    @pytest.mark.parametrize(
        "cls, make_fields",
        [
            pytest.param(Alphabet, lambda: {"names": ("a", "b")}, id="Alphabet"),
            pytest.param(
                Word, lambda: {"alphabet": Alphabet(("a", "b")), "seq": (0, 1, 0)}, id="Word"
            ),
            pytest.param(
                CanonicalSurjection,
                lambda: {"n": 3, "m": 2, "assignment": (1, 2, 2)},
                id="Surjection",
            ),
            pytest.param(
                DecompositionTerm,
                lambda: {
                    "surjection": CanonicalSurjection(2, 2, (1, 2)),
                    "outer": Word(Alphabet(("b1", "b2")), (0, 1)),
                    "inner": (parse_word("a"), parse_word("b")),
                },
                id="Term",
            ),
        ],
    )
    def test_frozen_copyable_picklable(self, build, cls, make_fields):
        fields = make_fields()

        def read(obj):
            # the fields, through the slots that hold them
            return {name: getattr(obj, name) for name in cls.__slots__}

        obj = build(cls, **fields)
        assert read(obj) == fields
        for name in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, fields[name])
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert read(obj) == fields
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is cls
            assert twin == obj and hash(twin) == hash(obj)
            assert read(twin) == fields and repr(twin) == repr(obj)


# One value of each type, as a factory of its fields, with its pickle
# (protocol 4) as the earlier layout, which kept the fields in each
# instance's __dict__, wrote it.
EARLIER_PICKLES = [
    pytest.param(
        Alphabet,
        lambda: {"names": ("x", "y")},
        (
            b"\x80\x04\x957\x00\x00\x00\x00\x00\x00\x00\x8c\rncwords.words\x94\x8c\x08Alph"
            b"abet\x94\x93\x94)\x81\x94}\x94\x8c\x05names\x94\x8c\x01x\x94\x8c\x01y\x94"
            b"\x86\x94sb."
        ),
        id="Alphabet",
    ),
    pytest.param(
        Word,
        lambda: {"alphabet": Alphabet(("a", "b", "c")), "seq": (0, 1, 2, 1)},
        (
            b"\x80\x04\x95j\x00\x00\x00\x00\x00\x00\x00\x8c\rncwords.words\x94\x8c\x04Word"
            b"\x94\x93\x94)\x81\x94}\x94(\x8c\x08alphabet\x94h\x00\x8c\x08Alphabet\x94\x93"
            b"\x94)\x81\x94}\x94\x8c\x05names\x94\x8c\x01a\x94\x8c\x01b\x94\x8c\x01c\x94"
            b"\x87\x94sb\x8c\x03seq\x94(K\x00K\x01K\x02K\x01t\x94ub."
        ),
        id="Word",
    ),
    pytest.param(
        CanonicalSurjection,
        lambda: {"n": 3, "m": 2, "assignment": (1, 2, 1)},
        (
            b"\x80\x04\x95X\x00\x00\x00\x00\x00\x00\x00\x8c\x13ncwords.surjections\x94\x8c"
            b"\x13CanonicalSurjection\x94\x93\x94)\x81\x94}\x94(\x8c\x01n\x94K\x03\x8c\x01"
            b"m\x94K\x02\x8c\nassignment\x94K\x01K\x02K\x01\x87\x94ub."
        ),
        id="Surjection",
    ),
    pytest.param(
        DecompositionTerm,
        lambda: {
            "surjection": CanonicalSurjection(2, 1, (1, 1)),
            "outer": Word(Alphabet(("b12",)), (0,)),
            "inner": (Word(Alphabet(("a", "b")), (0, 1)),),
        },
        (
            b"\x80\x04\x95+\x01\x00\x00\x00\x00\x00\x00\x8c\x10ncwords.cooperad\x94\x8c"
            b"\x11DecompositionTerm\x94\x93\x94)\x81\x94}\x94(\x8c\nsurjection\x94\x8c\x13"
            b"ncwords.surjections\x94\x8c\x13CanonicalSurjection\x94\x93\x94)\x81\x94}\x94"
            b"(\x8c\x01n\x94K\x02\x8c\x01m\x94K\x01\x8c\nassignment\x94K\x01K\x01\x86\x94u"
            b"b\x8c\x05outer\x94\x8c\rncwords.words\x94\x8c\x04Word\x94\x93\x94)\x81\x94}"
            b"\x94(\x8c\x08alphabet\x94h\x10\x8c\x08Alphabet\x94\x93\x94)\x81\x94}\x94\x8c"
            b"\x05names\x94\x8c\x03b12\x94\x85\x94sb\x8c\x03seq\x94K\x00\x85\x94ub\x8c\x05"
            b"inner\x94h\x12)\x81\x94}\x94(h\x15h\x17)\x81\x94}\x94h\x1a\x8c\x01a\x94\x8c"
            b"\x01b\x94\x86\x94sbh\x1dK\x00K\x01\x86\x94ub\x85\x94ub."
        ),
        id="Term",
    ),
]


class TestSlots:
    @pytest.mark.parametrize("cls, make_fields, pickled", EARLIER_PICKLES)
    def test_no_dict_either_way(self, cls, make_fields, pickled):
        fields = make_fields()
        public, trusted = cls(**fields), _trusted(cls, **fields)
        assert not hasattr(public, "__dict__") and not hasattr(trusted, "__dict__")
        assert sys.getsizeof(public) == sys.getsizeof(trusted)

    @pytest.mark.parametrize("cls, make_fields, pickled", EARLIER_PICKLES)
    def test_earlier_pickles_load(self, cls, make_fields, pickled):
        fresh = cls(**make_fields())
        loaded = pickle.loads(pickled)
        assert type(loaded) is cls and loaded == fresh and repr(loaded) == repr(fresh)
        assert not hasattr(loaded, "__dict__")
        # the same bytes both ways: the earlier layout loads what this one writes
        assert pickle.dumps(fresh, 4) == pickled

    @pytest.mark.parametrize("cls, make_fields, pickled", EARLIER_PICKLES)
    def test_every_pickle_protocol(self, cls, make_fields, pickled):
        fresh = cls(**make_fields())
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(fresh, protocol))
            assert loaded == fresh and repr(loaded) == repr(fresh)


class TestPredicates:
    def test_is_reduced_examples(self):
        assert not is_reduced(parse_word("aba"))
        assert is_reduced(parse_word("ab"))
        assert is_reduced(parse_word("a"))
        assert not is_reduced(parse_word("aab"))

    def test_is_pangrammatic_examples(self):
        assert is_pangrammatic(parse_word("ab"))
        assert not is_pangrammatic(Word(Alphabet(("a", "b", "c")), (0, 1)))

    def test_is_noncrossing_examples(self):
        assert not is_noncrossing(parse_word("abab"))
        assert is_noncrossing(parse_word("abcb"))
        assert is_noncrossing(parse_word("a"))
        assert is_noncrossing(parse_word("abba"))
        assert not is_noncrossing(parse_word("abcacb"))

    def test_noncrossing_matches_oracle_exhaustively(self):
        for k in range(1, 5):
            for seq in iter_all_seqs(k, 6):
                assert is_noncrossing_seq(seq) == oracle_is_noncrossing_seq(seq), seq

    def test_reduced_matches_oracle_exhaustively(self):
        for k in range(1, 4):
            for seq in iter_all_seqs(k, 5):
                w = Word(Alphabet.numeric(k), seq)
                assert is_reduced(w) == oracle_is_reduced_seq(seq)

    @given(words())
    def test_noncrossing_matches_oracle_random(self, w):
        assert is_noncrossing(w) == oracle_is_noncrossing_seq(w.seq)


class TestReduce:
    def test_examples(self):
        assert str(reduce_word(parse_word("a"))) == "a"
        assert str(reduce_word(parse_word("aabca"))) == "abc"
        assert str(reduce_word(parse_word("abba"))) == "ab"

    def test_unique_normal_form_exhaustively(self):
        # every rewrite path ends at the same word, and reduce finds it
        for k in range(1, 5):
            for seq in iter_all_seqs(k, 6):
                normals = oracle_normal_forms(seq)
                assert len(normals) == 1, (seq, normals)
                w = Word(Alphabet.numeric(k), seq)
                assert reduce_word(w).seq == next(iter(normals))

    @given(words())
    def test_idempotent(self, w):
        r = reduce_word(w)
        assert is_reduced(r)
        assert reduce_word(r) == r

    @given(words())
    def test_preserves_occurring_letters(self, w):
        assert reduce_word(w).occurring == w.occurring

    @given(words(max_k=3, max_len=8))
    def test_matches_rewrite_closure_random(self, w):
        assert oracle_normal_forms(w.seq) == {reduce_word(w).seq}


class TestRestrict:
    def test_examples(self):
        assert str(restrict(parse_word("abcab"), [0, 1])) == "abab"
        assert str(restrict(parse_word("abc"), [2])) == "c"

    def test_reindexes_to_subalphabet(self):
        w = restrict(parse_word("abcb"), [1, 2])
        assert w.alphabet.names == ("b", "c")
        assert w.seq == (0, 1, 0)

    def test_empty_restriction_error(self):
        with pytest.raises(EmptyRestrictionError):
            restrict(Word(Alphabet.numeric(3), (0, 1)), [2])

    def test_subalphabet_in_increasing_id_order(self):
        w = restrict(parse_word("abc"), [2, 0])
        assert w.alphabet.names == ("a", "c")
        assert w.seq == (0, 1)

    @pytest.mark.parametrize("keep", [[3], [-1], [0, 3]])
    def test_ids_out_of_range(self, keep):
        with pytest.raises(ValueError) as info:
            restrict(parse_word("abc"), keep)
        ids = sorted(keep)
        assert str(info.value) == f"letter ids {ids} out of range for alphabet of size 3"

    @pytest.mark.parametrize("keep", [[True], [0, False], [0.5], [1.0], ["a"], [0, None]])
    def test_ids_must_be_ints(self, keep):
        # bool is refused too, as for a word's letter ids
        with pytest.raises(TypeError) as info:
            restrict(parse_word("abc"), keep)
        assert str(info.value) == f"letter ids to keep must be ints, got {keep}"

    def test_nothing_kept_is_an_empty_alphabet(self):
        # the empty sub-alphabet is refused before the empty restriction
        with pytest.raises(ValueError) as info:
            restrict(parse_word("abc"), [])
        assert type(info.value) is ValueError
        assert str(info.value) == "alphabet must contain at least one letter"

    @given(words())
    def test_preserves_noncrossing(self, w):
        if not is_noncrossing(w):
            return
        k = w.alphabet.size
        for r in range(1, k + 1):
            for keep in itertools.combinations(range(k), r):
                if not w.occurring.intersection(keep):
                    continue
                assert is_noncrossing(restrict(w, keep))


class TestFirstOccurrence:
    def test_numbers_from_start_in_order_of_first_occurrence(self):
        assert _first_occurrence("cacb") == (0, 1, 0, 2)
        assert _first_occurrence((3, 3, 1, 2, 1), start=1) == (1, 1, 2, 3, 2)
        assert _first_occurrence(()) == ()

    @given(words())
    def test_shape_is_its_own_relabelling(self, w):
        shape = _first_occurrence(w.seq)
        assert _first_occurrence(shape) == shape
        # the shape keeps exactly the equalities between positions
        pairs = list(zip(shape, w.seq))
        assert all((a == b) == (x == y) for a, x in pairs for b, y in pairs)


class TestApplyMap:
    def test_examples(self):
        xy = Alphabet(("x", "y"))
        x = Alphabet(("x",))
        assert str(apply_map(parse_word("abab"), {0: 0, 1: 0}, x)) == "xxxx"
        assert str(apply_map(parse_word("abc"), lambda i: i, Alphabet(("a", "b", "c")))) == "abc"
        assert str(apply_map(parse_word("abab"), {0: 0, 1: 1}, xy)) == "xyxy"

    def test_partial_map_error(self):
        with pytest.raises(ValueError):
            apply_map(parse_word("ab"), {0: 0}, Alphabet.numeric(1))

    @given(words(max_k=3, max_len=6), st.integers(1, 3), st.data())
    def test_reduce_commutes_with_map_up_to_reduction(self, w, t, data):
        target = Alphabet.numeric(t)
        raw = data.draw(st.tuples(*[st.integers(0, t - 1)] * w.alphabet.size))
        mapping = dict(enumerate(raw))
        lhs = reduce_word(apply_map(reduce_word(w), mapping, target))
        rhs = reduce_word(apply_map(w, mapping, target))
        assert lhs == rhs

    @given(words(max_k=3, max_len=8), st.data())
    def test_reduce_commutes_with_restriction_up_to_reduction(self, w, data):
        k = w.alphabet.size
        keep = data.draw(st.sets(st.integers(0, k - 1), min_size=1))
        if not w.occurring.intersection(keep):
            return
        lhs = reduce_word(restrict(reduce_word(w), keep))
        rhs = reduce_word(restrict(w, keep))
        assert lhs == rhs


class TestEnumeration:
    def test_word_basis_matches_brute_force(self):
        for k in range(1, 4):
            alphabet = Alphabet.numeric(k)
            expected = sorted(
                seq
                for seq in iter_all_seqs(k, 6)
                if oracle_is_reduced_seq(seq) and len(set(seq)) == k
            )
            got = [w.seq for w in enumerate_word_basis(alphabet, 6)]
            assert sorted(got) == expected
            assert got == sorted(got)  # lexicographic emission order

    def test_word_basis_deeper_than_the_recursion_limit(self):
        # two letters alternate: "ab...", "ba..." at each even length
        words = enumerate_word_basis(Alphabet.numeric(2), 1200)
        assert len(words) == 1200
        assert words[-1].seq == (1, 0) * 600

    def test_nc_basis_examples(self):
        a = Alphabet(("a",))
        ab = Alphabet(("a", "b"))
        abc = Alphabet(("a", "b", "c"))
        assert [str(w) for w in enumerate_nc_basis(a, 3)] == ["a"]
        assert [str(w) for w in enumerate_nc_basis(ab, 4)] == ["ab", "ba"]
        five = {str(w) for w in enumerate_nc_basis(abc, 5)}
        assert "abcb" in five and "abc" in five
        assert not any("abab" in s for s in five)

    def test_nc_basis_matches_brute_force(self):
        for k in range(1, 5):
            alphabet = Alphabet.numeric(k)
            max_len = 2 * k - 1
            expected = sorted(
                seq
                for seq in iter_all_seqs(k, max_len)
                if oracle_is_reduced_seq(seq)
                and len(set(seq)) == k
                and oracle_is_noncrossing_seq(seq)
            )
            got = [w.seq for w in enumerate_nc_basis(alphabet)]
            assert sorted(got) == expected
            assert got == sorted(got)

    def test_nc_basis_length_bound(self):
        # no pangrammatic reduced non-crossing word is longer than 2k-1:
        # searching with extra headroom finds nothing new
        for k in range(1, 5):
            alphabet = Alphabet.numeric(k)
            default = enumerate_nc_basis(alphabet)
            padded = enumerate_nc_basis(alphabet, 2 * k + 2)
            assert padded == default
            # the attained maximum sits one below the cap once k > 1
            attained = max(len(w) for w in default)
            assert attained == (1 if k == 1 else 2 * k - 2)

    @pytest.mark.parametrize("k, total", [(2, 2), (3, 18), (4, 264), (5, 5400)])
    def test_nc_basis_counts_are_polygon_dissections(self, k, total):
        # k! * D(k+1, j) words of length k+j, D(N, j) the dissections of
        # a convex N-gon by j diagonals (Kirkman-Cayley, OEIS A033282):
        # none longer than 2k-2, k! times the little Schroeder numbers
        # (A001003) in all
        def dissections(n, j):
            return math.comb(n - 3, j) * math.comb(n + j - 1, j) // (j + 1)

        words = enumerate_nc_basis(Alphabet.numeric(k), 2 * k + 1)
        by_length = collections.Counter(len(w) for w in words)
        expected = {k + j: math.factorial(k) * dissections(k + 1, j) for j in range(k - 1)}
        assert by_length == expected
        assert max(by_length) == 2 * k - 2
        assert sum(by_length.values()) == total

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            enumerate_word_basis(Alphabet.numeric(2), 0)
        with pytest.raises(ValueError):
            enumerate_nc_basis(Alphabet.numeric(2), 0)


class TestDistinguishedWords:
    def test_peak(self):
        assert str(peak_word(1)) == "1"
        assert str(peak_word(2)) == "12"
        assert str(peak_word(3)) == "1232"
        assert peak_word(4).seq == (0, 1, 2, 3, 2, 1)
        with pytest.raises(ValueError):
            peak_word(0)

    def test_both_are_valid_noncrossing_basis_words(self):
        for n in range(1, 7):
            for w in (Word(Alphabet.numeric(n), tuple(range(n))), peak_word(n)):
                assert is_reduced(w)
                assert is_pangrammatic(w)
                assert is_noncrossing(w)


class TestSharedInstances:
    # peak_word and Alphabet.numeric hand out one frozen instance per size
    def test_one_instance_per_size(self):
        for n in range(1, 9):
            assert peak_word(n) is peak_word(n)
            assert Alphabet.numeric(n) is Alphabet.numeric(n)
            assert peak_word(n).alphabet is Alphabet.numeric(n)

    @pytest.mark.parametrize(
        "make, name", [(peak_word, "n"), (Alphabet.numeric, "alphabet size")], ids=["peak", "numeric"]
    )
    @pytest.mark.parametrize(
        "size, error, message",
        [
            (True, TypeError, "{} must be an int, got True"),
            (0, ValueError, "{} must be >= 1"),
            (2.0, TypeError, "{} must be an int, got 2.0"),
        ],
        ids=["bool", "zero", "float"],
    )
    def test_refusals_are_not_cached(self, make, name, size, error, message):
        # the sizes that True and 2.0 equal are cached first
        make(1), make(2)
        for _ in range(2):
            with pytest.raises(error) as info:
                make(size)
            assert str(info.value) == message.format(name)


class TestRandomBasisWord:
    def test_deterministic_and_valid(self):
        rng1, rng2 = random.Random(17), random.Random(17)
        for _ in range(50):
            w1 = random_basis_word(rng1, 4, 9)
            w2 = random_basis_word(rng2, 4, 9)
            assert w1 == w2
            assert is_reduced(w1) and is_pangrammatic(w1)
            assert len(w1) <= 9

    def test_noncrossing_mode(self):
        rng = random.Random(5)
        for _ in range(50):
            w = random_basis_word(rng, 3, 10, noncrossing=True)
            assert is_noncrossing(w)
            assert len(w) <= 5

    def test_too_short_error(self):
        with pytest.raises(ValueError):
            random_basis_word(random.Random(0), 4, 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_alphabet_size_below_one(self, k):
        with pytest.raises(ValueError) as info:
            random_basis_word(random.Random(0), k, 3)
        assert str(info.value) == "alphabet size must be >= 1"
