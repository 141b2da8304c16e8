"""Word cumulants against their direct partition-sum counterparts.

The closed forms frozen here (third and fourth free cumulant, second and
third Boolean and classical cumulants) come from expanding the defining
partition sums by hand, so they are independent of both code paths they
are compared with.
"""

import functools
import itertools
import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial, lcm, prod

import pytest

from ncwords import (
    Alphabet,
    CrossingWordError,
    CumulantTable,
    MissingMomentError,
    MomentFunctional,
    Word,
    boolean_cumulant,
    check_coassociativity,
    classical_cumulant,
    decompose_noncrossing,
    enumerate_nc_basis,
    enumerate_nc_partitions,
    free_cumulant,
    free_cumulant_direct,
    moments_from_free_cumulants,
    parse_word,
    peak_word,
    render_word,
    semicircular_family,
    word_cumulant,
)

from ncwords import cumulants
from ncwords.cumulants import _compiled, _groups, _plan, _query_word

from oracles import (
    fraction_classical_cumulant,
    fraction_moments_from_free_cumulants,
    free_coefficient,
    oracle_mobius,
    oracle_word_cumulant,
    rand_fraction,
    single_var_table,
    two_var_table,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def single_table(*moments):
    """Single-variable functional with the given m_1, m_2, ... for "v"."""
    table = {("v",) * (i + 1): Fraction(m) for i, m in enumerate(moments)}
    return MomentFunctional(("v",), table)


def free_kappas(E, var, up_to):
    return [free_cumulant(E, (var,) * n) for n in range(1, up_to + 1)]


class TestWordCumulant:
    def test_singleton_is_first_moment(self):
        E = single_table(Fraction(1, 2))
        assert word_cumulant(E, parse_word("a"), ("v",)) == Fraction(1, 2)

    def test_second_free_cumulant_value(self):
        E = single_table(Fraction(1, 2), Fraction(1, 3))
        assert free_cumulant(E, ("v", "v")) == Fraction(1, 12)
        assert free_cumulant_direct(E, ("v", "v")) == Fraction(1, 12)

    def test_centered_third_cumulant_is_third_moment(self):
        E = single_table(0, Fraction(1, 3), Fraction(1, 5))
        assert free_cumulant(E, ("v",) * 3) == Fraction(1, 5)

    def test_validation(self):
        E = single_table(1, 1)
        with pytest.raises(CrossingWordError):
            word_cumulant(E, parse_word("abab"), ("v", "v"))
        with pytest.raises(ValueError):
            word_cumulant(E, parse_word("aa"), ("v",))
        with pytest.raises(ValueError):
            word_cumulant(E, Word(Alphabet.numeric(2), (0,)), ("v", "v"))
        with pytest.raises(ValueError):
            word_cumulant(E, parse_word("ab"), ("v",))
        with pytest.raises(ValueError):
            free_cumulant(E, ())

    @pytest.mark.parametrize(
        "make_word, error, message",
        [
            (lambda: parse_word("abab"), CrossingWordError, "word 'abab' is crossing"),
            (lambda: parse_word("aa"), ValueError, "word 'aa' is not reduced"),
            (
                lambda: Word(Alphabet.numeric(2), (0,)),
                ValueError,
                "word '1' does not use every alphabet letter",
            ),
        ],
        ids=["crossing", "not_reduced", "not_pangrammatic"],
    )
    def test_one_validation_route(self, make_word, error, message):
        # the cumulant, the non-crossing decomposition and the
        # non-crossing coassociativity check reject a word alike; the
        # word is built here, so a constructor fault fails this test only
        w = make_word()
        E = single_table(1, 1)
        for call in (
            lambda: word_cumulant(E, w, ("v",) * w.alphabet.size),
            lambda: decompose_noncrossing(w),
            lambda: check_coassociativity(w, noncrossing=True),
        ):
            with pytest.raises(ValueError) as exc:
                call()
            assert (type(exc.value), str(exc.value)) == (error, message)

    def test_memo_key_ignores_letter_names_and_order(self):
        rng = random.Random(3)
        E = two_var_table(rng, 4, names=("x", "y"))
        ba = Word(Alphabet(("a", "b")), (1, 0))
        # letters rank b first, so this is the cumulant of (y, x)
        assert word_cumulant(E, ba, ("x", "y")) == free_cumulant(E, ("y", "x"))

    def test_reads_letters_in_first_occurrence_order(self):
        # ba ranks b first, so with a -> x and b -> y it reads E(y x)
        E = MomentFunctional(
            ("x", "y"),
            {
                ("x",): Fraction(0),
                ("y",): Fraction(0),
                ("x", "y"): Fraction(1, 5),
                ("y", "x"): Fraction(2, 5),
            },
        )
        ba = Word(Alphabet(("a", "b")), (1, 0))
        assert word_cumulant(E, ba, ("x", "y")) == Fraction(2, 5)
        assert word_cumulant(E, parse_word("ab"), ("x", "y")) == Fraction(1, 5)

    def test_invariant_under_relabelling(self):
        rng = random.Random(77)
        E = two_var_table(rng, 4)
        pool = [w for k in range(1, 5) for w in enumerate_nc_basis(Alphabet.numeric(k))]
        for w in rng.sample(pool, 40):
            k = w.alphabet.size
            assign = tuple(rng.choice(("a", "b")) for _ in range(k))
            perm = list(range(k))
            rng.shuffle(perm)
            relabelled = Word(Alphabet.numeric(k), tuple(perm[x] for x in w.seq))
            # letter perm[i] of the relabelled word carries letter i's variable
            assign2 = [""] * k
            for i, new in enumerate(perm):
                assign2[new] = assign[i]
            assert word_cumulant(E, relabelled, assign2) == word_cumulant(E, w, assign), w

    def test_table_reuse_matches_fresh_computations(self):
        rng = random.Random(4)
        E = two_var_table(rng, 5)
        table = CumulantTable(E)
        queries = [
            (parse_word("abcb"), ("a", "b", "a")),
            (parse_word("abc"), ("b", "b", "a")),
            (parse_word("1234"), ("a", "b", "a", "b")),
        ]
        first = [table.word_cumulant(w, assign) for w, assign in queries]
        again = [table.word_cumulant(w, assign) for w, assign in queries]
        fresh = [word_cumulant(E, w, assign) for w, assign in queries]
        assert first == again == fresh


def small_query_cache():
    """The word-query cache with room for 8 words."""
    return functools.lru_cache(maxsize=8)(_query_word.__wrapped__)


class TestWordQueryCache:
    # word_cumulant checks and relabels each word once per process, by
    # its ids and alphabet size (_query_word); a refusal is not kept
    @pytest.mark.parametrize(
        "valid, seq, names, message",
        [
            ((0, 1), (0, 1, 0, 1), (("a", "b"), ("x", "y")), "word '{}' is crossing"),
            ((0, 1), (0, 1, 1), (("a", "b"), ("x", "y")), "word '{}' is not reduced"),
            # the valid word has the same ids on one letter
            ((0,), (0,), (("a", "b"), ("x", "y")), "word '{}' does not use every alphabet letter"),
        ],
        ids=["crossing", "not_reduced", "not_pangrammatic"],
    )
    @pytest.mark.parametrize("valid_first", [True, False], ids=["valid_first", "invalid_first"])
    def test_refusals_name_the_callers_letters(self, valid, seq, names, message, valid_first):
        E = semicircular_family([1], names=("v",))
        table = CumulantTable(E)
        good = Word(Alphabet.numeric(max(valid) + 1), valid)

        def query_valid():
            assert table.word_cumulant(good, ("v",) * good.alphabet.size) == free_cumulant(
                E, ("v",) * good.alphabet.size
            )

        def refuse(letters):
            w = Word(Alphabet(letters), seq)
            kept = _query_word.cache_info().currsize
            with pytest.raises(ValueError) as info:
                table.word_cumulant(w, ("v",) * len(letters))
            assert str(info.value) == message.format(render_word(w))
            assert _query_word.cache_info().currsize == kept

        steps = [query_valid] + [lambda letters=letters: refuse(letters) for letters in names]
        for step in steps if valid_first else steps[::-1]:
            step()
        steps[0]()

    def test_letter_names_do_not_change_the_value(self):
        rng = random.Random(21)
        E = two_var_table(rng, 4)
        for k in range(1, 5):
            named = Alphabet(tuple("xyzw"[:k]))
            for w in enumerate_nc_basis(Alphabet.numeric(k)):
                assign = tuple(rng.choice(("a", "b")) for _ in range(k))
                first = CumulantTable(E).word_cumulant(Word(named, w.seq), assign)
                assert CumulantTable(E).word_cumulant(w, assign) == first, w

    def test_a_sweep_past_the_bound_keeps_the_bound(self, monkeypatch):
        monkeypatch.setattr(cumulants, "_query_word", small_query_cache())
        words = [w for k in range(1, 4) for w in enumerate_nc_basis(Alphabet.numeric(k))]
        assert len(words) > 8
        E = semicircular_family([1], names=("v",))
        table = CumulantTable(E)
        for w in words * 2:
            value = table.word_cumulant(w, ("v",) * w.alphabet.size)
            assert cumulants._query_word.cache_info().currsize <= 8
            assert value == CumulantTable(E).word_cumulant(w, ("v",) * w.alphabet.size)
        with pytest.raises(CrossingWordError):
            table.word_cumulant(parse_word("abab"), ("v", "v"))

    def test_concurrent_fills_keep_the_bound(self, monkeypatch):
        # more threads than CPUs fill a small empty cache at once, round
        # after round; a lost update of the bound would leave it over-full
        cache = small_query_cache()
        monkeypatch.setattr(cumulants, "_query_word", cache)
        words = [w for k in range(1, 4) for w in enumerate_nc_basis(Alphabet.numeric(k))]
        E = two_var_table(random.Random(22), 3)
        assign = [("a", "b", "a")[: w.alphabet.size] for w in words]
        expected = [CumulantTable(E).word_cumulant(w, a) for w, a in zip(words, assign)]
        workers = 6
        start = threading.Barrier(workers)

        def run(first):
            start.wait(timeout=60)
            table = CumulantTable(E)
            order = list(range(first, len(words))) + list(range(first))
            return {i: table.word_cumulant(words[i], assign[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in range(200):
                    cache.cache_clear()
                    futures = [pool.submit(run, w * len(words) // workers) for w in range(workers)]
                    results = [f.result(timeout=120) for f in futures]
                    assert cache.cache_info().currsize == 8
                    for got in results:
                        assert [got[i] for i in range(len(words))] == expected
        finally:
            sys.setswitchinterval(interval)


class TestFreeAgainstDirect:
    def test_single_variable_tables(self):
        rng = random.Random(100)
        for _ in range(25):
            E = single_var_table(rng, 5)
            for n in range(1, 6):
                assert free_cumulant(E, ("v",) * n) == free_cumulant_direct(E, ("v",) * n)

    def test_two_variable_tables(self):
        rng = random.Random(101)
        for _ in range(10):
            E = two_var_table(rng, 5)
            for _ in range(4):
                args = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 5)))
                assert free_cumulant(E, args) == free_cumulant_direct(E, args)

    def test_third_and_fourth_closed_forms(self):
        rng = random.Random(102)
        for _ in range(10):
            E = single_var_table(rng, 4)
            m = [None] + [E.expect(("v",) * n) for n in range(1, 5)]
            k3 = m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
            k4 = (
                m[4]
                - 4 * m[1] * m[3]
                - 2 * m[2] ** 2
                + 10 * m[1] ** 2 * m[2]
                - 5 * m[1] ** 4
            )
            assert free_cumulant(E, ("v",) * 3) == k3
            assert free_cumulant(E, ("v",) * 4) == k4

    def test_defining_equation_forward(self):
        # the moment of v_1..v_N equals the sum over non-crossing
        # partitions of products of block cumulants
        rng = random.Random(103)
        for _ in range(8):
            E = two_var_table(rng, 5)
            for n in range(1, 6):
                args = tuple(rng.choice(("a", "b")) for _ in range(n))
                total = Fraction(0)
                for part in enumerate_nc_partitions(n):
                    prod = Fraction(1)
                    for block in part.blocks():
                        prod *= free_cumulant(E, tuple(args[e - 1] for e in block))
                    total += prod
                assert total == E.expect(args)


class TestBooleanCumulants:
    def test_closed_forms(self):
        rng = random.Random(104)
        for _ in range(10):
            E = single_var_table(rng, 3)
            m = [None] + [E.expect(("v",) * n) for n in range(1, 4)]
            assert boolean_cumulant(E, ("v",) * 2) == m[2] - m[1] ** 2
            assert boolean_cumulant(E, ("v",) * 3) == m[3] - 2 * m[1] * m[2] + m[1] ** 3

    def test_frozen_value(self):
        E = single_table(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        assert boolean_cumulant(E, ("v",) * 3) == Fraction(-1, 120)

    def test_peak_word_cumulant_is_boolean(self):
        rng = random.Random(105)
        for _ in range(10):
            E = two_var_table(rng, 5)
            table = CumulantTable(E)
            for n in range(1, 6):
                args = tuple(rng.choice(("a", "b")) for _ in range(n))
                assert table.word_cumulant(peak_word(n), args) == boolean_cumulant(E, args)

    def test_empty_args_rejected(self):
        with pytest.raises(ValueError):
            boolean_cumulant(single_table(1), ())


    def test_semicircle_to_order_40(self):
        # the Boolean cumulants of the standard semicircle are
        # eta_2n = Catalan(n - 1) and vanish in odd orders
        E = semicircular_family([1])
        for n in range(1, 41):
            expected = catalan(n // 2 - 1) if n % 2 == 0 else 0
            assert boolean_cumulant(E, ("x",) * n) == expected, n

    def test_interval_partition_sum_on_mixed_arguments(self):
        # the moment is the sum over interval partitions (cut sets) of
        # the product of block cumulants
        rng = random.Random(111)
        E = two_var_table(rng, 8)
        for n in range(1, 9):
            for _ in range(3):
                args = tuple(rng.choice(("a", "b")) for _ in range(n))
                total = Fraction(0)
                for r in range(n):
                    for cuts in itertools.combinations(range(1, n), r):
                        bounds = (0,) + cuts + (n,)
                        prod = Fraction(1)
                        for lo, hi in zip(bounds, bounds[1:]):
                            prod *= boolean_cumulant(E, args[lo:hi])
                        total += prod
                assert total == E.expect(args), args


class TestClassicalCumulants:
    def test_closed_forms(self):
        rng = random.Random(106)
        for _ in range(10):
            E = single_var_table(rng, 3)
            m = [None] + [E.expect(("v",) * n) for n in range(1, 4)]
            assert classical_cumulant(E, ("v",) * 2) == m[2] - m[1] ** 2
            assert classical_cumulant(E, ("v",) * 3) == m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3

    def test_frozen_value(self):
        E = single_table(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        assert classical_cumulant(E, ("v",) * 3) == Fraction(-1, 20)

    def test_rejects_mixed_variables(self):
        E = MomentFunctional(("a", "b"), {("a", "b"): Fraction(1)})
        with pytest.raises(ValueError):
            classical_cumulant(E, ("a", "b"))

    @pytest.mark.parametrize("cumulant", [classical_cumulant, free_cumulant_direct])
    def test_empty_args_rejected(self, cumulant):
        with pytest.raises(ValueError) as info:
            cumulant(single_table(1), ())
        assert str(info.value) == "at least one variable is required"

    def test_round_trips_through_set_partition_sum(self):
        # forward check via an independent partition enumeration: group
        # the canonical surjections by their block sizes
        from ncwords import enumerate_canonical_surjections

        rng = random.Random(107)
        for _ in range(6):
            E = single_var_table(rng, 6)
            kappas = {n: classical_cumulant(E, ("v",) * n) for n in range(1, 7)}
            for n in range(1, 7):
                total = Fraction(0)
                for f in enumerate_canonical_surjections(n):
                    prod = Fraction(1)
                    for block in f.blocks():
                        prod *= kappas[len(block)]
                    total += prod
                assert total == E.expect(("v",) * n)


    def test_poisson_cumulants_to_order_40(self):
        # Poisson(1) has the Bell numbers as moments and every cumulant 1
        bell, row = [1], [1]
        for _ in range(40):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
            bell.append(row[0])
        E = MomentFunctional(("v",), {("v",) * n: Fraction(bell[n]) for n in range(1, 41)})
        for n in range(1, 41):
            assert classical_cumulant(E, ("v",) * n) == 1, n


class TestSemicircleCumulants:
    def test_single_variable(self):
        E = semicircular_family([1])
        kappas = free_kappas(E, "x", 6)
        assert kappas == [0, 1, 0, 0, 0, 0]

    def test_mixed_cumulants_vanish(self):
        E = semicircular_family([1, 1], names=("a", "b"))
        for n in range(2, 6):
            for args in itertools.product(("a", "b"), repeat=n):
                if len(set(args)) < 2:
                    continue
                assert free_cumulant(E, args) == 0, args


class TestMomentsFromFreeCumulants:
    def test_semicircle(self):
        ms = moments_from_free_cumulants([0, 1, 0, 0, 0, 0])
        assert ms == [1, 0, 1, 0, 2, 0, 5]

    def test_constant_cumulants(self):
        lam = Fraction(2, 3)
        ms = moments_from_free_cumulants([lam, lam])
        assert ms[1] == lam
        assert ms[2] == lam**2 + lam

    def test_all_zero(self):
        assert moments_from_free_cumulants([0, 0, 0]) == [1, 0, 0, 0]

    def test_int_and_fraction_inputs_give_identical_lists(self):
        ints = [1, -2, 3, 0, 5, -1]
        fractions = [Fraction(k) for k in ints]

        def typed(values):
            return [(type(m), m) for m in values]

        expected = typed(moments_from_free_cumulants(ints))
        assert typed(moments_from_free_cumulants(fractions)) == expected
        assert all(t is Fraction for t, _ in expected)
        assert fractions == [Fraction(k) for k in ints]  # inputs untouched

    def test_round_trip_with_free_cumulant(self):
        rng = random.Random(108)
        for _ in range(20):
            E = single_var_table(rng, 6)
            kappas = free_kappas(E, "v", 6)
            ms = moments_from_free_cumulants(kappas)
            assert ms[0] == 1
            for n in range(1, 7):
                assert ms[n] == E.expect(("v",) * n)

    def test_semicircle_to_order_60(self):
        ms = moments_from_free_cumulants([0, 1] + [0] * 58)
        assert ms[0::2] == [catalan(n) for n in range(31)]
        assert not any(ms[1::2])


def linear_mix_functional(rng, alpha, beta, up_to=4):
    """Moments over x, y, u, z where z acts as alpha*x + beta*y.

    The base moments over (x, y, u) are random; every moment involving z
    is expanded multilinearly, so the whole table is consistent with the
    substitution and cumulant linearity in every slot must follow.
    """
    base_vars = ("x", "y", "u")
    base = {}
    for n in range(1, up_to + 1):
        for combo in itertools.product(base_vars, repeat=n):
            base[combo] = rand_fraction(rng)

    def expanded(combo):
        z_positions = [i for i, v in enumerate(combo) if v == "z"]
        total = Fraction(0)
        for choice in itertools.product(("x", "y"), repeat=len(z_positions)):
            weight = Fraction(1)
            replaced = list(combo)
            for pos, pick in zip(z_positions, choice):
                replaced[pos] = pick
                weight *= alpha if pick == "x" else beta
            total += weight * base[tuple(replaced)]
        return total

    table = {}
    for n in range(1, up_to + 1):
        for combo in itertools.product(base_vars + ("z",), repeat=n):
            table[combo] = expanded(combo)
    return MomentFunctional(base_vars + ("z",), table)


class TestMultilinearity:
    def test_free_cumulant_is_linear_in_each_slot(self):
        rng = random.Random(109)
        for _ in range(6):
            alpha, beta = rand_fraction(rng), rand_fraction(rng)
            E = linear_mix_functional(rng, alpha, beta)
            for n in range(1, 5):
                for _ in range(4):
                    args = [rng.choice(("x", "y", "u")) for _ in range(n)]
                    slot = rng.randrange(n)
                    mixed = list(args)
                    mixed[slot] = "z"
                    with_x = list(args)
                    with_x[slot] = "x"
                    with_y = list(args)
                    with_y[slot] = "y"
                    assert free_cumulant(E, mixed) == alpha * free_cumulant(
                        E, with_x
                    ) + beta * free_cumulant(E, with_y)


class TestCumulantsOfWordsBeyondTheFamilies:
    def test_defining_recursion_holds(self):
        # for any non-crossing basis word: the expectation is the sum
        # over image-non-crossing surjections of block cumulant products
        from ncwords import (
            enumerate_canonical_surjections,
            enumerate_nc_basis,
            is_noncrossing_seq,
            reduce_word,
            restrict,
        )

        rng = random.Random(110)
        E = two_var_table(rng, 5)
        table = CumulantTable(E)
        for w in enumerate_nc_basis(Alphabet.numeric(3)):
            assign = tuple(rng.choice(("a", "b")) for _ in range(3))
            total = Fraction(0)
            for f in enumerate_canonical_surjections(3):
                if not is_noncrossing_seq(tuple(f.assignment[x] for x in w.seq)):
                    continue
                prod = Fraction(1)
                for block in f.blocks():
                    ids = tuple(e - 1 for e in block)
                    sub = reduce_word(restrict(w, ids))
                    prod *= table.word_cumulant(sub, tuple(assign[i] for i in ids))
                total += prod
            # the moment reads each letter's variable once, in order of
            # first occurrence
            assert total == E.expect(tuple(assign[x] for x in dict.fromkeys(w.seq)))


def bell_filter_terms(shape):
    """The recursion's terms for a canonical shape the way the plan is
    specified: filter all Bell(k) surjections by the image test, restrict
    and reduce words per block, and rank each block's letters by first
    occurrence."""
    from ncwords import (
        enumerate_canonical_surjections,
        is_noncrossing_seq,
        reduce_word,
        restrict,
    )

    k = max(shape) + 1
    w = Word(Alphabet.numeric(k), shape)
    terms = []
    for f in enumerate_canonical_surjections(k):
        if f.m == 1 or not is_noncrossing_seq(tuple(f.assignment[x] for x in shape)):
            continue
        term = []
        for block in f.blocks():
            ids = tuple(e - 1 for e in block)
            sub = reduce_word(restrict(w, ids))
            term.append((canonical_shape(sub.seq), tuple(ids[i] for i in dict.fromkeys(sub.seq))))
        terms.append(tuple(term))
    return tuple(terms)


def canonical_shape(seq):
    rank = {}
    for x in seq:
        rank.setdefault(x, len(rank))
    return tuple(rank[x] for x in seq)


def nc_basis_shapes():
    """The canonical shapes of the non-crossing basis words with at most
    five letters, sorted."""
    return sorted(
        {canonical_shape(w.seq) for k in range(1, 6) for w in enumerate_nc_basis(Alphabet.numeric(k))}
    )


class TestPlans:
    def test_plans_match_bell_filter_on_nc_basis_words(self):
        for shape in nc_basis_shapes():
            assert tuple(term for term, _ in _plan(shape)) == bell_filter_terms(shape), shape

    def test_plan_mu_is_the_kreweras_product(self):
        # each term's mu against the cycles of sigma^-1 gamma, sigma the
        # partition of the positions by block of the term's image; the
        # oracle itself sums to 0 over NC(n), as a Moebius function does
        for n in range(2, 7):
            blocks = [[[e - 1 for e in b] for b in f.blocks()] for f in enumerate_nc_partitions(n)]
            assert sum(oracle_mobius(b, n) for b in blocks) == 0
        for shape in nc_basis_shapes():
            for term, mu in _plan(shape):
                blocks = [[p for p, x in enumerate(shape) if x in ids] for _, ids in term]
                assert mu == oracle_mobius(blocks, len(shape)), (shape, term)

    def test_second_table_reuses_every_plan(self):
        rng = random.Random(112)
        queries = [
            (parse_word("12345"), ("a", "b", "a", "b", "b")),
            (parse_word("123456"), ("b",) * 6),
            (peak_word(5), ("a", "b", "b", "a", "a")),
            (parse_word("12324"), ("b", "a", "a", "b")),
        ]
        first = CumulantTable(two_var_table(rng, 6))
        for w, args in queries:
            first.word_cumulant(w, args)
        plans, groups, compiled = _plan.cache_info(), _groups.cache_info(), _compiled.cache_info()
        E = two_var_table(rng, 6)
        second = CumulantTable(E)
        values = [second.word_cumulant(w, args) for w, args in queries]
        assert _plan.cache_info().misses == plans.misses
        assert _groups.cache_info().misses == groups.misses
        assert _compiled.cache_info().misses == compiled.misses
        assert _compiled.cache_info().hits > compiled.hits
        assert values[:3] == [
            free_cumulant_direct(E, queries[0][1]),
            free_cumulant_direct(E, queries[1][1]),
            boolean_cumulant(E, queries[2][1]),
        ]

    def test_renamed_variables_reuse_the_groups(self):
        # the same pattern under new variable names is a new key for
        # _compiled, and _groups already holds its pattern
        old, new = ("old_a", "old_b"), ("new_a", "new_b")
        E = MomentFunctional(old + new, rule=lambda t: Fraction(len(t), 7))
        CumulantTable(E).word_cumulant(peak_word(5), [old[i] for i in (0, 1, 1, 0, 0)])
        groups, compiled = _groups.cache_info(), _compiled.cache_info()
        CumulantTable(E).word_cumulant(peak_word(5), [new[i] for i in (0, 1, 1, 0, 0)])
        assert _groups.cache_info().misses == groups.misses
        assert _compiled.cache_info().misses > compiled.misses

    def test_every_cache_is_bounded(self):
        for cache in (_plan, _groups, _compiled, _query_word):
            assert cache.cache_info().maxsize is not None

    def test_free_cumulants_to_order_10_round_trip(self):
        rng = random.Random(113)
        E = single_var_table(rng, 10)
        table = CumulantTable(E)
        kappas = [table.free_cumulant(("v",) * n) for n in range(1, 11)]
        assert moments_from_free_cumulants(kappas) == [1] + [
            E.expect(("v",) * n) for n in range(1, 11)
        ]


def integer_partitions(n, largest=None):
    """The partitions of n into parts of at most ``largest``, as
    non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


class TestGroups:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_one_variable_groups_are_kreweras_block_types(self, n):
        # the non-crossing partitions of [n] with b blocks, m_i of size
        # i, number n! / ((n - b + 1)! prod m_i!) (Kreweras, 1972)
        moments, poly = _groups(tuple(range(n)), (0,) * n)
        assert poly[0] == (1, (0,)) and moments[0] == (0,) * n
        number = {m: i for i, m in enumerate(moments)}
        terms = Counter(
            tuple(sorted(number[(0,) * len(at)] for _, at in term))
            for term, _ in _plan(tuple(range(n)))
        )
        types = [tuple(sorted((len(moments[i]) for i in ids), reverse=True)) for _, ids in poly[1:]]
        assert sorted(types) == sorted(p for p in integer_partitions(n) if len(p) > 1)
        assert sorted(terms) == sorted(ids for _, ids in poly[1:])
        for (_, ids), sizes in zip(poly[1:], types):
            b = len(sizes)
            counts = Counter(sizes).values()
            assert terms[ids] == factorial(n) // (factorial(n - b + 1) * prod(map(factorial, counts)))

    def test_groups_expand_to_the_plan_terms(self):
        # for every two-variable pattern, each monomial stands for the
        # plan terms whose blocks read the same multiset of sub-shapes
        # and variables, its coefficient their sum of mu; monomials come
        # in the order of their first terms after the shape's own
        # moment
        for shape in nc_basis_shapes():
            k = max(shape) + 1
            for rest in itertools.product((0, 1), repeat=k - 1):
                pattern = (0,) + rest

                def read_of(block):
                    return block[0], tuple(pattern[i] for i in block[1])

                classes = {}
                for term, mu in _plan(shape):
                    counts = Counter(map(read_of, term))
                    classes.setdefault(frozenset(counts.items()), []).append((term, mu))
                moments, poly = _groups(shape, pattern)
                assert poly[0] == (1, (0,)), (shape, pattern)
                number = {m: i for i, m in enumerate(moments)}
                expected = [
                    (sum(mu for _, mu in terms), Counter(number[read_of(b)[1]] for b in terms[0][0]))
                    for terms in classes.values()
                ]
                assert [(mu, Counter(ids)) for mu, ids in poly[1:]] == expected, (shape, pattern)
                assert all(list(ids) == sorted(ids) for _, ids in poly), (shape, pattern)


class TestMobiusPolynomial:
    def test_word_cumulants_match_the_recursion(self):
        # every non-crossing basis word with k <= 4 and a seeded tenth of
        # those with k = 5, each on seeded one-, two- and three-variable
        # tables, against the triangular system solved by recursion
        rng = random.Random(2026)
        words = [w for k in range(1, 5) for w in enumerate_nc_basis(Alphabet.numeric(k))]
        five = enumerate_nc_basis(Alphabet.numeric(5))
        words += rng.sample(five, len(five) // 10)
        for names in (("v",), ("a", "b"), ("a", "b", "c")):
            E = MomentFunctional(
                names,
                {t: rand_fraction(rng) for n in range(1, 6) for t in itertools.product(names, repeat=n)},
            )
            table, memo = CumulantTable(E), {}
            for w in words:
                assign = [rng.choice(names) for _ in range(w.alphabet.size)]
                got = table.word_cumulant(w, assign)
                assert got == oracle_word_cumulant(E, w.seq, assign, memo), (w.seq, assign)

    def test_moments_come_in_the_recursions_request_order(self):
        # a query's moments, in order, are those that the triangular
        # system, solved by recursion, requests, each at its first
        # request: every shape with k <= 4 on every two-variable
        # pattern, and each shape with k = 5 on one seeded pattern
        rng = random.Random(2028)
        queries = []
        for shape in nc_basis_shapes():
            k = max(shape) + 1
            patterns = [(0,) + rest for rest in itertools.product((0, 1), repeat=k - 1)]
            queries += [(shape, p) for p in (patterns if k <= 4 else [rng.choice(patterns)])]
        for shape, pattern in queries:
            vs = tuple("ab"[i] for i in pattern)
            E = RecordingFunctional(("a", "b"), rule=lambda t: Fraction(len(t), 7))
            oracle_word_cumulant(E, shape, vs, {})
            assert tuple(dict.fromkeys(E.requests)) == _compiled((shape, vs))[0], (shape, vs)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_variable_free_coefficients_are_the_closed_form(self, n):
        # the ascending word on one variable: one monomial per partition
        # of n, with the closed-form coefficient
        moments, poly = _compiled((tuple(range(n)), ("v",) * n))
        coefficients = {
            tuple(sorted((len(moments[i]) for i in ids), reverse=True)): c for c, ids in poly
        }
        partitions = list(integer_partitions(n))
        assert len(poly) == len(coefficients) == len(partitions)
        assert coefficients == {p: free_coefficient(n, p) for p in partitions}


class RecordingFunctional(MomentFunctional):
    """A functional that records every monomial requested."""

    def __init__(self, variables, table=None, rule=None):
        super().__init__(variables, table, rule)
        self.requests = []

    def expect(self, monomial):
        self.requests.append(tuple(monomial))
        return super().expect(monomial)


def first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def prime_denominator_case(order):
    """62 two-letter moments with the first 62 primes as denominators."""
    monomials = [t for n in range(1, 6) for t in itertools.product("ab", repeat=n)]
    moments = {
        t: Fraction(i % 7 - 3, p) for i, (t, p) in enumerate(zip(monomials, first_primes(62)))
    }
    queries = monomials if order == "shortest_first" else monomials[::-1]
    return MomentFunctional(("a", "b"), moments), queries


def inverse_factorial_case():
    """A rule ``m_n = 1/n!``."""
    E = MomentFunctional(("v",), rule=lambda factors: Fraction(1, factorial(len(factors))))
    return E, [("v",) * n for n in range(1, 9)]


def semicircular_case():
    """Two free semicircular variables with covariances 1/2 and 1/3."""
    E = semicircular_family([Fraction(1, 2), Fraction(1, 3)], names=("a", "b"))
    return E, [t for n in range(6, 0, -1) for t in itertools.product("ab", repeat=n)]


SCALE_GROWTH_CASES = {
    "prime_denominators_shortest_first": lambda: prime_denominator_case("shortest_first"),
    "prime_denominators_longest_first": lambda: prime_denominator_case("longest_first"),
    "inverse_factorial_rule": inverse_factorial_case,
    "semicircular_family": semicircular_case,
}


def table_queries(table, args):
    """The free cumulant and the peak word cumulant of ``args``."""
    return table.free_cumulant(args), table.word_cumulant(peak_word(len(args)), args)


class TestScaleGrowth:
    # A query is evaluated on integers scaled by a power of the lcm of
    # its moments' denominators.  These tables make that scale grow
    # large, query by query, from many distinct denominators.
    def assert_matches_oracles(self, E, queries):
        table = CumulantTable(E)
        for args in queries:
            assert table.free_cumulant(args) == free_cumulant_direct(E, args), args
            n = len(args)
            assert table.word_cumulant(peak_word(n), args) == boolean_cumulant(E, args), args

    def test_scale_grows_without_rereading_finished_blocks(self):
        E = RecordingFunctional(
            ("a", "b"),
            {("a", "b"): Fraction(1), ("a",): Fraction(2), ("b",): Fraction(1, 3)},
        )
        assert CumulantTable(E).free_cumulant(("a", "b")) == Fraction(1, 3)
        # E(b) has the only denominator above 1; the moments are read in
        # request order, the query's own first, and none twice
        assert E.requests == [("a", "b"), ("a",), ("b",)]

    @pytest.mark.parametrize("order", ["shortest_first", "longest_first"])
    def test_distinct_prime_denominators(self, order):
        self.assert_matches_oracles(*prime_denominator_case(order))

    def test_rule_based_inverse_factorial_moments(self):
        self.assert_matches_oracles(*inverse_factorial_case())

    def test_semicircular_family(self):
        self.assert_matches_oracles(*semicircular_case())

    @pytest.mark.parametrize("case", list(SCALE_GROWTH_CASES))
    def test_each_moment_is_read_once(self, case):
        E, queries = SCALE_GROWTH_CASES[case]()
        recorder = RecordingFunctional(E.variables, rule=E.expect)
        table = CumulantTable(recorder)
        # Peak words read some of the monomials that free cumulants (the
        # ascending words) read, under other shapes: still one read each.
        for args in queries:
            table.free_cumulant(args)
        for args in queries:
            table.word_cumulant(peak_word(len(args)), args)
        assert recorder.requests
        assert len(set(recorder.requests)) == len(recorder.requests)

    def test_concurrent_queries_on_one_table(self):
        # Each thread runs every query, from a different starting point,
        # so the scale grows under queries still running in other threads.
        E, queries = prime_denominator_case("longest_first")
        single = CumulantTable(E)
        expected = [table_queries(single, args) for args in queries]
        table = CumulantTable(E)
        workers = 6

        def run(start):
            order = list(range(start, len(queries))) + list(range(start))
            return {i: table_queries(table, queries[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run, w * len(queries) // workers) for w in range(workers)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [got[i] for i in range(len(queries))] == expected


def prime_denominator_values(count, shift=0):
    """``count`` rationals with distinct prime denominators, the first
    ``count`` primes from the ``shift``-th on, and small signed
    numerators, as in :func:`prime_denominator_case`."""
    primes = first_primes(count + shift)[shift:]
    return [Fraction((i * 5 + shift) % 11 - 5, p) for i, p in enumerate(primes)]


def assert_same_fractions(got, expected):
    assert got == expected
    assert all(type(x) is Fraction for x in got)


class TestIntegerClosedRecursions:
    # classical_cumulant and moments_from_free_cumulants run on integers
    # scaled by a power of the lcm of their inputs' denominators; the
    # Fraction recursions in oracles.py are the reference.
    @pytest.mark.parametrize("shift", [0, 12, 40])
    def test_classical_on_prime_denominators_to_order_12(self, shift):
        E = single_table(*prime_denominator_values(12, shift))
        got = [classical_cumulant(E, ("v",) * n) for n in range(1, 13)]
        expected = [fraction_classical_cumulant(E, ("v",) * n) for n in range(1, 13)]
        assert_same_fractions(got, expected)

    def test_classical_on_the_prime_denominator_tables(self):
        for order in ("shortest_first", "longest_first"):
            E, _ = prime_denominator_case(order)
            for v in "ab":
                for n in range(1, 6):
                    args = (v,) * n
                    assert_same_fractions(
                        [classical_cumulant(E, args)], [fraction_classical_cumulant(E, args)]
                    )

    @pytest.mark.parametrize(
        "moments",
        [[0] * 12, [1] * 12, [0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132], [-3, 7, 0, -1, 2]],
    )
    def test_classical_on_integer_moments(self, moments):
        E = single_table(*moments)
        n = len(moments)
        got = [classical_cumulant(E, ("v",) * j) for j in range(1, n + 1)]
        expected = [fraction_classical_cumulant(E, ("v",) * j) for j in range(1, n + 1)]
        assert_same_fractions(got, expected)

    @pytest.mark.parametrize("shift", [0, 12, 40])
    def test_moments_on_prime_denominators_to_order_12(self, shift):
        kappas = prime_denominator_values(12, shift)
        for n in range(13):
            assert_same_fractions(
                moments_from_free_cumulants(kappas[:n]),
                fraction_moments_from_free_cumulants(kappas[:n]),
            )

    @pytest.mark.parametrize(
        "kappas",
        [
            [0, 1] + [0] * 58,
            [0] * 12,
            [],
            [1] * 12,
            [-2, 0, 5, 0, -1],
            [Fraction(4), Fraction(-6, 2), 0],
            [Fraction(1, 2), 3, Fraction(-2, 9)],
        ],
    )
    def test_moments_on_integer_and_zero_inputs(self, kappas):
        assert_same_fractions(
            moments_from_free_cumulants(kappas), fraction_moments_from_free_cumulants(kappas)
        )

    def test_random_tables(self):
        rng = random.Random(115)
        for _ in range(20):
            E = single_var_table(rng, 10)
            args = [("v",) * n for n in range(1, 11)]
            assert_same_fractions(
                [classical_cumulant(E, a) for a in args],
                [fraction_classical_cumulant(E, a) for a in args],
            )
            kappas = [rand_fraction(rng) for _ in range(10)]
            assert_same_fractions(
                moments_from_free_cumulants(kappas), fraction_moments_from_free_cumulants(kappas)
            )


def gap_moments(seed, denominators):
    """All two-variable moments to order 6 but four, seeded values."""
    rng = random.Random(seed)
    table = {}
    for n in range(1, 7):
        for t in itertools.product("ab", repeat=n):
            table[t] = Fraction(rng.randint(-5, 5), rng.choice(denominators))
    for t in [("b", "a"), ("a", "b", "b"), ("b", "a", "a", "b"), ("a", "a", "b", "a", "b")]:
        del table[t]
    return table


def gap_table():
    return MomentFunctional(("a", "b"), gap_moments(2016, (1, 2, 3, 4, 5)))


def query(table, word, args):
    if word == "free":
        return table.free_cumulant(tuple(args))
    if word == "peak":
        return table.word_cumulant(peak_word(len(args)), tuple(args))
    return table.word_cumulant(parse_word(word), tuple(args))


class TestMissingMoments:
    # The first monomial a query finds missing depends on the order in
    # which the recursion visits terms and blocks.  Each expected value
    # was recorded from the route that filtered all Bell(k) surjections;
    # visiting the terms in reverse order changes most of them.  "free"
    # and "peak" stand for the ascending and the peak word of the
    # arguments' length.
    @pytest.mark.parametrize(
        "word, args, missing",
        [
            ("free", "abba", "abb"),
            ("free", "abbab", "abb"),
            ("free", "ababa", "ba"),
            ("free", "baaba", "baab"),
            ("free", "aababa", "aabab"),
            ("peak", "abbab", "abb"),
            ("peak", "baaba", "baab"),
            ("peak", "aabbab", "abb"),
            ("12324", "abba", "abb"),
        ],
    )
    def test_first_missing_monomial(self, word, args, missing):
        table = CumulantTable(gap_table())
        with pytest.raises(MissingMomentError) as info:
            query(table, word, args)
        assert info.value.monomial == tuple(missing)

    # Denominators 1, 2, 3, 5 and 7, so that the scale grows before the
    # first missing moment; expected values recorded from the Fraction
    # executor that these scaled integers replaced.
    @pytest.mark.parametrize(
        "word, args, missing",
        [
            ("free", "aababa", "aabab"),
            ("peak", "baabab", "baab"),
            ("free", "aabbab", "abb"),
            ("peak", "ababa", "ba"),
        ],
    )
    def test_first_missing_monomial_survives_a_restart(self, word, args, missing):
        moments = gap_moments(2017, (1, 2, 3, 5, 7))
        E = RecordingFunctional(("a", "b"), moments)
        with pytest.raises(MissingMomentError) as info:
            query(CumulantTable(E), word, args)
        assert info.value.monomial == tuple(missing)
        # no moment is read twice, and a moment read before the missing
        # one has a denominator above 1: the scale grew during the query
        assert len(set(E.requests)) == len(E.requests)
        assert E.requests[-1] == tuple(missing)
        assert lcm(*[moments[t].denominator for t in E.requests[:-1]]) > 1

    def test_cold_and_warm_reads_request_the_same_moments(self):
        # the queries above, on their two gap tables: a cold read cache
        # and a warm one request the same monomials in the same order
        cases = [
            ((2016, (1, 2, 3, 4, 5)), word, args)
            for word, args in [
                ("free", "abba"), ("free", "abbab"), ("free", "ababa"), ("free", "baaba"),
                ("free", "aababa"), ("peak", "abbab"), ("peak", "baaba"), ("peak", "aabbab"),
                ("12324", "abba"),
            ]
        ] + [
            ((2017, (1, 2, 3, 5, 7)), word, args)
            for word, args in [
                ("free", "aababa"), ("peak", "baabab"), ("free", "aabbab"), ("peak", "ababa"),
            ]
        ]

        def requests():
            seen = []
            for table, word, args in cases:
                E = RecordingFunctional(("a", "b"), gap_moments(*table))
                with pytest.raises(MissingMomentError) as info:
                    query(CumulantTable(E), word, args)
                assert E.requests[-1] == info.value.monomial
                seen.append(E.requests)
            return seen

        for cache in (_compiled, _groups):
            cache.cache_clear()
        cold = requests()
        assert requests() == cold
