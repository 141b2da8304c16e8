"""Decomposition terms, the two decomposition maps, and their laws.

The headline example (the four-letter word on three letters) is frozen
term by term; both decompositions equal a brute-force oracle term by
term on small bases, and so do the term kernel and the check's chain
tables, piece by piece; every term, built without re-validation,
passes the public constructors; the structural laws (coassociativity, the crossing
ideal, counit shape, equivariance under relabelling) are checked over
small enumerated bases.  The filter-agreement test records that selecting
terms by crossing of the unreduced image never differs from selecting
by the reduced image.  The check's verdict equals that of a
chain-by-chain oracle under the real kernel and two faulty ones.  The
memo tests corrupt or count the term kernel to show that the
coassociativity check's per-call sharing neither hides a fault nor
outlives the call, and give each comparison of the check a fault that
no other comparison sees.
"""

import itertools
import random

import pytest

from ncwords import (
    Alphabet,
    CanonicalSurjection,
    CrossingWordError,
    DecompositionTerm,
    EmptyRestrictionError,
    Word,
    apply_map,
    check_coassociativity,
    crossing_ideal_witness,
    decompose,
    decompose_along,
    decompose_noncrossing,
    enumerate_canonical_surjections,
    enumerate_nc_basis,
    enumerate_word_basis,
    format_term,
    is_noncrossing,
    parse_word,
    random_basis_word,
    reduce_word,
)
from ncwords import cooperad
from ncwords.words import restrict_seq

from oracles import BELL, oracle_check_coassociativity, oracle_decomposition

FOUR_LETTER = "a1,a2,a1,a3"


class TestDecomposeAlong:
    def test_constant_keeps_word_whole(self):
        w = parse_word(FOUR_LETTER)
        term = decompose_along(w, CanonicalSurjection(3, 1, (1, 1, 1)))
        assert len(term.outer) == 1
        assert term.outer.alphabet.size == 1
        assert term.inner == (w,)

    def test_merging_two_letters(self):
        w = parse_word(FOUR_LETTER)
        term = decompose_along(w, CanonicalSurjection(3, 2, (1, 2, 2)))
        assert term.outer.seq == (0, 1, 0, 1)
        assert term.outer.alphabet.names == ("b1", "b23")
        assert [iw.seq for iw in term.inner] == [(0,), (0, 1)]

    def test_identity_splits_into_letters(self):
        term = decompose_along(parse_word("ab"), CanonicalSurjection(2, 2, (1, 2)))
        assert term.outer.seq == (0, 1)
        assert term.outer.alphabet.names == ("b1", "b2")
        assert [str(iw) for iw in term.inner] == ["a", "b"]
        # equal and hashed by the field tuple; no other class compares equal
        fields = (term.surjection, term.outer, term.inner)
        assert term == DecompositionTerm(*fields) and hash(term) == hash(fields)
        assert term != DecompositionTerm(term.surjection, term.outer, term.inner[:1])
        assert term.__eq__(fields) is NotImplemented
        assert repr(term) == (
            "DecompositionTerm(surjection=CanonicalSurjection(n=2, m=2, assignment=(1, 2)),"
            " outer=Word('b1,b2', k=2), inner=(Word('a', k=1), Word('b', k=1)))"
        )

    def test_block_missed_by_the_word(self):
        # only a block with no letter of the word is an error
        w = Word(Alphabet.numeric(2), (0,))
        assert decompose_along(w, CanonicalSurjection(2, 1, (1, 1))).inner == (w,)
        with pytest.raises(EmptyRestrictionError, match=r"letter ids \[1\]"):
            decompose_along(w, CanonicalSurjection(2, 2, (1, 2)))

    def test_domain_must_match_the_alphabet(self):
        with pytest.raises(ValueError) as info:
            decompose_along(parse_word("ab"), CanonicalSurjection(3, 1, (1, 1, 1)))
        assert str(info.value) == "surjection domain [3] does not match alphabet size 2"

    def test_block_names_stay_distinct_from_ten_letters_on(self):
        # {1,2} and {12} both read "b12" without a separator
        w = Word(Alphabet.numeric(12), tuple(range(12)))
        # blocks {1,2}, {3}, ..., {11}, {12}
        f = CanonicalSurjection(12, 11, (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11))
        names = decompose_along(w, f).outer.alphabet.names
        assert names[0] == "b1_2" and names[-1] == "b12"
        assert len(set(names)) == len(names)


class TestDecompose:
    def test_singleton(self):
        terms = decompose(parse_word("a"))
        assert len(terms) == 1
        assert terms[0].inner == (parse_word("a"),)

    def test_two_letters(self):
        terms = decompose(parse_word("ab"))
        assert [t.surjection.assignment for t in terms] == [(1, 1), (1, 2)]
        assert [str(t.outer) for t in terms] == ["b12", "b1,b2"]

    def test_four_letter_word_all_five_terms(self):
        lines = [format_term(t, prefer_chars=False) for t in decompose(parse_word(FOUR_LETTER))]
        assert lines == [
            "f={1,2,3} | outer=b123 | inner=[a1,a2,a1,a3]",
            "f={1,2}{3} | outer=b12,b3 | inner=[a1,a2; a3]",
            "f={1,3}{2} | outer=b13,b2 | inner=[a1,a3; a2]",
            "f={1}{2,3} | outer=b1,b23,b1,b23 | inner=[a1; a2,a3]",
            "f={1}{2}{3} | outer=b1,b2,b1,b3 | inner=[a1; a2; a3]",
        ]

    def test_term_count_is_bell_number(self):
        for k in range(1, 4):
            for w in enumerate_word_basis(Alphabet.numeric(k), 5):
                assert len(decompose(w)) == BELL[k]

    def test_rejects_non_basis_words(self):
        with pytest.raises(ValueError):
            decompose(parse_word("aa"))
        with pytest.raises(ValueError):
            decompose(parse_word("aba"))
        with pytest.raises(ValueError):
            decompose(Word(Alphabet.numeric(2), (0,)))

    def test_terms_are_reduced_and_pangrammatic(self):
        from ncwords import is_pangrammatic, is_reduced

        for w in enumerate_word_basis(Alphabet.numeric(3), 6):
            for term in decompose(w):
                assert is_reduced(term.outer) and is_pangrammatic(term.outer)
                for iw in term.inner:
                    assert is_reduced(iw) and is_pangrammatic(iw)


class TestDecomposeNoncrossing:
    def test_four_letter_word_drops_crossing_image(self):
        terms = decompose_noncrossing(parse_word(FOUR_LETTER))
        assert [t.surjection.assignment for t in terms] == [
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (1, 2, 3),
        ]

    def test_singleton(self):
        assert len(decompose_noncrossing(parse_word("a"))) == 1

    def test_rejects_crossing_input(self):
        with pytest.raises(CrossingWordError):
            decompose_noncrossing(parse_word("abab"))

    def test_surviving_terms_are_noncrossing(self):
        for k in range(1, 4):
            for w in enumerate_nc_basis(Alphabet.numeric(k)):
                for term in decompose_noncrossing(w):
                    assert is_noncrossing(term.outer)
                    assert all(is_noncrossing(iw) for iw in term.inner)

    def test_image_filter_agrees_with_reduced_image_filter(self):
        # dropping terms by the unreduced image f(w) picks exactly the
        # same terms as dropping by the reduced image, on every word
        for k in range(1, 4):
            for w in enumerate_word_basis(Alphabet.numeric(k), 6):
                for f in [t.surjection for t in decompose(w)]:
                    image = apply_map(w, lambda x: f.assignment[x] - 1, Alphabet.numeric(f.m))
                    assert is_noncrossing(image) == is_noncrossing(reduce_word(image))


def term_rows(terms):
    return [(t.surjection.assignment, t.outer.seq, tuple(iw.seq for iw in t.inner)) for t in terms]


class TestOracle:
    def test_decompose_matches_oracle(self):
        for k in range(1, 5):
            for w in enumerate_word_basis(Alphabet.numeric(k), 6):
                assert term_rows(decompose(w)) == oracle_decomposition(w.seq, k), str(w)

    def test_decompose_noncrossing_matches_oracle(self):
        for k in range(1, 6):
            for w in enumerate_nc_basis(Alphabet.numeric(k)):
                expected = oracle_decomposition(w.seq, k, noncrossing=True)
                assert term_rows(decompose_noncrossing(w)) == expected, str(w)


class TestKernel:
    """The one-pass term kernel and the composite table of the check,
    against routes that build each piece naively."""

    def test_term_matches_oracle(self):
        for k in range(1, 5):
            for w in enumerate_word_basis(Alphabet.numeric(k), 7):
                for f, outer, inners in oracle_decomposition(w.seq, k):
                    ids = tuple(tuple(x for x in range(k) if f[x] == b) for b in range(1, max(f) + 1))
                    assert cooperad._term(w.seq, f) == (outer, tuple(zip(ids, inners))), (w, f)

    @pytest.mark.parametrize("k, chains", [(1, 1), (2, 3), (3, 12), (4, 60), (5, 358), (6, 2471)])
    def test_composites_index_g_after_f(self, k, chains):
        # the row lengths sum to the chain count, OEIS A000258
        fs = enumerate_canonical_surjections(k)
        rows = [composites for _, composites, _, _ in cooperad._chains(k)]
        assert len(rows) == len(fs)
        for f, row in zip(fs, rows):
            gs = enumerate_canonical_surjections(f.m)
            assert len(row) == len(gs)
            for g, hi in zip(gs, row):
                h = [g.assignment[f.assignment[x] - 1] for x in range(k)]
                assert hi == fs.index(CanonicalSurjection(k, g.m, h))
        assert sum(map(len, rows)) == chains

    @pytest.mark.parametrize("k", range(1, 7))
    def test_chain_tables_match_naive_construction(self, k):
        # per f, each nonempty set S of its blocks: f on the letters of
        # those blocks relabelled 1, 2, ... and the 0-based labels of S;
        # per g on [m], in one table for every f onto [m], its
        # assignment and the bit set of each block
        fs = enumerate_canonical_surjections(k)
        rows = cooperad._chains(k)
        assert [fa for fa, _, _, _ in rows] == [f.assignment for f in fs]
        for f, (_, _, parts, _) in zip(fs, rows):
            assert len(parts) == 2**f.m
            for S in range(1, 2**f.m):
                labels = tuple(t for t in range(f.m) if S & 2**t)
                letters = [x for x in range(k) if f.assignment[x] - 1 in labels]
                fu = tuple(labels.index(f.assignment[x] - 1) + 1 for x in letters)
                assert parts[S] == (fu, labels), (f, S)
        for m in range(1, k + 1):
            tables = [row[3] for f, row in zip(fs, rows) if f.m == m]
            assert all(table is tables[0] for table in tables)
            assert tables[0] == tuple(
                (g.assignment, tuple(sum(2 ** (e - 1) for e in block) for block in g.blocks()))
                for g in enumerate_canonical_surjections(m)
            )

    def test_terms_rebuild_through_public_constructors(self):
        # Terms are built without re-validation; every distinct surjection,
        # word and alphabet in them must pass the public constructors and
        # come back equal, names included.  The words: every basis word
        # with k<=4 and length<=7, every non-crossing one with k<=5.
        basis = [w for k in range(1, 5) for w in enumerate_word_basis(Alphabet.numeric(k), 7)]
        basis += [w for k in range(1, 6) for w in enumerate_nc_basis(Alphabet.numeric(k))]
        surjections, words = set(), set()
        for w in basis:
            terms = decompose(w)
            if is_noncrossing(w):
                terms += decompose_noncrossing(w)
            for t in terms:
                f = t.surjection
                surjections.add((f.n, f.m, f.assignment))
                words.update((iw.alphabet.names, iw.seq) for iw in (t.outer, *t.inner))
        for n, m, assignment in surjections:
            f = CanonicalSurjection(n, m, assignment)
            assert (f.n, f.m, f.assignment) == (n, m, assignment)
        for names, seq in words:
            rebuilt = Word(Alphabet(names), seq)
            assert (rebuilt.alphabet.names, rebuilt.seq) == (names, seq)


class TestCounit:
    def test_counit_shape_of_decompositions(self):
        # the constant term reproduces the word as its single inner
        # factor; the identity term reproduces it as the outer factor
        # with single-letter inners
        words = list(enumerate_word_basis(Alphabet.numeric(3), 5))
        words += enumerate_nc_basis(Alphabet.numeric(4))
        for w in words:
            terms = decompose(w)
            constant = [t for t in terms if t.surjection.m == 1]
            identity = [t for t in terms if t.surjection.m == t.surjection.n]
            assert len(constant) == 1 and len(identity) == 1
            assert constant[0].inner == (w,)
            assert constant[0].outer.alphabet.size == 1
            assert identity[0].outer.seq == w.seq
            assert all(iw.alphabet.size == 1 for iw in identity[0].inner)


class TestCrossingIdeal:
    def test_witness_examples(self):
        w = parse_word(FOUR_LETTER)
        crossing_term = decompose_along(w, CanonicalSurjection(3, 2, (1, 2, 2)))
        assert crossing_ideal_witness(crossing_term)
        clean_term = decompose_along(parse_word("ab"), CanonicalSurjection(2, 2, (1, 2)))
        assert not crossing_ideal_witness(clean_term)
        inner_crossing = decompose_along(parse_word("abab"), CanonicalSurjection(2, 1, (1, 1)))
        assert crossing_ideal_witness(inner_crossing)

    def test_every_term_of_a_crossing_word_witnesses(self):
        for k in range(2, 4):
            for w in enumerate_word_basis(Alphabet.numeric(k), 6):
                if is_noncrossing(w):
                    continue
                assert all(crossing_ideal_witness(t) for t in decompose(w)), str(w)


class TestFormatTerm:
    def test_single_char_rendering(self):
        term = decompose_along(parse_word("ab"), CanonicalSurjection(2, 1, (1, 1)))
        assert format_term(term) == "f={1,2} | outer=b12 | inner=[ab]"

    def test_comma_rendering(self):
        term = decompose_along(parse_word("ab"), CanonicalSurjection(2, 2, (1, 2)))
        assert format_term(term, prefer_chars=False) == "f={1}{2} | outer=b1,b2 | inner=[a; b]"


def transformed_decomposition(w, perm):
    """Decompose, then push every term through the letter permutation.

    ``perm[old_id] = new_id``.  Each surjection is relabelled back to
    canonical form, the outer word follows the block relabelling, and
    each inner word is re-indexed by its block's new increasing order.
    """
    k = w.alphabet.size
    inv = [0] * k
    for old, new in enumerate(perm):
        inv[new] = old
    out = []
    for term in decompose(w):
        f = term.surjection
        raw = [f.assignment[inv[i]] for i in range(k)]
        relabel = {v: i for i, v in enumerate(dict.fromkeys(raw), start=1)}
        f2 = CanonicalSurjection(k, len(relabel), tuple(relabel[v] for v in raw))
        outer_seq = tuple(relabel[v + 1] - 1 for v in term.outer.seq)
        inners = [None] * f2.m
        for t, old_block in enumerate(f.blocks(), start=1):
            new_block = sorted(perm[e - 1] + 1 for e in old_block)
            rank = {e: i for i, e in enumerate(new_block)}
            reindex = [rank[perm[e - 1] + 1] for e in old_block]
            iw = term.inner[t - 1]
            inners[relabel[t] - 1] = (len(old_block), tuple(reindex[x] for x in iw.seq))
        out.append((f2.assignment, outer_seq, tuple(inners)))
    return sorted(out)


class TestEquivariance:
    def test_decompose_commutes_with_relabelling(self):
        rng = random.Random(42)
        pool = [w for k in (2, 3) for w in enumerate_word_basis(Alphabet.numeric(k), 6)]
        for w in rng.sample(pool, 40):
            k = w.alphabet.size
            perm = list(range(k))
            rng.shuffle(perm)
            relabelled = apply_map(w, dict(enumerate(perm)), Alphabet.numeric(k))
            direct = sorted(
                (
                    t.surjection.assignment,
                    t.outer.seq,
                    tuple((iw.alphabet.size, iw.seq) for iw in t.inner),
                )
                for t in decompose(relabelled)
            )
            assert transformed_decomposition(w, tuple(perm)) == direct

    def test_exhaustive_at_size_three(self):
        w = parse_word(FOUR_LETTER)
        for perm in itertools.permutations(range(3)):
            relabelled = apply_map(w, dict(enumerate(perm)), Alphabet.numeric(3))
            direct = sorted(
                (
                    t.surjection.assignment,
                    t.outer.seq,
                    tuple((iw.alphabet.size, iw.seq) for iw in t.inner),
                )
                for t in decompose(relabelled)
            )
            assert transformed_decomposition(w, perm) == direct


class TestCoassociativity:
    def test_examples(self):
        assert check_coassociativity(parse_word("a"))
        assert check_coassociativity(parse_word("ab"))
        assert check_coassociativity(parse_word(FOUR_LETTER))
        assert check_coassociativity(parse_word("abab"))

    def test_noncrossing_examples(self):
        assert check_coassociativity(parse_word("abcb"), noncrossing=True)
        assert check_coassociativity(parse_word(FOUR_LETTER), noncrossing=True)

    def test_noncrossing_rejects_crossing_word(self):
        with pytest.raises(CrossingWordError):
            check_coassociativity(parse_word("abab"), noncrossing=True)

    def test_rejects_non_basis_words(self):
        with pytest.raises(ValueError):
            check_coassociativity(parse_word("aa"))


def unreduced_inners(real):
    def term(seq, f):
        outer, blocks = real(seq, f)
        return outer, tuple((ids, restrict_seq(seq, ids)) for ids, _ in blocks)

    return term


def swapped_inners(real):
    # the inner words of the first two blocks trade places when the
    # blocks have the same size, so every id stays in range
    def term(seq, f):
        outer, blocks = real(seq, f)
        if len(blocks) >= 2 and len(blocks[0][0]) == len(blocks[1][0]):
            (a, wa), (b, wb), *rest = blocks
            return outer, ((a, wb), (b, wa), *rest)
        return outer, blocks

    return term


def reordered_blocks(real):
    # a term's blocks listed last first, ids and words together
    def term(seq, f):
        outer, blocks = real(seq, f)
        return outer, blocks[::-1]

    return term


def reversed_outer(real):
    def term(seq, f):
        outer, blocks = real(seq, f)
        return outer[::-1], blocks

    return term


def acb_inner(real):
    # the term of abc along the constant surjection has the inner word
    # acb; its block ids and every other term stay right
    def term(seq, f):
        outer, blocks = real(seq, f)
        if (seq, f) == ((0, 1, 2), (1, 1, 1)):
            ((ids, _),) = blocks
            return outer, ((ids, (0, 2, 1)),)
        return outer, blocks

    return term


class TestCoassociativityOracle:
    def test_verdict_matches_chain_by_chain_oracle(self, monkeypatch):
        # every basis word with k<=4 and length<=6, which takes in every
        # non-crossing one with k<=4, and a seeded sample at k=5, under
        # the real kernel and two faulty ones
        words = [w for k in range(1, 5) for w in enumerate_word_basis(Alphabet.numeric(k), 6)]
        nc_basis = [w for k in range(1, 5) for w in enumerate_nc_basis(Alphabet.numeric(k))]
        assert set(nc_basis) <= set(words)
        rng = random.Random(5)
        words += [random_basis_word(rng, 5, 9, nc) for nc in (False, True) for _ in range(6)]
        real = cooperad._term
        for kernel in (real, unreduced_inners(real), swapped_inners(real)):
            monkeypatch.setattr(cooperad, "_term", kernel)
            verdicts = set()
            for w in words:
                for nc in (False, True) if is_noncrossing(w) else (False,):
                    verdict = check_coassociativity(w, nc)
                    expected = oracle_check_coassociativity(w.seq, w.alphabet.size, kernel, nc)
                    assert verdict == expected, (w, nc)
                    verdicts.add(verdict)
            assert verdicts == ({True} if kernel is real else {True, False})


class TestCoassociativityMemo:
    """``check_coassociativity`` computes each distinct kernel term once
    per call; these tests show that this neither hides a faulty kernel
    nor carries anything from one call to the next."""

    # Calls to ``_term`` made by one check of any k=5 word when every
    # chain computed its terms afresh.
    UNSHARED_CALLS_K5 = 1585

    @pytest.mark.parametrize("noncrossing", [False, True])
    @pytest.mark.parametrize("corrupt", [unreduced_inners, swapped_inners, reordered_blocks])
    def test_corrupted_kernel_fails_the_check(self, monkeypatch, corrupt, noncrossing):
        w = parse_word("abacdefe")
        assert check_coassociativity(w, noncrossing)
        monkeypatch.setattr(cooperad, "_term", corrupt(cooperad._term))
        assert not check_coassociativity(w, noncrossing)

    @pytest.mark.parametrize("noncrossing", [False, True])
    @pytest.mark.parametrize(
        "text, corrupt", [("ab", reordered_blocks), ("abc", reversed_outer), ("abc", acb_inner)]
    )
    def test_fault_seen_by_one_comparison_alone(self, monkeypatch, text, corrupt, noncrossing):
        # on these words only one comparison sees the faulty kernel: the
        # block-id check sees blocks listed last first, the outer words
        # show reversal, and the inner factors show acb
        monkeypatch.setattr(cooperad, "_term", corrupt(cooperad._term))
        assert not check_coassociativity(parse_word(text), noncrossing)

    def test_filter_disagreement_fails_the_check(self, monkeypatch):
        # only the filter-agreement comparison sees a non-crossing test
        # that calls the one-letter image [1] crossing: it drops chains
        # on one route and keeps them on the other
        real = cooperad.is_noncrossing_seq

        def flipped(seq):
            return real(seq) != (list(seq) == [1])

        monkeypatch.setattr(cooperad, "is_noncrossing_seq", flipped)
        assert not check_coassociativity(parse_word("ab"), noncrossing=True)

    @pytest.mark.parametrize("noncrossing", [False, True])
    def test_no_term_outlives_a_call(self, monkeypatch, noncrossing):
        real = cooperad._term
        calls = []

        def counting(seq, f):
            calls.append((seq, f))
            return real(seq, f)

        monkeypatch.setattr(cooperad, "_term", counting)
        w = parse_word("abcbdbeb")
        counts = []
        for _ in range(2):
            calls.clear()
            assert check_coassociativity(w, noncrossing)
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1] < self.UNSHARED_CALLS_K5
        assert len(set(calls)) == len(calls)

