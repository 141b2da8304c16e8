"""Canonical surjections and non-crossing partitions."""

from math import comb

import pytest

from ncwords import (
    Alphabet,
    CanonicalSurjection,
    enumerate_canonical_surjections,
    enumerate_nc_basis,
    enumerate_nc_partitions,
    enumerate_word_basis,
    is_noncrossing_seq,
)
from ncwords.surjections import nc_image_assignments

from oracles import BELL, CATALAN, oracle_assignments, oracle_is_noncrossing_seq


class TestCanonicalSurjection:
    def test_valid_forms(self):
        f = CanonicalSurjection(3, 2, (1, 2, 2))
        assert f.blocks() == ((1,), (2, 3))
        assert str(f) == f.block_notation() == "{1}{2,3}"
        # equal and hashed by the field tuple; no other class compares equal
        assert f == CanonicalSurjection(n=3, m=2, assignment=[1, 2, 2])
        assert hash(f) == hash((3, 2, (1, 2, 2)))
        assert f != CanonicalSurjection(3, 2, (1, 1, 2))
        assert f.__eq__((3, 2, (1, 2, 2))) is NotImplemented
        assert CanonicalSurjection(2, 2, (1, 2)) != (1, 2)
        assert repr(CanonicalSurjection(2, 2, (1, 2))) == (
            "CanonicalSurjection(n=2, m=2, assignment=(1, 2))"
        )

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError, match="not in canonical min-preimage form"):
            CanonicalSurjection(3, 2, (2, 1, 2))
        with pytest.raises(ValueError, match="not in canonical min-preimage form"):
            CanonicalSurjection(3, 2, (1, 3, 2))
        with pytest.raises(ValueError, match=r"is not onto \[3\]"):
            CanonicalSurjection(3, 3, (1, 2, 2))
        with pytest.raises(ValueError, match="assignment length 2 does not match n=3"):
            CanonicalSurjection(3, 2, (1, 1))

    @pytest.mark.parametrize("assignment", [(1, 2.0), (1.0, 2), (True, 2), ("1", "2")])
    def test_assignment_values_must_be_ints(self, assignment):
        with pytest.raises(TypeError) as info:
            CanonicalSurjection(2, 2, assignment)
        assert str(info.value) == f"assignment values must be ints, got {assignment}"

    @pytest.mark.parametrize(
        "n, m, assignment",
        [(2.0, 2, (1, 2)), (2, 2.0, (1, 2)), (True, 1, (1,)), (1, True, (1,)), ("2", 2, (1, 2))],
    )
    def test_n_and_m_must_be_ints(self, n, m, assignment):
        with pytest.raises(TypeError) as info:
            CanonicalSurjection(n, m, assignment)
        assert str(info.value) == f"n and m must be ints, got n={n!r}, m={m!r}"


class TestEnumeration:
    def test_counts_are_bell_numbers(self):
        for n in range(1, 9):
            assert len(enumerate_canonical_surjections(n)) == BELL[n]

    @pytest.mark.parametrize(
        "enumerate_", [enumerate_canonical_surjections, enumerate_nc_partitions]
    )
    @pytest.mark.parametrize("n", [True, False, 2.0, "2", None])
    def test_size_must_be_int(self, enumerate_, n):
        # bool is refused too, also once the entry of 1 is cached
        assert len(enumerate_(1)) == 1
        with pytest.raises(TypeError) as info:
            enumerate_(n)
        assert str(info.value) == f"n must be an int, got {n!r}"

    @pytest.mark.parametrize(
        "enumerate_", [enumerate_canonical_surjections, enumerate_nc_partitions]
    )
    def test_size_must_be_positive(self, enumerate_):
        with pytest.raises(ValueError) as info:
            enumerate_(0)
        assert str(info.value) == "n must be >= 1"

    def test_order_and_contents_n3(self):
        fs = enumerate_canonical_surjections(3)
        assert [f.assignment for f in fs] == [
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (1, 2, 2),
            (1, 2, 3),
        ]

    def test_order_matches_filtered_tuples(self):
        # restricted growth strings filtered from all n**n tuples, sorted
        # by codomain size and then assignment
        for n in range(1, 8):
            fs = enumerate_canonical_surjections(n)
            assert tuple(f.assignment for f in fs) == oracle_assignments(n), n

    def test_n4_has_fifteen(self):
        assert len(enumerate_canonical_surjections(4)) == 15

    def test_all_distinct_and_canonical(self):
        for n in range(1, 7):
            fs = enumerate_canonical_surjections(n)
            assert len(set(fs)) == len(fs)
            # constructor re-validates canonicity
            for f in fs:
                CanonicalSurjection(f.n, f.m, f.assignment)

    def test_composite_is_canonical(self):
        # the coassociativity check builds g after f as a bare tuple and
        # relies on it being canonical
        for n in range(1, 6):
            for f in enumerate_canonical_surjections(n):
                for g in enumerate_canonical_surjections(f.m):
                    h = tuple(g.assignment[v - 1] for v in f.assignment)
                    assert CanonicalSurjection(n, g.m, h).assignment == h


class TestNonCrossingPartitions:
    def test_predicate_examples(self):
        assert not is_noncrossing_seq(CanonicalSurjection(4, 2, (1, 2, 1, 2)).assignment)
        assert is_noncrossing_seq(CanonicalSurjection(4, 2, (1, 2, 2, 1)).assignment)
        assert is_noncrossing_seq(CanonicalSurjection(5, 1, (1,) * 5).assignment)

    def test_counts_are_catalan_numbers(self):
        for n in range(1, 9):
            assert len(enumerate_nc_partitions(n)) == CATALAN[n]

    def test_small_contents(self):
        assert [p.assignment for p in enumerate_nc_partitions(2)] == [
            (1, 1),
            (1, 2),
        ]
        assert len(enumerate_nc_partitions(3)) == 5  # every partition of [3]
        four = [p.assignment for p in enumerate_nc_partitions(4)]
        assert len(four) == 14
        assert (1, 2, 1, 2) not in four

    def test_matches_oracle_filter(self):
        for n in range(1, 10):
            expected = [
                f
                for f in enumerate_canonical_surjections(n)
                if oracle_is_noncrossing_seq(f.assignment)
            ]
            assert list(enumerate_nc_partitions(n)) == expected

    def test_counts_to_twelve(self):
        for n in range(1, 13):
            assert len(enumerate_nc_partitions(n)) == comb(2 * n, n) // (n + 1)

    def test_size_accessors(self):
        p = next(p for p in enumerate_nc_partitions(4) if p.assignment == (1, 2, 2, 1))
        assert p.n == 4
        assert p.m == 2
        assert p.block_notation() == "{1,4}{2,3}"


def bell_filter(seq, k):
    """The canonical surjections of ``k`` letters whose image of ``seq``
    passes the quadratic non-crossing oracle, in the enumeration's order."""
    return [f for f in oracle_assignments(k) if oracle_is_noncrossing_seq([f[x] for x in seq])]


class TestPrunedSearch:
    def test_matches_bell_filter_on_nc_basis_words(self):
        # the search keeps exactly the surjections whose image of the
        # word passes the non-crossing test, in the enumeration's order
        for k in range(1, 6):
            fs = enumerate_canonical_surjections(k)
            for w in enumerate_nc_basis(Alphabet.numeric(k)):
                kept = [
                    f.assignment
                    for f in fs
                    if is_noncrossing_seq(tuple(f.assignment[x] for x in w.seq))
                ]
                assert nc_image_assignments(w.seq, k) == kept, w

    @pytest.mark.parametrize("k", range(1, 5))
    def test_matches_bell_filter_on_all_basis_words(self, k):
        # crossing words too, and words whose letters do not first occur
        # in id order, which the search renumbers and sorts
        words = enumerate_word_basis(Alphabet.numeric(k), 7)
        assert any(w.seq[0] != 0 for w in words) or k == 1
        for w in words:
            assert nc_image_assignments(w.seq, k) == bell_filter(w.seq, k), w

    def test_prunes_crossing_images_of_single_blocks(self):
        # merging letters 1 and 3 of 12321 makes the image 1 2 1 2 1 cross
        assert (1, 2, 1) not in nc_image_assignments((0, 1, 2, 1, 0), 3)
        assert nc_image_assignments((0, 1, 2, 1, 0), 3) == [
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 2),
            (1, 2, 3),
        ]

    def test_letters_out_of_id_order_are_renumbered(self):
        # letter 2 occurs first; merging letters 1 and 2 makes the image
        # of 2 0 1 0 cross.  In order of first occurrence the assignments
        # would read (2, 2, 1), (2, 3, 1), ...; the canonical form numbers
        # blocks by their smallest letter
        assert nc_image_assignments((2, 0, 1, 0), 3) == [
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (1, 2, 3),
        ]
        assert nc_image_assignments((1, 0), 2) == [(1, 1), (1, 2)]
        assert nc_image_assignments((3, 1, 0, 2, 0, 1), 4) == bell_filter((3, 1, 0, 2, 0, 1), 4)

    def test_every_letter_must_occur(self):
        with pytest.raises(ValueError):
            nc_image_assignments((0, 2, 0), 3)
