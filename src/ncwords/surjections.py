"""Canonical surjections and non-crossing partitions.

A surjection ``[n] -> [m]`` is stored in canonical (min-preimage) form:
block ``i`` is the block whose smallest element is the ``i``-th smallest
among block minima.  Written as the value sequence ``f(1), ..., f(n)``
this is exactly a restricted growth string: every value is at most one
more than the maximum seen so far.  Canonical surjections are therefore
in bijection with set partitions of ``[n]``, and a partition is
non-crossing exactly when its value sequence is a non-crossing word.

Elements and block labels are 1-based here, matching the usual
combinatorial notation; words elsewhere use 0-based letter ids.  The
non-crossing scan that the position search runs is defined once, as
:func:`ncwords.words.is_noncrossing_seq`.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Callable, Iterable, Sequence, TypeVar

from .words import _check_ints, _check_size, _echo, _first_occurrence, _Frozen, _trusted

T = TypeVar("T")


class CanonicalSurjection(_Frozen):
    """A surjection ``[n] -> [m]`` in min-preimage canonical form; values are ints, not bools."""

    __slots__ = ("n", "m", "assignment")
    n: int
    m: int
    assignment: tuple[int, ...]

    def __init__(self, n: int, m: int, assignment: Iterable[int]) -> None:
        assignment = tuple(assignment)
        if type(n) is not int or type(m) is not int:
            raise TypeError(f"n and m must be ints, got n={_echo(n)}, m={_echo(m)}")
        _check_size(n, "n")
        if len(assignment) != n:
            raise ValueError(f"assignment length {len(assignment)} does not match n={n}")
        _check_ints(assignment, "assignment values")
        # Canonical iff its own relabelling from 1, and then onto [m] iff its max is m.
        if _first_occurrence(assignment, 1) != assignment:
            raise ValueError(f"assignment {_echo(assignment)} is not in canonical min-preimage form")
        if max(assignment) != m:
            raise ValueError(f"assignment {_echo(assignment)} is not onto [{m}]")
        self.__setstate__({"n": n, "m": m, "assignment": assignment})

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Preimages ``f^{-1}(1), ..., f^{-1}(m)`` as sorted tuples."""
        return tuple(tuple(x + 1 for x in ids) for ids in _block_ids(self.assignment))

    def block_notation(self) -> str:
        """Render as blocks ordered by minimum, e.g. ``{1,3}{2}``."""
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())

    def __str__(self) -> str:
        return self.block_notation()


def _surjection(a: tuple[int, ...]) -> CanonicalSurjection:
    """The surjection of an assignment that is canonical by construction,
    as every search here returns them, without re-validation."""
    return _trusted(CanonicalSurjection, n=len(a), m=max(a), assignment=a)


def _block_ids(f: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The 0-based elements of each block of the canonical assignment
    ``f``, block ``1`` first."""
    blocks: list[list[int]] = [[] for _ in range(max(f))]
    for x, b in enumerate(f):
        blocks[b - 1].append(x)
    return tuple(map(tuple, blocks))


def enumerate_canonical_surjections(n: int) -> tuple[CanonicalSurjection, ...]:
    """All canonical surjections from ``[n]``, sorted by codomain size and
    then lexicographically by assignment.  There are Bell(n) of them,
    cached per ``n``: decompositions ask for the same few sizes again.
    """
    _check_size(n, "n")
    return _canonical_surjections(n)


@functools.cache
def _canonical_surjections(n: int) -> tuple[CanonicalSurjection, ...]:
    # Restricted growth strings, bucketed by codomain size as in _nc_search.
    found: list[list[CanonicalSurjection]] = [[] for _ in range(n)]
    f = [0] * n

    def grow(j: int, m: int) -> None:
        if j == n:
            found[m - 1].append(_surjection(tuple(f)))
            return
        for v in range(1, m + 2):
            f[j] = v
            grow(j + 1, max(m, v))

    grow(0, 0)
    return tuple([s for bucket in found for s in bucket])


# The cache's counters, under the public name.
enumerate_canonical_surjections.cache_info = _canonical_surjections.cache_info


def _nc_search(seq: Sequence[int], k: int, leaf: Callable[[list[int], list[int], int], T]) -> list[T]:
    """``leaf(f, masks, mu)`` for each assignment ``f`` of the letters
    ``0..k-1`` of ``seq`` to blocks whose image of ``seq`` is
    non-crossing, by number of blocks and then lexicographically, the
    letters taken in order of first occurrence.  Every letter must occur.

    Blocks are numbered from 1 in order of first appearance in the image;
    ``masks[b - 1]`` is the bit set of the letters of block ``b``.  Both
    lists change as the search goes on, so ``leaf`` copies what it keeps.

    The search walks the positions of ``seq``, running the scan of
    :func:`~ncwords.words.is_noncrossing_seq` on the image as it grows,
    with blocks for its labels.  At its first occurrence a letter
    chooses its block: a new one, pushed on the stack, or one still
    open, which closes the blocks above.  Every step is a few operations
    on the stack's int instead of a rescan of the image.

    ``mu`` is the Moebius function of NC(len(seq)) from the partition of
    the positions by block to the one-block partition: the product of
    ``(-1)^(s-1) Catalan(s-1)`` over the Kreweras complement's blocks,
    whose sizes ``s`` are the blocks on the stack at the end and, at each
    recurrence of a block, the blocks on the stack from it up.
    """
    seq = tuple(seq)
    n = len(seq)
    f = [0] * k
    masks: list[int] = []
    found: list[list[T]] = [[] for _ in range(k)]
    signed = [0] + [(-1) ** (s - 1) * comb(2 * s - 2, s - 1) // s for s in range(1, k + 1)]

    def scan(p: int, stack: int, mu: int) -> None:
        # Later occurrences leave nothing to choose.
        while p < n:
            x = seq[p]
            b = f[x]
            if not b:
                break
            above = stack >> b
            if above != 1:
                if not above & 1:
                    return  # b is closed: the image crosses
                mu *= signed[above.bit_count()]
                stack &= (2 << b) - 1
            p += 1
        else:
            found[len(masks) - 1].append(leaf(f, masks, mu * signed[stack.bit_count()]))
            return
        bit = 1 << x
        rest = stack
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            f[x] = b
            masks[b - 1] |= bit
            scan(p + 1, stack & ((low << 1) - 1), mu * signed[(stack >> b).bit_count()])
            masks[b - 1] ^= bit
        b = len(masks) + 1
        f[x] = b
        masks.append(bit)
        scan(p + 1, stack | 1 << b, mu)
        masks.pop()
        f[x] = 0

    scan(0, 0, 1)
    return [item for items in found for item in items]


def nc_image_assignments(seq: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """The canonical surjections of the letters ``0..k-1`` of ``seq``
    whose image of ``seq`` is non-crossing, as assignment tuples.

    Entry ``i`` of an assignment is the 1-based block of letter ``i``.
    Results come in the order of :func:`enumerate_canonical_surjections`:
    codomain size, then assignment.  The position scan of ``_nc_search``
    finds them without visiting the others.  It numbers blocks in order
    of first occurrence, which is the canonical numbering when the
    letters first occur in id order, as in ``range(k)``; otherwise each
    result is renumbered by block minimum and the list is sorted.
    """
    order = list(dict.fromkeys(seq))
    if order == list(range(k)):
        return _nc_search(seq, k, lambda f, masks, mu: tuple(f))
    if sorted(order) != list(range(k)):
        raise ValueError(f"the letters of {tuple(seq)} are not 0..{k - 1}")
    found = _nc_search(seq, k, lambda f, masks, mu: _first_occurrence(f, 1))
    found.sort(key=lambda a: (max(a), a))
    return found


def enumerate_nc_partitions(n: int) -> tuple[CanonicalSurjection, ...]:
    """All non-crossing partitions of ``[n]``, as canonical surjections
    sorted like :func:`enumerate_canonical_surjections`.  There are
    Catalan(n) of them, found by the position scan of
    :func:`nc_image_assignments` without visiting the Bell(n) others.
    """
    _check_size(n, "n")
    return tuple(_surjection(a) for a in nc_image_assignments(range(n), n))

