"""Canonical surjections and non-crossing partitions.

A surjection ``[n] -> [m]`` is stored in canonical (min-preimage) form:
block ``i`` is the block whose smallest element is the ``i``-th smallest
among block minima.  Written as the value sequence ``f(1), ..., f(n)``
this is exactly a restricted growth string: every value is at most one
more than the maximum seen so far.  Canonical surjections are therefore
in bijection with set partitions of ``[n]``, and a partition is
non-crossing exactly when its value sequence is a non-crossing word.

Elements and block labels are 1-based here, matching the usual
combinatorial notation; words elsewhere use 0-based letter ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .words import is_noncrossing_seq


@dataclass(frozen=True, eq=True)
class CanonicalSurjection:
    """A surjection ``[n] -> [m]`` in min-preimage canonical form."""

    n: int
    m: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if self.n < 1 or len(self.assignment) != self.n:
            raise ValueError(f"assignment length {len(self.assignment)} does not match n={self.n}")
        seen = 0
        for v in self.assignment:
            if not 1 <= v <= seen + 1:
                raise ValueError(
                    f"assignment {self.assignment} is not in canonical min-preimage form"
                )
            seen = max(seen, v)
        if seen != self.m:
            raise ValueError(f"assignment {self.assignment} is not onto [{self.m}]")

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Preimages ``f^{-1}(1), ..., f^{-1}(m)`` as sorted tuples."""
        return tuple(tuple(x + 1 for x in ids) for ids in _block_ids(self.assignment))

    def block_notation(self) -> str:
        """Render as blocks ordered by minimum, e.g. ``{1,3}{2}``."""
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())

    def __str__(self) -> str:
        return self.block_notation()


def _block_ids(f: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The 0-based elements of each block of the canonical assignment
    ``f``, block ``1`` first."""
    blocks: list[list[int]] = [[] for _ in range(max(f))]
    for x, b in enumerate(f):
        blocks[b - 1].append(x)
    return tuple(map(tuple, blocks))


def _restricted_growth(k: int, keep: Callable[[list[int], int], bool]) -> list[tuple[int, ...]]:
    """The restricted growth strings of length ``k`` whose every prefix
    passes ``keep``, sorted by codomain size and then assignment.

    A depth-first search sets entry ``j`` of ``f`` to each value from
    ``1`` to one more than the prefix maximum and descends only when
    ``keep(f, j)`` holds for the prefix ``f[:j + 1]``.
    """
    out: list[tuple[int, ...]] = []
    f = [0] * k

    def grow(j: int, mx: int) -> None:
        if j == k:
            out.append(tuple(f))
            return
        for v in range(1, mx + 2):
            f[j] = v
            if keep(f, j):
                grow(j + 1, max(mx, v))

    grow(0, 0)
    out.sort(key=lambda a: (max(a), a))
    return out


# Cached: a coassociativity check asks for the same few sizes again and again.
@functools.cache
def enumerate_canonical_surjections(n: int) -> tuple[CanonicalSurjection, ...]:
    """All canonical surjections from ``[n]``, sorted by codomain size and
    then lexicographically by assignment.  There are Bell(n) of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(
        CanonicalSurjection(n, max(a), a) for a in _restricted_growth(n, lambda f, j: True)
    )


def nc_image_assignments(seq: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """The canonical surjections of the letters ``0..k-1`` of ``seq``
    whose image of ``seq`` is non-crossing, as assignment tuples.

    Entry ``i`` of an assignment is the 1-based block of letter ``i``.  The
    search drops a prefix as soon as the image of ``seq``, restricted to
    the letters assigned so far, crosses: that image is a subsequence of
    every completion's image, and a subsequence of a non-crossing
    sequence is non-crossing.  Results come in the order of
    :func:`enumerate_canonical_surjections`: codomain size, then
    assignment.
    """
    # upto[j]: the letters of seq that are at most j, in order.
    upto = [[x for x in seq if x <= j] for j in range(k)]
    return _restricted_growth(k, lambda f, j: is_noncrossing_seq([f[x] for x in upto[j]]))


def enumerate_nc_partitions(n: int) -> tuple[CanonicalSurjection, ...]:
    """All non-crossing partitions of ``[n]``, as canonical surjections
    sorted like :func:`enumerate_canonical_surjections`.  There are
    Catalan(n) of them, found by the pruned search without visiting the
    Bell(n) others.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(CanonicalSurjection(n, max(a), a) for a in nc_image_assignments(range(n), n))

