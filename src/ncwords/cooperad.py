"""Cooperadic decomposition of reduced pangrammatic words.

A basis word ``w`` on an alphabet of size ``k`` decomposes along every
canonical surjection ``f`` from its alphabet: the term for ``f`` is

    outer  = the reduction of the letterwise image of ``w`` under ``f``
    inner  = for each block, the reduction of ``w`` restricted to it

The full decomposition runs over all canonical surjections of the
alphabet; the non-crossing variant, found by the pruned search, keeps
exactly the terms whose unreduced image is a non-crossing word and is
only defined for non-crossing input words.  The private ``_term``
computes a term on int tuples; only ``decompose_along`` builds words.

``check_coassociativity`` verifies, chain by chain, that composing
``_term`` in two stages does not depend on the order of the stages.
Crossing words generate a coideal: every term of their decomposition
has a crossing outer or a crossing inner word, which is what
``crossing_ideal_witness`` tests and what makes the non-crossing variant
well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .surjections import (
    CanonicalSurjection,
    enumerate_canonical_surjections,
    nc_image_assignments,
)
from .words import (
    Alphabet,
    Word,
    is_noncrossing,
    is_noncrossing_seq,
    is_pangrammatic,
    is_reduced,
    reduce_seq,
    render_word,
    restrict,
    restrict_seq,
)

Seq = tuple[int, ...]


class CrossingWordError(ValueError):
    """Raised when a non-crossing operation receives a crossing word."""


@dataclass(frozen=True, eq=True)
class DecompositionTerm:
    """One term of a decomposition: the surjection, the reduced image,
    and the reduced restriction to each block."""

    surjection: CanonicalSurjection
    outer: Word
    inner: tuple[Word, ...]


def _term(seq: Sequence[int], f: Sequence[int]) -> tuple[Seq, tuple[tuple[Seq, Seq], ...]]:
    """The term of ``seq`` along the canonical assignment ``f`` (letter
    ``x`` goes to block ``f[x]``, 1-based): the reduced image on block ids
    ``0, 1, ...``, and per block its letter ids and the reduced
    restriction of ``seq`` to them.  Every block must meet ``seq``."""
    blocks: list[list[int]] = [[] for _ in range(max(f))]
    for x, b in enumerate(f):
        blocks[b - 1].append(x)
    outer = reduce_seq([f[x] - 1 for x in seq])
    return outer, tuple((ids, reduce_seq(restrict_seq(seq, ids))) for ids in map(tuple, blocks))


def decompose_along(w: Word, f: CanonicalSurjection) -> DecompositionTerm:
    """The decomposition term of ``w`` along one canonical surjection."""
    if f.n != w.alphabet.size:
        raise ValueError(f"surjection domain [{f.n}] does not match alphabet size {w.alphabet.size}")
    if not is_pangrammatic(w):
        # A block the word misses has no inner word; restrict raises.
        for block in f.blocks():
            restrict(w, [e - 1 for e in block])
    outer, blocks = _term(w.seq, f.assignment)
    # Derived display names: block {2,3} becomes letter "b23".
    names = tuple("b" + "".join(str(x + 1) for x in ids) for ids, _ in blocks)
    return DecompositionTerm(
        f,
        Word(Alphabet(names), outer),
        tuple(Word(w.alphabet.subset(ids), inner) for ids, inner in blocks),
    )


def _check_basis_word(w: Word) -> None:
    if not is_pangrammatic(w):
        raise ValueError(f"word {render_word(w)!r} does not use every alphabet letter")
    if not is_reduced(w):
        raise ValueError(f"word {render_word(w)!r} is not reduced")


def decompose(w: Word) -> list[DecompositionTerm]:
    """All decomposition terms of a reduced pangrammatic word, in the
    deterministic canonical surjection order."""
    _check_basis_word(w)
    return [decompose_along(w, f) for f in enumerate_canonical_surjections(w.alphabet.size)]


def decompose_noncrossing(w: Word) -> list[DecompositionTerm]:
    """The non-crossing decomposition: terms whose unreduced image is a
    non-crossing word, in the order of :func:`decompose`.  Only defined
    for non-crossing input."""
    _check_basis_word(w)
    if not is_noncrossing(w):
        raise CrossingWordError(f"word {render_word(w)!r} is crossing")
    k = w.alphabet.size
    return [
        decompose_along(w, CanonicalSurjection(k, max(a), a))
        for a in nc_image_assignments(w.seq, k)
    ]


def crossing_ideal_witness(term: DecompositionTerm) -> bool:
    """Whether the term has a crossing outer word or some crossing inner
    word.  Every term of every decomposition of a crossing word must."""
    if not is_noncrossing(term.outer):
        return True
    return any(not is_noncrossing(iw) for iw in term.inner)


def format_term(term: DecompositionTerm, prefer_chars: bool = True) -> str:
    """Render a term as ``f={1,3}{2} | outer=... | inner=[...; ...]``."""
    inner = "; ".join(render_word(iw, prefer_chars) for iw in term.inner)
    return (
        f"f={term.surjection.block_notation()}"
        f" | outer={render_word(term.outer, prefer_chars)}"
        f" | inner=[{inner}]"
    )


def check_coassociativity(w: Word, noncrossing: bool = False) -> bool:
    """Verify two-stage decomposition agreement for every chain of
    canonical surjections out of the word's alphabet.

    For each ``f`` on the alphabet and each ``g`` on the blocks of ``f``,
    the chain is decomposed either outer-first (decompose along ``f``,
    then decompose the outer word along ``g``) or inner-first (decompose
    along ``g . f``, then decompose each restricted word along the
    restriction of ``f`` to its block).  The two routes must produce the
    same outer word, the same middle factors, and the same inner factors.

    With ``noncrossing`` set, both routes additionally filter on
    non-crossing unreduced images, and the filters themselves must agree
    chain by chain; the input word must then be non-crossing.
    """
    _check_basis_word(w)
    if noncrossing and not is_noncrossing(w):
        raise CrossingWordError(f"word {render_word(w)!r} is crossing")
    s = w.seq
    for f in enumerate_canonical_surjections(w.alphabet.size):
        fa = f.assignment
        outer_f, blocks_f = _term(s, fa)
        inners_f = [inner for _, inner in blocks_f]
        f_alive = not noncrossing or is_noncrossing_seq([fa[x] for x in s])
        for g in enumerate_canonical_surjections(f.m):
            ga = g.assignment
            lhs_outer, lhs_blocks = _term(outer_f, ga)
            # Inner-first: along g . f, then each block's word along f on it.
            h = tuple(ga[t - 1] for t in fa)
            rhs_outer, rhs_blocks = _term(s, h)
            rhs_mids = []
            rhs_inners: list[Seq] = [()] * f.m
            parts_alive = True
            for ids, wa in rhs_blocks:
                # f on the block, its values relabelled 1, 2, ... in order
                ts = sorted({fa[x] for x in ids})
                rank = {t: r for r, t in enumerate(ts, start=1)}
                fu = [rank[fa[x]] for x in ids]
                if noncrossing and not is_noncrossing_seq([fu[x] for x in wa]):
                    parts_alive = False
                mid, sub_blocks = _term(wa, fu)
                rhs_mids.append(mid)
                for t, (_, inner) in zip(ts, sub_blocks):
                    rhs_inners[t - 1] = inner

            if noncrossing:
                lhs_alive = f_alive and is_noncrossing_seq([ga[x] for x in outer_f])
                rhs_alive = is_noncrossing_seq([h[x] for x in s]) and parts_alive
                if lhs_alive != rhs_alive:
                    return False
                if not lhs_alive:
                    continue
            if lhs_outer != rhs_outer:
                return False
            if [mid for _, mid in lhs_blocks] != rhs_mids:
                return False
            if inners_f != rhs_inners:
                return False
    return True
