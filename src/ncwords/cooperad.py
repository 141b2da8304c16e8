"""Cooperadic decomposition of reduced pangrammatic words.

A basis word ``w`` on an alphabet of size ``k`` decomposes along every
canonical surjection ``f`` from its alphabet: the term for ``f`` is

    outer  = the reduction of the letterwise image of ``w`` under ``f``
    inner  = for each block, the reduction of ``w`` restricted to it

The full decomposition runs over all canonical surjections of the
alphabet; the non-crossing variant keeps exactly the terms whose
unreduced image is a non-crossing word (equivalently, by a fact the test
suite verifies, whose reduced image is non-crossing) and is only defined
for non-crossing input words.

``check_coassociativity`` verifies, chain by chain, that decomposing in
two stages does not depend on the order of the stages.  Crossing words
generate a coideal: every term of their decomposition has a crossing
outer or a crossing inner word, which is what ``crossing_ideal_witness``
tests and what makes the non-crossing variant well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surjections import (
    CanonicalSurjection,
    compose,
    enumerate_canonical_surjections,
    restrict_map,
)
from .words import (
    Alphabet,
    Word,
    is_noncrossing,
    is_noncrossing_seq,
    is_pangrammatic,
    is_reduced,
    reduce_word,
    render_word,
    restrict,
)


class CrossingWordError(ValueError):
    """Raised when a non-crossing operation receives a crossing word."""


@dataclass(frozen=True, eq=True)
class DecompositionTerm:
    """One term of a decomposition: the surjection, the reduced image,
    and the reduced restriction to each block."""

    surjection: CanonicalSurjection
    outer: Word
    inner: tuple[Word, ...]


def _outer_alphabet(f: CanonicalSurjection) -> Alphabet:
    # Derived display names: block {2,3} becomes letter "b23".
    return Alphabet(tuple("b" + "".join(str(e) for e in block) for block in f.blocks()))


def apply_surjection(w: Word, f: CanonicalSurjection, target: Alphabet | None = None) -> Word:
    """Letterwise image of ``w`` under ``f`` (alphabet letter id ``i``
    corresponds to domain element ``i + 1``)."""
    if f.n != w.alphabet.size:
        raise ValueError(f"surjection domain [{f.n}] does not match alphabet size {w.alphabet.size}")
    tgt = target if target is not None else Alphabet.numeric(f.m)
    return Word(tgt, tuple(f.assignment[x] - 1 for x in w.seq))


def _image_seq(w: Word, f: CanonicalSurjection) -> tuple[int, ...]:
    return tuple(f.assignment[x] for x in w.seq)


def decompose_along(w: Word, f: CanonicalSurjection) -> DecompositionTerm:
    """The decomposition term of ``w`` along one canonical surjection."""
    if f.n != w.alphabet.size:
        raise ValueError(f"surjection domain [{f.n}] does not match alphabet size {w.alphabet.size}")
    outer = reduce_word(apply_surjection(w, f, _outer_alphabet(f)))
    inner = tuple(
        reduce_word(restrict(w, tuple(e - 1 for e in block))) for block in f.blocks()
    )
    return DecompositionTerm(f, outer, inner)


def _check_basis_word(w: Word) -> None:
    if not is_pangrammatic(w):
        raise ValueError(f"word {render_word(w)!r} does not use every alphabet letter")
    if not is_reduced(w):
        raise ValueError(f"word {render_word(w)!r} is not reduced")


def decompose(w: Word) -> list[DecompositionTerm]:
    """All decomposition terms of a reduced pangrammatic word, in the
    deterministic canonical surjection order."""
    _check_basis_word(w)
    fs = enumerate_canonical_surjections(w.alphabet.size)
    return [decompose_along(w, f) for f in fs]


def decompose_noncrossing(w: Word) -> list[DecompositionTerm]:
    """The non-crossing decomposition: terms whose unreduced image is a
    non-crossing word.  Only defined for non-crossing input."""
    _check_basis_word(w)
    if not is_noncrossing(w):
        raise CrossingWordError(f"word {render_word(w)!r} is crossing")
    out = []
    for f in enumerate_canonical_surjections(w.alphabet.size):
        if is_noncrossing_seq(_image_seq(w, f)):
            out.append(decompose_along(w, f))
    return out


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
    restriction of ``f``).  The two routes must produce the same outer
    word, the same middle factors, and the same inner factors.

    With ``noncrossing`` set, both routes additionally filter on
    non-crossing unreduced images, and the filters themselves must agree
    chain by chain; the input word must then be non-crossing.
    """
    _check_basis_word(w)
    if noncrossing and not is_noncrossing(w):
        raise CrossingWordError(f"word {render_word(w)!r} is crossing")
    k = w.alphabet.size
    for f in enumerate_canonical_surjections(k):
        fw = apply_surjection(w, f)
        rfw = reduce_word(fw)
        f_blocks = f.blocks()
        inners_f = [
            reduce_word(restrict(w, tuple(e - 1 for e in block))) for block in f_blocks
        ]
        for g in enumerate_canonical_surjections(f.m):
            h = compose(g, f)
            h_blocks = h.blocks()

            lhs_outer = reduce_word(apply_surjection(rfw, g))
            lhs_mids = [
                reduce_word(restrict(rfw, tuple(t - 1 for t in block)))
                for block in g.blocks()
            ]

            rhs_outer = reduce_word(apply_surjection(w, h))
            rhs_mids = []
            rhs_parts_noncrossing = True
            restricted_words = []
            for block in h_blocks:
                wa = reduce_word(restrict(w, tuple(e - 1 for e in block)))
                fu = restrict_map(f, block)
                fu_wa = apply_surjection(wa, fu)
                if noncrossing and not is_noncrossing(fu_wa):
                    rhs_parts_noncrossing = False
                rhs_mids.append(reduce_word(fu_wa))
                restricted_words.append((block, wa))
            rhs_inners = []
            for t in range(1, f.m + 1):
                u = g.assignment[t - 1]
                block_u, wa = restricted_words[u - 1]
                local = tuple(block_u.index(e) for e in f_blocks[t - 1])
                rhs_inners.append(reduce_word(restrict(wa, local)))

            if noncrossing:
                lhs_alive = is_noncrossing(fw) and is_noncrossing(apply_surjection(rfw, g))
                rhs_alive = (
                    is_noncrossing(apply_surjection(w, h)) and rhs_parts_noncrossing
                )
                if lhs_alive != rhs_alive:
                    return False
                if not lhs_alive:
                    continue
            if lhs_outer != rhs_outer:
                return False
            if lhs_mids != rhs_mids:
                return False
            if inners_f != rhs_inners:
                return False
    return True
