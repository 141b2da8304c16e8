"""Cooperadic decomposition of reduced pangrammatic words.

A basis word ``w`` on an alphabet of size ``k`` decomposes along every
canonical surjection ``f`` from its alphabet: the term for ``f`` is

    outer  = the reduction of the letterwise image of ``w`` under ``f``
    inner  = for each block, the reduction of ``w`` restricted to it

The full decomposition runs over all canonical surjections of the
alphabet; the non-crossing variant, found by the position-scan search,
keeps exactly the terms whose unreduced image is a non-crossing word and
is only defined for non-crossing input words.  The private ``_term``
computes a term on int tuples; ``_build_term`` wraps it in words for
``decompose_along`` and for ``_iter_terms``, the one term generator
behind the two decompositions and the ``decompose`` command, which
shares each block's inner word among the terms of one call.

``check_coassociativity`` verifies, chain by chain, that composing
``_term`` in two stages does not depend on the order of the stages.
Chains share most of their sub-terms, so one check computes each
distinct one once, in bounded memos that it drops on return.
Crossing words generate a coideal: every term of their decomposition
has a crossing outer or a crossing inner word, which is what
``crossing_ideal_witness`` tests and what makes the non-crossing variant
well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .surjections import (
    CanonicalSurjection,
    _block_ids,
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

# Entries per memo of one coassociativity check: more than the distinct
# sub-terms of any k=5 word, and a bound on what a long word can hold.
_MEMO_SIZE = 4096


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
    outer = reduce_seq([f[x] - 1 for x in seq])
    return outer, tuple((ids, reduce_seq(restrict_seq(seq, ids))) for ids in _block_ids(f))


def decompose_along(w: Word, f: CanonicalSurjection) -> DecompositionTerm:
    """The decomposition term of ``w`` along one canonical surjection."""
    if f.n != w.alphabet.size:
        raise ValueError(f"surjection domain [{f.n}] does not match alphabet size {w.alphabet.size}")
    if not is_pangrammatic(w):
        # A block the word misses has no inner word; restrict raises.
        for block in f.blocks():
            restrict(w, [e - 1 for e in block])
    return _build_term(w, f, {})


def _build_term(w: Word, f: CanonicalSurjection, inner_words: dict[Seq, Word]) -> DecompositionTerm:
    """Wrap the term of a pangrammatic ``w`` along ``f`` in words.  The
    inner word of a block depends only on the block's letters, so
    ``inner_words`` keeps one per block for the terms of one word."""
    outer, blocks = _term(w.seq, f.assignment)
    # Derived display names: block {2,3} becomes letter "b23"; from ten
    # letters on, {1,2} becomes "b1_2", which {12} ("b12") cannot match.
    sep = "" if f.n < 10 else "_"
    names = tuple("b" + sep.join(str(x + 1) for x in ids) for ids, _ in blocks)
    inner = []
    for ids, seq in blocks:
        iw = inner_words.get(ids)
        if iw is None:
            iw = inner_words[ids] = Word(w.alphabet.subset(ids), seq)
        inner.append(iw)
    return DecompositionTerm(f, Word(Alphabet(names), outer), tuple(inner))


def _check_basis_word(w: Word, noncrossing: bool = False) -> None:
    """Raise unless ``w`` is pangrammatic, reduced and, with
    ``noncrossing`` set, non-crossing (:class:`CrossingWordError`)."""
    if not is_pangrammatic(w):
        raise ValueError(f"word {render_word(w)!r} does not use every alphabet letter")
    if not is_reduced(w):
        raise ValueError(f"word {render_word(w)!r} is not reduced")
    if noncrossing and not is_noncrossing(w):
        raise CrossingWordError(f"word {render_word(w)!r} is crossing")


def _iter_terms(w: Word, noncrossing: bool) -> Iterator[DecompositionTerm]:
    """The terms of :func:`decompose` or, with ``noncrossing`` set, of
    :func:`decompose_noncrossing`, one at a time.  The word is checked
    before the first term."""
    _check_basis_word(w, noncrossing)
    k = w.alphabet.size
    if noncrossing:
        fs = (CanonicalSurjection(k, max(a), a) for a in nc_image_assignments(w.seq, k))
    else:
        fs = enumerate_canonical_surjections(k)
    inner_words: dict[Seq, Word] = {}
    for f in fs:
        yield _build_term(w, f, inner_words)


def decompose(w: Word) -> list[DecompositionTerm]:
    """All decomposition terms of a reduced pangrammatic word, in the
    deterministic canonical surjection order."""
    return list(_iter_terms(w, noncrossing=False))


def decompose_noncrossing(w: Word) -> list[DecompositionTerm]:
    """The non-crossing decomposition: terms whose unreduced image is a
    non-crossing word, in the order of :func:`decompose`.  Only defined
    for non-crossing input."""
    return list(_iter_terms(w, noncrossing=True))


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

    ``_term`` is a pure function of two int tuples, and many chains ask
    for the same term (every singleton block, for one, gives the same
    one), so the check computes each distinct term once: the outer-first
    terms, the inner-first terms along ``g . f`` and, per block, the
    relabelled restriction of ``f`` with its term and non-crossing
    filter.  The memos belong to the call and keep at most
    ``_MEMO_SIZE`` entries each, least recently used first out, so no
    result outlives the call and memory stays bounded on long words.
    """
    _check_basis_word(w, noncrossing)
    s = w.seq
    term = lru_cache(maxsize=_MEMO_SIZE)(_term)

    @lru_cache(maxsize=_MEMO_SIZE)
    def part(wa: Seq, fb: Seq) -> tuple[Seq, Seq, tuple[Seq, ...], bool]:
        # One inner-first block: its word ``wa`` along f on the block,
        # given as the block's values ``fb`` of f, relabelled 1, 2, ...
        # in order; also which f-blocks the inner words belong to.
        ts = tuple(sorted(set(fb)))
        rank = {t: r for r, t in enumerate(ts, start=1)}
        fu = tuple(rank[t] for t in fb)
        alive = not noncrossing or is_noncrossing_seq([fu[x] for x in wa])
        mid, sub_blocks = term(wa, fu)
        return ts, mid, tuple(inner for _, inner in sub_blocks), alive

    for f in enumerate_canonical_surjections(w.alphabet.size):
        fa = f.assignment
        outer_f, blocks_f = term(s, fa)
        inners_f = [inner for _, inner in blocks_f]
        f_alive = not noncrossing or is_noncrossing_seq([fa[x] for x in s])
        for g in enumerate_canonical_surjections(f.m):
            ga = g.assignment
            lhs_outer, lhs_blocks = term(outer_f, ga)
            # Inner-first: along g . f, then each block's word along f on it.
            h = tuple(ga[t - 1] for t in fa)
            rhs_outer, rhs_blocks = term(s, h)
            rhs_mids = []
            rhs_inners: list[Seq] = [()] * f.m
            parts_alive = True
            for ids, wa in rhs_blocks:
                ts, mid, inners, alive = part(wa, tuple(fa[x] for x in ids))
                parts_alive = parts_alive and alive
                rhs_mids.append(mid)
                for t, inner in zip(ts, inners):
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
