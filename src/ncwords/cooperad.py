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
shares each block's inner word among the terms of one call.  ``_term``
scans the word once; what it needs of ``f`` alone, each block's letters
and each letter's block and rank in it, comes from ``_layout``.  The
words built from its output are valid by construction, so they skip
re-validation; the public constructors keep every check.

``check_coassociativity`` verifies, chain by chain, that composing
``_term`` in two stages does not depend on the order of the stages.
Chains share most of their sub-terms, so one check computes each
distinct one once: a table of the word's terms along every surjection,
read by index, and bounded memos, all dropped on return.  Two process
caches hold only what does not depend on the word: ``_layout``, per
assignment, and ``_composites``, per alphabet size.
Crossing words generate a coideal: every term of their decomposition
has a crossing outer or a crossing inner word, which is what
``crossing_ideal_witness`` tests and what makes the non-crossing variant
well defined.  The basis-word check and its ``CrossingWordError`` live
in :mod:`ncwords.words`, since the word cumulants use them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .surjections import (
    CanonicalSurjection,
    _block_ids,
    _surjection,
    enumerate_canonical_surjections,
    nc_image_assignments,
)
from .words import (
    Alphabet,
    Word,
    _check_basis_word,
    _trusted,
    is_noncrossing,
    is_noncrossing_seq,
    is_pangrammatic,
    render_word,
    restrict,
)

Seq = tuple[int, ...]

# Entries per memo of one coassociativity check, and per process cache
# keyed by an assignment: more than the distinct sub-terms of any k=5
# word, and a bound on what a long word can hold.
_MEMO_SIZE = 4096


@dataclass(frozen=True, eq=True)
class DecompositionTerm:
    """One term of a decomposition: the surjection, the reduced image,
    and the reduced restriction to each block."""

    surjection: CanonicalSurjection
    outer: Word
    inner: tuple[Word, ...]


@lru_cache(maxsize=_MEMO_SIZE)
def _layout(f: Seq) -> tuple[tuple[Seq, ...], Seq, Seq]:
    """What a term along the canonical assignment ``f`` needs of ``f``
    alone: the letter ids of each block and, per letter, its 0-based
    block and its rank among the letters of that block."""
    ids = _block_ids(f)
    rank = [0] * len(f)
    for block in ids:
        for r, x in enumerate(block):
            rank[x] = r
    return ids, tuple([b - 1 for b in f]), tuple(rank)


def _term(seq: Seq, f: Seq) -> tuple[Seq, tuple[tuple[Seq, Seq], ...]]:
    """The term of ``seq`` along the canonical assignment ``f`` (letter
    ``x`` goes to block ``f[x]``, 1-based): the reduced image on block ids
    ``0, 1, ...``, and per block its letter ids and the reduced
    restriction of ``seq`` to them, relabelled by rank.  Every block must
    meet ``seq``.

    One scan of ``seq`` extends the image and each block's restriction,
    collapsing adjacent repeats as it goes; then each word drops a final
    letter equal to its first, which is the rest of the reduction."""
    ids, block, rank = _layout(f)
    outer = [block[seq[0]]]
    # Each inner word starts with -1, which no rank equals, so the test
    # for a repeat needs no test for an empty word; it goes at the end.
    inner: list[list[int]] = [[-1] for _ in ids]
    for x in seq:
        b = block[x]
        if outer[-1] != b:
            outer.append(b)
        word = inner[b]
        r = rank[x]
        if word[-1] != r:
            word.append(r)
    if len(outer) > 1 and outer[0] == outer[-1]:
        outer.pop()
    blocks = []
    for letters, word in zip(ids, inner):
        del word[0]
        if len(word) > 1 and word[0] == word[-1]:
            word.pop()
        blocks.append((letters, tuple(word)))
    return tuple(outer), tuple(blocks)


@lru_cache(maxsize=_MEMO_SIZE)
def _outer_alphabet(f: Seq) -> Alphabet:
    """The alphabet of outer words along ``f``, a letter per block named
    from its elements: block {2,3} becomes letter "b23"; from ten letters
    on, {1,2} becomes "b1_2", which {12} ("b12") cannot match."""
    sep = "" if len(f) < 10 else "_"
    names = tuple("b" + sep.join(str(x + 1) for x in ids) for ids in _layout(f)[0])
    return _trusted(Alphabet, names=names)


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
    """Wrap the term of ``w`` along ``f``, every block of which meets
    ``w``, in words.  They are valid by construction, so they are built
    without re-validation.  The inner word of a block depends only on
    the block's letters, so ``inner_words`` keeps one per block for the
    terms of one word."""
    outer, blocks = _term(w.seq, f.assignment)
    names = w.alphabet.names
    inner = []
    for ids, seq in blocks:
        iw = inner_words.get(ids)
        if iw is None:
            sub = _trusted(Alphabet, names=tuple([names[x] for x in ids]))
            iw = inner_words[ids] = _trusted(Word, alphabet=sub, seq=seq)
        inner.append(iw)
    outer_word = _trusted(Word, alphabet=_outer_alphabet(f.assignment), seq=outer)
    return DecompositionTerm(f, outer_word, tuple(inner))


def _iter_terms(w: Word, noncrossing: bool) -> Iterator[DecompositionTerm]:
    """The terms of :func:`decompose` or, with ``noncrossing`` set, of
    :func:`decompose_noncrossing`, one at a time.  The word is checked
    before the first term."""
    _check_basis_word(w, noncrossing)
    k = w.alphabet.size
    if noncrossing:
        fs = map(_surjection, nc_image_assignments(w.seq, k))
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


@lru_cache(maxsize=None)
def _composites(k: int) -> tuple[Seq, ...]:
    """For the ``i``-th canonical surjection ``f`` of ``[k]``, the index
    of ``g . f`` among them for each ``g`` on the blocks of ``f``, both
    in :func:`enumerate_canonical_surjections` order."""
    fs = enumerate_canonical_surjections(k)
    index = {f.assignment: i for i, f in enumerate(fs)}
    return tuple(
        tuple(
            index[tuple([g.assignment[t - 1] for t in f.assignment])]
            for g in enumerate_canonical_surjections(f.m)
        )
        for f in fs
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
    one), so the check computes each distinct term once.  Each ``g . f``
    is again one of the Bell(k) canonical surjections of the alphabet:
    the check tabulates the word's term along each of them and, with
    ``noncrossing`` set, whether its image is non-crossing, and a chain
    reads the entries of ``g . f`` at the index ``_composites`` gives.
    The outer-first terms and, per inner-first block, the relabelled
    restriction of ``f`` with its term and filter sit in memos of at
    most ``_MEMO_SIZE`` entries each, least recently used first out.
    The table and the memos belong to the call, so no result outlives
    it and memory stays bounded on long words.  The process caches hold
    nothing of the word: ``_layout`` keeps at most ``_MEMO_SIZE``
    assignments' block layouts, and ``_composites`` one small int per
    chain for each alphabet size checked (358 for k=5, 167894 for k=8).
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

    k = w.alphabet.size
    fs = [f.assignment for f in enumerate_canonical_surjections(k)]
    terms = [term(s, fa) for fa in fs]
    nc = [not noncrossing or is_noncrossing_seq([fa[x] for x in s]) for fa in fs]
    for fa, (outer_f, blocks_f), f_alive, composites in zip(fs, terms, nc, _composites(k)):
        inners_f = [inner for _, inner in blocks_f]
        m = len(blocks_f)
        for g, hi in zip(enumerate_canonical_surjections(m), composites):
            ga = g.assignment
            lhs_outer, lhs_blocks = term(outer_f, ga)
            # Inner-first: along g . f, then each block's word along f on it.
            rhs_outer, rhs_blocks = terms[hi]
            rhs_mids = []
            rhs_inners: list[Seq] = [()] * m
            parts_alive = True
            for ids, wa in rhs_blocks:
                ts, mid, inners, alive = part(wa, tuple(map(fa.__getitem__, ids)))
                parts_alive = parts_alive and alive
                rhs_mids.append(mid)
                for t, inner in zip(ts, inners):
                    rhs_inners[t - 1] = inner

            if noncrossing:
                lhs_alive = f_alive and is_noncrossing_seq([ga[x] for x in outer_f])
                rhs_alive = nc[hi] and parts_alive
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
