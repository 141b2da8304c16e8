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
scans the word once; what a term needs of ``f`` alone, down to the
outer word's alphabet, comes from ``_layout``, a process cache per
assignment.  The words built from its output are valid by construction,
so they skip re-validation; the public constructors keep every check.

``check_coassociativity`` verifies, chain by chain, that composing
``_term`` in two stages does not depend on the order of the stages.
What a chain needs of the surjections alone comes from ``_chains``, a
process table per alphabet size: for each ``f``, the index of each
``g . f``, ``f`` relabelled on each set of its blocks, and the blocks
of each ``g`` as bit sets.  What depends on the word, its term along
every surjection and memos of ``_MEMO_SIZE`` entries for the sub-terms
that chains share, is computed once per call and dropped on return.
Crossing words generate a coideal: every term of their decomposition
has a crossing outer or a crossing inner word, which is what
``crossing_ideal_witness`` tests and what makes the non-crossing variant
well defined.  The basis-word check and its ``CrossingWordError`` live
in :mod:`ncwords.words`, since the word cumulants use them too.

No cumulant or word command needs this module, so it is loaded on first
use: by the ``decompose`` and ``coassoc`` commands, and by the first
access to one of its names on the package.
"""

from __future__ import annotations

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
    _Frozen,
    _check_basis_word,
    _check_word,
    _trusted,
    is_noncrossing,
    is_noncrossing_seq,
    is_pangrammatic,
    render_word,
    restrict,
)

Seq = tuple[int, ...]
Pairs = tuple[tuple[Seq, Seq], ...]

# Entries per memo of one coassociativity check: more than the distinct
# sub-terms of any k=5 word, and a bound on what a long word can hold.
_MEMO_SIZE = 4096
# Entries in the layout cache: more than the 5295 canonical assignments
# on at most 8 letters, which a k=8 check or decomposition passes to it.
_LAYOUT_SIZE = 6144


class DecompositionTerm(_Frozen):
    """One term of a decomposition: the surjection, the reduced image,
    and the reduced restriction to each block."""

    __slots__ = ("surjection", "outer", "inner")
    surjection: CanonicalSurjection
    outer: Word
    inner: tuple[Word, ...]

    def __init__(
        self, surjection: CanonicalSurjection, outer: Word, inner: tuple[Word, ...]
    ) -> None:
        self.__setstate__({"surjection": surjection, "outer": outer, "inner": inner})


@lru_cache(maxsize=_LAYOUT_SIZE)
def _layout(f: Seq) -> tuple[tuple[Seq, ...], Seq, Seq, Alphabet]:
    """What a term along the canonical assignment ``f`` needs of ``f``
    alone: the letter ids of each block; per letter, its 0-based block
    and its rank among the letters of that block; and the alphabet of
    outer words, a letter per block named from its elements.  Block
    {2,3} becomes letter "b23"; from ten letters on, {1,2} becomes
    "b1_2", which {12} ("b12") cannot match."""
    ids = _block_ids(f)
    rank = [0] * len(f)
    for block in ids:
        for r, x in enumerate(block):
            rank[x] = r
    sep = "" if len(f) < 10 else "_"
    names = tuple(["b" + sep.join([str(x + 1) for x in block]) for block in ids])
    return ids, tuple([b - 1 for b in f]), tuple(rank), _trusted(Alphabet, names=names)


def _term(seq: Seq, f: Seq) -> tuple[Seq, Pairs]:
    """The term of ``seq`` along the canonical assignment ``f`` (letter
    ``x`` goes to block ``f[x]``, 1-based): the reduced image on block ids
    ``0, 1, ...``, and per block its letter ids and the reduced
    restriction of ``seq`` to them, relabelled by rank.  Every block must
    meet ``seq``.

    One scan of ``seq`` extends the image and each block's restriction,
    collapsing adjacent repeats as it goes; then each word drops a final
    letter equal to its first, which is the rest of the reduction."""
    ids, block, rank, _ = _layout(f)
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


def decompose_along(w: Word, f: CanonicalSurjection) -> DecompositionTerm:
    """The decomposition term of ``w`` along one canonical surjection."""
    _check_word(w, "decompose_along")
    if not isinstance(f, CanonicalSurjection):
        raise TypeError(f"decompose_along takes a CanonicalSurjection, got {type(f).__name__}")
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
    outer_word = _trusted(Word, alphabet=_layout(f.assignment)[3], seq=outer)
    return DecompositionTerm(f, outer_word, tuple(inner))


def _iter_terms(w: Word, noncrossing: bool) -> Iterator[DecompositionTerm]:
    """The terms of :func:`decompose` or, with ``noncrossing`` set, of
    :func:`decompose_noncrossing`, one at a time.  The word is checked
    before the first term."""
    _check_basis_word(w, "decompose_noncrossing" if noncrossing else "decompose", noncrossing)
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
    if not isinstance(term, DecompositionTerm):
        raise TypeError(
            f"crossing_ideal_witness takes a DecompositionTerm, got {type(term).__name__}"
        )
    if not is_noncrossing(term.outer):
        return True
    return any(not is_noncrossing(iw) for iw in term.inner)


def format_term(term: DecompositionTerm, prefer_chars: bool = True) -> str:
    """Render a term as ``f={1,3}{2} | outer=... | inner=[...; ...]``."""
    if not isinstance(term, DecompositionTerm):
        raise TypeError(f"format_term takes a DecompositionTerm, got {type(term).__name__}")
    inner = "; ".join(render_word(iw, prefer_chars) for iw in term.inner)
    return (
        f"f={term.surjection.block_notation()}"
        f" | outer={render_word(term.outer, prefer_chars)}"
        f" | inner=[{inner}]"
    )


@lru_cache(maxsize=None)
def _chains(k: int) -> tuple[tuple[Seq, Seq, Pairs, Pairs], ...]:
    """For each canonical surjection ``f`` of ``[k]``, in
    :func:`enumerate_canonical_surjections` order: its assignment; the
    index of ``g . f`` for each canonical ``g`` on the blocks of ``f``;
    indexed by the bit set ``S`` of a nonempty set of ``f``'s blocks,
    ``f`` on the letters of those blocks relabelled 1, 2, ..., with the
    0-based labels of ``S`` in order; and, in the order of the indices,
    each ``g``'s assignment and the bit set of each of its blocks, bit
    ``t`` for block ``t + 1`` of ``f``.  The last is one tuple per
    number of blocks, and other equal tuples are shared too, so the k=8
    table holds about 4 MB."""
    fs = [f.assignment for f in enumerate_canonical_surjections(k)]
    index = {fa: i for i, fa in enumerate(fs)}
    shared: dict = {}
    # Per number of blocks m: the g table of the rows and, per bit set S,
    # the labels of S and, for each 1-based block, its 1-based rank in S,
    # or 0 if not in S.
    per_m: dict = {}
    rows = []
    for fa in fs:
        m = max(fa)
        if m not in per_m:
            gas = [g.assignment for g in enumerate_canonical_surjections(m)]
            sets = [tuple([sum([1 << t for t in ids]) for ids in _block_ids(ga)]) for ga in gas]
            subsets = []
            for S in range(1 << m):
                labels = tuple([t for t in range(m) if S >> t & 1])
                rank = [0] * (m + 1)
                for r, t in enumerate(labels, start=1):
                    rank[t + 1] = r
                subsets.append((labels, rank))
            per_m[m] = tuple(zip(gas, sets)), subsets
        gs, subsets = per_m[m]
        composites = tuple([index[tuple([ga[t - 1] for t in fa])] for ga, _ in gs])
        parts: list[tuple[Seq, Seq]] = [((), ())]
        for labels, rank in subsets[1:]:
            fu = tuple([r for r in map(rank.__getitem__, fa) if r])
            part = (shared.setdefault(fu, fu), labels)
            parts.append(shared.setdefault(part, part))
        rows.append((fa, composites, tuple(parts), gs))
    return tuple(rows)


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
    chain by chain; the input word must then be non-crossing.  A chain
    that both filters drop is not decomposed further.

    Most of a chain does not depend on the word: a row of ``_chains(k)``
    gives, per ``f``, the index of each ``g . f`` among the Bell(k)
    surjections; per set ``S`` of ``f``'s blocks, ``f`` on the letters of
    ``S`` relabelled 1, 2, ... with the labels of ``S``; and each block
    of each ``g`` as such a set.  As the rows, not the kernel's block
    ids, fix each block's letters, the check first tests,
    once per call, that the kernel gives every term along ``f`` the
    block ids of ``_layout(f)``, and returns ``False`` if not.

    The word's terms along every ``f`` and their filters are computed
    once per call; the terms along ``g`` and along ``f`` on a block of
    ``g . f``, which many chains share, and the latter's filters sit in
    memos of at most ``_MEMO_SIZE`` entries, least recently used first
    out.  All of it is dropped on return, so nothing of the word
    outlives the call.  The rows hold one entry per ``f`` and set of its
    blocks (85778 for k=8), not one per chain (167894).
    """
    _check_basis_word(w, "check_coassociativity", noncrossing)
    s = w.seq
    term = lru_cache(maxsize=_MEMO_SIZE)(_term)

    @lru_cache(maxsize=_MEMO_SIZE)
    def alive(wa: Seq, fu: Seq) -> bool:
        return is_noncrossing_seq([fu[x] for x in wa])

    rows = _chains(w.alphabet.size)
    terms = [term(s, fa) for fa, _, _, _ in rows]
    for (fa, _, _, _), (_, blocks) in zip(rows, terms):
        if tuple([ids for ids, _ in blocks]) != _layout(fa)[0]:
            return False
    nc = [not noncrossing or is_noncrossing_seq([fa[x] for x in s]) for fa, _, _, _ in rows]
    for (_, composites, parts, gs), (outer_f, blocks_f), f_alive in zip(rows, terms, nc):
        inners_f = [inner for _, inner in blocks_f]
        for (ga, sets), hi in zip(gs, composites):
            # Inner-first: along g . f, then each block's word along f on it.
            rhs_outer, rhs_blocks = terms[hi]
            if noncrossing:
                lhs_alive = f_alive and is_noncrossing_seq([ga[x] for x in outer_f])
                rhs_alive = nc[hi] and all(
                    [alive(wa, parts[S][0]) for S, (_, wa) in zip(sets, rhs_blocks)]
                )
                if lhs_alive != rhs_alive:
                    return False
                if not lhs_alive:
                    continue
            lhs_outer, lhs_blocks = term(outer_f, ga)
            # The lengths are compared too: zip would hide a missing block.
            if lhs_outer != rhs_outer or len(lhs_blocks) != len(sets):
                return False
            for S, (_, wa), (_, lhs_mid) in zip(sets, rhs_blocks, lhs_blocks):
                fu, labels = parts[S]
                mid, sub_blocks = term(wa, fu)
                if mid != lhs_mid or len(sub_blocks) != len(labels):
                    return False
                for t, (_, inner) in zip(labels, sub_blocks):
                    if inner != inners_f[t]:
                        return False
    return True
