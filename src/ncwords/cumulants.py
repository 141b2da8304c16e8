"""Cumulants from words, and direct partition-sum counterparts.

The central operation is the word cumulant: for a reduced pangrammatic
non-crossing word ``w`` with one variable per letter, it is defined by
the triangular system

    E(v_1 v_2 ... v_k)
        = sum over canonical surjections f of the alphabet
              with a non-crossing unreduced image f(w)
          of the product over blocks B of
              word_cumulant(reduce(w restricted to B), assign on B)

where ``v_i`` is the variable assigned to the ``i``-th letter of ``w``
in order of first occurrence.

The constant surjection always survives the image filter and contributes
the cumulant of ``w`` itself, so the system solves by recursion on the
alphabet size, every block being strictly smaller.

The recursion runs in three steps.  Its combinatorics, which surjections
survive and which reduced sub-word and variables each block reads,
depend only on the word's shape: its id sequence relabelled in first
occurrence order.  ``_plan`` builds that once per shape, for the whole
process, in one pass of the position-scan search behind
:func:`~ncwords.surjections.nc_image_assignments`, which hands over each
block's letters as a bit set; the plan keeps one shared entry per block,
its sub-shape from ``restrict_seq`` and ``reduce_seq``.  ``_groups``
then merges, per shape and pattern of the variables (their
first-occurrence relabelling), the terms whose blocks read the same
multiset of sub-shapes and variables: they have the same product, so
one entry with an integer multiplicity stands for all of them.  For one
variable and the ascending word the groups are the block types of the
non-crossing partitions, counted by Kreweras's formula.  ``_reads``
makes a query's reads concrete, once per shape and variables for the
whole process: each read's memo key ``(sub-shape, variables)`` in read
order, beside the groups.  It keeps the ``_READS_SIZE`` (1024) most
recently used queries, since variable names come from the caller.
Beside it, ``_words`` checks and relabels each query word once per
process: by the word's ids and alphabet size it keeps the word's shape
and its letters' first-occurrence order for the first ``_WORDS_SIZE``
(8192) words; a word past them is checked on every query.

A :class:`CumulantTable` only executes groups, on integers: it keeps a
scale ``D`` that every moment's denominator read so far divides, and
memoizes ``D^k`` times each cumulant of ``k`` letters.  Block sizes add
up to ``k``, so ``D^k K = D^k E - sum of mult * prod D^|B| K(B)`` stays
integral, the integer-preserving idea of Bareiss (Math. Comp. 22, 1968)
applied to a triangular system.  A shape's reads are resolved once each
into a list of ints, which its groups multiply by index.  Each public
call builds one ``Fraction``.

Specializing the word recovers the classical families:

- the ascending word ``1, 2, ..., N`` gives free cumulants, and
- the peak word ``1, 2, ..., N, N-1, ..., 2`` gives Boolean cumulants.

``free_cumulant_direct`` solves the free moment-cumulant system by
direct enumeration of non-crossing partitions.  ``boolean_cumulant``,
``classical_cumulant`` and ``moments_from_free_cumulants`` use the
closed recursions on the block holding the first element.  The last
two run on integers scaled by a power of the lcm of their inputs'
denominators; ``boolean_cumulant`` and ``free_cumulant_direct`` stay on
``Fraction`` values, as the oracles of the peak-word and free routes.
None of them shares logic with the word recursion, which is what makes
the agreement tests meaningful.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Sequence

from .probability import MomentFunctional
from .surjections import _nc_search
from .words import Word, _check_basis_word, _check_word, _first_occurrence, reduce_seq, restrict_seq

Shape = tuple[int, ...]
# One plan term: per block, its reduced canonical sub-shape and the
# positions of the planned shape's variables that the sub-shape's
# letters read.
Block = tuple[Shape, tuple[int, ...]]
Term = tuple[Block, ...]
# Per group of equal-product terms: its multiplicity and its reads' numbers.
Groups = tuple[tuple[int, tuple[int, ...]], ...]
# A query, and the memo key of its value: a shape and its variables.
Key = tuple[Shape, tuple[str, ...]]


@functools.cache
def _plan(shape: Shape) -> tuple[Term, ...]:
    """The non-constant terms of the recursion for a first-occurrence
    canonical shape, in the order of
    :func:`~ncwords.surjections.enumerate_canonical_surjections`.  The
    order fixes which moments are requested first, hence which missing
    moment a table reports.

    Cached for the life of the process; ``_plan.cache_info()`` counts
    the shapes planned (misses) and the plans reused (hits).
    """
    k = max(shape) + 1
    # A block recurs across many terms; one shared entry per block, by
    # its bit set of letters, keeps plans small.
    by_block: dict[int, tuple[Shape, tuple[int, ...]]] = {}

    def term(f: list[int], masks: list[int]) -> Term:
        entries = []
        for mask in masks:
            entry = by_block.get(mask)
            if entry is None:
                # A canonical shape's letters first occur in increasing
                # order: the restriction is canonical, letter r is ids[r].
                ids = tuple([x for x in range(k) if mask >> x & 1])
                entry = by_block[mask] = (reduce_seq(restrict_seq(shape, ids)), ids)
            entries.append(entry)
        return tuple(entries)

    # The search numbers a canonical shape's blocks canonically and puts
    # the constant surjection first.
    return tuple(_nc_search(shape, k, term)[1:])


@functools.cache
def _groups(shape: Shape, pattern: Shape) -> tuple[Term, Groups]:
    """``_plan(shape)`` with equal-product terms merged, for variables
    whose first-occurrence relabelling is ``pattern``: terms whose
    blocks read the same multiset of sub-shapes and variables.

    Returns the distinct reads, as blocks ``(sub-shape, positions)`` in
    order of first appearance, and per group, in first-term order, its
    multiplicity and its reads' sorted numbers.  A term's reads all
    appear in its group's first term, so resolving the reads in number
    order requests moments in the plan's order.  Cached per process.
    """
    # Each read, (sub-shape, variables), maps to its number and block.
    reads: dict[Block, tuple[int, Block]] = {}
    read_of: dict[tuple[int, ...], int] = {}
    groups: dict[tuple[int, ...], list[int]] = {}
    for term in _plan(shape):
        ids = []
        for sub, at in term:
            r = read_of.get(at)
            if r is None:
                read = (sub, tuple([pattern[i] for i in at]))
                r = read_of[at] = reads.setdefault(read, (len(reads), (sub, at)))[0]
            ids.append(r)
        ids.sort()
        groups.setdefault(tuple(ids), [0])[0] += 1
    blocks = tuple([block for _, block in reads.values()])
    return blocks, tuple([(mult, ids) for ids, (mult,) in groups.items()])


# Entries in the per-key read cache.  The free and peak-word cumulants
# of every argument tuple on two variables to order 6 reach 246 keys,
# which it holds four times over; on three variables to order 6 they
# reach 2172, and the bound keeps those to about 3 MB.
_READS_SIZE = 1024


@functools.lru_cache(maxsize=_READS_SIZE)
def _reads(key: Key) -> tuple[tuple[Key, ...], Groups]:
    """The reads and groups of ``key = (shape, variables)``: ``_groups``
    for the pattern of the variables, with each read made concrete as
    the memo key ``(sub-shape, variables)`` of its value, in read-number
    order.  Neither depends on the moments, so every table shares them.
    Keeps the ``_READS_SIZE`` most recently used keys; a new key whose
    pattern is known costs one relabelling and no walk of the plan."""
    shape, assign = key
    reads, groups = _groups(shape, _first_occurrence(assign))
    return tuple([(sub, tuple([assign[i] for i in at])) for sub, at in reads]), groups


# Entries in the word-query cache.  The whole non-crossing basis on at
# most five letters, 5685 words, fits in about 1.9 MB, its keys sharing
# the words' id tuples, so only words on six or more letters can fill
# it; full, it keeps about 2.7 MB.
_WORDS_SIZE = 8192
# A query word's shape and its letters in first-occurrence order, by
# the word's ids and alphabet size.  Full, it admits no more words: a
# word past the bound is checked on every query, as with no cache.
# Emptying it when full instead made a warm table about 25% slower than
# with no cache on a stream cycling through more words than the bound,
# as every query then allocated an entry.  The lock keeps the bound
# when threads fill it; a full cache takes no lock.
_words: dict[tuple[Shape, int], tuple[Shape, Shape]] = {}
_words_lock = threading.Lock()


def _enter_word(w: Word) -> tuple[Shape, Shape]:
    """The shape of the query word ``w`` and its letters in order of
    first occurrence, entered in ``_words`` if it has room.  ``w`` is
    checked first, so the cache keeps only valid words and a refusal
    names ``w``'s own letters; a word's validity depends only on its ids
    and alphabet size, the key."""
    _check_basis_word(w, noncrossing=True)
    entry = (_first_occurrence(w.seq), tuple(dict.fromkeys(w.seq)))
    if len(_words) < _WORDS_SIZE:
        with _words_lock:
            if len(_words) < _WORDS_SIZE:
                _words[w.seq, w.alphabet.size] = entry
    return entry


class CumulantTable:
    """Word cumulants of one moment functional, with memoization.

    Each query is relabelled to its shape, the word in first occurrence
    order, with the variables in the same order, so structurally
    identical queries share a memo entry.  The plans, the groups and
    each query's concrete reads, a cache of the 1024 most recently used
    queries, are shared by every table in the process, and so is the
    word-query cache beside the reads: a word's shape and letter order,
    checked once per process for the first 8192 words (``_WORDS_SIZE``);
    a word past them is checked on every query.  The memo of values is
    per table.

    Values are memoized as ``D^k`` times each cumulant of ``k`` letters
    (see the module docstring); ``D`` starts at 1.  A new denominator
    grows ``D`` in place to the least common multiple, each entry
    multiplied by the ratio to the power of its letter count.  A pass
    resolves a shape's reads, in number order; if ``D`` grew meanwhile,
    the reads are memoized by then and are looked up again, once.
    Moments are kept per table by their variables, so a monomial that
    several shapes read, such as an ascending and a peak word on the
    same variables, is read once; each public call builds one
    ``Fraction``.  A re-entrant lock makes every public query atomic:
    threads may share a table, and a moment rule may query the table it
    feeds without blocking itself.
    """

    def __init__(self, E: MomentFunctional) -> None:
        self.E = E
        self._scale = 1
        self._memo: dict[Key, int] = {}
        self._moments: dict[tuple[str, ...], Fraction] = {}
        self._lock = threading.RLock()

    def word_cumulant(self, w: Word, assign: Sequence[str]) -> Fraction:
        """The cumulant of a reduced pangrammatic non-crossing word.

        ``assign[i]`` names the variable of letter id ``i``.  The moment
        the recursion reads for ``w`` takes each letter's variable once,
        in order of the letters' first occurrence in ``w``: the word
        ``ba`` with ``a -> x`` and ``b -> y`` reads ``E(y x)``.
        """
        _check_word(w, "word_cumulant")
        assign = tuple(assign)
        k = w.alphabet.size
        if len(assign) != k:
            raise ValueError(
                f"assignment names {len(assign)} variables for an alphabet of size {k}"
            )
        shape, order = _words.get((w.seq, k)) or _enter_word(w)
        return self._cumulant(shape, tuple([assign[x] for x in order]))

    def _cumulant(self, shape: Shape, assign: tuple[str, ...]) -> Fraction:
        with self._lock:
            return Fraction(self._value((shape, assign)), self._scale ** len(assign))

    def _value(self, key: Key) -> int:
        """``scale^k`` times the cumulant of ``key = (shape, variables)``,
        at the scale the table has on return."""
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        assign = key[1]
        m = self._moments.get(assign)
        if m is None:
            m = self._moments[assign] = self.E.expect(assign)
        if self._scale % m.denominator:
            scale = lcm(self._scale, m.denominator)
            ratio = scale // self._scale
            for done in memo:
                memo[done] *= ratio ** len(done[1])
            self._scale = scale
        blocks, groups = _reads(key)
        scale = self._scale
        # A memoized 0 falls through to _value, which returns it.
        values = [memo.get(block) or self._value(block) for block in blocks]
        if scale != self._scale:
            # The scale grew; every read is memoized now, at that scale.
            scale = self._scale
            values = [memo[block] for block in blocks]
        total = scale ** len(assign) // m.denominator * m.numerator
        for mult, ids in groups:
            for r in ids:
                mult *= values[r]
            total -= mult
        memo[key] = total
        return total

    def free_cumulant(self, variables: Sequence[str]) -> Fraction:
        """The free cumulant, via the ascending word."""
        vs = tuple(variables)
        if not vs:
            raise ValueError("at least one variable is required")
        return self._cumulant(tuple(range(len(vs))), vs)


def word_cumulant(E: MomentFunctional, w: Word, assign: Sequence[str]) -> Fraction:
    """One-shot word cumulant; use :class:`CumulantTable` for batches."""
    return CumulantTable(E).word_cumulant(w, assign)


def free_cumulant(E: MomentFunctional, variables: Sequence[str]) -> Fraction:
    """The free cumulant of the given variables, via the word recursion."""
    return CumulantTable(E).free_cumulant(variables)


Blocks = tuple[tuple[int, ...], ...]


def _iter_noncrossing_blocks(elements: tuple[int, ...]) -> Iterator[Blocks]:
    """Non-crossing partitions of an ordered tuple of positions.

    The block of the first element is chosen freely; its chosen elements
    cut the remainder into gaps, and any other block must stay inside a
    single gap, so the gaps partition independently.
    """
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    r = len(rest)
    for mask in range(1 << r):
        chosen = [i for i in range(r) if mask >> i & 1]
        block = (first,) + tuple(rest[i] for i in chosen)
        cuts = [-1] + chosen + [r]
        combos: list[Blocks] = [()]
        for a, b in zip(cuts, cuts[1:]):
            combos = [p + sub for sub in _iter_noncrossing_blocks(rest[a + 1 : b]) for p in combos]
        for tail in combos:
            yield (block,) + tail


def free_cumulant_direct(E: MomentFunctional, variables: Sequence[str]) -> Fraction:
    """The free cumulant by direct non-crossing partition recursion.

    Solves ``E(v1...vN) = sum over non-crossing partitions of the product
    of block cumulants`` triangularly.  Independent of the word route.
    """
    vs = tuple(variables)
    if not vs:
        raise ValueError("at least one variable is required")
    return _direct(E, vs, {}, {})


def _direct(
    E: MomentFunctional,
    t: tuple[str, ...],
    memo: dict[tuple[str, ...], Fraction],
    partitions: dict[int, list[Blocks]],
) -> Fraction:
    """``free_cumulant_direct`` of ``t``, with the call's memo and its
    partitions into two or more blocks, enumerated once per length.  A
    module-level function, not a closure, so that the memo is freed on
    return instead of living on in a reference cycle."""
    hit = memo.get(t)
    if hit is not None:
        return hit
    total = E.expect(t)
    n = len(t)
    if n not in partitions:
        partitions[n] = [
            blocks for blocks in _iter_noncrossing_blocks(tuple(range(n))) if len(blocks) > 1
        ]
    for blocks in partitions[n]:
        prod = Fraction(1)
        for b in blocks:
            prod *= _direct(E, tuple(t[i] for i in b), memo, partitions)
        total -= prod
    memo[t] = total
    return total


def boolean_cumulant(E: MomentFunctional, variables: Sequence[str]) -> Fraction:
    """The Boolean cumulant, by the first-block recursion.

    The first interval block of ``a_1 .. a_n`` is some prefix
    ``a_1 .. a_k``, and the interval partitions of the rest sum to its
    moment, so ``E(a_1..a_n) = sum over k of eta(a_1..a_k) E(a_k+1..a_n)``
    (Speicher and Woroudi, 1997).  Solved for every prefix in turn.
    """
    vs = tuple(variables)
    if not vs:
        raise ValueError("at least one variable is required")
    eta: list[Fraction] = []
    for k in range(1, len(vs) + 1):
        eta.append(E.expect(vs[:k]) - sum(eta[j - 1] * E.expect(vs[j:k]) for j in range(1, k)))
    return eta[-1]


def classical_cumulant(E: MomentFunctional, variables: Sequence[str]) -> Fraction:
    """The classical cumulant, by ``m_n = sum C(n-1, k-1) kappa_k m_n-k``.

    The recursion groups set partitions by the size ``k`` of the block
    holding the first element, and runs on the integers ``d^j kappa_j``
    and ``d^j m_j``, ``d`` the lcm of the moments' denominators.  Only
    defined for powers of a single variable: classical cumulants
    presuppose commuting arguments, and this package does not
    symmetrize, so mixed argument tuples are rejected.

    >>> E = MomentFunctional(("v",), {("v",): 1, ("v", "v"): 2, ("v",) * 3: 5})
    >>> [str(classical_cumulant(E, ("v",) * n)) for n in (1, 2, 3)]
    ['1', '1', '1']
    """
    vs = tuple(variables)
    if not vs:
        raise ValueError("at least one variable is required")
    if len(set(vs)) != 1:
        raise ValueError(
            f"classical cumulants take powers of a single variable, got {sorted(set(vs))}"
        )
    n = len(vs)
    moments = [E.expect(vs[:j]) for j in range(n + 1)]
    d = lcm(*[x.denominator for x in moments])
    m = [d**j // x.denominator * x.numerator for j, x in enumerate(moments)]
    kappa = [0]
    for j in range(1, n + 1):
        kappa.append(m[j] - sum([comb(j - 1, i - 1) * kappa[i] * m[j - i] for i in range(1, j)]))
    return Fraction(kappa[n], d**n)


def moments_from_free_cumulants(kappas: Sequence[Fraction | int]) -> list[Fraction]:
    """Run the free moment-cumulant sum forward.

    Given ``kappa_1 .. kappa_N`` for one variable, returns the moments
    ``m_0 .. m_N``.  The block holding the first element has some size
    ``s`` and cuts the rest into ``s`` gaps that partition independently,
    so ``m_n = sum over s of kappa_s [z^(n-s)] M(z)^s`` with ``M`` the
    moment series.  It runs on the integers ``d^n m_n``, ``d`` the lcm
    of the cumulants' denominators.  The semicircle's moments, Catalan:

    >>> [str(m) for m in moments_from_free_cumulants([0, 1, 0, 0, 0, 0])]
    ['1', '0', '1', '0', '2', '0', '5']
    """
    ks = [Fraction(k) for k in kappas]
    d = lcm(*[k.denominator for k in ks])
    ks = [d**s // k.denominator * k.numerator for s, k in enumerate(ks, start=1)]
    m = [1]
    # power[s][r] is d^r times the coefficient of z^r in M(z)^s.
    power = [[1] + [0] * len(ks)] + [[] for _ in ks]
    for n in range(1, len(ks) + 1):
        total = 0
        for s in range(1, n + 1):
            r = n - s
            power[s].append(sum([m[i] * power[s - 1][r - i] for i in range(r + 1)]))
            total += ks[s - 1] * power[s][r]
        m.append(total)
    return [Fraction(x, d**n) for n, x in enumerate(m)]
