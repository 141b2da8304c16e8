"""Cumulants from words, and first-block recursions to check them.

The central operation is the word cumulant ``kappa(w, assign)``: for a
reduced pangrammatic non-crossing word ``w`` with one variable per
letter, it is defined by the triangular system

    E(v_1 v_2 ... v_k)
        = sum over canonical surjections f of the alphabet
              with a non-crossing unreduced image f(w)
          of the product over blocks B of
              kappa(reduce(w restricted to B), assign on B)

where ``v_i`` is the variable assigned to the ``i``-th letter of ``w``
in order of first occurrence.

Moebius inversion on the non-crossing partitions solves it (Nica and
Speicher, *Lectures on the Combinatorics of Free Probability*, 2006):
the cumulant is the sum over the same surjections of ``mu(f)`` times the
product over blocks ``B`` of the moment ``E(v_B)``.  ``mu(f)`` is the
Moebius function of NC(|w|) from the partition of the positions by block
of ``f(w)`` to the one-block partition, a product of signed Catalan
numbers over its Kreweras complement's blocks.

The sum depends only on the word's shape, its ids relabelled in first
occurrence order, and on the variables' pattern, their own such
relabelling.  Three cached stages compute it.  ``_plan`` lists the
surjections once per shape, each with its blocks' sub-shapes and its
``mu``, in one pass of the search behind
:func:`~ncwords.surjections.nc_image_assignments`.  ``_groups`` merges,
per shape and pattern, the terms whose blocks read the same sub-shapes
and variables, summing their ``mu``, into an integer polynomial in
moments listed in the order in which the system, solved by recursion,
requests them, so that a table reports the same first missing moment.
Both keep their 4096 most recent keys.  ``_compiled`` names the moments
by a query's variables, for the 1024 most recent keys; a read's order
is ``_compiled`` of the read, on the pattern's variables.  A fourth
cache, ``_query_word``, checks and relabels the 8192 most recent words.

:class:`CumulantTable` is the one way in.  Its ``word_cumulant`` and
``free_cumulant`` read each moment once and evaluate a query on
integers: ``D^k`` times a cumulant of ``k`` letters is the sum of
``c * prod D^|B| E(v_B)``, ``D`` the lcm of the moments' denominators.

Specializing the word recovers the classical families:

- the ascending word ``1, 2, ..., N`` gives free cumulants, and
- the peak word ``1, 2, ..., N, N-1, ..., 2`` gives Boolean cumulants.

``free_cumulant_direct``, ``boolean_cumulant``, ``classical_cumulant``
and ``moments_from_free_cumulants`` recurse on the block holding the
first element; the first reads moments alone and enumerates no
partition.  The last two run on integers scaled by a power of the lcm
of their inputs' denominators; the first two stay on ``Fraction``
values, as the oracles of the free and peak-word routes.  None of them
shares logic with the word cumulants, which is what makes the agreement
tests meaningful.  ``_free_from_moments``, the inverse of
``moments_from_free_cumulants`` on integers alike, gives the free
cumulants of one variable's moment sequence, every order at once: it is
how ``ncwords cumulants --kind free --up-to N`` runs, so that every
batch of the CLI is a closed recursion on the moment sequence, while a
single query goes through ``CumulantTable``.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .probability import MomentFunctional, _exact, _nonempty
from .surjections import _nc_search
from .words import Word, _check_basis_word, _check_word, _first_occurrence, reduce_seq, restrict_seq

Shape = tuple[int, ...]
# One plan term: per block, its reduced canonical sub-shape and the
# positions of the shape's variables that the sub-shape's letters read.
Block = tuple[Shape, tuple[int, ...]]
Term = tuple[Block, ...]
# A query or a read: a shape and its variables.
Key = tuple[Shape, tuple]
# Moments in request order, and per monomial its coefficient and moments.
Polynomial = tuple[tuple[tuple, ...], tuple[tuple[int, tuple[int, ...]], ...]]

# Entries in each of the caches ``_plan`` and ``_groups``.  One pass of
# the benchmark's cumulant batch leaves 11 and 124 entries in them, and
# 349 in ``_compiled``; free and peak-word cumulants of every tuple on
# three variables to order 6 leave 10 and 367.
_STAGE_SIZE = 4096


@functools.lru_cache(maxsize=_STAGE_SIZE)
def _plan(shape: Shape) -> tuple[tuple[Term, int], ...]:
    """The non-constant terms of the sum for a first-occurrence
    canonical shape, each with its ``mu``, in the order of
    :func:`~ncwords.surjections.enumerate_canonical_surjections`.  The
    order fixes which moments are requested first, hence which missing
    moment a table reports.
    """
    k = max(shape) + 1
    # A block recurs across many terms; one shared entry per block, by
    # its bit set of letters, keeps plans small.
    by_block: dict[int, Block] = {}

    def term(f: list[int], masks: list[int], mu: int) -> tuple[Term, int]:
        entries = []
        for mask in masks:
            entry = by_block.get(mask)
            if entry is None:
                # A canonical shape's letters first occur in increasing
                # order: the restriction is canonical, letter r is ids[r].
                ids = tuple([x for x in range(k) if mask >> x & 1])
                entry = by_block[mask] = (reduce_seq(restrict_seq(shape, ids)), ids)
            entries.append(entry)
        return tuple(entries), mu

    # The search numbers a canonical shape's blocks canonically and puts
    # the constant surjection first.
    return tuple(_nc_search(shape, k, term)[1:])


@functools.lru_cache(maxsize=_STAGE_SIZE)
def _groups(shape: Shape, pattern: Shape) -> Polynomial:
    """``_plan(shape)`` for variables whose first-occurrence relabelling
    is ``pattern``, as a polynomial in their moments: the moments in the
    order in which the system, solved by recursion, requests them, its
    own, then depth first through each read ``(sub-shape, variables)``
    in order of first appearance, each moment once; then the shape's own
    moment and, in first-term order, a monomial per group of terms whose
    blocks read the same multiset of reads, its coefficient their sum of
    ``mu`` and its moments sorted.  A group's terms have as many blocks,
    so their ``mu`` have one sign and no coefficient is 0."""
    # Each read, (sub-shape, variables), maps to its number.
    reads: dict[Key, int] = {}
    read_of: dict[tuple[int, ...], int] = {}
    groups: dict[tuple[int, ...], int] = {}
    for term, mu in _plan(shape):
        ids = []
        for sub, at in term:
            r = read_of.get(at)
            if r is None:
                read = (sub, tuple([pattern[i] for i in at]))
                r = read_of[at] = reads.setdefault(read, len(reads))
            ids.append(r)
        ids.sort()
        ids = tuple(ids)
        groups[ids] = groups.get(ids, 0) + mu
    # Each read's own order is _compiled of the read.
    found = [pattern]
    for read in reads:
        found += _compiled(read)[0]
    moments = tuple(dict.fromkeys(found))
    number = {m: i for i, m in enumerate(moments)}
    moment = [number[vs] for _, vs in reads]
    poly = [(mu, tuple(sorted([moment[r] for r in ids]))) for ids, mu in groups.items()]
    return moments, ((1, (0,)), *poly)


_COMPILED_SIZE = 1024


@functools.lru_cache(maxsize=_COMPILED_SIZE)
def _compiled(key: Key) -> Polynomial:
    """The polynomial of ``key = (shape, variables)`` from ``_groups``,
    its moments named by the variables.  ``_groups`` also asks it for
    each read, on pattern-labelled variables, so its moments are that
    read's request order."""
    shape, assign = key
    moments, poly = _groups(shape, _first_occurrence(assign))
    names = tuple(dict.fromkeys(assign))
    return tuple([tuple(map(names.__getitem__, m)) for m in moments]), poly


# Entries in ``_query_word``.  The non-crossing basis on at most five
# letters, 5685 words, fits; full, it keeps about 4.3 MB, words included.
_WORDS_SIZE = 8192


@functools.lru_cache(maxsize=_WORDS_SIZE)
def _query_word(w: Word) -> tuple[Shape, Shape]:
    """The shape of the query word ``w`` and its letters in order of
    first occurrence, once ``w`` is checked.  The key ``w`` equals every
    word with its ids and alphabet size, all that its validity depends
    on; a refusal is not cached, so it names the caller's own letters."""
    _check_basis_word(w, "word_cumulant", noncrossing=True)
    return _first_occurrence(w.seq), tuple(dict.fromkeys(w.seq))


class CumulantTable:
    """Word cumulants of one moment functional.

    Each query is relabelled to its shape, the word in first occurrence
    order, with the variables in the same order, by ``_query_word``, and
    evaluated as its polynomial from ``_compiled``; every table shares
    both caches (see the module docstring).  A table keeps the moments it
    has read as integer pairs, by their variables, so each is read once,
    in request order.
    A re-entrant lock makes the reads atomic: threads may share a table,
    and a moment rule may query the table it feeds without blocking.
    """

    def __init__(self, E: MomentFunctional) -> None:
        self.E = E
        self._moments: dict[tuple[str, ...], tuple[int, int]] = {}
        self._lock = threading.RLock()

    def word_cumulant(self, w: Word, assign: Sequence[str]) -> Fraction:
        """The cumulant of a reduced pangrammatic non-crossing word.

        ``assign[i]`` names the variable of letter id ``i``.  The moment
        of ``w`` itself takes each letter's variable once, in order of
        the letters' first occurrence in ``w``: the word ``ba`` with
        ``a -> x`` and ``b -> y`` reads ``E(y x)``.
        """
        _check_word(w, "word_cumulant")
        assign = tuple(assign)
        k = w.alphabet.size
        if len(assign) != k:
            raise ValueError(
                f"assignment names {len(assign)} variables for an alphabet of size {k}"
            )
        shape, order = _query_word(w)
        return self._cumulant(shape, tuple([assign[x] for x in order]))

    def _cumulant(self, shape: Shape, assign: tuple[str, ...]) -> Fraction:
        moments, poly = _compiled((shape, assign))
        with self._lock:
            known = self._moments
            values = []
            for m in moments:
                value = known.get(m)
                if value is None:
                    value = known[m] = self.E.expect(m).as_integer_ratio()
                values.append(value)
        d = lcm(*[q for _, q in values])
        scaled = [d ** len(m) // q * p for m, (p, q) in zip(moments, values)]
        total = 0
        for c, ids in poly:
            for i in ids:
                c *= scaled[i]
            total += c
        return Fraction(total, d ** len(assign))

    def free_cumulant(self, variables: Sequence[str]) -> Fraction:
        """The free cumulant, via the ascending word."""
        vs = _nonempty(variables)
        return self._cumulant(tuple(range(len(vs))), vs)


def free_cumulant_direct(E: MomentFunctional, variables: Sequence[str]) -> Fraction:
    """The free cumulant by the first-block recursion on moments.

    Grouped by the block ``V`` holding the first position, the other
    blocks of a non-crossing partition fall into the gaps that ``V``
    leaves, after each of its elements, and each gap's partitions sum to
    its moment (Nica and Speicher, 2006): ``kappa(t) = E(t) - sum over
    V != t of kappa(t_V) prod E(t_gap)``.  It reads ``E(t)``, then each
    ``V`` in increasing bit-mask order before its nonempty gaps.
    """
    return _direct(E, _nonempty(variables), {})


def _direct(
    E: MomentFunctional, t: tuple[str, ...], memo: dict[tuple[str, ...], Fraction]
) -> Fraction:
    """``free_cumulant_direct`` of ``t`` with the call's memo.  A
    module-level function, not a closure, so that the memo is freed on
    return instead of living on in a reference cycle."""
    hit = memo.get(t)
    if hit is not None:
        return hit
    total = E.expect(t)
    n = len(t)
    for mask in range((1 << (n - 1)) - 1):
        block = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1]
        term = _direct(E, tuple([t[i] for i in block]), memo)
        for a, b in zip(block, block[1:] + [n]):
            if b > a + 1:
                term *= E.expect(t[a + 1 : b])
        total -= term
    memo[t] = total
    return total


def boolean_cumulant(E: MomentFunctional, variables: Sequence[str]) -> Fraction:
    """The Boolean cumulant, by the first-block recursion.

    The first interval block of ``a_1 .. a_n`` is some prefix
    ``a_1 .. a_k``, and the interval partitions of the rest sum to its
    moment, so ``E(a_1..a_n) = sum over k of eta(a_1..a_k) E(a_k+1..a_n)``
    (Speicher and Woroudi, 1997).  Solved for every prefix in turn.
    """
    vs = _nonempty(variables)
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
    vs = _nonempty(variables)
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
    of the cumulants' denominators.  ``_free_from_moments`` is its
    inverse.  The semicircle's moments, Catalan:

    >>> [str(m) for m in moments_from_free_cumulants([0, 1, 0, 0, 0, 0])]
    ['1', '0', '1', '0', '2', '0', '5']
    """
    ks = [_exact(k) for k in kappas]
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


def _free_from_moments(moments: Sequence[Fraction | int]) -> list[Fraction]:
    """The inverse of :func:`moments_from_free_cumulants`.

    Given the moments ``m_1 .. m_N`` of one variable, returns its free
    cumulants ``kappa_1 .. kappa_N``: the same first-block sum, solved
    for its term ``s = n``, ``kappa_n = m_n - sum over s < n of kappa_s
    [z^(n-s)] M(z)^s``.  It runs on the integers ``d^n m_n``, ``d`` the
    lcm of the moments' denominators, with O(N^3) operations and no
    enumeration.  The semicircle's cumulants:

    >>> [str(k) for k in _free_from_moments([0, 1, 0, 2, 0, 5])]
    ['0', '1', '0', '0', '0', '0']
    """
    d = lcm(*[x.denominator for x in moments])
    m = [1] + [d**n // x.denominator * x.numerator for n, x in enumerate(moments, start=1)]
    ks: list[int] = []
    # power[s][r] is d^r times the coefficient of z^r in M(z)^s.
    power = [[1] + [0] * len(moments)] + [[] for _ in moments]
    for n in range(1, len(m)):
        total = 0
        for s in range(1, n):
            r = n - s
            power[s].append(sum([m[i] * power[s - 1][r - i] for i in range(r + 1)]))
            total += ks[s - 1] * power[s][r]
        power[n].append(1)
        ks.append(m[n] - total)
    return [Fraction(k, d**n) for n, k in enumerate(ks, start=1)]
