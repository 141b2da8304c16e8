"""Brute-force oracles and table builders shared by the test modules.

Everything here recomputes expected values from first principles, by
plain enumeration, so implementation results can be checked against an
independent route.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import comb, factorial, prod

from ncwords import Alphabet, MomentFunctional, Word, apply_map, reduce_word, restrict

# Bell and Catalan numbers, indexed from 0.
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def oracle_is_noncrossing_seq(seq) -> bool:
    """Quadratic scan for the pattern a..b..a..b over all ordered pairs."""
    letters = sorted(set(seq))
    for a in letters:
        for b in letters:
            if a == b:
                continue
            want = (a, b, a, b)
            state = 0
            for x in seq:
                if x == want[state]:
                    state += 1
                    if state == 4:
                        return False
    return True


def oracle_is_reduced_seq(seq) -> bool:
    if any(seq[i] == seq[i + 1] for i in range(len(seq) - 1)):
        return False
    return len(seq) == 1 or seq[0] != seq[-1]


def rewrite_steps(seq: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All single-step rewrites: drop one of an adjacent equal pair, or
    drop a final letter equal to the first."""
    out = []
    for i in range(len(seq) - 1):
        if seq[i] == seq[i + 1]:
            out.append(seq[:i] + seq[i + 1 :])
    if len(seq) > 1 and seq[0] == seq[-1]:
        out.append(seq[:-1])
    return out


def oracle_normal_forms(seq) -> set[tuple[int, ...]]:
    """Close the rewrite relation over all paths; the irreducible results."""
    seen: set[tuple[int, ...]] = set()
    normals: set[tuple[int, ...]] = set()
    stack = [tuple(seq)]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        nxt = rewrite_steps(s)
        if nxt:
            stack.extend(nxt)
        else:
            normals.add(s)
    return normals


@functools.cache
def oracle_assignments(k: int) -> tuple[tuple[int, ...], ...]:
    """Canonical surjections from ``[k]`` as restricted growth strings,
    filtered from all ``k**k`` value tuples, sorted by codomain size and
    then assignment."""
    rgs = [
        a
        for a in itertools.product(range(1, k + 1), repeat=k)
        if all(a[i] <= max(a[:i], default=0) + 1 for i in range(k))
    ]
    return tuple(sorted(rgs, key=lambda a: (max(a), a)))


@functools.cache
def _oracle_normal_form(seq: tuple[int, ...]) -> tuple[int, ...]:
    (normal,) = oracle_normal_forms(seq)
    return normal


@functools.cache
def _oracle_noncrossing(seq: tuple[int, ...]) -> bool:
    return oracle_is_noncrossing_seq(seq)


def oracle_decomposition(seq, k: int, noncrossing: bool = False):
    """The decomposition terms of an id sequence on ``k`` letters as
    ``(assignment, outer, inners)`` tuples, each word reduced by closing
    the rewrite relation.  With ``noncrossing`` set, only the terms whose
    unreduced image passes :func:`oracle_is_noncrossing_seq`."""
    seq = tuple(seq)
    inner_of = {}
    terms = []
    for f in oracle_assignments(k):
        image = tuple(f[x] - 1 for x in seq)
        if noncrossing and not _oracle_noncrossing(image):
            continue
        inners = []
        for b in range(1, max(f) + 1):
            ids = tuple(x for x in range(k) if f[x] == b)
            if ids not in inner_of:
                sub = tuple(ids.index(x) for x in seq if x in ids)
                inner_of[ids] = _oracle_normal_form(sub)
            inners.append(inner_of[ids])
        terms.append((f, _oracle_normal_form(image), tuple(inners)))
    return terms


def oracle_check_coassociativity(seq, k: int, term, noncrossing: bool = False) -> bool:
    """``check_coassociativity``'s verdict on an id sequence on ``k``
    letters, walked chain by chain with no table and no memo: ``term``
    is the kernel under test, called afresh for every chain.  ``g . f``
    is composed from the two assignments, and each inner-first block
    takes ``f`` on the block ids ``term`` returned, relabelled by rank."""
    seq = tuple(seq)
    for f in oracle_assignments(k):
        outer_f, blocks_f = term(seq, f)
        m = len(blocks_f)
        for g in oracle_assignments(m):
            h = tuple([g[b - 1] for b in f])
            lhs_outer, lhs_blocks = term(outer_f, g)
            rhs_outer, rhs_blocks = term(seq, h)
            rhs_mids = []
            rhs_inners = [()] * m
            images = [(f, seq), (g, outer_f), (h, seq)]
            for ids, wa in rhs_blocks:
                labels = sorted({f[x] for x in ids})
                fu = tuple([labels.index(f[x]) + 1 for x in ids])
                images.append((fu, wa))
                mid, sub_blocks = term(wa, fu)
                rhs_mids.append(mid)
                for t, (_, inner) in zip(labels, sub_blocks):
                    rhs_inners[t - 1] = inner
            if noncrossing:
                alive = [_oracle_noncrossing(tuple([a[x] for x in w])) for a, w in images]
                lhs_alive = alive[0] and alive[1]
                if lhs_alive != all(alive[2:]):
                    return False
                if not lhs_alive:
                    continue
            if lhs_outer != rhs_outer or [mid for _, mid in lhs_blocks] != rhs_mids:
                return False
            if [inner for _, inner in blocks_f] != rhs_inners:
                return False
    return True


def iter_all_seqs(k: int, max_len: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(range(k), repeat=length)


def check_lemma_map_reduce(k_max: int, len_max: int, target_max: int):
    """reduce(map(reduce(w))) == reduce(map(w)) for every word and every
    letter map into every target alphabet up to the given sizes."""
    checked = 0
    failures = []
    for k in range(1, k_max + 1):
        alphabet = Alphabet.numeric(k)
        for t in range(1, target_max + 1):
            target = Alphabet.numeric(t)
            maps = [dict(enumerate(m)) for m in itertools.product(range(t), repeat=k)]
            for seq in iter_all_seqs(k, len_max):
                w = Word(alphabet, seq)
                rw = reduce_word(w)
                for mapping in maps:
                    lhs = reduce_word(apply_map(rw, mapping, target))
                    rhs = reduce_word(apply_map(w, mapping, target))
                    checked += 1
                    if lhs != rhs:
                        failures.append((seq, mapping))
    return checked, failures


def check_lemma_restrict_reduce(k_max: int, len_max: int):
    """reduce(restrict(reduce(w), S)) == reduce(restrict(w, S)) for every
    word and every subset S that keeps at least one letter."""
    checked = 0
    failures = []
    for k in range(1, k_max + 1):
        alphabet = Alphabet.numeric(k)
        subsets = [
            s
            for r in range(1, k + 1)
            for s in itertools.combinations(range(k), r)
        ]
        for seq in iter_all_seqs(k, len_max):
            w = Word(alphabet, seq)
            rw = reduce_word(w)
            occurring = set(seq)
            for s in subsets:
                if not occurring.intersection(s):
                    continue
                lhs = reduce_word(restrict(rw, s))
                rhs = reduce_word(restrict(w, s))
                checked += 1
                if lhs != rhs:
                    failures.append((seq, s))
    return checked, failures


def check_lemma_map_restrict(k_max: int, len_max: int, target_max: int):
    """map(restrict(w, preimage of T)) == restrict(map(w), T) for every
    word, letter map, and target subset T meeting the image of w."""
    checked = 0
    failures = []
    for k in range(1, k_max + 1):
        alphabet = Alphabet.numeric(k)
        for t in range(1, target_max + 1):
            target = Alphabet.numeric(t)
            target_subsets = [
                s
                for r in range(1, t + 1)
                for s in itertools.combinations(range(t), r)
            ]
            for raw in itertools.product(range(t), repeat=k):
                mapping = dict(enumerate(raw))
                for seq in iter_all_seqs(k, len_max):
                    w = Word(alphabet, seq)
                    image_letters = {raw[x] for x in seq}
                    for ts in target_subsets:
                        if not image_letters.intersection(ts):
                            continue
                        preimage = [i for i in range(k) if raw[i] in ts]
                        sub_target = Alphabet(tuple(target.names[j] for j in sorted(ts)))
                        target_rank = {j: r for r, j in enumerate(sorted(ts))}
                        sub_map = {
                            new: target_rank[raw[old]]
                            for new, old in enumerate(sorted(preimage))
                        }
                        lhs = apply_map(restrict(w, preimage), sub_map, sub_target)
                        rhs = restrict(apply_map(w, mapping, target), ts)
                        checked += 1
                        if lhs != rhs:
                            failures.append((seq, raw, ts))
    return checked, failures


def oracle_word_cumulant(E: MomentFunctional, seq, assign, memo: dict) -> Fraction:
    """The cumulant of a reduced non-crossing id sequence whose letters
    are ``0..k-1``, ``assign[x]`` the variable of letter ``x``, by the
    defining triangular system solved by recursion on ``Fraction``
    values: the moment of the word, in first-occurrence order, less the
    product of the block cumulants for every other surjection of its
    letters with a non-crossing image.  Surjections come from
    :func:`oracle_assignments`, images are filtered by the quadratic scan
    and words reduced by closing the rewrite relation.  ``memo`` keeps
    the values of one functional, by sequence and assignment."""
    seq, assign = tuple(seq), tuple(assign)
    if (seq, assign) in memo:
        return memo[seq, assign]
    total = E.expect(tuple(assign[x] for x in dict.fromkeys(seq)))
    for f in oracle_assignments(len(assign))[1:]:
        if not _oracle_noncrossing(tuple(f[x] for x in seq)):
            continue
        product = Fraction(1)
        for b in range(1, max(f) + 1):
            ids = [x for x in range(len(assign)) if f[x] == b]
            sub = _oracle_normal_form(tuple(ids.index(x) for x in seq if x in ids))
            product *= oracle_word_cumulant(E, sub, [assign[x] for x in ids], memo)
        total -= product
    memo[seq, assign] = total
    return total


def oracle_mobius(blocks, n: int) -> int:
    """The Moebius function of NC(n) from the partition of the positions
    ``0..n-1`` into ``blocks`` to the one-block partition.  ``sigma``
    cycles each block in increasing order and ``gamma(p) = p + 1 mod
    n``; the cycles of ``sigma^-1 gamma`` are the blocks of the Kreweras
    complement, and the value is the product of ``(-1)^(|V|-1)
    Catalan(|V|-1)`` over them (Nica and Speicher, 2006)."""
    sigma_inverse = {}
    for block in blocks:
        ordered = sorted(block)
        for p, q in zip(ordered, ordered[1:] + ordered[:1]):
            sigma_inverse[q] = p
    value = 1
    seen = set()
    for start in range(n):
        size, p = 0, start
        while p not in seen:
            seen.add(p)
            size += 1
            p = sigma_inverse[(p + 1) % n]
        if size:
            value *= (-1) ** (size - 1) * comb(2 * size - 2, size - 1) // size
    return value


def free_coefficient(n: int, parts) -> int:
    """The coefficient of the product of the moments of orders ``parts``
    (a partition of ``n``) in the free cumulant of order ``n`` of one
    variable: ``(-1)^(l-1) (n+l-2)! / ((n-1)! prod_i m_i!)``, with ``l``
    the number of parts and ``m_i`` the number of parts equal to ``i``.
    A closed form, with no enumeration."""
    l = len(parts)
    counts = [parts.count(i) for i in set(parts)]
    value = factorial(n + l - 2) // (factorial(n - 1) * prod(map(factorial, counts)))
    return -value if l % 2 == 0 else value


def rand_fraction(rng: random.Random, lo: int = -6, hi: int = 6, dmax: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, dmax))


def single_var_table(rng: random.Random, up_to: int, var: str = "v") -> MomentFunctional:
    entries = {(var,) * n: rand_fraction(rng) for n in range(1, up_to + 1)}
    return MomentFunctional((var,), entries)


def two_var_table(rng: random.Random, up_to: int, names=("a", "b")) -> MomentFunctional:
    entries = {}
    for n in range(1, up_to + 1):
        for combo in itertools.product(names, repeat=n):
            entries[combo] = rand_fraction(rng)
    return MomentFunctional(names, entries)


def fraction_classical_cumulant(E: MomentFunctional, variables) -> Fraction:
    """``classical_cumulant``'s recursion, ``m_n = sum C(n-1, k-1)
    kappa_k m_n-k``, on ``Fraction`` values: one reduced rational per
    operation, the reference for the library's scaled-integer route."""
    vs = tuple(variables)
    if not vs:
        raise ValueError("at least one variable is required")
    if len(set(vs)) != 1:
        raise ValueError(
            f"classical cumulants take powers of a single variable, got {sorted(set(vs))}"
        )
    n = len(vs)
    m = [E.expect(vs[:j]) for j in range(n + 1)]
    kappa = [Fraction(0)]
    for j in range(1, n + 1):
        kappa.append(m[j] - sum(comb(j - 1, i - 1) * kappa[i] * m[j - i] for i in range(1, j)))
    return kappa[n]


def fraction_moments_from_free_cumulants(kappas) -> list[Fraction]:
    """``moments_from_free_cumulants``'s forward sum, ``m_n = sum over s
    of kappa_s [z^(n-s)] M(z)^s``, on ``Fraction`` values: the reference
    for the library's scaled-integer route."""
    ks = [Fraction(k) for k in kappas]
    m = [Fraction(1)]
    # power[s][r] is the coefficient of z^r in M(z)^s.
    power = [[Fraction(1)] + [Fraction(0)] * len(ks)] + [[] for _ in ks]
    for n in range(1, len(ks) + 1):
        total = Fraction(0)
        for s in range(1, n + 1):
            r = n - s
            power[s].append(sum(m[i] * power[s - 1][r - i] for i in range(r + 1)))
            total += ks[s - 1] * power[s][r]
        m.append(total)
    return m
