"""The acceptance gate: nine exact, budgeted end-to-end checks.

Each test enumerates at the stated scale, collects every failure rather
than stopping at the first, prints one summary line (past pytest's
capture, so it lands in the terminal), and enforces a wall clock budget.
Budgets are generous on purpose: they catch complexity regressions, not
scheduler noise.
"""

import itertools
import random
import time
from fractions import Fraction

from ncwords import (
    Alphabet,
    CumulantTable,
    Word,
    boolean_cumulant,
    check_coassociativity,
    classical_cumulant,
    crossing_ideal_witness,
    decompose,
    enumerate_canonical_surjections,
    enumerate_nc_basis,
    enumerate_nc_partitions,
    enumerate_word_basis,
    free_cumulant_direct,
    is_noncrossing,
    moments_from_free_cumulants,
    peak_word,
    random_basis_word,
    reduce_word,
    restrict,
    semicircular_family,
)
from ncwords.cli import main

from oracles import (
    BELL,
    CATALAN,
    check_lemma_map_reduce,
    check_lemma_map_restrict,
    check_lemma_restrict_reduce,
    iter_all_seqs,
    oracle_normal_forms,
    single_var_table,
    two_var_table,
)

FIVE_TERM_LINES = [
    "f={1,2,3} | outer=b123 | inner=[a1,a2,a1,a3]",
    "f={1,2}{3} | outer=b12,b3 | inner=[a1,a2; a3]",
    "f={1,3}{2} | outer=b13,b2 | inner=[a1,a3; a2]",
    "f={1}{2,3} | outer=b1,b23,b1,b23 | inner=[a1; a2,a3]",
    "f={1}{2}{3} | outer=b1,b2,b1,b3 | inner=[a1; a2; a3]",
]


def finish(capsys, idx, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE {idx}: {'FAIL' if failures else 'PASS'} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {idx} took {elapsed:.1f}s, budget {budget}s"


def test_acceptance_1_decomposition_example(capsys):
    t0 = time.perf_counter()
    failures = []

    code = main(["decompose", "a1,a2,a1,a3"])
    full = capsys.readouterr().out.splitlines()
    if code != 0 or full != FIVE_TERM_LINES:
        failures.append(("full", code, full))

    code = main(["decompose", "a1,a2,a1,a3", "--nc"])
    nc = capsys.readouterr().out.splitlines()
    expected_nc = [FIVE_TERM_LINES[i] for i in (0, 1, 2, 4)]
    if code != 0 or nc != expected_nc:
        failures.append(("nc", code, nc))

    finish(capsys, 1, failures, t0, budget=1.0)


def test_acceptance_2_coassociativity(capsys):
    t0 = time.perf_counter()
    failures = []

    exhaustive = 0
    for k in range(1, 4):
        for w in enumerate_word_basis(Alphabet.numeric(k), 6):
            exhaustive += 1
            if not check_coassociativity(w):
                failures.append(("word", str(w)))
    assert exhaustive >= 100

    for k in range(1, 5):
        for w in enumerate_nc_basis(Alphabet.numeric(k)):
            if not check_coassociativity(w, noncrossing=True):
                failures.append(("nc", str(w)))

    rng = random.Random(2000)
    for _ in range(1000):
        k = rng.randint(1, 5)
        w = random_basis_word(rng, k, 10)
        if not check_coassociativity(w):
            failures.append(("random", str(w)))

    finish(capsys, 2, failures, t0, budget=60.0)


def test_acceptance_3_crossing_ideal(capsys):
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for k in range(2, 5):
        for w in enumerate_word_basis(Alphabet.numeric(k), 8):
            if is_noncrossing(w):
                continue
            checked += 1
            for term in decompose(w):
                if not crossing_ideal_witness(term):
                    failures.append((str(w), term.surjection.assignment))
    assert checked > 1000
    finish(capsys, 3, failures, t0, budget=60.0)


def test_acceptance_4_lemma_suite(capsys):
    t0 = time.perf_counter()
    failures = []

    for k in range(1, 5):
        alphabet = Alphabet.numeric(k)
        for seq in iter_all_seqs(k, 8):
            w = Word(alphabet, seq)
            r = reduce_word(w)
            if reduce_word(r) != r:
                failures.append(("idempotence", seq))
            if r.occurring != w.occurring:
                failures.append(("letters", seq))

    for k in range(1, 5):
        for seq in iter_all_seqs(k, 6):
            normals = oracle_normal_forms(seq)
            if len(normals) != 1:
                failures.append(("confluence", seq))
            elif reduce_word(Word(Alphabet.numeric(k), seq)).seq != next(iter(normals)):
                failures.append(("normal-form", seq))

    checked, bad = check_lemma_map_reduce(3, 5, 3)
    failures += [("map-reduce",) + b for b in bad]
    assert checked > 10000
    checked, bad = check_lemma_restrict_reduce(4, 5)
    failures += [("restrict-reduce",) + b for b in bad]
    assert checked > 10000
    checked, bad = check_lemma_map_restrict(3, 4, 3)
    failures += [("map-restrict",) + b for b in bad]
    assert checked > 10000

    for k in range(1, 5):
        subsets = [
            s for r in range(1, k + 1) for s in itertools.combinations(range(k), r)
        ]
        for seq in iter_all_seqs(k, 6):
            w = Word(Alphabet.numeric(k), seq)
            if not is_noncrossing(w):
                continue
            for s in subsets:
                if not w.occurring.intersection(s):
                    continue
                if not is_noncrossing(restrict(w, s)):
                    failures.append(("restriction-noncrossing", seq, s))

    finish(capsys, 4, failures, t0, budget=30.0)


def test_acceptance_5_counting(capsys):
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 11):
        count = len(enumerate_nc_partitions(n))
        if count != CATALAN[n]:
            failures.append(("catalan", n, count))
    for n in range(1, 9):
        count = len(enumerate_canonical_surjections(n))
        if count != BELL[n]:
            failures.append(("bell", n, count))
    finish(capsys, 5, failures, t0, budget=10.0)


def test_acceptance_6_free_cumulants_two_routes(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(600)
    tables = 0

    for _ in range(140):
        E = single_var_table(rng, 7)
        table = CumulantTable(E)
        tables += 1
        kappas = []
        for n in range(1, 8):
            via_word = table.free_cumulant(("v",) * n)
            direct = free_cumulant_direct(E, ("v",) * n)
            if via_word != direct:
                failures.append(("oracle", tables, n))
            kappas.append(via_word)
        moments = moments_from_free_cumulants(kappas)
        for n in range(1, 8):
            if moments[n] != E.expect(("v",) * n):
                failures.append(("round-trip", tables, n))

    for _ in range(70):
        E = two_var_table(rng, 7)
        table = CumulantTable(E)
        tables += 1
        for _ in range(3):
            args = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 7)))
            if table.free_cumulant(args) != free_cumulant_direct(E, args):
                failures.append(("oracle-mixed", tables, args))
        for n in range(1, 6):
            args = tuple(rng.choice(("a", "b")) for _ in range(n))
            total = Fraction(0)
            for part in enumerate_nc_partitions(n):
                prod = Fraction(1)
                for block in part.blocks():
                    prod *= table.free_cumulant(tuple(args[e - 1] for e in block))
                total += prod
            if total != E.expect(args):
                failures.append(("forward-mixed", tables, args))

    assert tables >= 200
    finish(capsys, 6, failures, t0, budget=60.0)


def test_acceptance_7_boolean_from_peak_words(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(700)

    for i in range(40):
        E = single_var_table(rng, 6)
        table = CumulantTable(E)
        for n in range(1, 7):
            peak = table.word_cumulant(peak_word(n), ("v",) * n)
            if peak != boolean_cumulant(E, ("v",) * n):
                failures.append(("single", i, n))

    for i in range(20):
        E = two_var_table(rng, 6)
        table = CumulantTable(E)
        for n in range(1, 7):
            args = tuple(rng.choice(("a", "b")) for _ in range(n))
            if table.word_cumulant(peak_word(n), args) != boolean_cumulant(E, args):
                failures.append(("mixed", i, args))

    finish(capsys, 7, failures, t0, budget=30.0)


def test_acceptance_8_semicircle_law(capsys):
    t0 = time.perf_counter()
    failures = []

    E = semicircular_family([1])
    single = CumulantTable(E)
    moments = [E.expect(("x",) * n) for n in range(9)]
    if moments != [1, 0, 1, 0, 2, 0, 5, 0, 14]:
        failures.append(("moments", moments))
    for n in range(1, 9):
        kappa = single.free_cumulant(("x",) * n)
        expected = Fraction(1) if n == 2 else Fraction(0)
        if kappa != expected:
            failures.append(("kappa", n, kappa))

    pair = semicircular_family([1, 1], names=("a", "b"))
    mixed = CumulantTable(pair)
    for n in range(2, 7):
        for args in itertools.product(("a", "b"), repeat=n):
            if len(set(args)) < 2:
                continue
            if mixed.free_cumulant(args) != 0:
                failures.append(("mixed", args))

    finish(capsys, 8, failures, t0, budget=30.0)


def test_acceptance_9_classical_cumulants(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(900)

    for i in range(20):
        E = single_var_table(rng, 7)
        m = [None] + [E.expect(("v",) * n) for n in range(1, 8)]
        if classical_cumulant(E, ("v",) * 2) != m[2] - m[1] ** 2:
            failures.append(("c2", i))
        if classical_cumulant(E, ("v",) * 3) != m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3:
            failures.append(("c3", i))
        kappas = {n: classical_cumulant(E, ("v",) * n) for n in range(1, 8)}
        for n in range(1, 8):
            total = Fraction(0)
            for f in enumerate_canonical_surjections(n):
                prod = Fraction(1)
                for block in f.blocks():
                    prod *= kappas[len(block)]
                total += prod
            if total != m[n]:
                failures.append(("round-trip", i, n))

    finish(capsys, 9, failures, t0, budget=10.0)
