"""The three benchmark workloads: inputs from a seed, requests, checks.

Every workload is closed-loop with a single client: the next request is
sent when the previous one has returned and been checked.  Inputs are
generated here, from ``random.Random`` seeded by workload name and seed,
with no program code involved, so they stay the same when the program
changes.  Each request's output is checked against an independent route
outside the timed region; ``check`` returns an error message or ``None``.

Program functions are reached through their module attributes at call
time (``cooperad.decompose``), so a tracer that rebinds those attributes
sees every call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from ncwords import cooperad, cumulants, probability, surjections, words

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
WORK = BENCH.parent / ".bench_work"

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


# -- independent word routines (oracles) ---------------------------------


def _crosses(seq) -> bool:
    """Whether two distinct letters occur as a .. b .. a .. b."""
    for a in set(seq):
        for b in set(seq):
            if a == b:
                continue
            want = (a, b, a, b)
            matched = 0
            for x in seq:
                if x == want[matched]:
                    matched += 1
                    if matched == 4:
                        return True
    return False


def _normal_form(seq) -> tuple[int, ...]:
    out: list[int] = []
    for x in seq:
        if not out or out[-1] != x:
            out.append(x)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def _set_partitions(n: int):
    """Restricted growth strings of length n (0-based block labels)."""
    def grow(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            yield from grow(prefix + [v], max(top, v))
    yield from grow([], -1)


def _blocks(rgs) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
    for e, v in enumerate(rgs):
        out[v].append(e)
    return out


def _nc_decomposition(seq: tuple[int, ...], k: int) -> list:
    """The non-crossing decomposition of a word, as plain tuples, in no
    particular order: (assignment, outer, inners) per kept term."""
    out = []
    for rgs in _set_partitions(k):
        image = tuple(rgs[x] for x in seq)
        if _crosses(image):
            continue
        inners = []
        for block in _blocks(rgs):
            rank = {letter: i for i, letter in enumerate(block)}
            inners.append(_normal_form([rank[x] for x in seq if x in rank]))
        out.append((tuple(v + 1 for v in rgs), _normal_form(image), tuple(inners)))
    return sorted(out)


def _term_tuple(term) -> tuple:
    return (
        term.surjection.assignment,
        term.outer.seq,
        tuple(w.seq for w in term.inner),
    )


# -- cooperad-check ---------------------------------------------------------


class CooperadCheck:
    """One request: the coassociativity check on a pangrammatic reduced
    word with k in {4, 5}, then its non-crossing decomposition (for a
    non-crossing word) or its full decomposition with a crossing witness
    per term (for a crossing word)."""

    name = "cooperad-check"
    # Per block of 40 requests: 10 with k=5 and 30 with k=4; 30% of each
    # drawn non-crossing.  k=5 requests cost about 8x a k=4 one and form
    # the latency tail.
    MIX = [(5, True)] * 3 + [(5, False)] * 7 + [(4, True)] * 9 + [(4, False)] * 21
    POOL = 1200
    TRACE_PER_S = 6

    def __init__(self, seed: int) -> None:
        rng = _rng(self.name, seed)
        self.inputs: list[tuple[int, bool, tuple[int, ...]]] = []
        while len(self.inputs) < self.POOL:
            block = list(self.MIX)
            rng.shuffle(block)
            self.inputs.extend((k, nc, self._draw(rng, k, nc)) for k, nc in block)
        self.words = [words.Word(words.Alphabet.numeric(k), seq) for k, _, seq in self.inputs]

    @staticmethod
    def _draw(rng: random.Random, k: int, nc: bool) -> tuple[int, ...]:
        # Uniform length in k..2k, uniform letters without adjacent
        # repeats, rejected until reduced, pangrammatic and of the
        # requested crossing class.
        while True:
            seq = [rng.randrange(k)]
            for _ in range(rng.randint(k, 2 * k) - 1):
                x = rng.randrange(k - 1)
                seq.append(x + 1 if x >= seq[-1] else x)
            if seq[0] == seq[-1] or len(set(seq)) != k or _crosses(seq) == nc:
                continue
            return tuple(seq)

    def warm(self) -> None:
        for n in range(1, 6):
            surjections.enumerate_canonical_surjections(n)

    def request(self, i: int):
        k, nc, _ = self.inputs[i % len(self.inputs)]
        w = self.words[i % len(self.words)]
        ok = cooperad.check_coassociativity(w, noncrossing=nc)
        if nc:
            return ok, cooperad.decompose_noncrossing(w), None
        terms = cooperad.decompose(w)
        return ok, terms, [cooperad.crossing_ideal_witness(t) for t in terms]

    def digest(self, output):
        ok, terms, witnesses = output
        return ok, tuple(_term_tuple(t) for t in terms), witnesses and tuple(witnesses)

    def check(self, i: int, output) -> str | None:
        k, nc, seq = self.inputs[i % len(self.inputs)]
        ok, terms, witnesses = output
        if ok is not True:
            return f"coassociativity failed on {seq}"
        if nc:
            if sorted(_term_tuple(t) for t in terms) != _nc_decomposition(seq, k):
                return f"non-crossing decomposition of {seq} differs from the oracle"
            return None
        if len(terms) != BELL[k]:
            return f"crossing word {seq}: {len(terms)} terms, expected Bell({k})={BELL[k]}"
        if not all(w is True for w in witnesses):
            return f"crossing word {seq}: a term has no crossing witness"
        return None

    def close(self) -> None:
        pass


# -- cumulant-batch ------------------------------------------------------


class CumulantBatch:
    """One request: one moment table and a fresh ``CumulantTable``.
    Requests alternate between a single-variable table of order 7 and a
    two-variable table of order 6."""

    name = "cumulant-batch"
    POOL = 256
    TRACE_PER_S = 2
    # Argument lengths in the two-variable request, chosen so the two
    # request kinds cost about the same and the median falls inside one
    # cluster of latencies instead of between two.
    FREE_LENGTHS = (4, 5, 6, 6)
    PEAK_LENGTHS = (4, 5, 6, 6)

    def __init__(self, seed: int) -> None:
        rng = _rng(self.name, seed)
        self.inputs: list[tuple] = []
        for i in range(self.POOL):
            if i % 2 == 0:
                moments = {("v",) * n: _fraction(rng) for n in range(1, 8)}
                self.inputs.append(("single", moments, None, None))
            else:
                moments = {
                    t: _fraction(rng)
                    for n in range(1, 7)
                    for t in itertools.product(("a", "b"), repeat=n)
                }
                free = [tuple(rng.choice("ab") for _ in range(n)) for n in self.FREE_LENGTHS]
                peak = [tuple(rng.choice("ab") for _ in range(n)) for n in self.PEAK_LENGTHS]
                self.inputs.append(("pair", moments, free, peak))
        self.functionals = [
            probability.MomentFunctional(("v",) if kind == "single" else ("a", "b"), moments)
            for kind, moments, _, _ in self.inputs
        ]

    def warm(self) -> None:
        for n in range(1, 8):
            surjections.enumerate_canonical_surjections(n)
            surjections.enumerate_nc_partitions(n)

    def request(self, i: int):
        kind, _, free, peak = self.inputs[i % len(self.inputs)]
        E = self.functionals[i % len(self.functionals)]
        table = cumulants.CumulantTable(E)
        if kind == "single":
            kappas = [table.free_cumulant(("v",) * n) for n in range(1, 8)]
            booleans = [
                table.word_cumulant(words.peak_word(n), ("v",) * n) for n in range(1, 7)
            ]
            classical = [cumulants.classical_cumulant(E, ("v",) * n) for n in range(1, 8)]
            moments = cumulants.moments_from_free_cumulants(kappas)
            return kappas, booleans, classical, moments
        kappas = [table.free_cumulant(args) for args in free]
        booleans = [table.word_cumulant(words.peak_word(len(args)), args) for args in peak]
        return kappas, booleans

    def digest(self, output):
        return tuple(tuple(part) for part in output)

    def check(self, i: int, output) -> str | None:
        kind, moments, free, peak = self.inputs[i % len(self.inputs)]
        E = self.functionals[i % len(self.functionals)]
        if kind == "pair":
            kappas, booleans = output
            for args, value in zip(free, kappas):
                if value != cumulants.free_cumulant_direct(E, args):
                    return f"free cumulant {args} differs from free_cumulant_direct"
            for args, value in zip(peak, booleans):
                if value != cumulants.boolean_cumulant(E, args):
                    return f"peak-word cumulant {args} differs from boolean_cumulant"
            return None
        kappas, booleans, classical, forward = output
        m = [Fraction(1)] + [moments[("v",) * n] for n in range(1, 8)]
        for n, value in enumerate(kappas, start=1):
            if value != cumulants.free_cumulant_direct(E, ("v",) * n):
                return f"free cumulant of order {n} differs from free_cumulant_direct"
        if list(forward) != m:
            return "moments_from_free_cumulants does not return the moments"
        for n, value in enumerate(booleans, start=1):
            if value != cumulants.boolean_cumulant(E, ("v",) * n):
                return f"peak-word cumulant of order {n} differs from boolean_cumulant"
        for n in range(1, 8):
            total = Fraction(0)
            for rgs in _set_partitions(n):
                prod = Fraction(1)
                for block in _blocks(rgs):
                    prod *= classical[len(block) - 1]
                total += prod
            if total != m[n]:
                return f"classical cumulants fail the set-partition round trip at order {n}"
        return None

    def close(self) -> None:
        pass


# -- cli-cold ------------------------------------------------------------


class CliCold:
    """One request: ``ncwords cumulants --moments FILE --kind free
    --args v --up-to 8`` in a fresh interpreter, run through the
    benchmark's child entry, which calls ``ncwords.cli.main``."""

    name = "cli-cold"
    ORDER = 8
    POOL = 16
    TRACE_PER_S = 0.4

    def __init__(self, seed: int) -> None:
        rng = _rng(self.name, seed)
        self.inputs = [
            [_fraction(rng) for _ in range(self.ORDER)] for _ in range(self.POOL)
        ]
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK))
        self.paths = []
        for i, values in enumerate(self.inputs):
            path = self.dir / f"moments{i}.json"
            entries = [
                {"word": ["v"] * n, "value": f"{x.numerator}/{x.denominator}"}
                for n, x in enumerate(values, start=1)
            ]
            path.write_text(json.dumps({"vars": ["v"], "moments": entries}))
            self.paths.append(path)
        self.expected: dict[int, str] = {}
        self.out: Path | None = None  # set by the trace run: where a child reports
        self.traced = False

    def _argv(self, i: int, up_to: int) -> list[str]:
        return [
            sys.executable, str(CHILD), str(self.out or "-"), "1" if self.traced else "0",
            "cumulants", "--moments", str(self.paths[i % len(self.paths)]),
            "--kind", "free", "--args", "v", "--up-to", str(up_to),
        ]

    def warm(self) -> None:
        # One short command compiles the package's bytecode and fills the
        # file cache, as an installed package would have; nothing else
        # survives into the requests.
        self._spawn(self._argv(0, 1))

    @staticmethod
    def _spawn(argv: list[str]):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def request(self, i: int):
        return self._spawn(self._argv(i, self.ORDER))

    def digest(self, output):
        return output[:2]

    def _expected(self, i: int) -> str:
        j = i % len(self.inputs)
        if j not in self.expected:
            E = probability.MomentFunctional(
                ("v",), {("v",) * n: x for n, x in enumerate(self.inputs[j], start=1)}
            )
            kappas = [cumulants.free_cumulant_direct(E, ("v",) * n) for n in range(1, self.ORDER + 1)]
            if cumulants.moments_from_free_cumulants(kappas)[1:] != self.inputs[j]:
                raise AssertionError("free_cumulant_direct fails the moment round trip")
            self.expected[j] = "".join(
                f"{n} {k.numerator}/{k.denominator}\n" for n, k in enumerate(kappas, start=1)
            )
        return self.expected[j]

    def check(self, i: int, output) -> str | None:
        code, stdout, stderr = output
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        if stdout != self._expected(i):
            return f"stdout for table {i % len(self.inputs)} differs from in-process free cumulants"
        return None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


WORKLOADS = {cls.name: cls for cls in (CooperadCheck, CumulantBatch, CliCold)}
