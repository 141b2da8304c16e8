"""Command line front end.

One subcommand per library operation; output is deterministic and
scriptable.  Exit codes: 0 on success, 1 on invalid input, a usage
error or a search past Python's recursion limit, 2 on a missing moment.

``cumulants --up-to N`` runs a closed recursion on one variable's moment
sequence for every kind: ``boolean_cumulant`` and ``classical_cumulant``
per order, and for ``--kind free`` the inversion ``_free_from_moments``
of all the orders that the table defines, so no batch lists the
non-crossing partitions behind ``CumulantTable``, the route of a single
query.  Each order is built when its turn comes, and a batch that meets
a missing moment prints the orders before it, then its error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from typing import Iterator, NoReturn

from .cumulants import (
    CumulantTable,
    _free_from_moments,
    boolean_cumulant,
    classical_cumulant,
    moments_from_free_cumulants,
)
from .probability import (
    MissingMomentError,
    MomentFunctional,
    MomentTableError,
    _load_cumulants,
    format_rational,
    load_moments,
)
from .words import (
    Alphabet,
    _check_size,
    _echo,
    enumerate_nc_basis,
    enumerate_word_basis,
    is_noncrossing,
    is_pangrammatic,
    is_reduced,
    parse_word,
    random_basis_word,
    reduce_word,
    render_word,
)
from .surjections import enumerate_canonical_surjections, enumerate_nc_partitions


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through ``add_subparsers`` each of its
    subcommands' parsers, that reports a usage error on one line,
    ``error: <message>``, and exits 1."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ncwords",
        description="Non-crossing words, their cooperadic decomposition, and cumulants.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # Each subcommand binds its handler, which main calls as ns.run(ns).
    sp = sub.add_parser("reduce", help="reduce a word to normal form")
    sp.add_argument("word")
    sp.set_defaults(run=_run_reduce)

    sp = sub.add_parser("check", help="report reduced / non-crossing / pangrammatic flags")
    sp.add_argument("word")
    sp.set_defaults(run=_run_check)

    sp = sub.add_parser("decompose", help="list the decomposition terms of a word")
    sp.add_argument("word")
    sp.add_argument("--nc", action="store_true", help="non-crossing decomposition")
    sp.set_defaults(run=_run_decompose)

    sp = sub.add_parser("coassoc", help="run coassociativity checks")
    sp.add_argument("--alphabet-size", type=int, required=True)
    sp.add_argument("--max-len", type=int, required=True)
    sp.add_argument("--nc", action="store_true", help="check the non-crossing cooperad")
    sp.add_argument("--samples", type=int, help="randomized mode: number of words")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(run=_run_coassoc)

    sp = sub.add_parser("ncpartitions", help="list non-crossing partitions of [N]")
    sp.add_argument("n", type=int)
    sp.add_argument("--count-only", action="store_true")
    sp.set_defaults(run=_run_listing, listing=enumerate_nc_partitions)

    sp = sub.add_parser("surjections", help="list canonical surjections from [N]")
    sp.add_argument("n", type=int)
    sp.set_defaults(run=_run_listing, listing=enumerate_canonical_surjections, count_only=False)

    sp = sub.add_parser("cumulants", help="evaluate a cumulant from a moment table")
    sp.add_argument("--moments", required=True, metavar="FILE")
    sp.add_argument("--kind", required=True, choices=["free", "boolean", "classical", "word"])
    sp.add_argument("--word", help="the word, for --kind word")
    sp.add_argument("--args", required=True, help="comma-separated variable names")
    sp.add_argument("--json", action="store_true", dest="as_json")
    sp.add_argument(
        "--up-to",
        type=int,
        help="batch mode: one record per order 1..N for a single variable",
    )
    sp.set_defaults(run=_run_cumulants)

    sp = sub.add_parser("moments", help="moments from a free cumulant table")
    sp.add_argument("--cumulants", required=True, metavar="FILE")
    sp.add_argument("--up-to", type=int, required=True)
    sp.set_defaults(run=_run_moments)
    return p


def _run_reduce(ns: argparse.Namespace) -> int:
    w = parse_word(ns.word)
    print(render_word(reduce_word(w), prefer_chars="," not in ns.word))
    return 0


def _run_check(ns: argparse.Namespace) -> int:
    w = parse_word(ns.word)
    flags = {"reduced": is_reduced, "non-crossing": is_noncrossing, "pangrammatic": is_pangrammatic}
    for name, test in flags.items():
        print(f"{name}={'true' if test(w) else 'false'}")
    return 0


def _run_decompose(ns: argparse.Namespace) -> int:
    from .cooperad import _iter_terms, format_term

    w = parse_word(ns.word)
    prefer_chars = "," not in ns.word
    # Each term is printed as soon as it is built; none is kept.
    for term in _iter_terms(w, noncrossing=ns.nc):
        print(format_term(term, prefer_chars))
    return 0


def _run_listing(ns: argparse.Namespace) -> int:
    _check_size(ns.n, "N")
    found = ns.listing(ns.n)
    if ns.count_only:
        print(len(found))
    else:
        for f in found:
            print(f.block_notation())
    return 0


def _run_cumulants(ns: argparse.Namespace) -> int:
    E = load_moments(ns.moments)
    args = ns.args.split(",")
    if not all(args):
        raise ValueError(f"malformed --args {_echo(ns.args)}: empty variable name")
    for name in args:
        if name not in E.variables:
            raise ValueError(
                f"--args names {_echo(name)}, which is not a variable of {ns.moments}"
            )
    if ns.word is not None and ns.kind != "word":
        raise ValueError(f"--word does not apply to --kind {ns.kind}")
    w, extra = None, {}
    if ns.up_to is not None:
        if ns.kind == "word":
            raise ValueError("batch mode (--up-to) does not apply to --kind word")
        _check_size(ns.up_to, "--up-to")
        if len(args) != 1:
            raise ValueError("batch mode takes exactly one variable in --args")
    elif ns.kind == "word":
        if not ns.word:
            raise ValueError("--kind word requires --word")
        w = parse_word(ns.word)
        if len(args) != w.alphabet.size:
            raise ValueError(
                f"--args names {len(args)} variables but {_echo(ns.word)} has "
                f"{w.alphabet.size} letters"
            )
        extra = {"word": ns.word}
    table = CumulantTable(E)
    value_of = {
        "free": table.free_cumulant,
        "word": lambda tup: table.word_cumulant(w, tup),
        "boolean": lambda tup: boolean_cumulant(E, tup),
        "classical": lambda tup: classical_cumulant(E, tup),
    }[ns.kind]
    # One value per printed line, each computed when its turn comes, so a
    # batch that stops at a missing moment still shows the orders before it.
    if ns.up_to is None:
        values = [value_of(args)]
    elif ns.kind == "free":
        values = _free_batch(E, args[0], ns.up_to)
    else:
        values = (value_of(args * n) for n in range(1, ns.up_to + 1))
    for n, value in enumerate(values, start=1):
        tup = args if ns.up_to is None else args * n
        text = format_rational(value)
        if ns.as_json:
            print(json.dumps({"kind": ns.kind, "N": len(tup), "args": tup, "value": text, **extra}))
        else:
            print(text if ns.up_to is None else f"{n} {text}")
    return 0


def _free_batch(E: MomentFunctional, v: str, up_to: int) -> Iterator[Fraction]:
    """The free cumulants of ``v`` of orders ``1..up_to``, by the closed
    inversion of the moment sequence.  The moments are read in order up
    to the first missing one, ``E(v^j)``, whose error is raised after
    the cumulants of orders ``1..j-1``: the order and the first missing
    moment in which ``CumulantTable`` reports them."""
    moments, missing = [], None
    for n in range(1, up_to + 1):
        try:
            moments.append(E.expect((v,) * n))
        except MissingMomentError as exc:
            missing = exc
            break
    yield from _free_from_moments(moments)
    if missing is not None:
        raise missing


def _run_moments(ns: argparse.Namespace) -> int:
    by_order = _load_cumulants(ns.cumulants)
    _check_size(ns.up_to, "--up-to", low=0)
    missing = ns.up_to - sum([n <= ns.up_to for n in by_order])
    if missing:
        # The first missing orders, as many as fit in 64 characters.
        gaps = (n for n in itertools.count(1) if n not in by_order)
        shown = []
        while len(shown) < missing and len(str(shown)) <= 64:
            shown.append(next(gaps))
        text = str(shown)
        if len(text) > 64:
            text = f"[{', '.join(map(str, shown[:-1]))}, ...], {missing} in all,"
        raise MomentTableError(
            f"cumulant table {ns.cumulants}: missing orders {text} for --up-to {ns.up_to}"
        )
    kappas = [by_order[n] for n in range(1, ns.up_to + 1)]
    for n, m in enumerate(moments_from_free_cumulants(kappas)):
        print(f"{n} {format_rational(m)}")
    return 0


def _run_coassoc(ns: argparse.Namespace) -> int:
    from .cooperad import check_coassociativity

    _check_size(ns.alphabet_size, "--alphabet-size")
    _check_size(ns.max_len, "--max-len")
    label = "nc cooperad" if ns.nc else "word cooperad"
    if ns.samples is None:
        basis = enumerate_nc_basis if ns.nc else enumerate_word_basis
        words = (
            w for k in range(1, ns.alphabet_size + 1) for w in basis(Alphabet.numeric(k), ns.max_len)
        )
        what, tail = "words", ""
    else:
        _check_size(ns.samples, "--samples")
        # Drawn one at a time between checks, so that a sampler give-up
        # still follows the checks of the words drawn before it; each
        # size is drawn just before its word.
        rng = random.Random(ns.seed)
        sizes = (rng.randint(1, ns.alphabet_size) for _ in range(ns.samples))
        words = (random_basis_word(rng, k, max(k, ns.max_len), noncrossing=ns.nc) for k in sizes)
        what, tail = "random words", f", seed {ns.seed}"
    total = 0
    for w in words:
        if not check_coassociativity(w, noncrossing=ns.nc):
            print(f"FAIL coassociativity ({label}): word {render_word(w)}")
            return 1
        total += 1
    print(
        f"PASS coassociativity ({label}): {total} {what}, "
        f"alphabet size <= {ns.alphabet_size}, length <= {ns.max_len}{tail}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; _Parser exits 1 on a usage error.
        return 0 if not exc.code else 1
    try:
        return ns.run(ns)
    except MissingMomentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # A search deeper than Python's recursion limit: `surjections 1200`.
        message = "input too large for a recursive search (maximum recursion depth exceeded)"
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
