"""Words over finite alphabets and their reduction to normal form.

Conventions used throughout the package:

- An :class:`Alphabet` is an ordered finite set of letters.  Letters are
  identified by position, so letter ids are always the ints ``0..k-1``.
  Display names are presentation only: they drive parsing and rendering
  but never participate in equality.  Structurally, two alphabets of the
  same size are interchangeable, which is what makes relabelling
  invariance a non-event at the data level.
- A :class:`Word` is a nonempty sequence of letter ids over its alphabet.
- :func:`reduce_word` rewrites a word to its unique normal form under the
  two rules "collapse an adjacent repeated letter" and "drop a final
  letter equal to the first"; :func:`reduce_seq` is the same rewrite on
  a plain id tuple, for inner loops that never build a :class:`Word`.
- :func:`restrict` deletes the letters outside a set and re-indexes the
  rest; :func:`restrict_seq` is the same operation on a plain id tuple.
- A word is *non-crossing* when no two distinct letters occur interleaved
  as ``a .. b .. a .. b``, and *reduced* when it is its own normal form.
  A *basis word* is pangrammatic and reduced; ``_check_basis_word``, the
  one check of the decompositions and cumulants, refuses other arguments.
- Each boundary rule has one owner here, which the other modules use
  too: ``_check_size``, that a size (an alphabet size, an enumerator's
  ``n``, a ``max_len``) is a plain ``int`` >= 1; ``_check_ints``, that
  letter ids and assignment values are plain ints, refusing ``bool`` as
  a likely mistake; ``_check_ids``, that letter ids are in range;
  ``_check_word``, that a function's word argument is a :class:`Word`;
  ``_first_occurrence``, the relabelling in order of first occurrence
  (a word's shape, a canonical assignment); and ``_echo``, which cuts a
  long input short in an error message.

All values are immutable and every operation returns a fresh word, so
everything here is safe for unrestricted concurrent use.  The package's
value types (:class:`Alphabet`, :class:`Word`, the canonical surjections
and the decomposition terms) are slotted classes on one frozen base,
``_Frozen``, which writes their fields and gives the rest of the field
protocol: equality, hashing, repr and pickling.  ``Alphabet`` is the one
equality override: it compares sizes, so a ``Word``, equal by its
fields, compares its alphabet by size.  Assigning or deleting a field
raises ``AttributeError``.  They are written out by hand so that
importing the package loads no class generator, nor the ``inspect`` and
``ast`` modules one needs.

Text syntax: a word is written either as single-character letters
(``"abcb"``) or as comma-separated multi-character letters
(``"a1,a2,a1,a3"``).  Rendering is deterministic and round-trips.
"""

from __future__ import annotations

import functools
import random
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")


class EmptyRestrictionError(ValueError):
    """Raised when a restriction would delete every letter of a word."""


class CrossingWordError(ValueError):
    """Raised when a non-crossing operation receives a crossing word."""


class _Frozen:
    """Base of the package's value types.  A subclass lists its fields,
    in order, as its ``__slots__``; :meth:`__setstate__` writes them
    once, for ``__init__``, :func:`_trusted`, copying and pickling, and
    then they are neither assigned nor deleted.  Instances have no
    ``__dict__`` and take no weak references.  Equality, hashing and the
    repr compare, hash and show the field values in order; ``Alphabet``
    is the only type with its own equality and hash, and ``Alphabet``
    and ``Word`` show their own repr."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # Bound once per class: each field's slot descriptor, whose
        # __set__ skips the frozen __setattr__ and the per-field lookup
        # that object.__setattr__ makes; and a C-level getter of the
        # field values (a tuple, or the value of a lone field), which is
        # no method, so it is called as ``self._values(self)``.
        cls._setters = {name: getattr(cls, name).__set__ for name in cls.__slots__}
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict[str, object]:
        # The fields by name.  A pickle written when the fields lived in
        # each instance's __dict__ holds the same state, so pickles load
        # in both layouts; and pickle protocols 0 and 1 take a slotted
        # class only through its own __getstate__.
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, fields: Mapping[str, object]) -> None:
        setters = self._setters
        for name, value in fields.items():
            setters[name](self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = [f"{name}={getattr(self, name)!r}" for name in self.__slots__]
        return f"{type(self).__name__}({', '.join(shown)})"


def _trusted(cls: type[T], **fields: object) -> T:
    """An instance of ``cls``, a :class:`_Frozen` subclass, with the
    given fields, built without ``__init__``.  Only for values that are
    valid by construction, with every field a tuple where the class
    would convert it to one; public constructors keep every check."""
    obj = object.__new__(cls)
    obj.__setstate__(fields)
    return obj


class Alphabet(_Frozen):
    """An ordered finite set of letters with ids ``0..k-1``.

    Equality and hashing use only the size: names are presentation.
    """

    __slots__ = ("names",)
    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("alphabet must contain at least one letter")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate letter names in alphabet: {_echo(names)}")
        if any(not isinstance(n, str) or not n or "," in n for n in names):
            raise ValueError(f"letter names must be nonempty and comma-free: {_echo(names)}")
        self.__setstate__({"names": names})

    @classmethod
    def numeric(cls, k: int) -> "Alphabet":
        """The alphabet ``1, 2, ..., k`` with numeric display names.

        Returns a shared frozen instance, one per ``k`` among the 32
        sizes most recently asked for (``_SHARED_SIZE``).
        """
        _check_size(k, "alphabet size")
        return _numeric(cls, k)

    @property
    def size(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.size == other.size

    def __hash__(self) -> int:
        return hash(("Alphabet", self.size))

    def __repr__(self) -> str:
        return f"Alphabet({','.join(self.names)})"


# Entries in each cache of shared frozen values, the numeric alphabets
# and the peak words, by size: queries and enumerations ask for a few
# small sizes again and again.
_SHARED_SIZE = 32


# Typed, as the enumerators' cache is, so that ``True`` is never served
# the entry of ``1``, even if a caller skips the size check.
@functools.lru_cache(maxsize=_SHARED_SIZE, typed=True)
def _numeric(cls: type[Alphabet], k: int) -> Alphabet:
    return cls(tuple(str(i) for i in range(1, k + 1)))


class Word(_Frozen):
    """A nonempty sequence of letters from a finite alphabet.

    Equality and hashing come from the fields, the alphabet and the id
    sequence; as alphabets compare by size, display names do not matter.
    """

    __slots__ = ("alphabet", "seq")
    alphabet: Alphabet
    seq: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, seq: Iterable[int]) -> None:
        if type(seq) is not tuple:
            seq = tuple(seq)
        if not seq:
            raise ValueError("a word must be a nonempty sequence of letters")
        _check_ints(seq, "letter ids")
        if not isinstance(alphabet, Alphabet):
            raise TypeError(f"alphabet must be an Alphabet, got {_echo(alphabet)}")
        _check_ids(seq, alphabet.size)
        self.__setstate__({"alphabet": alphabet, "seq": seq})

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def occurring(self) -> frozenset[int]:
        """The set of letter ids that actually occur."""
        return frozenset(self.seq)

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"Word({render_word(self)!r}, k={self.alphabet.size})"


# The most characters of a value that an error message echoes, so that
# a value of thousands of characters still gives a short line.
_ECHO = 64


def _echo(value: object) -> str:
    """``repr(value)`` for an error message.  A string longer than
    ``_ECHO`` characters shows as its first ``_ECHO`` and its length,
    ``'1111…' (4303 characters)``; another value whose repr is longer
    shows as that much of the repr and the repr's length."""
    if not isinstance(value, str):
        text = repr(value)
        return text if len(text) <= _ECHO else f"{text[:_ECHO]}… ({len(text)} characters)"
    if len(value) <= _ECHO:
        return repr(value)
    return f"{value[:_ECHO] + '…'!r} ({len(value)} characters)"


def _check_size(value: object, name: str, low: int = 1) -> None:
    """Refuse a size that is not a plain ``int`` (``bool`` included)
    at least ``low``, naming it ``name``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {_echo(value)}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _check_ints(values: Sequence[object], what: str) -> None:
    """Refuse values that are not all plain ``int`` (``bool`` included)."""
    if not {int}.issuperset(map(type, values)):
        raise TypeError(f"{what} must be ints, got {_echo(values)}")


def _check_ids(ids: Sequence[int], k: int) -> None:
    """Refuse int letter ids outside ``0..k-1``."""
    if ids and (min(ids) < 0 or max(ids) >= k):
        raise ValueError(f"letter ids {_echo(ids)} out of range for alphabet of size {k}")


def _check_word(w: object, what: str) -> None:
    """Refuse a word argument ``w`` of the function ``what`` that is
    not a :class:`Word`."""
    if not isinstance(w, Word):
        raise TypeError(f"{what} takes a Word, got {type(w).__name__}")


def _first_occurrence(seq: Iterable[object], start: int = 0) -> tuple[int, ...]:
    """``seq`` relabelled ``start, start + 1, ...`` in order of first occurrence."""
    label: dict[object, int] = {}
    return tuple([label.setdefault(x, len(label) + start) for x in seq])


def parse_word(text: str) -> Word:
    """Parse a word from text, building its alphabet by first occurrence.

    Single characters are letters unless the text contains a comma, in
    which case letters are the comma-separated fields.

    >>> parse_word("abcb").seq
    (0, 1, 2, 1)
    >>> parse_word("a1,a2,a1,a3").alphabet.names
    ('a1', 'a2', 'a3')
    """
    if not text:
        raise ValueError("empty word")
    names = text.split(",") if "," in text else list(text)
    if any(not n for n in names):
        raise ValueError(f"malformed word {_echo(text)}: empty letter name")
    return Word(Alphabet(tuple(dict.fromkeys(names))), _first_occurrence(names))


def render_word(w: Word, prefer_chars: bool = True) -> str:
    """Render a word back to text.

    Uses the compact single-character syntax when ``prefer_chars`` is set
    and every letter name is a single character; otherwise letters are
    comma-separated.
    """
    _check_word(w, "render_word")
    names = [w.alphabet.names[i] for i in w.seq]
    if prefer_chars and all(len(n) == 1 for n in names):
        return "".join(names)
    return ",".join(names)


def is_reduced(w: Word) -> bool:
    """Whether the word is its own normal form (see :func:`reduce_seq`)."""
    _check_word(w, "is_reduced")
    return reduce_seq(w.seq) == w.seq


def is_pangrammatic(w: Word) -> bool:
    """Whether every letter of the alphabet occurs in the word."""
    _check_word(w, "is_pangrammatic")
    return len(w.occurring) == w.alphabet.size


def is_noncrossing_seq(seq: Sequence[int]) -> bool:
    """Whether an id sequence avoids the pattern ``a .. b .. a .. b``.

    Single left-to-right scan over a stack of open letters: a first
    occurrence is pushed, and a later one must find its letter open and
    closes every letter above it for good.  Letters are labelled in
    order of first occurrence, so labels grow up the stack, and one int
    holds it as the bit set of open labels.
    """
    label: dict[int, int] = {}
    stack = 0
    for x in seq:
        b = label.get(x)
        if b is None:
            stack |= 1 << label.setdefault(x, len(label))
        elif stack >> b & 1:
            stack &= (2 << b) - 1
        else:
            return False
    return True


def is_noncrossing(w: Word) -> bool:
    """Whether the word avoids ``a .. b .. a .. b`` for all distinct a, b.

    >>> is_noncrossing(parse_word("abab"))
    False
    >>> is_noncrossing(parse_word("abcb"))
    True
    """
    _check_word(w, "is_noncrossing")
    return is_noncrossing_seq(w.seq)


def reduce_seq(seq: Sequence[int]) -> tuple[int, ...]:
    """The reduced normal form of a nonempty id sequence.

    Collapses adjacent repeats, then drops a final letter equal to the
    first.  The result is the unique minimal sequence reachable by the
    two rewrite rules; uniqueness is exercised exhaustively in the test
    suite.  Every letter of the input survives.

    >>> reduce_seq((0, 0, 1, 2, 0))
    (0, 1, 2)
    """
    out = [seq[0]]
    for x in seq[1:]:
        if x != out[-1]:
            out.append(x)
    # With no adjacent repeats left, the letter before a dropped final
    # letter differs from it, hence from the first letter: one drop is
    # the most there can be, and it creates no new repeat.
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


def reduce_word(w: Word) -> Word:
    """Rewrite a word to its reduced normal form (see :func:`reduce_seq`).

    >>> str(reduce_word(parse_word("aabca")))
    'abc'
    >>> str(reduce_word(parse_word("abba")))
    'ab'
    """
    _check_word(w, "reduce_word")
    return Word(w.alphabet, reduce_seq(w.seq))


def restrict(w: Word, keep: Iterable[int]) -> Word:
    """Delete every letter outside ``keep``; the result lives on the
    sub-alphabet ``keep`` (re-indexed in increasing id order).

    Raises :class:`EmptyRestrictionError` if no letter of the word lies
    in ``keep``.

    >>> str(restrict(parse_word("abcab"), [0, 1]))
    'abab'
    """
    _check_word(w, "restrict")
    keep = list(keep)
    _check_ints(keep, "letter ids to keep")
    ids = sorted(set(keep))
    names = w.alphabet.names
    _check_ids(ids, len(names))
    sub = Alphabet(tuple(names[i] for i in ids))
    kept = restrict_seq(w.seq, ids)
    if not kept:
        raise EmptyRestrictionError(
            f"restriction of {_echo(render_word(w))} to letter ids {_echo(ids)} deletes every letter"
        )
    return Word(sub, kept)


def restrict_seq(seq: Sequence[int], ids: Sequence[int]) -> tuple[int, ...]:
    """Delete every letter of ``seq`` outside ``ids`` (increasing) and
    relabel letter ``ids[r]`` as ``r``.  The result may be empty.

    >>> restrict_seq((0, 1, 2, 0, 1), (0, 1))
    (0, 1, 0, 1)
    """
    rank = {x: r for r, x in enumerate(ids)}
    return tuple(rank[x] for x in seq if x in rank)


def _check_basis_word(w: Word, what: str, noncrossing: bool = False) -> None:
    """Raise unless ``w``, the word argument of the function ``what``,
    is a :class:`Word` that is pangrammatic, reduced and, with
    ``noncrossing`` set, non-crossing (:class:`CrossingWordError`)."""
    _check_word(w, what)
    if not is_pangrammatic(w):
        raise ValueError(f"word {_echo(render_word(w))} does not use every alphabet letter")
    if not is_reduced(w):
        raise ValueError(f"word {_echo(render_word(w))} is not reduced")
    if noncrossing and not is_noncrossing(w):
        raise CrossingWordError(f"word {_echo(render_word(w))} is crossing")


def apply_map(
    w: Word,
    mapping: Mapping[int, int] | Callable[[int], int],
    target: Alphabet,
) -> Word:
    """Apply a letterwise map of alphabets to a word.

    ``mapping`` sends source letter ids to target letter ids and must be
    total on the word's alphabet.  The image has the same length.
    """
    _check_word(w, "apply_map")
    get = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
    try:
        seq = tuple(get(x) for x in w.seq)
    except KeyError as exc:
        raise ValueError(f"map undefined on letter id {exc.args[0]}") from None
    return Word(target, seq)


def _basis_dfs(alphabet: Alphabet, max_len: int | None, noncrossing: bool) -> list[Word]:
    # Preorder DFS over no-adjacent-repeat sequences yields words in
    # lexicographic order of their id sequences.  ``nxt`` holds the next
    # letter to try at each depth: an explicit stack, so long words stay
    # clear of the recursion limit, in memory linear in the depth.
    if not isinstance(alphabet, Alphabet):
        raise TypeError(f"alphabet must be an Alphabet, got {_echo(alphabet)}")
    k = alphabet.size
    if max_len is None and noncrossing:
        max_len = max(1, 2 * k - 2)
    _check_size(max_len, "max_len")
    out: list[Word] = []
    seq: list[int] = []
    nxt = [0]
    while nxt:
        x = nxt[-1]
        if x == k:
            nxt.pop()
            if seq:
                seq.pop()
            continue
        nxt[-1] = x + 1
        if (seq and seq[-1] == x) or (noncrossing and not is_noncrossing_seq(seq + [x])):
            continue
        seq.append(x)
        if (len(seq) == 1 or seq[0] != seq[-1]) and len(set(seq)) == k:
            out.append(Word(alphabet, tuple(seq)))
        if len(seq) < max_len:
            nxt.append(0)
        else:
            seq.pop()
    return out


def enumerate_word_basis(alphabet: Alphabet, max_len: int) -> list[Word]:
    """All pangrammatic reduced words of length <= ``max_len``, in
    lexicographic order of their id sequences.

    Grows like ``k * (k-1)**(len-1)``; keep the bounds small.
    """
    return _basis_dfs(alphabet, max_len, noncrossing=False)


def enumerate_nc_basis(alphabet: Alphabet, max_len: int | None = None) -> list[Word]:
    """All pangrammatic reduced non-crossing words of length <= ``max_len``.

    ``max_len`` defaults to ``2k - 2`` (1 if ``k = 1``), the longest
    such word, so the default is the whole finite basis.  Proof for
    ``k >= 2``: the letter ``x`` whose first occurrence comes last
    occurs once, since a letter between two ``x`` occurred before and
    would alternate with it.  Deleting ``x``, then one of its neighbours
    if they are equal, or the last letter if it now equals the first,
    leaves such a word on the other ``k - 1`` letters, at most 2 letters
    shorter; on two letters only ``ab`` and ``ba`` qualify.
    """
    return _basis_dfs(alphabet, max_len, noncrossing=True)


def peak_word(n: int) -> Word:
    """The word ``1, 2, ..., n-1, n, n-1, ..., 3, 2`` (ascent then descent).

    >>> str(peak_word(3))
    '1232'
    >>> str(peak_word(1)), str(peak_word(2))
    ('1', '12')

    Returns a shared frozen instance on ``Alphabet.numeric(n)``, one
    per ``n`` among the 32 most recently asked for (``_SHARED_SIZE``).
    """
    _check_size(n, "n")
    return _peak_word(n)


@functools.lru_cache(maxsize=_SHARED_SIZE, typed=True)
def _peak_word(n: int) -> Word:
    return Word(Alphabet.numeric(n), tuple(range(n)) + tuple(range(n - 2, 0, -1)))


_DRAWS = 100_000


def random_basis_word(
    rng: random.Random,
    alphabet_size: int,
    max_len: int,
    noncrossing: bool = False,
) -> Word:
    """A uniformly seeded pangrammatic reduced word, by rejection.

    Used by the randomized coassociativity checks; deterministic for a
    given generator state.  Raises ``ValueError`` when no draw is a basis
    word, which happens when ``max_len`` barely fits ``k`` letters.
    """
    k = alphabet_size
    _check_size(k, "alphabet size")
    _check_size(max_len, "max_len")
    hi = min(max_len, 2 * k - 1) if noncrossing else max_len
    if hi < k:
        raise ValueError(f"max_len {max_len} cannot fit a pangrammatic word on {k} letters")
    alphabet = Alphabet.numeric(k)
    for _ in range(_DRAWS):
        n = rng.randint(k, hi)
        seq = [rng.randrange(k)]
        for _ in range(n - 1):
            x = rng.randrange(k - 1) if k > 1 else 0
            if k > 1 and x >= seq[-1]:
                x += 1
            seq.append(x)
        if len(seq) > 1 and seq[0] == seq[-1]:
            continue
        if len(set(seq)) != k:
            continue
        if noncrossing and not is_noncrossing_seq(seq):
            continue
        return Word(alphabet, tuple(seq))
    raise ValueError(
        f"rejection sampling found no basis word on k={k} letters"
        f" with max_len={max_len} in {_DRAWS} draws"
    )
