"""The compact id-space: interned integer ids and bitset postings.

Everything hot in the indexed engine -- provider/demander/linked/holder
postings in :mod:`repro.core.index`, the per-signature parent member
sets of :mod:`repro.levels.parents`, the depth fixpoint's dirty cones
and bucket scans in :mod:`repro.levels.engine` -- is set algebra over
*names*: frozensets of ``str`` service names and
:class:`~repro.model.factors.CredentialFactor` members.  At the
10k-30k service tiers those objects dominate both time (hashing
strings per membership test) and memory (one boxed string reference
per posting entry).

This module interns the three hot key spaces onto dense integers so
the postings can live as **int bitmasks** (Python's arbitrary-width
ints are C-speed bitsets: union is ``|``, intersection ``&``,
cardinality ``int.bit_count``):

- service names -> :class:`Interner` ids, which *are* the monotone
  insertion ordinals of :class:`~repro.core.index.EcosystemIndex`
  (additions always receive a fresh maximum id, removals retire the id
  forever, so iterating a bitmask's set bits low-to-high reproduces
  graph insertion order at any version -- the contract the stream
  cursors of :mod:`repro.streams` watermark against);
- residual-factor signatures (frozensets of factors) ->
  :class:`SignatureInterner` ids, keying the parent member-set
  postings and the factor -> signatures reverse index;
- :class:`~repro.model.factors.CredentialFactor` members ->
  :data:`FACTOR_IDS` (a fixed enum-order table; factors are never
  retired), so a signature also has a canonical *factor bitmask*.

There is one service id-space, the ecosystem index's interner: every
service bitmask in every layer holds its ids.  A layer that absorbs
deltas lazily diffs :meth:`Interner.retired_mask` against the mask it
last saw and clears those bits first, since a removed and re-added
name comes back under a fresh id.

The masks are the only stored form; the frozenset-of-names accessors
of the index layers decode them on demand.  ``tests/test_ids.py`` pins the
interner lifecycle (retire-on-remove, fresh-max on re-add,
decode-after-retire) with Hypothesis mutation sequences and
``tests/test_dynamic_equivalence.py`` locks the mask-backed postings
bit-for-bit against scratch rebuilds.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.model.factors import CredentialFactor

__all__ = [
    "FACTOR_IDS",
    "FACTOR_OF_ID",
    "Interner",
    "SignatureInterner",
    "factor_mask",
    "factors_from_mask",
    "iter_ids",
    "mask_of",
]

KeyT = TypeVar("KeyT", bound=Hashable)

#: factor -> dense id, in enum definition order.  Factors are a closed
#: space (no retirement); the id doubles as the bit position of the
#: factor in a signature's factor bitmask.
FACTOR_IDS: Mapping[CredentialFactor, int] = {
    factor: position for position, factor in enumerate(CredentialFactor)
}

#: The decoding table of :data:`FACTOR_IDS`.
FACTOR_OF_ID: Tuple[CredentialFactor, ...] = tuple(CredentialFactor)


def factor_mask(factors: Iterable[CredentialFactor]) -> int:
    """The factor bitmask of a signature (bit ``FACTOR_IDS[f]`` per
    member)."""
    mask = 0
    for factor in factors:
        mask |= 1 << FACTOR_IDS[factor]
    return mask


def factors_from_mask(mask: int) -> FrozenSet[CredentialFactor]:
    """Decode a factor bitmask back to the signature frozenset."""
    return frozenset(FACTOR_OF_ID[position] for position in iter_ids(mask))


def mask_of(ids: Iterable[int]) -> int:
    """The bitmask with exactly the given bit positions set."""
    mask = 0
    for position in ids:
        mask |= 1 << position
    return mask


def iter_ids(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, lowest first.

    For service-id masks lowest-first *is* graph insertion order
    (ids are monotone insertion ordinals), which is what lets the
    decoding views reproduce the enumeration order of the seed's
    linear scans without keeping parallel ordered tuples.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Interner(Generic[KeyT]):
    """Dense monotone integer ids for hashable keys, with retirement.

    The id contract mirrors the monotone ordinal contract of
    :meth:`repro.core.index.EcosystemIndex.ordinal_of`:

    - :meth:`intern` assigns ids ``0, 1, 2, ...`` in first-intern order
      and is idempotent while the key is live;
    - :meth:`retire` retires a key's id **forever** -- re-interning the
      same key later assigns a fresh maximum id, never resurrects the
      old one;
    - :meth:`decode` keeps answering for retired ids (the decode table
      is append-only), so a historic mask or cursor watermark can
      always be rendered back to names.

    ``len()`` counts live keys; :attr:`high_water` is the total number
    of ids ever assigned (the width the bitmasks grow toward), and
    :meth:`retired_mask` the bitmask of every id retired so far.
    """

    __slots__ = ("_ids", "_keys", "_latest", "_retired")

    def __init__(self, keys: Iterable[KeyT] = ()) -> None:
        #: key -> live id (retired keys are absent).
        self._ids: Dict[KeyT, int] = {}
        #: id -> key, append-only (retired ids still decode).
        self._keys: List[KeyT] = []
        #: key -> most recent id ever assigned (survives retirement, so a
        #: maintenance pass that runs *after* a removal retired the id can
        #: still clear the right posting bits).
        self._latest: Dict[KeyT, int] = {}
        #: Bitmask of every retired id (only ever grows).
        self._retired: int = 0
        for key in keys:
            self.intern(key)

    def intern(self, key: KeyT) -> int:
        """The key's live id, assigning a fresh maximum if absent."""
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        assigned = len(self._keys)
        self._ids[key] = assigned
        self._keys.append(key)
        self._latest[key] = assigned
        return assigned

    def id_of(self, key: KeyT) -> int:
        """The key's live id (``KeyError`` when never interned or
        retired)."""
        return self._ids[key]

    def get(self, key: KeyT) -> Optional[int]:
        """The key's live id, or ``None``."""
        return self._ids.get(key)

    def decode(self, assigned: int) -> KeyT:
        """The key an id was assigned to (works for retired ids too)."""
        return self._keys[assigned]

    def retire(self, key: KeyT) -> int:
        """Retire the key's id forever; returns the retired id."""
        retired = self._ids.pop(key)
        self._retired |= 1 << retired
        return retired

    def latest_id(self, key: KeyT) -> int:
        """The most recent id ever assigned to the key, live or retired
        (``KeyError`` when never interned)."""
        return self._latest[key]

    def __contains__(self, key: object) -> bool:
        return key in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def high_water(self) -> int:
        """Total ids ever assigned (bitmask width; never shrinks)."""
        return len(self._keys)

    def live_mask(self) -> int:
        """The bitmask of every live id."""
        return mask_of(self._ids.values())

    def retired_mask(self) -> int:
        """The bitmask of every id retired so far; a consumer that
        absorbs deltas lazily diffs it against the mask it last saw."""
        return self._retired

    def decode_mask(self, mask: int) -> FrozenSet[str]:
        """Decode a bitmask of ids to the frozenset of keys."""
        keys = self._keys
        return frozenset(keys[position] for position in iter_ids(mask))

    def decode_mask_ordered(self, mask: int) -> Tuple[KeyT, ...]:
        """Decode a bitmask to keys in id (= first-intern) order."""
        keys = self._keys
        return tuple(keys[position] for position in iter_ids(mask))

    def encode(self, keys: Iterable[KeyT]) -> int:
        """The bitmask of the keys' live ids (all must be live)."""
        ids = self._ids
        mask = 0
        for key in keys:
            mask |= 1 << ids[key]
        return mask

    def encode_live(self, keys: Iterable[KeyT]) -> int:
        """Like :meth:`encode`, silently skipping non-live keys."""
        ids = self._ids
        mask = 0
        for key in keys:
            position = ids.get(key)
            if position is not None:
                mask |= 1 << position
        return mask


class SignatureInterner(Interner[FrozenSet[CredentialFactor]]):
    """An :class:`Interner` over residual-factor signatures.

    Adds the factor -> signature-id reverse postings the retraction
    path of :class:`~repro.levels.parents.SignatureParentsView` scans:
    ``containing(factor)`` is a bitmask over *signature ids*, so
    "every signature containing an affected factor" is a union of a
    few masks instead of a subset test per cached signature.
    """

    __slots__ = ("_containing",)

    def __init__(self) -> None:
        super().__init__()
        self._containing: Dict[CredentialFactor, int] = {}

    def intern(self, key: FrozenSet[CredentialFactor]) -> int:
        fresh = key not in self._ids
        assigned = super().intern(key)
        if fresh:
            bit = 1 << assigned
            for factor in key:
                self._containing[factor] = self._containing.get(factor, 0) | bit
        return assigned

    def containing(self, factor: CredentialFactor) -> int:
        """Bitmask of signature ids whose signature contains ``factor``
        (retired ids included; callers intersect with their live
        entries)."""
        return self._containing.get(factor, 0)

