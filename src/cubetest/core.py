"""Hypercube primitives, deterministic randomness streams, and serialization.

Everything downstream works with three small building blocks:

* :class:`BitString` -- an immutable n-bit point of the hypercube, packed
  into a Python integer (coordinate ``i`` lives at bit ``i``), good for
  dimensions up to 4096.
* :class:`IndexSet` -- a validated subset of coordinates.
* :class:`RngStream` -- a stateless, counter-based random stream: the value
  of every draw is a pure function of ``(master_seed, domain_tag,
  call_index)``, so every run replays exactly; Monte-Carlo jobs split
  across workers by seed, never within a stream.

Coordinates are 0-based throughout the Python API; JSON serialization is
1-based (see :meth:`IndexSet.to_json`).
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from itertools import compress, count
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BitString",
    "IndexSet",
    "RngStream",
    "derive_generator",
]

_MASK64 = (1 << 64) - 1
_TOP = 1 << 64  # the range of one RNG word
_COUNTER = struct.Struct("<qq")  # (call index, attempt), hashed after a stream's prefix


class DimensionMismatchError(ValueError):
    """Raised when operands live on hypercubes of different dimension."""


class ResourceLimitError(RuntimeError):
    """Raised when an exact computation would exceed its configured cap."""


class BitString:
    """An immutable point of ``{0,1}^n``.

    Bits are packed into an arbitrary-precision integer; coordinate ``i``
    (0-based) is ``(bits >> i) & 1``.  Instances are hashable and can be
    used as dict keys / set members, which the transcript bookkeeping
    relies on.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        if bits < 0 or bits >> n:
            raise ValueError(f"bits 0x{bits:x} do not fit in {n} coordinates")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BitString is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_indices(cls, n: int, ones: Iterable[int]) -> "BitString":
        """Point with 1s exactly on ``ones`` (0-based coordinates)."""
        bits = 0
        for i in ones:
            if not 0 <= i < n:
                raise ValueError(f"coordinate {i} out of range for n={n}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def from_bits(cls, values: Sequence[int]) -> "BitString":
        """Point from an explicit 0/1 sequence, ``values[i]`` = coordinate i."""
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError(f"bit values must be 0/1, got {v!r}")
            bits |= int(v) << i
        return cls(len(values), bits)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        idx = np.flatnonzero(arr)
        bits = 0
        for i in idx:
            bits |= 1 << int(i)
        return cls(len(arr), bits)

    @classmethod
    def random(cls, n: int, rng: "RngStream") -> "BitString":
        """Uniform point: one draw per 64 coordinates, lowest first."""
        bits = 0
        for off in range(0, n, 64):
            bits |= (rng.draw(1 << min(64, n - off)) - 1) << off
        return cls(n, bits)

    # -- queries --------------------------------------------------------

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range for n={self.n}")
        return (self.bits >> i) & 1

    @property
    def weight(self) -> int:
        """Hamming weight, the number of 1-coordinates."""
        return self.bits.bit_count()

    def one_indices(self) -> tuple[int, ...]:
        return _set_bits(self.bits)

    def zero_indices(self) -> tuple[int, ...]:
        return _set_bits(self.bits ^ ((1 << self.n) - 1))

    def to_array(self) -> np.ndarray:
        """Boolean numpy array of the coordinates, built on each call."""
        raw = self.bits.to_bytes((self.n + 7) // 8, "little")
        return np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=self.n, bitorder="little"
        ).astype(bool)

    # -- operations -----------------------------------------------------

    def flip(self, coords: "IndexSet | Iterable[int]") -> "BitString":
        """Flip every coordinate in ``coords``; involutive."""
        if isinstance(coords, IndexSet):
            if coords.n != self.n:
                raise DimensionMismatchError(
                    f"IndexSet over n={coords.n} applied to point with n={self.n}"
                )
            return BitString(self.n, self.bits ^ coords.mask)
        mask = 0
        for i in coords:
            if not 0 <= i < self.n:
                raise ValueError(f"coordinate {i} out of range for n={self.n}")
            mask |= 1 << i
        return BitString(self.n, self.bits ^ mask)

    def flip_one(self, i: int) -> "BitString":
        if not 0 <= i < self.n:
            raise ValueError(f"coordinate {i} out of range for n={self.n}")
        return BitString(self.n, self.bits ^ (1 << i))

    def xor(self, other: "BitString") -> "BitString":
        self._check_dim(other)
        return BitString(self.n, self.bits ^ other.bits)

    def precedes(self, other: "BitString") -> bool:
        """Strict coordinatewise order: every bit <= and not equal."""
        self._check_dim(other)
        return self.bits != other.bits and not (self.bits & ~other.bits)

    def _check_dim(self, other: "BitString") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.n} vs {other.n}"
            )

    # -- serialization ----------------------------------------------------

    def to_hex(self) -> str:
        """Hex digits, least-significant nibble = coordinates 0..3."""
        return format(self.bits, f"0{(self.n + 3) // 4}x")

    @classmethod
    def from_hex(cls, n: int, digits: str) -> "BitString":
        return cls(n, int(digits, 16))

    def to_json(self) -> dict:
        return {"n": self.n, "hex": self.to_hex()}

    @classmethod
    def from_json(cls, obj: dict) -> "BitString":
        return cls.from_hex(int(obj["n"]), obj["hex"])

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BitString({self.n}, 0x{self.to_hex()})"

    def __str__(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(bits: int) -> tuple[int, ...]:
    """Positions of the set bits of ``bits``, ascending: its binary digits,
    lowest first, as 0/1 bytes pick from the count 0, 1, 2, ..."""
    return tuple(compress(count(), format(bits, "b")[::-1].encode().translate(_BIT_VALUES)))


class IndexSet:
    """A validated subset of the coordinates ``0..n-1``.

    Internally 0-based; JSON serialization converts to 1-based members.
    """

    __slots__ = ("n", "members", "mask")

    def __init__(self, n: int, members: Iterable[int]):
        ms = frozenset(int(i) for i in members)
        for i in ms:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for n={n}")
        mask = 0
        for i in ms:
            mask |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", ms)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("IndexSet is immutable")

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"IndexSet({self.n}, {sorted(self.members)})"

    def to_json(self) -> dict:
        return {"n": self.n, "members": [i + 1 for i in sorted(self.members)]}

    @classmethod
    def from_json(cls, obj: dict) -> "IndexSet":
        return cls(int(obj["n"]), [int(i) - 1 for i in obj["members"]])


def check_band(n: int, lo: float, hi: float) -> None:
    """Refuse a weight band ``[lo, hi]`` that holds no weight of ``0..n``,
    where a sampler that rejects points outside it would never stop.
    Infinite edges are allowed; a NaN edge holds no weight."""
    if not (lo <= n and hi >= 0 and math.ceil(max(lo, 0)) <= min(hi, n)):
        raise ValueError(f"no weight of 0..{n} lies in the band [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------


def _path_bytes(master_seed: int, parts: tuple) -> bytes:
    out = [struct.pack("<Q", master_seed & _MASK64)]
    for p in parts:
        if isinstance(p, str):
            enc = p.encode("utf-8")
            out.append(b"s" + struct.pack("<I", len(enc)) + enc)
        elif isinstance(p, (int, np.integer)):
            out.append(b"i" + struct.pack("<q", int(p)))
        else:
            raise TypeError(f"stream path components must be str/int, got {p!r}")
    return b"".join(out)


def derive_key(master_seed: int, *path: int | str) -> int:
    """128-bit key derived from a seed and a typed path, via BLAKE2b."""
    h = hashlib.blake2b(_path_bytes(master_seed, path), digest_size=16)
    return int.from_bytes(h.digest(), "little")


def derive_generator(master_seed: int, *path: int | str) -> np.random.Generator:
    """Counter-based numpy generator keyed by ``(master_seed, *path)``.

    Philox is a pure integer-arithmetic counter generator, so the stream is
    reproducible across platforms.  Each call returns a new, independent
    generator.  The family samplers take the same streams from
    :func:`_rekeyed_generator`, to derive terms/clauses/dictators
    independently per index without materializing anything up front.
    """
    return np.random.Generator(np.random.Philox(key=derive_key(master_seed, *path)))


_ZERO4 = np.zeros(4, dtype=np.uint64)
_rekeyed = threading.local()  # one Philox and its Generator per thread


def _rekeyed_generator(master_seed: int, *path: int | str) -> np.random.Generator:
    """The stream of :func:`derive_generator`, from a reused generator.

    Building a ``Philox`` costs several times as much as keying one, so
    each thread keeps one and sets the state of a fresh ``Philox(key=...)``
    on it: counter 0, an empty buffer and no saved 32-bit half.  The
    generator is the same object on the next call in this thread, so the
    caller must take its draws before that call.
    """
    gen = getattr(_rekeyed, "gen", None)
    if gen is None:
        gen = _rekeyed.gen = np.random.Generator(np.random.Philox(0))
    key = derive_key(master_seed, *path)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": np.array([key & _MASK64, key >> 64], np.uint64)},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


class RngStream:
    """Stateless keyed random stream.

    Each call to :meth:`draw` hashes ``(master_seed, domain_tag,
    call_index)`` with BLAKE2b, so equal parameters replay byte-identical
    sequences on any platform, and streams with distinct ``domain_tag``
    are statistically independent.
    """

    __slots__ = ("master_seed", "domain_tag", "_calls", "_hasher")

    def __init__(self, master_seed: int, domain_tag: str = ""):
        self.master_seed = int(master_seed)
        self.domain_tag = domain_tag
        self._calls = 0
        self._hasher = hashlib.blake2b(_path_bytes(self.master_seed, (domain_tag,)), digest_size=8)

    # a hash object cannot be pickled: the state drops it, __init__ rebuilds it
    def __getstate__(self) -> tuple[int, str, int]:
        return self.master_seed, self.domain_tag, self._calls

    def __setstate__(self, state: tuple[int, str, int]) -> None:
        master_seed, domain_tag, calls = state
        self.__init__(master_seed, domain_tag)
        self._calls = calls

    def _word(self, call_index: int, attempt: int) -> int:
        """BLAKE2b of the prefix and the counter, hashing the prefix once."""
        h = self._hasher.copy()
        h.update(_COUNTER.pack(call_index, attempt))
        return int.from_bytes(h.digest(), "little")

    def _accept(self, call_index: int, upper: int, word: int) -> int:
        """The draw of call ``call_index`` in ``1..upper``, from its attempt-0
        ``word``: a word at or above the largest multiple of ``upper`` below
        ``2**64`` is rejected and the next attempt hashed."""
        limit = _TOP - _TOP % upper
        attempt = 0
        while word >= limit:
            attempt += 1
            word = self._word(call_index, attempt)
        return word % upper + 1

    def draw(self, upper: int) -> int:
        """Uniform integer in ``1..upper`` (matching the 1-based set [m]),
        for ``1 <= upper <= 2**64``."""
        if not 1 <= upper <= 1 << 64:
            raise ValueError(f"range must be in 1..2**64, got {upper}")
        idx = self._calls
        self._calls += 1
        if upper == 1:
            return 1
        return self._accept(idx, upper, self._word(idx, 0))

    def _draws(self, uppers: Sequence[int]) -> list[int]:
        """``[self.draw(u) for u in uppers]``, for ``1 <= u <= 2**64``: the
        attempt-0 words of the calls hashed in one loop.  A word below
        ``2**64 - u`` is below every rejection limit, so it is taken as
        ``w % u + 1``; only a word at or above it goes through
        :meth:`_accept`.  An upper of 1 takes its call index unhashed."""
        idx = self._calls
        self._calls = idx + len(uppers)
        copy, pack, from_bytes = self._hasher.copy, _COUNTER.pack, int.from_bytes
        out = []
        for upper in uppers:
            if upper == 1:
                out.append(1)
            else:
                h = copy()
                h.update(pack(idx, 0))
                w = from_bytes(h.digest(), "little")
                out.append(w % upper + 1 if w < _TOP - upper else self._accept(idx, upper, w))
            idx += 1
        return out

    def band_points(self, n: int, lo: float, hi: float, count: int) -> np.ndarray:
        """The first ``count`` points that successive :meth:`BitString.random`
        calls draw with weight in ``[lo, hi]``.

        Returns a ``(count, ceil(n/64))`` ``uint64`` array, one row per
        point, lowest word first.  Every word is attempt 0 of its call (a
        power-of-two range never rejects).  Words are hashed in blocks of as
        many points as are still needed, so the last block is taken whole and
        the stream is left just after the last point taken.
        """
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        check_band(n, lo, hi)
        words = -(-n // 64)
        masks = np.array([(1 << min(64, n - off)) - 1 for off in range(0, n, 64)], np.uint64)
        copy, pack = self._hasher.copy, _COUNTER.pack
        blocks = [np.empty((0, words), np.uint64)]
        need = count
        while need > 0:
            start = self._calls
            self._calls += need * words
            digests = []
            for idx in range(start, self._calls):
                h = copy()
                h.update(pack(idx, 0))
                digests.append(h.digest())
            block = np.frombuffer(b"".join(digests), "<u8").reshape(need, words) & masks
            weight = np.bitwise_count(block).sum(axis=1)
            blocks.append(block[(weight >= lo) & (weight <= hi)])
            need -= len(blocks[-1])
        return np.concatenate(blocks)

    def randint0(self, upper: int) -> int:
        """Uniform integer in ``0..upper-1``."""
        return self.draw(upper) - 1

    def sample_without_replacement(self, pool: Sequence[int], k: int) -> list[int]:
        """k distinct elements of ``pool``, order-stable partial Fisher-Yates:
        step ``i`` swaps in item ``i + randint0(len(pool) - i)``."""
        if k > len(pool):
            raise ValueError(f"cannot sample {k} from pool of {len(pool)}")
        items = list(pool)
        i = 0
        for d in self._draws(range(len(items), len(items) - k, -1)):
            j = i + d - 1
            items[i], items[j] = items[j], items[i]
            i += 1
        return items[:k]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the top: step ``i`` swaps item ``i`` with item
        ``randint0(i + 1)``, for ``i = len(items) - 1`` down to 1."""
        top = len(items) - 1
        for i, d in zip(range(top, 0, -1), self._draws(range(top + 1, 1, -1))):
            j = d - 1
            items[i], items[j] = items[j], items[i]

    def __repr__(self) -> str:
        return (
            f"RngStream(seed={self.master_seed}, tag={self.domain_tag!r}, "
            f"calls={self._calls})"
        )
