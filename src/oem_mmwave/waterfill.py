"""Water-filling power allocation over the per-stream, per-mode SNR grid.

Channels are indexed (i, l): spatial stream i of OAM mode l.  Grids are
stored as (streams, modes) arrays and flattened mode-major (all streams
of mode 0, then mode 1, ...) wherever a linear channel order is needed;
the same order keys the per-channel random substreams so that configs
sharing a channel layout see identical fading draws.

``log 2`` below always means the natural logarithm of 2: the water
level is 1 / (mu* ln 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .config import _field_number
from .errors import DomainError, InvalidConfigError

LN2 = math.log(2.0)

# Fewest fading draws per channel an ergodic solve accepts.
MIN_SAMPLES = 1_000

# Most draws (channels x trials) one stage may hold: 2**27 float64 values
# are 1 GiB.  A sweep keeps at most two buffers of this size alive (the
# stage-0 draws and the stage-1 draws filled alongside them, or the
# stage-1 draws and the rate sums).  A curve's caller and its one worker
# thread, started once and joined when the curve returns, share them,
# drawing row halves of one array or summing trial halves into one, so
# the worker adds no buffer of this size.  A run stays within a
# few GiB and fails with a message, not a MemoryError, beyond that.  The
# 64x64 U=16 link at 10k trials uses 1e7 draws, 1/13 of the cap.  The
# channel build caps its layout and exact-sum tables at the same count.
MAX_DRAWS = 2**27

# Sorted reciprocals per block of the water-level search: the search holds
# one prefix sum per block and the cumulative sum of one block at a time.
_PREFIX_BLOCK = 4096

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx),
# whose PCG64 state words ``_seed_words`` computes for a block of rows.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)

GridLike = Union["SnrGrid", np.ndarray]


def _immutable(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` held in immutable bytes.

    No write to ``array`` reaches the copy, and neither the copy nor any
    base under it can be made writable, so a result kept for its values
    stays the result of those values.
    """
    return np.frombuffer(array.tobytes(), dtype=array.dtype).reshape(array.shape)


@dataclass(frozen=True, eq=False)
class SnrGrid:
    """Finite, nonnegative SNR weights gamma_{i,l}, shape (streams, modes); a vector is one mode.

    ``values`` is an immutable float copy of the real array passed in.
    ``_solve`` is the last ``waterfill_instantaneous`` solve on the grid,
    one tuple (budget, water level, read-only allocations) swapped in
    whole, so a thread reads either the old solve or the new one; None
    before any.  Grids compare and hash by identity, as an ndarray field
    has no single truth value.
    """

    values: np.ndarray
    _solve: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if np.iscomplexobj(v):
            raise InvalidConfigError("SNR grid entries must be real")
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise InvalidConfigError(f"SNR grid must be a vector or a matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise InvalidConfigError("SNR grid entries must be finite and nonnegative")
        object.__setattr__(self, "values", _immutable(v))


@dataclass(frozen=True, eq=False)
class PowerPolicy:
    """Result of one water-filling solve; compares and hashes by identity.

    allocations : nonnegative powers, same shape as the input grid.
    water_level : common value of P + 1/gamma on active channels,
        equal to 1/(mu* ln 2); 0 for the outage (all-off) policy.
    total_power : the power budget the solve was run against.
    """

    allocations: np.ndarray
    water_level: float
    total_power: float

    @property
    def active_set(self) -> tuple[tuple[int, int], ...]:
        """Sorted (i, l) index pairs with positive power."""
        streams, modes = np.nonzero(self.allocations)
        return tuple(zip(streams.tolist(), modes.tolist()))

    @property
    def mu_star(self) -> float:
        """Optimal multiplier of the power constraint."""
        if self.water_level <= 0.0:
            return math.inf
        return 1.0 / (self.water_level * LN2)

    @property
    def is_outage(self) -> bool:
        return not self.allocations.any()


def _grid(snr: GridLike) -> SnrGrid:
    """``snr`` itself if it is an ``SnrGrid``, else the checked grid of its values."""
    return snr if isinstance(snr, SnrGrid) else SnrGrid(snr)


def _check_power(total_power: float) -> None:
    """InvalidConfigError unless ``total_power`` is a positive, finite budget."""
    if not (math.isfinite(total_power) and total_power > 0.0):
        raise InvalidConfigError(f"total power must be positive and finite, got {total_power}")


def _check_nonnegative(value: int, noun: str) -> None:
    """InvalidConfigError unless ``value`` is an integer >= 0 (a numpy one too), not a bool."""
    _field_number(noun, value, integer=True)
    if value < 0:
        raise InvalidConfigError(f"{noun} must be nonnegative, got {value}")


def _check_samples(count: int, noun: str) -> None:
    _field_number(noun, count, integer=True)
    if count < MIN_SAMPLES:
        raise InvalidConfigError(f"need at least {MIN_SAMPLES} {noun}, got {count}")


def _prefix_level(inv: np.ndarray, heads: Sequence[float], total_power: float) -> float:
    """Exact water level of ``total_power`` over ascending reciprocals ``inv``.

    ``heads[j]`` is sum inv[:j*B], B = _PREFIX_BLOCK, for every block
    edge j*B below ``inv.size``.  Takes the largest prefix k whose level
    (P + C_k) / k, C_k = sum inv[:k], lies strictly above inv_k, so
    channels exactly at the level stay off and +inf entries (zero SNR)
    are never filled.  The test holds for every k up to that prefix and
    for none beyond, since C_k - k inv_k does not grow with k, so k is
    bisected first over the block edges, then within one block on its
    cumulative sum: on at most one block, one cumsum and one bisection.
    The probes read Python floats (``item``), the same doubles without
    numpy's scalar overhead.  The level of that prefix is then re-summed
    pairwise, which keeps the budget exact to rounding where the running
    sums have drifted.  Returns 0 when nothing can be filled; a level
    beyond the float range raises InvalidConfigError.
    """
    lo, hi = 0, len(heads) - 1
    while lo < hi:
        j = (lo + hi + 1) // 2
        if (total_power + heads[j]) / (j * _PREFIX_BLOCK) > inv.item(j * _PREFIX_BLOCK - 1):
            lo = j
        else:
            hi = j - 1
    start = lo * _PREFIX_BLOCK
    block = inv[start:start + _PREFIX_BLOCK]
    base = total_power + heads[lo]
    cums = np.add.accumulate(block)
    lo, hi = 0, block.size
    while lo < hi:
        k = (lo + hi + 1) // 2
        if (base + cums.item(k - 1)) / (start + k) > block.item(k - 1):
            lo = k
        else:
            hi = k - 1
    count = start + lo
    if count == 0:
        return 0.0
    level = float((total_power + inv[:count].sum()) / count)
    if not math.isfinite(level):
        raise InvalidConfigError(
            f"the water level of power budget {total_power:g} overflows the float range"
        )
    return level


def _reciprocal_levels(inv: np.ndarray, budgets: Sequence[float]) -> list[float]:
    """Exact water level of each of ``budgets`` over the flat reciprocals ``inv``.

    ``inv`` holds 1/|gamma| per channel, +inf for a zero SNR or a
    reciprocal that overflows; it is sorted in place, once, and its sums
    at the block edges of ``_prefix_level``, one pairwise sum per block
    accumulated over the blocks, serve every budget, so no full-length
    cumsum is held.  A +inf sorts last, where no level reaches it.  A
    level is 0 when nothing can be filled: no finite reciprocal, or a
    budget below the resolution of the best one.  A level that overflows
    raises InvalidConfigError.  Call it under ``np.errstate(over="ignore")``,
    which keeps sums that overflow on the way silent.
    """
    inv.sort()
    heads = (0.0,)
    if inv.size > _PREFIX_BLOCK:
        edges = (inv.size - 1) // _PREFIX_BLOCK
        sums = inv[:edges * _PREFIX_BLOCK].reshape(edges, _PREFIX_BLOCK).sum(axis=1)
        heads = (0.0, *np.cumsum(sums).tolist())
    return [_prefix_level(inv, heads, budget) for budget in budgets]


def _water_levels(values: np.ndarray, budgets: Sequence[float]) -> list[float]:
    """Exact water level of each of ``budgets`` over the nonnegative ``values``.

    The reciprocals 1/|value| are taken in the buffer of ``values``, which
    is overwritten, and handed to ``_reciprocal_levels``.  A zero (-0.0
    included) becomes +inf.  A level that overflows raises
    InvalidConfigError; sums that overflow on the way, and a 1/value that
    overflows to +inf (which no level reaches), stay silent.
    """
    np.abs(values, out=values)
    with np.errstate(divide="ignore", over="ignore"):
        return _reciprocal_levels(np.divide(1.0, values, out=values).reshape(-1), budgets)


def _fill(inv: np.ndarray, water: float) -> np.ndarray:
    """Powers max(water - inv, 0) over the reciprocals ``inv``, in their buffer; +inf gets 0."""
    np.subtract(water, inv, out=inv)
    return np.maximum(inv, 0.0, out=inv)


def waterfill_instantaneous(snr: GridLike, total_power: float) -> PowerPolicy:
    """Exact water filling over one SNR realization.

    The reciprocals 1/|gamma| are taken once, into a new array: a sorted
    copy of them gives the water level (see ``_reciprocal_levels``), and
    the reciprocals themselves become the powers max(w - 1/gamma, 0) in
    place.  A zero SNR, and one whose reciprocal overflows, has a
    reciprocal of +inf and gets no power; channels at the level exactly
    count as inactive.  If no channel has positive SNR the outage
    (all-zero) policy is returned.  The allocations are a new, writable
    array that shares no memory with ``snr``.

    An ``SnrGrid`` passed in keeps the last solve that succeeded on it
    (``SnrGrid._solve``), so a call at the same budget, of the same type,
    copies its allocations instead of solving again, as every block of a
    link does on the grid ``zf_detect`` shares.  The budget and the grid
    are checked first all the same; a solve that raises is not kept, and
    a grid built here from an array keeps nothing.
    """
    _check_power(total_power)
    grid = _grid(snr)
    kept = grid._solve
    if kept is not None and kept[0] == total_power and type(kept[0]) is type(total_power):
        return PowerPolicy(kept[2].copy(), water_level=kept[1], total_power=total_power)
    inv = np.abs(grid.values)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, inv, out=inv)
        water = _reciprocal_levels(inv.flatten(), [total_power])[0]
    allocations = _fill(inv, water)
    if grid is snr:
        memo = allocations.copy()
        memo.setflags(write=False)
        object.__setattr__(grid, "_solve", (total_power, water, memo))
    return PowerPolicy(allocations, water_level=water, total_power=total_power)


def _check_draws(n_channels: int, count: int, seed: int) -> None:
    """InvalidConfigError unless ``count`` and ``seed`` are integers >= 0
    and the draws fit in MAX_DRAWS."""
    _check_nonnegative(count, "count")
    _check_nonnegative(seed, "seed")
    if n_channels * count > MAX_DRAWS:
        raise InvalidConfigError(
            f"{count} trials of {n_channels} channels exceed the {MAX_DRAWS} draws"
            f" one run may hold; use at most {MAX_DRAWS // n_channels} trials"
        )


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words of a nonnegative int; [0] for zero."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The uint32 column init * mult**j, j = 0..calls: hash call j XORs entry j, multiplies by j + 1."""
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    values ^= values >> np.uint32(16)
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    mixed ^= mixed >> np.uint32(16)
    return mixed


def _seed_words(seed: int, stage: int, keys: np.ndarray) -> np.ndarray:
    """(R, 4) uint64: ``SeedSequence([seed, stage, k]).generate_state(4, np.uint64)`` per key k.

    numpy seeds a PCG64 from these four words (the state, then the
    increment).  They are computed here for all R keys at once, in uint32
    numpy arithmetic that wraps as numpy's C code does, following its
    SeedSequence step by step:

    * the entropy is the 32-bit words of seed, stage and k, each
      little-endian and [0] for zero; only the last word, k, differs
      between rows;
    * ``hashmix`` XORs a word with a running hash constant, advances the
      constant (times MULT_A), multiplies by it and XORs in the upper 16
      bits.  The constants depend on the call count alone, so the j-th
      call's pair is ``_hash_constants(INIT_A, MULT_A, ...)`` rows j and j + 1;
    * the 4-word pool is the hashmix of the first 4 entropy words (0
      beyond the entropy); then each word i is mixed into every other
      word j in turn, j = mix(j, hashmix(i)), ``mix`` being
      MIX_MULT_L * j - MIX_MULT_R * y with the upper 16 bits XORed in;
      then every entropy word past the fourth is mixed into all four;
    * ``generate_state`` hashes the pool, cycled to 8 words, with the
      INIT_B/MULT_B constants and pairs them little-endian into 4 uint64.

    The keys are row indices, so each fits one 32-bit word.
    """
    prefix = _uint32_words(seed) + _uint32_words(stage)
    entropy = np.empty((len(prefix) + 1, keys.size), dtype=np.uint32)
    entropy[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-1] = keys
    extra = max(0, len(entropy) - _POOL_SIZE)
    hash_a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * extra)
    head = entropy[:_POOL_SIZE]
    pool = np.zeros((_POOL_SIZE, keys.size), dtype=np.uint32)
    pool[:len(head)] = head
    pool = _hashmix(pool, hash_a[:_POOL_SIZE], hash_a[1:_POOL_SIZE + 1])
    calls = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], hash_a[calls:calls + 3], hash_a[calls + 1:calls + 4])
        pool[dst] = _mix(pool[dst], hashed)
        calls += 3
    for word in entropy[_POOL_SIZE:]:
        hashed = _hashmix(word, hash_a[calls:calls + 4], hash_a[calls + 1:calls + 5])
        pool = _mix(pool, hashed)
        calls += 4
    hash_b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.concatenate((pool, pool)), hash_b[:-1], hash_b[1:]).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@functools.cache
def _state_words_type() -> type:
    """The seed sequence type that hands a PCG64 the state words of ``_seed_words``.

    Defined on first use: it derives from numpy.random's ISeedSequence,
    and importing numpy.random adds about 40 ms to the start of a run
    that draws nothing, such as a channel dump.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return StateWords


def _fading_draws(means: np.ndarray, count: int, seed: int, stage: int = 0,
                  out: np.ndarray | None = None, rows: slice = slice(None)) -> np.ndarray:
    """Draw (K, count) i.i.d. exponential SNRs of the K ``means``, channel-major.

    Row k comes from its own generator keyed by (seed, stage, k), so two
    configurations sharing a channel order see identical draws for the
    channels they have in common.  That generator is the PCG64 of
    ``np.random.default_rng([seed, stage, k])``, seeded from the state
    words ``_seed_words`` computes for all the rows at once, in place of
    one SeedSequence per row.  Each row is scaled by its mean as soon
    as it is drawn: a draw of mean m is m times the unit draw, bit for
    bit, and a zero-mean channel draws zeros.  A draw beyond the float
    range raises InvalidConfigError naming the largest of all K means.
    The draws fill ``out`` when given, a (K, count) float64 array, and a
    new array otherwise.  Only the rows in the range ``rows`` of the K
    are drawn, each still under its own key k, so two calls on the two
    halves of the rows fill ``out`` with the draws of one call on all.
    A count, seed or stage that is not an integer >= 0 (a bool included)
    raises InvalidConfigError before any seed word is computed.
    """
    _check_draws(means.size, count, seed)
    _check_nonnegative(stage, "stage")
    if out is None:
        out = np.empty((means.size, count))
    keys = np.arange(*rows.indices(means.size))
    words = _seed_words(int(seed), int(stage), keys)
    state_words = _state_words_type()
    try:
        with np.errstate(over="raise"):
            for k, state in zip(keys.tolist(), words):
                row = out[k]
                rng = np.random.Generator(np.random.PCG64(state_words(state)))
                rng.standard_exponential(out=row)
                row *= means[k]
    except FloatingPointError:
        raise InvalidConfigError(
            f"fading draws of mean {means.max():g} overflow the float range"
        ) from None
    return out


def sample_snr_realizations(mean_flat: np.ndarray, count: int, seed: int,
                            stage: int = 0) -> np.ndarray:
    """Draw (count, K) i.i.d. exponential SNRs, one substream per channel.

    Column k is row k of ``_fading_draws``, scaled by ``mean_flat[k]``
    when drawn.  The means are checked by ``SnrGrid``, the count, seed
    and stage by ``_fading_draws``.
    """
    mean_flat = _grid(mean_flat).values.flatten(order="F")
    return _fading_draws(mean_flat, count, seed, stage).T


def waterfill_ergodic(mean_snr: GridLike, total_power: float, samples: int = 10_000,
                      seed: int = 0) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """Solve the expectation-constrained water-filling multiplier.

    Draws ``samples`` exponential SNR realizations per channel with the
    given means.  The sample-average budget over those T draws of K
    channels is instantaneous water filling over the T*K pooled draws
    with budget T*P, so the exact water level w of the pooled draws
    gives mu* = 1/(w ln 2), and the rule P(gamma) = max(0, w - 1/gamma)
    meets the budget on the sample to rounding.  This is the unit-SNR
    case of the solver that ``capacity`` runs for every point of a
    sweep.  Returns (mu_star, rule).
    """
    _check_power(total_power)
    _check_samples(samples, "samples")
    means = _grid(mean_snr).values.flatten(order="F")
    if not np.any(means > 0.0):
        raise InvalidConfigError("at least one channel must have positive mean SNR")
    draws = _fading_draws(means, samples, seed)
    water = _water_levels(draws, [samples * total_power])[0]
    mu_star = 1.0 / (water * LN2) if water > 0.0 else math.inf

    def rule(gamma: np.ndarray) -> np.ndarray:
        # 1/gamma where gamma > 0; +inf, which gets no power, for gamma <= 0 and NaN
        gamma = np.asarray(gamma, dtype=float)
        with np.errstate(over="ignore"):
            inv = np.divide(1.0, gamma, out=np.full_like(gamma, np.inf), where=gamma > 0.0)
        return _fill(inv, water)

    return mu_star, rule


def classify_region(gamma_0: float, gamma_1: float, mu_star: float) -> str:
    """Region of the two-channel SNR plane under a fixed multiplier.

    R1: both channels above the activation threshold mu* ln 2.
    R2: only gamma_0 above.  R3: only gamma_1 above.  R4: outage,
    which is every pair when mu* = +inf.
    """
    if not (gamma_0 >= 0.0 and gamma_1 >= 0.0):
        raise DomainError(f"SNRs must be nonnegative, got {gamma_0} and {gamma_1}")
    if not mu_star > 0.0:
        raise DomainError(f"mu_star must be positive, got {mu_star}")
    threshold = mu_star * LN2
    first, second = gamma_0 > threshold, gamma_1 > threshold
    if first and second:
        return "R1"
    if first:
        return "R2"
    if second:
        return "R3"
    return "R4"
