"""Deterministic randomness contract shared by the whole package.

Every stochastic routine draws from a ``numpy.random.Generator`` backed by
the PCG64 bit generator (``numpy.random.default_rng``), which is fully
specified and platform independent.  Two further pieces are fixed here so
that sampled trajectories reproduce bit-for-bit across machines:

- ``derive_seed(base, i)``: per-trial seeds come from a SplitMix64 finalizer
  applied to ``base + (i + 1) * GOLDEN_GAMMA`` in wrapping 64-bit arithmetic.
- ``draw_index(rng, probs)``: every categorical draw consumes exactly one
  uniform double and inverts the cumulative distribution.

``derive_seeds``, ``first_two_uniforms`` and ``generators`` compute the
same stream for a whole range of trials at once.  ``_pcg64_states`` ports
numpy's seeding path to array arithmetic: ``SeedSequence`` hashing of the
seed into a four-word pool, ``generate_state(4, uint64)``, PCG64 ``srandom``
and the 128-bit LCG step (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905).  The hash, ``srandom``, the LCG steps and
the outputs run in place on preallocated rows, ``_SEEDS_PER_PASS`` seeds
per pass.  On those states:

- ``first_two_uniforms`` runs the XSL-RR output function and the 53-bit
  double; element ``k`` equals ``default_rng(seeds[k]).random(2)``.
- ``generators(base, first, count)`` yields one ``Generator`` per index,
  reseeded in place, that draws exactly what
  ``default_rng(derive_seed(base, i))`` draws.  The same object is yielded
  every time, so a caller must not hold it past its index.

``tests/test_seeding.py`` pins both bit for bit against ``default_rng``,
so a numpy release that changed its stream would fail there.
``as_generator`` stays the scalar reference.
"""

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence constants (pool of four 32-bit words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's default 128-bit LCG multiplier, as (high, low) 64-bit words.
_PCG_MULT = (2549297995355413924, 4865540595714422341)


def _seed(name: str, value) -> int:
    """A seed argument as an ``int``: any integer, numpy integers included but
    not a bool, of any sign; the seeding reduces it mod 2**64.  The message
    starts with ``name``."""
    # bool cannot be subclassed, so one isinstance call covers the rule.
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    return int(value)


def as_generator(rng: "int | np.random.Generator") -> np.random.Generator:
    """Coerce an integer seed (any 64-bit value, signed ok) or Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(_seed("rng", rng) & _MASK64)


def derive_seed(base_seed: int, index: int) -> int:
    """SplitMix64 mix of (base_seed, index); stable across platforms."""
    z = (_seed("base_seed", base_seed) + (index + 1) * GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seeds(base_seed: int, first: int, count: int) -> np.ndarray:
    """``derive_seed(base_seed, i)`` for ``i`` in ``first..first+count-1``,
    as uint64.  Array arithmetic wraps mod 2**64, as the scalar masks do."""
    z = np.arange(count, dtype=np.uint64) + np.uint64((first + 1) & _MASK64)
    z = z * np.uint64(GOLDEN_GAMMA) + np.uint64(_seed("base_seed", base_seed) & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_schedule(init: int, mult: int, count: int) -> list:
    """The first ``count + 1`` values of a SeedSequence hash constant, which
    starts at ``init`` and is multiplied by ``mult`` (mod 2**32) per use."""
    schedule = [init]
    for _ in range(count):
        schedule.append((schedule[-1] * mult) & _MASK32)
    return schedule


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32).reshape(-1, 1)


def _hashmix_constants():
    """Per hashmix call ``k`` of ``SeedSequence.mix_entropy``, its xor and
    multiplier ``(schedule[k], schedule[k + 1])``, as ``(rows, 1)`` columns:
    the two entropy words, the two zero pad words hashed outright, and per
    source word of the pool mix, one row per destination word in the order
    ``_seed_sequence_state`` keeps its pool."""
    schedule = _hash_schedule(_INIT_A, _MULT_A, 4 * _POOL_SIZE)

    def hashmix(value, k):
        value = ((value ^ schedule[k]) * schedule[k + 1]) & _MASK32
        return value ^ (value >> 16)

    entropy = (_column(schedule[0:2]), _column(schedule[1:3]))
    pad = _column([hashmix(0, 2), hashmix(0, 3)])
    mixing = []
    for src in range(_POOL_SIZE):
        # Call 4 + 3 * src + j hashes the source for its j-th destination in
        # index order; the pool holds the destinations as rows src+1.. mod 4.
        dsts = [(src + step) % _POOL_SIZE for step in range(1, _POOL_SIZE)]
        calls = [4 + 3 * src + sorted(dsts).index(dst) for dst in dsts]
        mixing.append((_column([schedule[k] for k in calls]), _column([schedule[k + 1] for k in calls])))
    return entropy, pad, tuple(mixing)


_ENTROPY_HASH, _PAD_WORDS, _MIX_HASH = _hashmix_constants()
# generate_state hashes pool word i % 4 into output word i with the i-th
# constant of the INIT_B schedule; as a (2, 4, 1) block over the pool.
_OUTPUT_SCHEDULE = _hash_schedule(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_OUTPUT_HASH = tuple(
    np.array(values, dtype=np.uint32).reshape(2, _POOL_SIZE, 1)
    for values in (_OUTPUT_SCHEDULE[:-1], _OUTPUT_SCHEDULE[1:])
)


def _word(value: int, dtype=np.uint64) -> np.ndarray:
    """A constant as a 0-d array of its operand's dtype: a ufunc takes one
    faster than a numpy scalar, which it converts on every call."""
    return np.array(value, dtype=dtype)


_MIX_L, _MIX_R, _SHIFT16 = (_word(v, np.uint32) for v in (_MIX_MULT_L, _MIX_MULT_R, 16))
_LOW32, _SHIFT32, _SHIFT63, _SHIFT58, _SHIFT11 = (_word(v) for v in (_MASK32, 32, 63, 58, 11))
_ONE, _SIXTY_FOUR, _SIXTY_THREE = _word(1), _word(64), _word(63)
_MULT_HI, _MULT_LO = (_word(v) for v in _PCG_MULT)
_MULT_LO_LIMBS = (_word(_PCG_MULT[1] & _MASK32), _word(_PCG_MULT[1] >> 32))
# Seeds hashed per pass.  The scratch block takes 64 bytes per seed, so one
# pass stays near a core's L2 cache; larger inputs go through in blocks.
_SEEDS_PER_PASS = 32768


def _passes(count: int) -> list:
    """The slices of ``count`` seeds taken ``_SEEDS_PER_PASS`` per pass."""
    return [slice(start, min(start + _SEEDS_PER_PASS, count))
            for start in range(0, count, _SEEDS_PER_PASS)]


def _seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed, as the
    rows of a ``(4, n)`` uint64 array.  uint32 arrays wrap mod 2**32 like the
    reference; every ufunc writes into preallocated rows."""
    count = seeds.shape[0]
    state = np.empty((_POOL_SIZE, count), dtype=np.uint64)
    buffers = np.empty((4, _POOL_SIZE, min(count, _SEEDS_PER_PASS)), dtype=np.uint32)
    for part in _passes(count):
        block = seeds[part]
        _hash_block(block, buffers[..., :block.shape[0]], state[:, part])
    return state


def _hash_block(seeds, buffers, out):
    """``_seed_sequence_state`` of one block of seeds into ``out``, with
    ``buffers`` a ``(4, 4, n)`` uint32 scratch block."""
    pool, other, words = buffers[0], buffers[1], buffers[2:]
    # A seed below 2**32 is one entropy word; SeedSequence pads the pool with
    # hashmix(0), which is what a zero high word gives.
    entropy, scratch = pool[:2], other[:2]
    np.copyto(entropy[0], seeds, casting="unsafe")
    np.right_shift(seeds, _SHIFT32, out=entropy[1], casting="unsafe")
    xor, mult = _ENTROPY_HASH
    np.bitwise_xor(entropy, xor, out=entropy)
    np.multiply(entropy, mult, out=entropy)
    np.right_shift(entropy, _SHIFT16, out=scratch)
    np.bitwise_xor(entropy, scratch, out=entropy)
    pool[2:] = _PAD_WORDS

    # Source word src updates each other word dst to mix(dst, hashmix(src)).
    # With the source in row 0 and the destinations in rows 1..3, all three
    # are one (3, n) op.  The updated words go to rows 0..2 of the other
    # buffer and the source to its row 3, so the next source is row 0 again;
    # after four steps the rows are back in index order.
    hashed = words[0, :-1]
    for xor, mult in _MIX_HASH:
        mixed = other[:-1]
        np.bitwise_xor(pool[0], xor, out=hashed)
        np.multiply(hashed, mult, out=hashed)
        np.right_shift(hashed, _SHIFT16, out=mixed)
        np.bitwise_xor(hashed, mixed, out=hashed)
        np.multiply(hashed, _MIX_R, out=hashed)
        np.multiply(pool[1:], _MIX_L, out=mixed)
        np.subtract(mixed, hashed, out=mixed)
        np.right_shift(mixed, _SHIFT16, out=hashed)
        np.bitwise_xor(mixed, hashed, out=mixed)
        other[-1] = pool[0]
        pool, other = other, pool

    # Output word 4 * j + i hashes pool word i; words[j, i] holds it.
    xor, mult = _OUTPUT_HASH
    np.bitwise_xor(pool, xor, out=words)
    np.multiply(words, mult, out=words)
    for half in words:
        np.right_shift(half, _SHIFT16, out=other)
        np.bitwise_xor(half, other, out=half)
    # generate_state views pairs of 32-bit words as little-endian uint64.
    pairs = words.reshape(_POOL_SIZE, 2, -1)
    np.copyto(out, pairs[:, 1])
    np.left_shift(out, _SHIFT32, out=out)
    np.bitwise_or(out, pairs[:, 0], out=out)


def _scratch(count: int) -> np.ndarray:
    """The uint64 scratch rows of the in-place arithmetic below, one pass wide."""
    return np.empty((4, min(count, _SEEDS_PER_PASS)), dtype=np.uint64)


def _lcg_step(state: np.ndarray, scratch: np.ndarray) -> None:
    """One LCG step, state * multiplier + increment mod 2**128, in place on
    a ``(4, m)`` block ``[hi, lo, inc_hi, inc_lo]``.  The high word of
    ``lo`` times the multiplier's low word is taken from the 32-bit limbs
    ``[lo0, lo1]`` of ``lo`` (Warren, "Hacker's Delight", mulhu)."""
    hi, lo, inc_hi, inc_lo = state
    limbs, terms = scratch[:2, :state.shape[1]], scratch[2:, :state.shape[1]]
    lo0, lo1 = limbs
    high, middle = terms
    # With t = lo1 * b0 + (lo0 * b0 >> 32) and w = (t & mask32) + lo0 * b1,
    # the high word is lo1 * b1 + (t >> 32) + (w >> 32); middle holds t, then w.
    np.bitwise_and(lo, _LOW32, out=lo0)
    np.right_shift(lo, _SHIFT32, out=lo1)
    b0, b1 = _MULT_LO_LIMBS
    np.multiply(limbs, b0, out=terms)  # lo0 * b0, lo1 * b0
    np.right_shift(high, _SHIFT32, out=high)
    np.add(middle, high, out=middle)
    np.multiply(limbs, b1, out=limbs)  # lo0 * b1, lo1 * b1
    np.right_shift(middle, _SHIFT32, out=high)
    np.bitwise_and(middle, _LOW32, out=middle)
    np.add(middle, lo0, out=middle)
    np.add(high, lo1, out=high)
    np.right_shift(middle, _SHIFT32, out=middle)
    np.add(high, middle, out=high)
    # The cross terms, then the low word and the increment with its carry.
    np.multiply(lo, _MULT_HI, out=middle)
    np.add(high, middle, out=high)
    np.multiply(hi, _MULT_LO, out=middle)
    np.add(high, middle, out=high)
    np.multiply(lo, _MULT_LO, out=lo)
    np.add(lo, inc_lo, out=lo)
    np.less(lo, inc_lo, out=middle)
    np.add(high, middle, out=high)
    np.add(high, inc_hi, out=hi)


def _srandom(state: np.ndarray, scratch: np.ndarray) -> None:
    """PCG64 ``srandom`` in place on a ``(4, m)`` block, from the seed
    sequence words ``[init_hi, init_lo, seq_hi, seq_lo]`` to ``[hi, lo,
    inc_hi, inc_lo]``: inc = seq << 1 | 1; state = 0; step; add init; step."""
    init_hi, init_lo, seq_hi, seq_lo = state
    carry = scratch[0, :state.shape[1]]
    np.right_shift(seq_lo, _SHIFT63, out=carry)
    np.left_shift(state[2:], _ONE, out=state[2:])
    np.bitwise_or(seq_hi, carry, out=seq_hi)
    np.bitwise_or(seq_lo, _ONE, out=seq_lo)
    # The first step from state 0 gives inc; add init to it.
    np.add(state[:2], state[2:], out=state[:2])
    np.less(init_lo, seq_lo, out=carry)
    np.add(init_hi, carry, out=init_hi)
    _lcg_step(state, scratch)


def _uniform(state: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """PCG64's XSL-RR output of the block's state (the xor of both halves
    rotated right by the top 6 bits), as ``random()``'s 53-bit double."""
    hi, lo = state[0], state[1]
    value, rot, shifted = scratch[:3, :state.shape[1]]
    np.bitwise_xor(hi, lo, out=value)
    np.right_shift(hi, _SHIFT58, out=rot)
    np.right_shift(value, rot, out=shifted)
    np.subtract(_SIXTY_FOUR, rot, out=rot)
    np.bitwise_and(rot, _SIXTY_THREE, out=rot)
    np.left_shift(value, rot, out=value)
    np.bitwise_or(value, shifted, out=value)
    np.right_shift(value, _SHIFT11, out=value)
    np.multiply(value, 1.0 / 9007199254740992.0, out=out)


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """The PCG64 ``(state, inc)`` of ``default_rng(seed)`` per seed, before
    its first draw, as the uint64 rows ``[state_hi, state_lo, inc_hi,
    inc_lo]`` of a ``(4, n)`` array.  Each pass of ``_SEEDS_PER_PASS``
    seeds runs in place on its columns, into one preallocated scratch block.

    ``seeds`` are uint64, as ``derive_seeds`` returns them.
    """
    states = _seed_sequence_state(np.asarray(seeds, dtype=np.uint64))
    scratch = _scratch(states.shape[1])
    for part in _passes(states.shape[1]):
        _srandom(states[:, part], scratch)
    return states


def first_two_uniforms(seeds: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The first two ``random()`` doubles of ``default_rng(seed)`` per seed.

    ``seeds`` are uint64, as ``derive_seeds`` returns them.
    """
    states = _pcg64_states(seeds)
    uniforms = np.empty((2, states.shape[1]))
    scratch = _scratch(states.shape[1])
    for part in _passes(states.shape[1]):
        for out in uniforms[:, part]:  # random() steps, then outputs the new state
            _lcg_step(states[:, part], scratch)
            _uniform(states[:, part], scratch, out)
    return uniforms[0], uniforms[1]


def generators(base_seed: int, first: int, count: int):
    """One ``Generator`` per index ``i`` in ``first..first+count-1``, equal in
    every draw to ``default_rng(derive_seed(base_seed, i))``.

    Every index's PCG64 state is computed in one array pass, and the same
    ``Generator`` is yielded each time, reseeded through its bit generator's
    ``state`` (which also clears the buffered 32-bit half).  A caller must not
    hold it past its index.  ``base_seed`` is checked before the first index.
    """
    columns = [column.tolist() for column in _pcg64_states(derive_seeds(base_seed, first, count))]
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)

    def reseeded():
        for state_hi, state_lo, inc_hi, inc_lo in zip(*columns):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield gen

    return reseeded()


def clamped_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums with the last entry set to 1.0, so a u close to 1.0
    cannot fall off the end of a table whose float sum is marginally below 1."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def draw_index(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Draw one index from a probability table via inverse CDF.

    Consumes a single uniform double; ``searchsorted(clamped_cdf(probs), u,
    side="right")`` over many uniforms gives the same indices.
    """
    return int(np.searchsorted(clamped_cdf(probs), rng.random(), side="right"))
