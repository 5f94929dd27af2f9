"""Primality testing, prime sampling, seeded randomness, and size bounds.

The randomized decision procedure works modulo primes drawn from a range
``(L, L**2]`` whose lower end ``L = N * ceil(log2 n)`` grows out of an
explicit bound ``N`` on the dimension of the vector spaces the closure
computation can build:

* treewidth variant:   ``N = max(k**(2*C*n**k), 2*C*n**k)``
* pathwidth variant:   ``N = 2*C*n**k + k - 1``
* Lasserre variant:    ``N = 2*t * 4**(n**(2*t))``

where ``n`` bounds the order of the two input graphs, ``k`` is the label
arity, ``C`` the automaton state count, and ``t`` the Lasserre level.  Two
graphs the class tells apart differ on a member whose counts are at most
``n**N <= 2**L``, so a nonzero difference has fewer than ``L / log2 L``
prime factors above ``L``.  ``sample_prime_in_range`` draws a uniform prime
from ``(L, L**2]``, which holds more than ``L*(L - 2.51012) / (2 ln L)``
primes (Rosser and Schoenfeld 1962), so one draw divides the difference
with probability below ``2 ln 2 / (L - 2.51012)``.  The error budget is
``2**-trials`` with ``trials = ceil(4*log2 L)`` (what ``homind bounds``
prints), and ``certified_prime_count`` is the number of independent primes
that reaches it: 5 for every L from 18 on.  That bound is proved for draws
that are prime; below psi_12 every draw is (``is_prime`` is exact there).

The deterministic pathwidth mode replaces sampling by the Chinese remainder
theorem: any set of primes whose product exceeds ``n**N`` jointly detects
any nonzero difference of counts.  It decides the smallest such set, the
primes ``2, 3, 5, ...``, which a sieve lists.

``is_prime`` is exact below psi_12 = 318,665,857,834,031,151,167,461
(about 2**78), by Miller-Rabin over fixed bases, which covers the
pathwidth draws and the treewidth draws on small graphs.  Above it,
primality rests on 64 Miller-Rabin rounds with bases derived from the
candidate.  The 4**-t bound of Miller-Rabin holds for uniformly random
bases, so no theorem gives 4**-64 for these: above psi_12 the 2**-trials
bound holds only on the unproved premise that every draw is prime.
Rejections stay sound at any modulus, prime or not: every row of a
closure is a combination of true count vectors, so an unequal readout
means unequal counts, and a non-unit pivot makes ``pow(x, -1, p)`` raise
instead of deciding.

All randomness flows through an explicit, seedable generator (xoshiro256**
seeded through splitmix64) so identical seeds reproduce identical runs
bit for bit; nothing in this module touches ambient RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt

__all__ = [
    "Xoshiro256StarStar",
    "Bounds",
    "BoundOverflow",
    "splitmix64",
    "is_prime",
    "sample_prime_in_range",
    "sample_prime_with_bits",
    "certified_prime_count",
    "trial_count",
    "bound_tw",
    "bound_pw",
    "bound_lasserre",
    "smallest_primes_with_product_exceeding",
    "ceil_log2",
]

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 sequence: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


class Xoshiro256StarStar:
    """xoshiro256** generator with splitmix64 seeding.

    Pure-Python and platform independent: the same seed yields the same
    stream everywhere, which is what makes ``--seed`` reproduce whole runs.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        state = self.seed
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        if not any(s):  # all-zero state is the one forbidden configuration
            s[0] = 1
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = ((s1 * 5) & _MASK64)
        result = (((result << 7) | (result >> 57)) & _MASK64)
        result = (result * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        return result

    def randbits(self, bits: int) -> int:
        """Uniform integer in [0, 2**bits), any bit width."""
        if bits <= 0:
            return 0
        words = (bits + 63) // 64
        value = 0
        for _ in range(words):
            value = (value << 64) | self.next_u64()
        return value >> (words * 64 - bits)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        bits = (n - 1).bit_length()
        while True:
            value = self.randbits(bits)
            if value < n:
                return value

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty range")
        return lo + self.randbelow(hi - lo)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)
_TRIAL_DIVISION_BOUND = 101 * 101

# Deterministic Miller-Rabin witnesses: the first set is exact for all
# n < 4,759,123,141 (Jaeschke 1993), the second, the twelve primes up to
# 37, for all n < psi_12 = 318,665,857,834,031,151,167,461 (about
# 2**78.07), the smallest strong pseudoprime to all twelve (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017; OEIS A014233).  It covers every n < 2**64.
_MR_WITNESSES_32 = (2, 7, 61)
_MR_BOUND_32 = 4_759_123_141
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318_665_857_834_031_151_167_461


def _miller_rabin_round(n: int, d: int, r: int, base: int) -> bool:
    """One Miller-Rabin round; True means "possibly prime"."""
    base %= n
    if base == 0:
        return True
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_prime(p: int) -> bool:
    """Primality test.

    Exact below psi_12 = 318,665,857,834,031,151,167,461 (about 2**78):
    trial division by the primes up to 97 alone below 101**2 = 10,201,
    then deterministic Miller-Rabin over the witness set {2,7,61} below
    4,759,123,141, which covers every 32-bit p, and {2,3,5,7,...,37}
    above.  From psi_12 on it runs 64 Miller-Rabin rounds with bases
    derived deterministically from p itself, so the function stays pure.
    There it is a heuristic: the 4**-64 error of 64 rounds is proved for
    uniformly random bases, not for bases derived from p, and is not
    negligible against a 2**-trials budget with trials in the thousands.
    The randomized decision's 2**-trials bound assumes that every prime
    it draws is prime (module docstring).
    """
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p == q:
            return True
        if p % q == 0:
            return False
    if p < _TRIAL_DIVISION_BOUND:  # a composite below 101^2 has a factor <= 97
        return True
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if p < _MR_BOUND_32:
        witnesses = _MR_WITNESSES_32
    elif p < _PSI_12:
        witnesses = _MR_WITNESSES_64
    else:
        state = (p & _MASK64) ^ 0xD6E8FEB86659FD93
        drawn = []
        while len(drawn) < 64:
            state, out = splitmix64(state)
            base = 2 + out % (p - 3)
            drawn.append(base)
        witnesses = drawn
    for base in witnesses:
        if not _miller_rabin_round(p, d, r, base):
            return False
    return True


def _first_prime(draw, cap: int, where: str) -> int:
    """The first prime among the values of ``draw()``; RuntimeError after
    ``cap`` composites."""
    for _ in range(cap):
        cand = draw()
        if is_prime(cand):
            return cand
    raise RuntimeError(f"no prime in {cap} draws from {where}")


def sample_prime_in_range(L: int, rng: Xoshiro256StarStar) -> int:
    """A uniform random prime from (L, L**2], by rejection sampling:
    uniform integers are drawn from the range until one is prime.

    A draw is prime with probability above (L - 2.51012) / (2 (L-1) ln L)
    for L >= 5 (see the module docstring), so above 1 / (6 ln L), as it is
    for L = 2, 3, 4 too.  The cap of 256 draws per bit of L**2, at least
    512 log2 L draws, is then reached with probability below
    exp(-512 / (6 ln 2)) < 2**-88, and reaching it raises RuntimeError
    instead of returning."""
    if L < 2:
        raise ValueError("sample_prime_in_range requires L >= 2")
    return _first_prime(lambda: rng.randrange(L + 1, L * L + 1),
                        256 * (L * L).bit_length(),
                        f"(L, L^2] for a {L.bit_length()}-bit L")


def sample_prime_with_bits(bits: int, rng: Xoshiro256StarStar) -> int:
    """A uniform random prime of exactly ``bits`` bits, by rejection
    sampling odd ``bits``-bit integers; RuntimeError after 64 draws per
    bit, which the density of primes makes astronomically unlikely."""
    if bits < 2:
        raise ValueError("sample_prime_with_bits requires bits >= 2")
    top = 1 << (bits - 1)
    return _first_prime(lambda: top | rng.randbelow(top) | 1, 64 * bits,
                        f"the {bits}-bit integers")


class BoundOverflow(Exception):
    """The requested bound would have more bits than the configured cap."""


@dataclass(frozen=True)
class Bounds:
    """Size bound N, prime-range base L = N*max(1, ceil(log2 n)), and the
    error exponent trials = ceil(4*log2 L): a randomized decision errs
    with probability at most 2**-trials."""

    N: int
    L: int
    trials: int


def ceil_log2(n: int) -> int:
    """ceil(log2 n) for n >= 1."""
    if n < 1:
        raise ValueError("ceil_log2 requires n >= 1")
    return (n - 1).bit_length()


def trial_count(L: int) -> int:
    """The error exponent for primes drawn above L, ceil(4*log2 L): the
    randomized decision errs with probability at most 2**-trial_count(L)."""
    # ceil(4*log2 L) == bit_length(L**4 - 1):  4*log2(L) <= x  iff  L**4 <= 2**x.
    return (L ** 4 - 1).bit_length()


def certified_prime_count(L: int, trials: int) -> int:
    """The least m such that m independent uniform primes from (L, L**2]
    all divide a given nonzero integer of magnitude at most 2**L, and so
    all fail to detect it, with probability at most 2**-trials; ``trials``
    itself where that is not proved (L < 5) or no smaller m suffices.

    One prime divides it with probability eps < 2 ln 2 / (L - 2.51012)
    (module docstring), and 2 ln 2 < 1.3863, so eps**m <= 2**-trials holds
    once 138630**m * 2**trials <= (100000*L - 251012)**m, compared here
    over the integers."""
    if L < 5:
        return trials
    top = 100000 * L - 251012
    for m in range(1, trials):
        if 138630 ** m << trials <= top ** m:
            return m
    return trials


DEFAULT_BIT_CAP = 1 << 20


def _make_bounds(N: int, n: int, bit_cap) -> Bounds:
    """Bounds for the class-size bound N; BoundOverflow when N needs more
    than bit_cap bits (None: DEFAULT_BIT_CAP)."""
    bit_cap = DEFAULT_BIT_CAP if bit_cap is None else bit_cap
    if N.bit_length() > bit_cap:
        raise BoundOverflow(
            "bound needs %d bits, cap is %d" % (N.bit_length(), bit_cap)
        )
    # For n = 1, ceil(log2 n) = 0 would collapse L below N and break the
    # invariant L >= N; clamp the factor to 1 (a larger L is always sound).
    L = N * max(1, ceil_log2(n))
    return Bounds(N=N, L=L, trials=trial_count(L))


def _checked_power(base: int, exponent: int, bit_cap) -> int:
    """base**exponent, refusing (BoundOverflow) if the result needs more
    than bit_cap bits (None: DEFAULT_BIT_CAP); the check runs before
    materializing the power."""
    bit_cap = DEFAULT_BIT_CAP if bit_cap is None else bit_cap
    if base < 1 or exponent < 0:
        raise ValueError("power arguments out of range")
    if base == 1 or exponent == 0:
        return 1
    blen = base.bit_length()
    # 2**(blen-1) <= base < 2**blen bounds the result's bit length in
    # [exponent*(blen-1) + 1, exponent*blen + 1].
    low = exponent * (blen - 1) + 1
    high = exponent * blen + 1
    if low > bit_cap:
        raise BoundOverflow(
            "bound needs at least %d bits, cap is %d" % (low, bit_cap)
        )
    if high <= bit_cap:
        return base ** exponent
    value = base ** exponent
    if value.bit_length() > bit_cap:
        raise BoundOverflow(
            "bound needs %d bits, cap is %d" % (value.bit_length(), bit_cap)
        )
    return value


def bound_tw(n: int, k: int, C: int, bit_cap=None) -> Bounds:
    """Class-size bound for the treewidth variant: N = max(k**(2*C*n**k), 2*C*n**k).

    n bounds the order of either input graph, k is the label arity, C the
    automaton state count.  Raises BoundOverflow when N would exceed
    bit_cap bits (None: DEFAULT_BIT_CAP, 2**20).
    """
    if n < 1 or k < 1 or C < 1:
        raise ValueError("bound_tw requires n, k, C >= 1")
    e = 2 * C * n ** k
    N = max(_checked_power(k, e, bit_cap), e)
    return _make_bounds(N, n, bit_cap)


def bound_pw(n: int, k: int, C: int, bit_cap=None) -> Bounds:
    """Class-size bound for the pathwidth variant: N = 2*C*n**k + k - 1."""
    if n < 1 or k < 1 or C < 1:
        raise ValueError("bound_pw requires n, k, C >= 1")
    N = 2 * C * n ** k + k - 1
    return _make_bounds(N, n, bit_cap)


def bound_lasserre(n: int, t: int, bit_cap=None) -> Bounds:
    """Class-size bound for the Lasserre variant: N = 2*t * 4**(n**(2*t))."""
    if n < 1 or t < 1:
        raise ValueError("bound_lasserre requires n, t >= 1")
    e = n ** (2 * t)
    N = 2 * t * _checked_power(4, e, bit_cap)
    return _make_bounds(N, n, bit_cap)


def smallest_primes_with_product_exceeding(B: int) -> list[int]:
    """Smallest prefix of 2, 3, 5, ... whose product strictly exceeds B.

    The deterministic mode works modulo these primes: a nonzero integer of
    magnitude at most B cannot vanish modulo all of them at once.
    """
    if B < 1:
        raise ValueError("requires B >= 1")
    primes, product, limit = [], 1, 64
    while True:  # the primes below limit are all taken: sieve twice as far
        for q in _primes_below(limit)[len(primes):]:
            primes.append(q)
            product *= q
            if product > B:
                return primes
        limit *= 2


def _primes_below(limit: int) -> list[int]:
    """The primes below limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = bytes(2)
    for q in range(2, isqrt(limit - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, limit, q)))
    return list(compress(range(limit), sieve))
