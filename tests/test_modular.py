"""Tests for the seeded generator, primality, sampling, and size bounds."""

import math

import pytest

import homind.modular
from homind.modular import (
    Bounds,
    BoundOverflow,
    Xoshiro256StarStar,
    bound_lasserre,
    bound_pw,
    bound_tw,
    ceil_log2,
    certified_prime_count,
    is_prime,
    sample_prime_in_range,
    sample_prime_with_bits,
    smallest_primes_with_product_exceeding,
    splitmix64,
    trial_count,
)
from homind.modular import _MR_WITNESSES_64, _miller_rabin_round


# ---------------------------------------------------------------- RNG


def test_rng_deterministic():
    a = Xoshiro256StarStar(20240817)
    b = Xoshiro256StarStar(20240817)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_rng_seed_sensitivity():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_rng_outputs_are_64_bit():
    rng = Xoshiro256StarStar(7)
    for _ in range(200):
        v = rng.next_u64()
        assert 0 <= v < (1 << 64)


def test_randbelow_bounds_and_rough_uniformity():
    rng = Xoshiro256StarStar(99)
    counts = [0] * 6
    n = 6000
    for _ in range(n):
        v = rng.randbelow(6)
        counts[v] += 1
    assert sum(counts) == n
    # each bucket within 5 sigma of the mean (sigma ~ sqrt(1000*5/6) ~ 29)
    for c in counts:
        assert abs(c - 1000) < 150


def test_randrange_contract():
    rng = Xoshiro256StarStar(3)
    for _ in range(500):
        v = rng.randrange(10, 20)
        assert 10 <= v < 20
    with pytest.raises(ValueError):
        rng.randrange(5, 5)


def test_randbits_wide():
    rng = Xoshiro256StarStar(11)
    seen_high = False
    for _ in range(20):
        v = rng.randbits(200)
        assert 0 <= v < (1 << 200)
        if v >> 199:
            seen_high = True
    assert seen_high  # top bit is hit about half the time over 20 draws


def test_shuffle_is_permutation():
    rng = Xoshiro256StarStar(5)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_splitmix64_stream_changes_state():
    state = 42
    outs = []
    for _ in range(5):
        state, out = splitmix64(state)
        outs.append(out)
    assert len(set(outs)) == 5


# ---------------------------------------------------------------- primality


def _is_prime_trial_division(n: int) -> bool:
    """Independent reference: plain trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_exhaustive():
    for n in range(0, 2000):
        assert is_prime(n) == _is_prime_trial_division(n), n


def test_is_prime_matches_a_sieve_across_the_trial_division_bound(monkeypatch):
    """Below 101^2 = 10,201 trial division by the primes up to 97 decides,
    and no Miller-Rabin round runs; above it every prime, and every
    composite without a factor up to 97, goes through the rounds."""
    limit = 20_000
    sieve = [False, False] + [True] * (limit - 1)
    for q in range(2, int(limit ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(sieve[q * q::q])
    tested = set()

    def counted(n, d, r, base):
        tested.add(n)
        return _miller_rabin_round(n, d, r, base)

    monkeypatch.setattr(homind.modular, "_miller_rabin_round", counted)
    assert [is_prime(n) for n in range(limit + 1)] == sieve
    assert min(tested) == 101 * 101  # the first composite trial division misses
    assert tested >= {n for n in range(101 * 101, limit + 1) if sieve[n]}


def test_is_prime_known_values():
    assert is_prime((1 << 61) - 1)  # Mersenne prime 2^61 - 1
    assert is_prime((1 << 89) - 1)  # Mersenne prime 2^89 - 1
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime((1 << 61) - 3)  # even


def test_is_prime_three_witnesses_below_their_bound(monkeypatch):
    """Below 4,759,123,141 the bases 2, 7 and 61 decide primality.  The
    strong pseudoprimes to the bases {2}, {2, 3}, {2, 3, 5} and
    {2, 3, 5, 7} are caught below that bound, the first one to {2, 7, 61}
    lies on it and is caught by the twelve-base set, and 32-bit numbers
    get the twelve-base verdict."""
    for composite in (2047, 1373653, 25326001, 3215031751, 4759123141):
        assert not is_prime(composite)
    rng = Xoshiro256StarStar(32)
    numbers = list(range((1 << 32) - 4000, 1 << 32))
    numbers += [rng.randbits(32) | 1 for _ in range(4000)]
    three = [is_prime(x) for x in numbers]
    monkeypatch.setattr("homind.modular._MR_BOUND_32", 0)
    assert three == [is_prime(x) for x in numbers]
    assert sum(three) > 300


def test_is_prime_product_of_two_40_bit_primes():
    rng = Xoshiro256StarStar(424242)
    primes = []
    while len(primes) < 2:
        candidate = (1 << 39) | rng.randbits(39) | 1
        if is_prime(candidate):
            primes.append(candidate)
    product = primes[0] * primes[1]
    assert product.bit_length() >= 79
    assert not is_prime(product)


def test_is_prime_twelve_bases_up_to_psi12(monkeypatch):
    """Below psi_12 = 318,665,857,834,031,151,167,461 the twelve prime
    bases up to 37 decide primality (Sorenson and Webster 2017).  psi_12
    itself, a product of two primes, passes all twelve, so it must go to
    the 64 seeded rounds, which catch it.  On 2,000 seeded odd numbers
    between 2^64 and psi_12 the twelve bases agree with the seeded rounds
    that decided them before, on the composites and on the primes."""
    psi = 318_665_857_834_031_151_167_461
    assert psi == 399_165_290_221 * 798_330_580_441
    d, r = (psi - 1) >> 2, 2
    assert d % 2 == 1 and d << r == psi - 1
    assert all(_miller_rabin_round(psi, d, r, base) for base in _MR_WITNESSES_64)
    assert not is_prime(psi)
    rng = Xoshiro256StarStar(78)
    numbers = [rng.randrange(1 << 64, psi - 1) | 1 for _ in range(2000)]
    twelve = [is_prime(x) for x in numbers]
    monkeypatch.setattr("homind.modular._PSI_12", 1 << 64)
    assert twelve == [is_prime(x) for x in numbers]
    assert 20 < sum(twelve) < 2000


def test_is_prime_above_64_bits():
    # strong pseudoprime screens don't fool the 64-round path on easy cases
    assert is_prime((1 << 107) - 1)  # Mersenne prime 2^107 - 1
    assert not is_prime((1 << 101) - 1)  # 2^101 - 1 = 7432339208719 * ...
    assert is_prime((1 << 128) - 159)


# ---------------------------------------------------------------- sampling


def test_sample_prime_range_contract():
    rng = Xoshiro256StarStar(17)
    for _ in range(600):
        p = sample_prime_in_range(100, rng)
        assert 100 < p <= 100 * 100
        assert _is_prime_trial_division(p)


def test_sample_prime_deterministic():
    a = Xoshiro256StarStar(2024)
    b = Xoshiro256StarStar(2024)
    seq_a = [sample_prime_in_range(1000, a) for _ in range(200)]
    seq_b = [sample_prime_in_range(1000, b) for _ in range(200)]
    assert seq_a == seq_b


def test_sample_prime_density():
    """The draw is a uniform prime, not a uniform integer that happens to
    be prime: primes thin out, so (1000, 500000] holds 41,370 of the
    78,330 primes of (1000, 10^6], a share of 0.528, against 0.4995 of the
    integers.  10,000 draws land within four standard deviations (0.02)
    of the prime share and outside them of the integer share."""
    rng = Xoshiro256StarStar(31337)
    draws = 10_000
    low = sum(sample_prime_in_range(1000, rng) <= 500_000 for _ in range(draws))
    assert abs(low / draws - 41_370 / 78_330) < 0.02


def test_samplers_raise_after_their_cap():
    """A generator that yields only composites exhausts the cap of 256
    draws per bit of L^2 (64 per bit for a fixed width) and raises."""

    class Composite:
        calls = 0

        def randrange(self, lo, hi):
            self.calls += 1
            return hi - 1 - (hi - 1) % 2  # even, and above 2

        def randbelow(self, n):
            self.calls += 1
            return 0  # 2^(bits-1) + 1: 33 for 6 bits

    rng = Composite()
    with pytest.raises(RuntimeError, match="no prime in 3584 draws"):
        sample_prime_in_range(100, rng)
    assert rng.calls == 256 * (100 * 100).bit_length() == 3584
    with pytest.raises(RuntimeError, match="no prime in 384 draws"):
        sample_prime_with_bits(6, Composite())


def test_sample_prime_with_bits_has_that_width():
    rng = Xoshiro256StarStar(12)
    for bits in (2, 5, 12, 64, 100):
        for _ in range(20):
            p = sample_prime_with_bits(bits, rng)
            assert p.bit_length() == bits and is_prime(p)


def test_sample_prime_rejects_tiny_range():
    with pytest.raises(ValueError):
        sample_prime_in_range(1, Xoshiro256StarStar(0))


# ---------------------------------------------------------------- bounds


def test_bound_tw_frozen_example():
    b = bound_tw(6, 2, 1)
    assert b.N == 1 << 72  # k^(2*C*n^k) = 2^72 dominates 72
    assert b.L == 3 * (1 << 72)  # ceil(log2 6) = 3
    assert b.trials == 295


def test_bound_pw_frozen_example():
    b = bound_pw(6, 2, 1)
    assert b.N == 73  # 2*1*36 + 2 - 1
    assert b.L == 219
    assert b.trials == 32


def test_bound_lasserre_frozen_example():
    b = bound_lasserre(2, 1)
    assert b.N == 512  # 2*1*4^(2^2)
    assert b.L == 512
    assert b.trials == 36


def test_certified_prime_count():
    """Five primes from L = 18 on (four never suffice: 2^trials >= L^4);
    ``trials`` below L = 5, where the prime-counting bound is not used;
    and every count passes the float form of its test, eps^m <= 2^-trials
    with eps = 2 ln 2 / (L - 2.51012)."""
    for L in range(2, 5):
        assert certified_prime_count(L, trial_count(L)) == trial_count(L)
    for L in list(range(5, 3000)) + [1 << 40, 3 * (1 << 72) + 1]:
        trials = trial_count(L)
        m = certified_prime_count(L, trials)
        assert m == 5 or (L < 18 and m <= trials), L
        eps = 2 * math.log(2) / (L - 2.51012)
        assert m * math.log2(1 / eps) >= trials or m == trials, L
    assert certified_prime_count(1 << 100000, trial_count(1 << 100000)) == 5


def test_trials_identity_matches_ceil_log():
    for L in range(2, 2000):
        expected = math.ceil(4 * math.log2(L))
        assert trial_count(L) == expected, L


def test_bounds_invariants_and_small_cases():
    b = bound_tw(1, 2, 1)  # n = 1: log factor clamps to 1
    assert b.N == 4 and b.L == 4 and b.L >= b.N
    b = bound_tw(5, 1, 1)  # k = 1: the linear term dominates k^e = 1
    assert b.N == 2 * 5
    assert bound_pw(1, 1, 1).N == 2
    assert bound_lasserre(1, 1).N == 2 * 4


def test_bounds_monotone():
    base = bound_pw(4, 2, 2).N
    assert bound_pw(5, 2, 2).N > base
    assert bound_pw(4, 3, 2).N > base
    assert bound_pw(4, 2, 3).N > base
    base = bound_lasserre(2, 1).N
    assert bound_lasserre(3, 1).N > base
    assert bound_lasserre(2, 2).N > base
    tw_base = bound_tw(3, 2, 1).N
    assert bound_tw(4, 2, 1).N > tw_base
    assert bound_tw(3, 3, 1).N > tw_base
    assert bound_tw(3, 2, 2).N > tw_base


def test_bound_overflow_refusal():
    with pytest.raises(BoundOverflow):
        bound_tw(6, 2, 10 ** 6)
    with pytest.raises(BoundOverflow):
        bound_lasserre(30, 2)  # 4^(30^4) needs ~1.6M bits
    # the cap is configurable
    assert bound_tw(6, 2, 1, bit_cap=1 << 24).N == 1 << 72
    with pytest.raises(BoundOverflow):
        bound_pw(6, 2, 1, bit_cap=4)


def test_bound_argument_validation():
    for bad in ((0, 2, 1), (6, 0, 1), (6, 2, 0)):
        with pytest.raises(ValueError):
            bound_tw(*bad)
        with pytest.raises(ValueError):
            bound_pw(*bad)
    with pytest.raises(ValueError):
        bound_lasserre(0, 1)
    with pytest.raises(ValueError):
        bound_lasserre(2, 0)


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(6) == 3
    assert ceil_log2(64) == 6
    assert ceil_log2(65) == 7


# ---------------------------------------------------------------- CRT primes


def test_smallest_primes_examples():
    assert smallest_primes_with_product_exceeding(5) == [2, 3]
    assert smallest_primes_with_product_exceeding(1) == [2]
    assert smallest_primes_with_product_exceeding(6) == [2, 3, 5]


def test_smallest_primes_minimality_sweep():
    for B in range(1, 500):
        primes = smallest_primes_with_product_exceeding(B)
        product = math.prod(primes)
        assert product > B
        assert product // primes[-1] <= B
        for p in primes:
            assert _is_prime_trial_division(p)
        assert primes == sorted(primes)


def test_smallest_primes_big_budget():
    B = 5 ** 73  # the scale of the deterministic pathwidth mode at n=5
    primes = smallest_primes_with_product_exceeding(B)
    product = math.prod(primes)
    assert product > B
    assert product // primes[-1] <= B
    assert all(is_prime(p) for p in primes)


def _smallest_primes_by_is_prime(B):
    """The prefix of 2, 3, 5, ... that ``is_prime`` finds one integer at a
    time, up to the first product above B."""
    primes, product, candidate = [], 1, 2
    while product <= B:
        if is_prime(candidate):
            primes.append(candidate)
            product *= candidate
        candidate += 1
    return primes


@pytest.mark.parametrize("B", [
    1, 2, 6, 7, 29, 30, 31, 2**64, 10**100,
    6 ** bound_pw(6, 2, 13).N,  # the builtin paths at n = 6: 269 primes
    2**5000,  # past several doublings of the sieve
])
def test_smallest_primes_sieve_matches_is_prime_scan(B):
    """The sieve lists exactly the primes the ``is_prime`` scan finds."""
    assert smallest_primes_with_product_exceeding(B) == _smallest_primes_by_is_prime(B)
