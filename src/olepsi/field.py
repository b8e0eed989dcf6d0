"""Prime moduli chosen at runtime.

Everything the protocol computes lives in F_q for a prime q chosen from the
hashing parameters. Field values are plain ints and numpy arrays reduced
mod a PrimeModulus; the vectorized arithmetic is in modvec.
"""

MAX_MODULUS = 1 << 62

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldError(Exception):
    pass


def is_prime(n):
    """Deterministic Miller-Rabin for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus:
    """A verified prime q with its bit width, shared by all elements mod q."""

    __slots__ = ("q", "bit_len", "byte_len")

    def __init__(self, q):
        if not 5 <= q <= MAX_MODULUS:
            raise FieldError(f"modulus {q} outside supported range [5, 2^62]")
        if not is_prime(q):
            raise FieldError(f"modulus {q} is not prime")
        self.q = q
        # q is never a power of two, so bit_length() equals ceil(log2 q).
        self.bit_len = q.bit_length()
        self.byte_len = (self.bit_len + 7) // 8

    def __eq__(self, other):
        return isinstance(other, PrimeModulus) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"PrimeModulus({self.q})"


def smallest_prime_at_least(lower):
    """The smallest prime >= lower, as a PrimeModulus."""
    if lower < 5:
        raise FieldError("lower bound must be at least 5")
    n = lower
    while True:
        if n > MAX_MODULUS:
            raise FieldError(f"no supported prime at or above {lower}")
        if is_prime(n):
            return PrimeModulus(n)
        n += 1
