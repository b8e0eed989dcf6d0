"""Protocol parameter derivation and communication-cost accounting.

The tabulated (beta, log q, stash) rows for n in {2^20..2^26} are embedded as
constants; other set sizes fall back to a union-bound binomial tail for beta
and reuse the nearest tabulated stash size.
"""

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .field import PrimeModulus, smallest_prime_at_least

MAX_Q = 1 << 31  # exclusive bound on the moduli modvec's arithmetic handles

# Bin-count factors per hash-function count: alpha = ceil(factor * n).
ALPHA_FACTORS = {
    2: Fraction(12, 5),
    3: Fraction(127, 100),
    4: Fraction(109, 100),
}

# (n, k) -> (beta, log_q, stash); statistical security 2^-40, sigma = 32.
PARAM_TABLE = {
    (1 << 20, 2): (19, 13, 3),
    (1 << 22, 2): (20, 11, 3),
    (1 << 24, 2): (20, 9, 2),
    (1 << 26, 2): (21, 7, 2),
    (1 << 20, 3): (28, 14, 0),
    (1 << 22, 3): (28, 12, 0),
    (1 << 24, 3): (29, 10, 0),
    (1 << 26, 3): (29, 8, 0),
    (1 << 20, 4): (33, 15, 0),
    (1 << 22, 4): (34, 13, 0),
    (1 << 24, 4): (35, 11, 0),
    (1 << 26, 4): (35, 9, 0),
}

# (n, k) -> published online communication cost in bits per element.
BITS_PER_ELEMENT_TABLE = {
    (1 << 20, 2): 663,
    (1 << 22, 2): 588,
    (1 << 24, 2): 472,
    (1 << 26, 2): 384,
    (1 << 20, 3): 516,
    (1 << 22, 3): 442,
    (1 << 24, 3): 381,
    (1 << 26, 3): 305,
    (1 << 20, 4): 556,
    (1 << 22, 4): 496,
    (1 << 24, 4): 432,
    (1 << 26, 4): 353,
}


@dataclass(frozen=True)
class ProtocolParams:
    """Everything both parties must agree on before hashing and comparing."""

    n: int
    k: int
    alpha_factor: Fraction
    alpha: int
    beta: int
    stash_size: int
    sigma: int
    sigma1: int
    sigma2: int
    lam: int
    modulus: PrimeModulus

    @property
    def dummy_alice(self):
        return self.k << self.sigma2

    @property
    def dummy_bob(self):
        return (self.k << self.sigma2) + 1

    def digest(self):
        """16-byte commitment to the shared parameters, for setup frames."""
        canon = (
            f"n={self.n},k={self.k},alpha={self.alpha},beta={self.beta},"
            f"s={self.stash_size},sigma={self.sigma},sigma1={self.sigma1},"
            f"lambda={self.lam},q={self.modulus.q}"
        )
        return hashlib.sha256(canon.encode()).digest()[:16]


def _log_binom_tail(trials, p, threshold):
    """log of Pr[Binomial(trials, p) > threshold], -inf when the tail is empty."""
    if threshold >= trials:
        return -math.inf
    if threshold < 0:
        return 0.0
    if p >= 1.0:
        return 0.0
    if p <= 0.0:
        return -math.inf
    log_p = math.log(p)
    log_1p = math.log1p(-p)

    def log_pmf(i):
        return (
            math.lgamma(trials + 1)
            - math.lgamma(i + 1)
            - math.lgamma(trials - i + 1)
            + i * log_p
            + (trials - i) * log_1p
        )

    # Sum the tail term-by-term; past the mean the terms decay geometrically,
    # so stop once the next term cannot move the accumulated log sum.
    total = -math.inf
    for i in range(threshold + 1, trials + 1):
        term = log_pmf(i)
        total = max(total, term) + math.log1p(math.exp(-abs(total - term)))
        if term < total - 60:
            break
    return total


def derive_beta(n, alpha, k, lam):
    """Smallest beta with alpha * Pr[Binomial(k*n, 1/alpha) > beta] < 2^-lam.

    Union bound over Bob's alpha bins, each receiving k*n balls uniformly.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    trials = k * n
    p = 1.0 / alpha
    limit = -lam * math.log(2) - math.log(alpha)
    beta = max(0, math.ceil(trials * p) - 1)
    while True:
        if _log_binom_tail(trials, p, beta) < limit:
            return beta
        beta += 1


def _nearest_tabulated_stash(n, k):
    rows = sorted(nn for (nn, kk) in PARAM_TABLE if kk == k)
    for nn in rows:
        if nn >= n:
            return PARAM_TABLE[(nn, k)][2]
    return PARAM_TABLE[(rows[-1], k)][2]


def derive_params(n, k, sigma=32, lam=40, stash_size=None):
    """Derive the full parameter set for n elements and k hash functions."""
    if k not in ALPHA_FACTORS:
        raise ValueError(f"unsupported hash-function count k={k}")
    if n < 4:
        raise ValueError("set size must be at least 4")
    if lam < 0:
        raise ValueError(f"--lam must be at least 0, got {lam}")
    if stash_size is not None and stash_size < 0:
        raise ValueError(f"--stash must be at least 0, got {stash_size}")
    factor = ALPHA_FACTORS[k]
    alpha = -((-factor.numerator * n) // factor.denominator)
    if alpha >= 1 << 31:
        # the hashing holds bin and item indices in int32
        raise ValueError(f"n={n}, k={k} needs alpha={alpha} bins; at most 2^31 - 1 supported")
    sigma1 = alpha.bit_length() - 1
    sigma2 = sigma - sigma1
    if sigma2 < 1:
        raise ValueError(f"sigma={sigma} too small for alpha={alpha}")
    modulus = smallest_prime_at_least((k << sigma2) + 2)
    if modulus.q >= MAX_Q:
        raise ValueError(
            f"sigma={sigma} needs bin modulus q={modulus.q}; the field arithmetic "
            f"supports q < 2^31"
        )

    row = PARAM_TABLE.get((n, k))
    if row is not None:
        beta, log_q, s = row
        if modulus.bit_len != log_q:
            raise AssertionError(
                f"derived modulus width {modulus.bit_len} disagrees with "
                f"tabulated {log_q} for n={n}, k={k}"
            )
    else:
        beta = derive_beta(n, alpha, k, lam)
        s = _nearest_tabulated_stash(n, k) if k == 2 else 0
    if stash_size is not None:
        s = stash_size

    return ProtocolParams(
        n=n,
        k=k,
        alpha_factor=factor,
        alpha=alpha,
        beta=beta,
        stash_size=s,
        sigma=sigma,
        sigma1=sigma1,
        sigma2=sigma2,
        lam=lam,
        modulus=modulus,
    )


def sections(params):
    """The run's tuple sections as (name, rows, cols), in inventory,
    tuple-file, dealer-message and wire order.

    Alice sends one c per row and Bob returns one d per slot: alpha bins of
    beta slots, then stash_size stash rows of n slots (one per element of
    Bob's set). Every slot uses one tuple.
    """
    return (("bins", params.alpha, params.beta), ("stash", params.stash_size, params.n))


def tiles(rows, width, limit):
    """The (row slice, column slice) tiles of at most `limit` elements that
    cover a row-major rows x width array once, in row-major order: ranges
    of whole rows while a row fits in one tile, else each row in pieces.
    The one cut of the online frames and of every offline pass."""
    if width <= limit:
        step = limit // max(width, 1)
        for lo in range(0, rows, step):
            yield slice(lo, min(rows, lo + step)), slice(0, width)
    else:
        for r in range(rows):
            for lo in range(0, width, limit):
                yield slice(r, r + 1), slice(lo, min(width, lo + limit))


def online_bits_per_element(params):
    """Exact online communication cost per element, as a rational, in bits.

    rows * (cols + 1) field elements cross the wire per section (one c per
    row from one side, cols d-values back); every element is log q bits.
    """
    elements = sum(rows * (cols + 1) for _, rows, cols in sections(params))
    return Fraction(elements, params.n) * params.modulus.bit_len
