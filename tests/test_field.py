"""Prime moduli, and field arithmetic in the one representation the code
uses: values stored in dtype_for(q) arrays, widened to work_dtype(q) for
sums and products, inverted through mod_inv, encoded through the codec."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from olepsi.codec import pack_words, unpack_words
from olepsi.field import (
    FieldError,
    PrimeModulus,
    is_prime,
    smallest_prime_at_least,
)
from olepsi.modvec import dtype_for, mod_inv, work_dtype
from olepsi.offline import DealerAssistedOt, gen_seeded, gilboa_share
from olepsi.online import PsiSession
from olepsi.params import derive_params
from olepsi.prg import Seed
from olepsi.transport import (
    ALICE_C,
    Frame,
    TransportError,
    recv_elements,
    send_frame,
)

Q11 = PrimeModulus(11)


def _egcd(a, b):
    # extended Euclid, independent oracle for inverses
    if a == 0:
        return b, 0, 1
    g, x, y = _egcd(b % a, a)
    return g, y - (b // a) * x, x


def _inv_oracle(a, q):
    g, x, _ = _egcd(a % q, q)
    assert g == 1
    return x % q


def _is_prime_oracle(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vec(vals, q):
    return np.array(vals, dtype=dtype_for(q))


def _add(a, b, q):
    return (_vec(a, q).astype(work_dtype(q)) + _vec(b, q)) % q


def _sub(a, b, q):
    return (_vec(a, q).astype(work_dtype(q)) - _vec(b, q)) % q


def _mul(a, b, q):
    return _vec(a, q).astype(work_dtype(q)) * _vec(b, q) % q


def test_add_examples():
    assert _add([10, 0, 6], [5, 7, 5], 11).tolist() == [4, 7, 0]
    # 250 + 250 wraps a uint8 lane; the work dtype does not
    assert _add([250], [250], 251).tolist() == [249]


def test_sub_examples():
    assert _sub([4, 7, 3], [5, 0, 3], 11).tolist() == [10, 7, 0]
    assert _sub([0], [250], 251).tolist() == [1]


def test_mul_examples():
    assert _mul([6, 1, 0], [4, 9, 9], 11).tolist() == [2, 9, 0]
    # (q-1)^2 = 1 on either side of the int32 work-dtype bound
    for q in (32749, 32771):
        assert _mul([q - 1], [q - 1], q).tolist() == [1]


def test_inv_examples():
    assert mod_inv(_vec([3, 1, 10], 11), 11).tolist() == [4, 1, 10]
    # cross-check against the extended-Euclid oracle
    got = mod_inv(_vec(range(1, 11), 11), 11).tolist()
    assert got == [_inv_oracle(a, 11) for a in range(1, 11)]


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        mod_inv(_vec([3, 0], 11), 11)


def test_modulus_mismatch_rejected():
    # inventories over another field are refused by the session
    p = derive_params(1 << 8, 2, sigma=16)
    other = PrimeModulus(251)
    assert p.modulus != other
    alice, _ = gen_seeded(Seed(bytes(32)), 1, other, 1)
    with pytest.raises(ValueError, match="modulus"):
        PsiSession("alice", p, (alice,), bytes(16))
    # and a value of F_13 that is no value of F_11 is refused by the OT
    with pytest.raises(ValueError):
        DealerAssistedOt(Q11).ot_send_many([1], [12])


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(10).q == 11
    assert smallest_prime_at_least(11).q == 11
    assert smallest_prime_at_least(6146).q == 6151
    # oracle confirms 6151 is the first prime at or past 6146
    assert _is_prime_oracle(6151)
    for n in range(6146, 6151):
        assert not _is_prime_oracle(n)


def test_smallest_prime_below_five_rejected():
    with pytest.raises(FieldError):
        smallest_prime_at_least(4)


def test_prime_modulus_validation():
    with pytest.raises(FieldError):
        PrimeModulus(10)
    with pytest.raises(FieldError):
        PrimeModulus(4)
    with pytest.raises(FieldError):
        PrimeModulus((1 << 62) + 1)


def test_bit_len():
    assert PrimeModulus(11).bit_len == 4
    assert PrimeModulus(6151).bit_len == 13
    assert PrimeModulus(12301).bit_len == 14
    assert PrimeModulus(251).bit_len == 8


def test_is_prime_against_oracle():
    for n in range(2, 2000):
        assert is_prime(n) == _is_prime_oracle(n), n


def test_bytes_examples(channel_pair):
    q = PrimeModulus(6151)
    assert bytes(pack_words(np.array([516, 0]), 8 * q.byte_len)) == bytes([0x04, 0x02, 0, 0])
    assert unpack_words(bytes([0x04, 0x02]), 16, 1, np.uint16).tolist() == [516]
    # 13-bit words: 516 then 1 is 516 + (1 << 13), zero-padded to 4 bytes
    assert bytes(pack_words(np.array([516, 1]), q.bit_len)) == bytes([0x04, 0x22, 0, 0])
    # received words are checked against q, the pad bits and the word width
    for payload, match in (
        (bytes([0xFF, 0x1F]), "range"),
        (bytes([0x04, 0x22]), "pad"),
        (bytes([0x01]), "whole"),
    ):
        chan_a, chan_b = channel_pair(timeout=2.0)
        send_frame(chan_a, Frame(ALICE_C, payload))
        with pytest.raises(TransportError, match=match):
            recv_elements(chan_b, ALICE_C, q, 1)


def test_element_out_of_range_rejected():
    ot = DealerAssistedOt(Q11, seed=Seed(bytes(32)))
    for bad in (11, -1):
        with pytest.raises(ValueError):
            ot.ot_send_many([bad], [0])
    with pytest.raises(ValueError):
        gilboa_share(ot, 11, 3)


# every modulus the vectorized arithmetic supports: below 2^31, covering
# the inverse-table and the square-and-multiply inversion paths
_PRIMES = [5, 11, 101, 251, 6151, 12301, (1 << 31) - 1]
# the codec also carries the widest moduli PrimeModulus accepts
_CODEC_PRIMES = _PRIMES + [786449, (1 << 61) - 1]


@st.composite
def _pairs(draw, primes=_PRIMES):
    q = draw(st.sampled_from(primes))
    a = draw(st.integers(0, q - 1))
    b = draw(st.integers(0, q - 1))
    return q, a, b


@st.composite
def _triples(draw):
    q = draw(st.sampled_from(_PRIMES))
    vals = [draw(st.integers(0, q - 1)) for _ in range(3)]
    return q, vals


def _one(op, a, b, q):
    return int(op([a], [b], q)[0])


@given(_triples())
def test_field_axioms(case):
    q, (a, b, c) = case
    add = lambda x, y: _one(_add, x, y, q)
    mul = lambda x, y: _one(_mul, x, y, q)
    assert add(a, b) == (a + b) % q
    assert mul(a, b) == a * b % q
    assert add(add(a, b), c) == add(a, add(b, c))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(_pairs())
def test_sub_undoes_add(case):
    q, a, b = case
    assert _one(_sub, _one(_add, a, b, q), b, q) == a
    assert _one(_sub, a, b, q) == (a - b) % q


@given(_pairs())
def test_inverse_property(case):
    q, a, _ = case
    if a == 0:
        return
    inv = int(mod_inv(_vec([a], q), q)[0])
    assert a * inv % q == 1
    assert inv == _inv_oracle(a, q)


@given(_pairs(_CODEC_PRIMES))
def test_bytes_roundtrip(case):
    q, a, _ = case
    m = PrimeModulus(q)
    encoded = bytes(pack_words(np.array([a]), 8 * m.byte_len))
    assert len(encoded) == m.byte_len
    assert encoded == a.to_bytes(m.byte_len, "little")
    assert unpack_words(encoded, 8 * m.byte_len, 1, dtype_for(q)).tolist() == [a]
