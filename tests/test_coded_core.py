import pytest
from hypothesis import given, strategies as st

from vitalcode.coded_core import (FunctionalOverflow, NotPrimeError,
                                  OutOfRangeError, check, encode, make_key,
                                  opel_add, opel_move, opel_mul, opel_sub)

A13 = make_key(13)


class TestMakeKey:
    def test_small_prime(self):
        key = make_key(13)
        assert key.modulus == 13 and key.bit_width == 4

    def test_mersenne_prime(self):
        key = make_key(2**31 - 1)
        assert key.modulus == 2147483647 and key.bit_width == 31

    def test_composite_rejected(self):
        with pytest.raises(NotPrimeError):
            make_key(12)

    @pytest.mark.parametrize("bad", [0, 1, 2, -7, 1 << 48, (1 << 50) + 1])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRangeError):
            make_key(bad)


class TestEncodeCheck:
    def test_encode_example(self):
        assert encode(7, 5, 0, A13) == (7, 12)

    def test_all_zero(self):
        assert encode(0, 0, 0, A13) == (0, 0)

    def test_with_date(self):
        assert encode(20, 5, 3, A13) == (20, 2)

    def test_check_accepts_encode(self):
        assert check((7, 12), 5, 0, A13)
        assert check((0, 0), 0, 0, A13)

    def test_check_rejects_corruption(self):
        assert not check((8, 12), 5, 0, A13)

    @given(st.integers(min_value=-10**6, max_value=10**6),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=40))
    def test_round_trip(self, x, sig, date):
        assert check(encode(x, sig, date, A13), sig, date, A13)


def kadd(b3, b1, b2, d, key=A13):
    return (b3 - b1 - b2 - d) % key.modulus


def ksub(b3, b1, b2, d, key=A13):
    return (b3 - b1 + b2 + d) % key.modulus


def kmul(b3, b1, b2, d, key=A13):
    a = key.modulus
    t1, t2 = (b1 + d) % a, (b2 + d) % a
    return t1, t2, (b3 + d - t1 * t2) % a


class TestOpelAdd:
    def test_worked_example(self):
        v1 = encode(7, 5, 0, A13)
        v2 = encode(3, 2, 0, A13)
        out = opel_add(v1, v2, kadd(9, 5, 2, 0), A13)
        assert out == (10, 6)
        assert check(out, 9, 0, A13)

    def test_all_zero(self):
        out = opel_add((0, 0), (0, 0), 0, A13)
        assert out == (0, 0)

    def test_with_date(self):
        v1 = encode(4, 3, 1, A13)
        v2 = encode(6, 7, 1, A13)
        assert v1 == (4, 8) and v2 == (6, 1)
        out = opel_add(v1, v2, kadd(2, 3, 7, 1), A13)
        assert out == (10, 0)
        assert check(out, 2, 1, A13)

    def test_overflow_raises(self):
        big = encode(2**63 - 1, 0, 0, A13)
        one = encode(1, 0, 0, A13)
        with pytest.raises(FunctionalOverflow):
            opel_add(big, one, 0, A13)

    def test_code_channel_ignores_functional_fields(self):
        # Same code fields with different functional fields must produce
        # identical output codes.
        k = kadd(9, 5, 2, 0)
        _, c_a = opel_add((7, 12), (3, 5), k, A13)
        _, c_b = opel_add((70, 12), (31, 5), k, A13)
        assert c_a == c_b


class TestOpelSub:
    def test_worked_example(self):
        v1 = encode(7, 5, 0, A13)
        v2 = encode(3, 2, 0, A13)
        k = ksub(1, 5, 2, 0)
        assert k == 11
        out = opel_sub(v1, v2, k, A13)
        assert out == (4, 5)
        assert check(out, 1, 0, A13)

    def test_self_difference(self):
        v = encode(9, 0, 0, A13)
        assert opel_sub(v, v, 0, A13) == (0, 0)

    def test_date_shift_detected(self):
        v1 = encode(7, 5, 1, A13)
        v2 = encode(3, 2, 1, A13)
        out = opel_sub(v1, v2, ksub(1, 5, 2, 1), A13)
        assert check(out, 1, 1, A13)
        assert not check(out, 1, 0, A13)


class TestOpelMul:
    def test_worked_example(self):
        v1 = encode(7, 5, 0, A13)
        v2 = encode(3, 2, 0, A13)
        t1, t2, km = kmul(4, 5, 2, 0)
        assert (t1, t2, km) == (5, 2, 7)
        out = opel_mul(v1, v2, t1, t2, km, A13)
        assert out == (21, 12)
        assert check(out, 4, 0, A13)

    def test_zero_signature_identity(self):
        one = (1, 1)
        out = opel_mul(one, one, 0, 0, 0, A13)
        assert out == (1, 1)

    def test_corrupted_operand_detected(self):
        v1 = (8, 12)  # functional corrupted from 7
        v2 = encode(3, 2, 0, A13)
        t1, t2, km = kmul(4, 5, 2, 0)
        out = opel_mul(v1, v2, t1, t2, km, A13)
        # Residual error is (7-8)*c2 mod 13, nonzero since c2 = 5.
        assert not check(out, 4, 0, A13)


class TestOpelMove:
    def test_resignature(self):
        v = encode(7, 5, 0, A13)
        out = opel_move(v, 4, A13)
        assert out == (7, 3)
        assert check(out, 9, 0, A13)

    def test_identity_move(self):
        v = encode(7, 5, 0, A13)
        assert opel_move(v, 0, A13) == v

    def test_old_signature_rejected_after_move(self):
        v = encode(7, 5, 0, A13)
        out = opel_move(v, 4, A13)
        assert not check(out, 5, 0, A13)


class TestSoundness:
    """Well-formed inputs with predetermined constants always yield a
    well-formed output for the destination signature."""

    @given(st.integers(min_value=-100, max_value=100),
           st.integers(min_value=-100, max_value=100),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=-3, max_value=3))
    def test_every_opel_preserves_coherence(self, x1, x2, b1, b2, b3, d, m):
        # Each compensation constant is also passed as k + m*A: an OPEL
        # reduces its result once, so a congruent constant gives the same
        # exact pair.  run_cycle passes its constants unreduced.
        v1 = encode(x1, b1, d, A13)
        v2 = encode(x2, b2, d, A13)
        t1, t2, km = kmul(b3, b1, b2, d)
        for opel, ks in ((opel_add, (kadd(b3, b1, b2, d),)),
                         (opel_sub, (ksub(b3, b1, b2, d),)),
                         (opel_mul, (t1, t2, km))):
            out = opel(v1, v2, *ks, A13)
            assert check(out, b3, d, A13)
            shifted = opel(v1, v2, *(k + m * 13 for k in ks), A13)
            assert type(shifted) is tuple and shifted == out
            assert 0 <= shifted[1] < 13
        move_k = (b3 - b1) % 13
        out = opel_move(v1, move_k, A13)
        assert check(out, b3, d, A13)
        shifted = opel_move(v1, move_k + m * 13, A13)
        assert type(shifted) is tuple and shifted == out
        assert 0 <= shifted[1] < 13

    def test_exhaustive_small_key(self):
        # All x in a band, all signature triples, fixed date: ADD stays
        # coherent.  The hypothesis property covers the other opels.
        d = 5
        for b1 in range(13):
            for b2 in range(13):
                b3 = (b1 + b2 + 1) % 13
                k = kadd(b3, b1, b2, d)
                for x1 in range(-100, 101, 7):
                    v1 = encode(x1, b1, d, A13)
                    v2 = encode(-x1 + 3, b2, d, A13)
                    assert check(opel_add(v1, v2, k, A13), b3, d, A13)


class TestErrorDetection:
    def test_delta_detected_iff_not_multiple_of_key(self):
        x, c = encode(42, 7, 4, A13)
        for delta in range(-260, 261):
            corrupted = (x + delta, c)
            assert check(corrupted, 7, 4, A13) == (delta % 13 == 0)

    def test_operand_substitution(self):
        # Substituted value passes the check only under a colliding
        # signature.
        for b_v in range(13):
            for b_w in range(13):
                w = encode(9, b_w, 0, A13)
                assert check(w, b_v, 0, A13) == (b_v == b_w)

    def test_stale_date(self):
        v = encode(5, 3, 10, A13)
        for later in range(10, 10 + 40):
            assert check(v, 3, later, A13) == ((later - 10) % 13 == 0)
