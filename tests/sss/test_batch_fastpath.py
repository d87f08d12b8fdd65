"""Batched SSS entry points must be bit-identical to the scalar scheme."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.crypto.prng import AesCtrDrbg
from repro.errors import ReconstructionError, SecretSharingError
from repro.field import kernels
from repro.field.prime_field import MERSENNE_61, PrimeField
from repro.sss.aggregation import reconstruct_from_sums, reconstruct_many_from_sums
from repro.sss.scheme import ShamirScheme


@pytest.fixture
def field():
    return PrimeField(MERSENNE_61)


class TestSplitMany:
    @given(
        degree=st.integers(min_value=1, max_value=6),
        num_secrets=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_to_sequential_scalar_split(self, degree, num_secrets, seed):
        field = PrimeField(MERSENNE_61)
        scheme = ShamirScheme(field, degree)
        points = list(range(1, degree + 6))
        secrets = [(seed + i * 7919) % 100_000 for i in range(num_secrets)]

        rng_scalar = AesCtrDrbg.from_seed(seed)
        scalar = [
            scheme.split(secret, points, rng_scalar, dealer_id=i)
            for i, secret in enumerate(secrets)
        ]
        rng_batched = AesCtrDrbg.from_seed(seed)
        batched = scheme.split_many(secrets, points, rng_batched)

        assert len(batched) == len(scalar)
        for scalar_shares, batched_shares in zip(scalar, batched):
            for a, b in zip(scalar_shares, batched_shares):
                assert (a.dealer_id, a.x.value, a.y.value) == (
                    b.dealer_id,
                    b.x.value,
                    b.y.value,
                )

    def test_custom_dealer_ids(self, field):
        scheme = ShamirScheme(field, 2)
        batches = scheme.split_many(
            [5, 6], [1, 2, 3, 4], AesCtrDrbg.from_seed(b"ids"), dealer_ids=[17, 23]
        )
        assert [batch[0].dealer_id for batch in batches] == [17, 23]

    def test_dealer_id_length_mismatch(self, field):
        scheme = ShamirScheme(field, 1)
        with pytest.raises(SecretSharingError):
            scheme.split_many([1, 2], [1, 2], AesCtrDrbg.from_seed(b"x"), dealer_ids=[1])

    def test_validation_mirrors_scalar(self, field):
        scheme = ShamirScheme(field, 2)
        rng = AesCtrDrbg.from_seed(b"v")
        with pytest.raises(SecretSharingError):
            scheme.split_many([1], [1, 1, 2], rng)
        with pytest.raises(SecretSharingError):
            scheme.split_many([1], [0, 1, 2], rng)
        with pytest.raises(SecretSharingError):
            scheme.split_many([1], [1, 2], rng)

    def test_batched_shares_reconstruct(self, field):
        scheme = ShamirScheme(field, 3)
        points = list(range(1, 9))
        batches = scheme.split_many(
            [111, 222, 333], points, AesCtrDrbg.from_seed(b"rec")
        )
        for secret, shares in zip([111, 222, 333], batches):
            assert scheme.reconstruct(shares[:4]).value == secret


def _summed_split_many(scheme, secrets, points, rng):
    """The reference deal: every ``Share`` of ``split_many``, summed per point."""
    prime = scheme.field.prime
    sums = dict.fromkeys(points, 0)
    for shares in scheme.split_many(secrets, points, rng):
        for share in shares:
            sums[share.x.value] = (sums[share.x.value] + share.y.value) % prime
    return sums


#: An 8-byte word whose 61-bit candidate is ``2**61 - 1 == p``: refused
#: for both coefficient bounds (``p`` and ``p - 1``).
ALL_ONES = b"\xff" * 8
#: An 8-byte word whose candidate is ``p - 1``: a valid ``randrange(p)``
#: draw, refused only as the leading coefficient (``randrange(p - 1)``).
P_MINUS_ONE = ((MERSENNE_61 - 1) << 3).to_bytes(8, "big")


class _ScriptedDrbg(AesCtrDrbg):
    """The AES-CTR stream with chosen 8-byte words replaced."""

    __slots__ = ("_script",)

    def __init__(self, key, script):
        super().__init__(key)
        self._script = dict(script)

    def _generate_blocks(self, count):
        first_word = 2 * self._counter
        raw = bytearray(super()._generate_blocks(count))
        for word, value in self._script.items():
            offset = 8 * (word - first_word)
            if 0 <= offset < len(raw):
                raw[offset : offset + 8] = value
        return bytes(raw)


@pytest.fixture
def batched_calls(monkeypatch):
    """Count calls of the numpy point-sum kernel (the batched path)."""
    calls = []
    kernel = kernels.horner_point_sums_m61

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(kernels, "horner_point_sums_m61", spy)
    return calls


needs_numpy = pytest.mark.skipif(not kernels.HAVE_NUMPY, reason="numpy absent")


class TestDealPointSums:
    """``deal_point_sums`` ≡ summing ``split_many``, on every path."""

    @pytest.mark.parametrize(
        "size, seed",
        [(size, seed) for size in (1, 2, 3, 16, 64, 200) for seed in (0, 7, 2**40)]
        + [(333, 5)],
    )
    def test_equals_summed_split_many(self, field, batched_calls, size, seed):
        degree = max(1, size // 3)
        scheme = ShamirScheme(field, degree)
        points = list(range(1, degree + 2))
        secrets = [(seed * 31 + i * 7919) % field.prime for i in range(size)]
        rng_batched = AesCtrDrbg.from_seed(seed)
        rng_oracle = AesCtrDrbg.from_seed(seed)
        with fastpath.forced(True), fastpath.forced_vector(True):
            batched = scheme.deal_point_sums(secrets, points, rng_batched)
        assert batched == _summed_split_many(scheme, secrets, points, rng_oracle)
        # The same stream was consumed: both continue identically.
        assert rng_batched.random_bytes(64) == rng_oracle.random_bytes(64)
        assert len(batched_calls) == int(kernels.HAVE_NUMPY)

    @needs_numpy
    @pytest.mark.parametrize("degree", [1, 2, 5])
    @pytest.mark.parametrize("case", ["all-ones", "p-1"])
    def test_forced_rejections_replay_the_stream(self, field, batched_calls, degree, case):
        dealers = 4
        drawn = dealers * degree
        if case == "all-ones":
            # Reject the first random coefficient, the first dealer's
            # leading coefficient, the last word of the bulk read and the
            # first word after it, so the replay continues on the stream.
            script = dict.fromkeys({0, degree - 1, drawn - 1, drawn}, ALL_ONES)
        else:
            # p - 1 passes as a random coefficient (word 0 when degree >
            # 1) and is refused as the first dealer's leading coefficient.
            script = dict.fromkeys({0, degree - 1}, P_MINUS_ONE)
        scheme = ShamirScheme(field, degree)
        points = list(range(1, degree + 4))
        secrets = [11, 22, 33, 44]
        key = bytes(range(16))
        rng_batched = _ScriptedDrbg(key, script)
        rng_oracle = _ScriptedDrbg(key, script)
        with fastpath.forced(True), fastpath.forced_vector(True):
            batched = scheme.deal_point_sums(secrets, points, rng_batched)
        assert batched_calls
        assert batched == _summed_split_many(scheme, secrets, points, rng_oracle)
        assert rng_batched.random_bytes(64) == rng_oracle.random_bytes(64)
        plain = scheme.deal_point_sums(secrets, points, AesCtrDrbg(key))
        assert plain != batched

    @pytest.mark.parametrize("switch", ["no-numpy", "vector-off", "fastpath-off"])
    def test_scalar_fallback(self, field, batched_calls, monkeypatch, switch):
        if switch == "no-numpy":
            monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
            selected = fastpath.forced_vector(True)
        elif switch == "vector-off":
            selected = fastpath.forced_vector(False)
        else:
            selected = fastpath.disabled()
        scheme = ShamirScheme(field, 5)
        points = list(range(1, 7))
        secrets = list(range(100, 116))
        with selected:
            batched = scheme.deal_point_sums(secrets, points, AesCtrDrbg.from_seed(3))
            oracle = _summed_split_many(
                scheme, secrets, points, AesCtrDrbg.from_seed(3)
            )
        assert batched == oracle
        assert not batched_calls

    def test_non_mersenne_field_falls_back(self, batched_calls):
        field = PrimeField(2**31 - 1)
        scheme = ShamirScheme(field, 4)
        points = [1, 2, 3, 4, 5, 6]
        secrets = [field.prime - 1, 0, 5, 9]
        with fastpath.forced(True), fastpath.forced_vector(True):
            batched = scheme.deal_point_sums(secrets, points, AesCtrDrbg.from_seed(1))
        oracle = _summed_split_many(scheme, secrets, points, AesCtrDrbg.from_seed(1))
        assert batched == oracle
        assert not batched_calls

    def test_point_limit_selects_the_path(self, field, batched_calls):
        scheme = ShamirScheme(field, 3)
        limit = kernels.M61_MATRIX_POINT_LIMIT
        secrets = [MERSENNE_61 - 1, 1, 2, 3, 4]
        for top, batched_path in ((limit - 1, True), (limit, False)):
            points = [1, 2, 3, top]
            batched_calls.clear()
            with fastpath.forced(True), fastpath.forced_vector(True):
                batched = scheme.deal_point_sums(
                    secrets, points, AesCtrDrbg.from_seed(top)
                )
            oracle = _summed_split_many(
                scheme, secrets, points, AesCtrDrbg.from_seed(top)
            )
            assert batched == oracle
            assert len(batched_calls) == int(batched_path and kernels.HAVE_NUMPY)

    def test_validates_points_like_split(self, field):
        scheme = ShamirScheme(field, 2)
        rng = AesCtrDrbg.from_seed(b"v")
        for points in ([1, 1, 2], [0, 1, 2], [1, 2]):
            with pytest.raises(SecretSharingError):
                scheme.deal_point_sums([1], points, rng)

    def test_sums_reconstruct_the_total(self, field):
        scheme = ShamirScheme(field, 4)
        secrets = [10, 20, 30, 40, 50]
        sums = scheme.deal_point_sums(secrets, range(1, 6), AesCtrDrbg.from_seed(9))
        [total] = reconstruct_many_from_sums(field, [sums], 4)
        assert total.value == sum(secrets)


class TestBatchedReconstruction:
    def test_matches_scalar_on_both_paths(self, field):
        sums = [
            {x: (x * 37 + i * 13) % field.prime for x in range(1, 10)}
            for i in range(20)
        ]
        with fastpath.forced(False):
            scalar = [reconstruct_from_sums(field, s, 8) for s in sums]
        with fastpath.forced(True):
            batched = reconstruct_many_from_sums(field, sums, 8)
        assert [e.value for e in batched] == [e.value for e in scalar]

    def test_threshold_enforced(self, field):
        with pytest.raises(ReconstructionError):
            reconstruct_many_from_sums(field, [{1: 5}], degree=2)

    def test_roundtrip_through_scheme(self, field):
        scheme = ShamirScheme(field, 2)
        points = [1, 2, 3, 4, 5]
        secrets = [10, 20, 30]
        batches = scheme.split_many(secrets, points, AesCtrDrbg.from_seed(b"rt"))
        # Sum the dealers' shares per point: classic additive aggregation.
        sums = {
            x: sum(batch[i].y.value for batch in batches) % field.prime
            for i, x in enumerate(points)
        }
        [aggregate] = reconstruct_many_from_sums(field, [sums], 2)
        assert aggregate.value == sum(secrets)
