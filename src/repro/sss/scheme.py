"""Classic Shamir Secret Sharing (dealer / reconstructor).

:class:`ShamirScheme` is the textbook scheme: split a secret into shares
evaluated at given public points, reconstruct from any ``degree + 1`` of
them.  The aggregation protocol in :mod:`repro.sss.aggregation` composes
many dealers' shares; this class is the single-dealer building block and
is also used directly by the privacy analysis.

:meth:`ShamirScheme.deal_point_sums` is the collector-side form of a
whole cell's deal: what every collector point holds once each dealer's
share has been added in.  Over the default Mersenne-61 field it draws
all coefficients in one keystream read and evaluates every dealer at
every point with the numpy matrix Horner; the result is bit-identical
to summing :meth:`ShamirScheme.split_many`, which stays the reference
(and the only path without numpy or off the fast path).
"""

from __future__ import annotations

from typing import Sequence

from repro import fastpath
from repro.crypto.prng import AesCtrDrbg
from repro.errors import ReconstructionError, SecretSharingError
from repro.field import kernels
from repro.field.kernels import M61, horner_eval_many
from repro.field.lagrange import interpolate_constant, interpolate_polynomial
from repro.field.polynomial import Polynomial
from repro.field.prime_field import FieldElement, IntoElement, PrimeField
from repro.sss.shares import Share


class ShamirScheme:
    """A ``(degree, n)`` Shamir scheme over a prime field.

    ``degree`` is the polynomial degree, i.e. the *collusion threshold*:
    any coalition of at most ``degree`` share-holders learns nothing about
    the secret, while any ``degree + 1`` shares reconstruct it exactly.
    """

    __slots__ = ("_field", "_degree")

    def __init__(self, field: PrimeField, degree: int):
        if degree < 0:
            raise SecretSharingError(f"degree must be >= 0, got {degree}")
        if degree >= field.prime - 1:
            raise SecretSharingError(
                f"degree {degree} too large for GF({field.prime})"
            )
        self._field = field
        self._degree = degree

    @property
    def field(self) -> PrimeField:
        """Field the scheme operates in."""
        return self._field

    @property
    def degree(self) -> int:
        """Polynomial degree == collusion threshold."""
        return self._degree

    @property
    def threshold(self) -> int:
        """Number of shares needed to reconstruct (``degree + 1``)."""
        return self._degree + 1

    def deal_polynomial(self, secret: IntoElement, rng) -> Polynomial:
        """Draw the dealer polynomial hiding ``secret``."""
        return Polynomial.random_with_secret(
            self._field, secret, self._degree, rng
        )

    def _validated_points(
        self, points: Sequence[IntoElement]
    ) -> list[FieldElement]:
        """Coerce and validate a public-point set (shared by both splits).

        ``points`` must contain at least ``degree + 1`` distinct non-zero
        points, otherwise the secret could never be reconstructed.
        """
        elements = [self._field(p) for p in points]
        if len({e.value for e in elements}) != len(elements):
            raise SecretSharingError("public points must be distinct")
        if any(e.value == 0 for e in elements):
            raise SecretSharingError("x=0 cannot be a public point")
        if len(elements) < self.threshold:
            raise SecretSharingError(
                f"need at least {self.threshold} points for degree "
                f"{self._degree}, got {len(elements)}"
            )
        return elements

    def split(
        self,
        secret: IntoElement,
        points: Sequence[IntoElement],
        rng,
        dealer_id: int = 0,
    ) -> list[Share]:
        """Split ``secret`` into one share per public point."""
        elements = self._validated_points(points)
        polynomial = self.deal_polynomial(secret, rng)
        return [
            Share(dealer_id=dealer_id, x=x, y=polynomial(x)) for x in elements
        ]

    def split_many(
        self,
        secrets: Sequence[IntoElement],
        points: Sequence[IntoElement],
        rng,
        dealer_ids: Sequence[int] | None = None,
    ) -> list[list[Share]]:
        """Split many secrets at once over a common public-point set.

        The batched form of :meth:`split`: point validation happens once,
        each dealer polynomial is evaluated with the raw-integer Horner
        kernel, and ``FieldElement`` objects are built only for the final
        :class:`Share` values.  The randomness draw order matches
        ``[self.split(s, points, rng) for s in secrets]`` exactly, so the
        two paths produce *identical* shares from identical RNG state
        (enforced by ``tests/sss/test_batch_fastpath.py``).
        """
        if dealer_ids is None:
            dealer_ids = range(len(secrets))
        elif len(dealer_ids) != len(secrets):
            raise SecretSharingError(
                f"{len(dealer_ids)} dealer ids for {len(secrets)} secrets"
            )
        field = self._field
        elements = self._validated_points(points)
        x_values = [e.value for e in elements]
        prime = field.prime
        batches: list[list[Share]] = []
        for secret, dealer_id in zip(secrets, dealer_ids):
            polynomial = self.deal_polynomial(secret, rng)
            values = horner_eval_many(polynomial.coefficients, x_values, prime)
            batches.append(
                [
                    Share(dealer_id=dealer_id, x=x, y=FieldElement(field, y))
                    for x, y in zip(elements, values)
                ]
            )
        return batches

    def deal_point_sums(
        self,
        secrets: Sequence[IntoElement],
        points: Sequence[IntoElement],
        rng,
    ) -> dict[int, int]:
        """Deal every secret over ``points`` and sum the shares per point.

        Returns ``{x: Σ_d f_d(x) mod p}``, the values the collectors at
        ``points`` hold after receiving one share from each dealer —
        equal, bit for bit and with the same ``rng`` stream consumed, to
        summing ``split_many(secrets, points, rng)`` per point.  Every
        dealer's share at every point is still computed; only the
        per-share ``Share`` objects are skipped.

        The batched path runs when the fast and vector backends are on,
        numpy is present, the field is GF(2**61 - 1), every point is
        below :data:`~repro.field.kernels.M61_MATRIX_POINT_LIMIT` and
        ``rng`` is an :class:`~repro.crypto.prng.AesCtrDrbg` (whose
        ``getrandbits(61)`` is one 8-byte big-endian word ``>> 3``);
        otherwise the scalar ``split_many`` sum runs.
        """
        elements = self._validated_points(points)
        xs = [e.value for e in elements]
        if (
            fastpath.enabled()
            and fastpath.vector_enabled()
            and kernels.HAVE_NUMPY
            and self._field.prime == M61
            and self._degree >= 1
            and max(xs) < kernels.M61_MATRIX_POINT_LIMIT
            and isinstance(rng, AesCtrDrbg)
        ):
            constants = [self._field(secret).value for secret in secrets]
            coefficients = self._draw_m61_coefficients(len(constants), rng)
            sums = kernels.horner_point_sums_m61(constants, coefficients, xs)
            return dict(zip(xs, sums))
        prime = self._field.prime
        totals = dict.fromkeys(xs, 0)
        for shares in self.split_many(secrets, xs, rng):
            for share in shares:
                x = share.x.value
                totals[x] = (totals[x] + share.y.value) % prime
        return totals

    def _draw_m61_coefficients(self, dealers: int, rng: AesCtrDrbg):
        """The random coefficients of ``dealers`` polynomials, in one read.

        Stream-identical to ``dealers`` calls of
        :meth:`Polynomial.random_with_secret`: per dealer, ``degree - 1``
        draws of ``randrange(p)`` then ``1 + randrange(p - 1)``, each a
        61-bit ``getrandbits`` candidate rejected when not below its
        bound.  All candidates are read at once; if any is rejected
        (probability about ``3 * 2**-61`` per dealer) the sampler is
        replayed in order over the same words, continuing on the stream.
        Returns ``(dealers, degree)`` coefficients, lowest degree first:
        a ``uint64`` array, or nested lists after a replay.
        """
        degree = self._degree
        size = 8 * dealers * degree
        rng.prefill(size)
        draws = kernels.words_m61(rng.random_bytes(size)).reshape(dealers, degree)
        if (draws[:, :-1] >= M61).any() or (draws[:, -1] >= M61 - 1).any():
            return _replay_rejections(draws.ravel().tolist(), dealers, degree, rng)
        draws[:, -1] += 1
        return draws

    def reconstruct(self, shares: Sequence[Share]) -> FieldElement:
        """Reconstruct the secret from at least ``degree + 1`` shares."""
        self._validate_share_set(shares)
        points = [(share.x, share.y) for share in shares[: self.threshold]]
        return interpolate_constant(self._field, points)

    def reconstruct_polynomial(self, shares: Sequence[Share]) -> Polynomial:
        """Recover the full dealer polynomial (testing / analysis tool)."""
        self._validate_share_set(shares)
        points = [(share.x, share.y) for share in shares]
        polynomial = interpolate_polynomial(self._field, points)
        if polynomial.degree > self._degree:
            raise ReconstructionError(
                f"shares are inconsistent: interpolated degree "
                f"{polynomial.degree} exceeds scheme degree {self._degree}"
            )
        return polynomial

    def _validate_share_set(self, shares: Sequence[Share]) -> None:
        if len(shares) < self.threshold:
            raise ReconstructionError(
                f"need {self.threshold} shares, got {len(shares)}"
            )
        xs = [share.x.value for share in shares]
        if len(set(xs)) != len(xs):
            raise ReconstructionError("shares contain duplicate x-coordinates")
        for share in shares:
            if share.x.field is not self._field:
                raise ReconstructionError("share from a different field")

    def __repr__(self) -> str:
        return f"ShamirScheme(degree={self._degree}, field=GF({self._field.prime}))"


def _replay_rejections(
    words: list[int], dealers: int, degree: int, rng: AesCtrDrbg
) -> list[list[int]]:
    """The rejection sampler of ``random_with_secret``, run over ``words``.

    ``words`` are the 61-bit candidates already read from ``rng``; once
    they run out, further candidates come from ``rng.getrandbits(61)``,
    the next words of the same stream.
    """
    candidates = iter(words)

    def draw(bound: int) -> int:
        while True:
            candidate = next(candidates, None)
            if candidate is None:
                candidate = rng.getrandbits(61)
            if candidate < bound:
                return candidate

    rows = []
    for _ in range(dealers):
        row = [draw(M61) for _ in range(degree - 1)]
        row.append(1 + draw(M61 - 1))
        rows.append(row)
    return rows
