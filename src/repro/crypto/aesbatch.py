"""Vectorized AES-128 over packet batches (numpy backend).

A sharing round encrypts and MACs hundreds of independent share packets,
each under its own pairwise key.  Per-block Python AES costs ~10 µs; the
same T-table round function expressed as numpy gathers over ``(N,)``
uint32 lanes costs ~1-2 µs per block once a round's packets are batched,
because the interpreter overhead is paid per *round function*, not per
block.

The kernel evaluates exactly the column equations of
:mod:`repro.crypto.aes` (same tables, same key schedule), so its output
is bit-identical to the scalar implementation — enforced by
``tests/crypto/test_aes_fastpath.py``.  numpy is an optional
acceleration: every caller must guard on :data:`HAVE_NUMPY` and fall
back to the scalar path (the library never *requires* numpy).
"""

from __future__ import annotations

from repro.crypto.aes import _SBOX, _TE0, _TE1, _TE2, _TE3, AES128

try:  # pragma: no cover - import guard
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

HAVE_NUMPY = _np is not None

if HAVE_NUMPY:
    _T0 = _np.array(_TE0, dtype=_np.uint32)
    _T1 = _np.array(_TE1, dtype=_np.uint32)
    _T2 = _np.array(_TE2, dtype=_np.uint32)
    _T3 = _np.array(_TE3, dtype=_np.uint32)
    _S = _np.array(list(_SBOX), dtype=_np.uint32)

#: Cached per-cipher round-key rows (uint32, length 44), keyed by id().
#: The callers' pairwise codec ciphers are pooled process-wide by
#: :mod:`repro.core.protocol`, so rows are reused round after round;
#: each entry holds its cipher, so an id() is never recycled while
#: cached.  The cache is cleared wholesale when it grows past the bound.
_KEY_ROWS: dict[int, "tuple[AES128, object]"] = {}
_KEY_ROWS_MAX = 8192


def key_rows(ciphers) -> "object":
    """Stack the expanded round keys of ``ciphers`` into an (N, 44) array.

    Every cipher must be a table-mode :class:`AES128` (the fast path
    guarantees this); the row for each cipher is cached so repeated
    rounds over the same pairwise keys only pay a stack, not a rebuild.
    The cache holds a reference to the cipher itself so an id() can never
    be recycled while its row is alive.
    """
    rows = []
    for cipher in ciphers:
        entry = _KEY_ROWS.get(id(cipher))
        if entry is None or entry[0] is not cipher:
            row = _np.array(cipher._enc_words, dtype=_np.uint32)
            if len(_KEY_ROWS) >= _KEY_ROWS_MAX:
                _KEY_ROWS.clear()
            entry = (cipher, row)
            _KEY_ROWS[id(cipher)] = entry
        rows.append(entry[1])
    return _np.stack(rows)


def words_from_ints(values) -> "tuple":
    """Split 128-bit block ints into four big-endian uint32 word arrays."""
    s0 = _np.fromiter((v >> 96 for v in values), dtype=_np.uint32, count=len(values))
    s1 = _np.fromiter(
        ((v >> 64) & 0xFFFFFFFF for v in values), dtype=_np.uint32, count=len(values)
    )
    s2 = _np.fromiter(
        ((v >> 32) & 0xFFFFFFFF for v in values), dtype=_np.uint32, count=len(values)
    )
    s3 = _np.fromiter(
        (v & 0xFFFFFFFF for v in values), dtype=_np.uint32, count=len(values)
    )
    return s0, s1, s2, s3


def ints_from_words(words) -> list[int]:
    """Inverse of :func:`words_from_ints`."""
    s0, s1, s2, s3 = (w.tolist() for w in words)
    return [
        (a << 96) | (b << 64) | (c << 32) | d
        for a, b, c, d in zip(s0, s1, s2, s3)
    ]


def encrypt_words(rk, s0, s1, s2, s3):
    """One AES-128 encryption per lane; state as four uint32 arrays.

    ``rk`` is the (N, 44) round-key matrix from :func:`key_rows` — each
    lane uses its own key.  Returns the four output word arrays.
    """
    s0 = s0 ^ rk[:, 0]
    s1 = s1 ^ rk[:, 1]
    s2 = s2 ^ rk[:, 2]
    s3 = s3 ^ rk[:, 3]
    for round_index in range(1, 10):
        k = 4 * round_index
        u0 = _T0[s0 >> 24] ^ _T1[(s1 >> 16) & 255] ^ _T2[(s2 >> 8) & 255] ^ _T3[s3 & 255] ^ rk[:, k]
        u1 = _T0[s1 >> 24] ^ _T1[(s2 >> 16) & 255] ^ _T2[(s3 >> 8) & 255] ^ _T3[s0 & 255] ^ rk[:, k + 1]
        u2 = _T0[s2 >> 24] ^ _T1[(s3 >> 16) & 255] ^ _T2[(s0 >> 8) & 255] ^ _T3[s1 & 255] ^ rk[:, k + 2]
        u3 = _T0[s3 >> 24] ^ _T1[(s0 >> 16) & 255] ^ _T2[(s1 >> 8) & 255] ^ _T3[s2 & 255] ^ rk[:, k + 3]
        s0, s1, s2, s3 = u0, u1, u2, u3
    u0 = ((_S[s0 >> 24] << 24) | (_S[(s1 >> 16) & 255] << 16) | (_S[(s2 >> 8) & 255] << 8) | _S[s3 & 255]) ^ rk[:, 40]
    u1 = ((_S[s1 >> 24] << 24) | (_S[(s2 >> 16) & 255] << 16) | (_S[(s3 >> 8) & 255] << 8) | _S[s0 & 255]) ^ rk[:, 41]
    u2 = ((_S[s2 >> 24] << 24) | (_S[(s3 >> 16) & 255] << 16) | (_S[(s0 >> 8) & 255] << 8) | _S[s1 & 255]) ^ rk[:, 42]
    u3 = ((_S[s3 >> 24] << 24) | (_S[(s0 >> 16) & 255] << 16) | (_S[(s1 >> 8) & 255] << 8) | _S[s2 & 255]) ^ rk[:, 43]
    return u0, u1, u2, u3


def encrypt_blocks(ciphers, blocks: list[int]) -> list[int]:
    """One single-block encryption per (cipher, block) pair, batched.

    Bit-identical to ``[c.encrypt_int(b) for c, b in zip(ciphers, blocks)]``.
    """
    if not blocks:
        return []
    rk = key_rows(ciphers)
    return ints_from_words(encrypt_words(rk, *words_from_ints(blocks)))


def ctr_keystream(cipher: AES128, counter: int, count: int) -> bytes:
    """``count`` CTR keystream blocks of ``cipher``, lane-vectorized.

    Bit-identical to ``cipher.ctr_blocks(counter, count)`` — the same
    big-endian counter blocks through the same T-table round function —
    with the per-block interpreter cost amortised across all ``count``
    lanes.  This is the bulk-refill kernel behind the DRBG's fast path
    and the batched dealer-fork prefill.
    """
    if count <= 0:
        return b""
    counter &= (1 << 128) - 1
    rk = _np.array(cipher._enc_words, dtype=_np.uint32).reshape(1, 44)
    lanes = _np.arange(count, dtype=_np.uint64)
    base0 = counter >> 96
    base1 = (counter >> 64) & 0xFFFFFFFF
    base2 = (counter >> 32) & 0xFFFFFFFF
    base3 = counter & 0xFFFFFFFF
    # 128-bit increment with carries, vectorized: the low word counts up
    # lane-wise; each overflow ripples one word left.  uint64 intermediate
    # arithmetic keeps the carries exact for any count < 2**32.
    w3 = base3 + lanes
    w2 = base2 + (w3 >> _np.uint64(32))
    w1 = base1 + (w2 >> _np.uint64(32))
    w0 = base0 + (w1 >> _np.uint64(32))
    mask32 = _np.uint64(0xFFFFFFFF)
    s0 = (w0 & mask32).astype(_np.uint32)
    s1 = (w1 & mask32).astype(_np.uint32)
    s2 = (w2 & mask32).astype(_np.uint32)
    s3 = (w3 & mask32).astype(_np.uint32)
    o0, o1, o2, o3 = encrypt_words(rk, s0, s1, s2, s3)
    out = _np.empty((count, 4), dtype=">u4")
    out[:, 0] = o0
    out[:, 1] = o1
    out[:, 2] = o2
    out[:, 3] = o3
    return out.tobytes()


def ctr_keystream_many(ciphers, counters, counts) -> list[bytes]:
    """Per-cipher CTR keystream runs, all lanes in one kernel call.

    ``ciphers[i]`` contributes ``counts[i]`` consecutive blocks starting
    at ``counters[i]``; the return value is one keystream byte string per
    cipher, each bit-identical to ``ciphers[i].ctr_blocks(counters[i],
    counts[i])``.  Batching *across independent keys* is what makes
    per-dealer DRBG forks affordable: a round's worth of short keystream
    runs becomes a single wide batch.
    """
    total = sum(counts)
    if total == 0:
        return [b"" for _ in counts]
    s0 = _np.empty(total, dtype=_np.uint32)
    s1 = _np.empty(total, dtype=_np.uint32)
    s2 = _np.empty(total, dtype=_np.uint32)
    s3 = _np.empty(total, dtype=_np.uint32)
    rk = _np.empty((total, 44), dtype=_np.uint32)
    offset = 0
    mask32 = _np.uint64(0xFFFFFFFF)
    for cipher, counter, count in zip(ciphers, counters, counts):
        if count == 0:
            continue
        end = offset + count
        counter &= (1 << 128) - 1
        # Same vectorized 128-bit carry ripple as ctr_keystream, written
        # into this cipher's lane slice; per-lane Python work would
        # re-add exactly the interpreter overhead this kernel amortises.
        lanes = _np.arange(count, dtype=_np.uint64)
        w3 = (counter & 0xFFFFFFFF) + lanes
        w2 = ((counter >> 32) & 0xFFFFFFFF) + (w3 >> _np.uint64(32))
        w1 = ((counter >> 64) & 0xFFFFFFFF) + (w2 >> _np.uint64(32))
        w0 = (counter >> 96) + (w1 >> _np.uint64(32))
        s0[offset:end] = (w0 & mask32).astype(_np.uint32)
        s1[offset:end] = (w1 & mask32).astype(_np.uint32)
        s2[offset:end] = (w2 & mask32).astype(_np.uint32)
        s3[offset:end] = (w3 & mask32).astype(_np.uint32)
        rk[offset:end] = _np.asarray(cipher._enc_words, dtype=_np.uint32)
        offset = end
    o0, o1, o2, o3 = encrypt_words(rk, s0, s1, s2, s3)
    out = _np.empty((total, 4), dtype=">u4")
    out[:, 0] = o0
    out[:, 1] = o1
    out[:, 2] = o2
    out[:, 3] = o3
    raw = out.tobytes()
    streams = []
    offset = 0
    for count in counts:
        streams.append(raw[offset : offset + 16 * count])
        offset += 16 * count
    return streams


def ctr_cbc_mac_batch(
    enc_ciphers,
    mac_ciphers,
    nonces: list[int],
    data: list[int],
    tag_bytes: int,
    mac_over_input: bool = False,
) -> tuple[list[int], list[bytes]]:
    """Batched share protection: per-lane AES-CTR + length-prepended CBC-MAC.

    For each lane ``i`` the CTR output is ``data ^ E_enc(nonce)`` and the
    tag is the truncated CBC-MAC (zero IV, 8-byte length prefix, PKCS#7
    padding) of ``nonce_bytes + ct_bytes`` under the MAC key — exactly
    what :func:`repro.crypto.modes.ctr_transform` +
    :func:`repro.crypto.mac.cbc_mac` compute packet-by-packet.

    On the sender ``data`` is the plaintext, the CTR output is the
    ciphertext and the MAC covers that output.  On the receiver ``data``
    is the received ciphertext (CTR is an involution, so the output is
    the plaintext) and the MAC must cover the *input* — select that with
    ``mac_over_input=True``.

    Returns (CTR output ints, tag bytes).
    """
    n = len(nonces)
    if n == 0:
        return [], []
    enc_rk = key_rows(enc_ciphers)
    mac_rk = key_rows(mac_ciphers)
    n0, n1, n2, n3 = words_from_ints(nonces)

    # CTR: output = data ^ E_enc(nonce).
    k0, k1, k2, k3 = encrypt_words(enc_rk, n0, n1, n2, n3)
    d0, d1, d2, d3 = words_from_ints(data)
    o0, o1, o2, o3 = d0 ^ k0, d1 ^ k1, d2 ^ k2, d3 ^ k3
    if mac_over_input:
        c0, c1, c2, c3 = d0, d1, d2, d3
    else:
        c0, c1, c2, c3 = o0, o1, o2, o3

    # CBC-MAC over the 40-byte prefixed message, padded to 48 bytes:
    #   block 1 = len(32).to_bytes(8) || nonce[0:8]
    #   block 2 = nonce[8:16]         || ct[0:8]
    #   block 3 = ct[8:16]            || 0x08 * 8   (PKCS#7)
    b1_0 = _np.zeros(n, dtype=_np.uint32)
    b1_1 = _np.full(n, 32, dtype=_np.uint32)
    m0, m1, m2, m3 = encrypt_words(mac_rk, b1_0, b1_1, n0, n1)
    m0, m1, m2, m3 = encrypt_words(mac_rk, m0 ^ n2, m1 ^ n3, m2 ^ c0, m3 ^ c1)
    pad = _np.full(n, 0x08080808, dtype=_np.uint32)
    m0, m1, m2, m3 = encrypt_words(mac_rk, m0 ^ c2, m1 ^ c3, m2 ^ pad, m3 ^ pad)

    outputs = ints_from_words((o0, o1, o2, o3))
    tags = [
        tag_int.to_bytes(16, "big")[:tag_bytes]
        for tag_int in ints_from_words((m0, m1, m2, m3))
    ]
    return outputs, tags
