"""Pure-Python baseline JPEG codec (encode + decode), stdlib + numpy only.

Closes the DCTDecode gap (reference: extractor/src/engine/mod.rs:142-148
decodes DCT-filtered XObjects with the `image` crate): this container has
no PIL, so the real-decode hook needs an executable JPEG branch of its
own. Scope: the ENCODER emits baseline sequential DCT (SOF0), 8-bit,
grayscale or 3-component YCbCr 4:4:4 — exactly what the deterministic
fixtures use. The DECODER is general over any table set carried in the
stream (DQT/DHT are parsed, not assumed) AND over integer-ratio chroma
subsampling (4:2:0 / 4:2:2 MCU interleaving per T.81 A.2), restart
intervals (DRI/RSTn), and DHT-less streams via the Annex K typical
tables — the common real-world baseline layouts, round-5 extensions —
so real-world baseline JPEGs decode; progressive streams raise
ValueError with a clear reason.

Everything here derives from the public JPEG specification (ITU-T T.81):
canonical Huffman construction, zigzag scan, the type-II DCT, and the
JFIF YCbCr transform. Huffman tables are NOT the Annex-K defaults — the
encoder builds its own fixed-length canonical tables (12×4-bit DC codes,
162×8-bit AC codes; the all-ones code stays unused as T.81 requires) and
writes them into DHT, so any conforming decoder reads them back.
"""

from __future__ import annotations

import struct

import numpy as np

# --- shared constants -------------------------------------------------------


def _zigzag() -> np.ndarray:
    """The 64-entry zigzag scan order, generated (not transcribed):
    anti-diagonals alternate direction, starting (0,0),(0,1),(1,0)…"""
    order = []
    for s in range(15):
        diag = [(i, s - i) for i in range(8) if 0 <= s - i < 8]
        order.extend(diag if s % 2 else diag[::-1])
    return np.array([r * 8 + c for r, c in order], np.int64)


ZIGZAG = _zigzag()
UNZIGZAG = np.argsort(ZIGZAG)

# Annex-K K.1 luminance quantization table (public spec constants), used
# at quality ~90 via the standard libjpeg scaling; chroma reuses it (we
# do not subsample, so the aggressive K.2 chroma table buys nothing).
_QBASE = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    np.int64,
)


def _quant_table(quality: int) -> np.ndarray:
    q = max(1, min(100, quality))
    scale = 5000 // q if q < 50 else 200 - 2 * q
    t = (_QBASE * scale + 50) // 100
    return np.clip(t, 1, 255).astype(np.int64)


def _dct_matrix() -> np.ndarray:
    k = np.arange(8)
    d = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16)
    d[0] *= 1 / np.sqrt(2)
    return d * 0.5  # orthonormal: F = D @ B @ D.T, B = D.T @ F @ D


_DCT = _dct_matrix()

# encoder Huffman tables: canonical fixed-length codes. DC: 12 symbols
# (categories 0..11) at 4 bits. AC: the 162 possible run/size symbols at
# 8 bits, ordered EOB, ZRL, then (run, size) lexicographic.
_DC_SYMBOLS = list(range(12))
_AC_SYMBOLS = [0x00, 0xF0] + [
    (run << 4) | size for run in range(16) for size in range(1, 11)
]


def _canonical_codes(symbols: list[int], length: int) -> dict[int, tuple[int, int]]:
    return {s: (i, length) for i, s in enumerate(symbols)}


_DC_CODES = _canonical_codes(_DC_SYMBOLS, 4)
_AC_CODES = _canonical_codes(_AC_SYMBOLS, 8)


# --- bit IO -----------------------------------------------------------------


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.out.append(b)
            if b == 0xFF:  # byte stuffing
                self.out.append(0x00)

    def flush(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits per T.81
        return bytes(self.out)


class _BitReader:
    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0

    def _fill(self) -> None:
        b = self.data[self.pos]
        if b == 0xFF:
            nxt = self.data[self.pos + 1]
            if nxt == 0x00:
                self.pos += 2
            elif nxt == 0xD9:  # EOI reached while padding — feed 0s
                self.acc = (self.acc << 8)
                self.nbits += 8
                return
            else:
                raise ValueError(f"unexpected marker 0xFF{nxt:02X} in scan")
        else:
            self.pos += 1
        self.acc = (self.acc << 8) | b
        self.nbits += 8

    def bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def restart(self) -> None:
        """Consume an RSTn marker at a restart boundary (T.81 E.1.4):
        discard the pad bits of the current byte, then expect 0xFFD0–D7."""
        self.acc = 0
        self.nbits = 0
        if not (
            self.pos + 1 < len(self.data)
            and self.data[self.pos] == 0xFF
            and 0xD0 <= self.data[self.pos + 1] <= 0xD7
        ):
            raise ValueError("expected restart marker")
        self.pos += 2


# --- value coding -----------------------------------------------------------


def _category(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length()


def _value_bits(v: int, size: int) -> int:
    return v if v >= 0 else v + (1 << size) - 1


def _extend(bits: int, size: int) -> int:
    if size == 0:
        return 0
    return bits if bits >= (1 << (size - 1)) else bits - (1 << size) + 1


# --- encoder ----------------------------------------------------------------


def _blocks(plane: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Pad a (h, w) plane to 8-multiples by edge replication and return
    (n_by, n_bx, 8, 8) blocks."""
    h, w = plane.shape
    ph, pw = -(-h // 8) * 8, -(-w // 8) * 8
    p = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    by, bx = ph // 8, pw // 8
    return p.reshape(by, 8, bx, 8).transpose(0, 2, 1, 3), by, bx


def _seg(marker: int, payload: bytes) -> bytes:
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def _dht_payload(tc: int, th: int, codes: dict[int, tuple[int, int]]) -> bytes:
    lengths = [0] * 16
    by_code = sorted(codes.items(), key=lambda kv: kv[1][0])
    for _, (_, ln) in by_code:
        lengths[ln - 1] += 1
    return bytes([tc << 4 | th] + lengths + [s for s, _ in by_code])


def encode_jpeg(img: np.ndarray, quality: int = 90) -> bytes:
    """Encode (h, w) grayscale or (h, w, 3) RGB uint8 → baseline JPEG
    (4:4:4, tables in-stream)."""
    img = np.asarray(img, np.uint8)
    gray = img.ndim == 2
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    qt = _quant_table(quality)
    if gray:
        planes = [img.astype(np.float64)]
    else:
        r, g, b = (img[..., i].astype(np.float64) for i in range(3))
        planes = [
            0.299 * r + 0.587 * g + 0.114 * b,
            -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0,
            0.5 * r - 0.418688 * g - 0.081312 * b + 128.0,
        ]
    qmat = qt[UNZIGZAG].reshape(8, 8).astype(np.float64)
    coeffs = []
    for p in planes:
        blocks, by, bx = _blocks(p - 128.0)
        flat = blocks.reshape(by * bx, 8, 8)
        f = np.einsum("ij,njk,lk->nil", _DCT, flat, _DCT)
        q = np.round(f / qmat).astype(np.int64)
        coeffs.append(q.reshape(by * bx, 64)[:, ZIGZAG])

    wtr = _BitWriter()
    prev_dc = [0] * len(planes)
    for m in range(coeffs[0].shape[0]):
        for c, comp in enumerate(coeffs):
            blk = comp[m]
            diff = int(blk[0]) - prev_dc[c]
            prev_dc[c] = int(blk[0])
            size = _category(diff)
            code, ln = _DC_CODES[size]
            wtr.write(code, ln)
            if size:
                wtr.write(_value_bits(diff, size), size)
            run = 0
            for k in range(1, 64):
                v = int(blk[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    zc, zl = _AC_CODES[0xF0]
                    wtr.write(zc, zl)
                    run -= 16
                size = _category(v)
                code, ln = _AC_CODES[(run << 4) | size]
                wtr.write(code, ln)
                wtr.write(_value_bits(v, size), size)
                run = 0
            if run:
                ec, el = _AC_CODES[0x00]
                wtr.write(ec, el)
    scan = wtr.flush()

    nc = 1 if gray else 3
    out = bytearray(b"\xff\xd8")
    out += _seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += _seg(0xDB, bytes([0x00]) + bytes(qt.tolist()))
    sof = struct.pack(">BHHB", 8, h, w, nc)
    for c in range(nc):
        sof += bytes([c + 1, 0x11, 0])
    out += _seg(0xC0, sof)
    out += _seg(0xC4, _dht_payload(0, 0, _DC_CODES))
    out += _seg(0xC4, _dht_payload(1, 0, _AC_CODES))
    sos = bytes([nc]) + b"".join(bytes([c + 1, 0x00]) for c in range(nc))
    sos += bytes([0, 63, 0])
    out += _seg(0xDA, sos)
    out += scan
    out += b"\xff\xd9"
    return bytes(out)


# --- decoder ----------------------------------------------------------------


def is_jpeg(payload: bytes) -> bool:
    return len(payload) >= 3 and payload[:3] == b"\xff\xd8\xff"


class _HuffTable:
    def __init__(self, lengths: list[int], symbols: list[int]):
        self.lut: dict[tuple[int, int], int] = {}
        code = 0
        i = 0
        for ln in range(1, 17):
            for _ in range(lengths[ln - 1]):
                self.lut[(ln, code)] = symbols[i]
                code += 1
                i += 1
            code <<= 1

    def decode(self, rd: _BitReader) -> int:
        code = 0
        for ln in range(1, 17):
            code = (code << 1) | rd.bit()
            sym = self.lut.get((ln, code))
            if sym is not None:
                return sym
        raise ValueError("invalid Huffman code in scan")


# T.81 Annex K.3 "typical" Huffman tables (public spec constants) — the
# tables a DHT-less stream (e.g. motion-JPEG frames) implies. Keyed
# (class, dest): class 0 = DC, 1 = AC; dest 0 = luminance, 1 = chroma.
_K3_TABLES: dict[tuple[int, int], tuple[list[int], list[int]]] = {
    (0, 0): (  # K.3.3.1 luminance DC
        [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
        list(range(12)),
    ),
    (0, 1): (  # K.3.3.1 chrominance DC
        [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        list(range(12)),
    ),
    (1, 0): (  # K.3.3.2 luminance AC
        [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
        [
            0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
            0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
            0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
            0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
            0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
            0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
            0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
            0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
            0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
            0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
            0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
            0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
            0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
            0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
            0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
            0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
            0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
            0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
            0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
            0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
            0xF9, 0xFA,
        ],
    ),
    (1, 1): (  # K.3.3.2 chrominance AC
        [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
        [
            0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
            0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
            0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
            0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
            0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
            0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
            0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
            0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
            0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
            0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
            0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
            0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
            0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
            0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
            0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
            0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
            0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
            0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
            0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
            0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
            0xF9, 0xFA,
        ],
    ),
}


def _default_huff(tc: int, th: int) -> _HuffTable:
    """Annex K typical table for (class, dest) — the JFIF convention maps
    dest 0 → luminance, dest ≥1 → chrominance."""
    lengths, syms = _K3_TABLES[(tc, 1 if th else 0)]
    return _HuffTable(lengths, syms)


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Decode a baseline JPEG → uint8 array (h, w) for grayscale, else
    (h, w, 3) RGB. Supports any in-stream DQT/DHT (falling back to the
    Annex K typical tables for table ids no DHT defined — the
    motion-JPEG convention), integer-ratio chroma subsampling (4:4:4,
    4:2:2, 4:2:0 — MCU-interleaved per T.81 A.2, box chroma upsampling),
    and restart intervals (DRI + RSTn, DC predictors reset per T.81
    E.1.4); rejects progressive streams with ValueError."""
    if not is_jpeg(payload):
        raise ValueError("not a JPEG stream")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _HuffTable] = {}
    restart_interval = 0
    frame = None
    comps: list[tuple[int, int, int, int]] = []  # (cid, tq, hi, vi)
    scan_map: list[tuple[int, int]] = []  # (dc_table, ac_table) per comp
    n = len(payload)
    while pos + 4 <= n:
        if payload[pos] != 0xFF:
            raise ValueError("marker expected")
        marker = payload[pos + 1]
        if marker == 0xD9:
            raise ValueError("EOI before scan data")
        ln = struct.unpack(">H", payload[pos + 2 : pos + 4])[0]
        body = payload[pos + 4 : pos + 2 + ln]
        pos += 2 + ln
        if marker == 0xDB:
            o = 0
            while o < len(body):
                pq, tq = body[o] >> 4, body[o] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported")
                qts[tq] = np.frombuffer(body[o + 1 : o + 65], np.uint8).astype(
                    np.int64
                )
                o += 65
        elif marker == 0xC4:
            o = 0
            while o < len(body):
                tc, th = body[o] >> 4, body[o] & 0xF
                lengths = list(body[o + 1 : o + 17])
                cnt = sum(lengths)
                syms = list(body[o + 17 : o + 17 + cnt])
                huff[(tc, th)] = _HuffTable(lengths, syms)
                o += 17 + cnt
        elif marker in (0xC0, 0xC1):
            prec, h, w, nc = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise ValueError("only 8-bit precision supported")
            for c in range(nc):
                cid, samp, tq = body[6 + 3 * c : 9 + 3 * c]
                comps.append((cid, tq, samp >> 4, samp & 0xF))
            frame = (h, w, nc)
        elif marker in (0xC2, 0xC3) or 0xC5 <= marker <= 0xCF and marker != 0xC8:
            raise ValueError("non-baseline JPEG unsupported")
        elif marker == 0xDD:
            restart_interval = struct.unpack(">H", body[:2])[0]
        elif marker == 0xDA:
            nc_s = body[0]
            for c in range(nc_s):
                td_ta = body[2 + 2 * c]
                scan_map.append((td_ta >> 4, td_ta & 0xF))
            break
    if frame is None or not scan_map:
        raise ValueError("missing SOF0/SOS")
    h, w, nc = frame
    if len(scan_map) < nc:
        # the components are spread over several scans
        raise ValueError("multi-scan baseline unsupported")
    # Sampling factors (T.81 A.2): MCU covers 8·Hmax × 8·Vmax pixels and
    # carries hi×vi blocks per component in raster order. A 4:4:4 stream
    # degenerates to one block per component per MCU (bit-identical to the
    # pre-r5 non-subsampled loop); a single-component scan is
    # non-interleaved, one block per MCU regardless of declared factors.
    samps = [(1, 1)] * nc if nc == 1 else [(hi, vi) for _, _, hi, vi in comps]
    hmax = max(s[0] for s in samps)
    vmax = max(s[1] for s in samps)
    for hi, vi in samps:
        if hmax % hi or vmax % vi:
            raise ValueError("non-integer sampling ratio unsupported")
    mcux, mcuy = -(-w // (8 * hmax)), -(-h // (8 * vmax))
    rd = _BitReader(payload, pos)
    out_planes = [
        np.empty((mcuy * vi * 8, mcux * hi * 8), np.float64)
        for hi, vi in samps
    ]
    prev_dc = [0] * nc
    qmats = [
        qts[tq][UNZIGZAG].reshape(8, 8).astype(np.float64)
        for _, tq, *_ in comps
    ]

    # DHT-less streams (e.g. motion-JPEG frames) imply the Annex K
    # typical tables — install them for any table id the scan references
    # that no DHT segment defined
    for c in range(nc):
        for tc, th in ((0, scan_map[c][0]), (1, scan_map[c][1])):
            if (tc, th) not in huff:
                huff[(tc, th)] = _default_huff(tc, th)

    def read_block(c: int) -> np.ndarray:
        dc_t = huff[(0, scan_map[c][0])]
        ac_t = huff[(1, scan_map[c][1])]
        zz = np.zeros(64, np.int64)
        size = dc_t.decode(rd)
        prev_dc[c] += _extend(rd.bits(size), size)
        zz[0] = prev_dc[c]
        k = 1
        while k < 64:
            sym = ac_t.decode(rd)
            if sym == 0x00:  # EOB
                break
            if sym == 0xF0:  # ZRL
                k += 16
                continue
            k += sym >> 4
            size = sym & 0xF
            if k > 63:
                raise ValueError("AC run past block end")
            zz[k] = _extend(rd.bits(size), size)
            k += 1
        blk = (zz[UNZIGZAG].reshape(8, 8) * qmats[c]).astype(np.float64)
        return _DCT.T @ blk @ _DCT

    for m_idx in range(mcuy * mcux):
        my, mx = divmod(m_idx, mcux)
        if restart_interval and m_idx and m_idx % restart_interval == 0:
            rd.restart()
            prev_dc[:] = [0] * nc  # DC predictors reset at every RSTn
        for c in range(nc):
            hi, vi = samps[c]
            for byy in range(vi):
                for bxx in range(hi):
                    ry = (my * vi + byy) * 8
                    rx = (mx * hi + bxx) * 8
                    out_planes[c][ry : ry + 8, rx : rx + 8] = read_block(c)
    # upsample subsampled planes by pixel replication (box upsampling),
    # then crop every plane to the frame size
    planes = []
    for (hi, vi), p in zip(samps, out_planes):
        if hi != hmax or vi != vmax:
            p = np.repeat(np.repeat(p, vmax // vi, axis=0), hmax // hi, axis=1)
        planes.append(p[:h, :w] + 128.0)
    if nc == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    if nc != 3:
        raise ValueError(f"{nc}-component JPEG unsupported")
    y, cb, cr = planes
    cb -= 128.0
    cr -= 128.0
    rgb = np.stack(
        [
            y + 1.402 * cr,
            y - 0.344136 * cb - 0.714136 * cr,
            y + 1.772 * cb,
        ],
        axis=-1,
    )
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)
