"""Token embedding tables, cosine costs, and padded pairwise cost matrices.

Every input file (table, corpus or config) is read by :func:`read_input`,
which owns the one text grammar: the file is UTF-8, lines end at ``\\n``,
``\\r\\n`` or ``\\r`` (``bytes.splitlines``), and a table row or a corpus
line splits into fields at ASCII whitespace (``bytes.split``). Embedding
files use the common plain-text layout: a header line ``V d`` followed by
one line per token, ``token x_1 ... x_d``, whose components are ASCII
decimal numbers (``.`` decimal point, no ``_`` digit grouping). A loaded table
holds its vectors in one ``rows x d`` array, and each token maps to a
read-only row of it. Each table also carries the pair-score memo that
:func:`seqot.nested.score_matrices` fills; this module neither reads nor
writes it. The unit rows that cost matrices are built from are cached per
table, filled on a token's first use.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: Reserved token appended to the shorter sequence so both sides of a
#: transport problem carry the same number of mass atoms. It has no stored
#: vector: its cost against any real token is fixed at 1.0 (the cosine cost
#: of orthogonal directions, i.e. semantically neutral) and 0.0 against
#: itself.
PAD_TOKEN = "<PAD>"
_PAD_BYTES = PAD_TOKEN.encode()
PAD_REAL_COST = 1.0


class OovPolicy(str, Enum):
    """What :func:`resolve` does with out-of-vocabulary tokens."""

    STRICT = "strict"
    HASH_FALLBACK = "hash"


class EmbeddingError(Exception):
    """Base class for embedding-table failures."""


class UnreadableFileError(EmbeddingError):
    def __init__(self, path, reason: str, line: int | None = None):
        super().__init__(f"cannot read {path}: {reason}")
        self.path = path
        self.line = line


class MalformedHeaderError(EmbeddingError):
    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: malformed header ({detail})")
        self.line = line


class ArityMismatchError(EmbeddingError):
    def __init__(self, line: int, expected: int, got: int):
        super().__init__(f"line {line}: expected {expected} vector components, got {got}")
        self.line = line
        self.expected = expected
        self.got = got


class InvalidValueError(EmbeddingError):
    def __init__(self, line: int, value: str):
        super().__init__(f"line {line}: not a decimal number: {value!r}")
        self.line = line
        self.value = value


class ZeroVectorError(EmbeddingError):
    def __init__(self, line: int, token: str):
        super().__init__(f"line {line}: token {token!r} has an all-zeros vector (cosine undefined)")
        self.line = line
        self.token = token


class ReservedTokenError(EmbeddingError):
    def __init__(self, line: int | None = None):  # None: in a sequence to be scored
        prefix, where = ("", "a sequence") if line is None else (f"line {line}: ", "a table")
        super().__init__(f"{prefix}{PAD_TOKEN!r} is reserved and may not appear in {where}")
        self.line = line


class UnknownTokenError(EmbeddingError):
    def __init__(self, token: str):
        super().__init__(f"unknown token {token!r} (strict OOV policy)")
        self.token = token


class DegenerateVectorError(EmbeddingError):
    def __init__(self):
        super().__init__("zero-norm input: cosine cost undefined")


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Immutable token -> d-dimensional vector map, plus its two caches.

    Invariants enforced at load time: every vector has length ``dim``, no
    vector is all-zeros, and :data:`PAD_TOKEN` is absent. The vectors never
    change, so neither does a pair's transport score under one solver
    config: ``pair_scores`` maps each ``IpotConfig`` to a dict of
    ``complex(distance, reward)`` per pair, filled by
    :func:`seqot.nested.score_matrices` and kept for as long as the instance
    lives (one CLI command, or one training environment). ``unit_rows``
    maps each token :meth:`unit_row` has been asked for to its vector scaled
    to unit length, so a table holds one extra row per token it has costed,
    not per token it stores. Threads may share an instance: two that miss on
    the same pair or token both compute it and store the same floats.
    """

    dim: int
    entries: dict[str, np.ndarray]
    oov_policy: OovPolicy = OovPolicy.STRICT
    pair_scores: dict = field(default_factory=dict, init=False, repr=False)
    unit_rows: dict = field(default_factory=dict, init=False, repr=False)

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def tokens(self) -> list[str]:
        """Tokens in file/insertion order."""
        return list(self.entries)

    def vector(self, token: str) -> np.ndarray:
        """Vector for ``token``, applying the table's OOV policy."""
        if token == PAD_TOKEN:
            raise ReservedTokenError()
        hit = self.entries.get(token)
        if hit is not None:
            return hit
        if self.oov_policy is OovPolicy.HASH_FALLBACK:
            return _hash_fallback_vector(token, self.dim)
        raise UnknownTokenError(token)

    def unit_row(self, token: str) -> np.ndarray:
        """``vector(token)`` scaled to unit length, computed on first use."""
        row = self.unit_rows.get(token)
        if row is None:
            row = self.unit_rows[token] = _unit_rows(self.vector(token))
        return row


def _hash_fallback_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic unit vector for an OOV token (stable across runs)."""
    digest = hashlib.sha256(b"seqot-oov:" + token.encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return _unit_rows(rng.standard_normal(dim))


def read_input(path) -> bytes:
    """The bytes of an input file, checked to be UTF-8. A file that cannot
    be read, or is not UTF-8, raises :class:`UnreadableFileError` naming it
    and, for bad bytes, their line as ``bytes.splitlines`` counts it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UnreadableFileError(path, exc.strerror or str(exc)) from exc
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((data[: exc.start] + b".").splitlines())
            reason = f"line {line} is not UTF-8 (byte {data[exc.start]:#04x})"
            raise UnreadableFileError(path, reason, line) from None
    return data


def load_embeddings(path, oov_policy: OovPolicy = OovPolicy.STRICT) -> EmbeddingTable:
    """Parse a ``V d`` header plus token/vector lines into a table.

    One pass parses every row into one ``rows x d`` array, and each token
    maps to a read-only row of it. Duplicate tokens keep the last occurrence
    (a warning is logged). Raises a distinct error naming the offending line
    for bytes that are not UTF-8, malformed headers, wrong vector arity,
    components that are not finite decimal numbers, all-zero vectors, and
    the reserved pad token; of several faults, the first in the file.
    """
    data = read_input(path)
    size, lines = len(data), data.splitlines()
    del data
    declared, dim = _header(lines)
    # A row that passes the arity check spans more than 2 * dim bytes, so no
    # more rows than this can load: the array never outgrows the file.
    rows = np.empty((min(len(lines) - 1, size // (2 * dim)), dim))

    tokens: list[str] = []  # the token and line of each row
    row_lines: list[int] = []
    index: dict[str, int] = {}  # token -> its last row, in first-seen order
    duplicates: list[tuple[str, int]] = []
    fault = None
    for lineno, raw in enumerate(islice(lines, 1, None), start=2):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == _PAD_BYTES:
            fault = ReservedTokenError(lineno)
            break
        if len(parts) - 1 != dim:
            fault = ArityMismatchError(lineno, dim, len(parts) - 1)
            break
        values = parts[1:]
        try:
            if b"_" in raw and any(b"_" in v for v in values):  # float accepts 1_0
                raise ValueError
            rows[len(tokens)] = np.fromiter(map(float, values), float, dim)
        except ValueError:
            fault = InvalidValueError(lineno, next(v for v in values if not _is_decimal(v)).decode())
            break
        token = parts[0].decode()
        if token in index:
            duplicates.append((token, lineno))
        index[token] = len(tokens)
        tokens.append(token)
        row_lines.append(lineno)

    del lines  # the text is parsed; free it before the row views are made
    # The value checks, on the whole array at once. The loop stops at the
    # first structural fault, so every row lies before it: a row they reject
    # is the first fault in the file.
    rows = rows[: len(tokens)]
    finite = np.isfinite(rows).all(axis=1)
    unusable = ~finite | ~rows.any(axis=1)
    if unusable.any():
        row = int(unusable.argmax())
        line = row_lines[row]
        fault = ZeroVectorError(line, tokens[row]) if finite[row] else InvalidValueError(line, "non-finite component")
    for token, lineno in duplicates:
        if fault is not None and lineno >= fault.line:
            break
        logger.warning("duplicate token %r at line %d: last occurrence wins", token, lineno)
    if fault is not None:
        raise fault

    if declared != len(index):
        logger.warning("header declares %d tokens, file has %d", declared, len(index))
    rows.flags.writeable = False
    entries = {token: rows[row] for token, row in index.items()}
    return EmbeddingTable(dim=dim, entries=entries, oov_policy=oov_policy)


def _header(lines: list[bytes]) -> tuple[int, int]:
    """``(V, d)`` from the first line."""
    if not lines or not lines[0].strip():
        raise MalformedHeaderError(1, "empty file or blank header")
    text = lines[0].decode()
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedHeaderError(1, f"expected 'V d', got {text!r}")
    try:
        if b"_" in lines[0]:  # int accepts 1_0
            raise ValueError
        declared, dim = int(head[0]), int(head[1])
    except ValueError:
        raise MalformedHeaderError(1, f"expected two integers, got {text!r}") from None
    if dim < 1 or declared < 0:
        raise MalformedHeaderError(1, f"V={declared}, d={dim} out of range")
    return declared, dim


def _is_decimal(text: bytes) -> bool:
    """An ASCII decimal number: what ``float`` parses from bytes, less its
    ``_`` digit grouping."""
    try:
        float(text)
    except ValueError:
        return False
    return b"_" not in text


def resolve(table: EmbeddingTable, tokens: Sequence[str]) -> np.ndarray:
    """Stack the embeddings of ``tokens`` into a ``len(tokens) x dim`` matrix."""
    if len(tokens) == 0:
        raise ValueError("cannot resolve an empty token list")
    return np.stack([table.vector(t) for t in tokens])


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Each row (or the one vector) scaled to unit Euclidean length.

    Each row is first divided by its largest absolute entry, so squaring
    inside the norm neither underflows (entries near 1e-160) nor overflows
    (near 1e160), and every nonzero finite row gets its direction whatever
    its scale.
    """
    scaled = vectors / np.abs(vectors).max(axis=-1, keepdims=True)
    return scaled / np.sqrt(np.add.reduce(scaled * scaled, axis=-1, keepdims=True))


def cosine_cost(za: Sequence[float], zb: Sequence[float]) -> float:
    """``1 - cos(za, zb)``, clipped into [0, 2]."""
    a = np.asarray(za, dtype=float)
    b = np.asarray(zb, dtype=float)
    if not a.any() or not b.any():
        raise DegenerateVectorError()
    return float(np.clip(1.0 - _unit_rows(a) @ _unit_rows(b), 0.0, 2.0))


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Square pairwise cosine-cost matrix over two padded token sequences.

    ``values[i, j]`` is the cost of matching hypothesis token ``i`` against
    reference token ``j``; entries lie in [0, 2], identical non-pad tokens
    cost exactly 0.0, and cells touching a synthesized pad cost exactly
    :data:`PAD_REAL_COST`.
    """

    values: np.ndarray


def build_cost_matrix(table: EmbeddingTable, hyp: Sequence[str], ref: Sequence[str]) -> CostMatrix:
    """Pad the shorter sequence, then fill the L x L cosine-cost matrix.

    L = max(len(hyp), len(ref)); only the shorter side receives pads, so
    pad-vs-pad cells never occur in practice.
    """
    if len(hyp) == 0 or len(ref) == 0:
        raise ValueError("both sequences must be nonempty")
    n, m = len(hyp), len(ref)
    size = max(n, m)

    tokens = [*hyp, *ref]
    units = np.array([table.unit_row(t) for t in tokens])
    values = np.full((size, size), PAD_REAL_COST)
    real = values[:n, :m]
    np.clip(1.0 - units[:n] @ units[n:].T, 0.0, 2.0, out=real)
    # an object array compares with str ==: equal tokens, not equal vectors
    names = np.array(tokens, dtype=object)
    real[names[:n, None] == names[n:]] = 0.0
    return CostMatrix(values=values)
