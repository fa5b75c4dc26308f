import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqot.embeddings import (
    PAD_REAL_COST,
    PAD_TOKEN,
    ArityMismatchError,
    DegenerateVectorError,
    EmbeddingError,
    EmbeddingTable,
    InvalidValueError,
    MalformedHeaderError,
    OovPolicy,
    ReservedTokenError,
    UnknownTokenError,
    UnreadableFileError,
    ZeroVectorError,
    _unit_rows,
    build_cost_matrix,
    cosine_cost,
    load_embeddings,
    resolve,
)
from seqot.nested import nested_wasserstein
from seqot.ot_core import IpotConfig, ipot_solve
from seqot.sil_rl.envs import MarkovOracle, ToyEnv
from seqot.sil_rl.policy import Policy

from conftest import FIXTURES, write_embeddings


def per_call_cost_matrix(table, hyp, ref):
    """The build before the unit-row cache: resolve and normalise every token
    on each call, and mask equal tokens with a Python double loop. The
    cached build must match it bit for bit."""
    if len(hyp) == 0 or len(ref) == 0:
        raise ValueError("both sequences must be nonempty")
    n, m = len(hyp), len(ref)
    size = max(n, m)
    units = _unit_rows(resolve(table, [*hyp, *ref]))
    values = np.full((size, size), PAD_REAL_COST)
    values[:n, :m] = np.clip(1.0 - units[:n] @ units[n:].T, 0.0, 2.0)
    same = np.array([[h == r for r in ref] for h in hyp])
    values[:n, :m][same] = 0.0
    return values


def per_line_load(path):
    """The loader before the one-array pass, under the documented grammar:
    bytes split into lines at \\n, \\r\\n or \\r and into fields at
    ASCII whitespace, ``float`` on each component with no ``_``, then one
    array and three checks per line. Returns ``(dim, entries, warnings)``;
    the one-pass loader must match it, error for error."""
    lines = path.read_bytes().splitlines()
    if not lines or not lines[0].strip():
        raise MalformedHeaderError(1, "empty file or blank header")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedHeaderError(1, f"expected 'V d', got {lines[0].decode()!r}")
    try:
        if b"_" in lines[0]:
            raise ValueError
        declared, dim = int(head[0]), int(head[1])  # bytes: ASCII digits only
    except ValueError:
        raise MalformedHeaderError(1, f"expected two integers, got {lines[0].decode()!r}") from None
    if not 1 <= dim <= np.iinfo(np.intp).max // 8 or declared < 0:
        raise MalformedHeaderError(1, f"V={declared}, d={dim} out of range")

    entries, warnings = {}, []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        token = parts[0].decode()
        if token == PAD_TOKEN:
            raise ReservedTokenError(lineno)
        if len(parts) - 1 != dim:
            raise ArityMismatchError(lineno, dim, len(parts) - 1)
        if not all(_ascii_decimal(p) for p in parts[1:]):
            bad = next(p for p in parts[1:] if not _ascii_decimal(p))
            raise InvalidValueError(lineno, bad.decode())
        vec = np.array([float(p) for p in parts[1:]])
        if not np.all(np.isfinite(vec)):
            raise InvalidValueError(lineno, "non-finite component")
        if not vec.any():
            raise ZeroVectorError(lineno, token)
        if token in entries:
            warnings.append(f"duplicate token {token!r} at line {lineno}: last occurrence wins")
        entries[token] = vec
    if declared != len(entries):
        warnings.append(f"header declares {declared} tokens, file has {len(entries)}")
    return dim, entries, warnings


def _ascii_decimal(text: bytes) -> bool:
    if b"_" in text:
        return False
    try:
        float(text)  # bytes: ASCII only, unlike str
    except ValueError:
        return False
    return True


TOKENS = ["a", "b", "c", "new_york", "na\u00efve", "\u65e5\u672c"]
COMPONENTS = ["1", "-2.5", "0", "-0.0", "1e-200", "3.25e2", ".5", "+7", "1E3"]
# each fault rewrites one row's fields
FAULTS = {
    "pad": lambda fields, draw: [PAD_TOKEN, *fields[1:]],
    "short": lambda fields, draw: fields[: max(len(fields) - 1, 1)],
    "long": lambda fields, draw: [*fields, "1"],
    "bad": lambda fields, draw: _replace(fields, draw, ["oops", "1_0", "\u0661", "1\u00a00", "0x1p3", "1,5"]),
    "nonfinite": lambda fields, draw: _replace(fields, draw, ["nan", "inf", "-inf", "1e999", "NaN"]),
    "zero": lambda fields, draw: [fields[0], *["0"] * (len(fields) - 1)],
}


def _replace(fields, draw, values):
    at = draw(st.integers(1, max(len(fields) - 1, 1)))  # appended to a row with no components
    return [*fields[:at], draw(st.sampled_from(values)), *fields[at + 1 :]]


@st.composite
def table_files(draw):
    """The bytes of a table file: valid rows, blank lines, duplicate tokens,
    a declared count that may be off, mixed line ends and field separators,
    and zero, one or two faults on random rows."""
    dim = draw(st.integers(1, 4))
    rows = [
        [draw(st.sampled_from(TOKENS)), *draw(st.lists(st.sampled_from(COMPONENTS), min_size=dim, max_size=dim))]
        for _ in range(draw(st.integers(0, 8)))
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = FAULTS[draw(st.sampled_from(sorted(FAULTS)))](rows[at], draw)
    lines = [draw(st.sampled_from([" ", "\t", " \x0c", "\x0b "])).join(fields) for fields in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    declared = len({fields[0] for fields in rows}) + draw(st.sampled_from([0, 0, 1, -1]))
    text = f"{declared} {dim}"
    for line in lines:
        text += draw(st.sampled_from(["\n", "\r\n", "\r"])) + line
    return (text + draw(st.sampled_from(["", "\n"]))).encode()


class TestOnePassLoad:
    @settings(max_examples=400, deadline=None)
    @given(table_files())
    def test_matches_the_per_line_loader(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("emb") / "e.txt"
        path.write_bytes(data)
        logger = logging.getLogger("seqot.embeddings")
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger.addHandler(handler)
        try:
            expected = per_line_load(path)
        except EmbeddingError as exc:
            with pytest.raises(type(exc)) as err:
                load_embeddings(path)
            assert (err.value.line, str(err.value)) == (exc.line, str(exc))
            return
        else:
            table = load_embeddings(path)
        finally:
            logger.removeHandler(handler)
        dim, entries, warnings = expected
        assert table.dim == dim
        assert table.tokens() == list(entries)
        assert all(table.vector(t).tobytes() == v.tobytes() for t, v in entries.items())
        assert [r.getMessage() for r in records] == warnings

    def test_rows_are_read_only_views_of_one_array(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("3 2\na 1 0\nb 0 1\na 2 2\n")
        table = load_embeddings(path)
        a, b = table.vector("a"), table.vector("b")
        assert a.base is b.base and a.base.shape == (3, 2)
        assert np.array_equal(a, [2.0, 2.0])
        with pytest.raises(ValueError):
            a[0] = 5.0

    def test_an_earlier_zero_row_wins_over_a_later_arity_fault(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("3 2\na 1 0\nb 0 0\nc 1\n")
        with pytest.raises(ZeroVectorError) as err:
            load_embeddings(path)
        assert err.value.line == 3

    def test_a_huge_declared_dim_fails_at_the_first_row(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 1000000000000\na 1 0\n")
        with pytest.raises(ArityMismatchError) as err:
            load_embeddings(path)
        assert (err.value.line, err.value.got) == (2, 2)


class TestGrammar:
    """Fields split on ASCII whitespace only, lines end at \\n, \\r\\n or
    \\r only, components are ASCII decimal numbers without ``_``, and tokens
    are UTF-8."""

    def load(self, tmp_path, data: bytes):
        path = tmp_path / "e.txt"
        path.write_bytes(data)
        return load_embeddings(path)

    def test_no_break_space_does_not_split_fields(self, tmp_path):
        with pytest.raises(ArityMismatchError) as err:
            self.load(tmp_path, "2 2\nb 0 1\na\u00a01 0\n".encode())
        assert (err.value.line, err.value.got) == (3, 1)

    def test_non_ascii_digit_is_not_a_number(self, tmp_path):
        with pytest.raises(InvalidValueError) as err:
            self.load(tmp_path, "1 2\na \u0661 0\n".encode())
        assert (err.value.line, err.value.value) == (2, "\u0661")

    def test_underscore_grouping_is_not_a_number(self, tmp_path):
        with pytest.raises(InvalidValueError) as err:
            self.load(tmp_path, b"1 2\nnew_york 1_0 1\n")
        assert (err.value.line, err.value.value) == (2, "1_0")
        with pytest.raises(MalformedHeaderError):
            self.load(tmp_path, b"1 1_0\na 1 0 0 0 0 0 0 0 0 0\n")

    def test_form_feed_separates_fields_but_does_not_end_a_line(self, tmp_path):
        assert self.load(tmp_path, b"1 2\na\x0c1\x0b0\n").tokens() == ["a"]
        with pytest.raises(ArityMismatchError) as err:
            self.load(tmp_path, b"2 2\na 1 0\x0cb 0 1\n")
        assert (err.value.line, err.value.got) == (2, 5)

    def test_cr_and_crlf_end_lines(self, tmp_path):
        assert self.load(tmp_path, b"2 2\r\na 1 0\rb 0 1\r\n").tokens() == ["a", "b"]
        with pytest.raises(ZeroVectorError) as err:
            self.load(tmp_path, b"2 2\r\na 1 0\rb 0 0\r\n")
        assert err.value.line == 3

    def test_utf8_tokens_load(self, tmp_path):
        table = self.load(tmp_path, "2 2\nna\u00efve 1 0\n\u65e5\u672c 0 1\n".encode())
        assert table.tokens() == ["na\u00efve", "\u65e5\u672c"]

    @pytest.mark.parametrize("data, line, byte", [
        (b"2 2\na 1 0\nb\xff 0 1\n", 3, "0xff"),
        (b"2 2\ra 1 0\r\xc3 0 1\n", 3, "0xc3"),
        (b"2\xa0 2\na 1 0\n", 1, "0xa0"),
    ], ids=["token", "after-cr", "header"])
    def test_not_utf8_names_the_file_and_line(self, tmp_path, data, line, byte):
        with pytest.raises(UnreadableFileError) as err:
            self.load(tmp_path, data)
        assert err.value.line == line
        assert str(err.value) == f"cannot read {tmp_path / 'e.txt'}: line {line} is not UTF-8 (byte {byte})"


class TestLoad:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        table = load_embeddings(path)
        assert table.dim == 3
        assert len(table) == 2
        assert np.array_equal(table.vector("a"), [1.0, 0.0, 0.0])

    def test_zero_vector_rejected_with_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\na 0 0\n")
        with pytest.raises(ZeroVectorError) as err:
            load_embeddings(path)
        assert err.value.line == 2

    def test_tiny_nonzero_vector_accepted(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 4\na 0 0 0 1e-200\n")
        assert np.array_equal(load_embeddings(path).vector("a"), [0.0, 0.0, 0.0, 1e-200])

    def test_arity_mismatch_names_line_and_counts(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\na 1 0\n")
        with pytest.raises(ArityMismatchError) as err:
            load_embeddings(path)
        assert (err.value.line, err.value.expected, err.value.got) == (2, 3, 2)

    @pytest.mark.parametrize("header", ["", "3", "a b", "2 3 4", "2 0"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(header + "\na 1 0\n")
        with pytest.raises(MalformedHeaderError) as err:
            load_embeddings(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("header, dim", [("0 5", 5), (f"0 {2**60 - 1}", 2**60 - 1)])
    def test_a_header_only_table_loads_empty(self, tmp_path, header, dim):
        # 2**60 - 1 is the widest a float array of no rows can be
        path = tmp_path / "emb.txt"
        path.write_text(header + "\n")
        table = load_embeddings(path)
        assert (table.dim, len(table)) == (dim, 0)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_embeddings(tmp_path / "missing.txt")

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\na 1 oops\n")
        with pytest.raises(InvalidValueError) as err:
            load_embeddings(path)
        assert err.value.line == 2

    def test_reserved_pad_token_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(f"1 2\n{PAD_TOKEN} 1 0\n")
        with pytest.raises(ReservedTokenError) as err:
            load_embeddings(path)
        assert err.value.line == 2

    def test_duplicate_token_last_wins_with_warning(self, tmp_path, caplog):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\na 1 0\na 0 1\n")
        with caplog.at_level(logging.WARNING, logger="seqot.embeddings"):
            table = load_embeddings(path)
        assert np.array_equal(table.vector("a"), [0.0, 1.0])
        assert any("duplicate token" in rec.message for rec in caplog.records)


class TestResolve:
    def test_rows_match_tokens(self, tmp_path):
        table = load_embeddings(write_embeddings(tmp_path / "e.txt", 3, {"a": [1, 0, 0], "b": [0, 1, 0]}))
        assert np.array_equal(resolve(table, ["a", "b"]), [[1, 0, 0], [0, 1, 0]])

    def test_strict_unknown_token(self, tmp_path):
        table = load_embeddings(write_embeddings(tmp_path / "e.txt", 2, {"a": [1, 0]}))
        with pytest.raises(UnknownTokenError) as err:
            resolve(table, ["z"])
        assert err.value.token == "z"

    def test_hash_fallback_is_deterministic(self, tmp_path):
        path = write_embeddings(tmp_path / "e.txt", 5, {"a": [1, 0, 0, 0, 0]})
        first = resolve(load_embeddings(path, OovPolicy.HASH_FALLBACK), ["zebra"])
        second = resolve(load_embeddings(path, OovPolicy.HASH_FALLBACK), ["zebra"])
        assert np.array_equal(first, second)
        assert math.isclose(np.linalg.norm(first[0]), 1.0, abs_tol=1e-12)

    def test_empty_tokens_rejected(self, ortho_table):
        with pytest.raises(ValueError):
            resolve(ortho_table, [])


class TestCosineCost:
    def test_identical_direction(self):
        assert cosine_cost([1, 0], [1, 0]) == 0.0

    def test_orthogonal(self):
        assert cosine_cost([1, 0], [0, 1]) == 1.0

    def test_antipodal(self):
        assert cosine_cost([1, 0], [-1, 0]) == 2.0

    def test_zero_vector_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            cosine_cost([0, 0], [1, 0])

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    )
    def test_symmetric(self, a, b):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert abs(cosine_cost(a, b) - cosine_cost(b, a)) <= 1e-12

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    def test_scale_invariant(self, a, b, alpha, beta):
        a, b = np.asarray(a), np.asarray(b)
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert abs(cosine_cost(alpha * a, beta * b) - cosine_cost(a, b)) <= 1e-9

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    )
    def test_range(self, a, b):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert 0.0 <= cosine_cost(a, b) <= 2.0


class TestCostMatrix:
    def test_hand_derived_padded_matrix(self, tmp_path):
        # non-orthogonal pair: c(a, b) = 1 - 1/sqrt(2)
        table = load_embeddings(write_embeddings(tmp_path / "e.txt", 3, {"a": [1, 0, 0], "b": [1, 1, 0]}))
        cm = build_cost_matrix(table, ["a"], ["a", "b"])
        expected = np.array([[0.0, 1.0 - 1.0 / math.sqrt(2.0)], [1.0, 1.0]])
        assert np.allclose(cm.values, expected, atol=1e-12)

    def test_identical_sequences_zero_diagonal(self, ortho_table):
        cm = build_cost_matrix(ortho_table, ["a", "b", "c"], ["a", "b", "c"])
        assert np.array_equal(np.diag(cm.values), [0.0, 0.0, 0.0])

    def test_single_identical_token(self, ortho_table):
        cm = build_cost_matrix(ortho_table, ["a"], ["a"])
        assert cm.values.shape == (1, 1)
        assert cm.values[0, 0] == 0.0

    def test_pad_cells_exact(self, ortho_table):
        cm = build_cost_matrix(ortho_table, ["a", "b", "c"], ["a"])
        assert np.array_equal(cm.values[:, 1:], np.ones((3, 2)))

    def test_duplicate_tokens_cost_zero(self, ortho_table):
        cm = build_cost_matrix(ortho_table, ["a", "a"], ["a", "b"])
        assert cm.values[0, 0] == 0.0 and cm.values[1, 0] == 0.0

    def test_square_and_transpose_property(self, toy_table, tmp_path):
        rng = np.random.default_rng(7)
        vocab = toy_table.tokens()
        for _ in range(20):
            hyp = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 6))]
            ref = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 6))]
            ab = build_cost_matrix(toy_table, hyp, ref)
            ba = build_cost_matrix(toy_table, ref, hyp)
            size = max(len(hyp), len(ref))
            assert ab.values.shape == (size, size) == ba.values.shape
            real = (slice(len(hyp)), slice(len(ref)))
            assert np.allclose(ab.values[real], ba.values.T[real], atol=1e-12)

    def test_empty_sequence_rejected(self, ortho_table):
        with pytest.raises(ValueError):
            build_cost_matrix(ortho_table, [], ["a"])

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_values_in_range(self, seed):
        rng = np.random.default_rng(seed)
        rows = {f"t{i}": list(rng.standard_normal(4)) for i in range(6)}
        table = EmbeddingTable(dim=4, entries={k: np.asarray(v) for k, v in rows.items()})
        vocab = list(rows)
        hyp = [vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
        ref = [vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
        cm = build_cost_matrix(table, hyp, ref)
        assert np.all(cm.values >= 0.0) and np.all(cm.values <= 2.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.floats(-5, 5), min_size=3, max_size=3), min_size=1, max_size=4),
        st.lists(st.lists(st.floats(-5, 5), min_size=3, max_size=3), min_size=1, max_size=4),
        st.floats(-200, 3),
        st.floats(-200, 3),
    )
    def test_cells_equal_cosine_cost(self, hyp_rows, ref_rows, hyp_exponent, ref_exponent):
        """Every real cell is ``cosine_cost`` of its two vectors, at any
        scale from 1e-200 to 1e3: tiny entries neither underflow to a
        shifted cost nor to a NaN. The matrix product and the vector dot
        may round the last bit apart, hence the 1e-15."""
        hyp = {f"h{i}": 10.0**hyp_exponent * np.asarray(v) for i, v in enumerate(hyp_rows)}
        ref = {f"r{j}": 10.0**ref_exponent * np.asarray(v) for j, v in enumerate(ref_rows)}
        assume(all(v.any() for v in [*hyp.values(), *ref.values()]))
        table = EmbeddingTable(dim=3, entries={**hyp, **ref})
        cm = build_cost_matrix(table, list(hyp), list(ref))
        for i, zh in enumerate(hyp.values()):
            for j, zr in enumerate(ref.values()):
                assert cm.values[i, j] == pytest.approx(cosine_cost(zh, zr), rel=0, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(st.floats(-5, 5), min_size=3, max_size=3), st.floats(-200, 3)),
            min_size=1,
            max_size=5,
        ),
        st.booleans(),
        st.lists(st.integers(0, 7), min_size=1, max_size=6),
        st.lists(st.integers(0, 7), min_size=1, max_size=6),
    )
    def test_matches_the_per_call_build(self, rows, hashed, hyp_ids, ref_ids):
        """Strict and hash-OOV tables, repeated tokens, pads on either side and
        vector scales from 1e-200 to 1e3: the cached build equals the per-call
        one with ``array_equal``, on a cold cache and on a warm one. The
        OOV tokens include one that differs from another only by a trailing
        NUL, which fixed-width numpy strings would drop."""
        entries = {f"t{i}": 10.0**exponent * np.asarray(v) for i, (v, exponent) in enumerate(rows)}
        assume(all(v.any() for v in entries.values()))
        policy = OovPolicy.HASH_FALLBACK if hashed else OovPolicy.STRICT
        table = EmbeddingTable(dim=3, entries=entries, oov_policy=policy)
        pool = [*entries, *(["x", "x\0", "y"] if hashed else [])]
        hyp = [pool[i % len(pool)] for i in hyp_ids]
        ref = [pool[i % len(pool)] for i in ref_ids]
        expected = per_call_cost_matrix(table, hyp, ref)
        assert np.array_equal(build_cost_matrix(table, hyp, ref).values, expected)
        assert np.array_equal(build_cost_matrix(table, hyp, ref).values, expected)

    def test_oov_tokens_stay_distinct_by_token(self, tmp_path):
        path = write_embeddings(tmp_path / "e.txt", 4, {"a": [1, 0, 0, 0]})
        table = load_embeddings(path, OovPolicy.HASH_FALLBACK)
        oov = ["zeta", "eta", "theta", "eta\0"]
        cm = build_cost_matrix(table, oov, oov)
        off_diagonal = ~np.eye(len(oov), dtype=bool)
        assert np.all(cm.values[off_diagonal] > 0.0)
        assert np.array_equal(np.diag(cm.values), np.zeros(len(oov)))

    def test_unit_rows_fill_lazily_and_stay_invisible(self, ortho_table):
        table = EmbeddingTable(dim=ortho_table.dim, entries=ortho_table.entries)
        twin = EmbeddingTable(dim=ortho_table.dim, entries=ortho_table.entries)
        before = repr(table)
        build_cost_matrix(table, ["a", "b"], ["a"])
        assert set(table.unit_rows) == {"a", "b"}
        assert repr(table) == before == repr(twin)

    def test_pad_token_still_rejected(self, ortho_table):
        table = EmbeddingTable(dim=ortho_table.dim, entries=ortho_table.entries)
        for hyp, ref in (([PAD_TOKEN], ["a"]), (["a"], ["b", PAD_TOKEN])):
            with pytest.raises(ReservedTokenError):
                build_cost_matrix(table, hyp, ref)
        assert PAD_TOKEN not in table.unit_rows


ORTHO = FIXTURES / "ortho_embeddings.txt"
# Each makes one of two equal-valued instances of a class that holds arrays.
TWINS = {
    "EmbeddingTable": lambda: load_embeddings(ORTHO),
    "CostMatrix": lambda: build_cost_matrix(load_embeddings(ORTHO), ["a"], ["a", "b"]),
    "TransportPlan": lambda: ipot_solve(np.array([[0.0, 1.0], [1.0, 0.0]])),
    "NestedResult": lambda: nested_wasserstein(load_embeddings(ORTHO), [["a", "b"]], [["b", "a"]]),
    "MarkovOracle": lambda: MarkovOracle.random(3, seed=0),
    "ToyEnv": lambda: ToyEnv.markov(3, 2, seed=0),
    "Policy": lambda: Policy.uniform(3, 2),
}


class TestIdentityEquality:
    """Classes that hold arrays compare and hash by identity: a generated
    ``==`` would raise on their arrays, and a generated ``__hash__`` too."""

    @pytest.mark.parametrize("name", sorted(TWINS))
    def test_twins_compare_unequal_and_hash(self, name):
        first, second = TWINS[name](), TWINS[name]()
        assert first == first and first != second and not (first == second)
        assert hash(first) == hash(first) and len({first, second}) == 2

    def test_solver_config_keeps_value_equality(self):
        assert IpotConfig(10) == IpotConfig(10) != IpotConfig(20)
        assert hash(IpotConfig(10)) == hash(IpotConfig(10))
