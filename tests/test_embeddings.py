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

from conftest import write_embeddings


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
        assert table == twin and repr(table) == before == repr(twin)

    def test_pad_token_still_rejected(self, ortho_table):
        table = EmbeddingTable(dim=ortho_table.dim, entries=ortho_table.entries)
        for hyp, ref in (([PAD_TOKEN], ["a"]), (["a"], ["b", PAD_TOKEN])):
            with pytest.raises(ReservedTokenError):
                build_cost_matrix(table, hyp, ref)
        assert PAD_TOKEN not in table.unit_rows
