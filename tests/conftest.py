import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from seqot import IpotConfig, load_embeddings, seq_match

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

sys.path.insert(0, str(REPO_ROOT / "scripts"))


@pytest.fixture(scope="session")
def ortho_table():
    """Orthonormal 4-token table: a, b, c, d map to basis vectors."""
    return load_embeddings(FIXTURES / "ortho_embeddings.txt")


@pytest.fixture(scope="session")
def toy_table():
    """Synonym-structured comparison table (see scripts/make_fixtures.py)."""
    return load_embeddings(FIXTURES / "toy_embeddings.txt")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


class Solves(list):
    """The (hyp, ref) token-bag pairs solved, in order; ``built`` lists the
    pairs whose cost matrix ``seq_match.build_cost_matrix`` built, in order."""

    def __init__(self):
        super().__init__()
        self.built = []


@pytest.fixture
def count_solves(monkeypatch):
    """``count_solves(module_name)`` returns the :class:`Solves` of the
    (hyp, ref) token-bag pairs that module goes on to solve through its
    ``score_pair`` binding."""

    def install(module_name: str) -> Solves:
        module = importlib.import_module(module_name)
        solved = Solves()
        original_pair = module.score_pair
        original_build = seq_match.build_cost_matrix

        def counting_pair(table, hyp, ref, *args, **kwargs):
            solved.append((seq_match.token_bag(hyp), seq_match.token_bag(ref)))
            return original_pair(table, hyp, ref, *args, **kwargs)

        def recording_build(table, hyp, ref):
            costs = original_build(table, hyp, ref)
            solved.built.append((tuple(hyp), tuple(ref)))
            return costs

        monkeypatch.setattr(module, "score_pair", counting_pair)
        monkeypatch.setattr(seq_match, "build_cost_matrix", recording_build)
        return solved

    return install


@pytest.fixture
def tight_config():
    """Default solver config (already tight enough for 1e-3 assertions)."""
    return IpotConfig()


def write_embeddings(path: Path, dim: int, rows: dict[str, list[float]]) -> Path:
    lines = [f"{len(rows)} {dim}"]
    for token, vec in rows.items():
        lines.append(token + " " + " ".join(repr(float(x)) for x in vec))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def random_unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)
