import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from seqot import IpotConfig, load_embeddings

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


@pytest.fixture
def count_solves(monkeypatch):
    """``count_solves(module_name)`` wraps the ``score_pair`` binding of that
    module and returns the list of (hyp, ref) pairs it goes on to solve."""

    def install(module_name: str) -> list:
        module = importlib.import_module(module_name)
        original = module.score_pair
        solved = []

        def counting(table, hyp, ref, *args, **kwargs):
            solved.append((tuple(hyp), tuple(ref)))
            return original(table, hyp, ref, *args, **kwargs)

        monkeypatch.setattr(module, "score_pair", counting)
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
