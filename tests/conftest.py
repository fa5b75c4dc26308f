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


@pytest.fixture
def count_solves(monkeypatch):
    """``count_solves(module_name)`` returns the list of (hyp, ref) token-bag
    pairs that module goes on to solve: through its ``score_pair`` binding,
    or through its ``score_costs`` binding on a matrix
    ``seq_match.build_cost_matrix`` built."""

    def install(module_name: str) -> list:
        module = importlib.import_module(module_name)
        solved = []
        built = {}  # id of each built matrix -> (the matrix, its pair)
        original_pair = module.score_pair
        original_build = seq_match.build_cost_matrix

        def counting_pair(table, hyp, ref, *args, **kwargs):
            solved.append((seq_match.token_bag(hyp), seq_match.token_bag(ref)))
            return original_pair(table, hyp, ref, *args, **kwargs)

        def recording_build(table, hyp, ref):
            costs = original_build(table, hyp, ref)
            built[id(costs)] = (costs, (tuple(hyp), tuple(ref)))
            return costs

        monkeypatch.setattr(module, "score_pair", counting_pair)
        monkeypatch.setattr(seq_match, "build_cost_matrix", recording_build)
        if hasattr(module, "score_costs"):
            original_costs = module.score_costs

            def counting_costs(costs, *args, **kwargs):
                solved.append(built[id(costs)][1])
                return original_costs(costs, *args, **kwargs)

            monkeypatch.setattr(module, "score_costs", counting_costs)
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
