"""Pinned outputs of `seqot train` and of the transport CLI commands.

The expected values under ``tests/golden/`` were written by this file's
``__main__`` block (``PYTHONPATH=src python tests/test_regression.py``).
Integers, booleans, strings and structure must match exactly and floats to
1e-12, so the check survives a change of BLAS kernel but not a change of
arithmetic. A change that moves these values on purpose regenerates them
and says which values moved, by how much, and why.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from seqot.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
EMB = str(REPO / "fixtures" / "toy_embeddings.txt")
TRIPLE = REPO / "fixtures" / "synonym_triple"

TRAIN_CONFIGS = ("wsil_i_markov", "reinforce_markov")
CLI_CASES = ("score_pairwise", "score_corpus", "nested", "compare")
FLOAT_TOL = 1e-12


def write_corpora(directory: Path) -> dict[str, str]:
    """The synonym-triple lines as three corpora: the reference and both
    candidates, the same three rotated by one line, and the candidates."""
    lines = (TRIPLE / "reference.txt").read_text().splitlines()
    lines += (TRIPLE / "candidates.txt").read_text().splitlines()
    paths = {"all": directory / "all.txt", "rotated": directory / "rotated.txt"}
    paths["all"].write_text("\n".join(lines) + "\n")
    paths["rotated"].write_text("\n".join(lines[1:] + lines[:1]) + "\n")
    paths["candidates"] = TRIPLE / "candidates.txt"
    paths["reference"] = TRIPLE / "reference.txt"
    return {name: str(path) for name, path in paths.items()}


def cli_cases(corpora: dict[str, str]) -> dict[str, list[str]]:
    return {
        "score_pairwise": ["score", corpora["all"], corpora["rotated"]],
        "score_corpus": ["score", corpora["all"], corpora["candidates"], "--corpus"],
        "nested": ["nested", corpora["all"], corpora["candidates"], "--k", "3", "--k-prime", "2"],
        "compare": ["compare", corpora["reference"], corpora["all"]],
    }


def cli_outputs(directory: Path) -> dict[str, dict]:
    """Each CLI case's JSON, without the input paths and tool version."""
    outputs = {}
    for name, argv in cli_cases(write_corpora(directory)).items():
        out = directory / f"{name}.json"
        assert main([*argv, "--embeddings", EMB, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        del payload["manifest"]["inputs"], payload["manifest"]["version"]
        outputs[name] = payload
    return outputs


def train_outputs(config_name: str, directory: Path) -> dict:
    """Final policy parameters and every persisted train record."""
    assert main(["train", str(REPO / "configs" / f"{config_name}.cfg"), "--out", str(directory)]) == 0
    records = [json.loads(line) for line in (directory / "train_log.jsonl").read_text().splitlines()[1:]]
    policy = json.loads((directory / "policy.json").read_text())
    del policy["manifest"]
    return {"policy": policy, "records": records}


def assert_matches(actual, expected, where="output"):
    assert type(actual) is type(expected), f"{where}: {type(actual).__name__} != {type(expected).__name__}"
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: length {len(actual)} != {len(expected)}"
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def load_golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


@pytest.mark.parametrize("config_name", TRAIN_CONFIGS)
def test_train_matches_golden(tmp_path, config_name):
    assert_matches(train_outputs(config_name, tmp_path), load_golden(f"train_{config_name}"))


@pytest.fixture(scope="module")
def cli_results(tmp_path_factory):
    return cli_outputs(tmp_path_factory.mktemp("cli"))


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_matches_golden(cli_results, case):
    assert_matches(cli_results[case], load_golden("cli")[case], case)


def test_comparison_is_strict_on_structure_and_tolerant_only_on_floats():
    assert_matches({"a": [1, 0.5, True]}, {"a": [1, 0.5 + 1e-13, True]})
    for actual in ({"a": [1, 0.5 + 1e-11, True]}, {"a": [2, 0.5, True]}, {"a": [1, 0.5, 1]},
                   {"a": [1, 0.5]}, {"b": [1, 0.5, True]}):
        with pytest.raises(AssertionError):
            assert_matches(actual, {"a": [1, 0.5, True]})


def write_goldens() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        goldens = {f"train_{name}": train_outputs(name, root / name) for name in TRAIN_CONFIGS}
        goldens["cli"] = cli_outputs(root)
    for name, payload in goldens.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
