"""Pinned outputs of `seqot train` and of the transport CLI commands.

The expected values under ``tests/golden/`` were written by this file's
``__main__`` block (``PYTHONPATH=src python tests/test_regression.py``).
Integers, booleans, strings and structure must match exactly and floats to
1e-12, so the check survives a change of BLAS kernel but not a change of
arithmetic. A change that moves these values on purpose regenerates them
and says which values moved, by how much, and why.
"""

import importlib.util
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
VARIANT_STEPS = 40
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


def train_outputs(config: Path, directory: Path) -> dict:
    """Final policy parameters and every persisted train record."""
    assert main(["train", str(config), "--out", str(directory)]) == 0
    records = [json.loads(line) for line in (directory / "train_log.jsonl").read_text().splitlines()[1:]]
    policy = json.loads((directory / "policy.json").read_text())
    del policy["manifest"]
    return {"policy": policy, "records": records}


def edit_config(text: str, **settings) -> str:
    """``text`` with each given key set to its value (``None`` drops the key)."""
    lines = []
    for line in text.splitlines():
        key = line.partition("=")[0].strip()
        if key in settings:
            value = settings.pop(key)
            if value is None:
                continue
            line = f"{key} = {value}"
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in settings.items()]
    return "\n".join(lines) + "\n"


def benchmark_config(arm: str) -> str:
    """The benchmark's A7 training config for ``arm`` (``perfbench/gen.py``)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.train_config(arm, 3, 0, steps=VARIANT_STEPS)


def variant_configs() -> dict[str, str]:
    """Short runs down every training path: each policy kind, variant, env,
    baseline and buffer criterion, and configs that lean on the defaults."""
    base = (REPO / "configs" / "wsil_i_markov.cfg").read_text()

    def variant(**settings) -> str:
        return edit_config(base, steps=VARIANT_STEPS, **settings)

    required = f"steps = {VARIANT_STEPS}\nvocab_size = 5\nhorizon = 4\n"
    return {
        "benchmark_wsil": benchmark_config("wsil"),
        "benchmark_reinforce": benchmark_config("reinforce"),
        "linear_wsil_i": variant(policy="linear"),
        "linear_wsil_d": variant(policy="linear", variant="wsil_d"),
        "overlap_reference_reward": variant(env="overlap", buffer_criterion="reference_reward",
                                            oracle_concentration=None),
        "conditional_wsil_d": variant(env="conditional", variant="wsil_d", oracle_concentration=None),
        "f1_bleu_order_3": variant(buffer_criterion="f1_bleu", bleu_order=3),
        "greedy_sil_i_now": variant(baseline="greedy", variant="sil_i_now"),
        "required_only": required,
        "required_conditional_sil_d_now": required + "env = conditional\nvariant = sil_d_now\nsil_initial = 0.5\n",
    }


def variant_outputs(name: str, text: str, directory: Path) -> dict:
    """The resolved config of the run's manifest, plus :func:`train_outputs`."""
    config = directory / f"{name}.cfg"
    config.write_text(text)
    outputs = train_outputs(config, directory / name)
    manifest = json.loads((directory / name / "manifest.json").read_text())
    return {"config": manifest["config"], **outputs}


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


def shipped_config(name: str) -> Path:
    return REPO / "configs" / f"{name}.cfg"


@pytest.mark.parametrize("config_name", TRAIN_CONFIGS)
def test_train_matches_golden(tmp_path, config_name):
    assert_matches(train_outputs(shipped_config(config_name), tmp_path), load_golden(f"train_{config_name}"))


@pytest.mark.parametrize("name", list(variant_configs()))
def test_train_variant_matches_golden(tmp_path, name):
    actual = variant_outputs(name, variant_configs()[name], tmp_path)
    assert_matches(actual, load_golden("train_variants")[name], name)


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
        goldens = {f"train_{name}": train_outputs(shipped_config(name), root / name) for name in TRAIN_CONFIGS}
        goldens["train_variants"] = {name: variant_outputs(name, text, root)
                                     for name, text in variant_configs().items()}
        goldens["cli"] = cli_outputs(root)
    for name, payload in goldens.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)


if __name__ == "__main__":
    write_goldens()
