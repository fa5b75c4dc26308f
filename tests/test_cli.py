import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from seqot import configfile
from seqot.cli import main, read_corpus
from seqot.embeddings import load_embeddings
from seqot.sil_rl.buffer import BufferCriterion
from seqot.sil_rl.config import BaselineMode, SilVariant
from seqot.sil_rl.envs import MarkovOracle, RewardKind
from seqot.sil_rl.policy import PolicyKind

REPO = Path(__file__).resolve().parent.parent
EMB = str(REPO / "fixtures" / "toy_embeddings.txt")
ORTHO = str(REPO / "fixtures" / "ortho_embeddings.txt")
TRIPLE = REPO / "fixtures" / "synonym_triple"


def load_schema(name: str) -> Draft202012Validator:
    schema_dir = REPO / "src" / "seqot" / "schemas"
    if not schema_dir.exists():  # installed layout
        import seqot

        schema_dir = Path(seqot.__file__).parent / "schemas"
    docs = {path.name: json.loads(path.read_text()) for path in schema_dir.glob("*.json")}
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in docs.values()
    )
    return Draft202012Validator(docs[name], registry=registry)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpora(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("a b\nc d\n")
    ref.write_text("a b\nc d\n")
    return str(hyp), str(ref)


class TestScore:
    def test_identical_files_reward_one(self, capsys, corpora):
        hyp, ref = corpora
        code, out, _ = run_cli(capsys, "score", hyp, ref, "--embeddings", ORTHO)
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_reward"] == pytest.approx(1.0, abs=1e-3)
        load_schema("score_report.schema.json").validate(payload)

    def test_line_count_mismatch_exits_two(self, capsys, tmp_path, corpora):
        hyp, _ = corpora
        short = tmp_path / "short.txt"
        short.write_text("a b\n")
        code, _, err = run_cli(capsys, "score", hyp, str(short), "--embeddings", ORTHO)
        assert code == 2
        assert "line" in err

    def test_corpus_mode(self, capsys, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b\n")
        ref.write_text("c d\na b\n")
        code, out, _ = run_cli(capsys, "score", str(hyp), str(ref), "--corpus", "--embeddings", ORTHO)
        assert code == 0
        payload = json.loads(out)
        assert payload["pairs"][0]["w_reward"] == pytest.approx(1.0, abs=1e-3)

    def test_unknown_token_exits_two(self, capsys, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("zebra\n")
        code, _, err = run_cli(capsys, "score", str(hyp), str(hyp), "--embeddings", ORTHO)
        assert code == 2
        assert "zebra" in err

    def test_corpus_mode_solves_each_distinct_pair_once(self, capsys, tmp_path, count_solves):
        solves = count_solves("seqot.nested")
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("a b\nc d\na b\n")
        ref.write_text("c d\na b\n")
        code, out, _ = run_cli(capsys, "score", str(hyp), str(ref), "--corpus", "--embeddings", ORTHO)
        assert code == 0
        # each distinct pair at most once, and only the best: a disjoint
        # pair's bound (0) cannot reach an identical pair's reward (~1)
        assert len(solves) == len(set(solves))
        assert solves == [(("a", "b"), ("a", "b")), (("c", "d"), ("c", "d"))]
        pairs = json.loads(out)["pairs"]
        assert pairs[2] == {**pairs[0], "index": 2}

    @pytest.mark.parametrize("hyp_text, ref_text, pair", [
        ("a b\nc zebra\n", "a\nb\nc\n", "(1, 0)"),
        ("a b\nc d\n", "a\nb\nc zebra\n", "(0, 2)"),
    ], ids=["hypothesis", "reference"])
    def test_corpus_mode_unknown_token_names_its_pair(self, capsys, tmp_path, hyp_text, ref_text, pair):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text(hyp_text)
        ref.write_text(ref_text)
        code, _, err = run_cli(capsys, "score", str(hyp), str(ref), "--corpus", "--embeddings", ORTHO)
        assert code == 2
        assert err == f"error: inner solve failed for pair {pair}: unknown token 'zebra' (strict OOV policy)\n"

    def test_missing_file_exits_two(self, capsys, corpora):
        hyp, _ = corpora
        code, _, err = run_cli(capsys, "score", hyp, "/nonexistent/refs.txt", "--embeddings", ORTHO)
        assert code == 2

    def test_deterministic_output(self, capsys, corpora):
        hyp, ref = corpora
        _, first, _ = run_cli(capsys, "score", hyp, ref, "--embeddings", ORTHO)
        _, second, _ = run_cli(capsys, "score", hyp, ref, "--embeddings", ORTHO)
        assert first == second

    def test_table_output(self, capsys, corpora):
        hyp, ref = corpora
        code, out, _ = run_cli(capsys, "score", hyp, ref, "--embeddings", ORTHO, "--table")
        assert code == 0
        assert out.splitlines()[0] == "index,w_distance,w_reward"


class TestNested:
    def test_identical_corpora_near_zero(self, capsys, corpora):
        hyp, ref = corpora
        code, out, _ = run_cli(capsys, "nested", hyp, ref, "--embeddings", ORTHO)
        assert code == 0
        payload = json.loads(out)
        assert payload["w_nc"] <= 2e-3
        load_schema("nested_report.schema.json").validate(payload)

    def test_single_pair_matches_score(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("a b\n")
        b.write_text("c d\n")
        _, nested_out, _ = run_cli(capsys, "nested", str(a), str(b), "--k", "1", "--k-prime", "1",
                                   "--embeddings", ORTHO)
        _, score_out, _ = run_cli(capsys, "score", str(a), str(b), "--embeddings", ORTHO)
        w_nc = json.loads(nested_out)["w_nc"]
        distance = json.loads(score_out)["pairs"][0]["w_distance"]
        assert w_nc == pytest.approx(distance, abs=1e-6)

    def test_orthogonal_fixture_half(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("a\nb\n")
        b.write_text("a\nc\n")
        _, out, _ = run_cli(capsys, "nested", str(a), str(b), "--k", "2", "--k-prime", "2",
                            "--embeddings", ORTHO)
        assert json.loads(out)["w_nc"] == pytest.approx(0.5, abs=2e-3)

    def test_subsample_recorded(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("".join(f"a b\n" for _ in range(9)))
        _, out, _ = run_cli(capsys, "nested", str(a), str(a), "--k", "3", "--k-prime", "3",
                            "--embeddings", ORTHO, "--seed", "5")
        payload = json.loads(out)
        assert len(payload["subsample_a"]) == 3


@pytest.mark.parametrize("command", ["score", "compare", "nested"])
def test_unknown_token_in_a_set_exits_two(capsys, tmp_path, command):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("a zebra\n")
    ref.write_text("a b\n")
    files = [str(ref), str(hyp)] if command == "compare" else [str(hyp), str(ref)]
    extra = ["--corpus"] if command == "score" else []
    code, _, err = run_cli(capsys, command, *files, *extra, "--embeddings", ORTHO)
    assert code == 2
    assert "zebra" in err
    assert "pair (0, 0)" in err


BAD_FLAGS = [
    (command, flag, value)
    for command in ("score", "nested", "compare")
    for flag, value in (("--gamma", "0"), ("--gamma", "nan"), ("--gamma", "inf"), ("--outer-iters", "0"))
] + [("nested", "--k", "0"), ("nested", "--k", "-1"), ("nested", "--k-prime", "0")]


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS)
def test_out_of_range_flag_exits_two(capsys, corpora, command, flag, value):
    hyp, ref = corpora
    code, _, err = run_cli(capsys, command, hyp, ref, flag, value, "--embeddings", ORTHO)
    assert code == 2
    assert err.startswith(f"error: {flag} must be")
    assert f", got {value}" in err


class TestMetrics:
    def test_identical_corpora(self, capsys, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("a b c\nd e f\n")
        code, out, _ = run_cli(capsys, "metrics", str(hyp), str(hyp), "--order", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["test_bleu"] == 1.0
        load_schema("metrics_report.schema.json").validate(payload)

    def test_golden_fixture_values(self, capsys, tmp_path):
        hyp = tmp_path / "h.txt"
        ref = tmp_path / "r.txt"
        hyp.write_text("the cat sat\na dog barked loudly\n")
        ref.write_text("the cat sat on the mat\na dog barked\n")
        _, out, _ = run_cli(capsys, "metrics", str(hyp), str(ref), "--order", "2")
        payload = json.loads(out)
        golden = json.loads((Path(__file__).parent / "golden" / "bleu_fixture.json").read_text())
        assert payload["test_bleu"] == pytest.approx(golden["test_bleu"], abs=1e-9)
        assert payload["self_bleu"] == pytest.approx(golden["self_bleu"], abs=1e-9)
        assert payload["f1_bleu"] == pytest.approx(golden["f1_bleu"], abs=1e-9)

    def test_io_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "/missing/h.txt", "/missing/r.txt")
        assert code == 2


class TestCompare:
    def test_synonym_fixture_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", str(TRIPLE / "reference.txt"), str(TRIPLE / "candidates.txt"),
            "--embeddings", EMB,
        )
        assert code == 0
        payload = json.loads(out)
        load_schema("compare_report.schema.json").validate(payload)
        ngram_row, synonym_row = payload["candidates"]
        assert ngram_row["bleu"] > synonym_row["bleu"] == 0.0
        assert ngram_row["naive"] > synonym_row["naive"]
        assert ngram_row["w_reward"] < synonym_row["w_reward"]

    def test_reference_among_candidates_ranks_first_everywhere(self, capsys, tmp_path):
        candidates = tmp_path / "c.txt"
        candidates.write_text(
            "young kid rides one bike down main road\n"
            "young kid rides one cow down main road\n"
            "youthful child cycles single bicycle along primary street\n"
        )
        _, out, _ = run_cli(capsys, "compare", str(TRIPLE / "reference.txt"), str(candidates),
                            "--embeddings", EMB)
        rows = json.loads(out)["candidates"]
        for metric in ("bleu", "naive", "w_reward"):
            assert max(rows, key=lambda r: r[metric])["index"] == 0

    def test_single_candidate(self, capsys, tmp_path):
        candidate = tmp_path / "c.txt"
        candidate.write_text("young kid rides one bike down main road\n")
        code, out, _ = run_cli(capsys, "compare", str(TRIPLE / "reference.txt"), str(candidate),
                               "--embeddings", EMB)
        assert code == 0
        assert len(json.loads(out)["candidates"]) == 1

    def test_csv_table(self, capsys, tmp_path):
        candidate = tmp_path / "c.txt"
        candidate.write_text("young kid rides one bike down main road\n")
        _, out, _ = run_cli(capsys, "compare", str(TRIPLE / "reference.txt"), str(candidate),
                            "--embeddings", EMB, "--table")
        assert out.splitlines()[0] == "index,bleu,naive,w_reward,text"


class TestTrain:
    CONFIG = """
steps = 12
seed = 3
env = markov
vocab_size = 4
horizon = 3
k = 3
k_prime = 2
lambda_sil = 0.5
sil_initial = 0.5
sil_final = 1.0
sil_ramp_steps = 6
pretrain = false
"""

    def write_config(self, tmp_path, text=None):
        config = tmp_path / "run.cfg"
        config.write_text(text or self.CONFIG)
        return config

    def test_run_writes_artifacts(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "train", str(config), "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "train_log.jsonl").exists()
        assert (out_dir / "policy.json").exists()
        assert (out_dir / "manifest.json").exists()

        log_validator = load_schema("train_log.schema.json")
        lines = (out_dir / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 13  # manifest + 12 records
        for line in lines:
            log_validator.validate(json.loads(line))
        load_schema("policy_snapshot.schema.json").validate(
            json.loads((out_dir / "policy.json").read_text())
        )
        load_schema("manifest.schema.json").validate(
            json.loads((out_dir / "manifest.json").read_text())
        )

    def test_rerun_byte_identical(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        first_dir, second_dir = tmp_path / "first", tmp_path / "second"
        run_cli(capsys, "train", str(config), "--out", str(first_dir))
        run_cli(capsys, "train", str(config), "--out", str(second_dir))
        assert (first_dir / "train_log.jsonl").read_bytes() == (second_dir / "train_log.jsonl").read_bytes()
        assert (first_dir / "policy.json").read_bytes() == (second_dir / "policy.json").read_bytes()

    def test_lambda_zero_matches_reinforce_final_params(self, capsys, tmp_path):
        lam0 = self.write_config(
            tmp_path,
            "steps = 10\nseed = 4\nvocab_size = 3\nhorizon = 2\nk = 3\n"
            "lambda_sil = 0.0\nsil_initial = 0.5\nsil_final = 1.0\nsil_ramp_steps = 4\npretrain = false\n",
        )
        plain = tmp_path / "plain.cfg"
        plain.write_text(
            "steps = 10\nseed = 4\nvocab_size = 3\nhorizon = 2\nk = 3\n"
            "lambda_sil = 0.0\nsil_initial = 0.0\nsil_final = 0.0\nsil_ramp_steps = 0\npretrain = false\n"
        )
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "train", str(lam0), "--out", str(dir_a))
        run_cli(capsys, "train", str(plain), "--out", str(dir_b))
        params_a = json.loads((dir_a / "policy.json").read_text())["params"]
        params_b = json.loads((dir_b / "policy.json").read_text())["params"]
        assert params_a == params_b

    def test_unknown_key_named_exit_two(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "steps = 5\nvocab_size = 3\nhorizon = 2\nlerning_rate = 0.1\n")
        code, _, err = run_cli(capsys, "train", str(config))
        assert code == 2
        assert "lerning_rate" in err

    def test_bad_value_named_exit_two(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "steps = 5\nvocab_size = 3\nhorizon = 2\nlearning_rate = fast\n")
        code, _, err = run_cli(capsys, "train", str(config))
        assert code == 2
        assert "learning_rate" in err

    @pytest.mark.parametrize("lines, key", [
        ("gamma = 0", "gamma"),
        ("outer_iters = 0", "outer_iters"),
        ("gamma = inf", "gamma"),
        ("temperature = 0", "temperature"),
        ("buffer_capacity = 0", "buffer_capacity"),
        ("reference_count = -1", "reference_count"),
        ("reference_count = 0", "reference_count"),
        ("env = overlap\nreference_count = 0", "reference_count"),
        ("env = conditional\nconditions = 0", "conditions"),
        ("env = overlap\nconditions = 3", "conditions"),
        ("env = markov\nconditions = 3", "conditions"),
        ("env = overlap\noracle_concentration = 5.0", "oracle_concentration"),
        ("env = conditional\noracle_concentration = 5.0", "oracle_concentration"),
        ("buffer_criterion = nested_reward", "reference_reward"),
        ("bleu_order = 3", "bleu_order"),
        ("pretrain = false\npretrain_smoothing = 2.0", "pretrain_smoothing"),
        ("baseline = greedy\nbaseline_decay = 0.5", "baseline_decay"),
        ("lambda_sil = nan", "lambda_sil"),
        ("lambda_sil = inf", "lambda_sil"),
        ("learning_rate = inf", "learning_rate"),
        ("pretrain_smoothing = 0", "pretrain_smoothing"),
        ("pretrain_smoothing = -1", "pretrain_smoothing"),
        ("pretrain_smoothing = nan", "pretrain_smoothing"),
        ("pretrain_smoothing = inf", "pretrain_smoothing"),
        ("temperature = inf", "temperature"),
        ("sil_initial = nan", "sil_initial"),
        ("buffer_criterion = f1_bleu\nbleu_order = 7", "bleu_order"),
        ("sil_ramp_steps = -1", "sil_ramp_steps"),
        ("sil_initial = -1", "sil_initial"),
        ("sil_final = -0.5", "sil_final"),
        ("seed = -1", "seed"),
        ("env_seed = -1", "env_seed"),
        ("oracle_concentration = 0", "oracle_concentration"),
        ("oracle_concentration = -1", "oracle_concentration"),
        ("oracle_concentration = nan", "oracle_concentration"),
        ("oracle_concentration = inf", "oracle_concentration"),
    ])
    def test_out_of_range_value_named_exit_two(self, capsys, tmp_path, lines, key):
        config = self.write_config(tmp_path, f"steps = 5\nvocab_size = 3\nhorizon = 2\n{lines}\n")
        code, _, err = run_cli(capsys, "train", str(config), "--out", str(tmp_path / "out"))
        assert code == 2
        assert key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "inner_sinkhorn_iters = 0",
        "inner_sinkhorn_iters = 2",
        "feasibility_tol = 0",
        "feasibility_tol = inf",
        "feasibility_tol = 1e-5",
    ])
    def test_removed_solver_keys_are_unknown(self, capsys, tmp_path, line):
        """The solver runs one Sinkhorn sweep per step to a fixed tolerance,
        so neither setting is a key: a file that sets one fails as unknown."""
        config = self.write_config(tmp_path, f"steps = 5\nvocab_size = 3\nhorizon = 2\n{line}\n")
        code, _, err = run_cli(capsys, "train", str(config), "--out", str(tmp_path / "out"))
        key = line.partition(" ")[0]
        assert code == 2
        assert f"unknown key '{key}'" in err
        assert not (tmp_path / "out").exists()

    def test_solver_key_error_keeps_the_value(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "steps = 5\nvocab_size = 3\nhorizon = 2\ngamma = 0\n")
        code, _, err = run_cli(capsys, "train", str(config))
        assert code == 2
        assert "gamma must be finite and positive, got 0.0" in err

    @pytest.mark.parametrize("lines", [
        "lambda_sil = 1e300\nlearning_rate = 1e10",
        "lambda_sil = 1e300",
    ])
    def test_divergent_training_exits_two(self, capsys, tmp_path, lines):
        config = self.write_config(tmp_path, f"steps = 20\nvocab_size = 3\nhorizon = 2\n{lines}\n")
        code, _, err = run_cli(capsys, "train", str(config), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "step" in err and "learning_rate" in err and "lambda_sil" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines", [
        "buffer_criterion = f1_bleu\nbleu_order = 3",
        "pretrain = true\npretrain_smoothing = 2.0",
        "baseline = constant\nbaseline_decay = 0.5",
    ])
    def test_applies_only_key_trains_under_its_setting(self, capsys, tmp_path, lines):
        config = self.write_config(tmp_path, f"steps = 5\nvocab_size = 3\nhorizon = 2\n{lines}\n")
        code, _, _ = run_cli(capsys, "train", str(config), "--out", str(tmp_path / "out"))
        assert code == 0

    def test_markov_without_references_trains_unpretrained(self, capsys, tmp_path):
        config = self.write_config(
            tmp_path, "steps = 5\nvocab_size = 3\nhorizon = 2\nreference_count = 0\npretrain = false\n")
        code, _, _ = run_cli(capsys, "train", str(config), "--out", str(tmp_path / "out"))
        assert code == 0

    def test_shipped_configs_parse(self, capsys, tmp_path):
        for name in ("wsil_i_markov.cfg", "reinforce_markov.cfg"):
            text = (REPO / "configs" / name).read_text()
            text = text.replace("steps = 200", "steps = 8")
            config = tmp_path / name
            config.write_text(text)
            out_dir = tmp_path / f"out_{name}"
            code, _, _ = run_cli(capsys, "train", str(config), "--out", str(out_dir))
            assert code == 0


REQUIRED_KEYS = {"steps": "5", "vocab_size": "3", "horizon": "2"}

# Each key at a valid value other than its default, any lines it needs in
# order to apply, where the built setup holds it, and what that should read.
KEY_PROBES = {
    "steps": ("7", {}, lambda s: s.steps, 7),
    "seed": ("3", {}, lambda s: s.sil.seed, 3),
    "env": ("overlap", {}, lambda s: s.env.reward_fn, RewardKind.OVERLAP),
    "vocab_size": ("4", {}, lambda s: (s.env.vocab_size, s.policy.vocab_size), (4, 4)),
    "horizon": ("3", {}, lambda s: (s.env.horizon, s.policy.horizon), (3, 3)),
    "env_seed": ("9", {}, lambda s: s.env.seed, 9),
    "oracle_concentration": ("2.0", {}, lambda s: s.env.oracle.initial.tolist(),
                             MarkovOracle.random(3, 0, 2.0).initial.tolist()),
    "reference_count": ("5", {}, lambda s: len(s.env.references[None]), 5),
    "conditions": ("2", {"env": "conditional"}, lambda s: s.env.condition_ids(), [0, 1]),
    "policy": ("linear", {}, lambda s: s.policy.kind, PolicyKind.LINEAR),
    "temperature": ("0.5", {}, lambda s: s.policy.temperature, 0.5),
    "variant": ("wsil_d", {}, lambda s: s.sil.variant, SilVariant.WSIL_D),
    "lambda_sil": ("2.0", {}, lambda s: s.sil.lambda_sil, 2.0),
    "k": ("3", {}, lambda s: s.sil.k, 3),
    "k_prime": ("4", {}, lambda s: s.sil.k_prime, 4),
    "learning_rate": ("0.2", {}, lambda s: s.sil.learning_rate, 0.2),
    "sil_initial": ("0.3", {}, lambda s: s.sil.schedule.initial, 0.3),
    "sil_final": ("0.7", {}, lambda s: s.sil.schedule.final, 0.7),
    "sil_ramp_steps": ("9", {}, lambda s: s.sil.schedule.ramp_steps, 9),
    "baseline": ("greedy", {}, lambda s: s.sil.baseline_mode, BaselineMode.GREEDY),
    "baseline_decay": ("0.5", {}, lambda s: s.sil.baseline_decay, 0.5),
    "buffer_capacity": ("7", {}, lambda s: s.sil.buffer_capacity, 7),
    "buffer_criterion": ("f1_bleu", {}, lambda s: s.sil.buffer_criterion, BufferCriterion.F1_BLEU),
    "buffer_dedupe": ("false", {}, lambda s: s.sil.buffer_dedupe, False),
    "pretrain": ("false", {}, lambda s: s.sil.pretrain, False),
    "pretrain_smoothing": ("2.0", {}, lambda s: s.sil.pretrain_smoothing, 2.0),
    "bleu_order": ("3", {"buffer_criterion": "f1_bleu"}, lambda s: s.sil.bleu_order, 3),
    "gamma": ("0.5", {}, lambda s: (s.sil.ot.gamma, s.env.ot_config.gamma), (0.5, 0.5)),
    "outer_iters": ("50", {}, lambda s: (s.sil.ot.outer_iters, s.env.ot_config.outer_iters), (50, 50)),
}


def test_key_probes_cover_the_key_table():
    assert KEY_PROBES.keys() == configfile._KEYS.keys()


@pytest.mark.parametrize("key", list(configfile._KEYS))
def test_each_key_reaches_the_field_it_names(key):
    raw, needs, probe, expected = KEY_PROBES[key]
    without = configfile.build_training_setup({**REQUIRED_KEYS, **needs})
    with_key = configfile.build_training_setup({**REQUIRED_KEYS, **needs, key: raw})
    assert probe(without) != expected
    assert probe(with_key) == expected


class TestUnreadableInput:
    """Bad bytes in any input file exit 2 with an ``error:`` line naming the
    file and line, never an internal error."""

    @pytest.mark.parametrize("kind", ["table", "hypotheses", "references"])
    def test_score_input_not_utf8(self, capsys, tmp_path, kind):
        files = {"table": b"2 2\na 1 0\nb 0 1\n", "hypotheses": b"a b\n", "references": b"b a\n"}
        files[kind] = files[kind].replace(b"b", b"b\xff", 1)
        paths = {}
        for name, data in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_bytes(data)
        argv = ["score", str(paths["hypotheses"]), str(paths["references"]), "--embeddings", str(paths["table"])]
        code, out, err = run_cli(capsys, *argv)
        line = 3 if kind == "table" else 1
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ") and str(paths[kind]) in err
        assert f"line {line} is not UTF-8 (byte 0xff)" in err

    def test_metrics_corpus_not_utf8(self, capsys, tmp_path):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_bytes(b"a b\nc \xff d\n")
        ref.write_text("a b\n")
        code, _, err = run_cli(capsys, "metrics", str(hyp), str(ref))
        assert code == 2
        assert err == f"error: cannot read {hyp}: line 2 is not UTF-8 (byte 0xff)\n"

    def test_train_config_not_utf8(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"steps = 5\n# \xff\n")
        code, _, err = run_cli(capsys, "train", str(config), "--out", str(tmp_path / "out"))
        assert code == 2
        assert err == f"error: cannot read {config}: line 2 is not UTF-8 (byte 0xff)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, message", [
        ("a\u00a01 0", "line 3: expected 2 vector components, got 1"),
        ("a \u0661 0", "line 3: not a decimal number: '\u0661'"),
        ("a 1_0 1", "line 3: not a decimal number: '1_0'"),
        ("a 1 0\x0cc 0 1", "line 3: expected 2 vector components, got 5"),
    ], ids=["no-break-space", "arabic-indic-digit", "underscore", "form-feed"])
    def test_table_outside_the_grammar_names_its_line(self, capsys, tmp_path, corpora, row, message):
        table = tmp_path / "e.txt"
        table.write_bytes(f"2 2\nb 0 1\n{row}\n".encode())
        hyp, ref = corpora
        code, _, err = run_cli(capsys, "score", hyp, ref, "--embeddings", str(table))
        assert (code, err) == (2, f"error: {message}\n")


# Characters that Python's str.split or str.splitlines break on but the input
# grammar keeps inside a token, and the ASCII whitespace that separates tokens.
IN_TOKEN = ["\u00a0", "\u2028", "\u0085", "\x1c", "\x1d", "\x1e", "\x1f"]
SEPARATORS = [" ", "\t", "\x0b", "\x0c"]


@st.composite
def grammar_lines(draw):
    """Table rows ``token 1 0`` whose tokens hold ``IN_TOKEN`` characters
    and upper-case letters, joined by ASCII whitespace runs, with blank lines
    between them; returns ``(lines, tokens)``."""
    letters = st.sampled_from(["a", "B", "\u00c4", "\u0130", "\u03a3", *IN_TOKEN])
    separator = st.text(st.sampled_from(SEPARATORS), min_size=1, max_size=3)
    lines, tokens = [], []
    for index in range(draw(st.integers(1, 6))):
        token = draw(st.text(letters, min_size=1, max_size=6)) + str(index)  # distinct tokens
        fields = [token, "1", "0"]
        lead, trail = draw(st.sampled_from(["", " ", "\x0c"])), draw(st.sampled_from(["", "\t", "\x0b"]))
        lines.append(lead + "".join(f + draw(separator) for f in fields[:-1]) + fields[-1] + trail)
        tokens.append(token)
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["", " ", "\x0c\x0b"])))
    return lines, tokens


class TestOneGrammar:
    """Tables, corpora and configs split text the same way: lines end at
    ``\\n``, ``\\r\\n`` or ``\\r``, and tokens split at ASCII whitespace."""

    @settings(max_examples=200, deadline=None)
    @given(grammar_lines(), st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=8, max_size=8))
    def test_a_corpus_splits_as_a_table_does(self, tmp_path_factory, lines_and_tokens, ends):
        lines, tokens = lines_and_tokens
        body = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        folder = tmp_path_factory.mktemp("grammar")
        table, corpus, lowered = folder / "e.txt", folder / "c.txt", folder / "lower.txt"
        table.write_bytes(f"{len(tokens)} 2\n{body}".encode())
        corpus.write_bytes(body.encode())
        lowered.write_bytes(body.lower().encode())

        sentences = read_corpus(corpus)
        assert sentences == [[token, "1", "0"] for token in tokens]
        assert [sentence[0] for sentence in sentences] == load_embeddings(table).tokens()
        lower = [[t.lower() for t in sentence] for sentence in sentences]
        assert read_corpus(corpus, lowercase=True) == lower == read_corpus(lowered)

    @pytest.mark.parametrize("prefix, line", [
        (b"a\x0cb\nc\n", 3),
        ("a\u2028b\x1cc\u0085d\r\ne\rf\n".encode(), 4),
        ("x\u00a0y\x0b\n\n\r\n".encode(), 4),
    ], ids=["form-feed", "unicode-separators", "blank-lines"])
    @pytest.mark.parametrize("kind", ["table", "score-corpus", "metrics-corpus", "config"])
    def test_a_bad_byte_gets_one_line_number(self, capsys, tmp_path, corpora, prefix, line, kind):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(prefix + b"z\xff\n")
        hyp, ref = corpora
        argv = {
            "table": ["score", hyp, ref, "--embeddings", str(bad)],
            "score-corpus": ["score", str(bad), ref, "--embeddings", ORTHO],
            "metrics-corpus": ["metrics", hyp, str(bad)],
            "config": ["train", str(bad), "--out", str(tmp_path / "out")],
        }[kind]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {bad}: line {line} is not UTF-8 (byte 0xff)\n"

    @pytest.mark.parametrize("mode", [[], ["--corpus"]], ids=["pairwise", "corpus"])
    def test_a_token_with_a_no_break_space_scores_as_any_other(self, capsys, tmp_path, mode):
        payloads = []
        for name in ("new\u00a0york", "newyork"):
            folder = tmp_path / str(len(payloads))
            folder.mkdir()
            table, hyp, ref = folder / "e.txt", folder / "h.txt", folder / "r.txt"
            table.write_text(f"3 3\n{name} 1 0.5 0\nb 0 1 0\nc 0.2 0 1\n", encoding="utf-8")
            hyp.write_text(f"{name} b\nb c\n", encoding="utf-8")
            ref.write_text(f"c b\n{name} c b\n", encoding="utf-8")
            code, out, err = run_cli(capsys, "score", str(hyp), str(ref), *mode, "--embeddings", str(table))
            assert (code, err) == (0, "")
            payloads.append(json.loads(out))
        renamed, ascii_copy = payloads
        assert renamed["pairs"] == ascii_copy["pairs"]
        assert renamed["mean_reward"] == ascii_copy["mean_reward"]

    def test_config_lines_end_only_at_line_ends(self):
        text = "steps = 5\r\nvocab_size = 3\rhorizon = 2\n# a\u2028seed = 9\nk = 2\x0c\n"
        assert configfile.parse_config_text(text) == {"steps": "5", "vocab_size": "3", "horizon": "2", "k": "2"}
        with pytest.raises(configfile.ConfigError, match="line 2: expected 'key = value'"):
            configfile.parse_config_text("steps = 5\x0cjunk\rseed\n")


class TestReservedPadToken:
    """``<PAD>`` in a sequence to be scored exits 2 naming the token, with no
    line number and no mention of a table."""

    @pytest.mark.parametrize("argv", [
        ["score", "{hyp}", "{ref}"],
        ["score", "{hyp}", "{ref}", "--corpus"],
        ["score", "{hyp}", "{ref}", "--oov", "hash"],
        ["nested", "{hyp}", "{ref}"],
        ["compare", "{ref}", "{hyp}"],
    ], ids=["score", "score-corpus", "score-hash", "nested", "compare"])
    def test_pad_in_a_corpus_names_the_token(self, capsys, tmp_path, argv):
        hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
        hyp.write_text("a <PAD>\n")
        ref.write_text("a b\n")
        argv = [arg.format(hyp=hyp, ref=ref) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--embeddings", ORTHO)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.endswith("'<PAD>' is reserved and may not appear in a sequence\n")
        assert "line" not in err and "table" not in err
