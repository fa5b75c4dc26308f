import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from seqot import configfile
from seqot.cli import main
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
        assert len(solves) == len(set(solves)) == 4
        pairs = json.loads(out)["pairs"]
        assert pairs[2] == {**pairs[0], "index": 2}

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
        ("inner_sinkhorn_iters = 0", "inner_sinkhorn_iters"),
        ("feasibility_tol = 0", "feasibility_tol"),
        ("gamma = inf", "gamma"),
        ("feasibility_tol = inf", "feasibility_tol"),
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
    "env": ("overlap", {}, lambda s: s.env.reward_fn, RewardKind.TARGET_OVERLAP),
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
    "inner_sinkhorn_iters": ("2", {}, lambda s: (s.sil.ot.inner_sinkhorn_iters,
                                                 s.env.ot_config.inner_sinkhorn_iters), (2, 2)),
    "feasibility_tol": ("1e-5", {}, lambda s: (s.sil.ot.feasibility_tol, s.env.ot_config.feasibility_tol),
                        (1e-5, 1e-5)),
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
