"""Correctness checks on the program's outputs, run after the timed region.

Each check returns a list of failure messages for one CLI call; an empty
list means the call's output is correct. scipy and jsonschema are imported
here only, after the workload has recorded its peak memory.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from referencing import Registry, Resource
from scipy.optimize import linear_sum_assignment

from seqot.cli import read_corpus
from seqot.embeddings import build_cost_matrix, load_embeddings

# Tolerances of the acceptance gates: A1 (solver against the exact optimum)
# and A3 (reward + distance = 1 for a unit-mass plan).
A1_TOL = 1e-3
A3_TOL = 1e-9


def exact_assignment_cost(cost: np.ndarray) -> float:
    """Uniform-marginal OT on a square matrix is a linear assignment problem."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


class Checker:
    def __init__(self, schema_dir: Path):
        docs = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in schema_dir.glob("*.json")}
        registry = Registry().with_resources(
            (name, Resource.from_contents(doc)) for name, doc in docs.items()
        )
        self.validators = {name: Draft202012Validator(doc, registry=registry) for name, doc in docs.items()}
        self._tables: dict = {}

    def _schema_errors(self, schema: str, payload, where: str) -> list[str]:
        return [f"{where}: {e.message}" for e in self.validators[schema].iter_errors(payload)]

    def _load(self, path: Path, schema: str) -> tuple[dict | None, list[str]]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return None, [f"{path.name}: unreadable output ({exc})"]
        return payload, self._schema_errors(schema, payload, path.name)

    def _table(self, path: Path):
        if path not in self._tables:
            self._tables[path] = load_embeddings(path)
        return self._tables[path]

    def score(self, call) -> list[str]:
        """Corpus-mode scores: each hypothesis's best match is the exact optimum."""
        payload, errors = self._load(call.out, "score_report.schema.json")
        if payload is None or errors:
            return errors
        table = self._table(call.inputs["table"])
        hyps = read_corpus(call.inputs["hyp"])
        refs = read_corpus(call.inputs["ref"])
        if len(payload["pairs"]) != len(hyps):
            return [f"score: {len(payload['pairs'])} results for {len(hyps)} hypotheses"]
        for pair, hyp in zip(payload["pairs"], hyps):
            distance, reward = pair["w_distance"], pair["w_reward"]
            # If every solve is within A1_TOL of its optimum, so is the best
            # match the CLI picks, whichever reference that is.
            best = min(exact_assignment_cost(build_cost_matrix(table, hyp, ref).values) for ref in refs)
            if abs(distance - best) > A1_TOL:
                errors.append(f"score[{pair['index']}]: w_distance {distance!r}, exact {best!r}")
            if abs(reward + distance - 1.0) > A3_TOL:
                errors.append(f"score[{pair['index']}]: w_reward + w_distance = {reward + distance!r}")
        return errors

    def nested(self, call) -> list[str]:
        payload, errors = self._load(call.out, "nested_report.schema.json")
        if payload is None or errors:
            return errors
        if not payload["outer_plan"]["converged"]:
            errors.append("nested: outer plan did not converge")
        return errors

    def metrics(self, call) -> list[str]:
        return self._load(call.out, "metrics_report.schema.json")[1]

    def train(self, call) -> list[str]:
        """One schema-valid record per configured step, in step order."""
        log = call.out / "train_log.jsonl"
        try:
            records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        except (OSError, ValueError) as exc:
            return [f"train: unreadable log ({exc})"]
        if not records:
            return ["train: empty log"]
        validator = self.validators["train_log.schema.json"]
        errors = [f"train_log line {i + 1}: {e.message}" for i, r in enumerate(records) for e in validator.iter_errors(r)]
        steps = [r.get("step") for r in records[1:]]
        if "manifest" not in records[0] or steps != list(range(call.inputs["steps"])):
            errors.append(f"train_log: expected a manifest and steps 0..{call.inputs['steps'] - 1}")
        _, policy_errors = self._load(call.out / "policy.json", "policy_snapshot.schema.json")
        _, manifest_errors = self._load(call.out / "manifest.json", "manifest.schema.json")
        return errors + policy_errors + manifest_errors
