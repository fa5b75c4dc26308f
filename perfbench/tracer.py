"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``seqot`` modules with timing
wrappers for the duration of one traced pass, then puts the originals back.
No file of the program changes. A function is patched at every name it is
bound under: ``from .ot_core import ipot_solve`` copies the function into
``seq_match`` at import, so wrapping only ``ot_core.ipot_solve`` would miss
every call ``seq_match`` makes.

Spans nest (the program is single-threaded): a span's self time is its
duration minus the durations of the spans it directly caused. Work the
tracer does after a call returns (the hooks below) is charged to no span,
so it never inflates a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from seqot.ot_core import DEFAULT_IPOT

from checks import exact_assignment_cost

# span name -> (defining module, attribute or Class.method, other modules
# that bound the same function at import). Modules are resolved with
# importlib because attribute access can hit a re-export instead:
# ``seqot.sil_rl.train`` is the function, ``sys.modules[...]`` the module.
SPANS = {
    "cli.main": ("seqot.cli", "main", ()),
    "ot_core.ipot_solve": ("seqot.ot_core", "ipot_solve", ("seqot.seq_match", "seqot.nested")),
    "embeddings.load_embeddings": ("seqot.embeddings", "load_embeddings", ("seqot.cli",)),
    "embeddings.build_cost_matrix": ("seqot.embeddings", "build_cost_matrix", ("seqot.seq_match",)),
    "seq_match.score_pair": (
        "seqot.seq_match", "score_pair", ("seqot.nested", "seqot.cli", "seqot.sil_rl.envs"),
    ),
    "nested.nested_wasserstein": (
        "seqot.nested", "nested_wasserstein", ("seqot.cli", "seqot.sil_rl.gradients"),
    ),
    "text_metrics.corpus_bleu": (
        "seqot.text_metrics", "corpus_bleu", ("seqot.cli", "seqot.sil_rl.buffer"),
    ),
    "text_metrics.self_bleu": ("seqot.text_metrics", "self_bleu", ()),
    "policy.sample_trajectories": (
        "seqot.sil_rl.policy", "sample_trajectories", ("seqot.sil_rl.train", "seqot.sil_rl.experiments"),
    ),
    "policy.grad_log_prob": ("seqot.sil_rl.policy", "Policy.grad_log_prob", ()),
    "gradients.reinforce_grad": ("seqot.sil_rl.gradients", "reinforce_grad", ("seqot.sil_rl.train",)),
    "gradients.wsil_i_grad": ("seqot.sil_rl.gradients", "wsil_i_grad", ("seqot.sil_rl.train",)),
    "gradients.wsil_d_grad": ("seqot.sil_rl.gradients", "wsil_d_grad", ("seqot.sil_rl.train",)),
    "buffer.buffer_update": ("seqot.sil_rl.buffer", "buffer_update", ("seqot.sil_rl.train",)),
    "buffer.sample": ("seqot.sil_rl.buffer", "ReplayBuffer.sample", ()),
    "envs.reward": ("seqot.sil_rl.envs", "ToyEnv.reward", ()),
    "train.train": ("seqot.sil_rl.train", "train", ("seqot.cli", "seqot.sil_rl.experiments")),
}

# Which spans make up each layer, for the layer self-time totals.
LAYERS = {
    "cli": ("cli.main",),
    "ot_core": ("ot_core.ipot_solve",),
    "embeddings": ("embeddings.load_embeddings", "embeddings.build_cost_matrix"),
    "seq_match": ("seq_match.score_pair",),
    "nested": ("nested.nested_wasserstein",),
    "text_metrics": ("text_metrics.corpus_bleu", "text_metrics.self_bleu"),
    "policy": ("policy.sample_trajectories", "policy.grad_log_prob"),
    "gradients": ("gradients.reinforce_grad", "gradients.wsil_i_grad", "gradients.wsil_d_grad"),
    "buffer": ("buffer.buffer_update", "buffer.sample"),
    "envs": ("envs.reward",),
    "train": ("train.train",),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span statistics plus the counters the hooks collect."""

    spans: dict = field(default_factory=lambda: defaultdict(SpanStats))
    # (parent span, child span) -> inclusive seconds of the child under it
    edges: dict = field(default_factory=lambda: defaultdict(float))
    solves: list = field(default_factory=list)  # (n, m, iterations, cap, converged)
    matrices: dict = field(default_factory=dict)  # cost bytes -> (matrix, [returned costs])
    pair_keys: set = field(default_factory=set)
    gate_cells: int = 0
    gate_open: int = 0
    step_ms: dict = field(default_factory=lambda: defaultdict(list))  # kind -> wall_time_ms
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        stack = self._stack
        spans = self.spans
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]  # [span name, seconds spent in direct children]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                stats = spans[name]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    edges[(stack[-1][0], name)] += elapsed
            if hook is not None:
                hook_started = time.perf_counter()
                hook(args, kwargs, result)
                if stack:  # keep hook time out of the caller's self time
                    stack[-1][1] += time.perf_counter() - hook_started
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "ot_core.ipot_solve": self._on_solve,
            "seq_match.score_pair": self._on_score_pair,
            "gradients.wsil_i_grad": self._on_wsil_i,
            "train.train": self._on_train,
        }
        for name, (home, attr, bound_in) in SPANS.items():
            owner_name, _, method = attr.rpartition(".")
            module = importlib.import_module(home)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            self._patch(owner, method, wrapper)
            for other in bound_in:
                target = importlib.import_module(other)
                if getattr(target, method, None) is original:
                    self._patch(target, method, wrapper)
                else:
                    self.missing.append(f"{other}.{method}")
        if self.missing:
            print(f"perfbench: trace bindings not found: {', '.join(self.missing)}", file=sys.stderr)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks --------------------------------------------------------------

    def _on_solve(self, args, kwargs, plan) -> None:
        cost = np.asarray(args[0], dtype=float)
        config = args[1] if len(args) > 1 else kwargs.get("config", DEFAULT_IPOT)
        n, m = cost.shape
        self.solves.append((n, m, plan.iterations_used, config.outer_iters, plan.converged))
        if n == m:
            key = cost.tobytes()
            entry = self.matrices.get(key)
            if entry is None:
                entry = self.matrices[key] = (cost.copy(), [])
            entry[1].append(plan.cost)

    def _on_score_pair(self, args, kwargs, result) -> None:
        hyp = args[1] if len(args) > 1 else kwargs["hyp"]
        ref = args[2] if len(args) > 2 else kwargs["ref"]
        self.pair_keys.add((tuple(hyp), tuple(ref)))

    def _on_wsil_i(self, args, kwargs, result) -> None:
        trajs, sample, config = args[0], args[1], args[4]
        if config.lambda_sil == 0.0:
            return
        self.gate_cells += len(trajs) * len(sample)
        self.gate_open += sum(entry.reward > traj.reward for traj in trajs for entry in sample)

    def _on_train(self, args, kwargs, result) -> None:
        for record in result.records:
            self.step_ms[record["kind"]].append(record["wall_time_ms"])

    # -- metrics --------------------------------------------------------------

    def _self(self, *names: str) -> float:
        return sum(self.spans[n].self_s for n in names)

    def max_abs_err(self) -> float:
        """Largest |solver cost - exact assignment cost| over the square solves."""
        worst = 0.0
        for cost, returned in self.matrices.values():
            exact = exact_assignment_cost(cost)
            worst = max(worst, max(abs(c - exact) for c in returned))
        return worst

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics as ``{name: (value, unit)}`` plus sample counts."""
        solves = self.solves
        iters = [s[2] for s in solves]
        cell_iters = sum(n * m * it for n, m, it, _, _ in solves)
        ot_self = self._self("ot_core.ipot_solve")
        score = self.spans["seq_match.score_pair"]
        out = {
            "ot_core.solves": (len(solves), "count"),
            "ot_core.self_s": (ot_self, "s"),
            "ot_core.iters_mean": (float(np.mean(iters)) if iters else 0.0, "iter"),
            "ot_core.iters_at_cap_frac": (
                sum(it >= cap for _, _, it, cap, _ in solves) / len(solves) if solves else 0.0, "frac"),
            "ot_core.cell_iters": (cell_iters, "count"),
            "ot_core.us_per_cell_iter": (ot_self / cell_iters * 1e6 if cell_iters else 0.0, "us"),
            "ot_core.nonconverged": (sum(not s[4] for s in solves), "count"),
            "ot_core.max_abs_err": (self.max_abs_err(), "cost"),
            "embeddings.load_s": (self.spans["embeddings.load_embeddings"].total_s, "s"),
            "embeddings.cost_matrix.calls": (
                self.spans["embeddings.build_cost_matrix"].calls, "count"),
            "embeddings.cost_matrix.self_s": (self._self("embeddings.build_cost_matrix"), "s"),
            "seq_match.score_pair.calls": (score.calls, "count"),
            "seq_match.distinct_pair_frac": (
                len(self.pair_keys) / score.calls if score.calls else 0.0, "frac"),
            "seq_match.self_s": (self._self("seq_match.score_pair"), "s"),
            "nested.calls": (self.spans["nested.nested_wasserstein"].calls, "count"),
            "nested.inner_s": (self.edges.get(("nested.nested_wasserstein", "seq_match.score_pair"), 0.0), "s"),
            "nested.outer_s": (self.edges.get(("nested.nested_wasserstein", "ot_core.ipot_solve"), 0.0), "s"),
            "text_metrics.corpus_bleu_s": (self.spans["text_metrics.corpus_bleu"].total_s, "s"),
            "text_metrics.self_bleu_s": (self.spans["text_metrics.self_bleu"].total_s, "s"),
            "policy.sample_s": (self._self("policy.sample_trajectories"), "s"),
            "policy.grad_log_prob.calls": (self.spans["policy.grad_log_prob"].calls, "count"),
            "policy.grad_log_prob_s": (self._self("policy.grad_log_prob"), "s"),
            "gradients.reinforce_s": (self._self("gradients.reinforce_grad"), "s"),
            "gradients.wsil_i_s": (self._self("gradients.wsil_i_grad"), "s"),
            "gradients.sil_gate_open_frac": (
                self.gate_open / self.gate_cells if self.gate_cells else 0.0, "frac"),
            "buffer.update_s": (self._self("buffer.buffer_update"), "s"),
            "buffer.sample_s": (self._self("buffer.sample"), "s"),
            "envs.reward_s": (self._self("envs.reward"), "s"),
            "cli.self_s": (self._self("cli.main"), "s"),
        }
        samples = {}
        for kind in ("rl", "sil"):
            values = self.step_ms.get(kind, [])
            p50, p90 = _p50_p90(values)
            out[f"train.{kind}_step_ms.p50"] = (p50, "ms")
            out[f"train.{kind}_step_ms.p90"] = (p90, "ms")
            samples[f"train.{kind}_step_ms"] = len(values)
        for layer, names in LAYERS.items():
            out[f"layer.{layer}.self_s"] = (self._self(*names), "s")
        out["trace.missing_bindings"] = (len(self.missing), "count")
        samples["ot_core.solves"] = len(solves)
        return out, samples


def _p50_p90(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return (float(values[0]), float(values[0])) if values else (0.0, 0.0)
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]
