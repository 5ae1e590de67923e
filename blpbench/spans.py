"""In-memory span tracing for the traced pass.

A Tracer wraps public blp functions at the names their callers resolve
(module attributes and class methods) and records one span per call:
(id, name, start, end, parent id, request id).  Spans stay in memory until
the benchmark writes them out.  The per-body evaluators (contrajoin_eval,
pseudo_eval) are left unwrapped: they run millions of times and are
measured through the step that calls them.

Besides spans the Tracer keeps a few counters read from arguments and return
values at the same boundaries (iteration counts, models found, bytes
parsed, body nodes evaluated).
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter


def body_nodes(gp) -> int:
    """Formula nodes in all merged rule bodies of a ground program."""
    count = 0
    for body in gp.rules.values():
        todo = [body]
        while todo:
            node = todo.pop()
            count += 1
            if hasattr(node, "left"):
                todo += (node.left, node.right)
    return count


FIX_FROM = "blp.engine._fix_from"


def _traced_targets():
    """(owner, attribute, span name, layer) for every wrapped callable."""
    import blp.cli
    import blp.engine
    import blp.oracles
    from blp.grounder import GroundProgram
    from blp.valuation import Valuation

    targets = [
        (blp.cli, "parse_program", "blp.cli.parse_program", "syntax"),
        (blp.cli, "ground", "blp.cli.ground", "grounder"),
        (GroundProgram, "render", "blp.grounder.GroundProgram.render", "grounder"),
        (blp.engine, "semantics", "blp.engine.semantics", "engine"),
        (blp.engine, "compare_semantics", "blp.engine.compare_semantics", "engine"),
        (blp.engine, "consensus_semantics", "blp.engine.consensus_semantics", "engine"),
        (blp.engine, "is_alpha_fixed_model", "blp.engine.is_alpha_fixed_model", "engine"),
        (blp.engine, "_fix_from", FIX_FROM, "engine"),
        (blp.engine, "_oscillation_pair", "blp.engine._oscillation_pair", "engine"),
        (blp.engine, "immediate_consequence", "blp.engine.immediate_consequence", "engine"),
        (blp.oracles, "enumerate_stable_models", "blp.oracles.enumerate_stable_models",
         "oracles"),
        (blp.oracles, "gl_transform", "blp.oracles.gl_transform", "oracles"),
        (blp.oracles, "well_founded", "blp.oracles.well_founded", "oracles"),
        (blp.oracles, "kripke_kleene", "blp.oracles.kripke_kleene", "oracles"),
    ]
    for method in ("meet_t", "join_t", "meet_k", "join_k", "leq_t", "leq_k"):
        targets.append((Valuation, method, f"blp.valuation.Valuation.{method}", "valuation"))
    for method in ("to_lines", "to_json_dict"):
        targets.append((Valuation, method, f"blp.valuation.Valuation.{method}", "valuation"))
    return targets


ROOT_NAME = "blp.cli.main"
LAYERS = ("cli", "syntax", "grounder", "valuation", "engine", "oracles")


class Tracer:
    """Records spans while installed; restores the originals on uninstall."""

    def __init__(self) -> None:
        self.spans = []  # (id, name, start, end, parent, request)
        self.layer_of = {ROOT_NAME: "cli"}
        self.counts = Counter()
        self._stack = []
        self._next_id = 0
        self._request = None
        self._saved = []
        self._nodes = {}  # id(gp) -> (gp, body nodes), cleared per request

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, layer in _traced_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            self.layer_of[name] = layer
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        observe = getattr(self, "_on_" + name.rsplit(".", 1)[1].lstrip("_"), None)
        stack = self._stack
        spans = self.spans
        # _fix_from computes fixU or fixI depending on its start value
        by_start = name == FIX_FROM
        if by_start:
            self.layer_of.update({f"{name}[U]": "engine", f"{name}[I]": "engine"})

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = name if not by_start else f"{name}[{args[2]}]"
                spans.append((sid, label, start, end, parent, self._request))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- requests ---------------------------------------------------------

    def call(self, request_id, fn, *args):
        """Run fn(*args) as the root span of one request."""
        self._request = request_id
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, ROOT_NAME, start, end, None, request_id))
            self._request = None
            self._nodes.clear()

    # -- counters read at span boundaries --------------------------------

    def _on_parse_program(self, args, result):
        self.counts["syntax.bytes"] += len(args[0].encode("utf-8"))

    def _on_ground(self, args, gp):
        self._nodes[id(gp)] = (gp, body_nodes(gp))

    def _on_immediate_consequence(self, args, result):
        gp = args[0]
        entry = self._nodes.get(id(gp))
        if entry is None or entry[0] is not gp:
            entry = self._nodes[id(gp)] = (gp, body_nodes(gp))
        self.counts["engine.node_evals"] += entry[1]

    def _on_fix_from(self, args, result):
        _, outer, inner = result
        self.counts["engine.outer_iters"] += outer
        self.counts["engine.inner_iters"] += inner

    def _on_oscillation_pair(self, args, result):
        for outer, inner in result[2:]:
            self.counts["engine.outer_iters"] += outer
            self.counts["engine.inner_iters"] += inner

    def _on_enumerate_stable_models(self, args, result):
        self.counts["oracles.stable_models"] += len(result)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid] for sid, _, start, end, _, _ in self.spans}

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, in the order they ended."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, name, start, end, parent, request in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
