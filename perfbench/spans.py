"""Span recording around qomin's public entry points, from outside.

For a traced pass, `Tracer.install` replaces each layer's entry points with
span recorders: the attribute on the defining module and every name other
qomin modules imported it under (`qomin.cli.qe`, `qomin.analyzer.qe`, ...).
The closures `models.compile_eval` returns are wrapped too, so each
top-level evaluation is one span.  Spans stay in memory; `uninstall`
restores the originals.  No file of the program changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function) -> span name; a callable name takes the call's arguments
ENTRY_POINTS = {
    ("syntax", "parse"): "syntax.parse",
    ("qe", "qe"): lambda theory, *a, **k: f"qe.{theory.value}",
    ("qe", "decide"): "qe.decide",
    ("qe", "oracle_agreement"): "qe.oracle_agreement",
    ("qe", "eval_component"): "qe.eval_component",
    ("models", "enumerate_window"): "models.enumerate_window",
    ("models", "compile_eval"): "models.compile_eval",
    ("models", "eval_qf"): "models.eval_qf",
    ("models", "eval_windowed"): "models.eval_windowed",
    ("normal_form", "decompose"): "normal_form.decompose",
    ("normal_form", "verify_decomposition"): "normal_form.verify_decomposition",
    ("analyzer", "eventual_classes"): "analyzer.eventual_classes",
    ("analyzer", "one_var_intervals"): "analyzer.one_var_intervals",
    ("analyzer", "density_check"): "analyzer.density_check",
    ("cli", "run"): "cli.run",
}

THEORIES = ("pres_z", "pres_n", "dlo_pred", "doag_q", "lex_zq", "lex_zz", "tchain")

# span name -> the per-layer metric its self time adds to
SELF_TIME_METRIC = {
    "syntax.parse": "syntax.parse_s",
    "qe.decide": "qe.decide_s",
    "qe.oracle_agreement": "qe.oracle_s",
    "qe.eval_component": "models.qf_eval_s",
    "models.enumerate_window": "models.enumerate_s",
    "models.compile_eval": "models.compile_s",
    "models.qf_eval": "models.qf_eval_s",
    "models.eval_qf": "models.qf_eval_s",
    "models.eval_windowed": "models.windowed_s",
    "normal_form.decompose": "normal_form.decompose_s",
    "normal_form.verify_decomposition": "normal_form.verify_s",
    "analyzer.eventual_classes": "analyzer.eventual_classes_s",
    "analyzer.one_var_intervals": "analyzer.intervals_s",
    "analyzer.density_check": "analyzer.density_s",
    "cli.run": "cli.self_s",
    **{f"qe.{t}": f"qe.{t}_s" for t in THEORIES},
    **{f"models.search.{t}": f"models.search.{t}_s" for t in THEORIES},
}

TIME_METRICS = sorted(set(SELF_TIME_METRIC.values()) | {"models.search_s"})

# entry points whose outputs the count metrics read after the pass
KEEP_OUTPUTS = ("qe", "decompose", "verify_decomposition")

# span fields
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op]
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []
        self.outputs: dict[str, list] = defaultdict(list)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, op_id, fn):
        """Runs fn as one op: a root span named bench.op."""
        self._op = op_id
        idx = self._open("bench.op")
        try:
            return fn()
        finally:
            self._close(idx)
            self._op = None

    def _wrap(self, fn, name):
        tracer = self

        def recorder(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if fn.__name__ in KEEP_OUTPUTS:
                tracer.outputs[fn.__name__].append(out)
            return out

        return recorder

    def _wrap_compile(self, fn):
        tracer = self

        def compile_recorder(theory, f, window=None, *args, **kwargs):
            idx = tracer._open("models.compile_eval")
            try:
                closure = fn(theory, f, window, *args, **kwargs)
            finally:
                tracer._close(idx)
            name = "models.qf_eval" if window is None else f"models.search.{theory.value}"

            def evaluation(asg):
                j = tracer._open(name)
                try:
                    return closure(asg)
                finally:
                    tracer._close(j)

            return evaluation

        return compile_recorder

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        # import every layer first: a module imported while the recorders are
        # in place would bind them under its own names and keep them
        homes = {}
        for mod_name, _ in ENTRY_POINTS:
            try:
                homes[mod_name] = importlib.import_module(f"qomin.{mod_name}")
            except ImportError:
                pass  # a layer this version of the program lacks
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "qomin" or n.startswith("qomin.")]
        for (mod_name, attr), name in ENTRY_POINTS.items():
            orig = getattr(homes.get(mod_name), attr, None)
            if orig is None:
                continue  # an entry point this version of the program lacks
            if attr == "compile_eval":
                recorder = self._wrap_compile(orig)
            else:
                recorder = self._wrap(orig, name)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._saved.append((module, key, orig))
                        setattr(module, key, recorder)

    def uninstall(self) -> None:
        for module, key, orig in reversed(self._saved):
            setattr(module, key, orig)
        self._saved.clear()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover
    (the union of the child intervals, clipped to the span)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s[END] - s[START] - covered)
    return out


def check_op_sums(spans: list[list], selfs: list[int]) -> list:
    """Ops whose span self times do not sum to the op's traced wall time."""
    wall: dict = {}
    total: dict = defaultdict(int)
    for s, own in zip(spans, selfs):
        if s[PARENT] is None:
            wall[s[OP]] = s[END] - s[START]
        total[s[OP]] += own
    return [op for op in wall if total[op] != wall[op]]


def layer_metrics(spans: list[list], selfs: list[int]) -> dict[str, float]:
    """Self seconds per per-layer metric."""
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for s, own in zip(spans, selfs):
        metric = SELF_TIME_METRIC.get(s[NAME])
        if metric is None:
            continue
        out[metric] += own / 1e9
        if s[NAME].startswith("models.search."):
            out["models.search_s"] += own / 1e9
    return out


def count_metrics(spans: list[list], outputs: dict[str, list]) -> dict[str, int]:
    """Work counts, taken from the recorded outputs after the pass."""
    from qomin.qe import ComponentFormula
    from qomin.syntax import atoms
    sizes = [sum(1 for _ in atoms(o.formula if isinstance(o, ComponentFormula) else o))
             for o in outputs.get("qe", ())]
    decs = outputs.get("decompose", ())
    return {
        "qe.calls": len(sizes),
        "qe.out_atoms": sum(sizes),
        "qe.out_atoms_max": max(sizes, default=0),
        "models.assignments": sum(1 for s in spans if s[NAME] == "models.qf_eval"
                                  or s[NAME].startswith("models.search.")),
        "normal_form.disjuncts": sum(len(d.disjuncts) for d in decs),
        "normal_form.witnesses": sum(len(d.witnesses) for d in decs),
        "normal_form.points": sum(r.total for r in outputs.get("verify_decomposition", ())),
    }


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
        for i, s in enumerate(spans):
            parent = "" if s[PARENT] is None else s[PARENT]
            fh.write(f"{i}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{parent}\t{s[OP]}\n")
