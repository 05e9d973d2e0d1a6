"""The three benchmark workloads: sweep, eliminate and cli.

`build(name, seed)` is the workload's set-up: it imports what the workload
calls, generates its inputs from the seed, parses them and enumerates every
window once.  It returns one pass as a list of `Op`s.  Each op calls a public
qomin function and keeps its output; `Op.check` judges that output after the
timed phase.  RATIONALE.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from qomin import corpus, models, qe, syntax
from qomin.models import Window
from qomin.syntax import (
    And, Exists, Forall, Iff, Implies, Not, Or, Theory, free_vars,
    is_quantifier_free,
)

import generate


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    # None when the output is right, else what is wrong with it
    check: Callable[[Any], str | None]


def _late(module, name: str) -> Callable:
    """Calls module.name looked up at call time, so that a traced pass goes
    through the span recorders that replace it."""
    def call(*args, **kwargs):
        return getattr(module, name)(*args, **kwargs)
    return call


def _entries():
    for theory in corpus.CORPUS:
        for entry in corpus.entries(theory):
            yield theory, entry, syntax.parse(entry.text, theory)


def _depth(f) -> int:
    """Quantifier nesting depth."""
    match f:
        case Exists(_, body) | Forall(_, body):
            return 1 + _depth(body)
        case Not(arg):
            return _depth(arg)
        case And(args) | Or(args):
            return max(map(_depth, args), default=0)
        case Implies(l, r) | Iff(l, r):
            return max(_depth(l), _depth(r))
    return 0


def _sub_boxes(theory: Theory) -> list[Window]:
    """Sub-boxes of the corpus assignment window.  A sub-box keeps the
    oracle exact (its points are assignment-window points) and bounds the
    assignments per formula: 4 integers, 2 rationals, or one first
    coordinate of a pair model."""
    asg, _ = corpus.windows(theory)
    if isinstance(asg.lo, tuple):
        return [Window((a, asg.lo[1]), (a, asg.hi[1]), asg.denom)
                for a in range(asg.lo[0], asg.hi[0] + 1)]
    elems = models.enumerate_window(theory, asg)
    k = 4 if theory in (Theory.PRES_Z, Theory.PRES_N) else 2
    return [Window(elems[i], elems[i + k - 1], asg.denom) for i in range(len(elems) - k + 1)]


def _prepare(theory: Theory) -> tuple[Window, Window, list[Window]]:
    """The corpus windows and the sub-boxes, each enumerated once."""
    asg_w, search_w = corpus.windows(theory)
    boxes = _sub_boxes(theory)
    for w in (search_w, *boxes):
        models.enumerate_window(theory, w)
    return asg_w, search_w, boxes


def _window_text(w: Window) -> str:
    return f"{models.format_element(w.lo)},{models.format_element(w.hi)},{w.denom}"


def _sample(rng: random.Random, population: list, k: int) -> list:
    return population if len(population) <= k else rng.sample(population, k)


def _combos(theory: Theory, names, window: Window) -> list[tuple]:
    elems = models.enumerate_window(theory, window)
    return list(itertools.product(elems, repeat=len(names)))


# ---------------------------------------------------------------------------
# sweep: acceptance C2, one op per curated formula


def _no_mismatch(result) -> str | None:
    total, mismatches = result
    if total < 1:
        return "no assignment checked"
    if mismatches:
        return f"{len(mismatches)}+ oracle mismatches, first {mismatches[0]}"
    return None


def build_sweep(seed: int) -> list[Op]:
    rng = random.Random(f"sweep-{seed}")
    oracle_agreement = _late(qe, "oracle_agreement")
    ops = []
    for theory in corpus.CORPUS:
        _, search_w, boxes = _prepare(theory)
        for row, entry in enumerate(corpus.entries(theory)):
            f = syntax.parse(entry.text, theory)
            # row i checks the (i mod k)-th sub-box, so the corpus covers the
            # whole assignment window; a seeded box would move the four
            # nested formulas, and with them the pass time, from seed to seed
            box = boxes[row % len(boxes)]
            ops.append(Op(f"sweep {theory.value} {entry.text!r} on {_window_text(box)}",
                           partial(oracle_agreement, theory, f, box, search_w),
                           _no_mismatch))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# eliminate: qe on the corpus and the generated family, decide on sentences


def check_qe_output(theory: Theory, f, out, samples: list[dict]) -> str | None:
    """The QE output is quantifier-free and agrees with the window oracle
    (windowed truth of the input) at every sampled assignment."""
    component = isinstance(out, qe.ComponentFormula)
    if not is_quantifier_free(out.formula if component else out):
        return "output has quantifiers"
    search_w = corpus.windows(theory)[1]
    base = Theory.PRES_Z if theory == Theory.PRES_N else theory
    for asg in samples:
        want = models.eval_windowed(theory, f, asg, search_w)
        if component:
            got = qe.eval_component(out, asg)
        else:
            got = models.eval_qf(base, out, asg)
        if got != want:
            return f"output is {got} but the oracle says {want} at {asg}"
    return None


def _check_decision(theory: Theory, f, truth) -> str | None:
    want = models.eval_windowed(theory, f, {}, corpus.windows(theory)[1])
    return None if truth is want else f"decided {truth} but the oracle says {want}"


ORACLE_SAMPLES = 3


def build_eliminate(seed: int) -> list[Op]:
    rng = random.Random(f"eliminate-{seed}")
    inputs = [(theory, entry.text, f) for theory, entry, f in _entries()]
    for name, text in generate.eliminate_family(seed):
        theory = Theory(name)
        inputs.append((theory, text, syntax.parse(text, theory)))
    ops = []
    for theory, text, f in inputs:
        asg_w, search_w = corpus.windows(theory)
        models.enumerate_window(theory, search_w)
        fvs = sorted(free_vars(f))
        samples = [dict(zip(fvs, c)) for c in _sample(rng, _combos(theory, fvs, asg_w), ORACLE_SAMPLES)]
        ops.append(Op(f"qe {theory.value} {text!r}", partial(_late(qe, "qe"), theory, f),
                      partial(check_qe_output, theory, f, samples=samples)))
        if not fvs:
            ops.append(Op(f"decide {theory.value} {text!r}", partial(_late(qe, "decide"), theory, f),
                          partial(_check_decision, theory, f)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: in-process qomin.cli.run over a seeded mix of all ten verbs


SUCCESS_CODES = {"decide": (0, 1)}  # every other verb succeeds with exit code 0


def _cli_call(run, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue()


def check_cli_output(argv: list[str], result) -> str | None:
    code, text = result
    verb = argv[0]
    if code not in SUCCESS_CODES.get(verb, (0,)):
        return f"exit code {code}"
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    if payload.get("schema") != 1:
        return f"schema {payload.get('schema')!r}"
    if verb == "verify" and payload.get("agreement") is not True:
        return "verify reports disagreement"
    if verb == "decide" and payload.get("truth") != (code == 0):
        return "decide truth and exit code disagree"
    return None


def _fmt_asg(names, values) -> str:
    return ",".join(f"{n}={models.format_element(v)}" for n, v in zip(names, values))


def build_cli(seed: int) -> list[Op]:
    from qomin import cli
    rng = random.Random(f"cli-{seed}")
    argvs = []
    for theory in corpus.CORPUS:
        th = ["--theory", theory.value]
        asg_w, search_w, boxes = _prepare(theory)
        for row, entry in enumerate(corpus.entries(theory)):
            if row % 4 >= 2:
                continue  # half the corpus: a pass of about 500 calls, three passes a run
            f = syntax.parse(entry.text, theory)
            fvs = sorted(free_vars(f))
            argvs.append(["parse", *th, entry.text])
            argvs.append(["qe", *th, entry.text])
            if not fvs:
                argvs.append(["decide", *th, entry.text])
            if entry.dist_var is not None:
                params = sorted(set(fvs) - {entry.dist_var})
                abar = rng.choice(_combos(theory, params, asg_w))
                argvs.append(["decompose", *th, entry.text, "--var", entry.dist_var,
                              *(["--at", _fmt_asg(params, abar)] if params else [])])
            if _depth(f) > 1:
                continue  # nested windowed search is the sweep's load, not the CLI's
            if row % 2:
                at = _fmt_asg(fvs, rng.choice(_combos(theory, fvs, asg_w)))
                argvs.append(["eval", *th, entry.text, *(["--at", at] if fvs else []),
                              "--window", _window_text(search_w)])
            else:
                # the sweep's rule: row i verifies on the (i mod k)-th sub-box
                argvs.append(["verify", *th, entry.text,
                              "--asg-window", _window_text(boxes[row % len(boxes)])])
    for _ in range(28):
        m = rng.randint(2, 6)
        argvs.append(["classes", "--theory", "pres_z", f"D{m}(x - y)", "--var", "x",
                      "--params", ";".join(str(a) for a in range(rng.randint(1, m + 1))),
                      "--window", f"-{6 * m},{6 * m}"])
        bounds = sorted(rng.sample(range(-6, 7), 3))
        n = rng.randint(1, 3)
        # some cut must exclude the point: n * e >= the lowest bound
        e = rng.randint(-(-bounds[0] // n), 6)
        argvs.append(["cuts", "--n", str(n),
                      "--bounds", ";".join(f"({b}, 0)" for b in bounds),
                      "--exclude", f"({e}, {rng.choice(('0', '1/2'))})"])
        argvs.append(["density", "--n", str(rng.choice((3, 5, 6, 7, 12))),
                      "--window", "-4,4,256", "--resolution", "1/16"])
    for text in generate.interval_formulas(seed, 25):
        argvs.append(["intervals", "--theory", "doag_q", text])
    for m in range(2, 7):
        models.enumerate_window(Theory.PRES_Z, Window(-6 * m, 6 * m))
    rng.shuffle(argvs)
    return [Op("qomin " + " ".join(argv), partial(_cli_call, _late(cli, "run"), argv),
               partial(check_cli_output, argv)) for argv in argvs]


def layer_probe() -> list[Op]:
    """Small CLI calls that pass through every traced entry point: a windowed
    `verify` per theory, and one call of each other library path.  A traced
    run makes them in its set-up, so every per-layer metric is measured on
    every workload, if only on these calls."""
    from qomin import cli
    argvs = [["verify", "--theory", theory.value, "E u. u = y",
              "--asg-window", _window_text(_sub_boxes(theory)[0])]
             for theory in corpus.CORPUS]
    argvs += [
        ["decide", "--theory", "pres_z", "E u. 2*u = 4"],
        ["eval", "--theory", "pres_z", "x < 1", "--at", "x=0"],
        ["eval", "--theory", "dlo_pred", "E u. u < x", "--at", "x=0", "--window", "-1,1,2"],
        ["decompose", "--theory", "pres_z", "x < y", "--var", "x", "--at", "y=1",
         "--verify", "--window", "-4,4"],
        ["classes", "--theory", "pres_z", "D2(x - y)", "--var", "x", "--params", "0;1",
         "--window", "-8,8"],
        ["intervals", "--theory", "doag_q", "0 < x & x < 1"],
        ["density", "--n", "3", "--window", "-1,1,16", "--resolution", "1/4"],
    ]
    return [Op("probe qomin " + " ".join(argv), partial(_cli_call, _late(cli, "run"), argv),
               partial(check_cli_output, argv)) for argv in argvs]


BUILDERS = {
    "sweep": build_sweep,
    "eliminate": build_eliminate,
    "cli": build_cli,
}

def build(name: str, seed: int) -> list[Op]:
    return BUILDERS[name](seed)
