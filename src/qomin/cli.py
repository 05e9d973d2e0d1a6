"""qomin command line: every library operation behind one deterministic,
scriptable entry point with JSON or text output.

Exit codes: 0 success (or decided true), 1 decided false, 2 usage error,
3 input error (parse/signature/evaluation), 4 resource cap exceeded.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace

from . import analyzer, corpus, models, normal_form
from .errors import (
    DecompositionError, EvalError, NonSentenceError, ParseError, QominError,
    ResourceCapError, SignatureError, UnsupportedTheoryError,
)
from .models import Window
from .qe import ComponentFormula, decide, oracle_agreement, qe
from .syntax import (
    _RESERVED, _VAR_RE, Formula, Pred, Theory, free_vars, is_quantifier_free, map_atoms,
    parse, print_formula, substitute,
)

SCHEMA = 1


class _UsageError(Exception):
    """A malformed command line: the CLI prints the message and exits 2."""


def _split_top(text: str, sep: str = ",") -> list[str]:
    """Split on sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_window(text: str, theory: Theory) -> Window:
    parts = _split_top(text)
    if len(parts) not in (2, 3):
        raise EvalError(f"window must be 'lo,hi[,denom]', got {text!r}")
    lo = models.parse_element(parts[0], theory)
    hi = models.parse_element(parts[1], theory)
    try:
        denom = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        denom = 0
    if denom < 1:
        raise EvalError(f"window denominator bound {parts[2].strip()!r} is not a positive "
                        f"integer in {text!r}")
    pairs = zip(lo, hi) if isinstance(lo, tuple) else [(lo, hi)]
    if any(a > b for a, b in pairs):
        raise EvalError(f"window lower end exceeds its upper end in {text!r}")
    return Window(lo, hi, denom)


def _parse_at(text: str, theory: Theory) -> dict:
    out = {}
    for item in _split_top(text):
        if "=" not in item:
            raise EvalError(f"bindings look like 'y=(1,0)' or 'y=3', got {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if not _VAR_RE.fullmatch(name) or name in _RESERVED:
            raise EvalError(f"binding {item!r} does not name a variable")
        if name in out:
            raise EvalError(f"variable {name!r} is bound twice in {text!r}")
        out[name] = models.parse_element(value, theory)
    return out


def _read_formula(args) -> tuple[str, Theory]:
    """Formula text and theory from the positional/--formula/--file flags."""
    texts = [t for t in (args.formula_pos, args.formula) if t]
    theory_name = args.theory
    if args.file:
        with open(args.file) as fh:
            lines = fh.read().splitlines()
        body = []
        for line in lines:
            if line.startswith("#theory:"):
                theory_name = line.split(":", 1)[1].strip()
            elif line.strip() and not line.lstrip().startswith("#"):
                body.append(line.strip())
        texts.append(" ".join(body))
    if len(texts) != 1:
        raise _UsageError("provide exactly one formula (positional, --formula, or --file)")
    if not theory_name:
        raise _UsageError("--theory is required (or a '#theory:' header in the file)")
    return texts[0], Theory.from_name(theory_name)


def _expand_delta(f: Formula, theory: Theory) -> Formula:
    def fn(atom):
        if isinstance(atom, Pred) and atom.name == "del":
            body = normal_form.delta(theory, atom.index, var="c0")
            return substitute(body, {"c0": atom.args[0]})
        return atom
    return map_atoms(f, fn)


def _json(v, nl: str) -> str:
    """v as json.dumps(v, indent=2) writes it, nl being the line break and
    indentation of the line v starts on.  json.dumps with an indent runs the
    pure-Python encoder; this writer leaves only the string escapes to the C
    one."""
    if isinstance(v, str):
        return _json_str(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return json.dumps(v)
    inner = nl + "  "
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json(x, inner) for x in v])}{nl}]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [f"{_json_str(k)}: {_json(x, inner)}" for k, x in v.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(_json({"schema": SCHEMA, **payload}, "\n"))
    else:
        for line in text_lines:
            print(line)


def _formula_out(out) -> str:
    if isinstance(out, ComponentFormula):
        return print_formula(out.formula)
    return print_formula(out)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_parse(args) -> int:
    text, theory = _read_formula(args)
    f = parse(text, theory)
    if args.expand_delta:
        f = _expand_delta(f, theory)
    printed = print_formula(f)
    payload = {
        "theory": theory.value,
        "formula": printed,
        "free_vars": sorted(free_vars(f)),
        "quantifier_free": is_quantifier_free(f),
    }
    _emit(args, payload, [printed])
    return 0


def _cmd_qe(args) -> int:
    text, theory = _read_formula(args)
    f = parse(text, theory)
    out = qe(theory, f)
    payload = {
        "theory": theory.value,
        "input": print_formula(f),
        "output": _formula_out(out),
        "quantifier_free": is_quantifier_free(
            out.formula if isinstance(out, ComponentFormula) else out
        ),
    }
    if isinstance(out, ComponentFormula) and args.component_language:
        payload["component"] = {
            "vars": {orig: [z, s] for orig, z, s in out.pairs},
            "formula": print_formula(out.formula),
        }
    _emit(args, payload, [payload["output"]])
    return 0


def _cmd_decide(args) -> int:
    text, theory = _read_formula(args)
    f = parse(text, theory)
    truth = decide(theory, f)
    _emit(args, {"theory": theory.value, "truth": truth}, [str(truth).lower()])
    return 0 if truth else 1


def _cmd_eval(args) -> int:
    text, theory = _read_formula(args)
    f = parse(text, theory)
    asg = _parse_at(args.at, theory) if args.at else {}
    if args.window:
        w = _parse_window(args.window, theory)
        value = models.eval_windowed(theory, f, asg, w)
    elif is_quantifier_free(f):
        value = models.eval_qf(theory, f, asg)
    else:
        raise EvalError("formula contains quantifiers; pass --window to search them over a window")
    _emit(args, {"theory": theory.value, "value": value}, [str(value).lower()])
    return 0


def _cmd_decompose(args) -> int:
    text, theory = _read_formula(args)
    if not args.var:
        raise _UsageError("--var is required for decompose")
    f = parse(text, theory)
    dec = normal_form.decompose(theory, f, args.var)
    payload = {"theory": theory.value, "input": print_formula(f)}
    payload.update(dec.to_json())
    lines = [f"disjuncts: {len(dec.disjuncts)}  witnesses: {len(dec.witnesses)}"]
    if args.at:
        asg = _parse_at(args.at, theory)
        missing = [p for p in dec.params if p not in asg]
        if missing:
            raise EvalError(f"unbound variable(s): {', '.join(missing)}")
        abar = tuple(asg[p] for p in dec.params)
        zvals = normal_form.witnesses(theory, dec, abar)
        payload["witness_values"] = [models.format_element(z) for z in zvals]
        lines.append("witnesses: " + ", ".join(payload["witness_values"]))
        if args.verify:
            if not args.window:
                raise _UsageError("--verify needs --window")
            w = _parse_window(args.window, theory)
            rep = normal_form.verify_decomposition(theory, f, dec, abar, w)
            payload["verification"] = rep.to_json()
            lines.append(f"verification: {'pass' if rep.passed else 'FAIL'} ({rep.total} points)")
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    text, theory = _read_formula(args)
    f = parse(text, theory)
    asg_w, search_w = corpus.windows(theory)
    if args.window:
        search_w = _parse_window(args.window, theory)
    if args.asg_window:
        asg_w = _parse_window(args.asg_window, theory)
    total, mismatches = oracle_agreement(theory, f, asg_w, search_w)
    ok = not mismatches
    payload = {
        "theory": theory.value,
        "formula": print_formula(f),
        "assignments": total,
        "agreement": ok,
        "mismatches": [
            {
                "at": {k: models.format_element(v) for k, v in sorted(asg.items())},
                "windowed": a,
                "eliminated": b,
            }
            for asg, a, b in mismatches
        ],
    }
    _emit(args, payload, [f"{'agree' if ok else 'DISAGREE'} on {total} assignments"])
    return 0 if ok else 1


def _cmd_classes(args) -> int:
    text, theory = _read_formula(args)
    f = parse(text, theory)
    if not args.params:
        raise _UsageError("--params is required (semicolon-separated tuples)")
    params = []
    for chunk in args.params.split(";"):
        vals = tuple(models.parse_element(p, theory) for p in _split_top(chunk))
        params.append(vals)
    w = _parse_window(args.window, theory) if args.window else corpus.windows(theory)[1]
    rep = analyzer.eventual_classes(
        theory, f, params, args.direction, w, var=args.var or "x"
    )
    payload = {"theory": theory.value, "formula": print_formula(f)}
    payload.update(rep.to_json())
    _emit(args, payload, [f"classes: {rep.class_count} (bound {rep.bound})"])
    return 0


def _cmd_cuts(args) -> int:
    theory = Theory.LEX_ZQ
    n = 1 if args.n is None else args.n
    cuts = [
        analyzer.Cut(theory, n, models.parse_element(b, theory))
        for b in _split_top(args.bounds or "", ";")
    ]
    payload: dict = {"n": n, "bounds": [models.format_element(c.a) for c in cuts]}
    lines = []
    if args.exclude:
        e = models.parse_element(args.exclude, theory)
        best = analyzer.maximal_cut_excluding(cuts, e)
        payload["maximal_excluding"] = models.format_element(best.a)
        lines.append(f"maximal cut excluding {models.format_element(e)}: {best.describe()}")
    if args.contains:
        x = models.parse_element(args.contains, theory)
        payload["contains"] = [analyzer.cut_contains(c, x) for c in cuts]
        lines.append(f"membership of {models.format_element(x)}: {payload['contains']}")
    if args.subset:
        bounds = _split_top(args.subset, ";")
        if len(bounds) != 2:
            raise EvalError(f"--subset takes two bounds 'a1;a2', got {args.subset!r}")
        c1, c2 = (analyzer.Cut(theory, n, models.parse_element(b, theory)) for b in bounds)
        payload["subset"] = analyzer.cut_subset(c1, c2)
        lines.append(f"subset: {payload['subset']}")
    if not lines:
        raise _UsageError("cuts needs one of --exclude, --contains, --subset")
    _emit(args, payload, lines)
    return 0


def _cmd_density(args) -> int:
    if args.n is None:
        raise _UsageError("--n is required")
    w = _parse_window(args.window or "-16,16,1024", Theory.DYADIC)
    text = args.resolution or "1/32"
    try:
        res = models.parse_rational(text)
    except ValueError:
        res = 0
    if res <= 0:
        raise EvalError(f"--resolution must be a positive rational such as 1/32, got {text!r}")
    rep = analyzer.density_check(args.n, w, res)
    payload = rep.to_json()
    lines = [payload["case"]]
    if not rep.whole_group:
        lines.append(f"dense: {rep.dense}  codense: {rep.codense}")
    _emit(args, payload, lines)
    return 0


def _cmd_intervals(args) -> int:
    text, theory = _read_formula(args)
    if theory != Theory.DOAG_Q:
        raise UnsupportedTheoryError("interval decomposition runs over doag_q")
    f = parse(text, theory)
    pieces = analyzer.one_var_intervals(f)
    payload = {
        "theory": theory.value,
        "formula": print_formula(f),
        "pieces": [
            {
                "lo": None if p.lo is None else str(p.lo),
                "hi": None if p.hi is None else str(p.hi),
                "lo_closed": p.lo_closed,
                "hi_closed": p.hi_closed,
            }
            for p in pieces
        ],
    }
    _emit(args, payload, [" u ".join(str(p) for p in pieces) if pieces else "(empty)"])
    return 0


_HANDLERS = {
    "parse": _cmd_parse,
    "qe": _cmd_qe,
    "decide": _cmd_decide,
    "eval": _cmd_eval,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "classes": _cmd_classes,
    "cuts": _cmd_cuts,
    "density": _cmd_density,
    "intervals": _cmd_intervals,
}


# every option of every verb, as (flags, keywords); the keywords are dest,
# action (store_true), type, choices, default and help, and the one name
# without dashes is the optional positional formula
_OPTIONS: tuple[tuple[tuple[str, ...], dict], ...] = (
    (("formula_pos",), {"help": "formula text"}),
    (("--formula",), {}),
    (("--file",), {"help": "file with the formula; may carry a '#theory:' header"}),
    (("--theory",), {"help": "one of " + ", ".join(t.value for t in Theory)}),
    (("--format",), {"choices": ("json", "text"), "default": "json"}),
    (("--var",), {"help": "distinguished/scan variable"}),
    (("--window",), {"help": "'lo,hi[,denom]'"}),
    (("--asg-window",), {"dest": "asg_window", "help": "'lo,hi[,denom]' for free variables"}),
    (("--at",), {"help": "element bindings, e.g. 'y=(1,0),z=3'"}),
    (("--verify",), {"action": "store_true"}),
    (("--component-language",), {"dest": "component_language", "action": "store_true"}),
    (("--expand-delta",), {"dest": "expand_delta", "action": "store_true",
                           "help": "replace del_k atoms by their base-language definitions"}),
    (("--params",), {"help": "semicolon-separated parameter tuples"}),
    (("--direction",), {"choices": (analyzer.POS, analyzer.NEG), "default": analyzer.POS}),
    (("--n",), {"type": int, "help": "coefficient/modulus for cuts and density"}),
    (("--bounds",), {"help": "semicolon-separated cut bounds"}),
    (("--exclude",), {"help": "element for maximal-cut-excluding"}),
    (("--contains",), {"help": "element for cut membership"}),
    (("--subset",), {"help": "two cut bounds 'a1;a2'"}),
    (("--resolution",), {"help": "interval length for density scans"}),
)


def _dest(flags: tuple[str, ...], kw: dict) -> str:
    return kw.get("dest", flags[0].lstrip("-").replace("-", "_"))


# each long flag's destination and keywords, and every destination's value
# when its flag is absent
_FLAGS = {flag: (_dest(flags, kw), kw) for flags, kw in _OPTIONS
          for flag in flags if flag.startswith("--")}
_DEFAULTS = {_dest(flags, kw): kw.get("default", False if kw.get("action") == "store_true" else None)
             for flags, kw in _OPTIONS}

_DESCRIPTION = ("decision procedures, quantifier elimination, and witnessed interval "
                "normal forms over a fixed roster of ordered-group theories")
_USAGE = "usage: qomin VERB [FORMULA] [--option VALUE | --flag]..."


def _help_text() -> str:
    rows = []
    for flags, kw in _OPTIONS:
        dest = _dest(flags, kw)
        if not flags[0].startswith("-"):
            name = "FORMULA"
        elif kw.get("action") == "store_true":
            name = ", ".join(flags)
        elif "choices" in kw:
            name = f"{', '.join(flags)} {{{','.join(kw['choices'])}}}"
        else:
            name = f"{', '.join(flags)} {dest.upper()}"
        text = kw.get("help", "")
        if "default" in kw:
            text = f"{text} (default {kw['default']})".lstrip()
        rows.append((name, text))
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([
        _USAGE, "", _DESCRIPTION, "", "verbs: " + ", ".join(_HANDLERS), "",
        "options (every verb takes every option):",
        *(f"  {name:{width}}{text}".rstrip() for name, text in rows),
    ])


def _long_flag(name: str) -> str:
    """The long flag that name spells, in full or as a unique prefix."""
    if name in _FLAGS or name == "--help":
        return name
    found = [flag for flag in (*_FLAGS, "--help") if flag.startswith(name)]
    if len(found) == 1:
        return found[0]
    if found:
        raise _UsageError(f"ambiguous option {name}: could be {', '.join(found)}")
    raise _UsageError(f"unrecognized option {name}")


def _read_args(argv: list[str]) -> tuple[str, SimpleNamespace] | None:
    """The verb and the options of argv, read against `_OPTIONS`, or None
    when argv asks for help.  A value flag takes the next argument whatever
    it looks like (`--window -2,2`), or the text after '=' (`--at=x=1`); a
    long flag may be shortened to any unique prefix.  An argument that is not
    a flag is the formula, as is one that starts with a single '-' and holds
    a space (`-x < 1`), and so is every argument after '--'."""
    if not argv or argv[0] not in _HANDLERS:
        if argv and (argv[0] == "-h" or argv[0].startswith("--") and _long_flag(argv[0]) == "--help"):
            return None
        raise _UsageError(f"the first argument must be a verb: {', '.join(_HANDLERS)}")
    values = dict(_DEFAULTS)
    formula_only = False
    i, n = 1, len(argv)
    while i < n:
        arg = argv[i]
        i += 1
        if formula_only or not arg.startswith("-") or arg == "-" or arg[1] != "-" and " " in arg:
            if values["formula_pos"] is not None:
                raise _UsageError(f"unexpected argument {arg!r}: give one formula")
            values["formula_pos"] = arg
            continue
        if arg == "--":
            formula_only = True
            continue
        if arg == "-h":
            return None
        if not arg.startswith("--"):
            raise _UsageError(f"unrecognized option {arg}")
        name, eq, value = arg.partition("=")
        flag = _long_flag(name)
        if flag == "--help":
            return None
        dest, kw = _FLAGS[flag]
        if kw.get("action") == "store_true":
            if eq:
                raise _UsageError(f"{flag} takes no value")
            values[dest] = True
            continue
        if not eq:
            if i == n:
                raise _UsageError(f"{flag} expects a value")
            value = argv[i]
            i += 1
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                raise _UsageError(f"{flag}: invalid value {value!r}") from None
        if "choices" in kw and value not in kw["choices"]:
            raise _UsageError(f"{flag}: {value!r} is not one of {', '.join(kw['choices'])}")
        values[dest] = value
    return argv[0], SimpleNamespace(**values)


def run(argv: list[str]) -> int:
    try:
        read = _read_args(argv)
        if read is None:
            print(_help_text())
            return 0
        verb, args = read
        return _HANDLERS[verb](args)
    except _UsageError as exc:
        print(f"{_USAGE}\nqomin: error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"qomin: resource cap: {exc}", file=sys.stderr)
        return 4
    except (ParseError, SignatureError, EvalError, NonSentenceError,
            UnsupportedTheoryError, DecompositionError, QominError) as exc:
        print(f"qomin: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"qomin: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
