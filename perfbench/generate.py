"""Seeded input generators for the benchmark workloads.

Every generator returns formula *text* (or plain values), so the same seed
gives a byte-identical list and the program receives only generated inputs.

Grammar limits of the `eliminate` family, fixed before measuring:

- theories pres_z, pres_n and lex_zz;
- quantifier depth at most 2, and one or two free variables from {x, y};
- every quantifier is relativized to an explicit box with strict bounds
  inside the theory's corpus search window, so the window oracle is exact
  on every draw.  A lex_zz box fixes the first coordinate, because a
  lexicographic interval spanning two first coordinates is infinite;
- a bound variable has coefficient 1 or 2, other variables -1, 1 or 2;
  constants lie in [-5, 5]; moduli are 2 or 3; a quantifier block holds at
  most one divisibility literal;
- the mix of theory and shape is fixed per draw (`FAMILY_CELLS`), so the
  seed varies the formulas inside a cell but not the cell counts.

Draws are never discarded for being slow.  Inputs with no finite run time
today, such as the large coprime moduli of `D97 & D89 & D83`, lie outside
the grammar through the modulus limit.
"""

from __future__ import annotations

import random

# (theory, shape, draws per family); a shape is one of
#   exists: E u. box(u) & L [& L]      (lex_zz: one literal)
#   forall: A u. box(u) -> L
#   nested: E u. box(u) & L & (E v. box(v) & L)
# Shapes whose cost swings tenfold from draw to draw are left out, because
# a handful of them would make the pass time and the tail a property of the
# seed: lex_zz universals (seconds per draw), nested lex_zz blocks (six
# draws cost 0.6 s to 2.5 s), two-literal lex_zz blocks and pres_n
# universals (0.07 s to 0.66 s).  The corpus rows still run these paths.
FAMILY_CELLS = (
    ("pres_z", "exists", 300),
    ("pres_z", "forall", 40),
    ("pres_z", "nested", 160),
    ("pres_n", "exists", 164),
    ("pres_n", "nested", 60),
    ("lex_zz", "exists", 60),
)


def _const(theory: str, k: int) -> str:
    """The constant k in the theory's own constant symbols."""
    if theory == "lex_zz":
        return f"{k}*1p"
    return str(k)


def _box(theory: str, rng: random.Random, v: str) -> str:
    # corpus search windows: pres_z [-24, 24], pres_n [0, 30],
    # lex_zz (-4, -4)..(4, 4); every box lies inside them
    if theory == "lex_zz":
        first = rng.randint(-3, 3)
        lo = rng.randint(-4, 0)
        hi = rng.randint(lo + 1, 4)
        return (f"{first}*1pp + {lo - 1}*1p < {v} & "
                f"{v} < {first}*1pp + {hi + 1}*1p")
    base = 0 if theory == "pres_n" else -12
    lo = rng.randint(base, base + 12)
    hi = lo + rng.randint(2, 6)
    return f"{lo - 1} < {v} & {v} < {hi + 1}"


def _lin(rng: random.Random, bound: str, others: list[str]) -> str:
    text = f"{rng.choice((1, 2))}*{bound}"
    if others and rng.random() < 0.8:
        c = rng.choice((-1, 1, 2))
        text += f" {'-' if c < 0 else '+'} {abs(c)}*{rng.choice(others)}"
    return text


def _literal(theory: str, rng: random.Random, bound: str, others: list[str],
             allow_div: bool) -> tuple[str, bool]:
    lhs = _lin(rng, bound, others)
    k = rng.randint(-5, 5)
    roll = rng.random()
    is_div = allow_div and roll < 0.25
    if is_div:
        text = f"D{rng.choice((2, 3))}({lhs} + {_const(theory, k)})"
    elif theory == "lex_zz" and roll < 0.35:
        text = f"del{rng.choice((0, 1))}({lhs})"
    elif roll < 0.55:
        rhs = rng.choice(others) if others else _const(theory, k)
        text = f"{lhs} = {rhs}"
    else:
        rhs = f"{rng.choice(others)} + {_const(theory, k)}" if others else _const(theory, k)
        text = f"{lhs} {rng.choice(('<', '>'))} {rhs}"
    if rng.random() < 0.2:
        text = f"~({text})"
    return text, is_div


def _block(theory: str, rng: random.Random, bound: str, others: list[str],
           n_lits: int) -> str:
    lits = []
    used_div = False
    for _ in range(n_lits):
        lit, is_div = _literal(theory, rng, bound, others, not used_div)
        used_div |= is_div
        lits.append(lit)
    return " & ".join(lits)


def _draw(theory: str, shape: str, rng: random.Random) -> str:
    free = ["x", "y"][: rng.choice((1, 2))]
    if shape == "forall":
        return f"A u. {_box(theory, rng, 'u')} -> {_block(theory, rng, 'u', free, 1)}"
    if shape == "nested":
        outer = _block(theory, rng, "u", free, 1)
        inner = _block(theory, rng, "v", free + ["u"], 1)
        return (f"E u. {_box(theory, rng, 'u')} & {outer} & "
                f"(E v. {_box(theory, rng, 'v')} & {inner})")
    body = _block(theory, rng, "u", free, 1 if theory == "lex_zz" else rng.randint(1, 2))
    return f"E u. {_box(theory, rng, 'u')} & {body}"


def eliminate_family(seed: int) -> list[tuple[str, str]]:
    """(theory name, formula text) pairs of the generated `eliminate` family,
    in a seeded order."""
    rng = random.Random(f"eliminate-{seed}")
    out = [(theory, _draw(theory, shape, rng))
           for theory, shape, count in FAMILY_CELLS for _ in range(count)]
    rng.shuffle(out)
    return out


_C9_FRAGMENTS = ("x < {}", "{} < x", "2*x = {}", "x = {}", "3*x < {}", "2*x < {}")


def interval_formulas(seed: int, count: int) -> list[str]:
    """One-variable doag_q formulas in the style of acceptance C9."""
    rng = random.Random(f"intervals-{seed}")
    out = []
    for _ in range(count):
        parts = [rng.choice(_C9_FRAGMENTS).format(rng.randint(-3, 3)) for _ in range(3)]
        out.append(f"({parts[0]} & {parts[1]}) | ~({parts[2]})")
    return out
