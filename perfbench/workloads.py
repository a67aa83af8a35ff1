"""Workload definitions, seeded input generation and output checks.

A workload is a fixed list of chordlab CLI commands.  Inputs that depend
on the workload seed (the `eval` word files and the `--seed` of sampled
suites) are generated here with the standard library only, so a change
to chordlab cannot change the inputs it is measured on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

SCALES = ("full", "tiny")

# `checked` counts of the mutation suite, recorded from the library
# (there is no closed form for the number of shares).
MUTATION_CHECKED = {4: 744, 5: 6354, 6: 70188}

# cells printed by `table1`: seven rows of three invariants
TABLE1_CELLS = 21


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must show.

    ``argv`` follows the `chordlab` program name; ``{name}`` stands for
    the generated input file ``name``.  ``items`` is the planned work:
    `checked` for `verify`, input rows for `eval`, cells for `table1`.
    ``seed_free`` marks output that does not depend on the workload
    seed, so its pinned digest holds for every seed.
    """

    argv: tuple[str, ...]
    items: int
    seed_free: bool

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def kind(self) -> str:
        return self.argv[0]

    def resolve(self, files: dict[str, str]) -> list[str]:
        return [a.format(**files) if a.startswith("{") else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # word files to generate: name -> (order, count)
    inputs: dict
    # (oracle command index, the recurrence command run to cross-check it)
    oracle_check: tuple[int, Command] | None = None

    @property
    def items(self) -> int:
        return sum(c.items for c in self.commands)


def _verify(argv: str, checked: int, seed_free: bool = True) -> Command:
    return Command(tuple(("verify " + argv).split()), checked, seed_free)


def _eval(invariant: str, file: str, rows: int, *extra: str) -> Command:
    argv = ("eval", "--invariant", invariant, *extra, "--file", "{%s}" % file)
    return Command(argv, rows, False)


def _basepointed(n: int) -> int:
    """(2n-1)!!, the number of basepointed diagrams of order n."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def _matchings(m: int):
    word = [-1] * m

    def fill(label):
        if -1 not in word:
            yield tuple(word)
            return
        i = word.index(-1)
        word[i] = label
        for j in range(i + 1, m):
            if word[j] == -1:
                word[j] = label
                yield from fill(label + 1)
                word[j] = -1
        word[i] = -1

    yield from fill(0)


def four_term_checked(n: int) -> int:
    """Quadruples of the exhaustive diagram 4T suite: one per pair of
    cyclically adjacent positions holding ends of distinct chords."""
    m = 2 * n
    return sum(
        sum(w[p] != w[(p + 1) % m] for p in range(m)) for w in _matchings(m)
    )


def graph_checked(n: int) -> int:
    """Labeled graphs times ordered vertex pairs."""
    return (1 << (n * (n - 1) // 2)) * n * (n - 1)


def _sizes(scale: str) -> dict:
    if scale == "full":
        return dict(
            fourterm=(5, 2), mutation=6, graphs=(6, 3), rk8=1500, proj=(7, 80),
            oracle=(6, 12), conjecture=3, sample4t=20000, parity=10000,
        )
    if scale == "tiny":
        return dict(
            fourterm=(4, 2), mutation=4, graphs=(4, 2), rk8=20, proj=(5, 5),
            oracle=(4, 3), conjecture=2, sample4t=200, parity=100,
        )
    raise ValueError(f"unknown scale {scale!r}")


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload `name`; sampled suites take their seeds from `seed`."""
    s = _sizes(scale)
    if name == "diagram-4t-exhaustive":
        n, k = s["fourterm"]
        return Workload(name, (
            _verify(f"four-term-diagrams --n {n} --k {k} --exhaustive",
                    four_term_checked(n)),
            _verify(f"mutation --n {s['mutation']}", MUTATION_CHECKED[s["mutation"]]),
        ), {})
    if name == "graph-tables":
        n, k = s["graphs"]
        return Workload(name, (
            _verify(f"four-term-graphs --n {n} --k {k}", graph_checked(n)),
            _verify(f"two-term --n {n}", graph_checked(n)),
        ), {})
    if name == "sl2-eval":
        pn, pc = s["proj"]
        on, oc = s["oracle"]
        k = s["conjecture"]
        return Workload(name, (
            _eval("rk", "rk8", s["rk8"], "--k", "4"),
            _eval("sl2-projected", "proj", pc),
            _eval("sl2", "oracle", oc),
            _verify(f"conjecture --k {k} --exhaustive", _basepointed(2 * k)),
            Command(("table1",), TABLE1_CELLS, True),
            _verify("wheel-prism", 2),
        ), {"rk8": (8, s["rk8"]), "proj": (pn, pc), "oracle": (on, oc)},
            oracle_check=(2, _eval("sl2-recursive", "oracle", oc)))
    if name == "sampled-order8":
        rng = random.Random(seed)
        s4, sp = rng.randrange(1 << 31), rng.randrange(1 << 31)
        return Workload(name, (
            _verify(f"four-term-diagrams --n 8 --k 4 --sample {s['sample4t']} "
                    f"--seed {s4}", s["sample4t"], seed_free=False),
            _verify(f"parity --n 8 --k 4 --sample {s['parity']} --seed {sp}",
                    s["parity"], seed_free=False),
        ), {})
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("diagram-4t-exhaustive", "graph-tables", "sl2-eval", "sampled-order8")


# ---------------------------------------------------------------------------
# input generation


def random_word(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform random perfect matching of 2n points, labels by first use."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    word = [0] * (2 * n)
    for ch in range(n):
        word[slots[2 * ch]] = word[slots[2 * ch + 1]] = ch
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(ch, len(labels)) for ch in word)


def rotation_class(word: tuple[int, ...]) -> tuple[int, ...]:
    """Least relabeled rotation: equal iff equal up to rotation."""
    m = len(word)
    best = None
    for r in range(m):
        labels: dict[int, int] = {}
        w = tuple(labels.setdefault(ch, len(labels)) for ch in word[r:] + word[:r])
        if best is None or w < best:
            best = w
    return best


def distinct_words(n: int, count: int, rng: random.Random) -> list[str]:
    """`count` random order-n words from pairwise distinct rotation
    classes, so every top-level evaluation is a memo miss."""
    seen = set()
    out = []
    while len(out) < count:
        w = random_word(n, rng)
        key = rotation_class(w)
        if key in seen:
            continue
        seen.add(key)
        out.append("".join(chr(ord("A") + ch) for ch in w))
    return out


def generate(workload: Workload, seed: int, directory: str) -> dict[str, str]:
    """Write the workload's word files for `seed`; return name -> path."""
    rng = random.Random(seed)
    files = {}
    for name, (n, count) in sorted(workload.inputs.items()):
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(distinct_words(n, count, rng)) + "\n")
        files[name] = path
    return files


# ---------------------------------------------------------------------------
# output checks


def check_output(cmd: Command, rc: int, stdout: bytes) -> str | None:
    """None if the output shows the planned work and no violation,
    else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.decode("utf-8", "replace").splitlines()
    if cmd.kind == "verify":
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            return "no JSON summary line"
        if summary.get("violations") != 0:
            return f"violations: {summary.get('violations')}"
        if summary.get("checked") != cmd.items:
            return f"checked {summary.get('checked')}, planned {cmd.items}"
    elif cmd.kind == "eval":
        if len(lines) != cmd.items:
            return f"{len(lines)} rows, planned {cmd.items}"
    elif cmd.kind == "table1":
        cells = sum(ln.startswith("row ") for ln in lines)
        if cells != cmd.items or not lines or lines[-1] != "table1: ok":
            return f"{cells} cells, last line {lines[-1:]!r}"
    return None
