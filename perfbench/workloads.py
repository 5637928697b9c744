"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone, sets the program up
(timed by ``run.py``), runs one operation at a time and
checks every output against the plain-Python references in
``references.py``.  Calls into mulingua go through module attributes
(``proofs.inhabit``), so the tracer can wrap them.

- allinterval: every 4096-chord set in a seeded order through
  ``all_interval_type`` + ``inhabit`` on one ``z_music_structure(12)``;
  one op is one chord.
- modelcheck: a seeded ``.mul`` corpus written here, read, loaded and
  kernel-checked at set-up; one op is one ``check_theory`` call.
- quivers: every explicit quiver with at most 3 vertices and 4 arrows
  through ``enumerate_automorphisms``, plus the transposition/inversion
  space with its 24 conjugation automorphisms and the winding spaces;
  one op is one quiver built and processed.
- cli: one subprocess per verb of the command line; one op is one
  invocation.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mulingua.dsl as dsl
import mulingua.kernel as kernel
import mulingua.logic as logic
import mulingua.musiclib as musiclib
import mulingua.proofs as proofs
import mulingua.semantics as semantics
import mulingua.voiceleading as voiceleading

import references
from cli_cases import CASES, DEMO_NAME, DEMO_SOURCE
from references import ModelSpec

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class Workload:
    """One closed-loop client with one op in flight."""

    name = ""
    setup_repeats = 9      # set-ups per run; setup_s is their median
    trace_ops = 100        # ops in each pass of the traced run
    retained_ops = 50      # ops under tracemalloc in the traced run
    in_process = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._rng = random.Random(seed)
        self.items: list = []
        self._sequence: list = []

    @property
    def cycle(self):
        """Ops per complete pass over ``items``; a timed run ends on a
        cycle boundary, so every input is weighted the same."""
        return len(self.items) or None

    @property
    def rss_ops(self) -> int:
        """Ops after which the timed run reads peak RSS: one cycle."""
        return self.cycle

    def make_input(self, i: int):
        """Op i: the items in a fresh seeded order on every cycle."""
        while len(self._sequence) <= i:
            batch = list(self.items)
            self._rng.shuffle(batch)
            self._sequence.extend(batch)
        return self._sequence[i]

    def set_up(self) -> None:
        raise NotImplementedError

    def setup_ok(self) -> bool:
        return True

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def start_trace(self, tracer) -> None:
        tracer.install()

    def stop_trace(self, tracer) -> None:
        tracer.uninstall()

    def environment(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# allinterval
# ---------------------------------------------------------------------------

class AllInterval(Workload):
    name = "allinterval"
    trace_ops = 150
    # Every query leaves an entry in the structure's eval cache, so peak
    # RSS is read after a fixed number of queries; a program twice as
    # slow as the seed still gets there within a 20 s run.
    rss_ops = 2000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # Each pitch class in with probability 1/2 makes every one of the
        # 4096 chords equally likely; drawing them as seeded permutations
        # of all 4096 keeps that distribution, and gives every run the
        # same mix of inhabited and uninhabited chords.
        self.items = [tuple(p for p in range(12) if mask >> p & 1)
                      for mask in range(4096)]

    @property
    def cycle(self):
        # a cycle is most of a run: ending on a boundary would double it
        return None

    def set_up(self) -> None:
        self.st = musiclib.z_music_structure(12)

    def run(self, chord):
        goal = proofs.all_interval_type(
            self.st, [semantics.Atom("PC", p) for p in chord])
        return proofs.inhabit(self.st, goal)

    def check(self, chord, proof) -> bool:
        return references.check_allinterval(chord, proof)


# ---------------------------------------------------------------------------
# modelcheck
# ---------------------------------------------------------------------------

MODEL_SIZES = range(5, 13)
MODEL_KINDS = ("cyclic", "subtraction", "const-gis")

CORPUS_HEADER = """\
(signature bgroup (types G)
  (fun (star (G G) G) (e () G) (inv (G) G)))

(signature bgis (types S IVLS)
  (fun (star (IVLS IVLS) IVLS) (e () IVLS) (inv (IVLS) IVLS)
       (int (S S) IVLS) (u (S IVLS) S)))

(theory bgroup-laws over bgroup
  (axiom associativity (ctx (a G) (b G) (c G))
    (= G (star (star a b) c) (star a (star b c))))
  (axiom identity (ctx (g G))
    (and (= G (star g e) g) (= G (star e g) g)))
  (axiom inverses (ctx (g G))
    (and (= G (star g (inv g)) e) (= G (star (inv g) g) e))))

(theory bgis-laws over bgis
  (axiom ivls-associativity (ctx (a IVLS) (b IVLS) (c IVLS))
    (= IVLS (star (star a b) c) (star a (star b c))))
  (axiom ivls-identity (ctx (g IVLS))
    (and (= IVLS (star g e) g) (= IVLS (star e g) g)))
  (axiom ivls-inverses (ctx (g IVLS))
    (and (= IVLS (star g (inv g)) e) (= IVLS (star (inv g) g) e)))
  (axiom interval-composition (ctx (r S) (s S) (t S))
    (= IVLS (star (int r s) (int s t)) (int r t)))
  (axiom interval-existence (ctx (s S) (i IVLS))
    (= IVLS (int s (u s i)) i))
  (axiom interval-uniqueness (ctx (s S) (t S) (t2 S))
    (implies (= IVLS (int s t) (int s t2)) (= S t t2))))
"""


def _table(name: str, entries: list[str], rng: random.Random) -> str:
    rng.shuffle(entries)
    lines = ["  (fun " + name]
    for k in range(0, len(entries), 8):
        lines.append("    " + " ".join(entries[k:k + 8]))
    return "\n".join(lines) + ")"


def structure_source(spec: ModelSpec, rng: random.Random) -> str:
    """The spec as a ``.mul`` structure, its tables in seeded order."""
    n, g, p = spec.n, spec.group_name, spec.point_name
    decl = [f"(structure {spec.name} of {'bgis' if spec.is_gis else 'bgroup'}"]
    if spec.is_gis:
        decl.append(f"  (carrier S ({' '.join(p(x) for x in spec.points)}))")
    decl.append(f"  (carrier {'IVLS' if spec.is_gis else 'G'} "
                f"({' '.join(g(i) for i in spec.order)}))")
    decl.append(_table("star", [f"(({g(i)} {g(j)}) {g(spec.star(i, j))})"
                                for i in range(n) for j in range(n)], rng))
    decl.append(f"  (fun e (() {g(0)}))")
    decl.append(_table("inv", [f"(({g(i)}) {g(spec.inv(i))})"
                               for i in range(n)], rng))
    if spec.is_gis:
        decl.append(_table("int", [
            f"(({p(x)} {p(y)}) {g(spec.interval(x, y))})"
            for x in range(n) for y in range(n)], rng))
        decl.append(_table("u", [
            f"(({p(x)} {g(i)}) {p(spec.transport(x, i))})"
            for x in range(n) for i in range(n)], rng))
    return "\n".join(decl) + ")\n"


class ModelCheck(Workload):
    name = "modelcheck"
    retained_ops = 24

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        for n in MODEL_SIZES:
            for kind in MODEL_KINDS:
                order, points = list(range(n)), list(range(n))
                rng.shuffle(order)
                rng.shuffle(points)
                self.items.append(ModelSpec(
                    f"{kind}{n}", kind, n, tuple(order),
                    tuple(points) if kind == "const-gis" else ()))
        self.trace_ops = len(self.items)
        self.corpus = workdir / f"modelcheck-{seed}.mul"
        self.corpus.write_text(
            CORPUS_HEADER + "\n" + "\n".join(
                structure_source(spec, rng) for spec in self.items),
            encoding="utf-8")
        self._expected: dict[str, tuple] = {}

    def set_up(self) -> None:
        text = self.corpus.read_text(encoding="utf-8")
        ws = dsl.builtin_workspace()
        dsl.load_source(text, ws)
        # kernel-check every declaration, as the `check` verb does
        self.verdicts = [self._check_declaration(ws, kind, name)
                         for kind, name in ws.declared]
        self.ws = ws

    @staticmethod
    def _check_declaration(ws, kind: str, name: str) -> bool:
        if kind == "signature":
            return bool(kernel.validate_signature(ws.signatures[name]))
        if kind == "theory":
            th = ws.theories[name]
            return all(
                kernel.well_formed_context(th.signature, ax.context)
                and logic.well_formed_formula(th.signature, ax.context,
                                              ax.formula)
                for ax in th.axioms)
        if kind == "structure":
            return bool(ws.structures[name].validate())
        return False

    def setup_ok(self) -> bool:
        # two signatures, two theories, one structure per spec
        return len(self.verdicts) == 4 + len(self.items) and all(self.verdicts)

    def run(self, spec: ModelSpec):
        theory = self.ws.theories["bgis-laws" if spec.is_gis else "bgroup-laws"]
        return semantics.check_theory(
            self.ws.structures[spec.name], theory, spec.name)

    def check(self, spec: ModelSpec, report) -> bool:
        if spec.name not in self._expected:
            self._expected[spec.name] = references.modelcheck_expected(spec)
        return references.check_modelcheck(spec, report,
                                           self._expected[spec.name])


# ---------------------------------------------------------------------------
# quivers
# ---------------------------------------------------------------------------

RING_SIZES = (9, 10, 11, 12)
WINDINGS = (0, 1, 2)


class Quivers(Workload):
    name = "quivers"
    retained_ops = 2000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        for nv in range(4):
            pair_space = [(s, t) for s in range(nv) for t in range(nv)]
            for na in range((4 if nv else 0) + 1):
                for pairs in itertools.product(pair_space, repeat=na):
                    self.items.append(("explicit", nv, pairs))
        # one transposition/inversion space and three winding spaces
        # per ring size, so each cycle holds enough of these heavier ops
        # that no single one decides the tail
        self.items.extend(("ti", n) for n in RING_SIZES)
        self.items.extend(("winding", n, w)
                          for n in RING_SIZES for w in WINDINGS)
        self.trace_ops = len(self.items)
        self._oracles: dict[tuple, frozenset] = {}

    def set_up(self) -> None:
        self.spaces = {}
        for n in RING_SIZES:
            ti = musiclib.ti_group(n)
            self.spaces[n] = (musiclib.pitch_universe(n).carrier,
                              voiceleading.GroupAction(ti.group, ti.action),
                              ti.elements())

    def run(self, item):
        Atom, FinSet = semantics.Atom, semantics.FinSet
        if item[0] == "explicit":
            _, nv, pairs = item
            fibers: dict = {}
            for k, (s, t) in enumerate(pairs):
                fibers.setdefault((Atom("v", s), Atom("v", t)), []).append(
                    Atom("a", k))
            q = voiceleading.vls(
                FinSet(tuple(Atom("v", i) for i in range(nv))),
                voiceleading.ExplicitTable(
                    {key: FinSet(tuple(v)) for key, v in fibers.items()}))
            return voiceleading.enumerate_automorphisms(q, budget=10 ** 7)
        pitch, rule, elements = self.spaces[item[1]]
        if item[0] == "ti":
            q = voiceleading.vls(pitch, rule)
            homs = [voiceleading.conjugation_automorphism(q, g)
                    for g in elements]
            return q, homs, [voiceleading.check_quiver_hom(q, q, h)
                             for h in homs]
        return voiceleading.vls(pitch,
                                voiceleading.WindingPaths(item[1], item[2]))

    def check(self, item, out) -> bool:
        if item[0] == "explicit":
            _, nv, pairs = item
            oracle = self._oracles.get(item[1:])
            if oracle is None:
                oracle = references.automorphism_oracle(nv, pairs)
                self._oracles[item[1:]] = oracle
            return references.check_explicit_quiver(nv, pairs, out, oracle)
        if item[0] == "ti":
            return references.check_ti(item[1], *out)
        return references.check_winding(out, item[1], item[2])


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli(Workload):
    name = "cli"
    in_process = False
    start_up_repeats = 5
    child_timeout_s = 60

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.items = list(CASES)
        self.trace_ops = len(self.items)
        (workdir / DEMO_NAME).write_text(DEMO_SOURCE, encoding="utf-8")
        # Children read and write bytecode under the benchmark's own
        # prefix; set-up fills it, so every op starts with the same warm
        # cache on every commit.
        self.pycache = workdir / "pycache"
        self.cache_existed = any(
            path.parent.name == "mulingua"
            for path in self.pycache.rglob("*.pyc"))
        self.env = dict(os.environ)
        for name in ("MULINGUA_BUDGET", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONPYCACHEPREFIX"] = str(self.pycache)
        self.tracer = None
        self._import_ok = True

    def _child(self, argv):
        return subprocess.run(
            argv, cwd=self.workdir, env=self.env, capture_output=True,
            text=True, timeout=self.child_timeout_s)

    def set_up(self) -> None:
        proc = self._child([sys.executable, "-c", "import mulingua.cli"])
        self._import_ok = self._import_ok and proc.returncode == 0

    def setup_ok(self) -> bool:
        return self._import_ok

    def run(self, case):
        if self.tracer is None:
            proc = self._child([sys.executable, "-m", "mulingua.cli",
                                *case.argv])
            return proc.returncode, proc.stdout
        stats = self.workdir / "trace-child-stats.json"
        stats.unlink(missing_ok=True)  # a child that dies leaves none
        proc = self._child([sys.executable, str(HERE / "tracechild.py"),
                            str(stats), str(self.spans_path), *case.argv])
        self.tracer.merge_stats(json.loads(stats.read_text(encoding="utf-8")))
        return proc.returncode, proc.stdout

    def check(self, case, out) -> bool:
        return references.check_cli(case, *out)

    def peak_rss_mb(self) -> float:
        # the largest child waited for so far
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def start_trace(self, tracer) -> None:
        self.tracer = tracer
        self.spans_path = self.workdir / f"trace-cli-{self.seed}-children.jsonl"
        self.spans_path.write_text("", encoding="utf-8")

    def stop_trace(self, tracer) -> None:
        self.tracer = None

    def start_up_ms(self) -> tuple[float, float]:
        """Median wall time of a bare interpreter start, and the median
        extra time of a start that imports ``mulingua.cli``."""
        bare, imported = [], []
        for _ in range(self.start_up_repeats):
            for argv, times in (([sys.executable, "-c", "pass"], bare),
                                ([sys.executable, "-c", "import mulingua.cli"],
                                 imported)):
                start = time.perf_counter()
                self._child(argv)
                times.append((time.perf_counter() - start) * 1000)
        return (statistics.median(bare),
                statistics.median(imported) - statistics.median(bare))

    def environment(self) -> dict:
        return {"bytecode_cache_existed": self.cache_existed,
                "bytecode_cache_during_ops": "warm"}


WORKLOADS = {w.name: w for w in (AllInterval, ModelCheck, Quivers, Cli)}
