"""The cli workload's inputs: a small source file and one invocation
per verb, each with the exit code and standard output expected of it.

The expected outputs are written out by hand from the definitions: the
cyclic group of order four, subtraction mod 12 (associativity fails at
(0 - 0) - 1 = 11 against 0 - (0 - 1) = 1), the canonical all-interval
witnesses of {0, 1, 4, 6}, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

DEMO_NAME = "bench-demo.mul"

DEMO_SOURCE = """\
; Declarations for the cli workload of the benchmark.

(theory commutative over group
  (axiom commutes (ctx (a G) (b G)) (= G (star a b) (star b a))))

(structure z4 of group
  (carrier G (0 1 2 3))
  (fun star ((0 0) 0) ((0 1) 1) ((0 2) 2) ((0 3) 3)
            ((1 0) 1) ((1 1) 2) ((1 2) 3) ((1 3) 0)
            ((2 0) 2) ((2 1) 3) ((2 2) 0) ((2 3) 1)
            ((3 0) 3) ((3 1) 0) ((3 2) 1) ((3 3) 2))
  (fun e (() 0))
  (fun inv ((0) 0) ((1) 3) ((2) 2) ((3) 1)))

(formula squares-cover (ctx (a G))
  (exists (b G) (= G (star b b) a)))

(formula left-identity (ctx (a G))
  (= G (star e a) a))

(type moved-by-identity
  (sigma (a G) (prop (not (= G (star a e) a)))))

(structure loops of vls
  (carrier Pitch (home))
  (carrier Arrow (up down))
  (fun vlr ((home home) (set up down))))
(quiver two-loops table loops)
"""


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    returncode: int
    stdout: str


CASES = (
    CliCase(("check", DEMO_NAME), 0,
            "theory commutative: ok\n"
            "structure z4: ok\n"
            "formula squares-cover: parsed\n"
            "formula left-identity: parsed\n"
            "type moved-by-identity: parsed\n"
            "structure loops: ok\n"
            "quiver two-loops: parsed\n"),
    CliCase(("model-check", "commutative", "z4", DEMO_NAME), 0,
            "commutes: pass\n"
            "1 axiom(s), 1 pass, 0 fail\n"),
    CliCase(("model-check", "group", "z12-sub"), 1,
            "associativity: FAIL counterexample ((a 0) (b 0) (c 1))\n"
            "identity: FAIL counterexample ((g 1))\n"
            "inverses: FAIL counterexample ((g 1))\n"
            "3 axiom(s), 0 pass, 3 fail\n"),
    CliCase(("eval", "z4", "squares-cover", DEMO_NAME), 1,
            "false counterexample ((a 1))\n"),
    CliCase(("eval", "z4", "left-identity", DEMO_NAME), 0,
            "true\n"),
    CliCase(("prove", "z12music", "(allInterval 0 1 4 6)"), 0,
            "inhabited\n"
            "proof: {ic0 => ((0, 0), star); ic1 => ((0, 1), star); "
            "ic2 => ((4, 6), star); ic3 => ((1, 4), star); "
            "ic4 => ((0, 4), star); ic5 => ((1, 6), star); "
            "ic6 => ((0, 6), star)}\n"),
    CliCase(("prove", "z4", "moved-by-identity", DEMO_NAME), 1,
            "uninhabited: no element of G admits a witness\n"),
    CliCase(("vls", "ti-quiver"), 0,
            "vertices: 12\n"
            "arrows: 288\n"),
    CliCase(("autos", "two-loops", DEMO_NAME), 0,
            "automorphisms: 2\n"
            "1: vertices (home->home) arrows "
            "((pair (pair home home) up)->(pair (pair home home) up) "
            "(pair (pair home home) down)->(pair (pair home home) down))\n"
            "2: vertices (home->home) arrows "
            "((pair (pair home home) up)->(pair (pair home home) down) "
            "(pair (pair home home) down)->(pair (pair home home) up))\n"),
    CliCase(("dot", "two-loops", DEMO_NAME), 0,
            "digraph two_loops {\n"
            "  v0 [label=\"home\"];\n"
            "  v0 -> v0 [label=\"up\"];\n"
            "  v0 -> v0 [label=\"down\"];\n"
            "}\n"),
)
