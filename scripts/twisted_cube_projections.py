#!/usr/bin/env python3
"""Projected twisted-cube measures for the four SL(4) weight pairs.

For I = ({1,2},{3}) with word (1,2,1,3), builds the twisted cube of each
weight pair, prints its exact signed volume and first moments, checks them
against seeded Monte Carlo, and writes a 3-D histogram CSV per pair for
external rendering, through a `cube-histogram` CLI job with 24 bins a side.
Then checks the volume of the G2 flag cube (λ = ρ, word 121212), a
non-simply-laced cube of dimension 6 and volume 1.  Exits 1 if any
Monte Carlo estimate lies 4 standard errors or more from the exact value,
which includes a zero estimate with a zero standard error.

Run:  python scripts/twisted_cube_projections.py [outdir]
"""

import sys

from crystalcubes import cli
from crystalcubes.bundles import pullback_vector
from crystalcubes.rootsys import RootSystem
from crystalcubes.twistedcube import TwistedCube, projection_map

PAIRS = [
    ((2, 4, 0), (0, 0, 2)),
    ((1, 4, 0), (0, 0, 2)),
    ((2, 4, 0), (0, 0, 1)),
    ((2, 3, 0), (0, 0, 2)),
]

SAMPLES = 200_000
SEED = 2026


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "cube_projections"
    rs = RootSystem.preset("A3")
    blocks = [[1, 2], [3]]
    subsets, words = rs.blocks(blocks)
    proj = projection_map(rs, subsets, words)

    misses = 0

    def gate(exact, est, err) -> str:
        nonlocal misses
        if abs(est - float(exact)) < 4 * err:
            return ""
        misses += 1
        return "  <-- outside 4σ!"

    for idx, (c1, c2) in enumerate(PAIRS, start=1):
        lams = [rs.weight(*c1), rs.weight(*c2)]
        a = pullback_vector(rs, subsets, words, lams)
        cube = TwistedCube(rs, words.flat, a)
        vol = cube.signed_volume()
        est, err = cube.mc_volume(SAMPLES, seed=SEED)
        print(f"pair {idx}: λ = {c1}, {c2}  a = {a}")
        print(f"  signed volume {vol} (MC {est:.3f} ± {err:.3f}){gate(vol, est, err)}")
        for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            exact = cube.pushforward_moments(proj, m)
            mc, mc_err = cube.mc_moment(proj, m, SAMPLES, seed=SEED)
            print(f"  moment {m}: {exact} (MC {mc:.2f} ± {mc_err:.2f}){gate(exact, mc, mc_err)}")
        params = {"subsets": blocks, "weights": [list(c1), list(c2)], "bins": 24, "samples": SAMPLES}
        output = {"path": f"projection_{idx}.csv", "format": "csv"}
        _, path = cli.run(cli.JobConfig("A3", "cube-histogram", params, output, seed=SEED), outdir)
        print(f"  histogram -> {path}")
    g2 = RootSystem.preset("G2")
    flag, g2_words = g2.blocks([(1, 2)])
    cube = TwistedCube(g2, g2_words.flat, pullback_vector(g2, flag, g2_words, [g2.weight(1, 1)]))
    vol = cube.signed_volume()
    est, err = cube.mc_volume(SAMPLES, seed=SEED)
    print(f"G2 flag cube: word {cube.word}  a = {cube.a}")
    print(f"  signed volume {vol} (MC {est:.3f} ± {err:.3f}){gate(vol, est, err)}")
    if misses:
        print(f"{misses} Monte Carlo estimates outside 4σ", file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
