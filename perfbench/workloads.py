"""Seeded inputs, job runners and output checks for the four workloads.

A workload is a fixed list of jobs made from the seed.  One round runs every
job once, in order; the benchmark repeats whole rounds.  A job is either a
JSON config handed to `crystalcubes.cli.run` (the in-process path from config
to written artifact) or one call of a public library function.  Checks compare
each output with `reference.TypeA`, which shares no code with the package.

Workload sizes are drawn from fixed strata: a stratum fixes the rank, the
block structure and the dimension (or a band of the reference element count),
and the seed picks the weights, words and sampling seeds inside it.  So every
seed gives inputs of about the same cost while the inputs themselves change.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from reference import TypeA

_TYPES = {n: TypeA(n) for n in range(1, 5)}


@dataclass
class Job:
    id: str
    kind: str  # "cli" or a library call name
    rank: int
    args: dict
    ref: dict = field(default_factory=dict)  # what the checks need, fixed at generation


# -- seeded choices ------------------------------------------------------------


def _weights_by_dim(n: int, top: int) -> dict:
    t = _TYPES[n]
    out: dict = {}
    for c in product(range(top + 1), repeat=n):
        if any(c):
            out.setdefault(t.weyl_dimension(c), []).append(c)
    return out


_POOLS = {2: _weights_by_dim(2, 5), 3: _weights_by_dim(3, 3), 4: _weights_by_dim(4, 2)}


def _pick_dim(rng: random.Random, n: int, dim: int) -> tuple:
    return rng.choice(_POOLS[n][dim])


def _regular(rng: random.Random, n: int, top: int) -> tuple:
    return tuple(rng.randint(1, top) for _ in range(n))


def _w0_word(rng: random.Random, n: int) -> tuple:
    """A uniformly drawn reduced word of w_0: random descents from ρ down to -ρ."""
    t = _TYPES[n]
    v = t.rho
    word = []
    while any(x > 0 for x in v):
        i = rng.choice([k for k in range(n) if v[k] > 0])
        word.append(i + 1)
        v = t.reflect(v, i)
    return tuple(reversed(word))


def _full(n: int) -> list:
    return list(range(1, n + 1))


def _config(job_id: str, n: int, command: str, params: dict, fmt: str = "json", seed: int = 0) -> dict:
    return {
        "root_system": f"A{n}",
        "command": command,
        "params": params,
        "output": {"path": f"{job_id}.{fmt}", "format": fmt},
        "seed": seed,
    }


def _flag_inputs(rng: random.Random, n: int, blocks: int, top: int, explicit_words: bool):
    lams = [_regular(rng, n, top) for _ in range(blocks)]
    words = [_w0_word(rng, n) for _ in range(blocks)] if explicit_words else None
    return lams, words


# -- decompose ------------------------------------------------------------------

# (rank, dims of the factors): the seed picks weights of exactly these dimensions
DECOMPOSE_TENSOR = [
    (2, (8, 15)), (2, (15, 15)), (2, (24, 8)), (2, (27, 10)), (2, (15, 27)),
    (2, (24, 24)), (2, (27, 27)), (2, (35, 24)), (2, (42, 27)), (2, (64, 24)),
    (3, (15, 20)), (3, (20, 20)), (3, (36, 15)), (3, (45, 20)), (3, (36, 36)), (3, (64, 20)), (3, (45, 45)),
    (4, (24, 24)), (4, (40, 24)), (4, (45, 40)),
    (2, (8, 8, 15)), (2, (6, 8, 10)), (2, (3, 15, 15)),
]
DECOMPOSE_MULTIPLICITY = [(2, (24, 27)), (3, (20, 36)), (4, (24, 24))]
DECOMPOSE_FIBER = [(2, (15, 27)), (3, (20, 20)), (4, (24, 10))]


def _decompose_jobs(rng: random.Random) -> list:
    jobs = []
    for k, (n, dims) in enumerate(DECOMPOSE_TENSOR):
        lams = [_pick_dim(rng, n, d) for d in dims]
        jobs.append(Job(f"tensor{k}", "tensor_decompose", n, {"lams": lams}))
    for k, (n, dims) in enumerate(DECOMPOSE_MULTIPLICITY):
        lams = [_pick_dim(rng, n, d) for d in dims]
        table = _TYPES[n].tensor_multiplicities(lams)
        nu = rng.choice(sorted(table))
        jobs.append(Job(f"mult{k}", "multiplicity", n, {"lams": lams, "nu": nu}, {"expected": table[nu]}))
    for k, (n, dims) in enumerate(DECOMPOSE_FIBER):
        lams = [_pick_dim(rng, n, d) for d in dims]
        words = [_w0_word(rng, n) for _ in lams]
        jobs.append(Job(f"fiber{k}", "fiber", n, {"lams": lams, "words": words, "pick": rng.random()}))
    return jobs


# -- crystal ----------------------------------------------------------------------

CRYSTAL_DIMS = [(2, 27), (2, 64), (3, 64), (3, 140), (4, 175), (4, 6125)]
# six A2 crystals of 210-216 vertices, so that the median job is one of known size
CRYSTAL_BLOCK = [(4, 6), (6, 4), (5, 5)]
# (rank, Demazure word length, dimension of λ)
DEMAZURE_STRATA = [(3, 4, 64), (4, 6, 175), (4, 8, 175)]
# (rank, length, band of the reference element count)
WORD_SHAPE_STRATA = [(2, 6, (150, 300)), (3, 6, (200, 400)), (3, 8, (400, 800))]
# (rank, subsets, dimension of each λ_k); all-[n] blocks are checked against Π dim V(λ_k)
WEIGHT_SHAPE_STRATA = [
    (2, [[1, 2], [1, 2]], (15, 15)),
    (3, [[1, 2, 3], [1, 2, 3]], (20, 20)),
    (3, [[1, 2, 3], [1, 3]], (15, 20)),
    (3, [[1, 2, 3], [2, 3], [1]], (15, 6, 4)),
]
LATTICE_STRATA = [(2, 5, 2, (150, 350)), (3, 5, 3, (300, 700))]


def _random_letters(rng: random.Random, n: int, length: int) -> tuple:
    word = [rng.randint(1, n)]
    while len(word) < length:
        word.append(rng.choice([i for i in range(1, n + 1) if i != word[-1]]))
    return tuple(word)


def _band(band, draw, count):
    """Redraw until the reference count falls in band (deterministic for the seed)."""
    lo, hi = band
    for _ in range(10000):
        candidate = draw()
        c = count(candidate)
        if lo <= c <= hi:
            return candidate, c
    raise RuntimeError(f"no input found in band {band}")


def _crystal_jobs(rng: random.Random) -> list:
    jobs = []
    picks = [(n, _pick_dim(rng, n, dim)) for n, dim in CRYSTAL_DIMS]
    picks += [(2, rng.choice(CRYSTAL_BLOCK)) for _ in range(6)]
    for k, (n, lam) in enumerate(picks):
        jobs.append(Job(f"crystal{k}", "cli", n, {"config": _config(f"crystal{k}", n, "crystal", {"weight": list(lam)})},
                        {"check": "crystal", "lam": lam}))
    for k, (n, length, dim) in enumerate(DEMAZURE_STRATA):
        lam, word = _pick_dim(rng, n, dim), _w0_word(rng, n)[:length]
        params = {"weight": list(lam), "word": list(word)}
        jobs.append(Job(f"demazure{k}", "cli", n, {"config": _config(f"demazure{k}", n, "demazure", params)},
                        {"check": "demazure", "lam": lam, "word": word}))
    for k, (n, length, band) in enumerate(WORD_SHAPE_STRATA):
        t = _TYPES[n]

        def draw():
            return _random_letters(rng, n, length), tuple(rng.randint(0, 2) for _ in range(length))

        (word, a), c = _band(band, draw, lambda x: t.cube_lattice_count(*x))
        params = {"word": list(word), "a": list(a)}
        jobs.append(Job(f"genword{k}", "cli", n, {"config": _config(f"genword{k}", n, "gen-demazure", params)},
                        {"check": "gen-word", "count": c}))
    for k, (n, subsets, dims) in enumerate(WEIGHT_SHAPE_STRATA):
        lams = [_pick_dim(rng, n, d) for d in dims]
        params = {"subsets": subsets, "weights": [list(w) for w in lams]}
        if rng.random() < 0.5:
            params["words"] = [list(_subset_word(rng, n, s)) for s in subsets]
        jobs.append(Job(f"genweights{k}", "cli", n, {"config": _config(f"genweights{k}", n, "gen-demazure", params)},
                        {"check": "gen-weights", "lams": lams}))
    for k, (n, length, level, band) in enumerate(LATTICE_STRATA):
        t = _TYPES[n]

        def draw():
            return _random_letters(rng, n, length), tuple(rng.randint(0, 1) for _ in range(length))

        (word, a), c = _band(band, draw, lambda x: t.cube_lattice_count(x[0], tuple(level * v for v in x[1])))
        params = {"word": list(word), "a": list(a), "level": level}
        jobs.append(Job(f"lattice{k}", "cli", n, {"config": _config(f"lattice{k}", n, "lattice-points", params)},
                        {"check": "lattice", "count": c}))
    rng.shuffle(jobs)
    return jobs


def _subset_word(rng: random.Random, n: int, subset) -> tuple:
    """A drawn reduced word of the longest element of W_I for an interval or a commuting set I."""
    if len(subset) > 1 and subset == list(range(subset[0], subset[-1] + 1)):
        shift = subset[0] - 1
        return tuple(i + shift for i in _w0_word(rng, len(subset)))
    if _commuting(subset):
        return tuple(rng.sample(subset, len(subset)))
    return _longest_word_greedy(n, subset)


def _commuting(subset) -> bool:
    return all(abs(a - b) > 1 for a in subset for b in subset if a != b)


def _longest_word_greedy(n: int, subset) -> tuple:
    """Greedy descent from Σ_{i∈I} ϖ_i, smallest descent first."""
    t = _TYPES[n]
    v = tuple(1 if (k + 1) in subset else 0 for k in range(t.n))
    word = []
    while True:
        i = next((i for i in subset if v[i - 1] > 0), None)
        if i is None:
            return tuple(word)
        word.append(i)
        v = t.reflect(v, i - 1)


# -- cube-exact -------------------------------------------------------------------

# (rank, number of all-[n] blocks, largest weight coordinate)
# twelve (2, 3, 2) volumes of nearly equal cost, so that the median job is one of them
CUBE_VOLUME = [(2, 1, 4), (2, 2, 3), (3, 1, 3), (4, 1, 2), (3, 2, 2)] + [(2, 3, 2)] * 12
CUBE_MOMENTS = [(2, 2, 3, 1), (3, 1, 3, 1), (4, 1, 2, 1), (2, 1, 3, 2), (3, 1, 2, 2), (2, 2, 2, 2)]
# (rank, scale k, band of dim V(k·λ)): signed_lattice_count of the flag cube of k·λ
CUBE_COUNT = [(3, 2, (4000, 7000)), (3, 3, (12000, 17000)), (4, 2, (59049, 59049))]
SL4_GOLDEN = {"subsets": [[1, 2], [3]], "weights": [[2, 4, 0], [0, 0, 2]], "degree": 2}


def _cube_params(n: int, lams, words) -> dict:
    params = {"subsets": [_full(n)] * len(lams), "weights": [list(w) for w in lams]}
    if words is not None:
        params["words"] = [list(w) for w in words]
    return params


def _cube_exact_jobs(rng: random.Random) -> list:
    jobs = []
    for k, (n, blocks, top) in enumerate(CUBE_VOLUME):
        lams, words = _flag_inputs(rng, n, blocks, top, False)
        config = _config(f"vol{k}", n, "cube-volume", _cube_params(n, lams, words))
        jobs.append(Job(f"vol{k}", "cli", n, {"config": config}, {"check": "cube-volume", "lams": lams}))
    for k, (n, blocks, top, degree) in enumerate(CUBE_MOMENTS):
        lams, words = _flag_inputs(rng, n, blocks, top, False)
        params = dict(_cube_params(n, lams, words), degree=degree)
        config = _config(f"mom{k}", n, "cube-moments", params)
        jobs.append(Job(f"mom{k}", "cli", n, {"config": config},
                        {"check": "cube-moments", "lams": lams, "probe": rng.random()}))
    config = _config("golden", 3, "cube-moments", dict(SL4_GOLDEN))
    jobs.append(Job("golden", "cli", 3, {"config": config}, {"check": "golden"}))
    for k, (n, scale, band) in enumerate(CUBE_COUNT):
        t = _TYPES[n]
        lam, _ = _band(band, lambda: _regular(rng, n, 3), lambda x: t.weyl_dimension(tuple(scale * v for v in x)))
        word = _longest_word_greedy(n, _full(n))
        scaled = tuple(scale * x for x in lam)
        jobs.append(Job(f"count{k}", "signed_lattice_count", n, {"word": word, "a": t.flag_a([word], [scaled])},
                        {"expected": t.weyl_dimension(scaled)}))
    rng.shuffle(jobs)
    return jobs


# -- cube-mc ----------------------------------------------------------------------

# (command, output format, rank, samples, shards, bins).  Seeded jobs write the
# histogram total as JSON or the picture as SVG; the bins themselves are checked
# on `mc_histogram` calls, since every CSV export fails (see FIXED_CSV).
CUBE_MC = [
    ("cube-histogram", "json", 2, 1_000_000, 1, 24),
    ("cube-histogram", "json", 3, 2_000_000, 2, 10),
    ("mc_histogram", None, 2, 2_000_000, 4, 30),
    ("mc_histogram", None, 3, 1_000_000, 1, 12),
    ("cube-svg", "svg", 2, 1_000_000, 2, 20),
    ("cube-svg", "svg", 2, 2_000_000, 1, 16),
]
# One CSV export with inputs that do not depend on the seed.  Its bin-center
# columns are written as "np.float64(...)" under NumPy 2, so it fails every time.
FIXED_CSV = {"lams": [(2, 1)], "words": [(1, 2, 1)], "samples": 1_000_000, "shards": 1, "bins": 24, "seed": 2026}


def _cube_mc_jobs(rng: random.Random) -> list:
    jobs = []
    for k, (command, fmt, n, samples, shards, bins) in enumerate(CUBE_MC):
        lams, words = _flag_inputs(rng, n, 1, 4 if n == 2 else 2, True)
        seed = rng.randrange(2**31)
        ref = {"check": command, "lams": lams, "words": words, "samples": samples, "bins": bins,
               "qseed": rng.randrange(2**31)}
        if command == "mc_histogram":
            args = {"lams": lams, "words": words, "samples": samples, "shards": shards, "bins": bins, "seed": seed}
            jobs.append(Job(f"mc{k}", "mc_histogram", n, args, ref))
            continue
        params = dict(_cube_params(n, lams, words), samples=samples, shards=shards, bins=bins)
        config = _config(f"mc{k}", n, command, params, fmt, seed=seed)
        jobs.append(Job(f"mc{k}", "cli", n, {"config": config}, ref))
    rng.shuffle(jobs)
    f = FIXED_CSV
    params = dict(_cube_params(2, f["lams"], f["words"]), samples=f["samples"], shards=f["shards"], bins=f["bins"])
    config = _config("csv", 2, "cube-histogram", params, "csv", seed=f["seed"])
    jobs.append(Job("csv", "cli", 2, {"config": config},
                    {"check": "csv", "lams": f["lams"], "words": f["words"], "samples": f["samples"],
                     "bins": f["bins"], "qseed": 1}))
    return jobs


GENERATORS = {
    "decompose": _decompose_jobs,
    "crystal": _crystal_jobs,
    "cube-exact": _cube_exact_jobs,
    "cube-mc": _cube_mc_jobs,
}


def make_jobs(workload: str, seed: int) -> list:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- running ------------------------------------------------------------------------


class Runner:
    """Runs jobs against the package; the per-rank RootSystems live for one round."""

    def __init__(self, cc, out_dir: str):
        self.cc = cc  # the crystalcubes package with its submodules loaded
        self.out_dir = out_dir
        self.shared: dict = {}

    def new_round(self) -> None:
        self.shared = {}

    def root_system(self, n: int):
        """The decompose workload shares one RootSystem per rank across a round."""
        if n not in self.shared:
            self.shared[n] = self.cc.rootsys.RootSystem.preset(f"A{n}")
        return self.shared[n]

    def run(self, job: Job):
        """Run one job; returns its raw result (the artifact path for CLI jobs)."""
        cc = self.cc
        if job.kind == "cli":
            config = cc.cli.JobConfig.from_dict(job.args["config"])
            _, path = cc.cli.run(config, self.out_dir)
            return path
        if job.kind == "mc_histogram":
            a = job.args
            rs = cc.rootsys.RootSystem.preset(f"A{job.rank}")
            words = cc.rootsys.WordSequence(a["words"])
            subsets = cc.rootsys.SubsetSequence([tuple(range(1, rs.n + 1))] * len(a["words"]))
            cube = cc.twistedcube.TwistedCube(rs, words.flat, _TYPES[job.rank].flag_a(a["words"], a["lams"]))
            proj = cc.twistedcube.projection_map(rs, subsets, words)
            return cc.twistedcube.mc_histogram(cube, proj, a["bins"], a["samples"], a["seed"], a["shards"])
        if job.kind == "signed_lattice_count":
            rs = cc.rootsys.RootSystem.preset(f"A{job.rank}")
            return cc.twistedcube.TwistedCube(rs, job.args["word"], job.args["a"]).signed_lattice_count()
        rs = self.root_system(job.rank)
        lams = [rs.weight(w) for w in job.args["lams"]]
        sp = cc.stringpoly
        if job.kind == "tensor_decompose":
            return sp.tensor_decompose(rs, lams)
        full = [tuple(range(1, rs.n + 1))] * len(lams)
        if job.kind == "multiplicity":
            return sp.multiplicity(rs, full, lams, rs.weight(job.args["nu"]))
        if job.kind == "fiber":
            words = job.args["words"]
            points = sp.hat_lattice_points(rs, full, lams, words)
            x = points[int(job.args["pick"] * len(points))]
            return x, sp.fiber_string_points(rs, full, lams, x, words)
        raise ValueError(f"unknown job kind {job.kind}")

    def canonical(self, job: Job, result) -> bytes:
        """Bytes that must repeat exactly from round to round."""
        if job.kind == "cli":
            with open(result, "rb") as handle:
                return handle.read()
        if job.kind == "tensor_decompose":
            return repr(result.entries).encode()
        if job.kind == "mc_histogram":
            return repr(result.edges).encode() + result.values.tobytes()
        return repr(result).encode()


# -- checks ---------------------------------------------------------------------------


def _weights_of_word(t: TypeA, lams, letters, x):
    total = [sum(c) for c in zip(*lams)]
    for letter, mult in zip(letters, x, strict=True):
        for q in range(t.n):
            total[q] -= mult * t.alpha[letter - 1][q]
    return tuple(total)


def _is_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


class Malformed(str):
    """A check error meaning the operation gave no usable output: it failed, it was not wrong."""


class Checker:
    """Checks one output against the reference; `check` returns the failures found."""

    def __init__(self, cc, root: str):
        self.cc = cc
        self.root = root
        self._golden_values = None

    def check(self, job: Job, result, blob: bytes) -> list:
        t = _TYPES[job.rank]
        kind = job.ref.get("check", job.kind)
        return getattr(self, "_" + kind.replace("-", "_"))(job, t, result, blob)

    # decompose

    def _tensor_decompose(self, job, t, result, blob):
        got = dict(result.as_dict())
        want = dict(t.tensor_multiplicities(job.args["lams"]))
        errors = [] if got == want else [f"table {got} != Klimyk {want}"]
        dims = sum(c * t.weyl_dimension(nu) for nu, c in got.items())
        prod_dim = math.prod(t.weyl_dimension(w) for w in job.args["lams"])
        if dims != prod_dim:
            errors.append(f"Σ c·dim = {dims} != Π dim = {prod_dim}")
        return errors

    def _multiplicity(self, job, t, result, blob):
        want = job.ref["expected"]
        return [] if result == want else [f"multiplicity {result} != Klimyk {want}"]

    def _fiber(self, job, t, result, blob):
        x, fiber = result
        lams = job.args["lams"]
        letters = [i for w in job.args["words"][1:] for i in w]
        nu = _weights_of_word(t, lams, letters, x)
        errors = []
        if any(c < 0 for c in nu):
            return [f"projected point {x} has non-dominant weight {nu}"]
        if t.tensor_multiplicities(lams).get(nu, 0) < 1:
            errors.append(f"weight {nu} of {x} is not in the Klimyk table")
        if len(fiber) != t.weyl_dimension(nu):
            errors.append(f"fiber over {x} has {len(fiber)} points, dim V{nu} = {t.weyl_dimension(nu)}")
        if len(set(fiber)) != len(fiber):
            errors.append("fiber points repeat")
        return errors

    # crystal

    def _crystal(self, job, t, result, blob):
        art = json.loads(blob)
        got = Counter(tuple(v["weight"]) for v in art["vertices"])
        want = t.character(job.ref["lam"])
        errors = [] if got == want else ["vertex weights differ from the Freudenthal multiplicities"]
        if art["vertex_count"] != t.weyl_dimension(job.ref["lam"]):
            errors.append("vertex count differs from the Weyl dimension")
        return errors

    def _demazure(self, job, t, result, blob):
        art = json.loads(blob)
        got = Counter(tuple(v["weight"]) for v in art["vertices"])
        want = t.nested_demazure_character([(job.ref["word"], job.ref["lam"])])
        return [] if got == want else [f"Demazure weights differ ({sum(got.values())} vs {sum(want.values())})"]

    def _omega_distinct(self, vectors) -> list:
        return [] if len({tuple(v) for v in vectors}) == len(vectors) else ["Ω-vectors repeat"]

    def _gen_word(self, job, t, result, blob):
        art = json.loads(blob)
        errors = self._omega_distinct(art["omega_vectors"])
        if art["element_count"] != job.ref["count"] or len(art["omega_vectors"]) != job.ref["count"]:
            errors.append(f"{art['element_count']} elements, cube lattice count {job.ref['count']}")
        return errors

    def _gen_weights(self, job, t, result, blob):
        art = json.loads(blob)
        params = job.args["config"]["params"]
        words = params.get("words") or art["shape"]["words"]
        lams = job.ref["lams"]
        if all(s == _full(t.n) for s in params["subsets"]):
            want = math.prod(t.weyl_dimension(w) for w in lams)
        else:
            want = sum(t.nested_demazure_character(list(zip(words, lams))).values())
        errors = self._omega_distinct(art["omega_vectors"])
        if art["element_count"] != want or len(art["omega_vectors"]) != want:
            errors.append(f"{art['element_count']} elements, reference count {want}")
        return errors

    def _lattice(self, job, t, result, blob):
        art = json.loads(blob)
        errors = self._omega_distinct(art["points"])
        if art["count"] != job.ref["count"]:
            errors.append(f"{art['count']} points, cube lattice count {job.ref['count']}")
        return errors

    # cube-exact

    def _flag_errors(self, art, t, lams, words) -> list:
        if words is None:
            words = [tuple(w) for w in art["words"]]
        errors = [] if all(t.is_reduced_longest(w) for w in words) else ["block word is not reduced for w0"]
        if tuple(art["a"]) != t.flag_a(words, lams):
            errors.append(f"exponent vector {art['a']} != {t.flag_a(words, lams)}")
        return errors

    def _cube_volume(self, job, t, result, blob):
        art = json.loads(blob)
        lams = job.ref["lams"]
        params = job.args["config"]["params"]
        errors = self._flag_errors(art, t, lams, params.get("words"))
        want = math.prod(t.dh_volume(w) for w in lams)
        if Fraction(art["signed_volume"]) != want:
            errors.append(f"volume {art['signed_volume']} != DH {want}")
        return errors

    def _cube_moments(self, job, t, result, blob):
        art = json.loads(blob)
        lams = job.ref["lams"]
        params = job.args["config"]["params"]
        words = params.get("words") or art["words"]
        errors = self._flag_errors(art, t, lams, params.get("words"))
        moments = {tuple(int(c) for c in key.split(",")): Fraction(v) for key, v in art["moments"].items()}
        rows = t.n * len(lams)
        vol = math.prod(t.dh_volume(w) for w in lams)
        if moments[(0,) * rows] != vol:
            errors.append("degree-0 moment differs from the DH volume")
        bary = t.dh_barycenter_sum(lams)
        for i in range(t.n):
            total = sum(moments[tuple(1 if r == k * t.n + i else 0 for r in range(rows))] for k in range(len(lams)))
            if total != -vol * bary[i]:
                errors.append(f"letter {i + 1}: degree-1 moments sum to {total}, want {-vol * bary[i]}")
        if art["degree"] == 2:
            errors += self._homogeneity(job, art, words, moments)
        return errors

    def _homogeneity(self, job, art, words, moments) -> list:
        """moment(k·a) = k^{N+|m|} moment(a) for one seeded degree-2 multi-index, at k = 2."""
        cc = self.cc
        rs = cc.rootsys.RootSystem.preset(f"A{job.rank}")
        subsets = cc.rootsys.SubsetSequence(job.args["config"]["params"]["subsets"])
        proj = cc.twistedcube.projection_map(rs, subsets, cc.rootsys.WordSequence(words))
        cube = cc.twistedcube.TwistedCube(rs, art["word"], [2 * x for x in art["a"]])
        second = sorted(m for m in moments if sum(m) == 2)
        m = second[int(job.ref["probe"] * len(second))]
        got = cube.pushforward_moments(proj, m)
        want = 2 ** (len(art["word"]) + 2) * moments[m]
        return [] if got == want else [f"moment {m} at 2a is {got}, homogeneity wants {want}"]

    def _golden(self, job, t, result, blob):
        art = json.loads(blob)
        derived = self.golden()
        keys = {"signed volume": "0,0,0", "moment (1,0,0)": "1,0,0", "moment (0,1,0)": "0,1,0",
                "moment (0,0,1)": "0,0,1", "moment (2,0,0)": "2,0,0"}
        errors = []
        for label, key in keys.items():
            if label not in derived:
                errors.append(f"derive_cube_golden.py printed no {label!r}")
            elif Fraction(art["moments"][key]) != derived[label]:
                errors.append(f"{label}: {art['moments'][key]} != sympy {derived[label]}")
        return errors

    def golden(self) -> dict:
        """Values printed by a fresh run of scripts/derive_cube_golden.py (sympy)."""
        if self._golden_values is None:
            env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
            proc = subprocess.run(
                [sys.executable, os.path.join(self.root, "scripts", "derive_cube_golden.py")],
                capture_output=True, text=True, timeout=120, env=env, cwd=self.root,
            )
            out = {}
            for line in proc.stdout.splitlines():
                label, _, value = line.partition(":")
                if value.strip():
                    out[label.strip()] = Fraction(value.strip())
            self._golden_values = out
        return self._golden_values

    def _signed_lattice_count(self, job, t, result, blob):
        want = job.ref["expected"]
        return [] if result == want else [f"signed count {result} != dim {want}"]

    # cube-mc

    def _projected_box(self, t, job):
        words, lams = job.ref["words"], job.ref["lams"]
        word = [i for w in words for i in w]
        a = t.flag_a(words, lams)
        box = t.cube_box(word, a)
        rows = []
        offset = 0
        for w in words:
            for u in range(1, t.n + 1):
                cols = [offset + q for q, s in enumerate(w) if s == u]
                rows.append((sum(box[c][0] for c in cols), sum(box[c][1] for c in cols)))
            offset += len(w)
        return word, a, box, rows

    def _total_errors(self, t, job, word, a, box, total) -> list:
        """The total lies within five standard errors of the exact (DH) volume."""
        exact = float(math.prod(t.dh_volume(w) for w in job.ref["lams"]))
        box_vol = float(math.prod(hi - lo for lo, hi in box))
        q = self._support_fraction(t, word, a, box, job.ref["qseed"])
        p = exact / box_vol
        se = box_vol * math.sqrt(max(q - p * p, 0.0) / job.ref["samples"])
        if abs(total - exact) > 5 * se:
            return [f"histogram total {total} is {abs(total - exact) / se:.1f} SE from {exact}"]
        return []

    def _cube_histogram(self, job, t, result, blob):
        word, a, box, _ = self._projected_box(t, job)
        return self._total_errors(t, job, word, a, box, json.loads(blob)["total"])

    def _mc_histogram(self, job, t, result, blob):
        import numpy as np

        word, a, box, rows = self._projected_box(t, job)
        errors = []
        for axis, (lo, hi) in enumerate(rows):
            edges = result.edges[axis]
            if not (math.isclose(edges[0], float(lo), abs_tol=1e-12) and math.isclose(edges[-1], float(hi), abs_tol=1e-12)):
                errors.append(f"axis {axis}: bin edges [{edges[0]}, {edges[-1]}] != reference box [{lo}, {hi}]")
            live = np.nonzero(np.moveaxis(result.values, axis, 0).reshape(len(edges) - 1, -1).any(axis=1))[0]
            if live.size and (edges[live.min()] < float(lo) or edges[live.max() + 1] > float(hi)):
                errors.append(f"axis {axis}: nonzero bins outside the reference box [{lo}, {hi}]")
        return errors + self._total_errors(t, job, word, a, box, float(result.values.sum()))

    def _csv(self, job, t, result, blob):
        lines = blob.decode().splitlines()
        bins = job.ref["bins"]
        rows = [line.split(",") for line in lines[1:]]
        errors = []
        if len(rows) != bins ** t.n:
            errors.append(Malformed(f"{len(rows)} CSV rows, want {bins ** t.n}"))
        unreadable = sum(1 for row in rows if not all(_is_float(v) for v in row))
        if unreadable:
            errors.append(Malformed(f"{unreadable} CSV rows hold fields that are not numbers, e.g. {lines[1]!r}"))
        word, a, box, _ = self._projected_box(t, job)
        total = sum(float(row[-1]) for row in rows)
        return errors + self._total_errors(t, job, word, a, box, total)

    def _support_fraction(self, t, word, a, box, qseed, samples=200_000) -> float:
        """Share of the reference box where the density is nonzero, by the benchmark's own sampling."""
        import numpy as np

        rng = np.random.default_rng(qseed)
        lo = np.array([float(b[0]) for b in box])
        hi = np.array([float(b[1]) for b in box])
        x = rng.uniform(lo, hi, size=(samples, len(word)))
        alive = np.ones(samples, dtype=bool)
        for l, (const, coeffs) in enumerate(t.cube_forms(word, a)):
            bound = np.full(samples, float(const))
            for j, c in coeffs.items():
                bound += c * x[:, j]
            xl = x[:, l]
            alive &= ((bound <= xl) & (xl <= 0)) | ((0 < xl) & (xl < bound))
        return float(alive.mean())

    def _cube_svg(self, job, t, result, blob):
        text = blob.decode()
        bins = job.ref["bins"]
        errors = []
        if not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
            errors.append("artifact is not an SVG document")
        if text.count("<rect ") != bins * bins:
            errors.append(f"{text.count('<rect ')} cells, want {bins * bins}")
        return errors
