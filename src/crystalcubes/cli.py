"""Batch front-end: one JSON job per invocation, artifacts written atomically.

Exit codes: 0 success, 2 malformed config or computation error, 3 unsupported
input (e.g. a Levi block not of type A), 4 element budget exceeded, 5 an
internal consistency check failed (a defect of the program, not of the input).
Errors go to stderr as a one-line JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

from . import bundles, stringpoly, twistedcube
from .crystal import DEFAULT_BUDGET, generate_crystal
from .demazure import demazure_crystal, gen_demazure_crystal, gen_demazure_crystal_weights, graph_from_elements
from .rootsys import (
    BudgetExceededError,
    InvariantError,
    RootSystem,
    SubsetSequence,
    UnsupportedInputError,
    WordSequence,
)

COMMANDS = (
    "crystal",
    "demazure",
    "gen-demazure",
    "lattice-points",
    "multiplicity",
    "tensor-decompose",
    "component-count",
    "fiber",
    "bundle-vectors",
    "cube-volume",
    "cube-moments",
    "cube-histogram",
    "cube-svg",
)

TOP_KEYS = {"root_system", "command", "params", "output", "seed", "budget"}
LIST_PARAMS = {"word", "a", "subsets", "weights", "words", "weight", "nu", "x"}


class ConfigError(ValueError):
    pass


@dataclass
class JobConfig:
    root_system: object
    command: str
    params: dict
    output: dict = field(default_factory=dict)
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    @classmethod
    def from_dict(cls, raw: dict) -> "JobConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("root_system", "command"):
            if key not in raw:
                raise ConfigError(f"missing config key {key!r}")
        command = raw["command"]
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; one of {COMMANDS}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        output = raw.get("output", {})
        if not isinstance(output, dict) or set(output) - {"path", "format"}:
            raise ConfigError("output must be an object with keys path/format")
        return cls(
            root_system=raw["root_system"],
            command=command,
            params=params,
            output=output,
            seed=int(raw.get("seed", 0)),
            budget=int(raw.get("budget", DEFAULT_BUDGET)),
        )


def _root_system(spec) -> RootSystem:
    if isinstance(spec, str):
        try:
            return RootSystem.preset(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(spec, list):
        return RootSystem(spec)
    raise ConfigError("root_system must be a preset name or a Cartan matrix grid")


def _take(params: dict, allowed: dict) -> dict:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown params: {sorted(unknown)}")
    out = {}
    for key, required in allowed.items():
        if key in params:
            if key in LIST_PARAMS and not isinstance(params[key], list):
                raise ConfigError(f"param {key!r} must be a list")
            out[key] = params[key]
        elif required:
            raise ConfigError(f"missing param {key!r}")
    return out


def _subs_words(rs: RootSystem, p: dict):
    subsets = SubsetSequence(p["subsets"]).validate(rs)
    if "words" in p:
        words = WordSequence(p["words"]).validate(rs, subsets)
        auto = False
    else:
        words = WordSequence.for_subsets(rs, subsets)
        auto = True
    return subsets, words, auto


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _cube_setup(rs: RootSystem, p: dict, extra=()):
    """Cube plus projection from either (word, a) or (subsets, weights); extra names command params."""
    p = _take(p, dict.fromkeys(("word", "a", "subsets", "weights", "words", *extra), False))
    for key in ("word", "a") if "word" in p else ("subsets", "weights"):
        if key not in p:
            raise ConfigError(f"missing param {key!r}")
    words_used = None
    if "word" in p:
        word = tuple(p["word"])
        a = tuple(p["a"])
        if "subsets" in p:
            subsets = SubsetSequence(p["subsets"]).validate(rs)
            words = WordSequence.for_subsets(rs, subsets)
            if words.flat != word:
                raise ConfigError("word does not match the longest words of the subsets")
            proj = twistedcube.projection_map(rs, subsets, words)
        else:
            proj = twistedcube.identity_projection(len(word))
    else:
        subsets, words, auto = _subs_words(rs, p)
        lams = [rs.weight(w) for w in p["weights"]]
        word = words.flat
        a = bundles.pullback_vector(rs, subsets, words, lams).flat
        proj = twistedcube.projection_map(rs, subsets, words)
        if auto:
            words_used = [list(b) for b in words.blocks]
    return twistedcube.TwistedCube(rs, word, a), proj, words_used


def run(config: JobConfig, out_dir: str = ".", echo_word: bool = False, fmt_override: str | None = None):
    if config.budget < 1:
        raise ConfigError("budget must be at least 1")
    rs = _root_system(config.root_system)
    p = config.params
    budget = config.budget
    command = config.command
    artifact: dict | None = None
    text: str | None = None
    default_fmt = "json"
    summary = ""
    words_used = None

    if command == "crystal":
        q = _take(p, {"weight": True})
        graph = generate_crystal(rs, rs.weight(q["weight"]), budget)
        artifact = graph.to_json_dict()
        text = graph.to_edge_lines()
        summary = f"crystal with {graph.vertex_count} vertices, {len(graph.edges)} edges"

    elif command == "demazure":
        q = _take(p, {"weight": True, "word": True})
        elements = demazure_crystal(rs, rs.weight(q["weight"]), tuple(q["word"]), budget)
        graph = graph_from_elements(rs, elements)
        artifact = graph.to_json_dict()
        text = graph.to_edge_lines()
        summary = f"Demazure crystal with {len(elements)} elements"

    elif command == "gen-demazure":
        if "word" in p:
            q = _take(p, {"word": True, "a": True})
            crystal = gen_demazure_crystal(rs, tuple(q["word"]), tuple(q["a"]), budget)
        else:
            q = _take(p, {"subsets": True, "weights": True, "words": False})
            subsets, words, auto = _subs_words(rs, q)
            crystal = gen_demazure_crystal_weights(rs, subsets, [rs.weight(w) for w in q["weights"]], words, budget)
            if auto:
                words_used = [list(b) for b in words.blocks]
        artifact = crystal.to_json_dict()
        summary = f"generalized Demazure crystal with {crystal.element_count} elements"

    elif command == "lattice-points":
        q = _take(p, {"word": True, "a": True, "level": False})
        pts = stringpoly.lattice_points(rs, tuple(q["word"]), tuple(q["a"]), int(q.get("level", 1)), budget)
        artifact = {
            "word": list(q["word"]),
            "a": list(q["a"]),
            "level": pts.level,
            "count": len(pts),
            "points": [list(x) for x in pts.points],
        }
        text = "\n".join(pts.to_csv_lines()) + "\n"
        default_fmt = "csv"
        summary = f"{len(pts)} lattice points"

    elif command == "multiplicity":
        q = _take(p, {"subsets": True, "weights": True, "nu": True, "words": False})
        subsets, words, auto = _subs_words(rs, q)
        value = stringpoly.multiplicity(rs, subsets, [rs.weight(w) for w in q["weights"]], rs.weight(q["nu"]), words, budget)
        if auto:
            words_used = [list(b) for b in words.blocks]
        artifact = {"nu": list(q["nu"]), "multiplicity": value}
        summary = str(value)

    elif command == "tensor-decompose":
        q = _take(p, {"weights": True})
        table = stringpoly.tensor_decompose(rs, [rs.weight(w) for w in q["weights"]], budget)
        words_used = [list(rs.longest_word(tuple(range(1, rs.n + 1))))] * len(q["weights"])
        artifact = {"multiplicities": table.to_json_dict()}
        summary = f"{table.total()} components over {len(table.entries)} highest weights"

    elif command == "component-count":
        q = _take(p, {"subsets": True, "weights": True, "words": False})
        subsets, words, auto = _subs_words(rs, q)
        value = stringpoly.component_count(rs, subsets, [rs.weight(w) for w in q["weights"]], words, budget)
        if auto:
            words_used = [list(b) for b in words.blocks]
        artifact = {"component_count": value}
        summary = str(value)

    elif command == "fiber":
        q = _take(p, {"subsets": True, "weights": True, "x": True, "words": False})
        subsets, words, auto = _subs_words(rs, q)
        fiber = stringpoly.fiber_string_points(rs, subsets, [rs.weight(w) for w in q["weights"]], tuple(q["x"]), words, budget)
        if auto:
            words_used = [list(b) for b in words.blocks]
        artifact = {"x": list(q["x"]), "count": len(fiber), "points": [list(t) for t in fiber]}
        summary = f"{len(fiber)} fiber points"

    elif command == "bundle-vectors":
        q = _take(p, {"subsets": True, "weights": True, "words": False})
        subsets, words, auto = _subs_words(rs, q)
        artifact = bundles.bundle_report(rs, subsets, [rs.weight(w) for w in q["weights"]], words)
        if auto:
            words_used = artifact["words"]
        summary = "bundle vectors computed"

    elif command == "cube-volume":
        cube, _, words_used = _cube_setup(rs, p)
        vol = cube.signed_volume()
        artifact = {"word": list(cube.word), "a": list(cube.a), "signed_volume": _frac_str(vol)}
        summary = _frac_str(vol)

    elif command == "cube-moments":
        cube, proj, words_used = _cube_setup(rs, p, ("degree",))
        degree = int(p.get("degree", 1))
        if degree < 0:
            raise ConfigError("degree must be nonnegative")
        moments = {}
        for m in _multi_indices(proj.rows, degree):
            moments[",".join(str(t) for t in m)] = _frac_str(cube.pushforward_moments(proj, m))
        artifact = {"word": list(cube.word), "a": list(cube.a), "degree": degree, "moments": moments}
        summary = f"{len(moments)} moments up to degree {degree}"

    elif command == "cube-histogram":
        cube, proj, words_used = _cube_setup(rs, p, ("bins", "samples", "shards"))
        bins = p.get("bins", 20)
        samples = int(p.get("samples", 10**5))
        shards = int(p.get("shards", 1))
        hist = twistedcube.mc_histogram(cube, proj, bins, samples, config.seed, shards)
        text = "\n".join(hist.to_csv_lines()) + "\n"
        default_fmt = "csv"
        artifact = {"word": list(cube.word), "a": list(cube.a), "samples": samples, "total": hist.total()}
        summary = f"histogram total {hist.total():.6g}"

    elif command == "cube-svg":
        cube, proj, words_used = _cube_setup(rs, p, ("bins", "samples", "shards"))
        bins = p.get("bins", 20)
        samples = int(p.get("samples", 10**5))
        shards = int(p.get("shards", 1))
        if proj.rows != 2:
            raise UnsupportedInputError("cube-svg needs a 2-D projection target; export CSV instead")
        hist = twistedcube.mc_histogram(cube, proj, bins, samples, config.seed, shards)
        text = twistedcube.render_histogram_svg(hist)
        default_fmt = "svg"
        artifact = {"word": list(cube.word), "a": list(cube.a), "samples": samples}
        summary = "SVG rendered"

    else:  # pragma: no cover
        raise ConfigError(f"unhandled command {command}")

    if words_used is not None and artifact is not None:
        artifact["words"] = words_used

    fmt = fmt_override or config.output.get("format", default_fmt)
    path = config.output.get("path") or f"{command}.{fmt}"
    if not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    payload = _render(artifact, text, fmt)
    _atomic_write(path, payload)

    if echo_word and words_used is not None:
        summary += f" [words {words_used}]"
    return summary, path


def _multi_indices(dim: int, degree: int):
    out = [(0,) * dim]
    frontier = [(0,) * dim]
    for _ in range(degree):
        nxt = []
        for m in frontier:
            for t in range(dim):
                m2 = m[:t] + (m[t] + 1,) + m[t + 1 :]
                if m2 not in nxt:
                    nxt.append(m2)
        for m2 in nxt:
            if m2 not in out:
                out.append(m2)
        frontier = nxt
    return sorted(out)


def _render(artifact, text, fmt: str) -> str:
    if fmt == "json":
        if artifact is None:
            raise ConfigError("this command has no JSON artifact")
        return json.dumps(artifact, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt in ("csv", "svg", "txt"):
        if text is None:
            raise ConfigError(f"this command has no {fmt} artifact")
        return text
    raise ConfigError(f"unknown format {fmt!r}")


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="crystalcubes", description=__doc__)
    parser.add_argument("--config", default="-", help="job config JSON path, or - for stdin")
    parser.add_argument("--out", default=".", help="directory for relative output paths")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--budget", type=int, default=None, help="override the element budget")
    parser.add_argument("--echo-word", action="store_true", help="echo auto-selected reduced words")
    parser.add_argument("--format", choices=["json", "csv", "svg"], default=None, help="override output format")
    args = parser.parse_args(argv)

    def fail(code: int, kind: str, message: str) -> int:
        sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")
        return code

    try:
        if args.config == "-":
            raw = sys.stdin.read()
        else:
            with open(args.config) as handle:
                raw = handle.read()
        config = JobConfig.from_dict(json.loads(raw))
    except (OSError, json.JSONDecodeError, ConfigError, ValueError) as exc:
        return fail(2, "config", str(exc))

    if args.seed is not None:
        config.seed = args.seed
    if args.budget is not None:
        config.budget = args.budget

    try:
        summary, path = run(config, args.out, args.echo_word, args.format)
    except UnsupportedInputError as exc:
        return fail(3, "unsupported", str(exc))
    except BudgetExceededError as exc:
        return fail(4, "budget", str(exc))
    except InvariantError as exc:
        return fail(5, "internal", str(exc))
    except (ConfigError, ValueError, IndexError, KeyError, TypeError) as exc:
        return fail(2, "invalid", str(exc))

    print(f"{summary} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
