"""Batch CLI: artifacts, summaries, exit codes, reproducibility."""

import dataclasses
import gc
import io
import json
import os
import stat
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crystalcubes
from crystalcubes import cli, twistedcube
from crystalcubes.cli import main
from crystalcubes.rootsys import RootSystem


CRYSTAL_A2 = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0]}}


def run_cli(tmp_path, config, *args):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    return main(["--config", str(cfg), "--out", str(tmp_path), *args])


def test_tensor_decompose_paper_table(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "tensor-decompose",
        "params": {"weights": [[1, 1], [1, 1]]},
        "output": {"path": "dec.json"},
    }
    assert run_cli(tmp_path, config) == 0
    doc = json.loads((tmp_path / "dec.json").read_text())
    assert doc["multiplicities"] == {"2,2": 1, "3,0": 1, "0,3": 1, "1,1": 2, "0,0": 1}


def test_cube_volume_summary(tmp_path, capsys):
    config = {"root_system": "A1", "command": "cube-volume", "params": {"word": [1], "a": [2]}}
    assert run_cli(tmp_path, config) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 ->")


def test_multiplicity_cartan_component(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "multiplicity",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]], "nu": [2, 2]},
    }
    assert run_cli(tmp_path, config) == 0
    assert capsys.readouterr().out.startswith("1 ->")


def test_echo_word(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "component-count",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]]},
    }
    assert run_cli(tmp_path, config, "--echo-word") == 0
    out = capsys.readouterr().out
    assert "[words [[1, 2, 1], [1, 2, 1]]]" in out
    doc = json.loads((tmp_path / "component-count.json").read_text())
    assert doc["words"] == [[1, 2, 1], [1, 2, 1]]


def test_byte_reproducible_including_seeded_mc(tmp_path):
    config = {
        "root_system": "A2",
        "command": "cube-histogram",
        "params": {"word": [1, 2], "a": [1, 1], "bins": 8, "samples": 20000},
        "output": {"path": "hist.csv", "format": "csv"},
        "seed": 31,
    }
    assert run_cli(tmp_path, config) == 0
    first = (tmp_path / "hist.csv").read_bytes()
    header, *rows = first.decode().splitlines()
    assert header == "center_1,center_2,value"
    assert len(rows) == 64
    for row in rows:
        assert [float(field) for field in row.split(",")]
    assert run_cli(tmp_path, config) == 0
    assert (tmp_path / "hist.csv").read_bytes() == first

    dec = {
        "root_system": "A2",
        "command": "tensor-decompose",
        "params": {"weights": [[1, 0], [0, 1]]},
        "output": {"path": "dec.json"},
    }
    assert run_cli(tmp_path, dec) == 0
    blob = (tmp_path / "dec.json").read_bytes()
    assert run_cli(tmp_path, dec) == 0
    assert (tmp_path / "dec.json").read_bytes() == blob


def test_malformed_json_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["kind"] == "config"


@pytest.mark.parametrize("where", ["top", "params"])
def test_deeply_nested_config_exit_2(tmp_path, capsys, where):
    """A list nested deeper than the JSON parser recurses is a malformed config, not a traceback."""
    deep = "[" * 200_000 + "]" * 200_000
    text = deep if where == "top" else '{"root_system": "A2", "command": "crystal", "params": {"weight": %s}}' % deep
    cfg = tmp_path / "deep.json"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


def test_unknown_key_exit_2(tmp_path):
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0]}, "bogus": 1}
    assert run_cli(tmp_path, config) == 2


def test_unknown_param_exit_2(tmp_path):
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0], "oops": 3}}
    assert run_cli(tmp_path, config) == 2


def test_unsupported_exit_3(tmp_path, capsys):
    config = {
        "root_system": "A3",
        "command": "bundle-vectors",
        "params": {"subsets": [[1, 3]], "weights": [[1, 1, 1]]},
    }
    assert run_cli(tmp_path, config) == 3
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "unsupported"


def test_budget_exit_4(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "crystal",
        "params": {"weight": [3, 3]},
        "budget": 10,
    }
    assert run_cli(tmp_path, config) == 4
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "budget"


def test_one_block_gen_demazure_budget_exit_4(tmp_path, capsys):
    """A one-block crystal is closed on bare paths; the closure's running count still ends it."""
    params = {"subsets": [[1, 2]], "weights": [[1, 1]]}
    config = {"root_system": "A2", "command": "gen-demazure", "params": params, "budget": 7}
    assert run_cli(tmp_path, config) == 4
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"kind": "budget", "message": "saturation exceeded budget of 7 elements"}
    assert run_cli(tmp_path, {**config, "budget": 8}) == 0


def test_crystal_json_and_edges(tmp_path):
    config = {
        "root_system": "A2",
        "command": "crystal",
        "params": {"weight": [1, 1]},
        "output": {"path": "adjoint.json"},
    }
    assert run_cli(tmp_path, config) == 0
    doc = json.loads((tmp_path / "adjoint.json").read_text())
    assert doc["vertex_count"] == 8 and len(doc["edges"]) == 8

    config["output"] = {"path": "adjoint.txt", "format": "txt"}
    assert run_cli(tmp_path, config) == 0
    text = (tmp_path / "adjoint.txt").read_text()
    assert text.count("->") == 8 and "[label=1]" in text


@pytest.mark.parametrize("command,params,builder", [
    ("crystal", {"weight": [1, 1]}, "_edge_lines"),
    ("demazure", {"weight": [1, 1], "word": [1, 2]}, "_edge_lines"),
    ("lattice-points", {"word": [1, 2, 1], "a": [1, 0, 1]}, "_points_csv"),
    ("cube-histogram", {"word": [1, 2], "a": [1, 1], "samples": 1000}, "_histogram_csv"),
    ("cube-svg", {"word": [1, 2], "a": [1, 1], "samples": 1000}, "_histogram_svg"),
])
def test_text_built_only_for_text_formats(tmp_path, monkeypatch, command, params, builder):
    """A JSON artifact never builds the csv/svg/txt text; a text format builds it once."""
    built = []
    original = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda *args: built.append(1) or original(*args))
    config = {"root_system": "A2", "command": command, "params": params, "output": {"path": "out.json", "format": "json"}}
    assert run_cli(tmp_path, config) == 0
    assert built == []
    fmt = {"cube-svg": "svg", "crystal": "txt", "demazure": "txt"}.get(command, "csv")
    config["output"] = {"path": f"out.{fmt}", "format": fmt}
    assert run_cli(tmp_path, config) == 0
    assert built == [1]


@pytest.mark.parametrize("command,params,fmt,by_flag", [
    ("crystal", {"weight": [1, 1]}, "csv", False),
    ("crystal", {"weight": [1, 1]}, "svg", True),
    ("cube-histogram", {"word": [1, 2], "a": [1, 1], "samples": 1000}, "svg", False),
    ("cube-svg", {"word": [1, 2], "a": [1, 1], "samples": 1000}, "csv", True),
    ("lattice-points", {"word": [1], "a": [2]}, "txt", False),
    ("bundle-vectors", {"subsets": [[1, 2]], "weights": [[1, 0]]}, "txt", True),
    ("gen-demazure", {"word": [1], "a": [1]}, "pdf", False),
])
def test_unlisted_format_exit_2(tmp_path, capsys, monkeypatch, command, params, fmt, by_flag):
    """A format the command does not list exits 2 before its handler runs, and writes no file."""
    def handler(*args):
        raise AssertionError("handler ran")

    monkeypatch.setitem(cli.COMMANDS, command, dataclasses.replace(cli.COMMANDS[command], handler=handler))
    config = {"root_system": "A2", "command": command, "params": params, "output": {"path": "out.x"}}
    if not by_flag:
        config["output"]["format"] = fmt
    assert run_cli(tmp_path, config, *(["--format", fmt] if by_flag else [])) == 2
    formats = ", ".join(cli.COMMANDS[command].formats)
    message = f"{command} has no {fmt!r} artifact; formats: {formats}"
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "invalid", "message": message}}
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_format_flag_takes_txt(tmp_path):
    config = {"root_system": "A2", "command": "demazure", "params": {"weight": [1, 1], "word": [1, 2]}}
    assert run_cli(tmp_path, config, "--format", "txt") == 0
    assert (tmp_path / "demazure.txt").read_text().count("->") == 4


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0]}, "output": {"path": "g.json"}}
    old = os.umask(umask)
    try:
        assert run_cli(tmp_path, config) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "g.json").stat().st_mode) == mode


def test_json_dump_holds_no_graph(tmp_path, monkeypatch):
    """The crystal graph behind the unused text builder is freed before the JSON dump."""
    generate, render = cli.generate_crystal, cli._render
    refs, alive = [], []

    def record(*args):
        graph = generate(*args)
        refs.append(weakref.ref(graph))
        return graph

    def spy(*args):
        alive.append(refs[0]() is not None)
        return render(*args)

    monkeypatch.setattr(cli, "generate_crystal", record)
    monkeypatch.setattr(cli, "_render", spy)
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 1]}, "output": {"path": "g.json"}}
    assert run_cli(tmp_path, config) == 0
    assert alive == [False]


@pytest.mark.parametrize(
    "command,params,fmt",
    [
        ("crystal", {"weight": [1, 1]}, "json"),
        ("crystal", {"weight": [1, 1]}, "txt"),
        ("gen-demazure", {"subsets": [[1, 2], [1]], "weights": [[1, 1], [1, 0]]}, "json"),
    ],
)
def test_render_holds_no_root_system(tmp_path, monkeypatch, command, params, fmt):
    """The job's root system, and with it the operator caches and interned paths, is freed
    before the artifact is rendered."""
    make, render = cli._root_system, cli._render
    refs, alive = [], []

    def record(spec):
        rs = make(spec)
        refs.append(weakref.ref(rs))
        return rs

    def spy(*args):
        alive.append(refs[0]() is not None)
        return render(*args)

    monkeypatch.setattr(cli, "_root_system", record)
    monkeypatch.setattr(cli, "_render", spy)
    config = {"root_system": "A2", "command": command, "params": params, "output": {"format": fmt}}
    assert run_cli(tmp_path, config) == 0
    assert alive == [False]


def test_lattice_points_csv_default(tmp_path):
    config = {
        "root_system": "A1",
        "command": "lattice-points",
        "params": {"word": [1], "a": [2]},
    }
    assert run_cli(tmp_path, config) == 0
    lines = (tmp_path / "lattice-points.csv").read_text().strip().splitlines()
    assert lines == ["x1_1", "0", "1", "2"]


def test_gen_demazure_both_shapes(tmp_path):
    by_word = {
        "root_system": "A2",
        "command": "gen-demazure",
        "params": {"word": [1, 2], "a": [1, 1]},
        "output": {"path": "gw.json"},
    }
    assert run_cli(tmp_path, by_word) == 0
    doc = json.loads((tmp_path / "gw.json").read_text())
    assert doc["element_count"] == 5

    by_weights = {
        "root_system": "A2",
        "command": "gen-demazure",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]]},
        "output": {"path": "gs.json"},
    }
    assert run_cli(tmp_path, by_weights) == 0
    doc = json.loads((tmp_path / "gs.json").read_text())
    assert doc["element_count"] == 64


def test_cube_jobs_from_subsets(tmp_path, capsys):
    moments = {
        "root_system": "A3",
        "command": "cube-moments",
        "params": {"subsets": [[1, 2], [3]], "weights": [[2, 4, 0], [0, 0, 2]], "degree": 1},
        "output": {"path": "m.json"},
    }
    assert run_cli(tmp_path, moments) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["moments"]["0,0,0"] == "212/3"
    assert doc["moments"]["1,0,0"] == "-644/3"

    svg = {
        "root_system": "A2",
        "command": "cube-svg",
        "params": {"subsets": [[1, 2]], "weights": [[1, 1]], "samples": 5000, "bins": 6},
        "output": {"path": "cube.svg"},
        "seed": 5,
    }
    assert run_cli(tmp_path, svg) == 0
    assert (tmp_path / "cube.svg").read_text().startswith("<svg")


@pytest.mark.parametrize(
    "command,extra",
    [("cube-volume", {}), ("cube-moments", {"degree": 2}), ("cube-histogram", {"samples": 500, "bins": 3})],
)
def test_word_shape_subsets_default_to_singletons(tmp_path, command, extra):
    """A word-shape cube job with the singleton blocks {i_k} as explicit subsets writes the same bytes."""
    params = {"word": [1, 2, 2, 1], "a": [1, -1, 2, 1], **extra}
    blobs = []
    for p in (params, {**params, "subsets": [[i] for i in params["word"]]}):
        config = {"root_system": "B2", "command": command, "params": p, "output": {"path": "out"}, "seed": 4}
        assert run_cli(tmp_path, config) == 0
        blobs.append((tmp_path / "out").read_bytes())
    assert blobs[0] == blobs[1]


def test_g2_flag_histogram_total_is_not_a_confident_zero(tmp_path):
    """Uniform samples over the bounding box of the G2 flag cube, some 7.5·10⁶ times
    the cube's volume of 1, all missed its support and wrote a total of 0.0."""
    config = {
        "root_system": "G2",
        "command": "cube-histogram",
        "params": {"subsets": [[1, 2]], "weights": [[1, 1]], "samples": 100_000},
        "output": {"path": "g2.json", "format": "json"},
        "seed": 5,
    }
    assert run_cli(tmp_path, config) == 0
    doc = json.loads((tmp_path / "g2.json").read_text())
    cube = twistedcube.TwistedCube(RootSystem.preset("G2"), doc["word"], doc["a"])
    _, err = cube.mc_volume(100_000, seed=5)
    assert err > 0 and abs(doc["total"] - 1) < 4 * err


def test_fiber_command(tmp_path):
    config = {
        "root_system": "A2",
        "command": "fiber",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]], "x": [1, 2, 1]},
        "output": {"path": "fiber.json"},
    }
    assert run_cli(tmp_path, config) == 0
    doc = json.loads((tmp_path / "fiber.json").read_text())
    assert doc["count"] == 1 and doc["points"] == [[0, 0, 0]]


def test_custom_cartan_grid(tmp_path, capsys):
    config = {
        "root_system": [[2, -1], [-2, 2]],
        "command": "crystal",
        "params": {"weight": [1, 0]},
    }
    assert run_cli(tmp_path, config) == 0
    assert "5 vertices" in capsys.readouterr().out  # = weyl_dimension for this B2 weight


B2_GRID = [[2, -1], [-2, 2]]

# Artifacts of the projected-point commands, pinned from the full-saturation
# implementation that the highest-weight route replaced.
PROJECTED_GOLDENS = [
    (
        "A3",
        "tensor-decompose",
        {"weights": [[1, 0, 1], [0, 1, 0], [1, 0, 0]]},
        b'{"multiplicities":{"0,0,1":2,"0,2,1":1,"1,0,2":2,"1,1,0":3,"2,1,1":1,"3,0,0":1},'
        b'"words":[[1,2,1,3,2,1],[1,2,1,3,2,1],[1,2,1,3,2,1]]}\n',
    ),
    (
        "A3",
        "multiplicity",
        {
            "subsets": [[1, 2, 3], [1, 2, 3], [2, 3]],
            "weights": [[1, 0, 1], [0, 1, 0], [0, 1, 1]],
            "nu": [1, 0, 2],
            "words": [[2, 1, 3, 2, 1, 3], [3, 2, 1, 3, 2, 3], [3, 2, 3]],
        },
        b'{"multiplicity":4,"nu":[1,0,2]}\n',
    ),
    (
        "A3",
        "component-count",
        {"subsets": [[1, 3], [2, 3]], "weights": [[1, 0, 1], [0, 1, 1]]},
        b'{"component_count":3,"words":[[1,3],[2,3,2]]}\n',
    ),
    (
        "A3",
        "fiber",
        {"subsets": [[1, 2, 3], [1, 3]], "weights": [[1, 0, 0], [1, 0, 1]], "x": [1, 0]},
        b'{"count":20,"points":[[0,0,0,0,0,0],[0,0,0,1,0,0],[0,0,0,1,1,0],[0,0,0,2,1,0],'
        b"[0,1,0,0,0,0],[0,1,0,1,0,0],[0,1,0,2,1,0],[0,1,1,1,1,0],[0,1,1,2,1,0],[0,2,0,1,0,0],"
        b"[0,2,1,2,1,0],[1,0,0,1,1,0],[1,0,0,2,1,0],[1,1,0,0,0,0],[1,1,0,1,0,0],[1,1,0,2,1,0],"
        b"[1,2,0,1,0,0],[1,2,1,2,1,0],[2,1,0,2,1,0],[2,2,0,1,0,0]],"
        b'"words":[[1,2,1,3,2,1],[1,3]],"x":[1,0]}\n',
    ),
    (
        B2_GRID,
        "tensor-decompose",
        {"weights": [[1, 1], [0, 1]]},
        b'{"multiplicities":{"0,2":1,"1,0":1,"1,2":1,"2,0":1},"words":[[1,2,1,2],[1,2,1,2]]}\n',
    ),
    (
        B2_GRID,
        "multiplicity",
        {
            "subsets": [[1, 2], [1, 2]],
            "weights": [[1, 1], [1, 1]],
            "nu": [1, 2],
            "words": [[2, 1, 2, 1], [1, 2, 1, 2]],
        },
        b'{"multiplicity":2,"nu":[1,2]}\n',
    ),
    (
        B2_GRID,
        "component-count",
        {"subsets": [[2], [1, 2]], "weights": [[1, 0], [1, 1]]},
        b'{"component_count":4,"words":[[2],[1,2,1,2]]}\n',
    ),
    (
        B2_GRID,
        "fiber",
        {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [0, 1]], "x": [0, 1, 1, 1]},
        b'{"count":5,"points":[[0,0,0,0],[0,1,1,0],[0,2,1,0],[1,0,0,0],[1,2,1,0]],'
        b'"words":[[1,2,1,2],[1,2,1,2]],"x":[0,1,1,1]}\n',
    ),
]


@pytest.mark.parametrize(
    "root_system,command,params,expected",
    PROJECTED_GOLDENS,
    ids=[f"{'A3' if rs == 'A3' else 'B2'}-{cmd}" for rs, cmd, _, _ in PROJECTED_GOLDENS],
)
def test_projected_point_artifacts_golden(tmp_path, root_system, command, params, expected):
    config = {"root_system": root_system, "command": command, "params": params, "output": {"path": "out.json"}}
    assert run_cli(tmp_path, config) == 0
    assert (tmp_path / "out.json").read_bytes() == expected


# Artifacts of the enumeration commands, pinned before the word shape became the
# singleton-block case of the weights shape; gen-demazure covers the word shape
# and the weights shape with auto-selected and with explicit words.
ENUMERATION_GOLDENS = [
    (
        "A3",
        "crystal",
        {"weight": [1, 0, 0]},
        "json",
        b'{"edges":[[0,2,1],[1,3,2],[3,1,0]],"highest":3,"vertex_count":4,"vertices":[{"index":0,'
        b'"weight":[-1,1,0]},{"index":1,"weight":[0,-1,1]},{"index":2,"weight":[0,0,-1]},{"index":3,'
        b'"weight":[1,0,0]}]}\n'
    ),
    (
        "A3",
        "crystal",
        {"weight": [1, 0, 0]},
        "txt",
        b'0 -> 1 [label=2]\n1 -> 2 [label=3]\n3 -> 0 [label=1]\n'
    ),
    (
        "A3",
        "demazure",
        {"weight": [0, 1, 0], "word": [1, 3, 2]},
        "json",
        b'{"edges":[[0,3,1],[2,2,3],[3,1,0],[3,3,4],[4,1,1]],"highest":2,"vertex_count":5,'
        b'"vertices":[{"index":0,"weight":[-1,0,1]},{"index":1,"weight":[-1,1,-1]},{"index":2,"weight":[0,'
        b'1,0]},{"index":3,"weight":[1,-1,1]},{"index":4,"weight":[1,0,-1]}]}\n'
    ),
    (
        "A3",
        "demazure",
        {"weight": [0, 1, 0], "word": [1, 3, 2]},
        "txt",
        b'0 -> 1 [label=3]\n2 -> 3 [label=2]\n3 -> 0 [label=1]\n3 -> 4 [label=3]\n4 -> 1 [label=1]\n'
    ),
    (
        "A3",
        "lattice-points",
        {"word": [1, 2, 3, 1], "a": [1, 0, 1, 1]},
        "json",
        b'{"a":[1,0,1,1],"count":19,"level":1,"points":[[0,0,0,0],[0,0,0,1],[0,0,1,0],[0,0,1,1],[0,1,0,1],'
        b'[0,1,1,0],[0,1,1,1],[0,2,1,1],[1,0,0,0],[1,0,1,0],[1,1,0,1],[1,1,1,0],[1,1,1,1],[1,2,1,1],[2,0,'
        b'0,0],[2,0,1,0],[2,1,1,0],[2,2,1,1],[3,1,1,0]],"word":[1,2,3,1]}\n'
    ),
    (
        "A3",
        "lattice-points",
        {"word": [1, 2, 3, 1], "a": [1, 0, 1, 1]},
        "csv",
        b'x1_1,x2_1,x3_1,x4_1\n0,0,0,0\n0,0,0,1\n0,0,1,0\n0,0,1,1\n0,1,0,1\n0,1,1,0\n0,1,1,1\n0,2,1,1\n1,0,0,0\n1,0,'
        b'1,0\n1,1,0,1\n1,1,1,0\n1,1,1,1\n1,2,1,1\n2,0,0,0\n2,0,1,0\n2,1,1,0\n2,2,1,1\n3,1,1,0\n'
    ),
    (
        "A3",
        "gen-demazure",
        {"word": [2, 1, 3, 2], "a": [1, 1, 0, 1]},
        "json",
        b'{"block_sizes":[1,1,1,1],"components":[{"highest_weights":[[2,0,1]],"size":15},'
        b'{"highest_weights":[[1,2,0]],"size":7}],"element_count":22,"omega_vectors":[[0,0,0,0],[0,0,0,1],'
        b'[0,0,1,1],[0,1,0,0],[0,1,0,1],[0,1,1,1],[0,2,0,1],[0,2,1,1],[1,0,0,0],[1,0,1,1],[1,1,0,0],[1,1,'
        b'0,1],[1,1,1,1],[1,2,0,1],[1,2,1,1],[2,0,0,0],[2,1,0,0],[2,1,1,1],[2,2,0,1],[2,2,1,1],[3,1,0,0],'
        b'[3,2,1,1]],"shape":{"a":[1,1,0,1],"kind":"word"},"word":[2,1,3,2]}\n'
    ),
    (
        "A3",
        "gen-demazure",
        {"subsets": [[1, 2], [2, 3]], "weights": [[1, 0, 0], [0, 0, 1]]},
        "json",
        b'{"block_sizes":[3,3],"components":[{"highest_weights":[[1,0,1]],"size":11}],"element_count":11,'
        b'"omega_vectors":[[0,0,0,0,0,0],[0,0,0,0,1,0],[0,1,0,0,1,0],[0,1,1,0,0,0],[0,1,1,0,1,0],[0,2,1,0,'
        b'1,0],[1,0,0,0,0,0],[1,0,0,0,1,0],[1,1,0,0,1,0],[1,2,1,0,1,0],[2,1,0,0,1,0]],'
        b'"shape":{"kind":"weights","subsets":[[1,2],[2,3]],"weights":[[1,0,0],[0,0,1]],"words":[[1,2,1],'
        b'[2,3,2]]},"word":[1,2,1,2,3,2],"words":[[1,2,1],[2,3,2]]}\n'
    ),
    (
        "A3",
        "gen-demazure",
        {"subsets": [[2, 3], [1]], "weights": [[0, 0, 1], [1, 0, 0]], "words": [[3, 2, 3], [1]]},
        "json",
        b'{"block_sizes":[3,1],"components":[{"highest_weights":[[1,0,1]],"size":11}],"element_count":11,'
        b'"omega_vectors":[[0,0,0,0],[0,0,0,1],[0,1,0,1],[0,1,1,0],[0,1,1,1],[0,2,1,1],[1,0,0,0],[1,0,0,'
        b'1],[1,1,0,1],[1,2,1,1],[2,1,0,1]],"shape":{"kind":"weights","subsets":[[2,3],[1]],"weights":[[0,'
        b'0,1],[1,0,0]],"words":[[3,2,3],[1]]},"word":[3,2,3,1]}\n'
    ),
    (
        B2_GRID,
        "crystal",
        {"weight": [0, 1]},
        "json",
        b'{"edges":[[0,2,1],[2,2,3],[3,1,0]],"highest":2,"vertex_count":4,"vertices":[{"index":0,'
        b'"weight":[-1,1]},{"index":1,"weight":[0,-1]},{"index":2,"weight":[0,1]},{"index":3,"weight":[1,'
        b'-1]}]}\n'
    ),
    (
        B2_GRID,
        "crystal",
        {"weight": [0, 1]},
        "txt",
        b'0 -> 1 [label=2]\n2 -> 3 [label=2]\n3 -> 0 [label=1]\n'
    ),
    (
        B2_GRID,
        "demazure",
        {"weight": [1, 1], "word": [1, 2]},
        "json",
        b'{"edges":[[0,1,1],[3,1,2],[3,2,4],[4,1,0]],"highest":3,"vertex_count":5,"vertices":[{"index":0,'
        b'"weight":[0,1]},{"index":1,"weight":[-2,3]},{"index":2,"weight":[-1,3]},{"index":3,"weight":[1,'
        b'1]},{"index":4,"weight":[2,-1]}]}\n'
    ),
    (
        B2_GRID,
        "demazure",
        {"weight": [1, 1], "word": [1, 2]},
        "txt",
        b'0 -> 1 [label=1]\n3 -> 2 [label=1]\n3 -> 4 [label=2]\n4 -> 0 [label=1]\n'
    ),
    (
        B2_GRID,
        "lattice-points",
        {"word": [2, 1, 2], "a": [1, 1, 0], "level": 2},
        "json",
        b'{"a":[1,1,0],"count":15,"level":2,"points":[[0,0,0],[0,1,0],[0,2,0],[1,0,0],[1,1,0],[1,2,0],[2,'
        b'0,0],[2,1,0],[2,2,0],[3,1,0],[3,2,0],[4,1,0],[4,2,0],[5,2,0],[6,2,0]],"word":[2,1,2]}\n'
    ),
    (
        B2_GRID,
        "lattice-points",
        {"word": [2, 1, 2], "a": [1, 1, 0], "level": 2},
        "csv",
        b'x1_1,x2_1,x3_1\n0,0,0\n0,1,0\n0,2,0\n1,0,0\n1,1,0\n1,2,0\n2,0,0\n2,1,0\n2,2,0\n3,1,0\n3,2,0\n4,1,0\n4,2,0\n5,'
        b'2,0\n6,2,0\n'
    ),
    (
        B2_GRID,
        "gen-demazure",
        {"word": [2, 1, 2], "a": [1, 1, 1]},
        "json",
        b'{"block_sizes":[1,1,1],"components":[{"highest_weights":[[2,0]],"size":9},'
        b'{"highest_weights":[[1,2]],"size":8}],"element_count":17,"omega_vectors":[[0,0,0],[0,0,1],[0,1,'
        b'0],[0,1,1],[0,2,1],[1,0,0],[1,1,0],[1,1,1],[1,2,1],[2,0,0],[2,1,0],[2,1,1],[2,2,1],[3,1,0],[3,2,'
        b'1],[4,1,0],[4,2,1]],"shape":{"a":[1,1,1],"kind":"word"},"word":[2,1,2]}\n'
    ),
    (
        B2_GRID,
        "gen-demazure",
        {"subsets": [[2], [1]], "weights": [[0, 1], [1, 0]]},
        "json",
        b'{"block_sizes":[1,1],"components":[{"highest_weights":[[1,1]],"size":6}],"element_count":6,'
        b'"omega_vectors":[[0,0],[0,1],[1,0],[1,1],[2,1],[3,1]],"shape":{"kind":"weights","subsets":[[2],'
        b'[1]],"weights":[[0,1],[1,0]],"words":[[2],[1]]},"word":[2,1],"words":[[2],[1]]}\n'
    ),
    (
        B2_GRID,
        "gen-demazure",
        {"subsets": [[1], [1, 2]], "weights": [[1, 0], [0, 1]], "words": [[1], [2, 1, 2, 1]]},
        "json",
        b'{"block_sizes":[1,4],"components":[{"highest_weights":[[1,1]],"size":5},{"highest_weights":[[0,'
        b'1]],"size":3}],"element_count":8,"omega_vectors":[[0,0,0,0,0],[0,0,1,1,0],[0,1,0,0,0],[0,1,1,1,'
        b'0],[1,0,0,0,0],[1,1,0,0,0],[1,1,1,1,0],[2,1,0,0,0]],"shape":{"kind":"weights","subsets":[[1],[1,'
        b'2]],"weights":[[1,0],[0,1]],"words":[[1],[2,1,2,1]]},"word":[1,2,1,2,1]}\n'
    ),
]


@pytest.mark.parametrize(
    "root_system,command,params,fmt,expected",
    ENUMERATION_GOLDENS,
    ids=[
        f"{'A3' if rs == 'A3' else 'B2'}-{cmd}-"
        + ("word" if "word" in p and cmd == "gen-demazure" else "words" if "words" in p else "auto" if "subsets" in p else fmt)
        for rs, cmd, p, fmt, _ in ENUMERATION_GOLDENS
    ],
)
def test_enumeration_artifacts_golden(tmp_path, root_system, command, params, fmt, expected):
    output = {"path": f"out.{fmt}", "format": fmt}
    config = {"root_system": root_system, "command": command, "params": params, "output": output}
    assert run_cli(tmp_path, config) == 0
    assert (tmp_path / f"out.{fmt}").read_bytes() == expected


def test_projection_budget_caps_tail_crystal(tmp_path, capsys):
    # |B(2,2) ⊗ B(2,2)| = 729, while the crystal X of the second block is B(2,2), 27 elements
    config = {"root_system": "A2", "command": "tensor-decompose", "params": {"weights": [[2, 2], [2, 2]]}}
    assert run_cli(tmp_path, {**config, "budget": 20}) == 4
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "budget"
    assert run_cli(tmp_path, {**config, "budget": 200}) == 0


def test_non_dominant_first_weight_exit_2(tmp_path, capsys):
    config = {"root_system": "A2", "command": "tensor-decompose", "params": {"weights": [[1, -1], [1, 1]]}}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "invalid", "message": "weights must be dominant integral"}
    }


@pytest.mark.parametrize(
    "command", ["gen-demazure", "lattice-points", "cube-volume", "cube-moments", "cube-histogram", "cube-svg"]
)
def test_empty_word_exit_2(tmp_path, capsys, command):
    config = {"root_system": "A2", "command": command, "params": {"word": [], "a": []}}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "invalid", "message": "the word must not be empty"}}


@pytest.mark.parametrize(
    "config",
    [
        {"root_system": "A2", "command": "cube-histogram", "params": {"word": [1, 2], "a": [1, 1], "samples": True}},
        {"root_system": [[2]], "command": "crystal", "params": {"weight": [True]}},
        {"root_system": "A2", "command": "cube-volume", "params": {"word": [1, 2], "a": [1, 1]}, "seed": True},
    ],
    ids=["param", "weight-coordinate", "seed"],
)
def test_boolean_exit_2(tmp_path, capsys, config):
    # JSON true would otherwise be read as the integer 1
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "config", "message": "config values must not be booleans"}
    }
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_config_file_is_closed(tmp_path):
    config = {"root_system": "A1", "command": "cube-volume", "params": {"word": [1], "a": [2]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(tmp_path, config) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


CUBE_PARAMS = {"word": [1, 2], "a": [1, 1]}


@pytest.mark.parametrize(
    "command,params,message",
    [
        ("cube-volume", {**CUBE_PARAMS, "bogus": 1}, "unknown params: ['bogus']"),
        ("cube-histogram", {**CUBE_PARAMS, "samples": 100, "bogus": 1}, "unknown params: ['bogus']"),
        ("cube-volume", {**CUBE_PARAMS, "degree": 1}, "unknown params: ['degree']"),
        ("cube-moments", {**CUBE_PARAMS, "degree": -1}, "degree must be nonnegative"),
        ("cube-volume", {"word": [1, 2]}, "missing param 'a'"),
        ("cube-volume", {"subsets": [[1, 2]]}, "missing param 'weights'"),
        ("cube-volume", {**CUBE_PARAMS, "weights": [[1, 1]]}, "unknown params: ['weights']"),
        ("cube-volume", {"subsets": [[1, 2]], "weights": [[1, 1]], "a": [9]}, "unknown params: ['a']"),
        ("cube-moments", {**CUBE_PARAMS, "words": [[1], [2]]}, "unknown params: ['words']"),
        (
            "cube-svg",
            {"word": [1, 2, 1], "a": [1, 1, 1], "subsets": [[1, 2]], "words": [[2, 1, 2]]},
            "unknown params: ['words']",
        ),
        ("cube-volume", {"word": [1, 2], "a": [1, 1], "subsets": [[1, 2]]},
         "word does not match the longest words of the subsets"),
    ],
    ids=[
        "volume-unknown",
        "histogram-unknown",
        "volume-degree",
        "moments-negative-degree",
        "missing-a",
        "missing-weights",
        "word-shape-with-weights",
        "weights-shape-with-a",
        "word-shape-with-words",
        "word-shape-subsets-with-words",
        "word-not-longest-of-subsets",
    ],
)
def test_cube_params_rejected_exit_2(tmp_path, capsys, command, params, message):
    config = {"root_system": "A2", "command": command, "params": params}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "invalid", "message": message}}


def test_budget_below_one_exit_2(tmp_path, capsys):
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0]}}
    assert run_cli(tmp_path, {**config, "budget": -5}) == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == "budget must be at least 1"
    assert run_cli(tmp_path, config, "--budget", "0") == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == "budget must be at least 1"
    assert run_cli(tmp_path, config, "--budget", "1") == 4


@pytest.mark.parametrize(
    "command,params,message",
    [
        ("tensor-decompose", {"weights": 3}, "param 'weights' must be a list"),
        ("cube-volume", {"word": [1, 2], "a": None}, "param 'a' must be a list"),
        ("gen-demazure", {"word": "12", "a": [1, 1]}, "param 'word' must be a list"),
        ("lattice-points", {"word": "12", "a": [1, 1]}, "param 'word' must be a list"),
    ],
    ids=["weights-int", "a-null", "gen-demazure-word-string", "lattice-points-word-string"],
)
def test_wrong_param_type_exit_2(tmp_path, capsys, command, params, message):
    config = {"root_system": "A2", "command": command, "params": params}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "invalid", "message": message}}


@pytest.mark.parametrize(
    "command,params",
    [
        ("gen-demazure", {"word": ["1", "2"], "a": [1, 1]}),
        ("tensor-decompose", {"weights": [[1, None], [1, 1]]}),
        ("cube-moments", {"word": [1, 2], "a": [1, 1], "degree": None}),
    ],
    ids=["word-letters-strings", "weight-coordinate-null", "degree-null"],
)
def test_wrong_nested_type_exit_2(tmp_path, capsys, command, params):
    config = {"root_system": "A2", "command": command, "params": params}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "invalid"


A2_FLAG = {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]]}
A2_CUBE = {"subsets": [[1, 2]], "weights": [[2, 1]]}


@pytest.mark.parametrize(
    "command,params,top",
    [
        ("cube-volume", {"word": [1.5, 2], "a": [1, 1]}, {}),
        ("cube-volume", {"word": [1, 2], "a": [1.5, 1]}, {}),
        ("lattice-points", {"word": [1, 2], "a": [1.5, 1]}, {}),
        ("lattice-points", {"word": [1, 2], "a": [1, 1], "level": "2"}, {}),
        ("fiber", {**A2_FLAG, "x": [0.5, 0, 0]}, {}),
        ("multiplicity", {**A2_FLAG, "nu": [2, 2], "words": [[1.5, 2, 1], [1, 2, 1]]}, {}),
        ("cube-moments", {**A2_CUBE, "degree": 1.9}, {}),
        ("cube-histogram", {**A2_CUBE, "samples": 200.5, "bins": 3}, {}),
        ("cube-histogram", {**A2_CUBE, "samples": 200, "shards": 1.5, "bins": 3}, {}),
        ("cube-histogram", {**A2_CUBE, "samples": 200, "bins": [3.5, 2]}, {}),
        ("cube-volume", CUBE_PARAMS, {"seed": 1.5}),
        ("cube-volume", CUBE_PARAMS, {"budget": 2.5}),
    ],
    ids=["word", "a", "lattice-a", "level", "x", "words", "degree", "samples", "shards", "bins", "seed", "budget"],
)
def test_non_integer_value_exit_2(tmp_path, capsys, command, params, top):
    config = {"root_system": "A2", "command": command, "params": params, **top}
    assert run_cli(tmp_path, config) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    if top:
        assert error == {"kind": "config", "message": "seed and budget must be integers"}
    else:
        assert error["kind"] == "invalid"
        assert error["message"].endswith("object cannot be interpreted as an integer")


def test_histogram_cells_over_budget_exit_4(tmp_path, capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("numpy.zeros called before the cell count was checked")

    monkeypatch.setattr("numpy.zeros", no_allocation)
    params = {**A2_FLAG, "weights": [[1, 1], [1, 0]], "bins": [3000] * 4}
    config = {"root_system": "A2", "command": "cube-histogram", "params": params}
    assert run_cli(tmp_path, config) == 4
    cells = 3002**4
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "budget", "message": f"histogram of {cells} cells exceeds budget of 1000000 cells"}
    }
    # the outlier cells count: 8 bins on each of two axes fill 10 x 10 cells
    config = {"root_system": "A2", "command": "cube-svg", "params": {**A2_CUBE, "bins": 8, "samples": 10}}
    assert run_cli(tmp_path, {**config, "budget": 99}) == 4
    assert "histogram of 100 cells" in json.loads(capsys.readouterr().err)["error"]["message"]
    monkeypatch.undo()
    assert run_cli(tmp_path, {**config, "budget": 100}) == 0


def test_moment_count_over_budget_exit_4(tmp_path, capsys, monkeypatch):
    def no_moments(*args, **kwargs):
        raise AssertionError("a moment was computed before the moment count was checked")

    monkeypatch.setattr(twistedcube.TwistedCube, "pushforward_moments", no_moments)
    # the flag projection of A2_CUBE has 2 rows, so |m| <= 12 takes C(14, 12) = 91 multi-indices
    config = {"root_system": "A2", "command": "cube-moments", "params": {**A2_CUBE, "degree": 12}, "budget": 10}
    assert run_cli(tmp_path, config) == 4
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "budget", "message": "91 moments up to degree 12 exceed budget of 10 moments"}
    }
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]
    assert run_cli(tmp_path, {**config, "params": {**A2_CUBE, "degree": 40}, "budget": 860}) == 4
    assert "861 moments up to degree 40" in json.loads(capsys.readouterr().err)["error"]["message"]
    monkeypatch.undo()
    # a count equal to the budget passes: |m| <= 1 over 2 rows takes 3 moments
    assert run_cli(tmp_path, {**config, "params": {**A2_CUBE, "degree": 1}, "budget": 3}) == 0
    assert json.loads((tmp_path / "cube-moments.json").read_text())["moments"].keys() == {"0,0", "0,1", "1,0"}


def test_sample_count_over_budget_exit_4(tmp_path, capsys, monkeypatch):
    def no_samples(*args, **kwargs):
        raise AssertionError("a sample was drawn before the sample count was checked")

    monkeypatch.setattr(twistedcube.TwistedCube, "mc_sample", no_samples)
    config = {"root_system": "A2", "command": "cube-histogram", "params": {**CUBE_PARAMS, "samples": 10**12}}
    assert run_cli(tmp_path, config) == 4
    message = f"{10**12} samples x 2 coordinates = {2 * 10**12} exceed 100 x budget = {10**8}"
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "budget", "message": message}}
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]
    # one bin on each of two axes fills 3 x 3 cells, so budget 9 passes the cell count and
    # caps the dim-2 cube at 900 sample coordinates: 450 samples
    config = {**config, "params": {**CUBE_PARAMS, "bins": 1, "samples": 451}, "budget": 9}
    assert run_cli(tmp_path, config) == 4
    assert "451 samples x 2 coordinates = 902 exceed 100 x budget = 900" in capsys.readouterr().err
    monkeypatch.undo()
    assert run_cli(tmp_path, {**config, "params": {**CUBE_PARAMS, "bins": 1, "samples": 450}}) == 0
    assert (tmp_path / "cube-histogram.csv").exists()


def test_greedy_word_guard_exits_5(tmp_path, capsys, monkeypatch):
    # one positive root short: the greedy word of w_0 reads as not reduced, a program defect
    positive_roots_in = RootSystem.positive_roots_in
    monkeypatch.setattr(RootSystem, "positive_roots_in", lambda self, s: positive_roots_in(self, s)[1:])
    assert run_cli(tmp_path, CRYSTAL_A2) == 5
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "internal"
    assert error["message"] == "greedy word [1, 2, 1] for (1, 2) is not a reduced word of the longest element"
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_unwritable_output_exit_2(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0]}}
    config["output"] = {"path": "afile/x.json"}
    assert run_cli(tmp_path, config) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "output" and "afile" in error["message"]
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize(
    "root_system,command,params",
    [
        ("A2", "crystal", {"weight": ["1", "1"]}),
        ("A2", "crystal", {"weight": [1.0, 1]}),
        ("A2", "tensor-decompose", {"weights": [[1, 1], [1, 1.0]]}),
        ("A2", "gen-demazure", {"subsets": [[1, 2]], "weights": [["1", 1]]}),
        ("A2", "multiplicity", {**A2_FLAG, "nu": ["2", 2]}),
        ([[2, -1.0], [-1, 2]], "crystal", {"weight": [1, 0]}),
        ([[2, -1], ["-1", 2]], "crystal", {"weight": [1, 0]}),
    ],
    ids=["weight-strings", "weight-float", "weights-float", "gen-demazure-weights-string", "nu-string",
         "cartan-float", "cartan-string"],
)
def test_string_or_float_number_exit_2(tmp_path, capsys, root_system, command, params):
    config = {"root_system": root_system, "command": command, "params": params}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "invalid"
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


@pytest.mark.parametrize(
    "config,kind,message",
    [
        ({"root_system": [], "command": "crystal", "params": {"weight": []}}, "invalid", "Cartan matrix must not be empty"),
        ({"root_system": "A2", "command": ["crystal"]}, "config", None),
        ([{"root_system": "A2"}], "config", "config must be a JSON object"),
        ({"command": "crystal", "params": {"weight": [1, 0]}}, "config", "missing config key 'root_system'"),
        ({"root_system": "A2", "params": {"weight": [1, 0]}}, "config", "missing config key 'command'"),
        ({"root_system": "A2", "command": "crystal", "params": [[1, 0]]}, "config", "params must be an object"),
        ({**CRYSTAL_A2, "output": ["x.json"]}, "config", "output must be an object with keys path/format"),
        ({**CRYSTAL_A2, "output": {"path": "x.json", "mode": 420}}, "config",
         "output must be an object with keys path/format"),
        ({**CRYSTAL_A2, "root_system": "E9"}, "invalid", None),
        ({**CRYSTAL_A2, "root_system": 2}, "invalid", "root_system must be a preset name or a Cartan matrix grid"),
    ],
    ids=["empty-cartan", "command-list", "not-an-object", "no-root-system", "no-command", "params-list",
         "output-list", "output-extra-key", "unknown-preset", "root-system-number"],
)
def test_malformed_top_level_exit_2(tmp_path, capsys, config, kind, message):
    assert run_cli(tmp_path, config) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == kind
    assert message is None or error["message"] == message
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_seed_flag_overrides_config_seed(tmp_path):
    config = {"root_system": "A2", "command": "cube-histogram", "params": {"word": [1, 2], "a": [1, 1], "samples": 1000}}
    written = {}
    for name, seed, flags in [("config", 5, ()), ("flag", 0, ("--seed", "5")), ("other", 0, ())]:
        config.update(seed=seed, output={"path": f"{name}.csv"})
        assert run_cli(tmp_path, config, *flags) == 0
        written[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert written["flag"] == written["config"] != written["other"]


def test_config_from_stdin(tmp_path, capsys, monkeypatch):
    """The README example: `--config -` reads the job from stdin."""
    config = {
        "root_system": "A2",
        "command": "tensor-decompose",
        "params": {"weights": [[1, 1], [1, 1]]},
        "output": {"path": "decomposition.json"},
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    assert main(["--config", "-", "--out", str(tmp_path / "results"), "--echo-word"]) == 0
    doc = json.loads((tmp_path / "results" / "decomposition.json").read_text())
    assert doc["multiplicities"] == {"0,0": 1, "0,3": 1, "1,1": 2, "2,2": 1, "3,0": 1}
    assert "[words [[1, 2, 1], [1, 2, 1]]]" in capsys.readouterr().out


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    def no_space(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", no_space)
    assert run_cli(tmp_path, CRYSTAL_A2) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "output" and "No space left" in error["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert tuple(row.split("`")[1] for row in rows) == tuple(cli.COMMANDS)


def test_public_surface():
    # every name the package exports, pinned so that growing or shrinking the API is a visible change
    assert sorted(crystalcubes.__all__) == [
        "BudgetExceededError", "CrystalGraph", "GenDemazureCrystal",
        "InvariantError", "MVPolynomial", "MultiplicityTable", "PathElement", "ProjectionMap",
        "RootSystem", "SignedHistogram", "SubsetSequence", "TensorElement", "TwistedCube",
        "UnsupportedInputError", "Weight", "WordSequence", "bundle_report", "bundles", "component_count",
        "crystal", "degeneration_vectors", "demazure", "demazure_crystal", "epsilon", "fiber_string_points",
        "flag_bott_vectors", "gen_demazure_crystal", "gen_demazure_crystal_weights", "generate_crystal",
        "hat_lattice_points", "highest_path", "lattice_points", "mc_histogram",
        "mu_weight", "multiplicity", "path_e", "path_f", "projected_box", "projection_map",
        "pullback_vector", "rootsys", "stringpoly", "tensor_decompose", "twistedcube",
        "wt",
    ]


def test_internal_invariant_exit_5(tmp_path, capsys, monkeypatch):
    from crystalcubes import demazure

    # an Ω that sends every element to one vector breaks the separation check
    saturate = demazure._saturate
    monkeypatch.setattr(demazure, "_saturate", lambda *args: dict.fromkeys(saturate(*args), (0, 0, 0)))
    config = {"root_system": "A2", "command": "tensor-decompose", "params": {"weights": [[1, 1], [1, 1]]}}
    assert run_cli(tmp_path, config) == 5
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "internal", "message": "string parametrization failed to separate elements"}
    }


# Artifacts of bundle-vectors, cube-histogram, cube-svg and the word-shape cube
# with subsets, pinned before the command table replaced the if/elif dispatch.
# The Monte Carlo ones were re-captured when shard streams came to be spawned
# from SeedSequence(seed) instead of seeded with seed + shard index, and again
# when samples came to be drawn down the cube's tower with real weights instead
# of uniformly over its bounding box with densities in {-1, 0, 1}.
ARTIFACT_GOLDENS = [
    (
        "A3",
        "bundle-vectors",
        {"subsets": [[1, 2, 3], [1, 2], [3]], "weights": [[1, 0, 1], [0, 1, 0], [0, 0, 2]]},
        "json",
        0,
        b'{"degeneration_vectors":[[5,4,3,0],[1,1,0],[2,0]],"mu":[0,0,0],"pullback_vector":[[0,0,0,1,0,1],'
        b'[0,1,0],[2]],"tower_vectors":{"2,1":[[1,0,-1,0],[0,1,-1,0],[0,0,0,0]],"3,1":[[1,1,2,0],[0,0,0,0]],'
        b'"3,2":[[-1,-1,0],[0,0,0]]},"words":[[1,2,1,3,2,1],[1,2,1],[3]]}\n',
    ),
    (
        B2_GRID,
        "bundle-vectors",
        {"subsets": [[1], [2], [1]], "weights": [[1, 0], [0, 1], [2, 1]], "words": [[1], [2], [1]]},
        "json",
        0,
        b'{"degeneration_vectors":[[3,0],[2,0],[2,0]],"mu":[0,0],"pullback_vector":[[1],[2],[2]],'
        b'"tower_vectors":{"2,1":[[-1,0],[0,0]],"3,1":[[2,0],[0,0]],"3,2":[[-2,0],[0,0]]},'
        b'"words":[[1],[2],[1]]}\n',
    ),
    (
        "A2",
        "cube-histogram",
        {"subsets": [[1, 2]], "weights": [[2, 1]], "samples": 200, "bins": 3},
        "json",
        7,
        b'{"a":[0,1,2],"samples":200,"total":2.892651374005214,"word":[1,2,1],"words":[[1,2,1]]}\n',
    ),
    (
        "A2",
        "cube-histogram",
        {"subsets": [[1, 2]], "weights": [[2, 1]], "samples": 200, "bins": 3},
        "csv",
        7,
        b"center_1,center_2,value\n-5.5,-2.5,0.0\n-5.5,-1.5,0.0\n-5.5,-0.5,0.0\n-2.5,-2.5,0.4328540281729101\n"
        b"-2.5,-1.5,1.450850245183717\n-2.5,-0.5,0.738297858607719\n0.5,-2.5,0.0\n0.5,-1.5,0.29758174813140287\n"
        b"0.5,-0.5,-0.02693250609053495\n",
    ),
    (
        B2_GRID,
        "cube-histogram",
        {"word": [1, 2, 1], "a": [1, 1, 1], "samples": 200, "shards": 2, "bins": [3, 2, 2]},
        "json",
        3,
        b'{"a":[1,1,1],"samples":200,"total":3.79050522016327,"word":[1,2,1]}\n',
    ),
    (
        B2_GRID,
        "cube-histogram",
        {"word": [1, 2, 1], "a": [1, 1, 1], "samples": 200, "shards": 2, "bins": [3, 2, 2]},
        "csv",
        3,
        b"center_1,center_2,center_3,value\n-4.166666666666666,-2.25,-0.75,0.0\n-4.166666666666666,-2.25,-0.25,0.0\n"
        b"-4.166666666666666,-0.75,-0.75,0.0\n-4.166666666666666,-0.75,-0.25,0.0\n-2.5,-2.25,-0.75,0.38880338330572395\n"
        b"-2.5,-2.25,-0.25,0.15940300952343803\n-2.5,-0.75,-0.75,0.06576309386014975\n"
        b"-2.5,-0.75,-0.25,0.39865702198439684\n-0.8333333333333333,-2.25,-0.75,0.5789604177965068\n"
        b"-0.8333333333333333,-2.25,-0.25,0.11067989071094513\n-0.8333333333333333,-0.75,-0.75,0.9341186325904799\n"
        b"-0.8333333333333333,-0.75,-0.25,1.1541197703916297\n",
    ),
    (
        "A2",
        "cube-svg",
        {"subsets": [[1, 2]], "weights": [[2, 1]], "samples": 200, "bins": 3},
        "svg",
        11,
        b'<svg xmlns="http://www.w3.org/2000/svg" width="72" height="72" viewBox="0 0 72 72">\n'
        b'<rect x="0" y="48" width="24" height="24" fill="rgb(255,255,255)"/>\n'
        b'<rect x="0" y="24" width="24" height="24" fill="rgb(255,255,255)"/>\n'
        b'<rect x="0" y="0" width="24" height="24" fill="rgb(255,255,255)"/>\n'
        b'<rect x="24" y="48" width="24" height="24" fill="rgb(255,196,196)"/>\n'
        b'<rect x="24" y="24" width="24" height="24" fill="rgb(255,0,0)"/>\n'
        b'<rect x="24" y="0" width="24" height="24" fill="rgb(255,183,183)"/>\n'
        b'<rect x="48" y="48" width="24" height="24" fill="rgb(255,255,255)"/>\n'
        b'<rect x="48" y="24" width="24" height="24" fill="rgb(255,219,219)"/>\n'
        b'<rect x="48" y="0" width="24" height="24" fill="rgb(255,214,214)"/>\n'
        b"</svg>\n",
    ),
    (
        "A3",
        "cube-volume",
        {"word": [1, 2, 1, 3], "a": [2, 0, 1, 2], "subsets": [[1, 2], [3]]},
        "json",
        0,
        b'{"a":[2,0,1,2],"signed_volume":"25/3","word":[1,2,1,3]}\n',
    ),
]


@pytest.mark.parametrize(
    "root_system,command,params,fmt,seed,expected",
    ARTIFACT_GOLDENS,
    ids=[
        f"{'B2' if isinstance(rs, list) else rs}-{cmd}-{'word' if 'word' in p else 'words' if 'words' in p else 'auto'}-{fmt}"
        for rs, cmd, p, fmt, _, _ in ARTIFACT_GOLDENS
    ],
)
def test_artifacts_golden(tmp_path, root_system, command, params, fmt, seed, expected):
    output = {"path": f"out.{fmt}", "format": fmt}
    config = {"root_system": root_system, "command": command, "params": params, "output": output, "seed": seed}
    assert run_cli(tmp_path, config) == 0
    assert (tmp_path / f"out.{fmt}").read_bytes() == expected


MC_GOLDENS = [g for g in ARTIFACT_GOLDENS if g[1] in ("cube-histogram", "cube-svg")]


@pytest.mark.parametrize(
    "root_system,command,params,fmt,seed,expected",
    MC_GOLDENS,
    ids=[f"{'B2' if isinstance(rs, list) else rs}-{cmd}-{fmt}" for rs, cmd, _, fmt, _, _ in MC_GOLDENS],
)
def test_mc_artifacts_golden_in_small_chunks(tmp_path, monkeypatch, root_system, command, params, fmt, seed, expected):
    """The same bytes when the 200 samples arrive in chunks of 7 rows."""
    monkeypatch.setattr(twistedcube, "_CHUNK", 7)
    test_artifacts_golden(tmp_path, root_system, command, params, fmt, seed, expected)


# The stdout line of every command under --echo-word: auto-selected words are
# echoed, words given in the config and the word shape echo nothing.
ECHO_GOLDENS = [
    ("A2", "crystal", {"weight": [1, 0]}, "crystal with 3 vertices, 2 edges -> OUT/crystal.json"),
    ("A2", "demazure", {"weight": [1, 1], "word": [1, 2]}, "Demazure crystal with 5 elements -> OUT/demazure.json"),
    ("A2", "gen-demazure", {"word": [1, 2], "a": [1, 1]}, "generalized Demazure crystal with 5 elements -> OUT/gen-demazure.json"),
    (
        "A2",
        "gen-demazure",
        {"subsets": [[1, 2], [2]], "weights": [[1, 0], [0, 1]]},
        "generalized Demazure crystal with 8 elements [words [[1, 2, 1], [2]]] -> OUT/gen-demazure.json",
    ),
    ("A2", "lattice-points", {"word": [2, 1], "a": [1, 1]}, "5 lattice points -> OUT/lattice-points.csv"),
    (
        "A2",
        "multiplicity",
        {"subsets": [[1, 2], [1]], "weights": [[1, 1], [1, 0]], "nu": [1, 2]},
        "0 [words [[1, 2, 1], [1]]] -> OUT/multiplicity.json",
    ),
    (
        "A2",
        "multiplicity",
        {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]], "nu": [1, 1], "words": [[2, 1, 2], [1, 2, 1]]},
        "2 -> OUT/multiplicity.json",
    ),
    (
        "A2",
        "tensor-decompose",
        {"weights": [[1, 0], [0, 1]]},
        "2 components over 2 highest weights [words [[1, 2, 1], [1, 2, 1]]] -> OUT/tensor-decompose.json",
    ),
    (
        B2_GRID,
        "component-count",
        {"subsets": [[2], [1, 2]], "weights": [[1, 0], [1, 1]]},
        "4 [words [[2], [1, 2, 1, 2]]] -> OUT/component-count.json",
    ),
    (
        "A2",
        "fiber",
        {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]], "x": [1, 2, 1]},
        "1 fiber points [words [[1, 2, 1], [1, 2, 1]]] -> OUT/fiber.json",
    ),
    (
        "A3",
        "bundle-vectors",
        {"subsets": [[1, 2], [2, 3]], "weights": [[1, 1, 0], [0, 1, 1]]},
        "bundle vectors computed [words [[1, 2, 1], [2, 3, 2]]] -> OUT/bundle-vectors.json",
    ),
    (
        "A3",
        "bundle-vectors",
        {"subsets": [[1, 2], [2, 3]], "weights": [[1, 1, 0], [0, 1, 1]], "words": [[2, 1, 2], [3, 2, 3]]},
        "bundle vectors computed -> OUT/bundle-vectors.json",
    ),
    (
        "A2",
        "cube-volume",
        {"subsets": [[1, 2], [1]], "weights": [[1, 1], [2, 0]]},
        "5 [words [[1, 2, 1], [1]]] -> OUT/cube-volume.json",
    ),
    (
        "A3",
        "cube-volume",
        {"word": [1, 2, 1, 3], "a": [2, 0, 1, 2], "subsets": [[1, 2], [3]]},
        "25/3 -> OUT/cube-volume.json",
    ),
    (
        "A2",
        "cube-moments",
        {"subsets": [[1, 2]], "weights": [[1, 1]], "words": [[2, 1, 2]], "degree": 1},
        "3 moments up to degree 1 -> OUT/cube-moments.json",
    ),
    (
        "A2",
        "cube-histogram",
        {"subsets": [[1, 2]], "weights": [[2, 1]], "samples": 200, "bins": 3},
        "histogram total 3.10849 [words [[1, 2, 1]]] -> OUT/cube-histogram.csv",
    ),
    (
        "A2",
        "cube-svg",
        {"subsets": [[1, 2]], "weights": [[2, 1]], "samples": 200, "bins": 3},
        "SVG rendered [words [[1, 2, 1]]] -> OUT/cube-svg.svg",
    ),
]


@pytest.mark.parametrize(
    "root_system,command,params,line",
    ECHO_GOLDENS,
    ids=[
        f"{cmd}-{'word' if 'word' in p else 'words' if 'words' in p else 'auto' if 'subsets' in p else 'plain'}"
        for _, cmd, p, _ in ECHO_GOLDENS
    ],
)
def test_echo_word_summary_golden(tmp_path, capsys, root_system, command, params, line):
    config = {"root_system": root_system, "command": command, "params": params, "seed": 5}
    assert run_cli(tmp_path, config, "--echo-word") == 0
    assert capsys.readouterr().out == line.replace("OUT", str(tmp_path)) + "\n"


# Runs the configs named on its command line, then one Monte Carlo config, through `main`
# and prints whether NumPy was loaded before and after that last job.
_NUMPY_PROBE = """
import json, sys
import crystalcubes
from crystalcubes.cli import main
*exact, histogram, out = sys.argv[1:]
codes = [main(["--config", config, "--out", out]) for config in exact]
before = "numpy" in sys.modules
codes.append(main(["--config", histogram, "--out", out]))
print(json.dumps({"codes": codes, "before": before, "after": "numpy" in sys.modules}))
"""


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    """In a fresh interpreter, `import crystalcubes` and one job of every exact command leave
    NumPy unloaded; the first Monte Carlo job loads it and writes its golden bytes."""
    exact = {}
    for root_system, command, params, _ in ECHO_GOLDENS:
        exact.setdefault(command, {"root_system": root_system, "command": command, "params": params})
    del exact["cube-histogram"], exact["cube-svg"]
    assert set(exact) == set(cli.COMMANDS) - {"cube-histogram", "cube-svg"}
    root_system, command, params, fmt, seed, expected = next(
        g for g in MC_GOLDENS if g[1] == "cube-histogram" and g[3] == "csv"
    )
    histogram = {"root_system": root_system, "command": command, "params": params, "seed": seed,
                 "output": {"path": f"out.{fmt}", "format": fmt}}
    paths = []
    for k, config in enumerate([*exact.values(), histogram]):
        paths.append(tmp_path / f"job{k}.json")
        paths[-1].write_text(json.dumps(config))
    src = str(Path(crystalcubes.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *map(str, paths), str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == {"codes": [0] * len(paths), "before": False, "after": True}
    assert (tmp_path / f"out.{fmt}").read_bytes() == expected


# -- robustness: mutated configs exit with a code and a one-line JSON error, never a traceback

MUTANT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.sampled_from([1.5, float("nan"), 10**9, "", "x", "A2", "12", "crystal"]),
)
MUTANT_VALUES = st.one_of(MUTANT_LEAVES, st.lists(MUTANT_LEAVES, max_size=3))
MUTANT_KEYS = st.sampled_from(
    ["root_system", "command", "params", "output", "seed", "budget", "word", "a", "weight", "weights",
     "subsets", "words", "nu", "x", "level", "degree", "bins", "samples", "shards", "format", "path", "bogus"]
)


def _nodes(tree, path=()):
    """(path, value) of every node of a JSON tree, the root first."""
    yield path, tree
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _mutate(data, config: dict) -> None:
    """One mutation in place: replace a leaf, drop a key, or add a key or a list entry."""
    nodes = list(_nodes(config))
    leaves = [p for p, v in nodes if p and not isinstance(v, (dict, list))]
    keyed = [p for p, _ in nodes if p and isinstance(_at(config, p[:-1]), dict)]
    kinds = ["add"] + ["replace"] * bool(leaves) + ["drop"] * bool(keyed)
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "replace":
        path = data.draw(st.sampled_from(leaves), label="leaf")
        _at(config, path[:-1])[path[-1]] = data.draw(MUTANT_LEAVES, label="new leaf")
    elif kind == "drop":
        path = data.draw(st.sampled_from(keyed), label="dropped")
        del _at(config, path[:-1])[path[-1]]
    else:
        target = data.draw(st.sampled_from([v for _, v in nodes if isinstance(v, (dict, list))]), label="container")
        value = data.draw(MUTANT_VALUES, label="added")
        if isinstance(target, dict):
            target[data.draw(MUTANT_KEYS, label="key")] = value
        else:
            target.append(value)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_configs_exit_cleanly(tmp_path, capsys, data):
    """An `ECHO_GOLDENS` config with one to three mutations runs to exit 0, 2, 3 or 4 under a
    small budget, and every non-zero exit writes one line of JSON error to stderr."""
    root_system, command, params, _ = data.draw(st.sampled_from(ECHO_GOLDENS), label="golden")
    config = json.loads(json.dumps({"root_system": root_system, "command": command, "params": params, "seed": 5}))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(data, config)
    code = run_cli(tmp_path, config, "--budget", "2000")
    err = capsys.readouterr().err
    assert code in {0, 2, 3, 4}, err
    if code:
        assert err.endswith("\n") and err.count("\n") == 1
        assert set(json.loads(err)["error"]) == {"kind", "message"}
