"""The exact bytes of ``main``: each command line below, run in a directory
holding the pinned input files, must give the pinned (exit code, stdout,
stderr) triple of ``tests/golden/cli_outputs.json``.

Run this file as a script to write the golden file from the current tree:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from threadsets import catalog, cli
from threadsets.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"
# argparse wraps its usage text to the terminal width, read from COLUMNS
COLUMNS = "80"

# the catalog entries whose named tuples the commands run on
ENTRIES = {"torus2": ("torus2", 2), "zariski": ("zariski_xy", 2, 2),
           "chromatic": ("chromatic", 2)}


def input_files() -> dict[str, str]:
    """File name to text: each entry's poset and named tuples as JSON, one
    poset in the text form, and the documents the error calls read."""
    files = {}
    for short, (name, *params) in ENTRIES.items():
        entry = catalog.catalog(name, *params)
        P = entry.poset
        files[f"{short}.json"] = json.dumps({
            "elements": list(P.elements),
            "relations": [f"{P.elements[i]} < {P.elements[j]}"
                          for i, j in P.covers]})
        for tname, t in entry.tuples.items():
            files[f"{short}-{tname}.json"] = json.dumps(
                [list(P.labels(part)) for part in t])
    P = catalog.catalog("torus2", 2).poset
    files["torus2.txt"] = "".join(f"{P.elements[i]} < {P.elements[j]}\n"
                                  for i, j in P.covers)
    files["bad.json"] = '{"elements": [}'
    files["unknown.json"] = '[["zz"]]'
    files["unequal.json"] = '[["X", "Y"]]'
    return files


def calls() -> list[list[str]]:
    both = [["--format", "text"], ["--format", "json"]]
    out = []
    for poset, t in [("torus2.json", "torus2-family.json"),
                     ("torus2.txt", "torus2-reduced.json"),
                     ("zariski.json", "zariski-triple.json"),
                     ("zariski.json", "zariski-pair.json"),
                     ("chromatic.json", "chromatic-phi_full.json")]:
        for command in ("reduce", "threads", "tset", "classify"):
            out += [[command, "--poset", poset, "--tuple", t, *fmt]
                    for fmt in both]
    for second in ("zariski-pair.json", "unequal.json"):
        out += [["eq", "--poset", "zariski.json", "--tuple",
                 "zariski-triple.json", "--tuple", second, *fmt]
                for fmt in both]
    out.append(["dot", "--poset", "zariski.json"])
    # the same options in other orders and repeated: the last value wins
    out += [
        ["tset", "--format", "json", "--tuple", "torus2-family.json",
         "--poset", "torus2.json"],
        ["classify", "--poset", "torus2.txt", "--format", "text",
         "--poset", "zariski.json", "--tuple", "zariski-pair.json"],
        ["reduce", "--poset", "zariski.json", "--poset", "torus2.json",
         "--tuple", "torus2-reduced.json", "--format", "json",
         "--format", "text"],
        ["threads", "--format", "text", "--poset", "chromatic.json",
         "--tuple", "chromatic-phi_full.json"],
        ["dot", "--poset", "torus2.txt"],
        ["eq", "--tuple", "zariski-triple.json", "--poset", "zariski.json",
         "--tuple", "unequal.json", "--format", "json"],
    ]
    out += [["catalog", "list", *fmt] for fmt in both]
    out += [["catalog", "emit", "torus2", "2", *fmt]
            for fmt in [*both, ["--format", "dot"]]]
    # verify's text reports carry their wall time, so JSON only
    out.append(["verify", "all", "--poset", "chromatic.json",
                "--format", "json"])
    for error in (["tset", "--tuple", "torus2-family.json"],
                  ["tset", "--poset", "bad.json", "--tuple",
                   "torus2-family.json"],
                  ["tset", "--poset", "torus2.json", "--tuple",
                   "unknown.json"],
                  ["reduce", "--poset", "torus2.json", "--bogus"]):
        out += [[*error, *fmt] for fmt in both]
    return out


def run_all(argvs: list[list[str]]) -> list[list]:
    """The (exit code, stdout, stderr) triple of each command line."""
    triples = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        triples.append([code, out.getvalue(), err.getvalue()])
    return triples


def test_cli_outputs_match_the_golden_file(tmp_path, monkeypatch):
    _check_golden(tmp_path, monkeypatch)


def test_argparse_alone_gives_the_golden_outputs(tmp_path, monkeypatch):
    # cli._direct reads most tuple-command lines without argparse; with it
    # out of the way argparse parses every line, and the bytes are the same
    monkeypatch.setattr(cli, "_direct", lambda argv: None)
    _check_golden(tmp_path, monkeypatch)


def _check_golden(tmp_path, monkeypatch) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["files"] == input_files()
    assert [c["argv"] for c in golden["calls"]] == calls()
    for name, text in golden["files"].items():
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = run_all(calls())
    for call, triple in zip(golden["calls"], got):
        assert triple == [call["exit"], call["stdout"], call["stderr"]], \
            call["argv"]


def write_golden(workdir: Path) -> None:
    files = input_files()
    for name, text in files.items():
        (workdir / name).write_bytes(text.encode("utf-8"))
    os.chdir(workdir)
    os.environ["COLUMNS"] = COLUMNS
    triples = run_all(calls())
    golden = {"files": files,
              "calls": [{"argv": argv, "exit": code, "stdout": out,
                         "stderr": err}
                        for argv, (code, out, err) in zip(calls(), triples)]}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
