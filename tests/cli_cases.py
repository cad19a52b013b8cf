"""The command-line contract: one table of ``cjtk`` runs, pinned by digest.

Each row of ``CASES`` is one command line.  Its record is the exit code,
standard output, standard error and the bytes of each file it writes; the
sha256 of the record is pinned as ``cli/<name>`` in
``data/golden_digests.json``.  A row also states the exit code it must
give, and the record must hold in each of its input modes: the input
(``argv[0]``) given as a ``path``, or given as ``-`` with the file on
standard input through a ``pipe`` or a ``redirect`` (which can seek).  No
file other than those a row writes may appear.  A row that refuses modules
runs in a child ``python -m cjtk.cli`` that must load none of them; every
other row runs in this process through ``cli.main``.

The rows run in order in one new working directory, which holds copies of
``data/corpus/`` and ``data/cli/`` and a generated ``synth.gml`` with its
UTF-16 copy, so a row may read what an earlier row wrote.

``tests/test_golden.py`` checks every row in the tier-1 suite and is the
one way to regenerate the digests.  This file, run as a script, checks
them with the standard library and cjtk alone, so a bare interpreter
gives the same verdict as the suite::

    PYTHONPATH=src python tests/cli_cases.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

import cjtk
from cjtk import cli, synth

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_digests.json"
MODES = ("path", "pipe", "redirect")


class Case(NamedTuple):
    name: str
    argv: list[str]
    exit: int
    modes: tuple[str, ...] = ("path",)
    writes: tuple[str, ...] = ()
    refuses: tuple[str, ...] = ()
    same_as: str | None = None  # an earlier row whose record this repeats


class Mismatch(Exception):
    """A row that breaks what it states (its exit code, one record in
    every mode, the files it writes, the modules it refuses)."""


def _cases() -> list[Case]:
    corpus = sorted(p.name for p in (DATA / "corpus").glob("*.city.json"))
    c02 = "corpus/02-building-with-parts.city.json"
    tile = "tiles/20-tunnel-water-relief.city_{}.json"
    gml = ["import", "compress", "--digits", "3", "save"]
    rows = [Case("help/cjtk", ["--help"], 0)]
    rows += [Case(f"help/{stage}", ["IN", stage, "--help"], 0)
             for stage in cli._STAGES]
    warned = {"05": 1, "06": 1, "07": 1, "08": 2}  # exit codes of validate
    rows += [Case(f"validate/{name.removesuffix('.city.json')}",
                  [f"corpus/{name}", "validate", "--json"],
                  warned.get(name[:2], 0), MODES) for name in corpus]
    rows += [Case(f"clean/{name.removesuffix('.city.json')}",
                  [f"corpus/{name}", "clean", "metadata", "subset",
                   "--type", "Building", "save", "-"], 0) for name in corpus]
    rows += [
        Case("clean/string-index",
             ["cli/string-index.city.json", "clean", "save", "-"], 2),
        Case("pipeline/02", [c02, "validate", "compress", "--digits", "3",
                             "subset", "--type", "Building", "save", "-"],
             0, MODES),
        Case("stdin/town-validate",
             ["cli/town.city.json", "validate", "--json"], 0, MODES),
        Case("stdin/town-pipeline",
             ["cli/town.city.json", "compress", "--digits", "3", "subset",
              "--type", "Building", "save", "-"], 0, MODES),
        Case("stdin/not-utf-8",
             ["cli/not-utf-8.city.json", "validate", "--json"], 2, MODES),
        Case("stdin/json-syntax",
             ["cli/json-syntax.city.json", "validate", "--json"], 2, MODES),
        # Tiles at 3 and at 1 digits merged back in one run of three merges.
        Case("merge-run/partition",
             ["corpus/20-tunnel-water-relief.city.json", "compress",
              "partition", "--grid", "2x2", "--out-dir", "tiles"], 0,
             writes=(tile.format("r0c0"), tile.format("r0c1"))),
        *(Case(f"merge-run/digits-1-{i}",
               [tile.format("r0c1"), "compress", "--digits", "1", "save",
                tile.format(f"r0c1.{i}")], 0,
               writes=(tile.format(f"r0c1.{i}"),)) for i in (1, 3)),
        Case("merge-run/merge",
             [tile.format("r0c0"),
              "merge", "--policy", "suffix", tile.format("r0c1.1"),
              "merge", "--policy", "suffix", tile.format("r0c0"),
              "merge", "--policy", "suffix", tile.format("r0c1.3"),
              "save", "-"], 0),
        Case("merge/appearance-templates",
             ["corpus/15-appearance-textures.city.json", *(
                 word for other in ("16-appearance-materials",
                                    "15-appearance-textures",
                                    "07-geometry-template", "22-two-instances")
                 for word in ("merge", "--policy", "suffix",
                              f"corpus/{other}.city.json")),
              "save", "-"], 0),
        Case("import/synth", ["synth.gml", *gml, "-"], 0, MODES),
        Case("import/synth-utf16", ["synth-utf16.gml", *gml, "-"], 0,
             same_as="import/synth"),
        Case("import/square-linked", ["cli/square-linked.gml", *gml, "-"],
             0, MODES),
        Case("import/cross", ["cli/cross.gml", *gml, "-"], 0),
        Case("import/linked-root", ["cli/linked-root.gml", *gml, "-"], 0),
        Case("import/synth-saved", ["synth.gml", *gml, "synth.json"], 0,
             writes=("synth.json",)),
        Case("partition/grid", ["synth.json", "partition", "--grid", "2x2",
                                "--out-dir", "parts"], 0,
             writes=tuple(f"parts/synth_{pid}.json"
                          for pid in ("r0c0", "r0c1", "r1c0", "r1c1"))),
        Case("save/pretty", ["synth.json", "save", "--pretty", "pretty.json"],
             0, writes=("pretty.json",)),
        Case("refuses/validate", [c02, "validate", "--json"], 0,
             refuses=("dataclasses", "inspect", "argparse",
                      "cjtk.extensions", "textwrap")),
        Case("refuses/import", ["synth.gml", *gml, "refused.json"], 0,
             writes=("refused.json",),
             refuses=("cjtk.validation", "cjtk.ops", "textwrap")),
        # Usage errors of the whole command line come before any stage.
        Case("order/partition-then-info",
             [c02, "partition", "--by-type", "--out-dir", "by-type", "info"],
             3),
        Case("order/info-then-import", [c02, "info", "import"], 3),
        Case("order/save-pretty-stdout", [c02, "validate", "compress", "save",
                                          "saved.json", "save", "--pretty",
                                          "-"], 3),
        Case("partition/random-0",
             [c02, "partition", "--random", "0", "--out-dir", "random"], 3),
    ]
    return rows


CASES = _cases()


def _setup(work: Path) -> None:
    shutil.copytree(DATA / "corpus", work / "corpus")
    shutil.copytree(DATA / "cli", work / "cli")
    text = synth.scene_to_citygml(
        synth.make_scene(seed=3, buildings=40, part_every=5))
    (work / "synth.gml").write_bytes(text.encode("utf-8"))
    utf16 = text.replace('encoding="UTF-8"', 'encoding="UTF-16"', 1)
    assert utf16 != text
    (work / "synth-utf16.gml").write_bytes(utf16.encode("utf-16"))


def _entries(work: Path) -> set[str]:
    return {str(path.relative_to(work)) for path in work.rglob("*")}


def _feed(fd: int, data: bytes) -> None:
    with open(fd, "wb") as pipe:
        try:
            pipe.write(data)
        except BrokenPipeError:  # a run that stopped reading
            pass


def _in_process(argv, mode, source: Path):
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process,
    ``source`` on standard input through ``mode``."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sigpipe = getattr(signal, "SIGPIPE", None)
    handler = sigpipe and signal.getsignal(sigpipe)
    feeder = None
    if mode == "redirect":
        sys.stdin = open(source, encoding="utf-8")
    elif mode == "pipe":
        read, write = os.pipe()
        feeder = threading.Thread(target=_feed,
                                  args=(write, source.read_bytes()))
        feeder.start()
        sys.stdin = open(read, encoding="utf-8")
    out, err = io.BytesIO(), io.BytesIO()
    sys.stdout, sys.stderr = streams = [
        io.TextIOWrapper(buffer, encoding="utf-8", newline="\n")
        for buffer in (out, err)]
    code = None
    try:
        cli.main(argv)
    except SystemExit as done:
        code = done.code
    finally:
        for stream in streams:
            stream.flush()
        if sigpipe:  # main resets it
            signal.signal(sigpipe, handler)
        if mode != "path":  # which ends a write the run did not read
            sys.stdin.close()
        sys.stdin, sys.stdout, sys.stderr = saved
        if feeder:
            feeder.join()
    return code, out.getvalue(), err.getvalue()


def _in_child(argv, mode, source: Path, refuses):
    """Exit code, stdout and stderr of ``python -m cjtk.cli argv``, which
    must load none of the modules ``refuses``."""
    path = [str(Path(cjtk.__file__).parent.parent), os.environ.get(
        "PYTHONPATH", "")]
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    with open(source if mode == "redirect" else os.devnull, "rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "cjtk.cli",
             *argv], env=env, capture_output=True,
            **({"input": source.read_bytes()} if mode == "pipe"
               else {"stdin": stdin}))
    timed = b"import time:"
    lines = proc.stderr.splitlines(keepends=True)
    loaded = {line.rsplit(b"|", 1)[-1].strip().decode()
              for line in lines if line.startswith(timed)}
    if refused := sorted(loaded.intersection(refuses)):
        raise Mismatch(f"{mode} loads {', '.join(refused)}")
    return (proc.returncode, proc.stdout,
            b"".join(line for line in lines if not line.startswith(timed)))


def _record(case: Case, work: Path, records: dict) -> bytes:
    """The record of one row, which must be the same in each of its modes."""
    allowed = {str(path) for name in case.writes
               for path in (Path(name), *Path(name).parents[:-1])}
    runs = []
    for mode in case.modes:
        for name in case.writes:
            (work / name).unlink(missing_ok=True)
        before = _entries(work)
        argv = case.argv if mode == "path" else ["-", *case.argv[1:]]
        source = work / case.argv[0]
        code, out, err = _in_child(argv, mode, source, case.refuses) \
            if case.refuses else _in_process(argv, mode, source)
        made = _entries(work) - before
        if made != made & allowed or not set(case.writes) <= made:
            raise Mismatch(f"{mode} writes {sorted(made)}, not "
                           f"{list(case.writes)}")
        if code != case.exit:
            raise Mismatch(f"{mode} exits {code}, not {case.exit}")
        runs.append([("stdout", out), ("stderr", err)]
                    + [(f"file {name}", (work / name).read_bytes())
                       for name in case.writes])
    for mode, parts in zip(case.modes[1:], runs[1:]):
        if differ := [label for (label, a), (_, b) in zip(runs[0], parts)
                      if a != b]:
            raise Mismatch(f"{mode} differs from {case.modes[0]} in "
                           f"{', '.join(differ)}")
    record = b"exit %d\n" % case.exit + b"".join(
        b"%s %d\n%s" % (label.encode(), len(data), data)
        for label, data in runs[0])
    if case.same_as and records[case.same_as] != record:
        raise Mismatch(f"differs from {case.same_as}")
    return record


def results() -> list[tuple[Case, str | Mismatch]]:
    """Each row with the sha256 of its record, or the Mismatch it gives,
    the rows run in order in one new working directory."""
    out, records = [], {}
    with tempfile.TemporaryDirectory(prefix="cjtk-cli-") as tmp:
        work = Path(tmp)
        _setup(work)
        cwd, extensions = os.getcwd(), os.environ.pop("CJTK_EXTENSIONS", None)
        os.chdir(work)
        try:
            for case in CASES:
                try:
                    records[case.name] = record = _record(case, work, records)
                except Mismatch as exc:
                    out.append((case, exc))
                else:
                    out.append((case, hashlib.sha256(record).hexdigest()))
        finally:
            os.chdir(cwd)
            if extensions is not None:
                os.environ["CJTK_EXTENSIONS"] = extensions
    return out


def digests() -> dict[str, str]:
    """``cli/<name>``: the digest of each row's record.  A row that breaks
    what it states raises its Mismatch."""
    out = {}
    for case, got in results():
        if isinstance(got, Mismatch):
            raise Mismatch(f"cli/{case.name}: {got}")
        out[f"cli/{case.name}"] = got
    return out


def main() -> int:
    """Check every row against the pinned digests, print each that fails,
    and return 1 if any does."""
    want = {key: value for key, value
            in json.loads(GOLDEN.read_text(encoding="utf-8")).items()
            if key.startswith("cli/")}
    failed, matched = [], 0
    for case, got in results():
        key = f"cli/{case.name}"
        pinned = want.pop(key, None)
        if isinstance(got, Mismatch):
            failed.append(f"{key}: {got}")
        elif got != pinned:
            failed.append(f"{key}: not pinned" if pinned is None else
                          f"{key}: the record differs from the pinned one")
        else:
            matched += 1
    failed += [f"{key}: pinned, but no row has that name" for key in want]
    for line in failed:
        print(line, file=sys.stderr)
    print(f"Python {sys.version.split()[0]}: {matched} of {len(CASES)} "
          "command-line cases match the pinned digests")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
