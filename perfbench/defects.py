"""Seeded defect injection for the validate-gate workload.

Each class plants one defect in a clean synthetic document and states the
README contract's answer for ``cjtk DOC validate --json``: the exit code
and the exact set of finding codes.  The hostile classes reproduce the
inputs listed under ROADMAP item 4; their contract answer is exit 2 with a
coded error finding.  When this benchmark was written the toolkit crashed
on them or reported them clean, so they count as failures until that item
lands.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Expect:
    exit: int
    codes: frozenset | None   # None: any non-empty set of error codes
    hostile: bool = False


EXPECT = {
    "clean": Expect(0, frozenset()),
    "vertex-index-out-of-range": Expect(
        2, frozenset({"VERTEX_INDEX_OUT_OF_RANGE"})),
    "dangling-link": Expect(2, frozenset({"PARENT_CHILD_MISMATCH"})),
    "unknown-cotype": Expect(2, frozenset({"UNKNOWN_COTYPE"})),
    "semantics-shape": Expect(2, frozenset({"SEMANTICS_SHAPE_MISMATCH"})),
    "duplicate-vertex": Expect(1, frozenset({"DUPLICATE_VERTEX"})),
    "json-syntax": Expect(2, frozenset({"SYNTAX_ERROR"})),
    "nonfinite-vertex": Expect(2, None, hostile=True),
    "deep-nesting": Expect(2, frozenset({"SYNTAX_ERROR"}), hostile=True),
    "non-utf8": Expect(2, frozenset({"SYNTAX_ERROR"}), hostile=True),
}

DEFECTS = [name for name in EXPECT if name != "clean"]

# Far past the interpreter's recursion limit, small on disk (2 x 40 kB).
NESTING_DEPTH = 40_000


def inject(kind: str, root: dict, rng: random.Random) -> bytes:
    """Document bytes for ``root`` (a clean CityJSON dict) with one defect.

    ``root`` is modified in place.
    """
    objects = root["CityObjects"]
    solids = [oid for oid, co in objects.items() if co.get("geometry")]
    if kind in ("clean", "json-syntax"):
        pass                  # nothing to change in the tree
    elif kind == "vertex-index-out-of-range":
        ring = _random_ring(objects[rng.choice(solids)], rng)
        ring[rng.randrange(len(ring))] = len(root["vertices"]) \
            + rng.randrange(1, 1000)
    elif kind == "dangling-link":
        oid = rng.choice(sorted(objects))
        objects[oid].setdefault("children", []).append(f"{oid}-ghost")
    elif kind == "unknown-cotype":
        oid = rng.choice([o for o in solids if not objects[o].get("parents")]
                         or solids)
        objects[oid]["type"] = "Skyscraper"
    elif kind == "semantics-shape":
        geom = objects[rng.choice(solids)]["geometry"][0]
        geom["semantics"]["values"][0].pop()
    elif kind == "duplicate-vertex":
        ring = _random_ring(objects[rng.choice(solids)], rng)
        pos = rng.randrange(len(ring))
        root["vertices"].append(list(root["vertices"][ring[pos]]))
        ring[pos] = len(root["vertices"]) - 1
    elif kind == "nonfinite-vertex":
        vi = rng.randrange(len(root["vertices"]))
        root["vertices"][vi][rng.randrange(3)] = rng.choice(
            [float("nan"), float("inf"), float("-inf")])
    elif kind == "deep-nesting":
        oid = rng.choice(sorted(objects))
        objects[oid].setdefault("attributes", {})["nested"] = "@NEST@"
    elif kind == "non-utf8":
        oid = rng.choice(sorted(objects))
        objects[oid].setdefault("attributes", {})["note"] = "@BYTES@"
    else:
        raise ValueError(f"unknown defect class {kind!r}")

    text = json.dumps(root, separators=(",", ":"), ensure_ascii=False)
    if kind == "json-syntax":
        # A cut at any point before the final brace leaves the root
        # object unclosed, so the text can never parse.
        text = text[:rng.randrange(len(text) // 2, len(text) - 1)]
    elif kind == "deep-nesting":
        text = text.replace('"@NEST@"', "[" * NESTING_DEPTH
                            + "]" * NESTING_DEPTH, 1)
    data = text.encode("utf-8")
    if kind == "non-utf8":
        data = data.replace(b"@BYTES@", b"caf\xe9 \xff\xfe", 1)
    return data


def _random_ring(obj: dict, rng: random.Random) -> list:
    shell = obj["geometry"][0]["boundaries"][0]
    return shell[rng.randrange(len(shell))][0]


def judge(kind: str, exit_code: int, stdout: bytes):
    """None when the run met the class's contract, else a reason."""
    want = EXPECT[kind]
    codes = set()
    errors = 0
    for line in stdout.decode("utf-8", "replace").splitlines():
        if not line.strip():
            continue
        try:
            finding = json.loads(line)
            codes.add(finding["code"])
            errors += finding["severity"] == "error"
        except (ValueError, KeyError, TypeError):
            return f"exit {exit_code}: stdout line is not a JSON finding"
    if exit_code != want.exit:
        return f"exit {exit_code}, expected {want.exit} ({sorted(codes)})"
    if want.codes is None:
        if not errors:
            return "no coded error finding"
    elif codes != want.codes:
        return f"codes {sorted(codes)}, expected {sorted(want.codes)}"
    return None
