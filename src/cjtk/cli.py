"""Chainable command-line frontend.

One invocation reads one input and pushes it through a pipeline of stages,
left to right, entirely in memory::

    cjtk in.json compress --digits 3 subset --type Building save out.json
    cjtk in.gml import save out.json
    cat in.json | cjtk - validate

"-" reads standard input; ``save -`` writes minified JSON to standard
output.  Exit codes: 0 success (and valid), 1 validation warnings only,
2 errors (validation errors or a failed stage, including a crash, which
reports ``stage: [INTERNAL_ERROR] <type>: <message>``), 3 usage errors.

The input is parsed at most once.  What only some stages need (the
validator and extension files, the CityGML importer) is imported or
loaded by those stages, so a pipeline loads only what it uses.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import click

from . import codec, geomops, ops
from .errors import ERROR, CjtkError, WARNING


class _State:
    """What flows between stages: the input text until something needs a
    model."""

    def __init__(self, source: str, text: str | bytes, extension_paths):
        self.source = source
        self.text: str | bytes | None = text
        self.model = None
        self.exit = 0
        self.finished = False
        self.extension_paths = extension_paths

    def require_model(self, stage: str):
        if self.finished:
            raise click.UsageError(
                f"{stage}: the pipeline already ended with partition")
        if self.model is None:
            self.model, _ = codec.parse(self.text)
            self.text = None
        return self.model


def _model_stage(name: str, op):
    """The stage ``name``, which replaces the model with ``op(model)``."""
    def stage(state: _State):
        state.model = op(state.require_model(name))
    return name, stage


def _text(data: bytes) -> str | bytes:
    """The text of a document; bytes that are not UTF-8 stay bytes, for
    the parser to report as SYNTAX_ERROR."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return data


def _read_input(source: str) -> str | bytes:
    if source == "-":
        return _text(sys.stdin.buffer.read())
    try:
        return _text(Path(source).read_bytes())
    except OSError as exc:
        raise click.UsageError(f"cannot read {source}: {exc.strerror}") from None


@click.group(chain=True)
@click.argument("input", metavar="INPUT")
@click.option("--extension", "extension_paths", multiple=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Extension file to validate against (repeatable); the "
                   "CJTK_EXTENSIONS variable adds a default search path.")
def cli(input, extension_paths):
    """Process the CityJSON (or CityGML) file INPUT through a pipeline."""


@cli.result_callback()
def run_pipeline(processors, input, extension_paths):
    state = _State(input, _read_input(input), extension_paths)
    for name, processor in _merge_runs_folded(processors):
        try:
            processor(state)
        except click.ClickException:
            raise
        except CjtkError as exc:
            raise click.ClickException(f"{name}: [{exc.code}] {exc.message}"
                                       + (f" at {exc.path}" if exc.path
                                          else ""))
        except Exception as exc:
            raise click.ClickException(f"{name}: [INTERNAL_ERROR] "
                                       f"{type(exc).__name__}: {exc}")
        if state.exit >= 2:
            break
    sys.exit(state.exit)


# -- validation ---------------------------------------------------------------


@cli.command("validate")
@click.option("--json", "as_json", is_flag=True,
              help="Report findings as JSON lines instead of text.")
def validate_cmd(as_json):
    """Check the model; exit 0 valid, 1 warnings only, 2 errors."""
    from . import extensions, validation

    def stage(state: _State):
        exts = extensions.discover() + [extensions.load_extension(path)
                                        for path in state.extension_paths]
        if state.model is None and not state.finished:
            # Later stages reuse the model parsed here.
            state.model, findings = validation.parse_and_validate(
                state.text, exts)
            state.text = None
        else:
            findings = validation.validate(state.require_model("validate"),
                                           exts)
        for f in findings:
            line = json.dumps(f.to_json()) if as_json else \
                f"{f.severity}: [{f.code}] {f.path or '<root>'}" \
                + (f" — {f.message}" if f.message else "")
            click.echo(line)
        if any(f.severity == ERROR for f in findings):
            state.exit = 2
        elif any(f.severity == WARNING for f in findings):
            state.exit = max(state.exit, 1)
    return "validate", stage


# -- coordinate stages --------------------------------------------------------


@cli.command("compress")
@click.option("--digits", default=3, show_default=True,
              type=click.IntRange(0, 12),
              help="Decimal digits kept (quantum = 10^-digits).")
def compress_cmd(digits):
    """Quantize vertices onto an integer grid with a transform."""
    return _model_stage("compress", lambda model: geomops.quantize(
        model, digits=digits, requantize=True))


@cli.command("decompress")
def decompress_cmd():
    """Expand quantized vertices back to real-world floats."""
    return _model_stage("decompress", geomops.dequantize)


@cli.command("dedupe")
@click.option("--tolerance", default=0.0, show_default=True, type=float,
              help="Merge vertices within this per-axis distance "
                   "(stored units).")
def dedupe_cmd(tolerance):
    """Merge duplicate (or near-duplicate) vertices."""
    return _model_stage("dedupe", lambda model: geomops.dedupe_vertices(
        model, tolerance=tolerance))


@cli.command("clean")
def clean_cmd():
    """Drop vertices no geometry references."""
    return _model_stage("clean", geomops.remove_orphan_vertices)


# -- object stages ------------------------------------------------------------


@cli.command("subset")
@click.option("--id", "ids", multiple=True,
              help="Keep this object (repeatable).")
@click.option("--type", "types", multiple=True,
              help="Keep objects of this type (repeatable).")
@click.option("--bbox", nargs=4, type=float, default=None,
              help="Keep objects whose extent centroid falls in "
                   "MINX MINY MAXX MAXY.")
def subset_cmd(ids, types, bbox):
    """Keep a selection of objects (plus their children)."""
    if not ids and not types and bbox is None:
        raise click.UsageError("subset needs --id, --type, or --bbox")
    return _model_stage("subset", lambda model: ops.subset(
        model, ids=list(ids) or None, types=list(types) or None,
        bbox=list(bbox) if bbox else None))


@cli.command("merge")
@click.argument("other", type=click.Path(exists=True, dir_okay=False))
@click.option("--policy", default="error", show_default=True,
              type=click.Choice(["error", "suffix"]),
              help="What to do when two inputs share an object id.")
def merge_cmd(other, policy):
    """Merge the pipeline model with OTHER (another CityJSON file).

    Chain several merge stages to combine more than two files.
    Consecutive merge stages with one policy are combined in one merge
    when their inputs share a transform (or none is quantized); the
    output is the same as the chain's.  Otherwise the stages run one by
    one.
    """
    return "merge", _MergeStage(other, policy)


class _MergeStage:
    """One ``merge OTHER --policy P`` stage."""

    def __init__(self, other: str, policy: str):
        self.other = other
        self.policy = policy

    def read_other(self):
        m, _ = codec.parse(_text(Path(self.other).read_bytes()))
        return m

    def __call__(self, state: _State):
        self.merge_into(state, self.read_other())

    def merge_into(self, state: _State, other):
        state.model = ops.merge([state.require_model("merge"), other],
                                policy=self.policy)


def _merge_runs_folded(processors):
    """The pipeline's stages, with each run of two or more consecutive
    merge stages of one policy turned into one stage."""
    def policy(processor):
        return processor[1].policy \
            if isinstance(processor[1], _MergeStage) else None

    for run_policy, run in itertools.groupby(processors, key=policy):
        run = list(run)
        if run_policy is None or len(run) == 1:
            yield from run
        else:
            yield "merge", _merge_run([stage for _, stage in run])


def _merge_run(stages: list[_MergeStage]):
    """The stage for consecutive merge stages of one policy.

    It reads each OTHER once, in stage order, and makes one ``ops.merge``
    call over the pipeline model and every OTHER when that is byte for
    byte what the stages make one by one (see ``_foldable``).  Otherwise,
    and when the call fails, the stages run one by one from the model the
    run started with, on the OTHERs already read, so a failure is the
    first failing stage's, reported as that stage reports it.
    """
    def stage(state: _State):
        others, failure = _read_others(stages, state)
        if failure is None and len(others) == len(stages) \
                and _foldable([state.model, *others]):
            try:
                state.model = ops.merge([state.model, *others],
                                        policy=stages[0].policy)
                return
            except Exception:
                pass  # the stages below fail the way they fail alone
        for i, s in enumerate(stages):
            if i < len(others):
                s.merge_into(state, others[i])
            elif i == len(others) and failure is not None:
                raise failure
            else:
                s(state)
    return stage


def _read_others(stages: list[_MergeStage], state: _State):
    """The OTHERs of ``stages`` read in stage order, and the exception that
    stopped the reading, if any.

    Reading stops after the first OTHER whose transform rules out one
    call (see ``_foldable``); the stages read the rest as they come.  The
    pipeline model is parsed after the first OTHER, where the first stage
    parses it.
    """
    others = []
    for s in stages:
        try:
            other = s.read_other()
            model = state.require_model("merge")
        except Exception as exc:
            return others, exc
        others.append(other)
        if other.transform != model.transform \
                or _quanta_per_unit(model.transform) is None:
            break
    return others, None


def _quanta_per_unit(transform):
    """10^d for a transform whose scale is 10^-d on every axis, 1 for no
    transform, and None for any other."""
    if transform is None:
        return 1
    return next((10 ** d for d in range(13)
                 if transform.scale == [1 / 10 ** d] * 3), None)


def _foldable(models) -> bool:
    """Whether one ``ops.merge`` call over ``models`` gives the bytes that
    merging them one at a time gives.

    It does when none is quantized: merging then copies and renumbers
    only.  It also does when all share one transform whose scale is
    10^-d: each step's re-encoding then shifts the stored integers by
    whole quanta and moves the translate to the running minimum, where
    the one call puts it at once.  That needs every decoded coordinate
    below 2^48 quanta, so that float rounding stays far from half a
    quantum.  Under any other transforms each step rounds afresh.
    """
    first = models[0].transform
    power = _quanta_per_unit(first)
    if power is None or any(m.transform != first for m in models):
        return False
    if first is None:
        return True
    stored = max((abs(c) for m in models for v in m.vertices for c in v),
                 default=0)
    return max(map(abs, first.translate)) * power + stored < 2 ** 48


@cli.command("partition")
@click.option("--grid", default=None, metavar="NXxNY",
              help="Grid split, e.g. 4x3.")
@click.option("--by-type", "by_type", is_flag=True,
              help="One part per first-level object type.")
@click.option("--random", "random_k", default=None, type=int, metavar="K",
              help="K parts by seeded random draw.")
@click.option("--seed", default=0, show_default=True, type=int,
              help="Seed for --random.")
@click.option("--out-dir", default=".", show_default=True,
              type=click.Path(file_okay=False),
              help="Directory receiving <stem>_<part-id>.json files.")
def partition_cmd(grid, by_type, random_k, seed, out_dir):
    """Split the model into part files; ends the pipeline."""
    chosen = sum(x is not None and x is not False
                 for x in (grid, by_type or None, random_k))
    if chosen != 1:
        raise click.UsageError(
            "partition needs exactly one of --grid, --by-type, --random")
    if grid is not None:
        try:
            nx, ny = (int(p) for p in grid.lower().split("x"))
        except ValueError:
            raise click.UsageError(f"--grid wants NXxNY, got {grid!r}")
        if nx < 1 or ny < 1:
            raise click.UsageError("--grid cells must be positive")

    def stage(state: _State):
        model = state.require_model("partition")
        if grid is not None:
            parts = ops.partition_grid(model, nx, ny)
        elif by_type:
            parts = ops.partition_by_type(model)
        else:
            parts = ops.partition_random(model, random_k, seed=seed)
        stem = Path(state.source).stem if state.source != "-" else "stdin"
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for pid, part in parts:
            target = directory / f"{stem}_{pid}.json"
            target.write_text(codec.dumps(part), encoding="utf-8")
            click.echo(str(target))
        state.finished = True
    return "partition", stage


# -- bookkeeping stages -------------------------------------------------------


@cli.command("textures-path")
@click.option("--base", required=True,
              help="New base for every texture image path.")
def textures_path_cmd(base):
    """Rebase texture image paths onto --base."""
    return _model_stage("textures-path",
                        lambda model: ops.update_texture_paths(model, base))


@cli.command("metadata")
def metadata_cmd():
    """Recompute derived metadata (extent, LoDs, appearance flags)."""
    return _model_stage("metadata", ops.refresh_metadata)


@cli.command("info")
def info_cmd():
    """Print summary statistics as JSON."""
    def stage(state: _State):
        click.echo(json.dumps(ops.stats(state.require_model("info")),
                              indent=2))
    return "info", stage


@cli.command("import")
def import_cmd():
    """Read the input as CityGML 2.0 (must be the first stage)."""
    from . import gml

    def stage(state: _State):
        if state.model is not None or state.text is None:
            raise click.UsageError("import must be the first stage")
        model, report = gml.import_citygml(codec.decode(state.text))
        state.model = model
        state.text = None
        for line in report.to_json_lines():
            click.echo(json.dumps(line), err=True)
    return "import", stage


@cli.command("save")
@click.argument("output", metavar="OUTPUT")
@click.option("--pretty", is_flag=True, help="Indent the JSON output.")
def save_cmd(output, pretty):
    """Write the model to OUTPUT ("-" = standard output, minified)."""
    def stage(state: _State):
        model = state.require_model("save")
        if output == "-":
            if pretty:
                raise click.UsageError(
                    "save -: standard output is minified only")
            sys.stdout.write(codec.dumps(model))
            sys.stdout.write("\n")
        else:
            Path(output).write_text(codec.dumps(model, pretty=pretty),
                                    encoding="utf-8")
    return "save", stage


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(3)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    main()
