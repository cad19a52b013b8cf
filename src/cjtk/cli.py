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
The error and usage lines are written best-effort: a standard error that
cannot be written leaves the exit code as it is.
Where the platform has SIGPIPE, a reader that closes standard output early
ends the process by that signal, silently, as it ends ``cat``.

The command line is parsed whole before any stage runs.  A stage's
options come first, each followed by as many values as it takes, then
its positionals; the next word starts the next stage.

The input is parsed at most once, and a pipeline loads only what it
uses: each stage imports the library modules it calls when it runs.
Parsing a CityJSON input loads ``codec`` (with ``model`` and
``errors``); ``validate`` adds ``validation`` and ``extensions``;
``compress``, ``decompress``, ``dedupe`` and ``clean`` add ``geomops``;
``subset``, ``merge``, ``partition``, ``textures-path``, ``metadata``
and ``info`` add ``ops`` (which loads ``geomops``); ``import`` adds
``gml``.  ``--help`` loads none of them.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
from pathlib import Path


class UsageError(Exception):
    """A command line, or a stage order, that the CLI refuses (exit 3)."""


class _State:
    """What flows between stages: the input text until something needs a
    model."""

    def __init__(self, source: str, text, extension_paths):
        self.source = source
        self.text: str | bytes | io.BufferedIOBase | None = text
        self.model = None
        self.exit = 0
        self.finished = False
        self.extension_paths = extension_paths

    def take_text(self) -> str | bytes | io.BufferedIOBase:
        """The input text (or file), which the state then lets go of, so
        that the reader that takes it can free it as it goes."""
        text, self.text = self.text, None
        return text

    def require_model(self, stage: str):
        if self.finished:
            raise UsageError(
                f"{stage}: the pipeline already ended with partition")
        if self.model is None:
            from . import codec
            self.model, _ = codec.parse(self.text)
            self.text = None
        return self.model


def _model_stage(name: str, module: str, op: str, **kwargs):
    """The stage ``name``, which replaces the model with
    ``op(model, **kwargs)`` from the cjtk module ``module``, imported when
    the stage runs."""
    def stage(state: _State):
        import importlib
        model = state.require_model(name)
        library = importlib.import_module(f".{module}", __package__)
        state.model = getattr(library, op)(model, **kwargs)
    return stage


def _read_input(source: str,
                citygml: bool) -> str | bytes | io.BufferedIOBase:
    """The input.  CityGML comes as the open binary file, standard input
    included, for the importer to read in chunks.  Other input comes as
    its text, decoded here so that its bytes are not kept while it is
    parsed; bytes that are not UTF-8 stay bytes, for the JSON parser to
    report as SYNTAX_ERROR."""
    if source == "-":
        return sys.stdin.buffer if citygml \
            else _decoded(sys.stdin.buffer.read())
    try:
        return open(source, "rb") if citygml \
            else _decoded(Path(source).read_bytes())
    except OSError as exc:
        raise UsageError(f"cannot read {source}: {exc.strerror}") from None


def _decoded(data: bytes) -> str | bytes:
    from . import codec
    try:
        return codec.decode(data)
    except codec.CodecError:
        return data


def _echo(text: str, file=None):
    """Write one line and flush, so a stage's output precedes what later
    stages write to the other stream."""
    print(text, file=file or sys.stdout, flush=True)


def run_pipeline(processors, input, extension_paths):
    from .errors import CjtkError

    # CityGML is read as bytes, in the encoding its XML declaration names:
    # decoded, a single character beyond U+FFFF would make every
    # character of the text take four bytes.  A file is opened here, so
    # that a path that cannot be read is a usage error before any stage.
    state = _State(input, _read_input(input, processors[0][0] == "import"),
                   extension_paths)
    for name, processor in _merge_runs_folded(processors):
        try:
            processor(state)
        except UsageError:
            raise
        except CjtkError as exc:
            _fail(f"{name}: [{exc.code}] {exc.message}"
                  + (f" at {exc.path}" if exc.path else ""))
        except Exception as exc:
            _fail(f"{name}: [INTERNAL_ERROR] {type(exc).__name__}: {exc}")
        if state.exit >= 2:
            break
    sys.exit(state.exit)


def _fail(message: str):
    _complain(f"Error: {message}")
    sys.exit(2)


def _complain(text: str):
    """Write one line to standard error, best-effort: a stream that cannot
    be written (a full disk, ``2>/dev/full``) must not change the exit
    code that follows."""
    try:
        _echo(text, sys.stderr)
    except OSError:
        pass


# -- validation ---------------------------------------------------------------


def validate_cmd(as_json):
    """Check the model; exit 0 valid, 1 warnings only, 2 errors."""
    def stage(state: _State):
        from . import extensions, validation
        from .errors import ERROR, WARNING

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
        if findings:
            _echo("\n".join(
                json.dumps(f.to_json()) if as_json else
                f"{f.severity}: [{f.code}] {f.path or '<root>'}"
                + (f" — {f.message}" if f.message else "")
                for f in findings))
        if any(f.severity == ERROR for f in findings):
            state.exit = 2
        elif any(f.severity == WARNING for f in findings):
            state.exit = max(state.exit, 1)
    return stage


# -- coordinate stages --------------------------------------------------------


def compress_cmd(digits):
    """Quantize vertices onto an integer grid with a transform."""
    return _model_stage("compress", "geomops", "quantize", digits=digits,
                        requantize=True)


def decompress_cmd():
    """Expand quantized vertices back to real-world floats."""
    return _model_stage("decompress", "geomops", "dequantize")


def dedupe_cmd(tolerance):
    """Merge duplicate (or near-duplicate) vertices."""
    return _model_stage("dedupe", "geomops", "dedupe_vertices",
                        tolerance=tolerance)


def clean_cmd():
    """Drop vertices no geometry references."""
    return _model_stage("clean", "geomops", "remove_orphan_vertices")


# -- object stages ------------------------------------------------------------


def subset_cmd(ids, types, bbox):
    """Keep a selection of objects (plus their children)."""
    if not ids and not types and bbox is None:
        raise UsageError("subset needs --id, --type, or --bbox")
    return _model_stage("subset", "ops", "subset", ids=ids or None,
                        types=types or None,
                        bbox=bbox[-4:] if bbox else None)  # the last --bbox


def merge_cmd(other, policy):
    """Merge the pipeline model with OTHER (another CityJSON file).

    Chain several merge stages to combine more than two files.
    Consecutive merge stages with one policy make one merge of the
    pipeline model and every OTHER, whatever their transforms.
    """
    return _MergeStage(other, policy)


class _MergeStage:
    """One ``merge OTHER --policy P`` stage, run with its neighbours of one
    policy by ``_merge_run``."""

    def __init__(self, other: str, policy: str):
        self.other = other
        self.policy = policy


def _merge_runs_folded(processors):
    """The pipeline's stages, with each run of consecutive merge stages of
    one policy turned into one stage."""
    def policy(processor):
        return processor[1].policy \
            if isinstance(processor[1], _MergeStage) else None

    for run_policy, run in itertools.groupby(processors, key=policy):
        if run_policy is None:
            yield from run
        else:
            yield "merge", _merge_run([stage for _, stage in run])


def _merge_run(stages: list[_MergeStage]):
    """The stage for consecutive merge stages of one policy.

    It reads and parses each OTHER once, in stage order (the pipeline model
    after the first, where the first stage parses it), and makes one
    ``ops.merge`` call over the pipeline model and every OTHER.  When a
    read or the call fails, the OTHERs already read are merged one by one
    before the error is raised, so a failure is the first failing stage's,
    reported as that stage reports it.
    """
    def stage(state: _State):
        from . import codec, ops
        policy = stages[0].policy
        others = []
        try:
            for s in stages:
                other, _ = codec.parse(Path(s.other).read_bytes())
                state.require_model("merge")
                others.append(other)
            state.model = ops.merge([state.model, *others], policy=policy)
        except Exception:
            model = state.model
            for other in others:
                model = ops.merge([model, other], policy=policy)
            raise
    return stage


def partition_cmd(grid, by_type, random_k, seed, out_dir):
    """Split the model into part files; ends the pipeline."""
    chosen = sum(x is not None and x is not False
                 for x in (grid, by_type or None, random_k))
    if chosen != 1:
        raise UsageError(
            "partition needs exactly one of --grid, --by-type, --random")
    if grid is not None:
        try:
            nx, ny = (int(p) for p in grid.lower().split("x"))
        except ValueError:
            raise UsageError(f"--grid wants NXxNY, got {grid!r}")
        if nx < 1 or ny < 1:
            raise UsageError("--grid cells must be positive")

    def stage(state: _State):
        from . import codec, ops
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
            codec.dump(part, target)
            _echo(str(target))
        state.finished = True
    return stage


# -- bookkeeping stages -------------------------------------------------------


def textures_path_cmd(base):
    """Rebase texture image paths onto --base."""
    return _model_stage("textures-path", "ops", "update_texture_paths",
                        base=base)


def metadata_cmd():
    """Recompute derived metadata (extent, LoDs, appearance flags)."""
    return _model_stage("metadata", "ops", "refresh_metadata")


def info_cmd():
    """Print summary statistics as JSON."""
    def stage(state: _State):
        from . import ops
        _echo(json.dumps(ops.stats(state.require_model("info")), indent=2))
    return stage


def import_cmd():
    """Read the input as CityGML 2.0 (must be the first stage).

    A file is read in chunks and converted one member at a time, each
    freed once converted; a document whose links cross members is parsed
    a second time, whole.  Standard input is read the same way where it
    can seek (a redirected file); a pipe is read whole first.  The import
    report goes to standard error as JSON lines.
    """
    def stage(state: _State):
        from . import gml
        if state.model is not None or state.text is None:
            raise UsageError("import must be the first stage")
        source = state.take_text()  # the open file, or standard input
        try:
            state.model, report = gml.import_citygml(source)
        finally:
            if source is not sys.stdin.buffer:
                source.close()
        for line in report.to_json_lines():
            _echo(json.dumps(line), sys.stderr)
    return stage


def save_cmd(output, pretty):
    """Write the model to OUTPUT ("-" = standard output, minified)."""
    def stage(state: _State):
        from . import codec
        model = state.require_model("save")
        if output == "-":
            if pretty:
                raise UsageError("save -: standard output is minified only")
            codec.dump(model, sys.stdout)
            sys.stdout.write("\n")
        else:
            codec.dump(model, output, pretty=pretty)
    return stage


# -- the command line ---------------------------------------------------------


def _existing_file(path: str) -> str:
    if not Path(path).exists():
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if Path(path).is_dir():
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _not_a_file(path: str) -> str:
    if Path(path).is_file():
        raise argparse.ArgumentTypeError(f"directory {path!r} is a file")
    return path


def _option(nargs: int, help: str, **kwargs):
    """An option that takes ``nargs`` words as its values (0: a flag), with
    argparse's add_argument keywords.  argparse is given each value
    attached to the option (see ``_take``), so an option of several values
    collects them one by one."""
    action = {0: "store_true", 1: "store"}.get(nargs, "append")
    return nargs, {"action": action, **kwargs, "help": help}


# Every stage: the function that makes it from its parsed arguments (its
# docstring is the stage's help), its positionals as argparse's
# add_argument takes them, and its options.
_STAGES = {
    "validate": (validate_cmd, {}, {
        "--json": _option(0, "Report findings as JSON lines instead of text.",
                          dest="as_json")}),
    "compress": (compress_cmd, {}, {
        "--digits": _option(1, "Decimal digits kept (quantum = 10^-digits; "
                               "default 3).", default=3, type=int,
                            choices=range(13), metavar="0..12")}),
    "decompress": (decompress_cmd, {}, {}),
    "dedupe": (dedupe_cmd, {}, {
        "--tolerance": _option(1, "Merge vertices within this per-axis "
                                  "distance (stored units; default 0).",
                               default=0.0, type=float)}),
    "clean": (clean_cmd, {}, {}),
    "subset": (subset_cmd, {}, {
        "--id": _option(1, "Keep this object (repeatable).", dest="ids",
                        action="append", default=[], metavar="ID"),
        "--type": _option(1, "Keep objects of this type (repeatable).",
                          dest="types", action="append", default=[],
                          metavar="TYPE"),
        "--bbox": _option(4, "Keep objects whose extent centroid falls in "
                             "the box.", type=float,
                          metavar="MINX MINY MAXX MAXY")}),
    "merge": (merge_cmd, {"other": dict(metavar="OTHER",
                                        type=_existing_file)}, {
        "--policy": _option(1, "What to do when two inputs share an object "
                               "id (default error).", default="error",
                            choices=["error", "suffix"])}),
    "partition": (partition_cmd, {}, {
        "--grid": _option(1, "Grid split, e.g. 4x3.", metavar="NXxNY"),
        "--by-type": _option(0, "One part per first-level object type."),
        "--random": _option(1, "K parts by seeded random draw.",
                            dest="random_k", type=int, metavar="K"),
        "--seed": _option(1, "Seed for --random (default 0).", default=0,
                          type=int),
        "--out-dir": _option(1, "Directory receiving <stem>_<part-id>.json "
                                "files (default .).", default=".",
                             type=_not_a_file, metavar="DIR")}),
    "textures-path": (textures_path_cmd, {}, {
        "--base": _option(1, "New base for every texture image path.",
                          required=True)}),
    "metadata": (metadata_cmd, {}, {}),
    "info": (info_cmd, {}, {}),
    "import": (import_cmd, {}, {}),
    "save": (save_cmd, {"output": dict(metavar="OUTPUT")}, {
        "--pretty": _option(0, "Indent the JSON output.")}),
}

_PIPELINE = (None, {
    "input": dict(metavar="INPUT",
                  help="CityJSON or CityGML file; - for standard input.")}, {
    "--extension": _option(1, "Extension file to validate against "
                              "(repeatable); the CJTK_EXTENSIONS variable "
                              "adds a default search path.",
                           dest="extension_paths", action="append",
                           default=[], type=_existing_file, metavar="FILE")})


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are ``UsageError``s."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parser(prog: str, spec, **kwargs) -> _Parser:
    _, positionals, options = spec
    parser = _Parser(prog=prog, add_help=False, allow_abbrev=False,
                     **kwargs)
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    for name, kw in positionals.items():
        parser.add_argument(name, **kw)
    for flag, (_, kw) in options.items():
        parser.add_argument(flag, **kw)
    return parser


def _pipeline_parser() -> _Parser:
    width = max(map(len, _STAGES))
    stages = "\n".join(f"  {name:<{width}}  {fn.__doc__.splitlines()[0]}"
                       for name, (fn, _, _) in _STAGES.items())
    return _parser(
        "cjtk", _PIPELINE,
        usage="%(prog)s [--extension FILE] INPUT STAGE [STAGE ...]",
        description="Process the CityJSON (or CityGML) file INPUT through "
                    "a pipeline of stages.",
        epilog=f"stages:\n{stages}\n\n"
               "'cjtk INPUT STAGE --help' shows a stage's options.",
        formatter_class=argparse.RawDescriptionHelpFormatter)


def _take(spec, args: list[str]) -> list[str]:
    """Remove the words of one stage from the front of ``args`` and return
    them as argparse should read them.

    The stage's options come first.  Each takes the words after it as its
    values, as many as it has, even words that look like options or stage
    names; its first value may also be attached (``--id=x``).  Each value
    goes to argparse attached to its option, so that argparse reads it as
    a value too.  ``--`` ends the options.  The stage's positionals come
    next, and the word after them starts the next stage.
    """
    _, positionals, options = spec
    words = []
    while args and args[0].startswith("-") and args[0] != "-":
        word = args.pop(0)
        if word == "--":
            break
        flag, attached, value = word.partition("=")
        nargs = options[flag][0] if flag in options else 0
        if nargs == 0:
            words.append(word)  # argparse refuses an unknown word or a value
            continue
        values = [value] if attached else []
        missing = nargs - len(values)
        if len(args) < missing:
            raise UsageError(f"{flag} takes {nargs} value(s)")
        values += args[:missing]
        del args[:missing]
        words += [f"{flag}={v}" for v in values]
    if positionals and args:
        words.append("--")
        words += args[:len(positionals)]
        del args[:len(positionals)]
    return words


def _parse(argv: list[str]):
    """The input, extension files and stages of a command line."""
    args = list(argv)
    pipeline = _pipeline_parser()
    top = pipeline.parse_args(_take(_PIPELINE, args))
    processors = []
    while args:
        name = args.pop(0)
        if name == "--help":  # "cjtk INPUT --help" shows this help too
            pipeline.parse_args([name])
        if name not in _STAGES:
            raise UsageError(f"no such stage {name!r} (see cjtk --help)")
        spec = _STAGES[name]
        parsed = _parser(f"cjtk INPUT {name}", spec,
                         description=spec[0].__doc__).parse_args(
            _take(spec, args))
        processors.append((name, spec[0](**vars(parsed))))
    if not processors:
        raise UsageError("no stage given (see cjtk --help)")
    return processors, top.input, top.extension_paths


def main(argv: list[str] | None = None):
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and exit
    with its code; the in-process entry, which leaves ``gc`` alone."""
    import signal
    if hasattr(signal, "SIGPIPE"):
        # A reader that stops early (``| head``) ends the process as it
        # ends ``cat``: by SIGPIPE, with nothing on stderr.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        run_pipeline(*_parse(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        _complain(f"usage error: {exc}")
        sys.exit(3)
    except KeyboardInterrupt:
        _complain("")
        sys.exit(130)


def entry():
    """The ``cjtk`` command: ``main()``, then every live object moved into
    the collector's permanent generation, which the interpreter's
    exit-time collections skip.  Shutdown is otherwise unchanged: atexit
    handlers, the flush of the standard streams and the exit code."""
    import gc
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
