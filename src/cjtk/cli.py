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

The command line is parsed whole before any stage runs, by one parser
that reads the table of stages (``_STAGES``), which also makes the help.
A stage's options come first, each followed by as many values as it
takes, even values that look like options or stage names (the first may
be attached: ``--id=x``); ``--`` ends them.  Its positionals come next,
and the next word starts the next stage.  The order rules are checked in
the same pass: ``import`` comes first or not at all, no stage follows
``partition``, and ``save --pretty -`` is refused, as are option values
out of range (``--random`` and ``--grid`` below 1).  So a usage error
(exit 3) leaves no output and writes no file.

The input is opened before any stage runs and read by the first stage
that needs a model, which hands the open file (or standard input) to its
reader and then closes it; a path that cannot be opened or read is a
usage error.  ``codec.parse`` frees the decoded text as soon as
``json.loads`` returns, so later stages run beside the model alone.
The input is parsed at most once, and a pipeline loads only what it
uses: each stage imports the library modules it calls when it runs.
Parsing a CityJSON input, and ``save``, load ``codec`` (with ``model``
and ``errors``); ``validate`` adds ``validation``, and ``extensions``
only when ``--extension`` names a file or ``CJTK_EXTENSIONS`` is set;
``compress``, ``decompress``, ``dedupe`` and ``clean`` add ``geomops``;
``subset``, ``merge``, ``partition``, ``textures-path``, ``metadata``
and ``info`` add ``ops`` (which loads ``geomops``); ``import`` adds
``gml``.  ``--help`` loads none of them: the help is made from
``_STAGES`` here, with ``textwrap``, which no stage loads.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path


class UsageError(Exception):
    """A command line, or a stage order, that the CLI refuses (exit 3)."""


class _State:
    """What flows between stages: the open input, then the model."""

    def __init__(self, source: str, extension_paths):
        self.source = source
        try:  # before any stage runs
            self.input = sys.stdin.buffer if source == "-" \
                else open(source, "rb")
        except OSError as exc:
            raise UsageError(f"cannot read {source}: {exc.strerror}") from None
        self.model = None
        self.exit = 0
        self.extension_paths = extension_paths

    def read(self, reader, *args):
        """``reader(input, *args)``, the input then closed; a read that
        fails is a usage error."""
        try:
            return reader(self.input, *args)
        except OSError as exc:
            raise UsageError(
                f"cannot read {self.source}: {exc.strerror}") from None
        finally:
            self.close()

    def close(self):
        """Let go of the input: a file is closed, standard input is not."""
        if self.input is not None and self.input is not sys.stdin.buffer:
            self.input.close()
        self.input = None

    def require_model(self):
        if self.model is None:
            from . import codec
            self.model, _ = self.read(codec.parse)
        return self.model


def _model_stage(module: str, op: str, **kwargs):
    """A stage that replaces the model with ``op(model, **kwargs)`` from
    the cjtk module ``module``, imported when the stage runs."""
    def stage(state: _State):
        import importlib
        model = state.require_model()
        library = importlib.import_module(f".{module}", __package__)
        state.model = getattr(library, op)(model, **kwargs)
    return stage


def _echo(text: str, file=None):
    """Write one line and flush, so a stage's output precedes what later
    stages write to the other stream."""
    print(text, file=file or sys.stdout, flush=True)


def run_pipeline(processors, input, extension_paths=()):
    """Process the CityJSON (or CityGML) file INPUT through a pipeline of
    stages."""
    from .errors import CjtkError

    state = _State(input, extension_paths)
    try:
        for name, processor in _merge_runs_folded(processors):
            try:
                processor(state)
            except UsageError:
                raise
            except CjtkError as exc:
                _fail(f"{name}: [{exc.code}] {exc.message}"
                      + (f" at {exc.path}" if exc.path else ""))
            except Exception as exc:
                _fail(f"{name}: [INTERNAL_ERROR] {type(exc).__name__}: "
                      f"{exc}")
            if state.exit >= 2:
                break
    finally:  # an input no stage read, as when a merge's OTHER fails first
        state.close()
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


def validate_cmd(as_json=False):
    """Check the model; exit 0 valid, 1 warnings only, 2 errors."""
    def stage(state: _State):
        from . import validation
        from .errors import ERROR, WARNING

        exts = []
        if state.extension_paths or os.environ.get(validation.ENV_VAR):
            from . import extensions
            exts = extensions.discover() + [extensions.load_extension(path)
                                            for path in state.extension_paths]
        if state.model is None:
            # Later stages reuse the model parsed here.
            state.model, findings = state.read(
                validation.parse_and_validate, exts)
        else:
            findings = validation.validate(state.model, exts)
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


def compress_cmd(digits=3):
    """Quantize vertices onto an integer grid with a transform."""
    return _model_stage("geomops", "quantize", digits=digits, requantize=True)


def decompress_cmd():
    """Expand quantized vertices back to real-world floats."""
    return _model_stage("geomops", "dequantize")


def dedupe_cmd(tolerance=0.0):
    """Merge duplicate (or near-duplicate) vertices."""
    return _model_stage("geomops", "dedupe_vertices", tolerance=tolerance)


def clean_cmd():
    """Drop vertices no geometry references."""
    return _model_stage("geomops", "remove_orphan_vertices")


# -- object stages ------------------------------------------------------------


def subset_cmd(ids=None, types=None, bbox=None):
    """Keep a selection of objects (plus their children)."""
    if not ids and not types and bbox is None:
        raise UsageError("subset needs --id, --type, or --bbox")
    return _model_stage("ops", "subset", ids=ids, types=types, bbox=bbox)


def merge_cmd(other, policy="error"):
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
                other = codec.load(s.other)
                state.require_model()
                others.append(other)
            state.model = ops.merge([state.model, *others], policy=policy)
        except Exception:
            model = state.model
            for other in others:
                model = ops.merge([model, other], policy=policy)
            raise
    return stage


def partition_cmd(grid=None, by_type=False, random_k=None, seed=0,
                  out_dir="."):
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
    if random_k is not None and random_k < 1:
        raise UsageError("--random K must be positive")

    def stage(state: _State):
        from . import codec, ops
        model = state.require_model()
        if grid is not None:
            parts = ops.partition_grid(model, nx, ny)
        elif by_type:
            parts = ops.partition_by_type(model)
        else:
            parts = ops.partition_random(model, random_k, seed=seed)
        stem = Path(state.source).stem if state.source != "-" else "stdin"
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        # Every part is written, or none, before any path is printed.
        targets = [directory / f"{stem}_{pid}.json" for pid, _ in parts]
        codec.dump_all([part for _, part in parts], targets)
        for target in targets:
            _echo(str(target))
    return stage


# -- bookkeeping stages -------------------------------------------------------


def textures_path_cmd(base):
    """Rebase texture image paths onto --base."""
    return _model_stage("ops", "update_texture_paths", base=base)


def metadata_cmd():
    """Recompute derived metadata (extent, LoDs, appearance flags)."""
    return _model_stage("ops", "refresh_metadata")


def info_cmd():
    """Print summary statistics as JSON."""
    def stage(state: _State):
        from . import ops
        _echo(json.dumps(ops.stats(state.require_model()), indent=2))
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
        state.model, report = state.read(gml.import_citygml)
        for line in report.to_json_lines():
            _echo(json.dumps(line), sys.stderr)
    return stage


def save_cmd(output, pretty=False):
    """Write the model to OUTPUT ("-" = standard output, minified)."""
    if output == "-" and pretty:
        raise UsageError("save -: standard output is minified only")

    def stage(state: _State):
        from .codec import dump
        model = state.require_model()
        if output == "-":
            dump(model, sys.stdout)
            sys.stdout.write("\n")
        else:
            dump(model, output, pretty=pretty)
    return stage


# -- the command line ---------------------------------------------------------


def _existing_file(path: str) -> str:
    if not Path(path).exists():
        raise ValueError(f"file {path!r} does not exist")
    if Path(path).is_dir():
        raise ValueError(f"file {path!r} is a directory")
    return path


def _not_a_file(path: str) -> str:
    if Path(path).is_file():
        raise ValueError(f"directory {path!r} is a file")
    return path


# Every stage: the function that makes it from its parsed arguments (its
# docstring is the stage's help), and its options and positionals (named
# in capitals).  An option takes ``nargs`` words (default 1), the last
# occurrence winning unless ``append`` collects them all; one not given
# takes the default of the parameter it sets (``dest``, else its name).
# ``type`` converts each word, ``choices`` limits it and ``metavar``
# stands for it in the help.  ``_PIPELINE`` is the same for the words
# before the first stage.
_STAGES = {
    "validate": (validate_cmd, {
        "--json": dict(nargs=0, dest="as_json",
                       help="Report findings as JSON lines instead of text.")}),
    "compress": (compress_cmd, {
        "--digits": dict(type=int, choices=range(13), metavar="0..12",
                         help="Decimal digits kept (quantum = 10^-digits; "
                              "default 3).")}),
    "decompress": (decompress_cmd, {}),
    "dedupe": (dedupe_cmd, {
        "--tolerance": dict(type=float, metavar="TOLERANCE", help="Merge "
                            "vertices within this per-axis distance (stored "
                            "units; default 0).")}),
    "clean": (clean_cmd, {}),
    "subset": (subset_cmd, {
        "--id": dict(dest="ids", append=True, metavar="ID",
                     help="Keep this object (repeatable)."),
        "--type": dict(dest="types", append=True, metavar="TYPE",
                       help="Keep objects of this type (repeatable)."),
        "--bbox": dict(nargs=4, type=float, metavar="MINX MINY MAXX MAXY",
                       help="Keep objects whose extent centroid falls in "
                            "the box.")}),
    "merge": (merge_cmd, {
        "OTHER": dict(type=_existing_file,
                      help="The CityJSON file to merge in."),
        "--policy": dict(choices=["error", "suffix"], metavar="{error,suffix}",
                         help="What to do when two inputs share an object "
                              "id (default error).")}),
    "partition": (partition_cmd, {
        "--grid": dict(metavar="NXxNY", help="Grid split, e.g. 4x3."),
        "--by-type": dict(nargs=0,
                          help="One part per first-level object type."),
        "--random": dict(dest="random_k", type=int, metavar="K",
                         help="K parts by seeded random draw."),
        "--seed": dict(type=int, metavar="SEED",
                       help="Seed for --random (default 0)."),
        "--out-dir": dict(type=_not_a_file, metavar="DIR",
                          help="Directory receiving <stem>_<part-id>.json "
                               "files (default .).")}),
    "textures-path": (textures_path_cmd, {
        "--base": dict(required=True, metavar="BASE",
                       help="New base for every texture image path.")}),
    "metadata": (metadata_cmd, {}),
    "info": (info_cmd, {}),
    "import": (import_cmd, {}),
    "save": (save_cmd, {
        "OUTPUT": dict(help="The file to write; - for standard output."),
        "--pretty": dict(nargs=0, help="Indent the JSON output.")}),
}

_PIPELINE = (run_pipeline, {
    "INPUT": dict(help="CityJSON or CityGML file; - for standard input."),
    "--extension": dict(dest="extension_paths", append=True,
                        type=_existing_file, metavar="FILE",
                        help="Extension file to validate against "
                             "(repeatable); the CJTK_EXTENSIONS variable "
                             "adds a default search path.")})


def _take(prog: str, spec, args: list[str]) -> dict:
    """Remove the words of one stage (or, with ``_PIPELINE``, those before
    the first stage) from the front of ``args`` and return its arguments;
    ``--help`` among its options prints the help and exits."""
    entries, values = spec[1], {}
    while args and args[0].startswith("-") and args[0] != "-":
        word = args.pop(0)
        if word == "--":
            break
        if word == "--help":
            _help(prog, spec)
        flag, attached, value = word.partition("=")
        if flag not in entries:
            raise UsageError(f"{prog}: unrecognized option {word!r}")
        nargs, words = entries[flag].get("nargs", 1), [value] * bool(attached)
        need = nargs - len(words)
        if not 0 <= need <= len(args):
            raise UsageError(f"{prog}: {flag} takes {nargs} value(s)")
        words += args[:need]
        del args[:need]
        _put(prog, flag, entries[flag], words, values)
    for name, entry in entries.items():
        if name.isupper():
            if not args:
                raise UsageError(f"{prog}: {name} is required")
            _put(prog, name, entry, [args.pop(0)], values)
        elif entry.get("required") and _dest(name, entry) not in values:
            raise UsageError(f"{prog}: {name} is required")
    return values


def _dest(name: str, entry: dict) -> str:
    return entry.get("dest") or name.lstrip("-").replace("-", "_").lower()


def _put(prog: str, name: str, entry: dict, words: list[str], values: dict):
    """Put the value that ``words`` give the option or positional ``name``
    into ``values``."""
    try:
        given = [entry.get("type", str)(word) for word in words]
    except ValueError as exc:
        raise UsageError(f"{prog}: {name}: {exc}") from None
    if any(value not in entry.get("choices", [value]) for value in given):
        raise UsageError(f"{prog}: {name}: {words[0]!r} is not in "
                         f"{entry['metavar']}")
    nargs, dest = entry.get("nargs", 1), _dest(name, entry)
    if entry.get("append"):
        values.setdefault(dest, []).extend(given)
    else:  # a flag, given no words, is True
        values[dest] = given[0] if nargs == 1 else given or True


def _help(prog: str, spec):
    """Print the help of ``spec``'s stage, or of the command line (which
    lists the stages) for ``_PIPELINE``, and exit."""
    import textwrap  # the help alone loads it

    def table(rows):
        width = max(len(label) for label, _ in rows)
        return "\n".join(textwrap.fill(text, 79, initial_indent=(
            f"  {label:<{width}}  "), subsequent_indent=" " * (width + 4))
            for label, text in rows)

    make, entries = spec
    labels = {name: f"{name} {entry['metavar']}" if "metavar" in entry
              else name for name, entry in entries.items()}
    usage = [label if name.isupper() or entries[name].get("required")
             else f"[{label}]" for name, label in sorted(
                 labels.items(), key=lambda item: item[0].isupper())]
    usage += ["STAGE [STAGE ...]"] * (spec is _PIPELINE)
    parts = [textwrap.fill(  # with no break inside an item
        " ".join(item.replace(" ", "\xa0") for item in usage), 79,
        initial_indent=f"usage: {prog} ",
        subsequent_indent=" " * len(f"usage: {prog} ")).replace("\xa0", " ")]
    parts += [textwrap.fill(" ".join(paragraph.split()), 79)
              for paragraph in make.__doc__.split("\n\n")]
    parts.append(table([(labels[name], entry["help"])
                        for name, entry in entries.items()]
                       + [("--help", "Show this message and exit.")]))
    if spec is _PIPELINE:
        parts += ["stages:\n" + table([(name, fn.__doc__.splitlines()[0])
                                       for name, (fn, _) in _STAGES.items()]),
                  "'cjtk INPUT STAGE --help' shows a stage's options."]
    try:  # best-effort, as the error lines are: the exit code stays 0
        _echo("\n\n".join(parts))
    except OSError:
        pass
    sys.exit(0)


def _parse(argv: list[str]):
    """The stages of a command line, and the arguments that the words
    before them give ``run_pipeline``."""
    args = list(argv)
    top = _take("cjtk", _PIPELINE, args)
    processors = []
    while args:
        name = args.pop(0)
        if name == "--help":  # "cjtk INPUT --help" shows this help too
            _help("cjtk", _PIPELINE)
        if name not in _STAGES:
            raise UsageError(f"no such stage {name!r} (see cjtk --help)")
        spec = _STAGES[name]
        values = _take(f"cjtk INPUT {name}", spec, args)
        if name == "import" and processors:
            raise UsageError("import must be the first stage")
        if processors and processors[-1][0] == "partition":
            raise UsageError(
                f"{name}: the pipeline already ended with partition")
        processors.append((name, spec[0](**values)))
    if not processors:
        raise UsageError("no stage given (see cjtk --help)")
    return processors, top


def main(argv: list[str] | None = None):
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and exit
    with its code; the in-process entry, which leaves ``gc`` alone."""
    import signal
    if hasattr(signal, "SIGPIPE"):
        # A reader that stops early (``| head``) ends the process as it
        # ends ``cat``: by SIGPIPE, with nothing on stderr.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        processors, top = _parse(sys.argv[1:] if argv is None else argv)
        run_pipeline(processors, **top)
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
