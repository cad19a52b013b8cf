"""The ``--help`` text of the ``cjtk`` command, made from the command
line's table (``cli._STAGES``, ``cli._PIPELINE``); loaded only when
``--help`` is read."""

import textwrap


def _table(rows):
    width = max(len(label) for label, _ in rows)
    return "\n".join(textwrap.fill(text, 79, initial_indent=(
        f"  {label:<{width}}  "), subsequent_indent=" " * (width + 4))
        for label, text in rows)


def help_text(prog: str, spec, stages=None) -> str:
    """The help of the table entry ``spec``: a stage's, or, given the
    table of ``stages``, the command line's, which lists them."""
    make, entries = spec
    labels = {name: f"{name} {entry['metavar']}" if "metavar" in entry
              else name for name, entry in entries.items()}
    usage = [label if name.isupper() or entries[name].get("required")
             else f"[{label}]" for name, label in sorted(
                 labels.items(), key=lambda item: item[0].isupper())]
    usage += ["STAGE [STAGE ...]"] * (stages is not None)
    parts = [textwrap.fill(  # with no break inside an item
        " ".join(item.replace(" ", "\xa0") for item in usage), 79,
        initial_indent=f"usage: {prog} ",
        subsequent_indent=" " * len(f"usage: {prog} ")).replace("\xa0", " ")]
    parts += [textwrap.fill(" ".join(paragraph.split()), 79)
              for paragraph in make.__doc__.split("\n\n")]
    parts.append(_table([(labels[name], entry["help"])
                         for name, entry in entries.items()]
                        + [("--help", "Show this message and exit.")]))
    if stages is not None:
        parts += ["stages:\n" + _table([(name, fn.__doc__.splitlines()[0])
                                        for name, (fn, _) in stages.items()]),
                  "'cjtk INPUT STAGE --help' shows a stage's options."]
    return "\n\n".join(parts)
