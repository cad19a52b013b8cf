"""The reader's reports of a malformed document, loaded only for one that
has a duplicate key or an escaped surrogate: each names the first offence
by its slash-separated path."""

from .errors import CodecError


def _nodes(root):
    """Every value of a parsed document with its slash-separated path, each
    container before what it holds."""
    stack = [(root, "")]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, dict):
            for k, v in node.items():
                stack.append((v, f"{path}/{k}" if path else str(k)))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                stack.append((v, f"{path}/{i}"))


def raise_lone_surrogates(root) -> None:
    # An escaped surrogate that is not half of a pair decodes to a str that
    # UTF-8 cannot encode.  The path is the string's, or for a key the
    # object's, and so never holds the surrogate itself.
    for node, path in _nodes(root):
        strings = node if isinstance(node, dict) else \
            [node] if isinstance(node, str) else ()
        for s in strings:
            try:
                s.encode("utf-8")
            except UnicodeEncodeError:
                raise CodecError("SYNTAX_ERROR", "unpaired surrogate escape "
                                 "in a string (RFC 8259, section 8.2)",
                                 path=path) from None


def raise_duplicates(root, duplicates: dict) -> None:
    # Resolve each offending dict back to its document path; report the
    # first offence in path order.  The CityObjects dict gets its own code
    # because its keys are object identifiers.
    paths = {id(node): path for node, path in _nodes(root)
             if isinstance(node, dict)}
    offences = []
    for did, keys in duplicates.items():
        where = paths.get(did, "?")
        for k in keys:
            offences.append((f"{where}/{k}" if where else str(k), where, k))
    offences.sort()
    path, where, key = offences[0]
    if where == "CityObjects":
        raise CodecError("DUPLICATE_ID",
                         f"identifier {key!r} appears more than once", path=path)
    raise CodecError("DUPLICATE_KEY", f"key {key!r} appears more than once",
                     path=path)
