"""External formats: poset/tuple/family/form JSON, the text poset form, DOT.

All emitters are deterministic (element-index order throughout) so that
equal values serialize byte-identically; every parser rejects malformed
input with ParseError carrying line/column information where available.
"""

from __future__ import annotations

import json
from typing import Any

from .classify import PAYLOAD_KEYS, NormalForm, form_defect
from .errors import ParseError
from .families import ChainFamily, family
from .poset import Poset, build_poset
from .tuples import SubsetTuple

RELATION_SEPARATOR = " < "


# -- posets

def poset_to_dict(P: Poset) -> dict:
    return {"elements": list(P.elements), "relations": _relations(P)}


def _relations(P: Poset) -> list[str]:
    """The cover relations as ``lower < upper`` strings."""
    return [f"{P.elements[i]}{RELATION_SEPARATOR}{P.elements[j]}"
            for i, j in P.covers]


def _split_relation(text: str, line: int | None = None) -> tuple[str, str]:
    pieces = text.split(RELATION_SEPARATOR)
    if len(pieces) != 2 or not pieces[0] or not pieces[1]:
        raise ParseError(
            f"relation {text!r} must be exactly 'lower{RELATION_SEPARATOR}upper'",
            line=line)
    return pieces[0], pieces[1]


def poset_from_dict(data: Any) -> Poset:
    """The poset of a poset document, or of a document with a ``poset``
    field, which is read through it: ``catalog emit --format json`` writes
    the entry's poset there."""
    if isinstance(data, dict) and "poset" in data:
        data = data["poset"]
    if (not isinstance(data, dict) or not isinstance(data.get("elements"), list)
            or not isinstance(data.get("relations"), list)):
        raise ParseError("poset document needs 'elements' and 'relations' lists")
    for e in data["elements"]:
        _label(e)
    relations = [_split_relation(_text(rel, "relation"))
                 for rel in data["relations"]]
    return build_poset(data["elements"], relations)


def _text(value: Any, what: str) -> str:
    """A string that encodes as UTF-8: JSON's ``\\ud800`` escapes decode
    to lone surrogates, which a UTF-8 output stream cannot print."""
    if not isinstance(value, str):
        raise ParseError(f"{what} {value!r} is not a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"{what} {value!r} holds a lone surrogate") from None
    return value


def _label(value: Any, line: int | None = None) -> str:
    """A label the text form carries: one non-empty line (as ``splitlines``
    reads it), no outer whitespace, no ``<`` (relation) or ``#`` (comment),
    and no leading ``{`` or ``[``, which would make ``load_poset`` read the
    text form as JSON."""
    label = _text(value, "element")
    if (label.splitlines() != [label] or label.strip() != label
            or "<" in label or "#" in label or label[0] in "{["):
        raise ParseError(f"element {label!r} must be one non-empty line "
                         "without outer whitespace, '<' or '#', and must "
                         "not start with '{' or '['", line=line)
    return label


def poset_to_text(P: Poset) -> str:
    return "\n".join(list(P.elements) + _relations(P)) + "\n"


def poset_from_text(text: str) -> Poset:
    """Line-oriented form: an element or a relation per line, '#' comments.

    Elements may be introduced implicitly by relations; the element order
    is the order of first appearance.
    """
    elements: list[str] = []
    seen: set[str] = set()
    relations: list[tuple[str, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "<" in stripped:
            names = _split_relation(stripped, line=number)
            relations.append(names)
        else:
            names = (stripped,)
        for e in names:
            if e not in seen:
                seen.add(_label(e, line=number))
                elements.append(e)
    return build_poset(elements, relations)


def poset_to_dot(P: Poset) -> str:
    ids = ['"%s"' % e.replace("\\", "\\\\").replace('"', '\\"')
           for e in P.elements]
    lines = ["digraph poset {"]
    lines += [f"  {e};" for e in ids]
    lines += [f"  {ids[i]} -> {ids[j]};" for i, j in P.covers]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subset tuples

def tuple_to_lists(P: Poset, parts: SubsetTuple) -> list[list[str]]:
    return [list(P.labels(part)) for part in parts]


def tuple_from_lists(P: Poset, data: Any) -> SubsetTuple:
    if not isinstance(data, list) or not data:
        raise ParseError("a subset tuple is a non-empty array of arrays")
    return tuple(_subset(P, part, "tuple part") for part in data)


# -- chain families

def family_to_dict(P: Poset, F: ChainFamily) -> dict:
    return {"generators": [list(P.labels(g)) for g in F.sorted_generators()]}


def family_from_dict(P: Poset, data: Any) -> ChainFamily:
    if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
        raise ParseError("a chain family document needs a 'generators' array")
    gens = []
    for g in data["generators"]:
        gens.append(_subset(P, g, "generator"))
        if not gens[-1]:
            raise ParseError("a generator is an empty array")
    return family(P, gens)


# -- normal forms

def form_to_dict(P: Poset, nf: NormalForm) -> dict:
    if nf.tag == "Unresolved":
        return {"form": "Unresolved",
                "canonical": tuple_to_lists(P, nf.payload)}
    out: dict[str, Any] = {"form": nf.tag}
    for key, mask in zip(PAYLOAD_KEYS[nf.tag], nf.payload):
        out[key] = list(P.labels(mask))
    return out


def form_from_dict(P: Poset, data: Any) -> NormalForm:
    if not isinstance(data, dict) or "form" not in data:
        raise ParseError("a normal form document needs a 'form' tag")
    tag = data["form"]
    if tag == "Unresolved":
        payload = tuple_from_lists(P, data.get("canonical"))
    elif isinstance(tag, str) and tag in PAYLOAD_KEYS:
        payload = tuple(_subset(P, data.get(key), f"form {tag} field {key!r}")
                        for key in PAYLOAD_KEYS[tag])
    else:
        raise ParseError(f"unknown form tag {tag!r}")
    defect = form_defect(P, tag, payload)
    if defect:
        raise ParseError(defect)
    return NormalForm(tag, payload)


# -- shared helpers

def _subset(P: Poset, value: Any, what: str) -> int:
    """The subset of ``P`` named by an array of distinct element labels."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array of element labels, "
                         f"not {value!r}")
    for item in value:
        if not isinstance(item, str):
            raise ParseError(f"{what} {value!r} holds {item!r}, "
                             "which is not an element label")
    if len(set(value)) != len(value):
        raise ParseError(f"{what} {value!r} repeats an element")
    return P.subset(value)


_quote = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def dumps(data: Any) -> str:
    """The bytes of ``json.dumps`` at an indent of 2, and a newline, from
    one recursive emitter: CPython's ``json`` encodes with an indent only in
    pure Python, through nested closures that each call leaves to the cycle
    collector.  Like ``json.dumps``, it raises ``TypeError`` on a value or
    a key that JSON cannot carry; a container that holds itself exhausts
    the recursion limit instead of raising ``ValueError``."""
    out: list[str] = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON of ``value`` to ``out``, with ``newline`` (a line
    break and the current indent) before each line it starts."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                text = _literal(key)
                if text is None:
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                key = text
            out.append(separator + _quote(key) + ": ")
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        text = _literal(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            "is not JSON serializable")
        out.append(text)


def _literal(value: Any) -> str | None:
    """The JSON text of ``None``, a bool, an int or a float, and ``None`` for
    any other value; ``json`` writes a dict key of these types as this text
    in quotes."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    return None


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except ValueError:  # CPython's limit on integer string conversion
        raise ParseError("JSON integer literal has too many digits") from None
    except RecursionError:
        raise ParseError("JSON document nested too deeply") from None


def load_poset(text: str) -> Poset:
    """Parse a poset from JSON, when the first non-blank character is
    ``{`` or ``[``, or else from the line-oriented text form."""
    if text.lstrip()[:1] in ("{", "["):
        return poset_from_dict(loads(text))
    return poset_from_text(text)
