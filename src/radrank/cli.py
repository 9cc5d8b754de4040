"""Command-line front end.

Every subcommand loads its inputs, runs one library operation, and emits
either short text read off its results or (with --json) a Report object
carrying the command, a digest of the command and its inputs, and the
results.  Output is byte-deterministic for fixed inputs; wall-clock timing is
therefore opt-in via --timing.  Exit status: 0 for a computed result, 1 for a
negative verdict on a decision command, 2 for usage, format, or precondition
problems, for an output pipe closed early and for text that the output's
encoding cannot carry.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence

from . import claborn, rank as rank_ops, semilattice
from .cones import GeneratorSet, max_weak_reay
from .errors import ModelFormatError
from .model import (
    Model, dumps_model, enumerate_v, loads_json, loads_model, model_to_dict,
    read_text, save_model, v_joined, v_membership, validate,
)
from .ratlin import parse_vector


def _digest(parts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return "sha256:" + h.hexdigest()


def _read_json(path: str, where: str, parse=loads_json) -> tuple[object, str]:
    """`parse` of an input file's text, and the text; a format error is
    labelled with `where`."""
    try:
        text = read_text(path)
        return parse(text), text
    except ModelFormatError as exc:
        raise ModelFormatError(f"{where}: {exc}") from None


def _load(path: str) -> tuple[Model, str]:
    return _read_json(path, path, loads_model)


def _ids_text(sorted_ids) -> str:
    return "{" + ",".join(sorted_ids) + "}"


def _parse_support(text: str) -> list[str]:
    ids = [part for part in text.split(",") if part]
    if not ids:
        raise ValueError(f"empty support argument: {text!r}")
    return ids


class _Members:
    """Members of V as a report value, the array of their sorted id arrays in
    `enumerate_v` order: all of V when `star` is None, else that star.  Each
    member's text is made once per key by one `v_joined` pass: all of V keeps
    {key: texts in order}, and a report's stars share {key: {member: text}}."""

    __slots__ = ("m", "star", "texts")

    def __init__(self, m: Model, star=None, texts=None) -> None:
        self.m, self.star, self.texts = m, star, {} if texts is None else texts

    def __len__(self) -> int:
        return len(enumerate_v(self.m) if self.star is None else self.star)

    def joined(self, key, items, join) -> Iterable[str]:
        """The texts, `join` of each member's `items` (parallel to the ids)."""
        known = self.texts.get(key)
        if known is None:
            known = v_joined(self.m, items, join)
            if self.star is not None:
                known = dict(zip(enumerate_v(self.m), known))
            self.texts[key] = known
        return known if self.star is None else map(known.__getitem__, self.star)

    def lines(self) -> Iterator[str]:
        """The texts `{P0,P1}` of the text output, made when first read."""
        yield from self.joined(None, self.m.ids(), _ids_text)


def _put_json(value: object, indent: str, out: list[str]) -> None:
    """Append the text of `value` at `indent` to `out`.  Members of V are
    their texts, each made once per indent from the encoded ids, and the
    separators between them, in one C-level pass; any other list is written
    item by item.  Not a closure: one that calls itself is a reference
    cycle, which keeps each report's pieces alive until the collector runs."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
        return
    inner = indent + "  "
    if isinstance(value, _Members) and value:
        deeper = inner + "  "
        ids = tuple(map(encode_basestring_ascii, value.m.ids()))
        texts = value.joined(inner, ids, (",\n" + deeper).join)
        between = "\n" + inner + "],\n" + inner + "[\n" + deeper
        out.append("[\n" + inner + "[\n" + deeper)
        out += islice(chain.from_iterable(zip(repeat(between), texts)), 1, None)
        out.append("\n" + inner + "]\n" + indent + "]")
        return
    if not value or not isinstance(value, (dict, list, tuple)):
        out.append("[]" if isinstance(value, _Members) else json.dumps(value))
        return
    sep = ",\n" + inner
    if isinstance(value, dict):
        out.append("{\n" + inner)
        for n, (key, item) in enumerate(value.items()):
            out.append((sep if n else "") + encode_basestring_ascii(key) + ": ")
            _put_json(item, inner, out)
        out.append("\n" + indent + "}")
        return
    out.append("[\n" + inner)
    for n, item in enumerate(value):
        if n:
            out.append(sep)
        _put_json(item, inner, out)
    out.append("\n" + indent + "]")


def _json_text(value: object) -> str:
    """The text of `json.dumps(value, indent=2)` for str-keyed dicts, lists,
    strings and scalars.  json runs its pure-Python encoder whenever `indent`
    is set; here strings go through its C `encode_basestring_ascii`, and the
    pieces are joined once at the end, as json does, with no large
    intermediate strings.  A `_Members` value is written as the array of
    sorted id arrays it stands for."""
    out: list[str] = []
    _put_json(value, "", out)
    return "".join(out)


# --- handlers ----------------------------------------------------------------
# each returns (exit code, results dict, text lines, inputs), and `main`
# digests the command name, then the inputs.  The text lines are read off
# `results`; long ones come as a generator, formatted only when printed
# without --json.

def _scalars(results: dict, keys: Iterable[str]) -> list[str]:
    """The text lines `key: <JSON text>` of the scalar results at `keys`."""
    return [f"{key}: {json.dumps(results[key])}" for key in keys]


def _cmd_validate(ns) -> tuple[int, dict, list[str], list[str]]:
    m, text = _load(ns.model)
    results = asdict(validate(m))
    code = 0 if results["positively_spanning"] else 1
    return code, results, _scalars(results, results), [text]


def _cmd_v_member(ns) -> tuple[int, dict, list[str], list[str]]:
    m, text = _load(ns.model)
    support = _parse_support(ns.support)
    results = {"support": sorted(set(support)), "member": v_membership(m, support)}
    code = 0 if results["member"] else 1
    return code, results, [json.dumps(results["member"])], [ns.support, text]


def _cmd_enumerate_v(ns) -> tuple[int, dict, Iterable[str], list[str]]:
    m, text = _load(ns.model)
    members = _Members(m)
    return 0, {"members": members, "count": len(members)}, members.lines(), [text]


def _cmd_coprime(ns) -> tuple[int, dict, list[str], list[str]]:
    m, text = _load(ns.model)
    supports = [_parse_support(s) for s in ns.supports]
    results = {
        "supports": [sorted(set(s)) for s in supports],
        "raw": semilattice.product_coprime_raw(m, supports),
        "supports_criterion": semilattice.product_coprime_supports(supports),
    }
    lines = _scalars(results, ("raw", "supports_criterion"))
    return 0 if results["raw"] else 1, results, lines, [*ns.supports, text]


def _cmd_mprop(ns) -> tuple[int, dict, Iterable[str], list[str]]:
    m, text = _load(ns.model)
    texts: dict = {}
    # the stars come as nu(P) in id order, so each is named by its own prime
    families = [
        {"prime": prime, "members": _Members(m, star, texts)}
        for prime, star in zip(m.ids(), semilattice.mprop(m))
    ]
    lines = (f"{f['prime']}: " + " ".join(f["members"].lines()) for f in families)
    return 0, {"families": families}, lines, [text]


def _cmd_inv(ns) -> tuple[int, dict, list[str], list[str]]:
    m, text = _load(ns.model)
    delta = list(ns.primes)
    enum_side = rank_ops.inv_enum(m, delta)
    results = {
        "delta": sorted(set(delta)),
        "inverses": sorted(enum_side),
        "agreement": enum_side == rank_ops.inv_cone(m, delta),
    }
    lines = [f"inv({_ids_text(results['delta'])}) = {_ids_text(results['inverses'])}"]
    return 0, results, lines, [*results["delta"], text]


def _cmd_rank(ns) -> tuple[int, dict, list[str], list[str]]:
    m, text = _load(ns.model)
    results = {"rank": rank_ops.recover_rank(m)}
    return 0, results, [f"rank = {results['rank']}"], [text]


def _cmd_iso(ns) -> tuple[int, dict, list[str], list[str]]:
    ma, text_a = _load(ns.model_a)
    mb, text_b = _load(ns.model_b)
    mapping = semilattice.find_iso(ma, mb)
    if mapping is None:
        return 1, {"isomorphism": None}, ["no isomorphism"], [text_a, text_b]
    iso = {k: mapping[k] for k in sorted(mapping)}
    lines = [f"{k} -> {v}" for k, v in iso.items()]
    return 0, {"isomorphism": iso}, lines, [text_a, text_b]


def _cmd_extend_iso(ns) -> tuple[int, dict, list[str], list[str]]:
    ma, text_a = _load(ns.model_a)
    mb, text_b = _load(ns.model_b)
    doc, phi_text = _read_json(ns.phi, "phi file")
    if not isinstance(doc, list):
        raise ValueError("phi file must be a JSON array of support pairs")
    pairs = []
    for i, item in enumerate(doc):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(side, list) for side in item)
        ):
            raise ValueError(f"phi[{i}]: expected a pair of id arrays")
        for j, side in enumerate(item):
            for k, pid in enumerate(side):
                if not isinstance(pid, str):
                    raise ValueError(f"phi[{i}][{j}][{k}]: expected a string")
        pairs.append((item[0], item[1]))
    eta, verified = semilattice.extend_iso(ma, mb, pairs)
    results = {"eta": {k: eta[k] for k in sorted(eta)}, "verified": verified}
    lines = [f"{k} -> {v}" for k, v in results["eta"].items()]
    lines += _scalars(results, ("verified",))
    return 0 if verified else 1, results, lines, [text_a, text_b, phi_text]


_FAMILIES = {"d1": claborn.gen_d1, "d2": claborn.gen_d2, "d3": claborn.gen_d3}


def _cmd_gen(ns) -> tuple[int, dict, list[str], list[str]]:
    m = _FAMILIES[ns.family](ns.k)
    results = {"model": model_to_dict(m)}
    inputs = [ns.family, str(ns.k)]
    if ns.output:
        save_model(m, ns.output)
        return 0, results, [f"wrote {ns.output}"], inputs
    return 0, results, [dumps_model(m)[:-1]], inputs


def _cmd_reay(ns) -> tuple[int, dict, list[str], list[str]]:
    doc, text = _read_json(ns.vectors, "vectors file")
    if isinstance(doc, dict):
        vectors = doc.get("vectors")
        labels = doc.get("labels")
    else:
        vectors, labels = doc, None
    if not isinstance(vectors, list):
        raise ValueError("vectors file must hold an array of vectors")
    parsed = []
    for i, item in enumerate(vectors):
        if not isinstance(item, list):
            raise ValueError(f"vectors[{i}]: expected an array")
        try:
            parsed.append(parse_vector(item))
        except ValueError as exc:
            raise ValueError(f"vectors[{i}]{exc}") from None
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(l, str) for l in labels)
    ):
        raise ValueError("labels: expected an array of strings")
    gens = GeneratorSet.from_vectors(parsed, labels)
    s, blocks = max_weak_reay(gens)
    results = {"cardinality": s, "blocks": [sorted(block) for block in blocks]}
    lines = [f"s = {results['cardinality']}"]
    if results["blocks"]:
        lines.append("blocks: " + " | ".join(map(_ids_text, results["blocks"])))
    return 0, results, lines, [text]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and building it costs more than most commands."""
    parser = argparse.ArgumentParser(
        prog="radrank",
        description="Support posets and rank recovery for class-data models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON Report")
    common.add_argument(
        "--timing", action="store_true", help="include wall-clock timing"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary):
        """A subcommand that `main` runs through its `handler` default."""
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, "check class data").add_argument("model")

    p = add("v-member", _cmd_v_member, "support membership")
    p.add_argument("model")
    p.add_argument("support", help="comma-separated prime ids, e.g. P0,P1")

    add("enumerate-v", _cmd_enumerate_v, "list all supports").add_argument("model")

    p = add("coprime", _cmd_coprime, "tuple coprimality")
    p.add_argument("model")
    p.add_argument("supports", nargs="+", help="two or more comma-separated supports")

    add("mprop", _cmd_mprop, "maximal product-proper families").add_argument("model")

    p = add("inv", _cmd_inv, "almost-inverses of a prime set")
    p.add_argument("model")
    p.add_argument("primes", nargs="*", help="prime ids (empty set allowed)")

    add("rank", _cmd_rank, "recover rank from the poset").add_argument("model")

    p = add("iso", _cmd_iso, "search for a prime bijection")
    p.add_argument("model_a")
    p.add_argument("model_b")

    p = add("extend-iso", _cmd_extend_iso, "transport a support-map isomorphism")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("phi", help="JSON array of [source ids, target ids] pairs")

    p = add("gen", _cmd_gen, "emit a generator model")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("--k", type=int, required=True, help="number of primes (>= 2)")
    p.add_argument("--output", "-o", help="write the model here instead of stdout")

    p = add("reay", _cmd_reay, "maximum weak Reay partition")
    p.add_argument("vectors", help="JSON array of vectors of rational strings")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, results, lines, inputs = ns.handler(ns)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    try:
        if ns.json:
            report = {
                "command": ns.command,
                "inputs": {"digest": _digest([ns.command, *inputs])},
                "results": results,
            }
            if ns.timing:
                report["timing_ms"] = round(elapsed_ms, 3)
            print(_json_text(report))
        else:
            for line in lines:
                print(line)
            if ns.timing:
                print(f"timing_ms: {elapsed_ms:.3f}", file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except UnicodeEncodeError as exc:
        # text output naming a prime id that stdout's encoding cannot carry
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
