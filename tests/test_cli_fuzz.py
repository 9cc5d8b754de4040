"""Seeded fuzzing of the command line: mutated model, phi and vectors files.

Every subcommand must answer a damaged input with exit code 0, 1 or 2, and
with an `error:` line on stderr when it is 2; no exception may escape `main`.
"""

import copy
import json

import pytest

from modelgen import fresh_rng, random_model
from radrank import (
    ModelFormatError,
    enumerate_v,
    find_iso,
    gen_d1,
    gen_d2,
    gen_d3,
    loads_model,
    model_to_dict,
)
from radrank.cli import main

ROUNDS = 100

# BIG stands for a 5,000-digit number, past the digits int() will read: json
# cannot write such an int, so `damaged_text` splices it in as text.
BIG = "<5000 digits>"
ATOMS = [
    None, True, False, 0, -1, 3, 2**70, 1.5, "", "x", "0", "-3/4", "1/0", "P0",
    "\ud800", BIG, [], {},
]


def mutate(rng, doc):
    """One random edit of a JSON document: replace, delete or duplicate a
    node, or replace the whole document."""
    doc = copy.deepcopy(doc)
    slots = []

    def walk(node):
        items = enumerate(node) if isinstance(node, list) else (
            node.items() if isinstance(node, dict) else ()
        )
        for key, child in items:
            slots.append((node, key))
            walk(child)

    walk(doc)
    if not slots or rng.random() < 0.05:
        return copy.deepcopy(rng.choice(ATOMS))
    parent, key = rng.choice(slots)
    op = rng.randrange(3)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(ATOMS))
    elif op == 1:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key]]
    return doc


def damaged_text(rng, doc):
    """The document after zero to three edits, sometimes cut or spliced as
    text as well."""
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        doc = mutate(rng, doc)
    text = json.dumps(doc).replace(json.dumps(BIG), "7" * 5000)
    roll = rng.random()
    if roll < 0.05:
        text = text[: rng.randrange(len(text) + 1)]
    elif roll < 0.1:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice('[]{},:"\\0-/ ') + text[at:]
    return text


def support_arg(rng, m):
    """Mostly a member of V(m), otherwise any ids, unknown or empty ones too."""
    members = enumerate_v(m)
    if members and rng.random() < 0.7:
        return ",".join(sorted(rng.choice(members)))
    pool = list(m.ids()) + ["zz", ""]
    return ",".join(rng.sample(pool, rng.randrange(1, min(4, len(pool)) + 1)))


def test_damaged_inputs_never_escape(tmp_path, capsys):
    rng = fresh_rng(salt=70)
    bases = [gen_d1(4), gen_d2(4), gen_d3(4)]
    for round_no in range(ROUNDS):
        ma = rng.choice(bases) if rng.random() < 0.5 else random_model(rng, 3, 5)
        mb = ma if rng.random() < 0.5 else rng.choice(bases)
        eta = find_iso(ma, mb) or {p: p for p in ma.ids()}
        phi = [[sorted(s), sorted(eta[p] for p in s)] for s in enumerate_v(ma)]
        dim = rng.randrange(1, 4)
        vectors = [
            [str(rng.randint(-3, 3)) for _ in range(dim)]
            for _ in range(rng.randrange(1, 7))
        ]
        if rng.random() < 0.5:
            vectors = {"vectors": vectors, "labels": [f"v{i}" for i in range(len(vectors))]}
        files = {
            "a.json": damaged_text(rng, model_to_dict(ma)),
            "b.json": damaged_text(rng, model_to_dict(mb)),
            "phi.json": damaged_text(rng, phi),
            "vectors.json": damaged_text(rng, vectors),
        }
        bad_models = set()
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
            if name in ("a.json", "b.json"):
                try:
                    loads_model(text)
                except ModelFormatError:
                    bad_models.add(str(tmp_path / name))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        commands = [
            ["validate", a],
            ["v-member", a, support_arg(rng, ma)],
            ["enumerate-v", a],
            ["coprime", a, support_arg(rng, ma), support_arg(rng, ma)],
            ["mprop", a],
            ["inv", a, *rng.sample(list(ma.ids()) + ["zz"], rng.randrange(3))],
            ["rank", a],
            ["iso", a, b],
            ["extend-iso", a, b, str(tmp_path / "phi.json")],
            ["reay", str(tmp_path / "vectors.json")],
            ["gen", rng.choice(["d1", "d2", "d3"]), "--k", str(rng.randrange(-2, 7))],
        ]
        for argv in commands:
            if rng.random() < 0.5:
                argv.append("--json")
            try:
                code = main(argv)
            except Exception as exc:  # report the input that let it escape
                pytest.fail(f"round {round_no}: {argv} raised {exc!r}; files {files}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (round_no, argv)
            if code == 2:
                assert any(line.startswith("error:") for line in err.splitlines()), (
                    round_no,
                    argv,
                    err,
                )
            # the first model file that fails to parse is named in the error
            bad = [arg for arg in argv[1:3] if arg in bad_models]
            if bad:
                assert code == 2 and f"error: {bad[0]}: " in err, (round_no, argv, err)
