"""Command line front end: text output, JSON reports, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from modelgen import fresh_rng, random_model, zero_model
from radrank import (
    Model, enumerate_v, gen_d1, gen_d2, gen_d3, loads_model, nu, save_model, validate,
)
from radrank.cli import _Members, _digest, _json_text, build_parser, main


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    save_model(gen_d1(4), str(path))
    return str(path)


@pytest.fixture
def d3_file(tmp_path):
    path = tmp_path / "d3.json"
    save_model(gen_d3(4), str(path))
    return str(path)


# json.loads reads a number with int(), which refuses this many digits.
DIGIT_LIMIT = "line 1 column 2: integer of 5000 digits exceeds the 4300-digit limit"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def signed_model(ids, signs=(1, -1)):
    """A rank-1 model whose classes cycle through `signs` in the ids' order."""
    return Model(1, [(pid, [signs[i % len(signs)]]) for i, pid in enumerate(ids)])


def ids_text(sorted_ids):
    return "{" + ",".join(sorted_ids) + "}"


def witness_rich_random():
    rng = fresh_rng(salt=91)
    models = (random_model(rng, 11, 11, ranks=(2,)) for _ in range(50))
    return next(m for m in models if validate(m).witness_rich)


class TestGen:
    def test_stdout_emits_the_model(self, capsys):
        code, out, _ = run(capsys, "gen", "d1", "--k", "4")
        assert code == 0
        assert loads_model(out) == gen_d1(4)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        code, out, _ = run(capsys, "gen", "d3", "--k", "4", "-o", str(target))
        assert code == 0
        assert out.strip() == f"wrote {target}"
        assert loads_model(target.read_text()) == gen_d3(4)

    def test_bad_k(self, capsys):
        code, _, err = run(capsys, "gen", "d1", "--k", "1")
        assert code == 2
        assert err.startswith("error:")


class TestValidate:
    def test_text(self, capsys, d1_file):
        code, out, _ = run(capsys, "validate", d1_file)
        assert code == 0
        assert out.splitlines() == [
            "positively_spanning: true",
            "witness_rich: true",
            "linear_rank: 1",
        ]

    def test_non_spanning_exits_one(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(
            '{"ambient_rank": 1, "primes": [{"id": "a", "class": ["1"]}]}'
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "positively_spanning: false" in out

    def test_json_report(self, capsys, d1_file):
        code, out, _ = run(capsys, "validate", "--json", d1_file)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "inputs", "results"}
        assert report["command"] == "validate"
        assert report["inputs"]["digest"].startswith("sha256:")
        assert report["results"] == {
            "positively_spanning": True,
            "witness_rich": True,
            "linear_rank": 1,
        }


class TestMembership:
    def test_member(self, capsys, d1_file):
        code, out, _ = run(capsys, "v-member", d1_file, "P0,P1")
        assert (code, out.strip()) == (0, "true")

    def test_non_member(self, capsys, d1_file):
        code, out, _ = run(capsys, "v-member", d1_file, "P0,P2")
        assert (code, out.strip()) == (1, "false")

    def test_unknown_id(self, capsys, d1_file):
        code, _, err = run(capsys, "v-member", d1_file, "P0,P9")
        assert code == 2
        assert err.startswith("error:")

    def test_enumerate(self, capsys, tmp_path):
        path = tmp_path / "d3small.json"
        save_model(gen_d3(2), str(path))
        code, out, _ = run(capsys, "enumerate-v", str(path))
        assert code == 0
        assert out.splitlines() == ["{R0}"]


class TestCoprime:
    def test_disjoint(self, capsys, d1_file):
        code, out, _ = run(capsys, "coprime", d1_file, "P0,P1", "P2,P3")
        assert code == 0
        assert out.splitlines() == [
            "raw: true",
            "supports_criterion: true",
        ]

    def test_overlapping(self, capsys, d1_file):
        code, out, _ = run(capsys, "coprime", d1_file, "P0,P1", "P0,P3")
        assert code == 1
        assert "raw: false" in out

    def test_routes_shown_separately(self, capsys, d3_file):
        code, out, _ = run(capsys, "coprime", d3_file, "R1,R2", "R2,R3")
        assert code == 0
        assert out.splitlines() == [
            "raw: true",
            "supports_criterion: false",
        ]


class TestFamilies:
    def test_stars(self, capsys, d1_file):
        code, out, _ = run(capsys, "mprop", d1_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("P0: {P0,P1} {P0,P3}")

    # sha256 of each model's `mprop` text, so that a faster way to write it
    # must still print the same bytes
    @pytest.mark.parametrize(
        "model,digest",
        [
            (gen_d1(12), "714a25d81d4717910bf2fa249c999e8ae8fba013c49232dbfd34f2f0b7f2fb72"),
            (gen_d2(12), "8c83da2a3beb57c33e0ba4d9a0ab081eeff04c1fce77179e895ab81ab45723b8"),
            (witness_rich_random(), "5b8e0adbe02adab04116475d0b673fd58e9626438e44bc9eaaa51ba8ffbcd361"),
        ],
        ids=["d1-12", "d2-12", "random-11"],
    )
    def test_text_bytes(self, capsys, tmp_path, model, digest):
        path = tmp_path / "m.json"
        save_model(model, str(path))
        code, out, _ = run(capsys, "mprop", str(path))
        assert code == 0
        # lines, not one string: a failure names the first differing line
        # at once, where a diff of two 680 KB strings runs for minutes
        want = [
            f"{p}: " + " ".join("{" + ",".join(sorted(s)) + "}" for s in nu(model, p)) + "\n"
            for p in model.ids()
        ]
        assert out.splitlines(keepends=True) == want
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_refusal(self, capsys, d3_file):
        code, out, err = run(capsys, "mprop", d3_file)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "witness-rich" in err


class TestRankCommands:
    def test_inv(self, capsys, d1_file):
        code, out, _ = run(capsys, "inv", d1_file, "P0")
        assert code == 0
        assert out.strip() == "inv({P0}) = {P1,P3}"

    def test_inv_names_delta_once_and_sorted(self, capsys, d1_file):
        code, out, _ = run(capsys, "inv", d1_file, "P2", "P0", "P2", "P0")
        assert code == 0
        assert out == "inv({P0,P2}) = {P1,P3}\n"
        _, report, _ = run(capsys, "inv", "--json", d1_file, "P2", "P0", "P2", "P0")
        assert json.loads(report)["results"]["delta"] == ["P0", "P2"]

    def test_rank(self, capsys, d1_file):
        code, out, _ = run(capsys, "rank", d1_file)
        assert code == 0
        assert out.strip() == "rank = 1"

    def test_rank_refuses_non_spanning(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(
            '{"ambient_rank": 1, "primes": [{"id": "a", "class": ["1"]}]}'
        )
        code, _, err = run(capsys, "rank", str(path))
        assert code == 2
        assert err.startswith("error:")


class TestIso:
    def test_found(self, capsys, tmp_path, d1_file):
        other = tmp_path / "d2.json"
        from radrank import gen_d2

        save_model(gen_d2(4), str(other))
        code, out, _ = run(capsys, "iso", d1_file, str(other))
        assert code == 0
        assert out.splitlines() == [
            "P0 -> Q0",
            "P1 -> Q1",
            "P2 -> Q2",
            "P3 -> Q3",
        ]

    def test_not_found(self, capsys, d1_file, d3_file):
        code, out, _ = run(capsys, "iso", d1_file, d3_file)
        assert code == 1
        assert out.strip() == "no isomorphism"

    def test_extend(self, capsys, tmp_path, d1_file):
        from radrank import enumerate_v, gen_d2

        other = tmp_path / "d2.json"
        save_model(gen_d2(4), str(other))
        eta = {"P0": "Q0", "P1": "Q1", "P2": "Q2", "P3": "Q3"}
        phi = [
            [sorted(s), sorted(eta[p] for p in s)]
            for s in enumerate_v(gen_d1(4))
        ]
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(phi))
        code, out, _ = run(
            capsys, "extend-iso", d1_file, str(other), str(phi_path)
        )
        assert code == 0
        lines = out.splitlines()
        assert "P0 -> Q0" in lines
        assert lines[-1] == "verified: true"

    def test_extend_names_the_least_failing_pair_under_any_hash_seed(self, tmp_path):
        from radrank import enumerate_v, gen_d2

        ma, mb = gen_d1(6), gen_d2(6)
        phi = {s: frozenset("Q" + p[1:] for p in s) for s in enumerate_v(ma)}
        a, b = frozenset({"P0", "P1"}), frozenset({"P0", "P3"})
        phi[a], phi[b] = phi[b], phi[a]
        paths = [tmp_path / name for name in ("a.json", "b.json", "phi.json")]
        save_model(ma, str(paths[0]))
        save_model(mb, str(paths[1]))
        paths[2].write_text(json.dumps([[sorted(k), sorted(v)] for k, v in phi.items()]))

        def key(s):
            return len(s), sorted(s)

        x, y = min(
            ((x, y) for x in phi for y in phi if phi[x | y] != phi[x] | phi[y]),
            key=lambda pair: (key(pair[0]), key(pair[1])),
        )
        want = (
            f"error: phi does not preserve products: breaks at "
            f"{sorted(x)} and {sorted(y)}\n"
        )
        for seed in range(1, 5):
            proc = subprocess.run(
                [sys.executable, "-m", "radrank.cli", "extend-iso", *map(str, paths)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            assert (proc.returncode, proc.stderr) == (2, want), seed

    def test_extend_malformed_phi(self, capsys, tmp_path, d1_file):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text('{"not": "pairs"}')
        code, _, err = run(
            capsys, "extend-iso", d1_file, d1_file, str(phi_path)
        )
        assert code == 2
        assert err.startswith("error:")

    def test_extend_phi_syntax_error_is_located(self, capsys, tmp_path, d1_file):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text('[[["P0"], ["P0"]],\n [}')
        code, out, err = run(
            capsys, "extend-iso", d1_file, d1_file, str(phi_path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: phi file: line 2 column 3: Expecting value\n"

    def test_extend_non_string_id(self, capsys, tmp_path, d1_file):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text('[[[["a"]], ["a"]]]')
        code, _, err = run(
            capsys, "extend-iso", d1_file, d1_file, str(phi_path)
        )
        assert code == 2
        assert err.startswith("error: phi[0][0][0]: expected a string")


class TestReay:
    def test_bare_vectors(self, capsys, tmp_path):
        path = tmp_path / "vecs.json"
        path.write_text('[["1"], ["-1"]]')
        code, out, _ = run(capsys, "reay", str(path))
        assert code == 0
        assert out.splitlines() == ["s = 1", "blocks: {g00,g01}"]

    def test_labeled_vectors(self, capsys, tmp_path):
        path = tmp_path / "vecs.json"
        doc = {
            "labels": ["a", "b", "c", "d"],
            "vectors": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
        }
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "reay", str(path))
        assert code == 0
        assert out.splitlines() == ["s = 2", "blocks: {a,b} | {c,d}"]

    def test_non_spanning(self, capsys, tmp_path):
        path = tmp_path / "vecs.json"
        path.write_text('[["1"]]')
        code, _, err = run(capsys, "reay", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "doc,where",
        [
            ('{"vectors": [["1"], ["-1"]], "labels": 5}', "labels: expected an array"),
            ("[5, 6]", "vectors[0]: expected an array"),
            ('[["1"], ["x"]]', "vectors[1][0]: invalid rational literal"),
            ('{"vectors": [["1"], ["-1"]], "labels": [1, 2]}', "labels: expected an array"),
            ('{"vectors": [["1"], ["-1"]], "labels": ["a"]}', "labels and vectors differ"),
            ('{"labels": ["a"]}', "vectors file must hold an array"),
        ],
    )
    def test_malformed_vectors_file(self, capsys, tmp_path, doc, where):
        path = tmp_path / "vecs.json"
        path.write_text(doc)
        code, out, err = run(capsys, "reay", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {where}")


    def test_vectors_syntax_error_is_located(self, capsys, tmp_path):
        path = tmp_path / "vecs.json"
        path.write_text('[["1"],\n ["-1"]')
        code, out, err = run(capsys, "reay", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: vectors file: line 2 column 8: Expecting ',' delimiter\n"


class TestErrorsAndDiagnostics:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/m.json")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_model(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"ambient_rank": 1, "primes": [{"id": "a", "class": ["x"]}]}'
        )
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "primes[0].class[0]" in err

    def test_rational_literal_is_the_whole_string(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_rank": 1, "primes": [{"id": "a", "class": ["1\\n"]}]}')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: primes[0].class[0]: invalid rational literal: '1\\n'\n"

    def test_names_the_malformed_model_file(self, capsys, tmp_path, d1_file):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_rank": 0, "primes": [{"id": ""}]}')
        code, out, err = run(capsys, "iso", d1_file, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: primes[0].id: expected a nonempty string\n"

    def test_json_syntax_location(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_rank": 1,\n "primes": [}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "line 2" in err


    @pytest.mark.parametrize(
        "data,fault",
        [
            (b'{"ambient_rank": 1, "primes": \xff}', "not UTF-8 at byte 30"),
            (b"[" * 100000, "JSON nested too deeply"),
            (b"[" + b"1" * 5000 + b"]", DIGIT_LIMIT),
            (b'["\\ud800"]', "line 1 column 3: lone surrogate \\ud800"),
        ],
        ids=["undecodable", "too-deep", "digit-limit", "lone-surrogate"],
    )
    @pytest.mark.parametrize("kind", ["model", "phi", "vectors"])
    def test_unreadable_input_is_located(self, capsys, tmp_path, d1_file, data, fault, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        argv, where = {
            "model": (["rank", str(path)], str(path)),
            "phi": (["extend-iso", d1_file, d1_file, str(path)], "phi file"),
            "vectors": (["reay", str(path)], "vectors file"),
        }[kind]
        for mode in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *mode)
            assert code == 2
            assert out == ""
            assert err == f"error: {where}: {fault}\n"


class TestReports:
    def test_byte_determinism(self, capsys, d1_file):
        _, first, _ = run(capsys, "mprop", "--json", d1_file)
        _, second, _ = run(capsys, "mprop", "--json", d1_file)
        assert first == second

    def test_timing_in_json(self, capsys, d1_file):
        _, out, _ = run(capsys, "rank", "--json", "--timing", d1_file)
        report = json.loads(out)
        assert set(report) == {"command", "inputs", "results", "timing_ms"}
        assert report["timing_ms"] >= 0

    def test_timing_in_text_goes_to_stderr(self, capsys, d1_file):
        code, out, err = run(capsys, "rank", "--timing", d1_file)
        assert code == 0
        assert out.strip() == "rank = 1"
        assert err.startswith("timing_ms:")

    def test_digest_tracks_inputs(self, capsys, d1_file, d3_file):
        _, one, _ = run(capsys, "rank", "--json", d1_file)
        _, two, _ = run(capsys, "rank", "--json", d3_file)
        assert (
            json.loads(one)["inputs"]["digest"]
            != json.loads(two)["inputs"]["digest"]
        )

    @pytest.mark.parametrize(
        "command", ["validate", "v-member", "coprime", "inv", "extend-iso", "gen"]
    )
    def test_digest_covers_the_command_then_its_inputs(self, capsys, tmp_path, d1_file, command):
        # no recorded job replays these commands, so their digests are pinned here
        d2_file = tmp_path / "d2.json"
        save_model(gen_d2(4), str(d2_file))
        phi = tmp_path / "phi.json"
        eta = {"P0": "Q0", "P1": "Q1", "P2": "Q2", "P3": "Q3"}
        phi.write_text(json.dumps(
            [[sorted(s), sorted(eta[p] for p in s)] for s in enumerate_v(gen_d1(4))]
        ))
        with open(d1_file, encoding="utf-8") as handle:
            model = handle.read()
        args, inputs = {
            "validate": ([d1_file], [model]),
            "v-member": ([d1_file, "P1,P0,P1"], ["P1,P0,P1", model]),
            "coprime": ([d1_file, "P1,P0", "P3,P2,"], ["P1,P0", "P3,P2,", model]),
            "inv": ([d1_file, "P2", "P0", "P2"], ["P0", "P2", model]),
            "extend-iso": (
                [d1_file, str(d2_file), str(phi)],
                [model, d2_file.read_text(), phi.read_text()],
            ),
            "gen": (["d2", "--k", "3"], ["d2", "3"]),
        }[command]
        code, out, _ = run(capsys, command, "--json", *args)
        assert code in (0, 1)
        assert json.loads(out)["inputs"]["digest"] == _digest([command, *inputs])

    def test_round_trip_through_gen(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "gen", "d2", "--k", "5", "-o", str(first))
        save_model(loads_model(first.read_text()), str(second))
        assert first.read_bytes() == second.read_bytes()


class Sub(str):
    pass


# one list object placed many times
SHARED = ["P0", "P1"]
# lists met first inside a list of lists, then again at the same indent or
# at another one
TWICE = ["Q0", Sub("Q1")]
ONCE_EACH = ["R0"]
# one list as a dict value and as a list item, at one indent and at others
LISTED = ["L0", "L1"]


class TestReportWriter:
    """`--json` reports carry the bytes of `json.dumps(report, indent=2)`."""

    ODD_IDS = ['q"uote', "back\\slash", "ctl\x01\t\n", "caf\u00e9", "snow\u2603", "\U0001f600"]
    ATOMS = [*ODD_IDS, "", "P0", Sub("sub"), None, True, False, 0, -3, 2.5, 10**30]

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            None,
            True,
            False,
            0,
            -17,
            10**40,
            -(2**70),
            1.25,
            round(2 / 3 * 1000, 3),
            "",
            [[], {}, [[1, [None, [True]]]], {"a": {"b": []}}],
            {"ids": ODD_IDS, ODD_IDS[0]: {ODD_IDS[2]: [ODD_IDS[3], -1]}},
            ("tuple", ["inside"]),
            [SHARED, SHARED, SHARED],
            {"a": SHARED, "b": [SHARED, [SHARED, {"c": SHARED}]]},
            ["a", 1],
            ["a", ["b"]],
            [["a"], "b"],
            Sub("top"),
            [Sub("x"), "y", Sub('q"')],
            {"k": Sub("v")},
            ("a", "b"),
            [("a", "b"), ["a", "b"], ("a", ("b",))],
            [TWICE, ["z"], TWICE],
            {"a": {"x": TWICE}, "b": [TWICE, TWICE]},
            [ONCE_EACH, [ONCE_EACH, [ONCE_EACH]], {"c": ONCE_EACH}],
            [["a", 1], ["a", ["b"]], [], ("t", "u"), [Sub("s"), "x"], [Sub("y")], ["a", []]],
            [[1, "a"], [[], "b"], [("c",), "d"], [Sub("e")]],
            [{"a": LISTED}, [LISTED], LISTED],
            {"a": LISTED, "b": [LISTED, LISTED], "c": [[LISTED]]},
        ],
    )
    def test_synthetic_values(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_random_values_with_shared_parts(self):
        rng = fresh_rng(salt=80)

        def value(depth, made):
            roll = rng.random()
            if made and roll < 0.25:
                return rng.choice(made)
            if depth > 4 or roll < 0.4:
                return rng.choice(self.ATOMS)
            size = rng.randrange(5)
            if roll < 0.6:
                item = [rng.choice(self.ATOMS[:9]) for _ in range(size)]
            elif roll < 0.85:
                item = [value(depth + 1, made) for _ in range(size)]
            else:
                item = {rng.choice(self.ODD_IDS): value(depth + 1, made) for _ in range(size)}
            if isinstance(item, list) and rng.random() < 0.2:
                item = tuple(item)
            made.append(item)
            return item

        for _ in range(200):
            doc = value(0, [])
            assert _json_text(doc) == json.dumps(doc, indent=2)

    def test_every_subcommand_report(self, capsys, tmp_path, d1_file, d3_file):
        from radrank import enumerate_v, gen_d2

        d2_file = tmp_path / "d2.json"
        save_model(gen_d2(4), str(d2_file))
        eta = {"P0": "Q0", "P1": "Q1", "P2": "Q2", "P3": "Q3"}
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps(
            [[sorted(s), sorted(eta[p] for p in s)] for s in enumerate_v(gen_d1(4))]
        ))
        vecs = tmp_path / "vecs.json"
        vecs.write_text(json.dumps({
            "labels": self.ODD_IDS[:4],
            "vectors": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
        }))
        argvs = [
            ["validate", d1_file],
            ["v-member", d1_file, "P0,P1"],
            ["enumerate-v", d1_file],
            ["coprime", d1_file, "P0,P1", "P2,P3"],
            ["mprop", d1_file],
            ["inv", d1_file, "P0"],
            ["inv", d1_file],
            ["rank", d1_file],
            ["rank", "--timing", d1_file],
            ["iso", d1_file, str(d2_file)],
            ["iso", d1_file, d3_file],
            ["extend-iso", d1_file, str(d2_file), str(phi)],
            ["gen", "d2", "--k", "3"],
            ["reay", str(vecs)],
        ]
        commands = set()
        for argv in argvs:
            code, out, _ = run(capsys, argv[0], "--json", *argv[1:])
            assert code in (0, 1)
            report = json.loads(out)
            assert out == json.dumps(report, indent=2) + "\n"
            commands.add(report["command"])
        assert commands == {
            "validate", "v-member", "enumerate-v", "coprime", "mprop", "inv",
            "rank", "iso", "extend-iso", "gen", "reay",
        }

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    @pytest.mark.parametrize(
        "command,model",
        [
            ("mprop", gen_d2(12)),
            ("mprop", witness_rich_random()),
            ("enumerate-v", gen_d1(12)),
            ("mprop", signed_model(ODD_IDS)),
            ("enumerate-v", signed_model(ODD_IDS)),
        ],
        ids=["mprop-d2-12", "mprop-random-11", "enumerate-v-d1-12", "mprop-odd-ids",
             "enumerate-v-odd-ids"],
    )
    def test_v_sized_reports(self, capsys, tmp_path, command, model, as_json):
        path = tmp_path / "m.json"
        save_model(model, str(path))
        members = [sorted(s) for s in enumerate_v(loads_model(path.read_text()))]
        stars = [(p, [s for s in members if p in s]) for p in model.ids()]
        if command == "mprop":
            results = {"families": [{"prime": p, "members": star} for p, star in stars]}
            lines = [f"{p}: " + " ".join(map(ids_text, star)) for p, star in stars]
        else:
            results = {"members": members, "count": len(members)}
            lines = list(map(ids_text, members))
        report = {
            "command": command,
            "inputs": {"digest": _digest([command, path.read_text()])},
            "results": results,
        }
        if as_json:
            code, out, _ = run(capsys, command, "--json", str(path))
            want = json.dumps(report, indent=2) + "\n"
        else:
            code, out, _ = run(capsys, command, str(path))
            want = "".join(line + "\n" for line in lines)
        assert code == 0
        # as lists of lines, which pytest tells apart by the first that
        # differs, where a diff of two ~3.6 MB strings would take minutes
        assert out.splitlines(keepends=True) == want.splitlines(keepends=True)

    def test_members_at_two_indents_and_as_text(self):
        m = signed_model(self.ODD_IDS)
        members = [sorted(s) for s in enumerate_v(m)]
        star = tuple(s for s in enumerate_v(m) if self.ODD_IDS[0] in s)
        texts = {}
        value = {"a": _Members(m, star, texts), "b": [{"c": _Members(m, star, texts)}]}
        stars = [sorted(s) for s in star]
        assert _json_text(value) == json.dumps({"a": stars, "b": [{"c": stars}]}, indent=2)
        assert list(_Members(m, star, texts).lines()) == list(map(ids_text, stars))
        whole = _Members(m)
        assert _json_text([whole, whole]) == json.dumps([members, members], indent=2)
        assert list(whole.lines()) == list(map(ids_text, members))

    def test_empty_v(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        # no class is negative, so no positive combination vanishes
        save_model(signed_model(self.ODD_IDS, signs=(1, 2)), str(path))
        code, out, _ = run(capsys, "enumerate-v", "--json", str(path))
        assert code == 0
        assert out == json.dumps({
            "command": "enumerate-v",
            "inputs": {"digest": _digest(["enumerate-v", path.read_text()])},
            "results": {"members": [], "count": 0},
        }, indent=2) + "\n"
        assert run(capsys, "enumerate-v", str(path)) == (0, "", "")
        for argv in (["mprop", "--json", str(path)], ["mprop", str(path)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "witness-rich" in err


class TestOneParserPerProcess:
    def test_in_process_calls_match_fresh_processes(self, capsys, tmp_path, d1_file, d3_file):
        vectors = tmp_path / "v.json"
        vectors.write_text('[["1"], ["-1"], ["2"]]')
        calls = [
            ["rank"],  # usage error: the model is missing
            ["rank", d1_file],
            ["reay", str(vectors), "--json"],
            ["gen", "d1", "--k", "x"],  # usage error: --k is not an integer
            ["v-member", d1_file, "P0,P1"],
            ["iso", d1_file, d3_file],
            ["enumerate-v", "--json", d1_file],
        ]
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "radrank.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
        assert build_parser() is build_parser()


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        target = tmp_path / "m.json"
        gen = subprocess.run(
            ["radrank", "gen", "d1", "--k", "4", "-o", str(target)],
            capture_output=True,
            text=True,
        )
        assert gen.returncode == 0
        rank = subprocess.run(
            ["radrank", "rank", str(target)], capture_output=True, text=True
        )
        assert rank.returncode == 0
        assert rank.stdout.strip() == "rank = 1"

    def test_module_invocation(self, tmp_path):
        target = tmp_path / "t.json"
        save_model(zero_model(0, 3), str(target))
        proc = subprocess.run(
            [sys.executable, "-m", "radrank.cli", "rank", str(target)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "rank = 0"

    def test_closed_output_pipe_exits_2_without_a_traceback(self, tmp_path):
        target = tmp_path / "d2.json"
        save_model(gen_d2(12), str(target))
        # 682,044 bytes of text, far past a 64 KiB pipe buffer
        with subprocess.Popen(
            [sys.executable, "-m", "radrank.cli", "mprop", str(target)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
            assert b"Traceback" not in err

    def test_unencodable_text_output_exits_2_without_a_traceback(self, tmp_path):
        target = tmp_path / "m.json"
        target.write_text(json.dumps({"ambient_rank": 1, "primes": [
            {"id": "\u00e9", "class": ["1"]}, {"id": "P1", "class": ["-1"]},
        ]}))
        env = {**os.environ, "PYTHONIOENCODING": "ascii"}

        def cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "radrank.cli", *argv, str(target)],
                capture_output=True,
                text=True,
                env=env,
            )

        text = cli("enumerate-v")
        assert text.returncode == 2
        assert text.stderr.startswith("error: ")
        assert "Traceback" not in text.stderr
        # --json output is ASCII whatever the ids
        report = cli("enumerate-v", "--json")
        assert report.returncode == 0
        assert json.loads(report.stdout)["results"]["members"] == [["P1", "\u00e9"]]
