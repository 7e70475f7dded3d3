"""Command-line surface: schemas, exit codes, determinism, round trips."""

import json

from deligne_simpson.cli import main
from deligne_simpson.constructions import MatrixTuple, make_example
from deligne_simpson.jnf import JnfTuple, JordanForm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def intro_tuple_dict():
    t = JnfTuple([JordanForm.nilpotent([2], label="s")] * 3)
    return t.to_dict()


class TestCheck:
    def test_intro_example(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", intro_tuple_dict())
        code, out = run(capsys, "check", path)
        data = json.loads(out)
        assert code == 0
        assert data["good"] is True and data["n_s"] == 1

    def test_not_good_exit_one(self, tmp_path, capsys):
        t = JnfTuple([JordanForm.diagonal([2, 1])] * 3)
        path = write(tmp_path, "t.json", t.to_dict())
        code, out = run(capsys, "check", path)
        assert code == 1
        assert json.loads(out)["good"] is False

    def test_bad_schema_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", {"shapes": []})
        code, out = run(capsys, "check", path)
        assert code == 2
        assert "error" in json.loads(out)

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", intro_tuple_dict())
        _, out1 = run(capsys, "check", path)
        _, out2 = run(capsys, "check", path)
        assert out1 == out2


class TestSpectraAndGeneric:
    def payload(self, minus_one=True):
        values = ([{"s": "0"}, {"s": "0"}, {"s": "1/2"}] if minus_one
                  else [{"s": "0"}, {"s": "1/2"}, {"s": "1/2"}])
        return {
            "tuple": intro_tuple_dict(),
            "assignment": {
                "version": "multiplicative",
                "values": values,
                "mults": [{"s": 2}] * 3,
            },
        }

    def test_spectra(self, tmp_path, capsys):
        path = write(tmp_path, "in.json", self.payload())
        code, out = run(capsys, "spectra", path)
        data = json.loads(out)
        assert code == 0
        assert data == {"q": 2, "d": 1, "m0": 1, "xi_primitive": True}

    def test_generic_negative_decision(self, tmp_path, capsys):
        path = write(tmp_path, "in.json", self.payload(minus_one=False))
        code, out = run(capsys, "generic", path)
        data = json.loads(out)
        assert code == 1 and data["generic"] is False
        assert data["relation"]["defect"] is not None

    def test_generic_positive(self, tmp_path, capsys):
        path = write(tmp_path, "in.json", self.payload(minus_one=True))
        code, out = run(capsys, "generic", path)
        assert code == 0 and json.loads(out)["generic"] is True

    def test_scan_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DSP_MAX_N", "1")
        path = write(tmp_path, "in.json", self.payload())
        code, out = run(capsys, "generic", path)
        assert code == 2 and "error" in json.loads(out)


class TestVerdict:
    def test_intro_minus_one(self, tmp_path, capsys):
        payload = TestSpectraAndGeneric().payload(minus_one=True)
        path = write(tmp_path, "in.json", payload)
        code, out = run(capsys, "verdict", path)
        data = json.loads(out)
        assert code == 0
        assert data["verdict"]["status"] == "SolvableIrreducible"
        assert data["verdict"]["theorem"] == "Thm-generic1"

    def test_intro_plus_one_open(self, tmp_path, capsys):
        payload = TestSpectraAndGeneric().payload(minus_one=False)
        path = write(tmp_path, "in.json", payload)
        code, out = run(capsys, "verdict", path)
        data = json.loads(out)
        assert code == 0
        assert data["verdict"]["status"] == "OpenCase"
        assert data["verdict"]["theorem"] == "Conjecture-1"

    def test_not_good_exit_one(self, tmp_path, capsys):
        t = JnfTuple([JordanForm.diagonal([2, 1])] * 3)
        path = write(tmp_path, "in.json", {"tuple": t.to_dict(), "assignment": None})
        code, out = run(capsys, "verdict", path)
        assert code == 1
        assert json.loads(out)["verdict"]["status"] == "NotSolvable"


class TestClassify:
    def test_almost_b1(self, tmp_path, capsys):
        t = JnfTuple([JordanForm.nilpotent(p) for p in [(4, 2), (3, 3), (3, 3)]])
        path = write(tmp_path, "t.json", t.to_dict())
        code, out = run(capsys, "classify", path)
        assert code == 0
        assert json.loads(out) == {"name": "almost-b1", "g": 2}


class TestConstructVerifyRoundTrip:
    def test_examples_verify_and_pass(self, tmp_path, capsys):
        for ex, n in [("ex2", None), ("ex1", 4), ("ex3", 6), ("ex0", None)]:
            argv = ["construct", "--example", ex]
            if n:
                argv += ["--n", str(n)]
            code, out = run(capsys, *argv)
            assert code == 0
            path = tmp_path / ("%s.json" % ex)
            path.write_text(out)
            code, out = run(capsys, "verify", str(path))
            assert code == 0, out
            assert json.loads(out)["zero_sum"] is True

    def test_almost_special_roundtrip(self, tmp_path, capsys):
        code, out = run(capsys, "construct", "--almost-special", "b1", "--g", "2")
        assert code == 0
        path = tmp_path / "b1.json"
        path.write_text(out)
        expected = JnfTuple([JordanForm.nilpotent(p)
                             for p in [(4, 2), (3, 3), (3, 3)]])
        exp_path = write(tmp_path, "exp.json", expected.to_dict())
        code, out = run(capsys, "verify", str(path), "--expected", exp_path)
        assert code == 0
        data = json.loads(out)
        assert data["types_match"] is True
        assert data["centralizer_trivial"] is True

    def test_nice_construct_roundtrip(self, tmp_path, capsys):
        b1 = make_example("ex2")
        b2 = MatrixTuple(tuple(m.scale(2) for m in b1.mats), b1.alphas)
        blocks_path = write(tmp_path, "blocks.json",
                            {"blocks": [b1.to_dict(), b2.to_dict()]})
        code, out = run(capsys, "construct", "--nice", blocks_path, "--m0", "1")
        assert code == 0
        tup = MatrixTuple.from_dict(json.loads(out))
        assert tup.n == 6 and tup.has_extra
        path = tmp_path / "nice.json"
        path.write_text(out)
        code, out = run(capsys, "verify", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["centralizer_trivial"] is True
        assert data["apparent_condition"] is not None

    def test_alphas_override(self, tmp_path, capsys):
        code, out = run(capsys, "construct", "--example", "ex2",
                        "--alphas", "2,5/2,7")
        assert code == 0
        data = json.loads(out)
        assert data["alphas"] == ["2", "5/2", "7"]

    def test_verify_failure_exit_one(self, tmp_path, capsys):
        t = make_example("ex2")
        broken = MatrixTuple((t.mats[0], t.mats[1], t.mats[1]), t.alphas)
        path = write(tmp_path, "bad.json", broken.to_dict())
        code, out = run(capsys, "verify", path)
        assert code == 1
        assert json.loads(out)["zero_sum"] is False


class TestErrorsExitTwo:
    def test_non_object_json_on_stdin(self, capsys, monkeypatch):
        import io
        for command in ("spectra", "verdict", "generic", "check", "verify"):
            monkeypatch.setattr("sys.stdin", io.StringIO("[1, 2]"))
            code, out = run(capsys, command, "-")
            assert code == 2, command
            assert json.loads(out)["error"]["type"] == "InputError"

    def test_scaling_exhausted(self, tmp_path, capsys):
        # B = -I on the first block (weights 1, 2, 3): a repeated nonzero
        # eigenvalue that no scaling constant separates
        def tup(a, b):
            zero = {"n": 2, "entries": [["0", "0"], ["0", "0"]]}
            return {"alphas": ["1", "2", "3"], "zero_sum": True,
                    "mats": [{"n": 2, "entries": a}, {"n": 2, "entries": b}, zero]}
        blocks = [tup([["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]),
                  tup([["0", "1"], ["0", "0"]], [["0", "-1"], ["0", "0"]])]
        path = write(tmp_path, "blocks.json", {"blocks": blocks})
        code, out = run(capsys, "construct", "--nice", path, "--m0", "1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ScalingExhaustedError"

    MALFORMED_TUPLES = [
        {"mats": 5, "alphas": []},
        {"mats": [{"n": 1, "entries": [["1/0"]]}], "alphas": ["1"]},
        {"mats": [], "alphas": []},
        {"mats": [{"n": 2, "entries": ["12", "34"]}], "alphas": ["1"]},
        {"mats": [{"n": 1, "entries": [["1"]]}], "alphas": "1"},
    ]

    def test_malformed_matrix_tuple_on_stdin(self, capsys, monkeypatch):
        import io
        for bad in self.MALFORMED_TUPLES:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(bad)))
            code, out = run(capsys, "verify", "-")
            assert code == 2, bad
            assert json.loads(out)["error"]["type"] == "InputError"

    def test_malformed_nice_blocks(self, tmp_path, capsys):
        good = make_example("ex2").to_dict()
        for blocks in [[good] + [bad] for bad in self.MALFORMED_TUPLES] + [5]:
            path = write(tmp_path, "blocks.json", {"blocks": blocks})
            code, out = run(capsys, "construct", "--nice", path, "--m0", "1")
            assert code == 2, blocks
            assert "error" in json.loads(out)

    def test_bad_alphas(self, capsys):
        for text in ("1e400", "1/0", "1.5", "1,,2"):
            code, out = run(capsys, "construct", "--example", "ex2",
                            "--alphas", text)
            assert code == 2, text
            assert json.loads(out)["error"]["type"] == "ValueError"

    def test_enumerate_p_below_one(self, capsys):
        for p in ("0", "-1"):
            code, out = run(capsys, "enumerate", "--n-max", "5", "--p", p)
            assert code == 2, p
            assert json.loads(out)["error"]["type"] == "ValueError"


class TestStrictGrammar:
    """Sizes, multiplicities and offsets are JSON integers; rationals are
    strings of the form p or p/q."""

    def test_block_sizes_must_be_integers(self, tmp_path, capsys):
        for size in (2.7, True, "2", 2.0):
            t = {"forms": [{"n": 2, "blocks": {"s": [size]}}] * 3}
            path = write(tmp_path, "t.json", t)
            code, out = run(capsys, "check", path)
            assert code == 2, size
            assert json.loads(out)["error"]["type"] == "InputError"

    def test_objects_where_objects_belong(self, tmp_path, capsys):
        t = {"forms": [{"n": 2, "blocks": [2]}] * 3}
        code, out = run(capsys, "check", write(tmp_path, "t.json", t))
        assert code == 2
        a = self.assignment(values=[{"s": "0"}, {"s": "0"}, ["1/2"]])
        code, out = run(capsys, "generic", write(tmp_path, "a.json", a))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_size_field_must_be_an_integer(self, tmp_path, capsys):
        t = {"forms": [{"n": 2.0, "blocks": {"s": [2]}}] * 3}
        code, out = run(capsys, "check", write(tmp_path, "t.json", t))
        assert code == 2

    def assignment(self, **changes):
        a = TestSpectraAndGeneric().payload(minus_one=True)["assignment"]
        a.update(changes)
        return a

    def test_rational_values(self, tmp_path, capsys):
        for value in ("1e400", "1e999999999", "0.5", 0, "1/0"):
            a = self.assignment(values=[{"s": "0"}, {"s": "0"}, {"s": value}])
            code, out = run(capsys, "generic", write(tmp_path, "a.json", a))
            assert code == 2, value
            assert json.loads(out)["error"]["type"] == "InputError"

    def test_multiplicities_and_offsets(self, tmp_path, capsys):
        bad = [self.assignment(mults=[{"s": 2}, {"s": 2}, {"s": "2"}]),
               self.assignment(mults=[{"s": 2}, {"s": 2}, {"s": True}]),
               self.assignment(offsets={"s": [0, 1.5]}),
               self.assignment(offsets={"s": "01"})]
        for a in bad:
            code, out = run(capsys, "generic", write(tmp_path, "a.json", a))
            assert code == 2, a
        good = self.assignment(offsets={"s": [-1, 0]})
        code, out = run(capsys, "generic", write(tmp_path, "a.json", good))
        assert code in (0, 1) and "error" not in json.loads(out)


class TestStdinAndVerifyDetail:
    def test_check_from_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(intro_tuple_dict())))
        code, out = run(capsys, "check", "-")
        assert code == 0 and json.loads(out)["good"] is True

    def test_verify_ex2_reports_irreducible(self, tmp_path, capsys):
        code, out = run(capsys, "construct", "--example", "ex2")
        path = tmp_path / "ex2.json"
        path.write_text(out)
        code, out = run(capsys, "verify", str(path))
        data = json.loads(out)
        assert code == 0
        assert data["irreducible"] is True and data["zero_sum"] is True


class TestMergeAndEnumerate:
    def test_merge(self, capsys):
        code, out = run(capsys, "merge", "--n", "5", "--r1", "2", "--r2", "1")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"a", "a_prime", "merged"}

    def test_base_list_zero(self, capsys):
        code, out = run(capsys, "enumerate", "--base-list", "0")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 4
        assert all(line["report"]["kappa"] == 2 for line in lines)

    def test_enumerate_rigid(self, capsys):
        code, out = run(capsys, "enumerate", "--rigidity", "2",
                        "--n-max", "3", "--p", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(line["report"]["kappa"] == 0 for line in lines)
        assert any(line["mvs"] == [[1, 1], [1, 1], [1, 1]] for line in lines)

    def test_enumerate_needs_nmax(self, capsys):
        code, out = run(capsys, "enumerate", "--rigidity", "2", "--p", "2")
        assert code == 2
